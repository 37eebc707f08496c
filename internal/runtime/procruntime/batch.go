package procruntime

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dyno/internal/runtime/wire"
)

// batcher conflates concurrent dispatches to one worker into batched
// /tasks RPCs. It is a conflation queue, not a wave barrier: the
// first task arriving after an idle period waits Config.BatchLinger
// for its wave co-arrivals (the sim releases a wave's tasks to the
// pool near-simultaneously, so sub-millisecond linger catches them),
// and tasks arriving while an RPC is in flight ride the next batch
// with no added latency. Nothing here knows about waves, so retries,
// hedges, and single stray tasks degrade to small batches instead of
// deadlocking on co-arrivals that will never come.
//
// Urgent tasks (retries and hedges — another worker is already late
// on them) enter a separate priority lane drained ahead of the
// regular queue, so a hedged straggler probe never FIFOs behind a
// full wave batch that happened to be queued first.
type batcher struct {
	f *Fleet
	w *workerState

	mu      sync.Mutex
	prio    []*batchItem // urgent lane, drained before queue
	queue   []*batchItem
	running bool // a sender goroutine is draining the queues
}

type batchItem struct {
	task *wire.Task
	done chan batchOut
}

type batchOut struct {
	res *wire.TaskResult
	err error
}

func newBatcher(f *Fleet, w *workerState) *batcher {
	return &batcher{f: f, w: w}
}

// do enqueues one task — on the priority lane when urgent — and
// blocks until its result arrives or the fleet closes.
func (b *batcher) do(task *wire.Task, urgent bool) (*wire.TaskResult, error) {
	item := &batchItem{task: task, done: make(chan batchOut, 1)}
	b.mu.Lock()
	if urgent {
		b.prio = append(b.prio, item)
	} else {
		b.queue = append(b.queue, item)
	}
	if !b.running {
		b.running = true
		go b.run()
	}
	b.mu.Unlock()
	select {
	case out := <-item.done:
		return out.res, out.err
	case <-b.f.done:
		return nil, fmt.Errorf("procruntime: fleet closed while task %s was queued", task.Task)
	}
}

// run is the sender loop: linger once for wave co-arrivals, then
// drain the queue in MaxBatch-sized RPCs until it is empty.
func (b *batcher) run() {
	if linger := b.f.cfg.BatchLinger; linger > 0 {
		t := time.NewTimer(linger)
		select {
		case <-t.C:
		case <-b.f.done:
			t.Stop()
			return // do() fails the pending items
		}
	}
	for {
		b.mu.Lock()
		if len(b.prio) == 0 && len(b.queue) == 0 {
			b.running = false
			b.mu.Unlock()
			return
		}
		// Fill each chunk from the priority lane first; urgent tasks
		// arriving while a wave drains jump every queued regular task.
		var items []*batchItem
		if n := min(len(b.prio), b.f.cfg.MaxBatch); n > 0 {
			items = b.prio[:n:n]
			b.prio = b.prio[n:]
		}
		if n := min(len(b.queue), b.f.cfg.MaxBatch-len(items)); n > 0 {
			items = append(items, b.queue[:n]...)
			b.queue = b.queue[n:]
		}
		b.mu.Unlock()
		b.flush(items)
	}
}

// flush runs one batched RPC and delivers per-item outcomes. A
// transport-level failure fails every item in the batch (each task's
// dispatch loop retries it on a distinct worker) but counts as ONE
// failure against the worker — a single lost RPC must not burn
// through BlacklistAfter just because it carried a full wave.
func (b *batcher) flush(items []*batchItem) {
	tasks := make([]*wire.Task, len(items))
	for i, it := range items {
		tasks[i] = it.task
	}
	results, err := b.f.postBatch(b.w, tasks)
	if err != nil {
		b.f.noteFailure(b.w)
		for _, it := range items {
			it.done <- batchOut{err: err}
		}
		return
	}
	for i, it := range items {
		it.done <- batchOut{res: results[i]}
	}
}

// postBatch runs one batched RPC against one worker and returns
// per-task results in request order. The attempt deadline scales with
// batch size because the worker executes the tasks sequentially: each
// task keeps its TaskTimeout budget.
func (f *Fleet) postBatch(w *workerState, tasks []*wire.Task) ([]*wire.TaskResult, error) {
	frame, err := wire.EncodeTaskBatch(tasks)
	if err != nil {
		return nil, err
	}
	defer frame.Close()
	payload := frame.Bytes()
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.TaskTimeout*time.Duration(len(tasks)))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/tasks", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	f.statRPCs.Add(1)
	f.statTasks.Add(int64(len(tasks)))
	f.statBytesOut.Add(int64(len(payload)))
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := wire.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("worker %s: read batch response: %w", w.url, err)
	}
	f.statBytesIn.Add(int64(len(body)))
	if resp.StatusCode != http.StatusOK {
		if len(body) > 4096 {
			body = body[:4096]
		}
		return nil, fmt.Errorf("worker %s: HTTP %d: %s", w.url, resp.StatusCode, bytes.TrimSpace(body))
	}
	results, err := wire.DecodeResultBatch(body)
	if err != nil {
		return nil, fmt.Errorf("worker %s: bad batch response: %v", w.url, err)
	}
	if len(results) != len(tasks) {
		return nil, fmt.Errorf("worker %s: batch answered %d of %d tasks", w.url, len(results), len(tasks))
	}
	return results, nil
}
