package procruntime

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dyno/internal/runtime/wire"
)

// waveRunner is what a Runtime installs with cluster.Sim.SetWaveRunner:
// it starts every closure of a dispatch wave or Work batch at once and
// publishes it (the simulator runs one at a time) to the executor.
type waveRunner struct {
	f   *Fleet
	cur atomic.Pointer[wave]
}

// current returns the wave being run, if any; a nil runner has none.
func (r *waveRunner) current() *wave {
	if r == nil {
		return nil
	}
	return r.cur.Load()
}

func (r *waveRunner) run(closures []func()) {
	wv := &wave{f: r.f, pending: len(closures), sent: make(chan struct{})}
	r.cur.Store(wv)
	var wg sync.WaitGroup
	wg.Add(len(closures))
	for _, run := range closures {
		go func() {
			defer wg.Done()
			defer wv.leave()
			run()
		}()
	}
	wg.Wait()
	r.cur.Store(nil)
}

// wave is one dispatch wave on its way to the workers: one /tasks frame
// per assigned worker, sent the moment every closure has either
// enqueued its first dispatch (join) or returned without one (leave).
// The barrier is one-shot and cannot wait on a co-arrival that will not
// come: a closure blocks in its first dispatch until the send, so while
// the wave is open every dispatch reaching it is some closure's first
// and every returning closure made none — each is counted exactly once,
// no identity needed. Whatever arrives after the send (retries, hedges,
// recovery re-runs, a re-dispatched reduce) is refused by join and goes
// out at once as its own frame. (Only Fleet.Close releases a closure
// from the barrier early, and a closed fleet sends nothing.)
type wave struct {
	f    *Fleet
	sent chan struct{} // closed when the barrier fires

	mu      sync.Mutex
	pending int     // closures that have neither joined nor left
	frames  []frame // one per worker live at the first join
	joined  int
}

// frame is the part of a wave bound for one worker.
type frame struct {
	w     *workerState
	tasks []*wire.Task
	outs  []chan<- attempt
}

// attempt is one task's outcome on one worker, for its dispatch loop.
type attempt struct {
	res     *wire.TaskResult
	err     error
	w       *workerState
	elapsed time.Duration
}

// join adds a closure's first dispatch to the wave, round-robin over
// the live workers, and returns the worker chosen. It returns nil — the
// caller sends the task itself — for a nil wave (a dispatch outside any
// wave), once the wave was sent, or when no worker is live.
func (wv *wave) join(task *wire.Task, out chan<- attempt) *workerState {
	if wv == nil {
		return nil
	}
	wv.mu.Lock()
	defer wv.mu.Unlock()
	if wv.pending == 0 {
		return nil
	}
	if wv.frames == nil {
		live := wv.f.live(wv.pending)
		wv.frames = make([]frame, len(live))
		for i, w := range live {
			wv.frames[i].w = w
		}
	}
	if len(wv.frames) == 0 {
		return nil // the closure's leave still counts it
	}
	fr := &wv.frames[wv.joined%len(wv.frames)]
	wv.joined++
	fr.tasks = append(fr.tasks, task)
	fr.outs = append(fr.outs, out)
	wv.arrive()
	return fr.w
}

// leave counts a closure that returned. In an open wave it dispatched
// nothing (a broadcast build over slot memory, a missing remote op, no
// live worker); after the send its join already counted it.
func (wv *wave) leave() {
	wv.mu.Lock()
	defer wv.mu.Unlock()
	if wv.pending > 0 {
		wv.arrive()
	}
}

// arrive counts one closure and fires the barrier on the last; callers
// hold wv.mu. A closed fleet has failed its tasks and sends nothing.
func (wv *wave) arrive() {
	if wv.pending--; wv.pending > 0 {
		return
	}
	close(wv.sent)
	select {
	case <-wv.f.done:
		return
	default:
	}
	for _, fr := range wv.frames {
		if len(fr.tasks) > 0 {
			go wv.f.flush(fr.w, fr.tasks, fr.outs)
		}
	}
}

// flush runs one /tasks RPC and delivers per-task outcomes. A transport
// failure fails every task in the frame (each retries on a distinct
// worker) but is ONE failure against the worker — a single lost RPC must
// not burn through blacklistAfter just because it carried a full wave.
func (f *Fleet) flush(w *workerState, tasks []*wire.Task, outs []chan<- attempt) {
	start := time.Now()
	results, err := f.postBatch(w, tasks)
	if err != nil {
		f.noteFailure(w)
	}
	a := attempt{err: err, w: w, elapsed: time.Since(start)}
	for i, out := range outs {
		if err == nil {
			a.res = results[i]
		}
		out <- a // buffered for every attempt a task can make
	}
}

// postBatch runs one batched RPC against one worker and returns
// per-task results in request order. The attempt deadline scales with
// frame size so each task keeps its taskTimeout budget even on a
// single-core worker, which runs the frame one task after another.
func (f *Fleet) postBatch(w *workerState, tasks []*wire.Task) ([]*wire.TaskResult, error) {
	frame, err := wire.EncodeTaskBatch(tasks)
	if err != nil {
		return nil, err
	}
	defer frame.Close()
	payload := frame.Bytes()
	ctx, cancel := context.WithTimeout(context.Background(), taskTimeout*time.Duration(len(tasks)))
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
		return nil, fmt.Errorf("worker %s: HTTP %d: %s", w.url, resp.StatusCode, bytes.TrimSpace(body[:min(len(body), 4096)]))
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
