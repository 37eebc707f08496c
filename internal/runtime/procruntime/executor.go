package procruntime

import (
	"errors"
	"fmt"
	"sync"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
)

// executor adapts the mapreduce task seam to the fleet's wire
// protocol: it resolves DFS blocks to spans of mirror files and
// dispatches tasks. A shuffle map task's output stays on its worker,
// which answers per-partition digests; a reduce task carries a fetch
// list. A segment it could not fetch is recovered by re-running its
// deterministic map and inlining the segment, so correctness never
// depends on a peer staying up.
type executor struct {
	f  *Fleet
	fs *dfs.FS
	// waves is the owning Runtime's wave runner; nil outside one.
	waves *waveRunner
}

var (
	_ mapreduce.TaskExecutor = executor{}
	_ mapreduce.JobRetirer   = executor{}
)

// RetireJob implements mapreduce.JobRetirer: the job's retained
// shuffle blocks are garbage on every worker once its output exists.
func (e executor) RetireJob(jobName string) { e.f.RetireJob(jobName) }

// peerOutput is the controller's handle to one map task's shuffle
// output retained on its worker. When the peer is gone or has evicted
// it, recover re-runs the map without a ShuffleID, so the pairs return.
type peerOutput struct {
	f     *Fleet
	url   string     // producing worker (the dispatch winner)
	id    string     // shuffle id in the producer's registry
	task  *wire.Task // the map task; recovery re-runs it retain-cleared
	parts []wire.ShufflePart

	mu        sync.Mutex
	recovered bool
	pairs     [][]wire.KV
}

func (p *peerOutput) recover(part int) ([]wire.KV, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.recovered {
		plain := *p.task
		plain.ShuffleID, plain.ByteScale = "", 0
		res, err := p.f.dispatch(&plain, nil)
		if err != nil {
			return nil, fmt.Errorf("procruntime: recovery of shuffle %s: %w", p.id, err)
		}
		p.pairs = res.Pairs
		p.recovered = true
	}
	if part < 0 || part >= len(p.pairs) {
		return nil, nil
	}
	return p.pairs[part], nil
}

func (e executor) ExecMap(m mapreduce.MapExec) (*mapreduce.MapExecOut, error) {
	op, ok := m.Op.(*physop.OpSpec)
	if !ok {
		return nil, fmt.Errorf("procruntime: job %s: remote op is %T, want *physop.OpSpec", m.JobName, m.Op)
	}
	blocks, err := e.f.mirrorFile(e.fs, m.File)
	if err != nil {
		return nil, err
	}
	builds := make([]wire.BuildRef, 0, len(m.Broadcasts))
	for _, b := range m.Broadcasts {
		refs, err := e.f.mirrorFile(e.fs, b.File)
		if err != nil {
			return nil, err
		}
		builds = append(builds, wire.BuildRef{Name: b.Name, Wrap: b.Wrap, Filter: b.Filter, Keys: b.KeyPaths, Blocks: refs})
	}
	task := &wire.Task{
		Task:        m.TaskName,
		Kind:        "map",
		Op:          op,
		InputIdx:    m.InputIdx,
		Block:       blocks[m.Split],
		NumReducers: m.NumReducers,
		Builds:      builds,
	}
	if m.NumReducers > 0 {
		task.ShuffleID = e.f.nextShuffleID(m.JobName, m.TaskName)
		task.ByteScale = e.fs.ByteScale()
	}
	res, err := e.f.dispatch(task, e.waves.current())
	if err != nil {
		return nil, err
	}
	out := &mapreduce.MapExecOut{Rows: res.Rows, CPUMap: res.CPUMap, CPUTotal: res.CPUTotal}
	if len(res.Sel) > 0 {
		if out.From, err = scanRows(op, m, res); err != nil {
			return nil, err
		}
		out.Sel = res.Sel
	}
	if m.NumReducers > 0 {
		out.Shuffle = &peerOutput{f: e.f, url: res.Worker, id: task.ShuffleID, task: task, parts: res.Parts}
		out.ShuffleParts = res.Parts
	}
	return out, nil
}

// scanRows resolves an answer by position to the rows it names, taken
// from the controller's own copy of the split through the image the sim
// runtime scans: the mirror wrote the block's records in order, so a
// position means the same record on both sides. An answer no worker
// gives — positions for an op that emits rows of its own making,
// positions beside rows, a position past the block — fails the task:
// it would come back the same from any worker, so it is not retried.
// (The decoder has checked that the positions ascend.)
func scanRows(op *physop.OpSpec, m mapreduce.MapExec, res *wire.TaskResult) ([]data.Value, error) {
	fail := func(answer string) error {
		return fmt.Errorf("procruntime: job %s task %s: worker %s answered %s", m.JobName, m.TaskName, res.Worker, answer)
	}
	if len(res.Rows) > 0 {
		return nil, fail("with both rows and positions")
	}
	blk := m.File.Block(m.Split)
	rows, ok := physop.ScanImage(op, batch.For(blk.Aux(), blk.Records()))
	if !ok {
		return nil, fail("a " + op.Kind + " op with positions")
	}
	if last := int(res.Sel[len(res.Sel)-1]); last >= len(rows) {
		return nil, fail(fmt.Sprintf("position %d of a %d-record block", last, len(rows)))
	}
	return rows, nil
}

func (e executor) ExecReduce(r mapreduce.ReduceExec) (*mapreduce.ReduceExecOut, error) {
	op, ok := r.Op.(*physop.OpSpec)
	if !ok {
		return nil, fmt.Errorf("procruntime: job %s: remote op is %T, want *physop.OpSpec", r.JobName, r.Op)
	}
	// Ship the segment list; the worker pulls the segments each producer
	// holds in one request and sorts the assembly. Empty segments carry
	// no pairs and are elided up front.
	fetches := make([]wire.ShuffleRef, 0, len(r.Inputs))
	handles := make([]*peerOutput, 0, len(r.Inputs))
	for _, in := range r.Inputs {
		po, ok := in.(*peerOutput)
		if !ok {
			return nil, fmt.Errorf("procruntime: job %s: shuffle handle is %T, want *peerOutput", r.JobName, in)
		}
		if r.Partition < 0 || r.Partition >= len(po.parts) || po.parts[r.Partition].Count == 0 {
			continue
		}
		fetches = append(fetches, wire.ShuffleRef{URL: po.url, ID: po.id, Part: r.Partition})
		handles = append(handles, po)
	}
	task := &wire.Task{
		Task:      r.TaskName,
		Kind:      "reduce",
		Op:        op,
		Partition: r.Partition,
		Fetches:   fetches,
	}
	// A failed peer fetch names every segment the worker could not have;
	// each is inlined from a re-run of its map before one re-dispatch.
	for {
		res, err := e.f.dispatch(task, e.waves.current())
		if err == nil {
			return &mapreduce.ReduceExecOut{Rows: res.Rows, CPUSeconds: res.CPUSeconds}, nil
		}
		var tfe *taskFailedError
		if !errors.As(err, &tfe) {
			return nil, err
		}
		idxs, isFetch := wire.ParsePeerFetchErr(tfe.msg)
		if !isFetch {
			return nil, err // deterministic operator error: fail fast
		}
		for _, idx := range idxs {
			if idx < 0 || idx >= len(fetches) || handles[idx] == nil {
				return nil, err // names no segment still awaiting recovery
			}
			pairs, rerr := handles[idx].recover(r.Partition)
			if rerr != nil {
				return nil, rerr
			}
			fetches[idx] = wire.ShuffleRef{Pairs: pairs}
			handles[idx] = nil
		}
	}
}
