package procruntime

import (
	"errors"
	"fmt"
	"slices"
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
// list. A segment it could not fetch is relocated: its deterministic
// map is re-run under a fresh shuffle id on a live worker, which
// retains the copy for the reduce task to fetch, so correctness never
// depends on a peer staying up and no shuffle pair crosses the
// controller.
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
// output retained on a worker. When that copy is lost — its worker is
// gone or has evicted it — relocate re-runs the map under a fresh
// shuffle id and the handle names the new copy.
type peerOutput struct {
	f     *Fleet
	job   string
	task  *wire.Task // the map task; a relocation re-runs it under a fresh id
	parts []wire.ShufflePart

	mu  sync.Mutex
	url string // producing worker (the dispatch winner)
	id  string // shuffle id in the producer's registry
}

// ref is where partition part of the output can be fetched now.
func (p *peerOutput) ref(part int) wire.ShuffleRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	return wire.ShuffleRef{URL: p.url, ID: p.id, Part: part}
}

// relocate reports the copy under shuffle id lost and returns where
// partition part can be fetched instead. The first caller to report a
// copy re-runs the map, retained under a fresh id on whichever live
// worker dispatch picks; later callers, and concurrent reduce tasks,
// get that copy. The re-run's digests must be the lost copy's.
func (p *peerOutput) relocate(lost string, part int) (wire.ShuffleRef, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.id == lost {
		rerun := *p.task
		rerun.ShuffleID = p.f.nextShuffleID(p.job, rerun.Task)
		res, err := p.f.dispatch(&rerun, nil)
		if err != nil {
			return wire.ShuffleRef{}, fmt.Errorf("procruntime: relocation of shuffle %s: %w", lost, err)
		}
		if !slices.Equal(res.Parts, p.parts) {
			return wire.ShuffleRef{}, fmt.Errorf("procruntime: relocation of shuffle %s: re-run on %s answered digests %v, the lost copy's were %v", lost, res.Worker, res.Parts, p.parts)
		}
		p.url, p.id = res.Worker, rerun.ShuffleID
	}
	return wire.ShuffleRef{URL: p.url, ID: p.id, Part: part}, nil
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
		out.Shuffle = &peerOutput{f: e.f, job: m.JobName, task: task, parts: res.Parts, url: res.Worker, id: task.ShuffleID}
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
		fetches = append(fetches, po.ref(r.Partition))
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
	// each is relocated before one re-dispatch. A relocated copy lost in
	// turn is relocated again, for at most maxAttempts rounds.
	for round := 0; ; round++ {
		res, err := e.f.dispatch(task, e.waves.current())
		if err == nil {
			return &mapreduce.ReduceExecOut{Rows: res.Rows, CPUSeconds: res.CPUSeconds}, nil
		}
		var tfe *taskFailedError
		if !errors.As(err, &tfe) {
			return nil, err
		}
		idxs, isFetch := wire.ParsePeerFetchErr(tfe.msg)
		if !isFetch || round == e.f.cfg.maxAttempts {
			return nil, err // an operator error, or losses past the bound
		}
		// A hedged attempt may still be encoding this task: the next
		// round dispatches a copy.
		next := *task
		next.Fetches = slices.Clone(task.Fetches)
		for _, idx := range idxs {
			if idx < 0 || idx >= len(next.Fetches) {
				return nil, err // names no segment of the task
			}
			if next.Fetches[idx], err = handles[idx].relocate(next.Fetches[idx].ID, r.Partition); err != nil {
				return nil, err
			}
		}
		task = &next
	}
}
