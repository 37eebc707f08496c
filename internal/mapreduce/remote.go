package mapreduce

import (
	"fmt"

	"dyno/internal/data"
	"dyno/internal/dfs"
)

// TaskExecutor is the execution seam of the runtime backends: when
// Env.Exec is set, the record loop of every map and reduce task runs on
// it (a remote worker fleet), while the job lifecycle — scheduling,
// shuffling, statistics, virtual time, retries, speculation — stays
// in-process on the simulator, so both backends run the same plans and
// jobs and produce the same rows by construction.
type TaskExecutor interface {
	ExecMap(m MapExec) (*MapExecOut, error)
	ExecReduce(r ReduceExec) (*ReduceExecOut, error)
}

// JobRetirer is an optional TaskExecutor extension: executors that
// retain intermediate state outside the controller (peer-held shuffle
// blocks) are told when a job completes — output final, failed or
// canceled — so they can reclaim it.
type JobRetirer interface {
	RetireJob(jobName string)
}

// ShufflePart digests one partition of a map output retained away from
// the controller: its pair count and virtual shuffle bytes, priced by
// Partitioned.Bytes as the in-process runtime prices it, so both
// runtimes account bit-identical bytes.
type ShufflePart struct {
	Count int
	Bytes int64
}

// MapExec describes one map task for a TaskExecutor.
type MapExec struct {
	JobName  string
	TaskName string
	// File and Split identify the input block (the executor resolves
	// them to worker-readable storage).
	File     *dfs.File
	Split    int
	InputIdx int
	// NumReducers partitions a shuffle job's output; it is 0 for a
	// map-only job, whose tasks answer rows.
	NumReducers int
	// Broadcasts are the job's build sides (workers rebuild the hash
	// tables from the referenced files).
	Broadcasts []Broadcast
	// Op is the job's operator (a *physop.OpSpec); the seam keeps it
	// opaque because the kernel package sits above this one.
	Op any
}

// MapExecOut is a remote map task's output: the record loop's answer
// as RunMapTask gives it, which the job accounts for as a local run's.
// The job takes a map-only task's Rows over and recycles them at its
// end, so the executor must hold no other reference to them; From and
// Sel are only read. A shuffle task's pairs stay on the producing
// worker: Shuffled is empty, Shuffle is the handle reduce tasks pass
// back and ShuffleParts its digest per partition.
type MapExecOut struct {
	MapOutput
	Shuffle      any
	ShuffleParts []ShufflePart
}

// ReduceExec describes one reduce task: Inputs lists every map
// output's handle (MapExecOut.Shuffle, opaque to this package) in map
// order, and the executor assembles the partition worker-side for
// RunReduceTask, which sorts it.
type ReduceExec struct {
	JobName   string
	TaskName  string
	Partition int
	Inputs    []any
	Op        any
}

// ReduceExecOut is a remote reduce task's output.
type ReduceExecOut struct {
	Rows       []data.Value
	CPUSeconds float64
}

// execMap delegates the record loop of one map task to the executor;
// runMap replays its reply through the same accounting as a local run.
func (j *Job) execMap(st *mapTaskState, input Input) (*MapExecOut, error) {
	m := MapExec{
		JobName:    j.spec.Name,
		TaskName:   j.taskName("-m", st.seq),
		File:       input.File,
		Split:      st.splitIdx,
		InputIdx:   st.inputIdx,
		Broadcasts: j.spec.Broadcasts,
		Op:         j.spec.RemoteOp,
	}
	if j.spec.Reduce != nil {
		m.NumReducers = j.numReducers
	}
	out, err := j.env.Exec.ExecMap(m)
	if err != nil {
		return nil, err
	}
	// A shuffle task's output was retained on the producing worker.
	if j.spec.Reduce != nil && (out.Shuffle == nil || len(out.ShuffleParts) != j.numReducers) {
		return nil, fmt.Errorf("mapreduce: executor returned %d shuffle parts for %s, want %d retained",
			len(out.ShuffleParts), j.spec.Name, j.numReducers)
	}
	return out, nil
}

// execReduce ships the ordered list of retained map-output handles to
// the executor, which assembles the partition worker-side.
func (j *Job) execReduce(partition int) (*ReduceExecOut, error) {
	var inputs []any
	for _, ms := range j.mapStates {
		if partition < len(ms.shuffleParts) {
			inputs = append(inputs, ms.shuffle)
		}
	}
	return j.env.Exec.ExecReduce(ReduceExec{
		JobName:   j.spec.Name,
		TaskName:  j.taskName("-r", partition),
		Partition: partition,
		Inputs:    inputs,
		Op:        j.spec.RemoteOp,
	})
}
