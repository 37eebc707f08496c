// Package mapreduce implements the MapReduce execution engine over the
// simulated cluster and DFS. It provides the three job shapes DYNO
// needs:
//
//   - map-only jobs (scans with local predicates/UDFs, broadcast hash
//     joins and broadcast-join chains, pilot runs with early termination
//     and on-demand split sampling),
//   - map-reduce jobs (repartition joins, group-by, order-by),
//   - statistics collection in either phase, one partial per task,
//     merged by the client (§5.4).
//
// Jobs always materialize their output to the DFS — the natural
// re-optimization checkpoints the paper exploits.
package mapreduce

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"strconv"
	"sync/atomic"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/stats"
)

// errBroadcastOOM is returned when a broadcast build side does not fit
// in a task slot's memory. In Jaql this aborts the query (§2.2.1: "the
// execution of the join, and hence the query fails due to an out of
// memory error").
var errBroadcastOOM = errors.New("mapreduce: broadcast build side exceeds slot memory")

// defaultBytesPerReducer sizes reduce tasks from job input volume in
// the spirit of Hive's bytes-per-reducer default, set to 256 MB so that
// jobs whose shuffle volume approaches their input volume still get
// adequate reduce parallelism on the simulated cluster.
const defaultBytesPerReducer = 256 << 20

// Gate is how an engine session drives the cluster simulator: submit
// jobs, read and charge the virtual clock, and block on a
// materialization point. *cluster.Sim is its own gate; a query service
// installs one per session (bound to its cancellation) that locks each
// call, so many engines interleave jobs on one simulator by event.
type Gate interface {
	// Submit enqueues a job on the simulator.
	Submit(j cluster.Job) *cluster.Submission
	// Now returns the current virtual time.
	Now() float64
	// Advance charges client-side work to the virtual clock.
	Advance(d float64)
	// RunUntil steps the simulator until pred() returns true. It
	// returns a non-nil error when the session is canceled or the
	// cluster goes idle with the predicate unsatisfiable; per-job
	// failures are reported by the submissions themselves, never by
	// RunUntil.
	RunUntil(pred func() bool) error
}

// Env bundles the shared services a job runs against.
type Env struct {
	FS  *dfs.FS
	Sim *cluster.Sim
	Reg *expr.Registry
	// Gate, when non-nil, mediates all simulator access for this
	// environment (shared-cluster mode); nil means Sim itself. Use the
	// Env methods Now, Advance and RunUntil, and Submit, instead of
	// touching Sim directly in any code path a gated session can reach.
	Gate Gate
	// Exec, when non-nil, runs every task's record loop (the
	// multi-process backend; see TaskExecutor). Jobs must then carry
	// Spec.RemoteOp: there is no in-process fallback.
	Exec TaskExecutor
	// DistributedCache enables Hive-0.12-style broadcast builds: the
	// build side is loaded once per node instead of once per task
	// (§6.6).
	DistributedCache bool
	// BytesPerReducer controls reduce-task sizing; 0 means the Hive
	// default.
	BytesPerReducer int64
	// OnCreateFile, when non-nil, is called with the name of every
	// output file a job creates, on whichever goroutine steps the
	// simulator: it must be concurrency-safe and not block.
	OnCreateFile func(name string)
}

// VirtualSize returns the virtual on-disk size of a record.
func (e *Env) VirtualSize(rec data.Value) int64 { return virtualSize(rec, e.FS.ByteScale()) }

// Bytes is partition p's virtual shuffle bytes at a byte scale (the
// DFS's): its records' VirtualSize, summed. It is the one price of a
// shuffled record — the in-process map and reduce accounting, a
// broadcast build's loaded bytes and a worker's retained digests read
// it — so both runtimes charge bit-identical bytes.
func (s *Partitioned) Bytes(p int, scale float64) int64 {
	var n int64
	for _, i := range s.Part(p) {
		n += virtualSize(s.Recs[i], scale)
	}
	return n
}

// virtualSize is a record's encoded size plus a separator, scaled.
func virtualSize(rec data.Value, scale float64) int64 {
	return int64(float64(rec.EncodedSize()+1) * scale)
}

// ClusterConfig returns the cluster's sizing parameters. Call sites
// use this instead of reaching through Sim so the scheduling substrate
// stays an implementation detail of the environment.
func (e *Env) ClusterConfig() cluster.Config { return e.Sim.Config() }

func (e *Env) gate() Gate {
	if e.Gate != nil {
		return e.Gate
	}
	return e.Sim
}

// Now returns the current virtual time.
func (e *Env) Now() float64 { return e.gate().Now() }

// Advance charges client-side work (optimizer calls, statistics
// merges) to the virtual clock.
func (e *Env) Advance(d float64) { e.gate().Advance(d) }

// RunUntil drives the cluster until pred() holds (see Gate.RunUntil).
func (e *Env) RunUntil(pred func() bool) error { return e.gate().RunUntil(pred) }

// Input is one mapped input of a job: a file, which of its blocks to
// map, and the kernel every one of its map tasks runs over its split
// (physop.OpSpec.Bind compiles it).
type Input struct {
	File *dfs.File
	// Splits selects block indexes to process; nil means all.
	Splits []int
	Map    MapFunc
}

// Broadcast declares a build side loaded into every map task (or once
// per node with the distributed cache).
//
// Wrap wraps raw base-table records as {Wrap: rec} before keying, so
// paths see a scan's row shape. Filter applies while building (Jaql's
// pattern); scanning the unfiltered file and filtering is charged once
// per job, tasks then load the filtered table. A pilot that consumed its
// whole input supplies the filtered file instead (§4.1's output reuse).
type Broadcast struct {
	Name     string
	File     *dfs.File
	KeyPaths []data.Path // build-side join key columns over the (wrapped) rows
	Wrap     string      // alias to wrap raw records with; "" = rows are stored pre-wrapped
	Filter   expr.Expr   // optional predicate applied during the build
	// Map (required) is the three fields above compiled by
	// physop.BindBuild: a repartition input's kernel, which wraps,
	// filters and shuffles each row under its key.
	Map MapFunc
}

// HashTable is an in-memory build side: its kept rows grouped by their
// key's normalized encoding — equality under data.Compare, so a probe
// re-checks nothing — each group in build scan order. Group g is
// rows[offs[g]:offs[g+1]] and keys[g] its key. slots is an open-
// addressing index (linear probing) sized once, a power of two at least
// twice the rows: a slot holds its key hash's high 32 bits above the
// group's id plus one (0 is empty), so a probe compares keys only on a
// tag match and a miss reads no key bytes. The hash is maphash under
// the table's own seed, which no answer depends on.
type HashTable struct {
	rows       []data.Value
	keys       []string
	offs       []int32
	slots      []uint64
	seed       maphash.Seed
	builtBytes int64   // virtual size of the retained (filtered) rows
	prepCPU    float64 // one-time UDF cost to produce the (filtered) build
}

// buildTable is a broadcast build as a one-partition shuffle of its
// blocks, each a map task of b's kernel on par (nil: inline), indexed
// when index is set. It sums the table's two charges: the retained rows'
// bytes at the byte scale (Partitioned.Bytes; 0 prices none) and the
// preparation's CPU. A filter that calls a UDF is scanned in order on
// one context, its cost a running sum that becomes virtual time; any
// other build costs nothing.
func buildTable(reg *expr.Registry, b Broadcast, blocks []*dfs.Block, scale float64, par func(n int, fn func(i int)), index bool) (*HashTable, error) {
	outs := make([]MapOutput, len(blocks))
	errs := make([]error, len(blocks))
	var ordered *expr.Ctx
	if expr.ContainsUDF(b.Filter) {
		ordered = &expr.Ctx{Reg: reg}
	}
	scan := func(i int) {
		outs[i], errs[i] = RunMapTask(&MapTask{Reg: reg, Ctx: ordered, Block: blocks[i], Map: b.Map, NumReducers: 1})
	}
	if ordered != nil || par == nil {
		for i := range blocks {
			scan(i)
		}
	} else {
		par(len(blocks), scan)
	}
	ht, n := &HashTable{}, 0
	for i := range outs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		ht.prepCPU += outs[i].CPUMap
		if scale != 0 {
			ht.builtBytes += outs[i].Shuffled.Bytes(0, scale)
		}
		n += len(outs[i].Shuffled.Idx)
	}
	if ordered != nil {
		ht.prepCPU = ordered.CPUSeconds
	}
	if index {
		ht.index(outs, n)
	}
	return ht, nil
}

// index groups the n kept rows, outs' positions in scan order, by key in
// two passes: the first finds or creates each row's group and counts it,
// the second is a counting sort that places each row at its group's
// next offset. Nothing is allocated per key and nothing grows.
func (h *HashTable) index(outs []MapOutput, n int) {
	h.seed = maphash.MakeSeed()
	h.slots = make([]uint64, 1<<bits.Len(uint(max(2*n-1, 1))))
	h.keys = make([]string, 0, n)
	h.offs = make([]int32, n+2) // group id+1's count at id+1, then its next offset at id
	ids := make([]uint32, 0, n) // each row's group id plus one, in scan order
	for i := range outs {
		s := &outs[i].Shuffled
		for _, at := range s.Idx {
			ids = append(ids, h.add(maphash.String(h.seed, s.NK[at]), s.NK[at]))
			h.offs[ids[len(ids)-1]+1]++
		}
	}
	for id := 3; id <= len(h.keys)+1; id++ {
		h.offs[id] += h.offs[id-1]
	}
	h.rows = make([]data.Value, n)
	for i := range outs {
		s := &outs[i].Shuffled
		for _, at := range s.Idx {
			h.rows[h.offs[ids[0]]] = s.Recs[at]
			h.offs[ids[0]]++
			ids = ids[1:]
		}
	}
	h.offs = h.offs[:len(h.keys)+1]
}

// add returns the id plus one of the group of nk, which hashes to hv,
// creating the group on first sight.
func (h *HashTable) add(hv uint64, nk string) uint32 {
	sl := h.find(hv, func(k string) bool { return k == nk })
	if h.slots[sl] == 0 {
		h.keys = append(h.keys, nk)
		h.slots[sl] = hv>>32<<32 | uint64(len(h.keys))
	}
	return uint32(h.slots[sl])
}

// find returns the slot of the key that hashes to hv and that eq
// accepts: its group's, or the empty slot it would take. Half the slots
// or more stay empty, so the scan ends.
func (h *HashTable) find(hv uint64, eq func(string) bool) int {
	mask := len(h.slots) - 1
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		if s := h.slots[i]; s == 0 || s>>32 == hv>>32 && eq(h.keys[uint32(s)-1]) {
			return i
		}
	}
}

// group is the rows of slot sl's group, capped, none for an empty slot.
func (h *HashTable) group(sl int) []data.Value {
	if id := uint32(h.slots[sl]); id != 0 {
		return h.rows[h.offs[id-1]:h.offs[id]:h.offs[id]]
	}
	return nil
}

// BuildHashTable indexes a broadcast side from its blocks (b.File is not
// read — a worker passes decoded mirror blocks); see buildTable.
func BuildHashTable(reg *expr.Registry, b Broadcast, blocks []*dfs.Block, scale float64, par func(n int, fn func(i int))) (*HashTable, error) {
	return buildTable(reg, b, blocks, scale, par, true)
}

// Probe returns the build rows whose key equals k, in build scan order:
// the group's window of the table's rows, read-only after the build (so
// concurrent probes are safe) and never to be mutated.
func (h *HashTable) Probe(k data.Value) []data.Value {
	var arr [48]byte
	nk, _ := data.AppendNormKey(arr[:0], k)
	return h.group(h.find(maphash.Bytes(h.seed, nk), func(key string) bool { return key == string(nk) }))
}

// ProbeNK is Probe for a key already normalized: nk must be the probe
// key's normalized encoding. The batch probe arm uses it with the
// split's pre-computed (interned) key encodings.
func (h *HashTable) ProbeNK(nk string) []data.Value {
	return h.group(h.find(maphash.String(h.seed, nk), func(key string) bool { return key == nk }))
}

// Spec describes a job.
type Spec struct {
	Name        string
	Inputs      []Input
	Reduce      ReduceFunc // nil for map-only jobs
	Output      string     // DFS path for the materialized result
	NumReducers int        // 0: sized from input bytes like Hive

	// Broadcasts are build sides for map-side hash joins.
	Broadcasts []Broadcast

	// CollectStats lists attribute paths to track on the output; nil
	// disables statistics collection for the job.
	CollectStats []data.Path
	KMVSize      int

	// StopAfter > 0 enables pilot-run early termination: once the
	// job-wide output counter reaches the value, queued tasks are
	// canceled (running tasks always finish their split).
	StopAfter int64
	// MoreSplits holds reserve splits per input, added on demand when
	// the initial sample is exhausted before StopAfter is reached
	// (PILR_MT's dynamic split addition).
	MoreSplits [][]int
	// FinishIfFractionDone > 0 keeps the job running to completion when
	// at least this fraction of splits has been processed once StopAfter
	// triggers (§4.1's selective-predicate optimization).
	FinishIfFractionDone float64

	// RemoteOp is the operator (*physop.OpSpec) the kernels above were
	// compiled from, which a task executor (Env.Exec, which requires it)
	// ships to workers to compile the same kernels.
	RemoteOp any
}

type mapTaskState struct {
	inputIdx int
	splitIdx int
	seq      int // index in Job.mapStates: submission order, the output's
	outRows  []data.Value
	shuffled Partitioned // in-process: the task's shuffle output
	// When the output stays on a worker, shuffle is the executor's
	// handle to it and shuffleParts its digest per partition.
	shuffle      any
	shuffleParts []ShufflePart
	collector    *stats.Collector
}

type reduceTaskState struct {
	outRows   []data.Value
	collector *stats.Collector
}

// Result summarizes a finished job.
type Result struct {
	Output        *dfs.File
	Stats         *stats.Partial
	OutRecords    int64
	SplitsTotal   int
	SplitsRun     int
	WholeInput    bool // every split of every input was processed
	OutputVirtual int64
}

// Job implements cluster.Job for a Spec.
type Job struct {
	env  *Env
	spec Spec
	par  func(n int, fn func(i int)) // the pool's parallel-for, for Start and finish

	numReducers int
	builds      map[string]*HashTable
	buildBytes  int64

	mapStates    []*mapTaskState
	reduceStates []*reduceTaskState
	mapsDone     int
	splitsTotal  int
	reserve      [][]int      // remaining on-demand splits per input
	emitted      atomic.Int64 // records the map tasks emitted, for early termination
	buildErr     error
	prepLatency  float64
	prepCharged  bool

	result *Result
	done   bool
}

// newJob validates a spec and returns a job ready to submit.
func newJob(env *Env, spec Spec) (*Job, error) {
	if env == nil || env.FS == nil || env.Sim == nil {
		return nil, errors.New("mapreduce: incomplete environment")
	}
	if spec.Name == "" {
		return nil, errors.New("mapreduce: job needs a name")
	}
	if len(spec.Inputs) == 0 {
		return nil, errors.New("mapreduce: job needs at least one input")
	}
	if spec.Output == "" {
		return nil, errors.New("mapreduce: job needs an output path")
	}
	if len(spec.MoreSplits) > 0 && len(spec.MoreSplits) != len(spec.Inputs) {
		return nil, errors.New("mapreduce: MoreSplits must align with Inputs")
	}
	if env.Exec != nil && spec.RemoteOp == nil {
		// The proc backend never silently falls back to in-process
		// execution.
		return nil, errors.New("mapreduce: job " + spec.Name + " has no remote op for the task executor")
	}
	for _, b := range spec.Broadcasts {
		if b.Map == nil {
			return nil, errors.New("mapreduce: broadcast " + b.Name + " has no build kernel (physop.BindBuild)")
		}
	}
	j := &Job{env: env, spec: spec, par: env.Sim.Parallel}
	j.numReducers = spec.NumReducers
	if j.numReducers <= 0 {
		var in int64
		for _, input := range spec.Inputs {
			in += input.File.Size()
		}
		j.numReducers = ReducersFor(env, float64(in))
	}
	if len(spec.MoreSplits) > 0 {
		j.reserve = make([][]int, len(spec.MoreSplits))
		for i, s := range spec.MoreSplits {
			j.reserve[i] = append([]int(nil), s...)
		}
	}
	return j, nil
}

// ReducersFor converts a shuffle volume (estimated, or the job's raw
// input bytes when nothing better is known) to a reduce-task count in
// the spirit of Hive's bytes-per-reducer rule, bounded by twice the
// cluster's reduce slots.
func ReducersFor(env *Env, shuffleBytes float64) int {
	per := float64(env.BytesPerReducer)
	if per <= 0 {
		per = defaultBytesPerReducer
	}
	n := max(int(shuffleBytes/per), 1)
	if most := env.ClusterConfig().ReduceSlots() * 2; most > 0 {
		n = min(n, most)
	}
	return n
}

// Name implements cluster.Job.
func (j *Job) Name() string { return j.spec.Name }

// Start implements cluster.Job: loads broadcast sides and creates one
// map task per selected split.
func (j *Job) Start(sub *cluster.Submission) []*cluster.Task {
	// Registered here, not by the submitter: Start runs on the goroutine
	// stepping the simulator, the only one that may touch a submission
	// of a shared cluster. A job canceled before Start holds nothing.
	sub.OnDone(j.retire)
	// Find or build the broadcast sides (see table). Loads are charged
	// per task (or node), a filtered build's preparation once.
	j.builds = make(map[string]*HashTable, len(j.spec.Broadcasts))
	for _, b := range j.spec.Broadcasts {
		ht, err := j.table(b)
		if err != nil {
			j.buildErr = err
			break
		}
		j.builds[b.Name] = ht
		j.buildBytes += ht.builtBytes
		// A filtered build is a map-only stage of its own: one more job
		// startup and a cluster-wide scan of the unfiltered input.
		if prepBytes, cfg := b.File.Size(), j.env.ClusterConfig(); b.Filter != nil && prepBytes > 0 {
			slots := max(float64(cfg.MapSlots()), 1)
			j.prepLatency += cfg.JobStartup + float64(prepBytes)/(cfg.ScanBps*slots) + ht.prepCPU/slots
		}
	}
	var tasks []*cluster.Task
	for i, input := range j.spec.Inputs {
		splits := input.Splits
		if splits == nil {
			splits = make([]int, input.File.NumBlocks())
			for s := range splits {
				splits[s] = s
			}
		}
		j.splitsTotal += input.File.NumBlocks()
		for _, s := range splits {
			tasks = append(tasks, j.newMapTask(i, s))
		}
	}
	if len(j.spec.MoreSplits) == 0 {
		// Without a reserve pool the denominator for WholeInput is the
		// splits actually requested.
		j.splitsTotal = len(tasks)
	}
	if len(tasks) == 0 {
		// Empty inputs (a fully filtered intermediate): the job completes
		// at once with its empty output and result.
		j.finish(sub)
	}
	return tasks
}

// table builds b by scanning its blocks, a batch on the pool, indexed
// unless a task executor's workers build the tables — or finds it
// built: an unfiltered build is a function of its file, kept on the
// file for every later job (read-only, as probes are) under its identity
// there: the rows' wrap and keys, whether they are indexed and the byte
// scale that priced them. A filtered build is built per job.
func (j *Job) table(b Broadcast) (*HashTable, error) {
	scale, index := j.env.FS.ByteScale(), j.env.Exec == nil
	var key string
	if b.Filter == nil {
		key = fmt.Sprintf("%q %#v %t %v", b.Wrap, b.KeyPaths, index, scale)
		if ht, ok := b.File.Aux().Load(key); ok {
			return ht.(*HashTable), nil
		}
	}
	ht, err := buildTable(j.env.Reg, b, b.File.Blocks(), scale, j.par, index)
	if err != nil || b.Filter != nil {
		return ht, err
	}
	cached, _ := b.File.Aux().LoadOrStore(key, ht)
	return cached.(*HashTable), nil
}

func (j *Job) newMapTask(inputIdx, splitIdx int) *cluster.Task {
	st := &mapTaskState{inputIdx: inputIdx, splitIdx: splitIdx, seq: len(j.mapStates)}
	j.mapStates = append(j.mapStates, st)
	input := j.spec.Inputs[inputIdx]
	t := j.newTask(cluster.MapTask, j.taskName("-m", st.seq),
		func() (cluster.Usage, int64, error) { return j.runMap(st, input) })
	if len(j.spec.Broadcasts) > 0 {
		// The filtered-build preparation is charged to one task, the
		// per-node load to each node's first attempt. Finish runs
		// serially in dispatch order, replayed for a backup with its own
		// TaskContext, so both land correctly wherever Run executes.
		t.Finish = func(tc cluster.TaskContext, u *cluster.Usage) {
			if !j.prepCharged {
				j.prepCharged = true
				u.ExtraLatency += j.prepLatency
			}
			// With the distributed cache, a node loads the build once.
			if rate := broadcastBps(j.env); rate > 0 && (!j.env.DistributedCache || tc.FirstOnNode) {
				u.ExtraLatency += float64(j.buildBytes) / rate
			}
		}
	}
	return t
}

// taskName names a task: the job, "-m" or "-r", its number.
func (j *Job) taskName(kind string, n int) string { return j.spec.Name + kind + strconv.Itoa(n) }

// newCollector is called by the record loop that feeds the collector: a
// task that never runs publishes nothing, not an all-zero partial.
func (j *Job) newCollector() *stats.Collector {
	if j.spec.CollectStats == nil {
		return nil
	}
	return stats.NewCollector(j.spec.CollectStats, j.spec.KMVSize)
}

// newTask wraps a record loop as a cluster task. The loop reads only
// what is fixed once the task exists and writes only its task's state,
// so it is the task's Work; Run reports it and adds the emitted count
// to the job's counter at the dispatch's virtual instant. A pilot
// (StopAfter) must not scan ahead of its cancellations: its tasks run
// the loop from Run instead.
func (j *Job) newTask(kind cluster.TaskKind, name string, loop func() (cluster.Usage, int64, error)) *cluster.Task {
	var u cluster.Usage
	var emitted int64
	var err error
	work := func() { u, emitted, err = loop() }
	t := &cluster.Task{Kind: kind, Name: name}
	if j.spec.StopAfter <= 0 {
		t.Work = work
	}
	t.Run = func(cluster.TaskContext) (cluster.Usage, error) {
		if t.Work == nil {
			work()
		}
		j.emitted.Add(emitted)
		return u, err
	}
	return t
}

// runMap is a map task's record loop; the int64 counts what it emitted.
func (j *Job) runMap(st *mapTaskState, input Input) (cluster.Usage, int64, error) {
	var u cluster.Usage
	if j.buildErr != nil {
		return u, 0, j.buildErr
	}
	// The build's memory check runs here; its latency charges live in
	// the task's Finish hook, where tasks do not race on j.prepCharged
	// and a backup attempt re-applies them for its own node.
	if len(j.spec.Broadcasts) > 0 && j.buildBytes > j.env.ClusterConfig().SlotMemory {
		return u, 0, fmt.Errorf("%w: build %d bytes > slot memory %d",
			errBroadcastOOM, j.buildBytes, j.env.ClusterConfig().SlotMemory)
	}
	if j.spec.Reduce == nil { // a reduce job's statistics are its reducers'
		st.collector = j.newCollector()
	}
	block := input.File.Block(st.splitIdx)
	u.BytesRead += input.File.BlockSizeBytes(st.splitIdx)
	var out MapExecOut
	var err error
	if j.env.Exec != nil {
		x, xerr := j.execMap(st, input)
		if xerr != nil {
			return u, 0, xerr
		}
		out = *x
	} else {
		t := &MapTask{Reg: j.env.Reg, Block: block, Map: input.Map, Builds: j.builds}
		if j.spec.Reduce != nil {
			t.NumReducers = j.numReducers
		}
		out.MapOutput, err = RunMapTask(t)
	}
	// One accounting for both runtimes. A failed record loop is still
	// charged the map-phase CPU it consumed.
	st.outRows, st.shuffled = out.taskRows(), out.Shuffled
	st.shuffle, st.shuffleParts = out.Shuffle, out.ShuffleParts
	u.CPUSeconds += out.CPUMap
	if err != nil {
		return u, 0, err
	}
	if st.collector != nil {
		st.collector.ObserveInputs(block.NumRecords())
	}
	var emitted int64
	if j.spec.Reduce == nil {
		j.chargeOutput(&u, st.outRows, st.collector, &out.MapOutput)
		emitted = int64(len(st.outRows))
	} else {
		// Retained on a worker, a partition is its digest; in-process,
		// the window Bytes prices.
		for _, part := range st.shuffleParts {
			u.BytesShuffled += part.Bytes
			emitted += int64(part.Count)
		}
		for p := range st.shuffled.NumParts() {
			u.BytesShuffled += st.shuffled.Bytes(p, j.env.FS.ByteScale())
		}
		emitted += int64(len(st.shuffled.Idx))
	}
	return u, emitted, nil
}

// chargeOutput prices a task's output rows and hands them whole to its
// statistics collector: a scan task's (from, a map task's output) as
// its positions into its split's image, any other task's as rows.
func (j *Job) chargeOutput(u *cluster.Usage, rows []data.Value, c *stats.Collector, from *MapOutput) {
	var total int64
	for _, rec := range rows {
		total += j.env.VirtualSize(rec)
	}
	u.BytesWritten += total
	switch {
	case c == nil:
	case from != nil && from.Image != nil:
		c.ObserveScan(from.Image, from.Wrap, from.Sel, total)
	default:
		c.ObserveOutputs(rows, total)
	}
}

// TaskDone implements cluster.Job.
func (j *Job) TaskDone(sub *cluster.Submission, t *cluster.Task) []*cluster.Task {
	if t.Kind == cluster.ReduceTask {
		if sub.Pending() == 0 && sub.Running() == 0 {
			j.finish(sub)
		}
		return nil
	}
	j.mapsDone++
	// Pilot-run early termination, unless the job is close enough to
	// completion to finish: its output is then reusable for the query.
	if j.spec.StopAfter > 0 && j.emitted.Load() >= j.spec.StopAfter {
		frac := float64(j.mapsDone) / float64(max(j.splitsTotal, 1))
		if j.spec.FinishIfFractionDone <= 0 || frac < j.spec.FinishIfFractionDone {
			sub.CancelPending()
		}
	}
	if sub.Pending() == 0 && sub.Running() == 0 {
		// Map phase drained: add reserve splits if the sample target is
		// unmet, otherwise move to the reduce phase or finish.
		if j.spec.StopAfter > 0 && j.emitted.Load() < j.spec.StopAfter {
			if more := j.takeReserve(); len(more) > 0 {
				return more
			}
		}
		if j.spec.Reduce != nil {
			return j.makeReduceTasks()
		}
		j.finish(sub)
	}
	return nil
}

// takeReserve pops the next wave of on-demand sample splits, sized from
// the observed output rate (Vernica et al.'s adaptive sampling, which
// the paper adopts): enough to reach the k-record target at that rate,
// plus 25%, so a selective filter converges in one or two more waves.
func (j *Job) takeReserve() []*cluster.Task {
	batch := max(j.mapsDone, 1)
	if emitted := j.emitted.Load(); emitted > 0 && j.mapsDone > 0 {
		rate := float64(emitted) / float64(j.mapsDone)
		missing := float64(j.spec.StopAfter) - float64(emitted)
		if missing > 0 && rate > 0 {
			batch = int(missing/rate*1.25) + 1
		}
	}
	var tasks []*cluster.Task
	for i := range j.reserve {
		take := min(batch, len(j.reserve[i]))
		for _, s := range j.reserve[i][:take] {
			tasks = append(tasks, j.newMapTask(i, s))
		}
		j.reserve[i] = j.reserve[i][take:]
	}
	return tasks
}

func (j *Job) makeReduceTasks() []*cluster.Task {
	tasks := make([]*cluster.Task, j.numReducers)
	for p := 0; p < j.numReducers; p++ {
		st := &reduceTaskState{}
		j.reduceStates = append(j.reduceStates, st)
		tasks[p] = j.newTask(cluster.ReduceTask, j.taskName("-r", p),
			func() (cluster.Usage, int64, error) {
				u, err := j.runReduce(st, p)
				return u, 0, err
			})
	}
	return tasks
}

// runReduce gathers the partition's windows in map submission order and
// runs the reduce task over them (RunReduceTask sorts its input):
// in-process, or on a worker over the retained outputs the handles name.
func (j *Job) runReduce(st *reduceTaskState, partition int) (cluster.Usage, error) {
	var u cluster.Usage
	var count int
	for _, ms := range j.mapStates {
		if partition < len(ms.shuffleParts) {
			u.BytesShuffled += ms.shuffleParts[partition].Bytes
		}
		u.BytesShuffled += ms.shuffled.Bytes(partition, j.env.FS.ByteScale())
		count += len(ms.shuffled.Part(partition))
	}
	var cpu float64
	var err error
	if j.env.Exec != nil {
		out, xerr := j.execReduce(partition)
		if xerr != nil {
			return u, xerr
		}
		st.outRows, cpu = append(st.outRows, out.Rows...), out.CPUSeconds
	} else {
		pairs := pairSlices.get(count)
		for _, ms := range j.mapStates {
			pairs = ms.shuffled.AppendPart(pairs, partition)
		}
		st.outRows, cpu, err = RunReduceTask(j.env.Reg, j.spec.Reduce, pairs)
		pairSlices.put(pairs)
	}
	u.CPUSeconds += cpu
	if err != nil {
		return u, err
	}
	st.collector = j.newCollector()
	j.chargeOutput(&u, st.outRows, st.collector, nil)
	return u, nil
}

// finish publishes the job's result. Which tasks count, in which order,
// is decided on the goroutine stepping the simulator; the rest is one
// batch on the pool: a closure per statistics column and one that
// writes the output file.
func (j *Job) finish(sub *cluster.Submission) {
	if j.done {
		return
	}
	j.done = true
	res := &Result{
		SplitsTotal: j.splitsTotal,
		SplitsRun:   j.mapsDone,
	}
	res.WholeInput = res.SplitsRun >= res.SplitsTotal
	w := j.env.FS.Create(j.spec.Output)
	// A map-only job of one input and no build side whose every listed
	// split ran writes a view of it, splits in submission (write) order.
	if j.spec.Reduce == nil && len(j.spec.Inputs) == 1 && len(j.spec.Broadcasts) == 0 && res.WholeInput && j.mapsDone == len(j.mapStates) {
		splits := make([]int, len(j.mapStates))
		for i, st := range j.mapStates {
			splits[i] = st.splitIdx
		}
		w.SetView(&dfs.View{Base: j.spec.Inputs[0].File, Splits: splits, Op: j.spec.RemoteOp})
	}
	if j.env.OnCreateFile != nil {
		j.env.OnCreateFile(j.spec.Output)
	}
	// Deterministic output: map submission order (mapStates') or partition
	// order. A pilot's canceled split has neither rows nor a collector.
	var outs [][]data.Value
	var parts []*stats.Partial
	publish := func(rows []data.Value, c *stats.Collector) {
		outs = append(outs, rows)
		res.OutRecords += int64(len(rows))
		if c != nil {
			parts = append(parts, c.Partial())
		}
	}
	for _, st := range j.mapStates {
		if j.spec.Reduce == nil {
			publish(st.outRows, st.collector)
		}
		st.shuffled, st.outRows = Partitioned{}, nil
	}
	for _, st := range j.reduceStates {
		publish(st.outRows, st.collector)
		st.outRows = nil
	}
	batch := func(cols int, mergeCol func(i int)) {
		j.par(cols+1, func(i int) {
			if i > 0 {
				mergeCol(i - 1)
				return
			}
			// The writer copies the records into blocks of their final
			// length. A record loop runs at most once (backups replay
			// its usage), so no retry sees a recycled buffer.
			w.AppendAll(outs...)
			for _, rows := range outs {
				rowSlices.put(rows)
			}
			res.Output = w.Close()
		})
	}
	if len(parts) > 0 {
		res.Stats = stats.MergePartialsOn(parts, batch)
	} else {
		batch(0, nil)
	}
	res.OutputVirtual = res.Output.Size()
	j.result = res
}

// retire releases what the job holds outside itself once its submission
// completes, failed or canceled too: the shuffle output a retaining
// executor keeps on workers.
func (j *Job) retire(*cluster.Submission) {
	if r, ok := j.env.Exec.(JobRetirer); ok {
		r.RetireJob(j.spec.Name)
	}
}

// Result returns the job's outcome after it completed.
func (j *Job) Result() (*Result, error) {
	if j.result == nil {
		return nil, errors.New("mapreduce: job has not completed")
	}
	return j.result, nil
}

// Submit creates the job, submits it, and returns the submission handle
// together with the job for result retrieval.
func Submit(env *Env, spec Spec) (*Job, *cluster.Submission, error) {
	j, err := newJob(env, spec)
	if err != nil {
		return nil, nil, err
	}
	sub := env.gate().Submit(j)
	return j, sub, nil
}

// Run submits the job and drives the simulator until the job
// completes, returning the job result.
func Run(env *Env, spec Spec) (*Result, error) {
	j, sub, err := Submit(env, spec)
	if err != nil {
		return nil, err
	}
	if err := env.RunUntil(sub.Done); err != nil {
		return nil, err
	}
	if sub.Err() != nil {
		return nil, sub.Err()
	}
	return j.Result()
}

// broadcastBps is the build-side load rate, defaulting to ScanBps.
func broadcastBps(env *Env) float64 {
	if r := env.ClusterConfig().BroadcastLoadBps; r > 0 {
		return r
	}
	return env.ClusterConfig().ScanBps
}
