// Package cluster implements a deterministic discrete-event simulator of
// the Hadoop cluster used in the paper's evaluation (15 nodes, 10 map and
// 6 reduce slots per worker, 2 GB per slot, ~15 s MapReduce job startup).
//
// Jobs submit tasks; a FIFO scheduler assigns tasks to free map/reduce
// slots on worker nodes; a virtual clock advances between task completion
// events. Tasks execute *real* computation (their Run closure processes
// actual records) and report resource usage, from which the simulator
// derives the task's virtual duration. Because scheduling is
// single-threaded and event times are deterministic, every run of the
// same workload produces the same virtual timeline.
//
// # Wall-clock parallelism vs. virtual time
//
// Real computation is decoupled from virtual time: all tasks dispatched
// at the same virtual instant (every free slot across nodes) form a
// wave whose Run closures execute on a pool of Config.Parallelism
// worker goroutines — or are handed, all at once, to the wave runner
// the simulator's owner installed (SetWaveRunner) — mirroring how the
// modeled cluster genuinely runs one task per slot in parallel. A task
// whose computation needs nothing decided at dispatch puts it in
// Task.Work: every Work a job hands over at once (a whole phase, however
// wide) runs as one batch on that executor, and Run only reports.
// Scheduling decisions, trace events, failure injection, and the
// application of reported usage all stay on the single scheduler
// goroutine, in dispatch order, so the virtual
// timeline — timestamps, event ordering, tie-breaking sequence numbers
// — does not depend on the pool size; with Parallelism <= 1 the
// scheduler goroutine runs the wave's closures itself, in dispatch
// order, which is the reference the differential tests compare wider
// pools against. Closures of one wave or batch therefore must not share
// mutable state with each other; job-level bookkeeping that needs
// serial execution belongs in Task.Finish.
package cluster

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrTaskRetriesExhausted marks a job failure caused by a task burning
// through its attempt budget (maxAttempts, Hadoop's default of four)
// rather than by the task's own computation returning an error. Engines
// can detect it with errors.Is and treat it as a recoverable
// infrastructure fault: the job's materialized DFS inputs are intact, so
// it can simply be resubmitted.
var ErrTaskRetriesExhausted = errors.New("task retries exhausted")

// ErrIdle is returned by RunUntil when the cluster runs out of events
// with the awaited predicate still false: nothing left can make it true.
var ErrIdle = errors.New("cluster: idle with the awaited condition unmet")

const (
	// maxAttempts caps the attempts per task (Hadoop's default): failed
	// attempts are re-queued until the cap, and a failure at the cap
	// fails the whole job with ErrTaskRetriesExhausted.
	maxAttempts = 4
	// minSpeculationSamples is the number of completed same-kind tasks
	// a job needs before speculation trusts their median duration.
	minSpeculationSamples = 3
)

// TaskKind distinguishes map from reduce tasks; they consume different
// slot types.
type TaskKind int

// The two slot/task kinds.
const (
	MapTask TaskKind = iota
	ReduceTask
)

// String returns "map" or "reduce".
func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// Config describes the simulated cluster and its cost model. All
// throughputs are bytes of *virtual* data per virtual second.
type Config struct {
	Workers              int     // worker nodes
	MapSlotsPerWorker    int     // map slots per worker
	ReduceSlotsPerWorker int     // reduce slots per worker
	SlotMemory           int64   // memory per slot, bounds broadcast builds (Mmax)
	JobStartup           float64 // seconds from submit until tasks can schedule
	TaskOverhead         float64 // fixed per-task latency (JVM reuse, setup)
	// ScanBps is the effective map-side scan rate per task, including
	// decompression and record parsing (well below raw disk bandwidth,
	// as on real Hadoop).
	ScanBps float64
	// BroadcastLoadBps is the effective rate at which tasks load
	// broadcast build sides (replicated small files served from warm
	// page cache overlap with probe scanning); 0 falls back to ScanBps.
	BroadcastLoadBps float64
	ShuffleBps       float64 // shuffle (sort+network) throughput
	WriteBps         float64 // DFS write throughput

	// FailEveryN injects deterministic task failures: every Nth
	// first-attempt dispatch is marked to fail (charging FailurePenalty
	// seconds of slot time per failed attempt) and is re-queued,
	// modelling the task retries MapReduce absorbs routinely. Only
	// first attempts count toward the modulo, so the spacing between
	// injected failures stays "every Nth task" regardless of how many
	// retries are in flight. 0 disables injection.
	FailEveryN     int
	FailurePenalty float64
	// FailInject, when non-nil, is a targeted failure hook for tests
	// and experiments: it is consulted on the scheduler goroutine for
	// every dispatch and fails the attempt when it returns true. It
	// must be deterministic for the executor determinism contract to
	// hold.
	FailInject func(job, task string, attempt, node int) bool

	// StragglerEveryN injects deterministic stragglers: every Nth
	// executed task attempt has its virtual duration stretched by
	// SlowdownFactor (a slow disk or overloaded node in the modeled
	// cluster). 0 disables injection.
	StragglerEveryN int
	// SlowdownFactor is the straggler duration multiplier; values <= 1
	// fall back to 4.
	SlowdownFactor float64

	// SpeculativeBeta enables Hadoop-style speculative execution: at
	// every scheduling point, a running task whose elapsed time
	// exceeds Beta x the median duration of its job's completed
	// same-kind tasks gets a backup attempt on a free slot. The first
	// attempt to finish wins; the loser's slot is released immediately
	// and a speculative-* trace event is emitted. 0 disables
	// speculation.
	SpeculativeBeta float64

	// Parallelism is the number of worker goroutines executing the Run
	// closures of a dispatch wave in real (wall-clock) time; 0 and 1
	// both run them inline on the scheduler goroutine. The virtual
	// timeline is identical for every value, and a runner installed
	// with SetWaveRunner takes whole waves instead of the pool.
	// DefaultConfig sets GOMAXPROCS.
	Parallelism int

	// Scheduler selects how free slots are shared among concurrent
	// jobs.
	Scheduler SchedulerKind

	// RetireDoneJobs drops completed submissions from the scheduler's
	// scan list (they stop appearing in Jobs()). Long-running services
	// enable it so dispatch cost tracks the live jobs, not every job
	// ever submitted; left off, Jobs() lists every submission.
	RetireDoneJobs bool
}

// SchedulerKind selects the job scheduler.
type SchedulerKind int

// The schedulers (the paper uses FIFO and names fair/capacity
// scheduling as future experiments).
const (
	// FIFO gives all free slots to the earliest-submitted job first.
	FIFO SchedulerKind = iota
	// Fair hands slots to runnable jobs round-robin, one task at a
	// time.
	Fair
)

// DefaultConfig returns the paper's cluster: 14 workers with 10 map and 6
// reduce slots each (140/84 total), 2 GB per slot, 15 s job startup.
func DefaultConfig() Config {
	return Config{
		Workers:              14,
		MapSlotsPerWorker:    10,
		ReduceSlotsPerWorker: 6,
		SlotMemory:           2 << 30,
		JobStartup:           15,
		TaskOverhead:         2,
		ScanBps:              25 << 20,
		BroadcastLoadBps:     100 << 20,
		ShuffleBps:           12 << 20,
		WriteBps:             25 << 20,
		Parallelism:          runtime.GOMAXPROCS(0),
	}
}

// MapSlots returns the cluster-wide map slot count (the paper's m).
func (c Config) MapSlots() int { return c.Workers * c.MapSlotsPerWorker }

// ReduceSlots returns the cluster-wide reduce slot count.
func (c Config) ReduceSlots() int { return c.Workers * c.ReduceSlotsPerWorker }

// Usage reports the resources a task consumed; the simulator converts it
// to a virtual duration.
type Usage struct {
	BytesRead     int64   // input scanned from DFS
	BytesShuffled int64   // data sorted and moved through the shuffle
	BytesWritten  int64   // output written to DFS
	CPUSeconds    float64 // extra CPU time (UDF evaluation etc.)
	ExtraLatency  float64 // additional fixed latency (e.g. broadcast build load)
}

// TaskContext is passed to a task's Run closure when it is dispatched.
type TaskContext struct {
	FirstOnNode bool // first task of this job on this node (distributed cache)
}

// Task is one schedulable unit of work: Work (optional) computes ahead,
// Run reports at dispatch, Finish (optional) adjusts the report serially.
type Task struct {
	Kind TaskKind
	Name string
	// Work, when set, is the task's host computation split from its
	// dispatch. The simulator runs it once, after the Start or TaskDone
	// call that returned the task and before the task's first Run, in
	// one batch with every Work handed over since — or never, when the
	// job fails or is canceled first. It may read only state fixed at
	// hand-over and write only the task's own; Run reports what it
	// recorded, errors included. A job that cancels queued tasks to
	// avoid computing them leaves Work nil.
	Work func()
	// Run reports the task's usage at dispatch, computing it first when
	// there is no Work. A non-nil error fails the whole job (e.g. a
	// broadcast build that exceeds slot memory). Under a parallel
	// executor, Run closures of tasks dispatched at the same virtual
	// instant execute concurrently and must not share mutable state.
	Run func(tc TaskContext) (Usage, error)
	// Finish, when set, is invoked on the scheduler goroutine after a
	// successful Run, strictly in dispatch order across the whole
	// simulation. It may adjust the reported usage using job-level
	// state without synchronization — the hook exists for bookkeeping
	// that depends on execution order, such as charging a one-time
	// preparation cost to the first task of a job that runs.
	Finish func(tc TaskContext, u *Usage)

	sub        *Submission // set at hand-over
	workPanic  any         // captured from Work, rethrown where Run's would surface
	usage      Usage
	rawUsage   Usage // usage as reported by Run, before Finish adjustments
	start, end float64
	node       int
	attempts   int
	straggler  bool   // current attempt's duration is stretched
	doneEv     *event // outstanding completion event of the primary attempt
	specEv     *event // outstanding completion event of the backup attempt
	specNode   int
	specStart  float64
}

// Usage returns the resources the task reported (zero before it ran).
func (t *Task) Usage() Usage { return t.usage }

// Job is the unit of submission. The simulator drives it through Start
// and TaskDone; a job completes when it has no pending or running tasks
// left after a callback.
type Job interface {
	// Name identifies the job in traces.
	Name() string
	// Start is called once the job's startup latency elapses and
	// returns its initial tasks. Returning no tasks completes the job
	// immediately.
	Start(sub *Submission) []*Task
	// TaskDone is called after each task completes and may return
	// follow-up tasks (e.g. the reduce phase once all maps finish).
	TaskDone(sub *Submission, t *Task) []*Task
}

// Submission is the handle for a submitted job.
type Submission struct {
	sim       *Sim
	job       Job
	submitted float64
	ready     float64
	finished  float64
	started   bool
	done      bool
	failed    bool
	err       error
	pending   []*Task
	running   int
	inflight  []*Task // executing attempts in dispatch order (speculation scan)
	completed []*Task
	durations [2][]float64 // completed durations per task kind, ascending, when speculating
	nodesSeen map[int]bool
	onDone    []func(*Submission)
}

// Job returns the submitted job.
func (s *Submission) Job() Job { return s.job }

// Done reports whether the job has completed (successfully or not).
func (s *Submission) Done() bool { return s.done }

// Err returns the job's failure, if any.
func (s *Submission) Err() error { return s.err }

// Duration returns the job's virtual makespan including startup.
func (s *Submission) Duration() float64 { return s.finished - s.submitted }

// Pending returns the number of queued, not-yet-dispatched tasks.
func (s *Submission) Pending() int { return len(s.pending) }

// Running returns the number of in-flight tasks.
func (s *Submission) Running() int { return s.running }

// CompletedTasks returns the tasks that ran, in completion order.
func (s *Submission) CompletedTasks() []*Task { return s.completed }

// CancelPending drops all queued tasks. Tasks already running finish
// normally (the paper's pilot runs always finish started blocks to avoid
// the inspection paradox).
func (s *Submission) CancelPending() { s.pending = nil }

// Cancel abandons the job: queued tasks are dropped, completed tasks no
// longer schedule follow-up work, and the submission finishes failed
// with the given error once its running attempts drain (immediately
// when none are in flight). The query service uses it to release the
// cluster resources of a canceled or timed-out session. Like every
// other Submission method it must run on the goroutine driving the
// simulator — or under the gate that serializes a shared simulator.
func (s *Submission) Cancel(err error) {
	if s.done || s.failed {
		return
	}
	s.failed = true
	s.err = err
	s.pending = nil
	s.sim.maybeComplete(s)
}

// OnDone registers a callback fired when the job completes. Callbacks may
// submit new jobs.
func (s *Submission) OnDone(f func(*Submission)) {
	if s.done {
		f(s)
		return
	}
	s.onDone = append(s.onDone, f)
}

// event is a scheduled occurrence in virtual time.
type event struct {
	time     float64
	seq      int64
	kind     eventKind
	sub      *Submission
	task     *Task
	canceled bool // losing attempt of a speculative pair; skipped on pop
}

type eventKind int

const (
	evJobReady eventKind = iota
	evTaskDone
	evTaskRetry
)

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is the cluster simulator. It is not safe for concurrent use; the
// engine drives it from a single goroutine (task Work and Run closures
// are the only code the simulator itself fans out to worker goroutines).
type Sim struct {
	cfg    Config
	now    float64
	seq    int64
	events eventHeap
	subs   []*Submission // FIFO order
	free   [2][]int      // free slots per worker, by TaskKind
	trace  func(TraceEvent)
	// firstAttempts counts first-attempt dispatches only, so the
	// FailEveryN modulo spacing is immune to how many retries are in
	// flight; executedAttempts counts attempts whose Run actually
	// executes, driving StragglerEveryN.
	firstAttempts    int64
	executedAttempts int64
	wasted           float64   // slot-seconds burned on failures and losing backups
	wave             []*launch // tasks of the current virtual instant, in dispatch order
	work             []*Task   // handed-over tasks whose Work has not run, in hand-over order
	// runner, when installed, executes a wave's or a Work batch's
	// closures in place of the worker pool (SetWaveRunner).
	runner func(closures []func())
}

// launch is one dispatched task attempt of the current wave. The worker
// pool fills usage/err/panicked; everything else is written by the
// scheduler goroutine before the fan-out.
type launch struct {
	sub      *Submission
	task     *Task
	tc       TaskContext
	injected bool // injected failure: Run is skipped, the attempt retries
	usage    Usage
	err      error
	panicked any
}

// TraceEvent describes a scheduling occurrence, for timeline displays.
// Kinds: "start", "finish", "job-ready", "job-done", "job-failed",
// "attempt-failed" (injected failure, attempt will retry),
// "task-failed" (retry budget exhausted, job fails),
// "straggler" (attempt's duration is stretched),
// "speculative-start" (backup attempt launched),
// "speculative-win" (backup finished first, primary canceled),
// "speculative-lost" (primary finished first, backup canceled).
type TraceEvent struct {
	Time float64
	Job  string
	Kind string
}

// New returns a simulator for the given cluster.
func New(cfg Config) *Sim {
	cfg.Workers = max(cfg.Workers, 1)
	cfg.MapSlotsPerWorker = max(cfg.MapSlotsPerWorker, 1)
	cfg.ReduceSlotsPerWorker = max(cfg.ReduceSlotsPerWorker, 1)
	s := &Sim{cfg: cfg}
	s.free = [2][]int{make([]int, cfg.Workers), make([]int, cfg.Workers)}
	for i := 0; i < cfg.Workers; i++ {
		s.free[MapTask][i] = cfg.MapSlotsPerWorker
		s.free[ReduceTask][i] = cfg.ReduceSlotsPerWorker
	}
	return s
}

// Config returns the simulator's cluster configuration.
func (s *Sim) Config() Config { return s.cfg }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Advance moves the virtual clock forward by d seconds, charging
// client-side work (optimizer calls, statistics merging) to the timeline.
func (s *Sim) Advance(d float64) {
	if d > 0 {
		s.now += d
	}
}

// SetTrace installs a callback receiving scheduling events.
func (s *Sim) SetTrace(f func(TraceEvent)) { s.trace = f }

// SetWaveRunner hands wave execution to the simulator's owner: instead
// of feeding the closures of one dispatch wave (or one Work batch)
// through the Parallelism goroutine pool, runWave passes them all to
// run, which may execute them however it likes (the proc runtime starts every one at once, so its
// fleet sees the whole wave) but must return only after each has
// returned. The closures do not panic and carry their own results;
// scheduling, result application and the virtual timeline are untouched.
func (s *Sim) SetWaveRunner(run func(closures []func())) { s.runner = run }

func (s *Sim) emit(ev TraceEvent) {
	if s.trace != nil {
		s.trace(ev)
	}
}

// Submit enqueues a job. Its tasks become schedulable after the
// configured job startup latency.
func (s *Sim) Submit(j Job) *Submission {
	sub := &Submission{
		sim:       s,
		job:       j,
		submitted: s.now,
		ready:     s.now + s.cfg.JobStartup,
		nodesSeen: make(map[int]bool),
	}
	s.subs = append(s.subs, sub)
	s.push(&event{time: sub.ready, kind: evJobReady, sub: sub})
	return sub
}

func (s *Sim) push(e *event) {
	s.seq++
	e.seq = s.seq
	heap.Push(&s.events, e)
}

// Run advances the simulation until no events remain. It returns the
// first job failure encountered, if any (all jobs still run to
// completion of their in-flight tasks).
func (s *Sim) Run() error {
	var firstErr error
	for {
		stepped, err := s.Step()
		if !stepped {
			return firstErr
		}
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
}

// RunUntil steps the simulation until pred() holds and returns ErrIdle
// if the cluster empties first. Job failures are not its business: a
// failed job is done, and its submission carries the error.
func (s *Sim) RunUntil(pred func() bool) error {
	for !pred() {
		if stepped, _ := s.Step(); !stepped {
			return ErrIdle
		}
	}
	return nil
}

// Step advances the simulation by exactly one event: it dispatches
// queued tasks to free slots, executes the resulting wave, launches
// speculative backups, and then processes the earliest event. It
// returns false when the cluster is idle (no events remain). The error
// is the processed event's job failure, if any — Run folds these into
// its first-error result, while concurrent drivers sharing one
// simulator (the query service's gate) inspect their own submissions
// instead and use Step to interleave several engines' jobs at event
// granularity. A full drain via repeated Step calls produces the same
// virtual timeline as Run produced before Step existed: the loop body
// is identical.
func (s *Sim) Step() (bool, error) {
	for {
		if s.cfg.RetireDoneJobs {
			s.retireDone()
		}
		s.dispatch()
		s.runWave()
		s.speculate()
		if len(s.events) == 0 {
			return false, nil
		}
		e := heap.Pop(&s.events).(*event)
		if e.canceled {
			// Losing attempt of a speculative pair: its slot was already
			// released when the winner finished; the stale completion
			// must not advance the clock.
			continue
		}
		if e.time < s.now {
			// Client-side Advance may have moved past queued events;
			// they complete "now".
			e.time = s.now
		}
		s.now = e.time
		switch e.kind {
		case evJobReady:
			s.handleJobReady(e.sub)
		case evTaskDone:
			s.handleTaskDone(e.sub, e.task, e)
		case evTaskRetry:
			s.handleTaskRetry(e.sub, e.task)
		}
		return true, e.sub.err
	}
}

// retireDone compacts completed submissions out of the scheduler's
// scan list once they are half of it, keeping dispatch proportional to
// the number of live jobs instead of every job ever submitted — a
// long-running query service submits jobs indefinitely. Retired
// submissions remain valid handles for their owners; they simply stop
// appearing in Jobs(). There is no minimum list length: a completed
// submission pins its job's output file, so letting dozens collect
// before the first compaction held every result of the last several
// queries live and made the heap a sawtooth.
func (s *Sim) retireDone() {
	done := 0
	for _, sub := range s.subs {
		if sub.done {
			done++
		}
	}
	if done == 0 || done*2 < len(s.subs) {
		return
	}
	s.subs = slices.DeleteFunc(s.subs, func(sub *Submission) bool { return sub.done })
}

func (s *Sim) handleJobReady(sub *Submission) {
	sub.started = true
	if sub.failed {
		// Canceled while still starting up: never ask the job for tasks.
		s.maybeComplete(sub)
		return
	}
	s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: "job-ready"})
	s.handOver(sub, sub.job.Start(sub))
	s.maybeComplete(sub)
}

// handOver queues the tasks a job returned from Start or TaskDone (the
// only ways in) and enrolls those with Work in the next batch.
func (s *Sim) handOver(sub *Submission, tasks []*Task) {
	sub.pending = append(sub.pending, tasks...)
	for _, t := range tasks {
		if t.sub = sub; t.Work != nil {
			s.work = append(s.work, t)
		}
	}
}

// handleTaskRetry releases the failed attempt's slot and re-queues the
// task (unless the job already failed, e.g. on retry exhaustion).
func (s *Sim) handleTaskRetry(sub *Submission, t *Task) {
	s.free[t.Kind][t.node]++
	sub.running--
	if !sub.failed {
		sub.pending = append(sub.pending, t)
	}
	s.maybeComplete(sub)
}

// handleTaskDone completes a task. When the task had a speculative
// backup in flight, the event that fires first is the winning attempt:
// the loser's completion event is canceled and its slot released
// immediately, and the task adopts the winner's node and finish time.
func (s *Sim) handleTaskDone(sub *Submission, t *Task, e *event) {
	winNode := t.node
	if e == t.specEv {
		// The backup won.
		winNode = t.specNode
		if t.doneEv != nil {
			t.doneEv.canceled = true
			t.doneEv = nil
			s.free[t.Kind][t.node]++
			sub.running--
			s.wasted += s.now - t.start
		}
		t.node = t.specNode
		t.end = e.time
		t.specEv = nil
		s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: "speculative-win"})
	} else {
		t.doneEv = nil
		if t.specEv != nil {
			// The primary finished first; cancel the backup.
			t.specEv.canceled = true
			t.specEv = nil
			s.free[t.Kind][t.specNode]++
			sub.running--
			s.wasted += s.now - t.specStart
			s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: "speculative-lost"})
		}
	}
	s.free[t.Kind][winNode]++
	sub.running--
	if i := slices.Index(sub.inflight, t); i >= 0 {
		sub.inflight = slices.Delete(sub.inflight, i, i+1)
	}
	sub.completed = append(sub.completed, t)
	if d := t.end - t.start; s.cfg.SpeculativeBeta > 0 { // only speculation reads the median
		at, _ := slices.BinarySearch(sub.durations[t.Kind], d)
		sub.durations[t.Kind] = slices.Insert(sub.durations[t.Kind], at, d)
	}
	s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: "finish"})
	if sub.failed {
		s.maybeComplete(sub)
		return
	}
	s.handOver(sub, sub.job.TaskDone(sub, t))
	s.maybeComplete(sub)
}

func (s *Sim) maybeComplete(sub *Submission) {
	if sub.done || !sub.started {
		return
	}
	if len(sub.pending) == 0 && sub.running == 0 {
		sub.done = true
		sub.finished = s.now
		kind := "job-done"
		if sub.failed {
			kind = "job-failed"
		}
		s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: kind})
		cbs := sub.onDone
		sub.onDone = nil
		for _, cb := range cbs {
			cb(sub)
		}
	}
}

// dispatch assigns queued tasks to free slots, one at a time, until no
// runnable submission's head task fits a free slot. Each task goes to
// the top-ranked submission whose head fits: under FIFO the earliest,
// so the earliest job drains first; under Fair the one with the fewest
// running tasks, so concurrent jobs share the cluster evenly. Free
// slots only shrink during a dispatch, so a head that does not fit
// stays blocked until the next one.
func (s *Sim) dispatch() {
	for {
		var pick *Submission
		for _, sub := range s.subs {
			if !sub.started || sub.done || len(sub.pending) == 0 || s.pickNode(sub.pending[0].Kind) < 0 {
				continue
			}
			if pick == nil || sub.running < pick.running {
				pick = sub
			}
			if s.cfg.Scheduler != Fair {
				break
			}
		}
		if pick == nil {
			return
		}
		t := pick.pending[0]
		pick.pending = pick.pending[1:]
		s.startTask(pick, t, s.pickNode(t.Kind))
	}
}

// pickNode returns the worker with the most free slots of the given
// kind, or -1 when none are free.
func (s *Sim) pickNode(kind TaskKind) int {
	best, bestFree := -1, 0
	for i, f := range s.free[kind] {
		if f > bestFree {
			best, bestFree = i, f
		}
	}
	return best
}

func (s *Sim) startTask(sub *Submission, t *Task, node int) {
	s.free[t.Kind][node]--
	if t.attempts == 0 {
		s.firstAttempts++
	}
	t.attempts++
	// Deterministic failure injection: a failed attempt burns the
	// penalty and is re-queued (its retry event releases the slot like
	// any other completion), until the attempt budget runs out and the
	// failure escalates to the job.
	if s.injectFailure(sub, t, node) {
		t.node = node
		sub.running++
		s.noteAttemptFailure(sub, t, node)
		// The retry event is pushed by the wave's apply phase, so event
		// sequence numbers follow dispatch order.
		s.wave = append(s.wave, &launch{sub: sub, task: t, injected: true})
		return
	}
	first := !sub.nodesSeen[node]
	sub.nodesSeen[node] = true
	t.node = node
	t.start = s.now
	sub.running++
	sub.inflight = append(sub.inflight, t)
	s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: "start"})
	s.executedAttempts++
	t.straggler = s.cfg.StragglerEveryN > 0 && s.executedAttempts%int64(s.cfg.StragglerEveryN) == 0
	if t.straggler {
		s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: "straggler"})
	}

	s.wave = append(s.wave, &launch{sub: sub, task: t, tc: TaskContext{FirstOnNode: first}})
}

// injectFailure decides, on the scheduler goroutine, whether this
// dispatch fails: the first attempt of every FailEveryN-th task, or any
// attempt the FailInject hook fails. Speculative backups are never
// failure-injected.
func (s *Sim) injectFailure(sub *Submission, t *Task, node int) bool {
	if s.cfg.FailEveryN > 0 && t.attempts == 1 && s.firstAttempts%int64(s.cfg.FailEveryN) == 0 {
		return true
	}
	return s.cfg.FailInject != nil && s.cfg.FailInject(sub.job.Name(), t.Name, t.attempts, node)
}

// noteAttemptFailure records a failed attempt: wasted-work accounting,
// and escalation to a job-level failure when the task's attempt budget
// is exhausted.
func (s *Sim) noteAttemptFailure(sub *Submission, t *Task, node int) {
	s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: "attempt-failed"})
	s.wasted += s.retryPenalty()
	if t.attempts >= maxAttempts && !sub.failed {
		sub.failed = true
		sub.err = fmt.Errorf("cluster: job %s task %s on node %d: %w after %d attempts",
			sub.job.Name(), t.Name, node, ErrTaskRetriesExhausted, t.attempts)
		sub.pending = nil
		s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: "task-failed"})
	}
}

// retryPenalty is the slot time burned by one failed attempt.
func (s *Sim) retryPenalty() float64 {
	if s.cfg.FailurePenalty > 0 {
		return s.cfg.FailurePenalty
	}
	return s.cfg.TaskOverhead
}

// pushRetry schedules the re-queue of a failed attempt.
func (s *Sim) pushRetry(sub *Submission, t *Task) {
	s.push(&event{time: s.now + s.retryPenalty(), kind: evTaskRetry, sub: sub, task: t})
}

// applyRun records a finished Run attempt: usage, failure propagation,
// and the completion event that converts usage to a virtual duration.
func (s *Sim) applyRun(sub *Submission, t *Task, usage Usage, err error) {
	t.usage = usage
	if err != nil && !sub.failed {
		sub.failed = true
		sub.err = fmt.Errorf("cluster: job %s task %s: %w", sub.job.Name(), t.Name, err)
		sub.pending = nil
	}
	d := s.duration(usage)
	if t.straggler {
		d *= s.slowdown()
	}
	t.end = s.now + d
	ev := &event{time: t.end, kind: evTaskDone, sub: sub, task: t}
	t.doneEv = ev
	s.push(ev)
}

func (s *Sim) slowdown() float64 {
	if s.cfg.SlowdownFactor > 1 {
		return s.cfg.SlowdownFactor
	}
	return 4
}

// speculate launches backup attempts for running tasks that look like
// stragglers: elapsed time exceeds SpeculativeBeta x the median
// duration of the job's completed same-kind tasks, and a slot is
// free. It runs on the scheduler goroutine at every scheduling point,
// after the wave's results are applied, so the backup schedule does
// not depend on how the wave's closures were executed. A backup
// replays the primary attempt's reported usage — the computation is
// deterministic, so the Run closure is not re-executed — without the
// straggler stretch; whichever attempt finishes first wins.
func (s *Sim) speculate() {
	if s.cfg.SpeculativeBeta <= 0 {
		return
	}
	for _, sub := range s.subs {
		if !sub.started || sub.done || sub.failed {
			continue
		}
		for _, t := range sub.inflight {
			if t.specEv != nil {
				continue
			}
			med := sub.medianDuration(t.Kind)
			if med <= 0 || s.now-t.start <= s.cfg.SpeculativeBeta*med {
				continue
			}
			node := s.pickNode(t.Kind)
			if node < 0 {
				continue
			}
			s.launchSpeculative(sub, t, node)
		}
	}
}

// medianDuration returns the median virtual duration of the job's
// completed tasks of the given kind, or 0 with fewer than
// minSpeculationSamples samples.
func (sub *Submission) medianDuration(kind TaskKind) float64 {
	if ds := sub.durations[kind]; len(ds) >= minSpeculationSamples {
		return ds[len(ds)/2]
	}
	return 0
}

// launchSpeculative starts a backup attempt of t on node. The backup's
// duration derives from the primary's raw usage replayed through the
// Finish hook with the backup's own TaskContext, so per-node one-time
// charges (distributed-cache build loads) apply to the backup's node
// exactly as they would to a fresh attempt.
func (s *Sim) launchSpeculative(sub *Submission, t *Task, node int) {
	s.free[t.Kind][node]--
	sub.running++
	first := !sub.nodesSeen[node]
	sub.nodesSeen[node] = true
	t.specNode = node
	t.specStart = s.now
	u := t.rawUsage
	if t.Finish != nil {
		t.Finish(TaskContext{FirstOnNode: first}, &u)
	}
	ev := &event{time: s.now + s.duration(u), kind: evTaskDone, sub: sub, task: t}
	t.specEv = ev
	s.push(ev)
	s.emit(TraceEvent{Time: s.now, Job: sub.job.Name(), Kind: "speculative-start"})
}

// runWave executes the Run closures collected at the current virtual
// instant on the worker pool (or the installed wave runner), then
// applies their results in dispatch order on the scheduler goroutine,
// so virtual timestamps, event tie-breaking, and Finish-hook ordering
// are the same for every pool size and runner. A wave is assigned in
// full before any closure runs: when a task errors, same-wave tasks of
// that job have already started and finish like any in-flight task.
// The pending Work batch runs first; a wave made only of tasks with
// Work has nothing left to compute and executes inline.
func (s *Sim) runWave() {
	s.runWork()
	if len(s.wave) == 0 {
		return
	}
	wave := s.wave
	s.wave = s.wave[:0]
	run := make([]*launch, 0, len(wave))
	worked := true
	for _, l := range wave {
		if !l.injected {
			run = append(run, l)
			worked = worked && l.task.Work != nil
		}
	}
	s.execute(len(run), worked, func(i int) { run[i].exec() })
	for _, l := range wave {
		if l.panicked != nil {
			panic(l.panicked)
		}
		if l.injected {
			s.pushRetry(l.sub, l.task)
			continue
		}
		l.task.rawUsage = l.usage
		if l.err == nil && l.task.Finish != nil {
			l.task.Finish(l.tc, &l.usage)
		}
		s.applyRun(l.sub, l.task, l.usage, l.err)
	}
}

// runWork executes, as one batch, the Work of every task handed over
// since the last one — a job's whole phase, not a wave's slot-count slice
// of it — except for submissions that failed or finished meanwhile.
func (s *Sim) runWork() {
	batch := slices.DeleteFunc(s.work, func(t *Task) bool { return t.sub.failed || t.sub.done })
	s.execute(len(batch), false, func(i int) { batch[i].workPanic = capture(batch[i].Work) })
	clear(s.work)
	s.work = s.work[:0]
}

// execute calls fn(0) … fn(n-1) and returns once every call has: on the
// scheduler goroutine if inline, all at once through the wave runner if
// one is installed, else on the pool.
func (s *Sim) execute(n int, inline bool, fn func(i int)) {
	switch {
	case inline:
		for i := 0; i < n; i++ {
			fn(i)
		}
	case s.runner != nil && n > 0:
		closures := make([]func(), n)
		for i := range closures {
			closures[i] = func() { fn(i) }
		}
		s.runner(closures)
	default:
		s.Parallel(n, fn)
	}
}

// Parallel is the simulator's one parallel-for: it calls fn(0) … fn(n-1)
// on min(Parallelism, n) goroutines, the caller's the first of them, and
// returns once every call has. A job calls it from Start or TaskDone for
// the record-sized work of its own lifecycle (a build's scan, the
// statistics merge, output assembly): no task attempts, which the wave
// runner's barrier counts. The calls must not share mutable state; a
// panic in one is not recovered (waves capture theirs).
func (s *Sim) Parallel(n int, fn func(i int)) {
	// wg counts calls, not goroutines: waking an idle core can outlast a
	// small batch, and a helper that finds every call claimed is not
	// waited for.
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		for i := next.Add(1); i <= int64(n); i = next.Add(1) {
			fn(int(i - 1))
			wg.Done()
		}
	}
	wg.Add(n)
	for w := min(s.cfg.Parallelism, n); w > 1; w-- {
		go work()
	}
	work()
	wg.Wait()
}

// capture runs fn and returns what it panicked with, if anything.
func capture(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// exec runs the attempt's closure, keeping a panic — its own or the one
// its Work left — for rethrow at the wave's apply point. Inline and
// pooled execution both use it, so a panicking task surfaces at the
// same point in the schedule — after earlier same-wave results were
// applied — regardless of worker count.
func (l *launch) exec() {
	if l.panicked = l.task.workPanic; l.panicked == nil {
		l.panicked = capture(func() { l.usage, l.err = l.task.Run(l.tc) })
	}
}

// duration converts reported usage to virtual seconds.
func (s *Sim) duration(u Usage) float64 {
	d := s.cfg.TaskOverhead + u.ExtraLatency + u.CPUSeconds
	if s.cfg.ScanBps > 0 {
		d += float64(u.BytesRead) / s.cfg.ScanBps
	}
	if s.cfg.ShuffleBps > 0 {
		d += float64(u.BytesShuffled) / s.cfg.ShuffleBps
	}
	if s.cfg.WriteBps > 0 {
		d += float64(u.BytesWritten) / s.cfg.WriteBps
	}
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	return d
}

// WastedSec returns the virtual slot-seconds burned on failed attempts
// and on the losing halves of speculative pairs — cluster work that
// contributed to no job's output. Experiments use it to compare how
// much work different plan shapes lose under faults.
func (s *Sim) WastedSec() float64 { return s.wasted }

// Quiesce reports whether all submitted jobs have completed.
func (s *Sim) Quiesce() bool {
	return !slices.ContainsFunc(s.subs, func(sub *Submission) bool { return !sub.done })
}

// Jobs returns all submissions in submit order.
func (s *Sim) Jobs() []*Submission { return s.subs }
