package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// phaseJob is a two-phase job whose every task has a "record loop":
// count the call and derive a usage from the task's index. With split
// set the loop is the task's Work and Run only reports what it
// recorded; without, the same loop is folded into Run, which is the job
// as it was written before Task.Work existed.
type phaseJob struct {
	name          string
	maps, reduces int
	split         bool
	errAt         int            // map index whose loop records an error, -1 for none
	loops         []atomic.Int32 // loop calls per task: maps, then reduces
	runs          atomic.Int32   // Run calls
	mapsDone      int
}

func newPhaseJob(name string, maps, reduces int, split bool) *phaseJob {
	return &phaseJob{name: name, maps: maps, reduces: reduces, split: split, errAt: -1,
		loops: make([]atomic.Int32, maps+reduces)}
}

func (j *phaseJob) task(kind TaskKind, idx int) *Task {
	name := fmt.Sprintf("%s-%s%d", j.name, kind.String()[:1], idx)
	loop := func() (Usage, error) {
		j.loops[idx].Add(1)
		if kind == MapTask && idx == j.errAt {
			return Usage{BytesRead: 50}, errors.New("bad record")
		}
		return Usage{BytesRead: int64(100 + 50*(idx%3)), BytesWritten: int64(10 * idx)}, nil
	}
	if !j.split {
		return &Task{Kind: kind, Name: name, Run: func(TaskContext) (Usage, error) {
			j.runs.Add(1)
			return loop()
		}}
	}
	var u Usage
	var err error
	return &Task{Kind: kind, Name: name,
		Work: func() { u, err = loop() },
		Run: func(TaskContext) (Usage, error) {
			j.runs.Add(1)
			return u, err
		}}
}

func (j *phaseJob) Name() string { return j.name }

func (j *phaseJob) Start(*Submission) []*Task {
	tasks := make([]*Task, j.maps)
	for i := range tasks {
		tasks[i] = j.task(MapTask, i)
	}
	return tasks
}

func (j *phaseJob) TaskDone(sub *Submission, t *Task) []*Task {
	if t.Kind == ReduceTask {
		return nil
	}
	if j.mapsDone++; j.mapsDone < j.maps {
		return nil
	}
	tasks := make([]*Task, j.reduces)
	for i := range tasks {
		tasks[i] = j.task(ReduceTask, j.maps+i)
	}
	return tasks
}

// faultConfigs are the executor arms the Work tests run under: plain,
// injected failures, and a straggler rescued by a speculative backup.
func faultConfigs() map[string]Config {
	retries := smallConfig()
	retries.FailEveryN = 3
	retries.FailurePenalty = 5
	spec := smallConfig()
	spec.StragglerEveryN = 5
	spec.SlowdownFactor = 10
	spec.SpeculativeBeta = 0.9
	return map[string]Config{"plain": smallConfig(), "retries": retries, "speculation": spec}
}

// TestWorkRunsAsOneBatchPerPhase: a phase three times wider than the
// slot count reaches the wave runner as ONE batch holding every Work,
// before the phase's first Run, and that is all the runner sees — the
// waves that follow only report and are applied inline. Retries and
// speculative backups re-dispatch tasks without running Work again.
func TestWorkRunsAsOneBatchPerPhase(t *testing.T) {
	mustSee := map[string]string{"retries": "attempt-failed", "speculation": "speculative-start"}
	for name, cfg := range faultConfigs() {
		cfg.Parallelism = 2
		s := New(cfg)
		kinds := map[string]int{}
		s.SetTrace(func(ev TraceEvent) { kinds[ev.Kind]++ })
		j := newPhaseJob("wide", 3*cfg.MapSlots(), 3*cfg.ReduceSlots(), true)
		var batches, runsBefore []int
		s.SetWaveRunner(func(closures []func()) {
			batches = append(batches, len(closures))
			runsBefore = append(runsBefore, int(j.runs.Load()))
			var wg sync.WaitGroup
			for _, fn := range closures {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fn()
				}()
			}
			wg.Wait()
		})
		sub := s.Submit(j)
		if err := s.Run(); err != nil || !sub.Done() {
			t.Fatalf("%s: job did not complete: %v", name, err)
		}
		if want := []int{j.maps, j.reduces}; !slices.Equal(batches, want) {
			t.Errorf("%s: runner was handed batches %v, want one per phase %v", name, batches, want)
		} else if want := []int{0, j.maps}; !slices.Equal(runsBefore, want) {
			t.Errorf("%s: Runs before each batch = %v, want %v", name, runsBefore, want)
		}
		for i := range j.loops {
			if n := j.loops[i].Load(); n != 1 {
				t.Errorf("%s: Work of task %d ran %d times, want exactly once", name, i, n)
			}
		}
		if n := int(j.runs.Load()); n != j.maps+j.reduces {
			t.Errorf("%s: %d Runs, want %d", name, n, j.maps+j.reduces)
		}
		if kind := mustSee[name]; kind != "" && kinds[kind] == 0 {
			t.Errorf("%s: no %s event, the arm did not exercise its fault: %v", name, kind, kinds)
		}
	}
}

// TestWorkMatchesLoopInRun: moving a task's loop from Run into Work
// changes when the host computes, never the virtual timeline — same
// trace in the same order and same finish time, at every pool size and
// under every fault arm, as the job with the loop folded into Run at
// Parallelism 0.
func TestWorkMatchesLoopInRun(t *testing.T) {
	for name, base := range faultConfigs() {
		run := func(par int, split bool) ([]TraceEvent, float64) {
			cfg := base
			cfg.Parallelism = par
			s := New(cfg)
			var trace []TraceEvent
			s.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
			sub := s.Submit(newPhaseJob("wide", 3*cfg.MapSlots(), 3*cfg.ReduceSlots(), split))
			// A second job shares the slots, so waves mix tasks with and
			// without Work.
			s.Submit(&testJob{name: "plain", maps: 5, mapUsage: Usage{BytesRead: 100}})
			if err := s.Run(); err != nil || !sub.Done() {
				t.Fatalf("%s Parallelism=%d split=%v: job did not complete: %v", name, par, split, err)
			}
			return trace, sub.finished
		}
		wantTrace, wantFinish := run(0, false)
		for _, par := range []int{0, 1, 4} {
			for _, split := range []bool{false, true} {
				trace, finish := run(par, split)
				if finish != wantFinish {
					t.Errorf("%s Parallelism=%d split=%v: finish %v, want %v", name, par, split, finish, wantFinish)
				}
				if !slices.Equal(trace, wantTrace) {
					t.Errorf("%s Parallelism=%d split=%v: trace differs from the loop-in-Run job at Parallelism 0", name, par, split)
				}
			}
		}
	}
}

// TestWorkPanicSurfacesAtApplyPoint: a panic inside Work is held until
// the task's own apply point — after the results of tasks dispatched
// before it in the same wave were applied — whether the simulation is
// driven by Run or by Step, inline or pooled.
func TestWorkPanicSurfacesAtApplyPoint(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, drive := range []string{"Run", "Step"} {
			cfg := smallConfig()
			cfg.Parallelism = par
			s := New(cfg)
			applied, ranLater := false, false
			s.Submit(&shimJob{name: "boom", tasks: []*Task{
				{
					Kind: MapTask, Name: "ok",
					Work:   func() {},
					Run:    func(TaskContext) (Usage, error) { return Usage{BytesRead: 100}, nil },
					Finish: func(TaskContext, *Usage) { applied = true },
				},
				{
					Kind: MapTask, Name: "panics",
					Work: func() { panic("work exploded") },
					Run:  func(TaskContext) (Usage, error) { return Usage{}, nil },
				},
				{
					Kind: MapTask, Name: "later",
					Work:   func() {},
					Run:    func(TaskContext) (Usage, error) { return Usage{}, nil },
					Finish: func(TaskContext, *Usage) { ranLater = true },
				},
			}})
			func() {
				defer func() {
					if r := recover(); r != "work exploded" {
						t.Errorf("Parallelism=%d %s: recovered %v, want the Work's panic", par, drive, r)
					}
				}()
				if drive == "Run" {
					_ = s.Run()
					return
				}
				for stepped := true; stepped; stepped, _ = s.Step() {
				}
			}()
			if !applied || ranLater {
				t.Errorf("Parallelism=%d %s: earlier result applied = %v, later = %v; want the panic between them",
					par, drive, applied, ranLater)
			}
		}
	}
}

// TestWorkErrorFailsJobAtDispatch: an error recorded by Work is
// reported by Run, so the job fails at that task's dispatch with the
// trace TestTaskErrorTraceIgnoresParallelism pins for an error returned
// by Run itself: the wave was assigned in full, all four tasks start
// and finish, the job fails once.
func TestWorkErrorFailsJobAtDispatch(t *testing.T) {
	trace := func(par int, split bool) []TraceEvent {
		cfg := smallConfig() // 4 map slots: the four tasks are one wave
		cfg.Parallelism = par
		s := New(cfg)
		var evs []TraceEvent
		s.SetTrace(func(ev TraceEvent) { evs = append(evs, ev) })
		j := newPhaseJob("j", 4, 0, split)
		j.errAt = 1
		sub := s.Submit(j)
		if err := s.Run(); err == nil || sub.Err() == nil {
			t.Fatalf("Parallelism=%d split=%v: job did not fail", par, split)
		}
		return evs
	}
	want := trace(0, false)
	if kinds := traceKinds(want); kinds["start"] != 4 || kinds["finish"] != 4 || kinds["job-failed"] != 1 {
		t.Errorf("loop in Run: %v, want 4 starts, 4 finishes, 1 job-failed", kinds)
	}
	for _, par := range []int{0, 1, 4} {
		if got := trace(par, true); !slices.Equal(got, want) {
			t.Errorf("Parallelism=%d: trace %+v, loop-in-Run trace %+v", par, got, want)
		}
	}
}

// TestCancelRunsNoQueuedWork: a submission canceled between the
// hand-over of its tasks and the next batch computes nothing.
func TestCancelRunsNoQueuedWork(t *testing.T) {
	s := New(smallConfig())
	j := newPhaseJob("gone", 12, 0, true)
	sub := s.Submit(j)
	if stepped, _ := s.Step(); !stepped || sub.Pending() != 12 {
		t.Fatalf("after job-ready: stepped=%v pending=%d, want 12 queued tasks", stepped, sub.Pending())
	}
	cause := errors.New("client gone")
	sub.Cancel(cause)
	if err := s.Run(); err != nil {
		t.Fatalf("Run after cancel: %v", err)
	}
	if !sub.Done() || !errors.Is(sub.Err(), cause) {
		t.Errorf("canceled job: done=%v err=%v", sub.Done(), sub.Err())
	}
	for i := range j.loops {
		if n := j.loops[i].Load(); n != 0 {
			t.Errorf("Work of task %d ran %d times after Cancel", i, n)
		}
	}
	if n := j.runs.Load(); n != 0 {
		t.Errorf("%d Runs after Cancel", n)
	}
}

// goid names the calling goroutine (the number in its stack header).
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestParallelIsThePoolNotTheRunner: a job's own batches (a build's
// scan, finish) are not task attempts, so Parallel never reaches the
// installed wave runner, whose barrier counts those. Every call runs
// exactly once; on the caller's goroutine, in index order, when the pool
// is one goroutine or the batch one call, and on at most Parallelism
// goroutines otherwise (the caller is the pool's first worker).
func TestParallelIsThePoolNotTheRunner(t *testing.T) {
	for _, par := range []int{0, 1, 4} {
		cfg := smallConfig()
		cfg.Parallelism = par
		s := New(cfg)
		s.SetWaveRunner(func([]func()) { t.Errorf("Parallelism=%d: Parallel went through the wave runner", par) })
		for _, n := range []int{0, 1, 9} {
			calls := make([]atomic.Int32, n)
			var mu sync.Mutex
			var order []int
			where := map[string]bool{}
			s.Parallel(n, func(i int) {
				calls[i].Add(1)
				mu.Lock()
				order, where[goid()] = append(order, i), true
				mu.Unlock()
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("Parallelism=%d n=%d: call %d ran %d times", par, n, i, c)
				}
			}
			if inline := par <= 1 || n <= 1; inline && n > 0 {
				if !where[goid()] || len(where) != 1 || !slices.IsSorted(order) {
					t.Errorf("Parallelism=%d n=%d: ran on %v in order %v, want inline on %s", par, n, where, order, goid())
				}
			} else if len(where) > par {
				t.Errorf("Parallelism=%d n=%d: ran on %v, want at most %d goroutines, the caller one of them", par, n, where, par)
			}
		}
	}
}
