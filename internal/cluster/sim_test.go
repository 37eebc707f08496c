package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// testJob is a configurable two-phase job for tests.
type testJob struct {
	name     string
	maps     int
	reduces  int
	mapUsage Usage
	redUsage Usage
	mapErr   error
	mapsDone int
	onMap    func(sub *Submission, done int)
}

func (j *testJob) Name() string { return j.name }

func (j *testJob) Start(sub *Submission) []*Task {
	tasks := make([]*Task, j.maps)
	for i := range tasks {
		i := i
		tasks[i] = &Task{
			Kind: MapTask,
			Name: fmt.Sprintf("%s-m%d", j.name, i),
			Run: func(tc TaskContext) (Usage, error) {
				return j.mapUsage, j.mapErr
			},
		}
	}
	return tasks
}

func (j *testJob) TaskDone(sub *Submission, t *Task) []*Task {
	if t.Kind == ReduceTask {
		return nil
	}
	j.mapsDone++
	if j.onMap != nil {
		j.onMap(sub, j.mapsDone)
	}
	if j.mapsDone == j.maps && j.reduces > 0 && sub.Pending() == 0 && sub.Running() == 0 {
		tasks := make([]*Task, j.reduces)
		for i := range tasks {
			tasks[i] = &Task{
				Kind: ReduceTask,
				Name: fmt.Sprintf("%s-r%d", j.name, i),
				Run:  func(tc TaskContext) (Usage, error) { return j.redUsage, nil },
			}
		}
		return tasks
	}
	return nil
}

func smallConfig() Config {
	return Config{
		Workers:              2,
		MapSlotsPerWorker:    2,
		ReduceSlotsPerWorker: 1,
		SlotMemory:           1 << 20,
		JobStartup:           10,
		TaskOverhead:         1,
		ScanBps:              100,
		ShuffleBps:           50,
		WriteBps:             100,
	}
}

func TestSingleMapOnlyJobMakespan(t *testing.T) {
	s := New(smallConfig())
	// 8 map tasks, 4 slots, each task 1s overhead + 100B/100Bps = 2s.
	j := &testJob{name: "j", maps: 8, mapUsage: Usage{BytesRead: 100}}
	sub := s.Submit(j)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sub.Done() {
		t.Fatal("job not done")
	}
	// startup 10 + two waves of 2s = 14.
	if got := sub.Duration(); math.Abs(got-14) > 1e-9 {
		t.Errorf("Duration = %v, want 14", got)
	}
	if len(sub.CompletedTasks()) != 8 {
		t.Errorf("completed = %d", len(sub.CompletedTasks()))
	}
}

func TestMapReducePhasing(t *testing.T) {
	s := New(smallConfig())
	j := &testJob{
		name: "mr", maps: 4, reduces: 2,
		mapUsage: Usage{BytesRead: 100},
		redUsage: Usage{BytesShuffled: 50, BytesWritten: 100},
	}
	sub := s.Submit(j)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Maps: 1 wave of 4 tasks (2s). Reduces start only after all maps:
	// at t=12, each reduce = 1 + 50/50 + 100/100 = 3s → done 15.
	if got := sub.finished; math.Abs(got-15) > 1e-9 {
		t.Errorf("FinishTime = %v, want 15", got)
	}
	// Verify no reduce started before the last map finished.
	var lastMapEnd, firstReduceStart float64 = 0, math.Inf(1)
	for _, task := range sub.CompletedTasks() {
		if task.Kind == MapTask && task.end > lastMapEnd {
			lastMapEnd = task.end
		}
		if task.Kind == ReduceTask && task.start < firstReduceStart {
			firstReduceStart = task.start
		}
	}
	if firstReduceStart < lastMapEnd {
		t.Errorf("reduce started at %v before maps finished at %v", firstReduceStart, lastMapEnd)
	}
}

func TestFIFOPrefersEarlierJob(t *testing.T) {
	s := New(smallConfig())
	a := &testJob{name: "a", maps: 8, mapUsage: Usage{BytesRead: 100}}
	b := &testJob{name: "b", maps: 2, mapUsage: Usage{BytesRead: 100}}
	subA := s.Submit(a)
	subB := s.Submit(b)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// a occupies all 4 slots for 2 waves (until 14); b runs after.
	if subB.finished <= subA.finished {
		t.Errorf("b finished at %v, a at %v; FIFO should favor a", subB.finished, subA.finished)
	}
}

func TestParallelJobsShareSlots(t *testing.T) {
	// One map slot in total: two 1-task jobs serialize; with two slots
	// they overlap.
	cfg := smallConfig()
	cfg.Workers = 1
	cfg.MapSlotsPerWorker = 2
	s := New(cfg)
	a := &testJob{name: "a", maps: 1, mapUsage: Usage{BytesRead: 100}}
	b := &testJob{name: "b", maps: 1, mapUsage: Usage{BytesRead: 100}}
	s.Submit(a)
	subB := s.Submit(b)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := subB.finished; math.Abs(got-12) > 1e-9 {
		t.Errorf("parallel b finish = %v, want 12", got)
	}
}

func TestJobFailurePropagates(t *testing.T) {
	s := New(smallConfig())
	j := &testJob{name: "bad", maps: 4, mapErr: errors.New("out of memory")}
	sub := s.Submit(j)
	err := s.Run()
	if err == nil || sub.Err() == nil {
		t.Fatal("expected failure")
	}
	if !sub.Done() {
		t.Error("failed job should be done")
	}
}

// TestRunUntil pins the one driving contract: step until the predicate
// holds, ErrIdle when the cluster empties first, and a job failure is
// the submission's to report, never RunUntil's.
func TestRunUntil(t *testing.T) {
	s := New(smallConfig())
	bad := s.Submit(&testJob{name: "bad", maps: 4, mapErr: errors.New("out of memory")})
	good := s.Submit(&testJob{name: "good", maps: 8, mapUsage: Usage{BytesRead: 100}})
	if err := s.RunUntil(bad.Done); err != nil {
		t.Fatalf("RunUntil(bad.Done) = %v, want nil: the failure belongs to the submission", err)
	}
	if bad.Err() == nil {
		t.Error("failed submission carries no error")
	}
	if good.Done() {
		t.Error("RunUntil drained past its predicate")
	}
	if err := s.RunUntil(func() bool { return false }); !errors.Is(err, ErrIdle) {
		t.Errorf("unsatisfiable predicate: %v, want ErrIdle", err)
	}
	if !good.Done() || !s.Quiesce() {
		t.Error("ErrIdle returned with work left")
	}
}

func TestCancelPendingStopsEarly(t *testing.T) {
	s := New(smallConfig()) // 4 map slots
	j := &testJob{name: "pilot", maps: 20, mapUsage: Usage{BytesRead: 100}}
	j.onMap = func(sub *Submission, done int) {
		if done >= 4 {
			sub.CancelPending()
		}
	}
	sub := s.Submit(j)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ran := len(sub.CompletedTasks())
	if ran >= 20 || ran < 4 {
		t.Errorf("ran %d tasks, want early termination after ~4", ran)
	}
}

func TestOnDoneChainsJobs(t *testing.T) {
	s := New(smallConfig())
	a := &testJob{name: "a", maps: 1, mapUsage: Usage{BytesRead: 100}}
	var subB *Submission
	subA := s.Submit(a)
	subA.OnDone(func(*Submission) {
		subB = s.Submit(&testJob{name: "b", maps: 1, mapUsage: Usage{BytesRead: 100}})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if subB == nil || !subB.Done() {
		t.Fatal("chained job did not run")
	}
	if subB.submitted != subA.finished {
		t.Errorf("b submitted at %v, want %v", subB.submitted, subA.finished)
	}
	// OnDone after completion fires immediately.
	fired := false
	subA.OnDone(func(*Submission) { fired = true })
	if !fired {
		t.Error("OnDone on completed job should fire immediately")
	}
}

func TestAdvanceChargesClientTime(t *testing.T) {
	s := New(smallConfig())
	s.Advance(5)
	if s.Now() != 5 {
		t.Errorf("Now = %v", s.Now())
	}
	s.Advance(-3) // ignored
	if s.Now() != 5 {
		t.Errorf("negative Advance should be ignored; Now = %v", s.Now())
	}
	sub := s.Submit(&testJob{name: "j", maps: 1, mapUsage: Usage{BytesRead: 100}})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sub.finished; math.Abs(got-17) > 1e-9 {
		t.Errorf("FinishTime = %v, want 17 (5 advance + 10 startup + 2 task)", got)
	}
}

func TestEmptyJobCompletesImmediately(t *testing.T) {
	s := New(smallConfig())
	sub := s.Submit(&testJob{name: "empty", maps: 0})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sub.Done() || sub.Duration() != smallConfig().JobStartup {
		t.Errorf("empty job duration = %v", sub.Duration())
	}
}

func TestDurationComputation(t *testing.T) {
	cfg := smallConfig()
	s := New(cfg)
	u := Usage{BytesRead: 200, BytesShuffled: 100, BytesWritten: 300, CPUSeconds: 2, ExtraLatency: 1}
	// 1 overhead + 1 extra + 2 cpu + 200/100 + 100/50 + 300/100 = 11
	if got := s.duration(u); math.Abs(got-11) > 1e-9 {
		t.Errorf("duration = %v, want 11", got)
	}
}

func TestFirstOnNodeFlag(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 2
	cfg.MapSlotsPerWorker = 2
	s := New(cfg)
	firstCount := 0
	j := &testJob{name: "dc", maps: 6, mapUsage: Usage{BytesRead: 100}}
	sub := s.Submit(j)
	_ = sub
	// Wrap: count FirstOnNode via custom tasks.
	jobTasks := j.Start(sub)
	for _, task := range jobTasks {
		inner := task.Run
		task.Run = func(tc TaskContext) (Usage, error) {
			if tc.FirstOnNode {
				firstCount++
			}
			return inner(tc)
		}
	}
	// Replace the job's Start with the wrapped tasks through a shim.
	s2 := New(cfg)
	s2.Submit(&shimJob{name: "dc", tasks: jobTasks})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if firstCount != 2 {
		t.Errorf("FirstOnNode fired %d times, want once per node (2)", firstCount)
	}
}

type shimJob struct {
	name  string
	tasks []*Task
}

func (s *shimJob) Name() string                              { return s.name }
func (s *shimJob) Start(sub *Submission) []*Task             { return s.tasks }
func (s *shimJob) TaskDone(sub *Submission, t *Task) []*Task { return nil }

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New(smallConfig())
		var times []float64
		for i := 0; i < 5; i++ {
			sub := s.Submit(&testJob{name: fmt.Sprintf("j%d", i), maps: 3 + i, mapUsage: Usage{BytesRead: int64(100 * (i + 1))}})
			sub.OnDone(func(x *Submission) { times = append(times, x.finished) })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completions")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("run differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTraceEvents(t *testing.T) {
	s := New(smallConfig())
	var kinds []string
	s.SetTrace(func(ev TraceEvent) { kinds = append(kinds, ev.Kind) })
	s.Submit(&testJob{name: "j", maps: 1, mapUsage: Usage{BytesRead: 100}})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"job-ready", "start", "finish", "job-done"}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestQuiesceAndJobs(t *testing.T) {
	s := New(smallConfig())
	s.Submit(&testJob{name: "j", maps: 1, mapUsage: Usage{BytesRead: 100}})
	if s.Quiesce() {
		t.Error("should not be quiescent before Run")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Quiesce() || len(s.Jobs()) != 1 {
		t.Error("Quiesce/Jobs broken")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MapSlots() != 140 {
		t.Errorf("map slots = %d, want 140", cfg.MapSlots())
	}
	if cfg.ReduceSlots() != 84 {
		t.Errorf("reduce slots = %d, want 84", cfg.ReduceSlots())
	}
	if cfg.SlotMemory != 2<<30 {
		t.Errorf("slot memory = %d, want 2 GB", cfg.SlotMemory)
	}
}

func TestTaskKindString(t *testing.T) {
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Error("TaskKind.String broken")
	}
}

func TestAdvancePastQueuedEvents(t *testing.T) {
	// Advancing the clock beyond a queued completion event must not
	// move time backwards when the event is handled.
	s := New(smallConfig())
	sub := s.Submit(&testJob{name: "j", maps: 1, mapUsage: Usage{BytesRead: 100}})
	// Job ready at t=10, task done at t=12. Advance to t=50 first.
	s.Advance(50)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sub.Done() {
		t.Fatal("job should finish")
	}
	if sub.finished < 50 {
		t.Errorf("finish time %v went backwards past the advanced clock", sub.finished)
	}
}

func TestMapAndReduceSlotsIndependent(t *testing.T) {
	// Reduce tasks must not consume map slots: a job in its reduce
	// phase frees its map slots for a second job.
	cfg := smallConfig()
	cfg.Workers = 1
	cfg.MapSlotsPerWorker = 1
	cfg.ReduceSlotsPerWorker = 1
	s := New(cfg)
	a := &testJob{name: "a", maps: 1, reduces: 1,
		mapUsage: Usage{BytesRead: 100}, redUsage: Usage{BytesShuffled: 5000}}
	b := &testJob{name: "b", maps: 1, mapUsage: Usage{BytesRead: 100}}
	subA := s.Submit(a)
	subB := s.Submit(b)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// a's reduce runs 100s; b's map should overlap it and finish first.
	if subB.finished >= subA.finished {
		t.Errorf("b (%v) should finish during a's reduce phase (%v)",
			subB.finished, subA.finished)
	}
}

func TestZeroConfigClamped(t *testing.T) {
	s := New(Config{})
	if s.Config().Workers != 1 || s.Config().MapSlotsPerWorker != 1 {
		t.Errorf("zero config not clamped: %+v", s.Config())
	}
}

func TestFailureInjectionRetriesAndCompletes(t *testing.T) {
	cfg := smallConfig()
	cfg.FailEveryN = 3
	cfg.FailurePenalty = 5
	s := New(cfg)
	j := &testJob{name: "flaky", maps: 9, mapUsage: Usage{BytesRead: 100}}
	sub := s.Submit(j)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sub.Done() || sub.Err() != nil {
		t.Fatal("job should complete despite failures")
	}
	if len(sub.CompletedTasks()) != 9 {
		t.Errorf("completed = %d, want 9", len(sub.CompletedTasks()))
	}
	retried := 0
	for _, task := range sub.CompletedTasks() {
		if task.attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("expected some retried tasks")
	}
	// Failures cost time: compare against a clean run.
	clean := New(smallConfig())
	subClean := clean.Submit(&testJob{name: "clean", maps: 9, mapUsage: Usage{BytesRead: 100}})
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	if sub.Duration() <= subClean.Duration() {
		t.Errorf("flaky run (%v) should be slower than clean run (%v)",
			sub.Duration(), subClean.Duration())
	}
}

func TestFailureInjectionDeterministic(t *testing.T) {
	run := func() float64 {
		cfg := smallConfig()
		cfg.FailEveryN = 2
		s := New(cfg)
		sub := s.Submit(&testJob{name: "j", maps: 6, mapUsage: Usage{BytesRead: 100}})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return sub.finished
	}
	if a, b := run(), run(); a != b {
		t.Errorf("failure injection not deterministic: %v vs %v", a, b)
	}
}

func TestFairSchedulerSharesSlots(t *testing.T) {
	// Two identical jobs on a 4-slot cluster: FIFO finishes the first
	// far earlier; Fair interleaves so they finish close together.
	gap := func(kind SchedulerKind) float64 {
		cfg := smallConfig()
		cfg.Scheduler = kind
		s := New(cfg)
		a := s.Submit(&testJob{name: "a", maps: 16, mapUsage: Usage{BytesRead: 100}})
		b := s.Submit(&testJob{name: "b", maps: 16, mapUsage: Usage{BytesRead: 100}})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		g := b.finished - a.finished
		if g < 0 {
			g = -g
		}
		return g
	}
	if fifo, fair := gap(FIFO), gap(Fair); fair >= fifo {
		t.Errorf("fair gap (%v) should be smaller than FIFO gap (%v)", fair, fifo)
	}
}
