package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runWorkload drives a mixed workload (several jobs, a reduce phase,
// optional failure injection) and returns the finish times plus the
// full trace, for differential inline-vs-pooled comparisons.
func runWorkload(t *testing.T, cfg Config) ([]float64, []TraceEvent) {
	t.Helper()
	return runWorkloadOn(t, New(cfg))
}

func runWorkloadOn(t *testing.T, s *Sim) ([]float64, []TraceEvent) {
	t.Helper()
	var trace []TraceEvent
	s.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
	var finishes []float64
	jobs := []*testJob{
		{name: "scan", maps: 8, mapUsage: Usage{BytesRead: 100}},
		{name: "mr", maps: 5, reduces: 2,
			mapUsage: Usage{BytesRead: 100},
			redUsage: Usage{BytesShuffled: 50, BytesWritten: 100}},
		{name: "tail", maps: 3, mapUsage: Usage{BytesRead: 300, CPUSeconds: 1}},
	}
	for _, j := range jobs {
		sub := s.Submit(j)
		sub.OnDone(func(x *Submission) { finishes = append(finishes, x.finished) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return finishes, trace
}

// TestParallelMatchesSerial is the executor's determinism contract:
// any Parallelism must reproduce the virtual timeline of Parallelism 0
// (every wave run inline on the scheduler goroutine) exactly — same
// finish times, same trace events in the same order.
func TestParallelMatchesSerial(t *testing.T) {
	serialFinish, serialTrace := runWorkload(t, smallConfig())
	for _, par := range []int{1, 2, 4, 13} {
		cfg := smallConfig()
		cfg.Parallelism = par
		finish, trace := runWorkload(t, cfg)
		if len(finish) != len(serialFinish) {
			t.Fatalf("Parallelism=%d: %d completions, serial %d", par, len(finish), len(serialFinish))
		}
		for i := range finish {
			if finish[i] != serialFinish[i] {
				t.Errorf("Parallelism=%d: finish[%d] = %v, serial %v", par, i, finish[i], serialFinish[i])
			}
		}
		if len(trace) != len(serialTrace) {
			t.Fatalf("Parallelism=%d: %d trace events, serial %d", par, len(trace), len(serialTrace))
		}
		for i := range trace {
			if trace[i] != serialTrace[i] {
				t.Errorf("Parallelism=%d: trace[%d] = %+v, serial %+v", par, i, trace[i], serialTrace[i])
			}
		}
	}
}

// TestParallelFailureInjectionMatchesSerial covers the retry-event
// ordering subtlety: injected failures must re-queue with the same
// event sequence numbers as at Parallelism 0, the inline wave.
func TestParallelFailureInjectionMatchesSerial(t *testing.T) {
	base := smallConfig()
	base.FailEveryN = 3
	base.FailurePenalty = 5
	serialFinish, serialTrace := runWorkload(t, base)
	cfg := base
	cfg.Parallelism = 4
	finish, trace := runWorkload(t, cfg)
	if fmt.Sprint(finish) != fmt.Sprint(serialFinish) {
		t.Errorf("finishes differ: parallel %v, serial %v", finish, serialFinish)
	}
	if len(trace) != len(serialTrace) {
		t.Fatalf("%d trace events, serial %d", len(trace), len(serialTrace))
	}
	for i := range trace {
		if trace[i] != serialTrace[i] {
			t.Errorf("trace[%d] = %+v, serial %+v", i, trace[i], serialTrace[i])
		}
	}
}

// TestWaveRunnerMatchesSerial: an installed wave runner replaces the
// pool, not the schedule. It is handed every closure of a wave at once
// — the attempts that actually run, never an injected failure's — and,
// however it runs them, the virtual timeline stays that of Parallelism
// 0, the inline wave.
func TestWaveRunnerMatchesSerial(t *testing.T) {
	base := smallConfig()
	base.FailEveryN = 3
	base.FailurePenalty = 5
	serialFinish, serialTrace := runWorkload(t, base)

	cfg := base
	cfg.Parallelism = 2
	s := New(cfg)
	var waves, closures, widest int
	s.SetWaveRunner(func(run []func()) {
		waves++
		closures += len(run)
		widest = max(widest, len(run))
		var wg sync.WaitGroup
		for _, fn := range run {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn()
			}()
		}
		wg.Wait()
	})
	finish, trace := runWorkloadOn(t, s)
	if fmt.Sprint(finish) != fmt.Sprint(serialFinish) {
		t.Errorf("finishes differ: runner %v, serial %v", finish, serialFinish)
	}
	if len(trace) != len(serialTrace) {
		t.Fatalf("%d trace events, serial %d", len(trace), len(serialTrace))
	}
	starts := 0
	for i := range trace {
		if trace[i] != serialTrace[i] {
			t.Errorf("trace[%d] = %+v, serial %+v", i, trace[i], serialTrace[i])
		}
		if trace[i].Kind == "start" {
			starts++
		}
	}
	if closures != starts {
		t.Errorf("runner was handed %d closures for %d started attempts", closures, starts)
	}
	// smallConfig has 4 map slots; a runner sees the whole wave, not
	// Parallelism-sized pieces of it.
	if waves == 0 || widest <= cfg.Parallelism {
		t.Errorf("runner saw %d waves, widest %d: want whole waves wider than Parallelism=%d", waves, widest, cfg.Parallelism)
	}
}

// TestTaskErrorTraceIgnoresParallelism: a wave is assigned in full
// before any closure runs, whatever executes it, so a job whose second
// of four same-wave tasks errors starts and finishes all four and emits
// one trace at Parallelism 0, 1 and 4.
func TestTaskErrorTraceIgnoresParallelism(t *testing.T) {
	trace := func(par int) []TraceEvent {
		cfg := smallConfig() // 4 map slots: the four tasks are one wave
		cfg.Parallelism = par
		s := New(cfg)
		var evs []TraceEvent
		s.SetTrace(func(ev TraceEvent) { evs = append(evs, ev) })
		j := &shimJob{name: "j"}
		for i := 0; i < 4; i++ {
			var err error
			if i == 1 {
				err = errors.New("bad record")
			}
			j.tasks = append(j.tasks, &Task{
				Kind: MapTask, Name: fmt.Sprintf("m%d", i),
				Run: func(TaskContext) (Usage, error) { return Usage{BytesRead: 100}, err },
			})
		}
		sub := s.Submit(j)
		if err := s.Run(); err == nil || sub.Err() == nil {
			t.Fatalf("Parallelism=%d: job did not fail", par)
		}
		return evs
	}
	want := trace(0)
	if kinds := traceKinds(want); kinds["start"] != 4 || kinds["finish"] != 4 || kinds["job-failed"] != 1 {
		t.Errorf("Parallelism=0: %v, want 4 starts, 4 finishes, 1 job-failed", kinds)
	}
	for _, par := range []int{1, 4} {
		if got := trace(par); !slices.Equal(got, want) {
			t.Errorf("Parallelism=%d: trace %+v, Parallelism=0 %+v", par, got, want)
		}
	}
}

// TestWaveRunsConcurrently proves Run closures of one dispatch wave
// overlap in real time: four tasks block on a barrier that only opens
// once all four have started, which deadlocks unless they run
// concurrently.
func TestWaveRunsConcurrently(t *testing.T) {
	cfg := smallConfig() // 2 workers × 2 slots = one wave of 4
	cfg.Parallelism = 4
	s := New(cfg)
	var arrived atomic.Int32
	release := make(chan struct{})
	j := &shimJob{name: "barrier"}
	for i := 0; i < 4; i++ {
		j.tasks = append(j.tasks, &Task{
			Kind: MapTask,
			Name: fmt.Sprintf("b%d", i),
			Run: func(tc TaskContext) (Usage, error) {
				if arrived.Add(1) == 4 {
					close(release)
				}
				select {
				case <-release:
					return Usage{BytesRead: 100}, nil
				case <-time.After(10 * time.Second):
					return Usage{}, errors.New("wave did not run concurrently")
				}
			},
		})
	}
	sub := s.Submit(j)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sub.Done() || sub.Err() != nil {
		t.Fatalf("barrier job failed: %v", sub.Err())
	}
}

// TestFinishHookDispatchOrder: Finish callbacks run serially on the
// scheduler goroutine in dispatch order, regardless of the real-time
// order in which the worker pool finishes the Run closures.
func TestFinishHookDispatchOrder(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism = 4
	s := New(cfg)
	var order []string
	j := &shimJob{name: "ordered"}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("t%d", i)
		delay := time.Duration(8-i) * time.Millisecond // later tasks finish first
		j.tasks = append(j.tasks, &Task{
			Kind: MapTask,
			Name: name,
			Run: func(tc TaskContext) (Usage, error) {
				time.Sleep(delay)
				return Usage{BytesRead: 100}, nil
			},
			Finish: func(tc TaskContext, u *Usage) { order = append(order, name) },
		})
	}
	sub := s.Submit(j)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sub.Done() {
		t.Fatal("job not done")
	}
	if len(order) != 8 {
		t.Fatalf("Finish fired %d times, want 8", len(order))
	}
	for i, name := range order {
		if want := fmt.Sprintf("t%d", i); name != want {
			t.Errorf("Finish order[%d] = %s, want %s", i, name, want)
		}
	}
}

// TestWavePanicPropagates: a panic inside a pooled Run closure must
// surface on the scheduler goroutine, not kill a worker silently.
func TestWavePanicPropagates(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism = 2
	s := New(cfg)
	j := &shimJob{name: "boom", tasks: []*Task{{
		Kind: MapTask, Name: "p",
		Run: func(tc TaskContext) (Usage, error) { panic("task exploded") },
	}}}
	s.Submit(j)
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected panic to propagate from worker")
		}
	}()
	_ = s.Run()
}

// TestDefaultConfigEnablesParallelism: the default executor is the
// parallel one, sized by GOMAXPROCS.
func TestDefaultConfigEnablesParallelism(t *testing.T) {
	if DefaultConfig().Parallelism < 1 {
		t.Errorf("DefaultConfig().Parallelism = %d, want >= 1", DefaultConfig().Parallelism)
	}
}
