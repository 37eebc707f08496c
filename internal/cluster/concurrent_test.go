package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// stepAll drives the simulator to quiescence one event at a time and
// returns the first job error, mirroring Run()'s contract.
func stepAll(t *testing.T, s *Sim) error {
	t.Helper()
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

func TestStepMatchesRunTrace(t *testing.T) {
	// The same workload driven by Step() must produce the identical
	// event timeline as Run(), including a job submitted mid-flight
	// from a task callback.
	workload := func(s *Sim) {
		a := &testJob{name: "a", maps: 6, reduces: 2,
			mapUsage: Usage{BytesRead: 100}, redUsage: Usage{BytesShuffled: 50}}
		a.onMap = func(sub *Submission, done int) {
			if done == 2 {
				s.Submit(&testJob{name: "late", maps: 3, mapUsage: Usage{BytesRead: 200}})
			}
		}
		s.Submit(a)
		s.Submit(&testJob{name: "b", maps: 4, mapUsage: Usage{BytesRead: 100}})
	}
	trace := func(drive func(*Sim)) []string {
		s := New(smallConfig())
		var evs []string
		s.SetTrace(func(ev TraceEvent) {
			evs = append(evs, fmt.Sprintf("%s/%s/%.6f", ev.Kind, ev.Job, ev.Time))
		})
		workload(s)
		drive(s)
		return evs
	}
	run := trace(func(s *Sim) {
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	step := trace(func(s *Sim) {
		if err := stepAll(t, s); err != nil {
			t.Fatal(err)
		}
	})
	if len(run) == 0 {
		t.Fatal("no trace events")
	}
	if len(run) != len(step) {
		t.Fatalf("trace lengths differ: Run=%d Step=%d", len(run), len(step))
	}
	for i := range run {
		if run[i] != step[i] {
			t.Fatalf("trace diverges at %d: Run=%q Step=%q", i, run[i], step[i])
		}
	}
}

func TestSerialVsParallelTraceIdentity(t *testing.T) {
	// Parallelism only changes which OS threads execute task bodies —
	// the virtual timeline must be bit-identical, including a second
	// job landing while the first is mid-flight.
	trace := func(parallelism int) []string {
		cfg := smallConfig()
		cfg.Parallelism = parallelism
		s := New(cfg)
		var evs []string
		s.SetTrace(func(ev TraceEvent) {
			evs = append(evs, fmt.Sprintf("%s/%s/%.6f", ev.Kind, ev.Job, ev.Time))
		})
		a := &testJob{name: "a", maps: 8, reduces: 2,
			mapUsage: Usage{BytesRead: 150}, redUsage: Usage{BytesShuffled: 50}}
		a.onMap = func(sub *Submission, done int) {
			if done == 3 {
				s.Submit(&testJob{name: "mid", maps: 5, mapUsage: Usage{BytesRead: 80}})
			}
		}
		s.Submit(a)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	serial, parallel := trace(0), trace(4)
	if len(serial) != len(parallel) {
		t.Fatalf("trace lengths differ: serial=%d parallel=%d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trace diverges at %d: serial=%q parallel=%q", i, serial[i], parallel[i])
		}
	}
}

// driveConcurrently submits each job from its own goroutine through a
// shared mutex (the server's Gate pattern) and lets every goroutine
// step the simulator until its own submission completes. Submissions
// land in a fixed order so the run is deterministic; the stepping
// interleaving is whatever the Go scheduler produces.
func driveConcurrently(t *testing.T, s *Sim, jobs []*testJob) []*Submission {
	t.Helper()
	var mu sync.Mutex
	subs := make([]*Submission, len(jobs))
	ready := make([]chan struct{}, len(jobs)+1)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	close(ready[0])
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *testJob) {
			defer wg.Done()
			<-ready[i] // enforce submission order i = 0, 1, 2, ...
			mu.Lock()
			subs[i] = s.Submit(j)
			mu.Unlock()
			close(ready[i+1])
			<-ready[len(jobs)] // all submissions land before any stepping
			for {
				mu.Lock()
				if subs[i].Done() {
					mu.Unlock()
					return
				}
				stepped, _ := s.Step()
				mu.Unlock()
				if !stepped && subs[i].Done() {
					return
				}
			}
		}(i, j)
	}
	wg.Wait()
	return subs
}

func TestConcurrentSubmissionFairVsFIFO(t *testing.T) {
	// Two identical jobs submitted and stepped from separate
	// goroutines: the Fair scheduler interleaves their tasks so the
	// finish gap is small; FIFO runs them back to back. Whoever steps
	// drives everyone — both goroutines' jobs finish regardless of
	// which goroutine does the stepping.
	gap := func(kind SchedulerKind) float64 {
		cfg := smallConfig()
		cfg.Scheduler = kind
		s := New(cfg)
		jobs := []*testJob{
			{name: "a", maps: 16, mapUsage: Usage{BytesRead: 100}},
			{name: "b", maps: 16, mapUsage: Usage{BytesRead: 100}},
		}
		subs := driveConcurrently(t, s, jobs)
		for i, sub := range subs {
			if !sub.Done() || sub.Err() != nil {
				t.Fatalf("%v job %d: done=%v err=%v", kind, i, sub.Done(), sub.Err())
			}
		}
		g := subs[1].finished - subs[0].finished
		if g < 0 {
			g = -g
		}
		return g
	}
	fifo, fair := gap(FIFO), gap(Fair)
	if fair >= fifo {
		t.Errorf("fair gap (%v) should be smaller than FIFO gap (%v)", fair, fifo)
	}
}

func TestConcurrentSubmissionMatchesSequentialTimeline(t *testing.T) {
	// The finish times produced by multi-goroutine submission through
	// the mutex must equal those of the same jobs submitted in the
	// same order and driven by a single Run() — stepping concurrency
	// must not perturb the virtual timeline.
	mk := func() []*testJob {
		return []*testJob{
			{name: "a", maps: 10, mapUsage: Usage{BytesRead: 100}},
			{name: "b", maps: 4, reduces: 2, mapUsage: Usage{BytesRead: 200}, redUsage: Usage{BytesShuffled: 50}},
			{name: "c", maps: 7, mapUsage: Usage{BytesRead: 150}},
		}
	}
	cfg := smallConfig()
	cfg.Scheduler = Fair

	ref := New(cfg)
	var want []float64
	for _, j := range mk() {
		sub := ref.Submit(j)
		sub.OnDone(func(x *Submission) { want = append(want, x.finished) })
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 5; round++ {
		s := New(cfg)
		subs := driveConcurrently(t, s, mk())
		for i, sub := range subs {
			if got := sub.finished; got != want[i] {
				t.Fatalf("round %d job %d: concurrent finish %v != sequential %v",
					round, i, got, want[i])
			}
		}
	}
}

func TestCancelBeforeStartDropsJob(t *testing.T) {
	s := New(smallConfig())
	sub := s.Submit(&testJob{name: "doomed", maps: 8, mapUsage: Usage{BytesRead: 100}})
	other := s.Submit(&testJob{name: "ok", maps: 2, mapUsage: Usage{BytesRead: 100}})
	cause := errors.New("session canceled")
	sub.Cancel(cause)
	// The cancellation takes effect when the startup event drains.
	_ = stepAll(t, s)
	if !sub.Done() || sub.Err() == nil {
		t.Fatal("canceled submission should be done with an error")
	}
	if !other.Done() || other.Err() != nil {
		t.Fatalf("unrelated job: done=%v err=%v", other.Done(), other.Err())
	}
	if got := len(sub.CompletedTasks()); got != 0 {
		t.Errorf("canceled-before-start job completed %d tasks, want 0", got)
	}
}

func TestCancelMidFlightReleasesSlots(t *testing.T) {
	s := New(smallConfig()) // 4 map slots
	j := &testJob{name: "big", maps: 40, mapUsage: Usage{BytesRead: 100}}
	var sub *Submission
	j.onMap = func(x *Submission, done int) {
		if done == 4 {
			x.Cancel(errors.New("client gone"))
		}
	}
	sub = s.Submit(j)
	tail := s.Submit(&testJob{name: "tail", maps: 2, mapUsage: Usage{BytesRead: 100}})
	_ = stepAll(t, s)
	if !sub.Done() || sub.Err() == nil {
		t.Fatal("canceled job should be done with an error")
	}
	if ran := len(sub.CompletedTasks()); ran >= 40 {
		t.Errorf("cancel did not drop pending tasks: ran %d", ran)
	}
	if !tail.Done() || tail.Err() != nil {
		t.Fatalf("tail job: done=%v err=%v", tail.Done(), tail.Err())
	}
	// The canceled job's 36 dropped tasks must not delay the tail job
	// past the time a clean 4+2-wave schedule would take.
	if tail.finished > 100 {
		t.Errorf("tail finished at %v; canceled job still holding slots?", tail.finished)
	}
}

func TestRetireDoneJobsBoundsMemory(t *testing.T) {
	cfg := smallConfig()
	cfg.RetireDoneJobs = true
	s := New(cfg)
	const n = 200
	for i := 0; i < n; i++ {
		s.Submit(&testJob{name: fmt.Sprintf("j%d", i), maps: 1, mapUsage: Usage{BytesRead: 100}})
		if err := stepAll(t, s); err != nil {
			t.Fatal(err)
		}
		// A completed submission pins its job (and the job its output
		// file), so it leaves at the next step, not dozens of jobs later.
		if got := len(s.Jobs()); got != 0 {
			t.Fatalf("Jobs() holds %d entries with job %d done and the simulator idle", got, i)
		}
	}
	// Without the flag everything is retained.
	s2 := New(smallConfig())
	for i := 0; i < 70; i++ {
		s2.Submit(&testJob{name: fmt.Sprintf("k%d", i), maps: 1, mapUsage: Usage{BytesRead: 100}})
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Jobs()); got != 70 {
		t.Errorf("default config retired jobs: %d != 70", got)
	}
}
