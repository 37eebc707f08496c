package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// countTrace runs a workload and tallies trace events by kind.
func traceKinds(trace []TraceEvent) map[string]int {
	m := map[string]int{}
	for _, ev := range trace {
		m[ev.Kind]++
	}
	return m
}

// TestFailEveryNExactCount pins the first-attempt-only modulo: retry
// dispatches must not shift the injection spacing, so a run injects
// exactly floor(tasks/N) failures no matter how retries interleave
// with fresh dispatches.
func TestFailEveryNExactCount(t *testing.T) {
	for _, tc := range []struct {
		maps, n, want int
	}{
		{9, 3, 3},
		{10, 4, 2},
		{7, 2, 3},
		{5, 6, 0},
	} {
		cfg := smallConfig()
		cfg.FailEveryN = tc.n
		// A long penalty keeps retries in flight while fresh first
		// attempts dispatch, which is exactly the interleaving that
		// used to drift the modulo.
		cfg.FailurePenalty = 7
		s := New(cfg)
		var trace []TraceEvent
		s.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
		sub := s.Submit(&testJob{name: "flaky", maps: tc.maps, mapUsage: Usage{BytesRead: 100}})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !sub.Done() || sub.Err() != nil {
			t.Fatalf("maps=%d N=%d: job did not complete: %v", tc.maps, tc.n, sub.Err())
		}
		if got := traceKinds(trace)["attempt-failed"]; got != tc.want {
			t.Errorf("maps=%d N=%d: %d injected failures, want exactly %d", tc.maps, tc.n, got, tc.want)
		}
	}
}

// TestRetryExhaustionFailsJob: failAttempts >= maxAttempts burns the
// whole attempt budget at one injected site and escalates to a
// job-level failure wrapping ErrTaskRetriesExhausted.
func TestRetryExhaustionFailsJob(t *testing.T) {
	cfg := smallConfig()
	cfg.FailEveryN = 4
	cfg.failAttempts = 3
	cfg.maxAttempts = 3
	s := New(cfg)
	var trace []TraceEvent
	s.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
	sub := s.Submit(&testJob{name: "doomed", maps: 4, mapUsage: Usage{BytesRead: 100}})
	err := s.Run()
	if err == nil || sub.Err() == nil {
		t.Fatal("expected job failure from retry exhaustion")
	}
	if !errors.Is(sub.Err(), ErrTaskRetriesExhausted) {
		t.Errorf("err = %v, want ErrTaskRetriesExhausted", sub.Err())
	}
	if !sub.Done() {
		t.Error("failed job should still quiesce")
	}
	kinds := traceKinds(trace)
	if kinds["task-failed"] != 1 {
		t.Errorf("task-failed events = %d, want 1", kinds["task-failed"])
	}
	if kinds["job-failed"] != 1 {
		t.Errorf("job-failed events = %d, want 1", kinds["job-failed"])
	}
}

// TestFailInjectHookTargetsAttempts: the hook sees (job, task,
// attempt, node) and fully controls which dispatches fail.
func TestFailInjectHookTargetsAttempts(t *testing.T) {
	cfg := smallConfig()
	cfg.FailInject = func(job, task string, attempt, node int) bool {
		return task == "victim-m1" && attempt <= 2
	}
	s := New(cfg)
	sub := s.Submit(&testJob{name: "victim", maps: 4, mapUsage: Usage{BytesRead: 100}})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var victim *Task
	for _, task := range sub.CompletedTasks() {
		if task.Name == "victim-m1" {
			victim = task
		}
	}
	if victim == nil {
		t.Fatal("victim task did not complete")
	}
	if victim.attempts != 3 {
		t.Errorf("victim attempts = %d, want 3 (two injected failures + success)", victim.attempts)
	}
}

// TestStragglerStretchesDuration: every Nth executed attempt runs
// SlowdownFactor times longer, extending the job's makespan.
func TestStragglerStretchesDuration(t *testing.T) {
	cfg := smallConfig()
	cfg.StragglerEveryN = 4
	cfg.SlowdownFactor = 3
	s := New(cfg)
	var trace []TraceEvent
	s.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
	// One wave of 4: three tasks take 2s, the 4th (straggler) 6s.
	sub := s.Submit(&testJob{name: "slow", maps: 4, mapUsage: Usage{BytesRead: 100}})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sub.finished; math.Abs(got-16) > 1e-9 {
		t.Errorf("FinishTime = %v, want 16 (10 startup + 3x 2s stretch)", got)
	}
	if got := traceKinds(trace)["straggler"]; got != 1 {
		t.Errorf("straggler events = %d, want 1", got)
	}
}

// TestSpeculativeExecutionRescuesStraggler: a backup attempt launched
// once the straggler exceeds beta x the median completed duration
// finishes first, wins, and shortens the makespan; the loser's stale
// completion event must not advance the clock.
func TestSpeculativeExecutionRescuesStraggler(t *testing.T) {
	base := smallConfig()
	base.StragglerEveryN = 5
	base.SlowdownFactor = 10
	run := func(beta float64) (float64, map[string]int) {
		cfg := base
		cfg.SpeculativeBeta = beta
		s := New(cfg)
		var trace []TraceEvent
		s.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
		sub := s.Submit(&testJob{name: "spec", maps: 9, mapUsage: Usage{BytesRead: 100}})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return sub.finished, traceKinds(trace)
	}
	plain, plainKinds := run(0)
	spec, specKinds := run(0.9)
	if plainKinds["speculative-start"] != 0 {
		t.Error("speculation ran with Beta = 0")
	}
	if specKinds["speculative-start"] == 0 || specKinds["speculative-win"] == 0 {
		t.Fatalf("expected a winning backup attempt, trace kinds = %v", specKinds)
	}
	if spec >= plain {
		t.Errorf("speculative makespan %v should beat straggler makespan %v", spec, plain)
	}
	// Each task still finishes exactly once.
	if specKinds["finish"] != 9 {
		t.Errorf("finish events = %d, want 9", specKinds["finish"])
	}
}

// TestSpeculativeLoserCanceled: when the primary finishes before its
// backup, the backup is canceled, its slot freed, and its elapsed time
// shows up as wasted work.
func TestSpeculativeLoserCanceled(t *testing.T) {
	cfg := smallConfig()
	cfg.StragglerEveryN = 5
	cfg.SlowdownFactor = 1.5 // mild: the primary still wins
	cfg.SpeculativeBeta = 0.9
	s := New(cfg)
	var trace []TraceEvent
	s.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
	sub := s.Submit(&testJob{name: "mild", maps: 9, mapUsage: Usage{BytesRead: 100}})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := traceKinds(trace)
	if kinds["speculative-start"] == 0 || kinds["speculative-lost"] == 0 {
		t.Fatalf("expected a losing backup attempt, trace kinds = %v", kinds)
	}
	if kinds["speculative-win"] != 0 {
		t.Errorf("no backup should win against a mild straggler, kinds = %v", kinds)
	}
	if kinds["finish"] != 9 {
		t.Errorf("finish events = %d, want 9", kinds["finish"])
	}
	if s.WastedSec() <= 0 {
		t.Error("losing backup should count as wasted work")
	}
	if !sub.Done() || sub.Err() != nil {
		t.Fatalf("job should complete: %v", sub.Err())
	}
}

// TestBlacklistSteersAwayFromBadNode: a node that keeps failing a
// job's attempts is blacklisted and the work completes elsewhere.
func TestBlacklistSteersAwayFromBadNode(t *testing.T) {
	cfg := smallConfig()
	cfg.blacklistAfter = 1
	cfg.maxAttempts = 10
	cfg.FailInject = func(job, task string, attempt, node int) bool {
		return node == 0
	}
	s := New(cfg)
	var trace []TraceEvent
	s.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
	sub := s.Submit(&testJob{name: "bl", maps: 4, mapUsage: Usage{BytesRead: 100}})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sub.Done() || sub.Err() != nil {
		t.Fatalf("job should complete off the bad node: %v", sub.Err())
	}
	if traceKinds(trace)["node-blacklisted"] != 1 {
		t.Errorf("node-blacklisted events = %d, want 1", traceKinds(trace)["node-blacklisted"])
	}
	for _, task := range sub.CompletedTasks() {
		if task.node == 0 {
			t.Errorf("task %s completed on blacklisted node 0", task.Name)
		}
	}
}

// TestWastedSecCountsFailurePenalties: each injected failure burns
// exactly the configured penalty of slot time.
func TestWastedSecCountsFailurePenalties(t *testing.T) {
	cfg := smallConfig()
	cfg.FailEveryN = 3
	cfg.FailurePenalty = 5
	s := New(cfg)
	s.Submit(&testJob{name: "w", maps: 9, mapUsage: Usage{BytesRead: 100}})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.WastedSec(); math.Abs(got-15) > 1e-9 {
		t.Errorf("WastedSec = %v, want 15 (3 failures x 5s penalty)", got)
	}
}

// faultyConfig is the full fault model switched on at once, tuned so
// every mechanism actually fires on the runWorkload mix.
func faultyConfig() Config {
	cfg := smallConfig()
	cfg.FailEveryN = 3
	cfg.FailurePenalty = 5
	cfg.failAttempts = 2
	cfg.maxAttempts = 4
	cfg.blacklistAfter = 2
	cfg.StragglerEveryN = 4
	cfg.SlowdownFactor = 3
	cfg.SpeculativeBeta = 0.9
	cfg.speculativeMinCompleted = 3
	return cfg
}

// TestParallelFaultModelMatchesSerial extends the determinism contract
// to the whole fault model: stragglers, speculation, retries, caps,
// and blacklisting must produce a bit-identical virtual timeline at
// Parallelism 0 (the inline wave) and on every pool size.
func TestParallelFaultModelMatchesSerial(t *testing.T) {
	for _, sched := range []SchedulerKind{FIFO, Fair} {
		base := faultyConfig()
		base.Scheduler = sched
		serialFinish, serialTrace := runWorkload(t, base)
		if traceKinds(serialTrace)["straggler"] == 0 {
			t.Fatalf("scheduler %v: fault config too tame, no stragglers fired", sched)
		}
		for _, par := range []int{1, 2, 4, 13} {
			cfg := base
			cfg.Parallelism = par
			finish, trace := runWorkload(t, cfg)
			if fmt.Sprint(finish) != fmt.Sprint(serialFinish) {
				t.Errorf("sched=%v par=%d: finishes %v, serial %v", sched, par, finish, serialFinish)
			}
			if len(trace) != len(serialTrace) {
				t.Fatalf("sched=%v par=%d: %d trace events, serial %d", sched, par, len(trace), len(serialTrace))
			}
			for i := range trace {
				if trace[i] != serialTrace[i] {
					t.Errorf("sched=%v par=%d: trace[%d] = %+v, serial %+v", sched, par, i, trace[i], serialTrace[i])
				}
			}
		}
	}
}

// firstOnNodeJob counts, through the Finish hook, how often the
// one-time per-node charge fires — the cluster-level contract behind
// the distributed-cache filtered-build charge. The tests hold the count
// to the nodes the job executed an attempt on (Submission.nodesSeen).
type firstOnNodeJob struct {
	name    string
	maps    int
	charges int
}

func (j *firstOnNodeJob) Name() string { return j.name }

func (j *firstOnNodeJob) Start(sub *Submission) []*Task {
	tasks := make([]*Task, j.maps)
	for i := range tasks {
		tasks[i] = &Task{
			Kind: MapTask,
			Name: fmt.Sprintf("%s-m%d", j.name, i),
			Run: func(tc TaskContext) (Usage, error) {
				return Usage{BytesRead: 100}, nil
			},
			Finish: func(tc TaskContext, u *Usage) {
				if tc.FirstOnNode {
					j.charges++
					u.ExtraLatency += 1
				}
			},
		}
	}
	return tasks
}

func (j *firstOnNodeJob) TaskDone(sub *Submission, t *Task) []*Task { return nil }

// TestFirstOnNodeChargeAcrossRetries: an injected failure does not
// mark the node as seen, so the attempt that eventually executes
// there still gets the one-time charge — exactly once per node per
// job, under both executors.
func TestFirstOnNodeChargeAcrossRetries(t *testing.T) {
	for _, par := range []int{0, 4} {
		cfg := smallConfig()
		cfg.Parallelism = par
		// Every first attempt on node 1 fails; the retries land there
		// later and must be the ones charged.
		cfg.FailInject = func(job, task string, attempt, node int) bool {
			return node == 1 && attempt == 1
		}
		s := New(cfg)
		j := &firstOnNodeJob{name: "dc", maps: 4}
		sub := s.Submit(j)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !sub.Done() || sub.Err() != nil {
			t.Fatalf("par=%d: job failed: %v", par, sub.Err())
		}
		retried := false
		for _, task := range sub.CompletedTasks() {
			if task.attempts > 1 {
				retried = true
			}
		}
		if !retried {
			t.Fatalf("par=%d: scenario did not exercise retries", par)
		}
		if len(sub.nodesSeen) != 2 || j.charges != len(sub.nodesSeen) {
			t.Errorf("par=%d: %d charges on nodes %v, want one on each of both nodes", par, j.charges, sub.nodesSeen)
		}
	}
}

// TestFirstOnNodeChargeSpeculativeBackup: a backup attempt landing on
// a node the job never used replays the Finish hook with its own
// TaskContext, so the per-node charge fires there exactly once.
//
// Layout (3 single-slot nodes): a filler job pins node 0 until t=14;
// the dc job runs m0 on node 1 (2s), the straggler m1 on node 2
// (stretched 10x), and m2 reuses node 1. When the filler finishes,
// node 0 — never seen by dc — is the only free slot, so the backup
// lands there with FirstOnNode set.
func TestFirstOnNodeChargeSpeculativeBackup(t *testing.T) {
	for _, par := range []int{0, 2} {
		cfg := smallConfig()
		cfg.Parallelism = par
		cfg.Workers = 3
		cfg.MapSlotsPerWorker = 1
		cfg.StragglerEveryN = 3 // 3rd executed attempt (dc-m1) straggles
		cfg.SlowdownFactor = 10
		cfg.SpeculativeBeta = 0.9
		cfg.speculativeMinCompleted = 1
		s := New(cfg)
		var trace []TraceEvent
		s.SetTrace(func(ev TraceEvent) { trace = append(trace, ev) })
		filler := &testJob{name: "filler", maps: 1, mapUsage: Usage{BytesRead: 300}}
		s.Submit(filler)
		j := &firstOnNodeJob{name: "dc", maps: 3}
		sub := s.Submit(j)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		kinds := traceKinds(trace)
		if kinds["speculative-win"] != 1 {
			t.Fatalf("par=%d: expected the backup to win, kinds = %v", par, kinds)
		}
		if len(sub.nodesSeen) != 3 || !sub.nodesSeen[0] || j.charges != len(sub.nodesSeen) {
			t.Errorf("par=%d: %d charges on nodes %v, want one on each of the three, backup node 0 included",
				par, j.charges, sub.nodesSeen)
		}
		// The winning backup's placement is the task's final node.
		adopted := false
		for _, task := range sub.CompletedTasks() {
			if task.node == 0 {
				adopted = true
			}
		}
		if !adopted {
			t.Errorf("par=%d: no completed dc task adopted the backup node", par)
		}
	}
}

// TestSingleWorkerWavePanicOrdering pins the runWave workers<=1 branch
// to the same capture-then-rethrow-at-apply behavior as the pooled
// branch: results of tasks dispatched before the panicking one must be
// applied before the panic surfaces.
func TestSingleWorkerWavePanicOrdering(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism = 1 // inline branch, as is 0
	s := New(cfg)
	applied := false
	j := &shimJob{name: "boom", tasks: []*Task{
		{
			Kind: MapTask, Name: "ok",
			Run:    func(tc TaskContext) (Usage, error) { return Usage{BytesRead: 100}, nil },
			Finish: func(tc TaskContext, u *Usage) { applied = true },
		},
		{
			Kind: MapTask, Name: "panics",
			Run: func(tc TaskContext) (Usage, error) { panic("task exploded") },
		},
	}}
	s.Submit(j)
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected panic to propagate")
		}
		if !applied {
			t.Error("earlier same-wave result must be applied before the panic surfaces")
		}
	}()
	_ = s.Run()
}
