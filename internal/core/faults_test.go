package core

import (
	"strings"
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/data"
)

// countWarnings counts the warnings that mention what.
func countWarnings(warnings []string, what string) int {
	n := 0
	for _, w := range warnings {
		if strings.Contains(w, what) {
			n++
		}
	}
	return n
}

// TestPilotMTSplitClampWithManyLeaves pins the PILR_MT split-budget
// clamp: with more leaves than map slots the per-leaf budget m/|R|
// rounds to zero, and without the clamp those leaves would sample no
// splits at all. Every relation must still get at least one split.
func TestPilotMTSplitClampWithManyLeaves(t *testing.T) {
	f := newFixtureWith(func(cfg *cluster.Config) {
		cfg.MapSlotsPerWorker = 1 // 2 map slots total < 3 leaves
	})
	opts := smallOpts()
	opts.PilotMode = PilotMT
	e := f.engine(opts)
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, threeWay, res.Rows)
	if res.Pilot.Jobs != 3 {
		t.Errorf("pilot jobs = %d, want 3 (every leaf sampled)", res.Pilot.Jobs)
	}
	if len(res.Pilot.Warnings) != 0 {
		t.Errorf("pilot warnings = %v, want none", res.Pilot.Warnings)
	}
}

// TestPilotFailureFallsBackToCatalogStats injects unrecoverable task
// failures into one pilot job. The engine must absorb the loss — the
// leaf keeps catalog-derived statistics — and the query must still
// return oracle-correct rows.
func TestPilotFailureFallsBackToCatalogStats(t *testing.T) {
	f := newFixtureWith(func(cfg *cluster.Config) {
		cfg.FailInject = func(job, task string, attempt, node int) bool {
			return strings.HasPrefix(job, "pilot/q1/r")
		}
	})
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, threeWay, res.Rows)
	if len(res.Pilot.Warnings) != 1 || !strings.Contains(res.Pilot.Warnings[0], "catalog statistics") {
		t.Errorf("pilot warnings = %v", res.Pilot.Warnings)
	}
	if len(res.Warnings) == 0 {
		t.Error("pilot warning not surfaced on the result")
	}
	// The other two pilots must have run normally and stored stats.
	if res.Pilot.Jobs != 3 {
		t.Errorf("pilot jobs = %d, want 3", res.Pilot.Jobs)
	}
	if got := len(e.Store.Signatures()); got != 2 {
		t.Errorf("stored stats for %d leaves, want 2 (failed pilot skips the store)", got)
	}
}

// TestLeafJobFailureResubmitted kills every task attempt of one
// mid-plan leaf job until its retries are exhausted, then lets the
// resubmission succeed. The engine must recover from the job's
// materialized inputs (the paper's checkpoint argument, §5.1) and
// still produce oracle-correct rows.
func TestLeafJobFailureResubmitted(t *testing.T) {
	failures := 0
	f := newFixtureWith(func(cfg *cluster.Config) {
		cfg.FailInject = func(job, task string, attempt, node int) bool {
			if strings.HasPrefix(job, "q1-i1-") && strings.HasSuffix(task, "-m0") && failures < 4 {
				failures++
				return true
			}
			return false
		}
	})
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, threeWay, res.Rows)
	if failures != 4 {
		t.Fatalf("injected %d failures, want 4 (retry cap)", failures)
	}
	if n := countWarnings(res.Warnings, "resubmitted"); n != 1 {
		t.Errorf("%d resubmission warnings in %v, want 1", n, res.Warnings)
	}
}

// TestWaveLostJobResubmittedWhenSeen runs DYNOPT under All over the
// bushy block of TestStaticGraphStrategiesAndGates, so the first wave
// holds two independent leaf jobs, and exhausts the retries of one of
// them. The lost job is resubmitted the moment its failure is seen, not
// once the rest of its wave drains: its second job-ready event comes
// exactly one job startup after its job-failed event.
func TestWaveLostJobResubmittedWhenSeen(t *testing.T) {
	sql := `SELECT r.id FROM r, s, x, u
		WHERE r.sid = s.id AND x.uid = u.id AND r.id = x.rid`
	lost, failures := "", 0
	f := newFixtureWith(func(cfg *cluster.Config) {
		cfg.FailInject = func(job, task string, attempt, node int) bool {
			if !strings.HasPrefix(job, "q1-i1-") || !strings.HasSuffix(task, "-m0") || failures == 4 {
				return false
			}
			if lost == "" {
				lost = job
			}
			if job != lost {
				return false
			}
			failures++
			return true
		}
	})
	w := f.env.FS.Create("tables/x")
	for i := 0; i < 300; i++ {
		w.Append(data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "rid", Value: data.Int(int64(i * 7 % 400))},
			data.Field{Name: "uid", Value: data.Int(int64(i % 8))},
		))
	}
	f.cat.Register("x", w.Close())
	failedAt := map[string]float64{}
	readies := map[string][]float64{}
	f.env.Sim.SetTrace(func(ev cluster.TraceEvent) {
		switch ev.Kind {
		case "job-failed":
			failedAt[ev.Job] = ev.Time
		case "job-ready":
			readies[ev.Job] = append(readies[ev.Job], ev.Time)
		}
	})
	opts := smallOpts()
	opts.Strategy = All{}
	e := f.engine(opts)
	e.Opt.DisableBroadcast = true
	res, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, sql, res.Rows)
	if n := countWarnings(res.Warnings, "resubmitted"); n != 1 {
		t.Fatalf("%d resubmission warnings in %v, want 1", n, res.Warnings)
	}
	if len(res.Evolution[0].JobsRun) != 2 {
		t.Fatalf("first wave ran %v, want the two leaf jobs", res.Evolution[0].JobsRun)
	}
	want := failedAt[lost] + f.env.Sim.Config().JobStartup
	if got := readies[lost]; len(got) != 2 || got[1] != want {
		t.Errorf("%s: job-ready at %v after job-failed at %v, want the second at %v",
			lost, got, failedAt[lost], want)
	}
}

// TestJobRetriesCapAbortsQuery verifies the resubmission cap: a leaf
// job that keeps exhausting task retries on every resubmission
// eventually aborts the query with ErrTaskRetriesExhausted.
func TestJobRetriesCapAbortsQuery(t *testing.T) {
	f := newFixtureWith(func(cfg *cluster.Config) {
		cfg.FailInject = func(job, task string, attempt, node int) bool {
			return strings.HasPrefix(job, "q1-i1-") && strings.HasSuffix(task, "-m0")
		}
	})
	e := f.engine(smallOpts())
	_, err := e.ExecuteSQL(threeWay)
	if err == nil {
		t.Fatal("want error after exceeding the job-retry cap")
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Errorf("err = %v, want task-retry exhaustion", err)
	}
}

// TestPilotAndLeafFailureCombined is the acceptance scenario: a query
// whose pilot phase loses one job AND whose best plan loses a mid-plan
// leaf job must still return oracle-correct results, with both
// degradations recorded.
func TestPilotAndLeafFailureCombined(t *testing.T) {
	leafFailures := 0
	f := newFixtureWith(func(cfg *cluster.Config) {
		cfg.FailInject = func(job, task string, attempt, node int) bool {
			if strings.HasPrefix(job, "pilot/q1/s") {
				return true
			}
			if strings.HasPrefix(job, "q1-i1-") && strings.HasSuffix(task, "-m0") && leafFailures < 4 {
				leafFailures++
				return true
			}
			return false
		}
	})
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, threeWay, res.Rows)
	if countWarnings(res.Warnings, "catalog statistics") != 1 || countWarnings(res.Warnings, "resubmitted") != 1 {
		t.Errorf("warnings = %v, want one pilot fallback and one resubmission", res.Warnings)
	}
}

// TestFaultyClusterStillMatchesOracle runs the full DYNOPT pipeline on
// a cluster with every fault knob a caller can set enabled — periodic
// failures, stragglers, speculation — and requires oracle-correct
// results plus the same rows as a clean run.
func TestFaultyClusterStillMatchesOracle(t *testing.T) {
	f := newFixtureWith(func(cfg *cluster.Config) {
		cfg.FailEveryN = 17
		cfg.FailurePenalty = 3
		cfg.StragglerEveryN = 7
		cfg.SlowdownFactor = 4
		cfg.SpeculativeBeta = 1.5
	})
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, threeWay, res.Rows)
	if w := f.env.Sim.WastedSec(); w <= 0 {
		t.Errorf("wasted time = %v, want > 0 under injected faults", w)
	}
}
