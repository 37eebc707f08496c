package core

import (
	"strings"
	"testing"

	"dyno/internal/dfs"
	"dyno/internal/optimizer"
	"dyno/internal/plan"
	"dyno/internal/stats"
)

func TestDynamicJoinThroughEngine(t *testing.T) {
	sql := `SELECT r.id FROM r, s, u WHERE r.sid = s.id AND s.uid = u.id`
	f := newFixture()
	opts := smallOpts()
	opts.Reoptimize = false
	opts.Strategy = All{}
	opts.DynamicJoin = true
	e := f.engine(opts)
	// Force a repartition-only static plan so the runtime switch has
	// something to convert.
	e.Opt.DisableBroadcast = true
	res, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, sql, res.Rows)
	if res.SwitchedJobs == 0 {
		t.Error("expected at least one repartition job to switch to broadcast")
	}
	if res.MapOnlyJobs < res.SwitchedJobs {
		t.Error("switched jobs must count as map-only")
	}
}

func TestDynamicJoinFasterOnConservativePlan(t *testing.T) {
	sql := `SELECT r.id FROM r, s, u WHERE r.sid = s.id AND s.uid = u.id`
	times := map[bool]float64{}
	for _, dyn := range []bool{false, true} {
		f := newFixture()
		opts := smallOpts()
		opts.Reoptimize = false
		opts.Strategy = All{}
		opts.DynamicJoin = dyn
		e := f.engine(opts)
		e.Opt.DisableBroadcast = true
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		times[dyn] = res.TotalSec
	}
	if times[true] >= times[false] {
		t.Errorf("dynamic join (%v) should beat pure repartition (%v)", times[true], times[false])
	}
}

func TestAliasKeyCanonical(t *testing.T) {
	if aliasKey([]string{"b", "a"}) != "a,b" {
		t.Errorf("aliasKey = %q", aliasKey([]string{"b", "a"}))
	}
	if aliasKey(nil) != "" {
		t.Error("empty alias key")
	}
}

func mkTestRel(name string, aliases ...string) *plan.Rel {
	return &plan.Rel{Name: name, Aliases: aliases, Stats: stats.TableStats{Card: 1, AvgRecSize: 1}}
}

func TestPlanSigCollapsesExecuted(t *testing.T) {
	a, b, c := mkTestRel("a", "a"), mkTestRel("b", "b"), mkTestRel("c", "c")
	inner := &plan.Join{Method: plan.Repartition, Left: &plan.Scan{Rel: a}, Right: &plan.Scan{Rel: b}}
	root := &plan.Join{Method: plan.BroadcastJoin, Left: inner, Right: &plan.Scan{Rel: c}}
	executed := map[string]*plan.Rel{}
	full := planSig(root, executed)
	if !strings.Contains(full, "⋈r({a},{b})") {
		t.Errorf("full sig = %q", full)
	}
	executed["a,b"] = mkTestRel("t1", "a", "b")
	collapsed := planSig(root, executed)
	if strings.Contains(collapsed, "⋈r") || !strings.Contains(collapsed, "{a,b}") {
		t.Errorf("collapsed sig = %q", collapsed)
	}
	// Different method on the remainder changes the signature.
	root2 := &plan.Join{Method: plan.Repartition, Left: inner, Right: &plan.Scan{Rel: c}}
	if planSig(root2, executed) == collapsed {
		t.Error("method change should change the signature")
	}
}

func TestPruneExecutedSubstitutesScans(t *testing.T) {
	a, b, c := mkTestRel("a", "a"), mkTestRel("b", "b"), mkTestRel("c", "c")
	inner := &plan.Join{Method: plan.BroadcastJoin, Left: &plan.Scan{Rel: a}, Right: &plan.Scan{Rel: b}, Chained: true}
	root := &plan.Join{Method: plan.BroadcastJoin, Left: inner, Right: &plan.Scan{Rel: c}}
	t1 := mkTestRel("t1", "a", "b")
	pruned := pruneExecuted(root, map[string]*plan.Rel{"a,b": t1})
	pj, ok := pruned.(*plan.Join)
	if !ok {
		t.Fatalf("pruned root = %T", pruned)
	}
	sc, ok := pj.Left.(*plan.Scan)
	if !ok || sc.Rel != t1 {
		t.Errorf("left should be the materialized scan, got %v", pj.Left)
	}
	// Original tree untouched.
	if _, ok := root.Left.(*plan.Join); !ok {
		t.Error("pruneExecuted mutated the original tree")
	}
}

func TestFullyExecutedPlanPrunesToScan(t *testing.T) {
	a, b := mkTestRel("a", "a"), mkTestRel("b", "b")
	root := &plan.Join{Method: plan.Repartition, Left: &plan.Scan{Rel: a}, Right: &plan.Scan{Rel: b}}
	t1 := mkTestRel("t1", "a", "b")
	pruned := pruneExecuted(root, map[string]*plan.Rel{"a,b": t1})
	if sc, ok := pruned.(*plan.Scan); !ok || sc.Rel != t1 {
		t.Errorf("fully executed plan should prune to a scan: %v", pruned)
	}
}

func TestEmptyResultQuery(t *testing.T) {
	f := newFixture()
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL("SELECT r.id FROM r, s WHERE r.sid = s.id AND r.zip = 11111")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(res.Rows))
	}
}

func TestPilotModeString(t *testing.T) {
	if PilotST.String() != "PILR_ST" || PilotMT.String() != "PILR_MT" {
		t.Error("PilotMode strings broken")
	}
}

func TestProjectionPushdownMatchesOracleAndShrinksOutput(t *testing.T) {
	sql := `SELECT r.id, u.name FROM r, s, u
		WHERE r.sid = s.id AND s.uid = u.id AND sentpositive(r)`
	sizes := map[bool]int64{}
	for _, push := range []bool{false, true} {
		f := newFixture()
		opts := smallOpts()
		opts.ProjectionPushdown = push
		e := f.engine(opts)
		// Keep each materialized intermediate as it is created: the
		// engine removes them when the query returns.
		var files []*dfs.File
		f.env.OnCreateFile = func(name string) {
			if file, err := f.env.FS.Open(name); err == nil && strings.HasPrefix(name, "tmp/") {
				files = append(files, file)
			}
		}
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, f, sql, res.Rows)
		for _, file := range files {
			sizes[push] += file.Size()
		}
	}
	if sizes[true] >= sizes[false] {
		t.Errorf("pushdown intermediates (%d) should be smaller than without (%d)",
			sizes[true], sizes[false])
	}
}

func TestProjectionPushdownWithWholeRecordUDF(t *testing.T) {
	// checkpair takes whole records: pruning must keep them intact.
	sql := `SELECT r.id FROM r, s, u
		WHERE r.sid = s.id AND s.uid = u.id AND checkpair(r, s)`
	f := newFixture()
	opts := smallOpts()
	opts.ProjectionPushdown = true
	e := f.engine(opts)
	res, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, sql, res.Rows)
}

// TestOptimizeSecChargesEveryRound pins the accounting contract:
// Result.OptimizeSec is the in-order sum of one charge per DYNOPT round,
// and a round answered without enumeration — the remainder kept under
// the re-optimization threshold, or a planner that considered nothing —
// is charged exactly memoHitOptSec.
func TestOptimizeSecChargesEveryRound(t *testing.T) {
	sql := `SELECT r.id FROM r, s, u WHERE r.sid = s.id AND s.uid = u.id`
	run := func(threshold float64, planner func(*plan.JoinBlock, optimizer.Config) (plan.Node, int, error)) *Result {
		f := newFixture()
		opts := smallOpts()
		opts.ReoptThreshold = threshold
		opts.Planner = planner
		e := f.engine(opts)
		e.Opt.DisableBroadcast = true // multiple iterations
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Nothing considered: every round is priced as a memo hit.
	free := func(b *plan.JoinBlock, cfg optimizer.Config) (plan.Node, int, error) {
		r, err := optimizer.Optimize(b, cfg)
		if err != nil {
			return nil, 0, err
		}
		return r.Root, 0, nil
	}
	for _, threshold := range []float64{0, 100.0} {
		res := run(threshold, free)
		if res.Iterations < 2 {
			t.Fatalf("threshold %v: %d rounds, want several", threshold, res.Iterations)
		}
		var sum float64
		for range res.Iterations {
			sum += memoHitOptSec
		}
		if res.OptimizeSec != sum {
			t.Errorf("threshold %v: OptimizeSec %v over %d memo-hit rounds, want %v",
				threshold, res.OptimizeSec, res.Iterations, sum)
		}
		if res := run(threshold, nil); res.OptimizeSec <= sum {
			t.Errorf("threshold %v: enumerating rounds charged %v, no more than %d memo hits",
				threshold, res.OptimizeSec, res.Iterations)
		}
	}
}

// TestPilotsStayLazyOthersWorkAhead: through the whole engine, pilot
// jobs (the only ones with StopAfter) hand the simulator tasks without
// Work and stop short of their input, while every other job's tasks
// carry their record loop as Work — the split is a property of the job.
func TestPilotsStayLazyOthersWorkAhead(t *testing.T) {
	f := newFixture()
	opts := smallOpts()
	opts.PilotMode = PilotST // pilots start on every split: wider than the 8 map slots
	opts.K = 16
	e := f.engine(opts)
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, threeWay, res.Rows)
	rFile, _ := f.cat.Lookup("r")
	var pilots, others, pilotR int
	for _, sub := range f.env.Sim.Jobs() {
		pilot := strings.HasPrefix(sub.Job().Name(), "pilot/")
		if pilot {
			pilots++
		} else {
			others++
		}
		for _, task := range sub.CompletedTasks() {
			if pilot == (task.Work != nil) {
				t.Errorf("job %s (pilot=%v) task %s: Work set = %v", sub.Job().Name(), pilot, task.Name, task.Work != nil)
			}
		}
		if strings.HasSuffix(sub.Job().Name(), "/r") && pilot {
			pilotR = len(sub.CompletedTasks())
		}
	}
	if pilots != 3 || others == 0 {
		t.Fatalf("saw %d pilot and %d other jobs, want 3 pilots and the query's own jobs", pilots, others)
	}
	if slots := f.env.ClusterConfig().MapSlots(); rFile.NumBlocks() <= slots || pilotR == 0 || pilotR >= rFile.NumBlocks() {
		t.Errorf("pilot over r ran %d of %d splits on %d map slots; want a wide pilot that stops early",
			pilotR, rFile.NumBlocks(), slots)
	}
}
