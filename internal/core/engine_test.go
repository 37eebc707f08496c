package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/mapreduce"
	"dyno/internal/naive"
	"dyno/internal/optimizer"
	"dyno/internal/sqlparse"
)

// fixture bundles an engine over three relations with a correlated
// column pair and UDFs.
type fixture struct {
	env *mapreduce.Env
	cat *jaql.Catalog
}

func newFixture() *fixture { return newFixtureWith(nil) }

// newFixtureWith lets a test adjust the cluster configuration (fault
// injection hooks, slot counts) before the simulator is built.
func newFixtureWith(mut func(*cluster.Config)) *fixture {
	cfg := cluster.Config{
		Workers:              2,
		MapSlotsPerWorker:    4,
		ReduceSlotsPerWorker: 2,
		SlotMemory:           1 << 20,
		JobStartup:           15,
		TaskOverhead:         1,
		ScanBps:              20_000,
		ShuffleBps:           8_000,
		WriteBps:             15_000,
		Parallelism:          4,
	}
	if mut != nil {
		mut(&cfg)
	}
	env := &mapreduce.Env{
		FS:  dfs.New(dfs.WithBlockSize(700)),
		Sim: cluster.New(cfg),
		Reg: expr.NewRegistry(),
	}
	env.Reg.Register(expr.UDF{
		Name:    "sentpositive",
		CPUCost: 0.002,
		Fn: func(args []data.Value) data.Value {
			// Deterministic "sentiment": positive when v % 5 == 0.
			return data.Bool(args[0].FieldOr("v").Int()%5 == 0)
		},
	})
	env.Reg.Register(expr.UDF{
		Name:    "checkpair",
		CPUCost: 0.002,
		Fn: func(args []data.Value) data.Value {
			// Non-local UDF over two joined relations: keeps ~10%.
			return data.Bool((args[0].FieldOr("id").Int()+args[1].FieldOr("id").Int())%10 == 0)
		},
	})
	cat := jaql.NewCatalog()
	write := func(name string, recs []data.Value) {
		w := env.FS.Create("tables/" + name)
		for _, r := range recs {
			w.Append(r)
		}
		cat.Register(name, w.Close())
	}
	var rs, ss, us []data.Value
	for i := 0; i < 400; i++ {
		rs = append(rs, data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "sid", Value: data.Int(int64(i % 40))},
			data.Field{Name: "v", Value: data.Int(int64(i % 25))},
			// zip and state are perfectly correlated (the paper's
			// restaurant example).
			data.Field{Name: "zip", Value: data.Int(94301 + int64(i%4))},
			data.Field{Name: "state", Value: data.String([]string{"CA", "CA", "NY", "NY"}[i%4])},
		))
	}
	for i := 0; i < 40; i++ {
		ss = append(ss, data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "uid", Value: data.Int(int64(i % 8))},
			data.Field{Name: "w", Value: data.Int(int64(i % 4))},
		))
	}
	for i := 0; i < 8; i++ {
		us = append(us, data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "name", Value: data.String(fmt.Sprintf("u%d", i))},
		))
	}
	write("r", rs)
	write("s", ss)
	write("u", us)
	return &fixture{env: env, cat: cat}
}

func (f *fixture) engine(opts Options) *Engine {
	cfg := optimizer.DefaultConfig(float64(f.env.Sim.Config().SlotMemory))
	return NewEngine(f.env, f.cat, cfg, opts)
}

// TestDistributedCacheSetsDCacheWorkers: the Hive profile is one
// environment switch. The engine prices broadcast builds once per
// worker when the environment loads them once per node, and once per
// task otherwise.
func TestDistributedCacheSetsDCacheWorkers(t *testing.T) {
	for _, dc := range []bool{false, true} {
		f := newFixture()
		f.env.DistributedCache = dc
		want := 0
		if dc {
			want = f.env.ClusterConfig().Workers
		}
		if got := f.engine(smallOpts()).Opt.DCacheWorkers; got != want {
			t.Errorf("DistributedCache=%v: DCacheWorkers = %d, want %d", dc, got, want)
		}
	}
}

func smallOpts() Options {
	o := DefaultOptions()
	o.K = 64
	o.KMVSize = 256
	return o
}

// checkOracle compares an engine result to the naive evaluator.
func checkOracle(t *testing.T, f *fixture, sql string, got []data.Value) {
	t.Helper()
	q := sqlparse.MustParse(sql)
	want, err := naive.Evaluate(q, f.cat, f.env.Reg)
	if err != nil {
		t.Fatal(err)
	}
	g := got
	if len(q.OrderBy) == 0 {
		g = naive.SortForComparison(g)
		want = naive.SortForComparison(want)
	}
	if len(g) != len(want) {
		t.Fatalf("engine %d rows, oracle %d rows", len(g), len(want))
	}
	for i := range g {
		if !data.Equal(g[i], want[i]) {
			t.Fatalf("row %d: got %v want %v", i, g[i], want[i])
		}
	}
}

const threeWay = `SELECT r.id, u.name FROM r, s, u
	WHERE r.sid = s.id AND s.uid = u.id AND sentpositive(r)`

func TestDynOptMatchesOracle(t *testing.T) {
	f := newFixture()
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, threeWay, res.Rows)
	if res.Jobs == 0 || res.Iterations == 0 {
		t.Errorf("jobs=%d iterations=%d", res.Jobs, res.Iterations)
	}
	if res.TotalSec <= 0 || res.PilotSec <= 0 {
		t.Errorf("times: total=%v pilot=%v", res.TotalSec, res.PilotSec)
	}
	if res.Pilot == nil || res.Pilot.Jobs != 3 {
		t.Errorf("pilot report = %+v", res.Pilot)
	}
}

func TestDynOptSimpleMatchesOracle(t *testing.T) {
	f := newFixture()
	opts := smallOpts()
	opts.Reoptimize = false
	opts.Strategy = All{}
	e := f.engine(opts)
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, threeWay, res.Rows)
	if res.Iterations != 1 {
		t.Errorf("simple mode iterations = %d, want 1", res.Iterations)
	}
}

func TestNonLocalUDFQueryMatchesOracle(t *testing.T) {
	sql := `SELECT r.id FROM r, s, u
		WHERE r.sid = s.id AND s.uid = u.id AND checkpair(r, s)`
	f := newFixture()
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, sql, res.Rows)
}

func TestCorrelatedPredicatesEstimatedByPilot(t *testing.T) {
	// zip=94301 implies state='CA': true selectivity 1/4, while the
	// independence assumption would give 1/4 × 1/2 = 1/8.
	sql := `SELECT r.id FROM r, s
		WHERE r.sid = s.id AND r.zip = 94301 AND r.state = 'CA'`
	f := newFixture()
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, sql, res.Rows)
	// The pilot-run statistics stored for r's leaf must reflect the
	// correlated selectivity (~100 of 400 rows), not the independence
	// estimate (~50).
	var rCard float64
	for _, sig := range e.Store.Signatures() {
		ts, _ := e.Store.Get(sig)
		if ts.Card > 0 && ts.Card < 400 {
			if c, ok := ts.Cols["r.sid"]; ok && c.NDV > 0 {
				rCard = ts.Card
			}
		}
	}
	if rCard < 70 || rCard > 130 {
		t.Errorf("pilot estimate for filtered r = %v, want ~100 (correlation-aware)", rCard)
	}
}

func TestStatsReuseSkipsPilotJobs(t *testing.T) {
	f := newFixture()
	opts := smallOpts()
	opts.ReuseStats = true
	e := f.engine(opts)
	r1, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Pilot.Reused != 0 || r1.Pilot.Jobs != 3 {
		t.Fatalf("first run pilot = %+v", r1.Pilot)
	}
	r2, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Pilot.Jobs != 0 || r2.Pilot.Reused != 3 {
		t.Errorf("second run should reuse all stats: %+v", r2.Pilot)
	}
	checkOracle(t, f, threeWay, r2.Rows)
}

func TestPilotMTFasterThanST(t *testing.T) {
	times := map[PilotMode]float64{}
	for _, mode := range []PilotMode{PilotST, PilotMT} {
		f := newFixture()
		opts := smallOpts()
		opts.PilotMode = mode
		e := f.engine(opts)
		res, err := e.ExecuteSQL(threeWay)
		if err != nil {
			t.Fatal(err)
		}
		times[mode] = res.PilotSec
		checkOracle(t, f, threeWay, res.Rows)
	}
	if times[PilotMT] >= times[PilotST] {
		t.Errorf("PILR_MT (%v) should beat PILR_ST (%v)", times[PilotMT], times[PilotST])
	}
}

func TestWholeInputConsumedEnablesReuse(t *testing.T) {
	// sentpositive keeps 1/5 of r; with K larger than the output the
	// pilot consumes the whole input and the output is reused.
	// The query's jobs run while the three outputs are prepared, and
	// the query keeps them no longer than it runs.
	f := newFixture()
	opts := smallOpts()
	opts.K = 100_000
	e := f.engine(opts)
	var prepared []int
	f.env.OnCreateFile = func(name string) {
		if strings.HasPrefix(name, "tmp/") {
			prepared = append(prepared, len(e.prepared))
		}
	}
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pilot.Consumed != 3 {
		t.Errorf("consumed = %d, want 3 (k exceeds all outputs)", res.Pilot.Consumed)
	}
	if len(prepared) != res.Jobs || slices.ContainsFunc(prepared, func(n int) bool { return n != 3 }) {
		t.Errorf("prepared outputs while the %d jobs ran: %v, want 3 each", res.Jobs, prepared)
	}
	if e.prepared != nil {
		t.Errorf("prepared outputs after the query: %d, want none", len(e.prepared))
	}
	checkOracle(t, f, threeWay, res.Rows)
}

func TestStrategiesAllMatchOracle(t *testing.T) {
	for _, s := range []Strategy{Cheap{N: 1}, Cheap{N: 2}, Uncertain{N: 1}, Uncertain{N: 2}} {
		t.Run(s.Name(), func(t *testing.T) {
			f := newFixture()
			opts := smallOpts()
			opts.Strategy = s
			e := f.engine(opts)
			res, err := e.ExecuteSQL(threeWay)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, f, threeWay, res.Rows)
		})
	}
}

func TestSimpleSOSlowerThanMO(t *testing.T) {
	// A bushy-friendly query with two independent leaf jobs.
	sql := `SELECT r.id FROM r, s, u
		WHERE r.sid = s.id AND s.uid = u.id`
	times := map[string]float64{}
	for _, s := range []Strategy{One{}, All{}} {
		f := newFixture()
		opts := smallOpts()
		opts.Reoptimize = false
		opts.Strategy = s
		opts.DisablePilotRuns = false
		e := f.engine(opts)
		// Force repartition-only so the plan has at least two jobs.
		e.Opt.DisableBroadcast = true
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		times[s.Name()] = res.TotalSec
		checkOracle(t, f, sql, res.Rows)
	}
	if times["MO"] > times["SO"] {
		t.Errorf("MO (%v) should not be slower than SO (%v)", times["MO"], times["SO"])
	}
}

// lockedGate drives a simulator the way a query service's session gate
// does: a lock around every call, released between events.
type lockedGate struct {
	mu  sync.Mutex
	sim *cluster.Sim
}

func (g *lockedGate) Submit(j cluster.Job) *cluster.Submission {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sim.Submit(j)
}

func (g *lockedGate) Now() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sim.Now()
}

func (g *lockedGate) Advance(d float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sim.Advance(d)
}

func (g *lockedGate) RunUntil(pred func() bool) error {
	for {
		g.mu.Lock()
		if pred() {
			g.mu.Unlock()
			return nil
		}
		stepped, _ := g.sim.Step()
		g.mu.Unlock()
		if !stepped {
			return cluster.ErrIdle
		}
	}
}

// TestStaticGraphStrategiesAndGates runs DYNOPT-SIMPLE over a block
// whose best plan is bushy — (r ⋈ s) ⋈ (x ⋈ u), two independent leaf
// jobs — through the engine's one job driver: under One no join job
// becomes ready before the previous one is done, under All the two
// leaf jobs overlap, and an environment driving its own simulator
// (Gate nil) and one behind a locking gate agree on rows and TotalSec.
func TestStaticGraphStrategiesAndGates(t *testing.T) {
	sql := `SELECT r.id FROM r, s, x, u
		WHERE r.sid = s.id AND x.uid = u.id AND r.id = x.rid`
	run := func(s Strategy, gated bool) (*Result, int) {
		f := newFixture()
		w := f.env.FS.Create("tables/x")
		for i := 0; i < 300; i++ {
			w.Append(data.Object(
				data.Field{Name: "id", Value: data.Int(int64(i))},
				data.Field{Name: "rid", Value: data.Int(int64(i * 7 % 400))},
				data.Field{Name: "uid", Value: data.Int(int64(i % 8))},
			))
		}
		f.cat.Register("x", w.Close())
		if gated {
			f.env.Gate = &lockedGate{sim: f.env.Sim}
		}
		open, widest := 0, 0
		f.env.Sim.SetTrace(func(ev cluster.TraceEvent) {
			if strings.HasPrefix(ev.Job, "pilot/") {
				return
			}
			switch ev.Kind {
			case "job-ready":
				open++
				widest = max(widest, open)
			case "job-done":
				open--
			}
		})
		opts := smallOpts()
		opts.Reoptimize = false
		opts.Strategy = s
		e := f.engine(opts)
		// Repartition-only, so every join is a job of its own.
		e.Opt.DisableBroadcast = true
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatalf("%s gated=%v: %v", s.Name(), gated, err)
		}
		checkOracle(t, f, sql, res.Rows)
		return res, widest
	}
	for _, s := range []Strategy{One{}, All{}} {
		own, widest := run(s, false)
		if own.Jobs != 3 {
			t.Fatalf("%s: %d join jobs, want 3 (bushy plan)\n%s", s.Name(), own.Jobs, own.FinalPlan)
		}
		if _, one := s.(One); one && widest != 1 {
			t.Errorf("SO: %d join jobs ready at once, want 1", widest)
		} else if !one && widest < 2 {
			t.Errorf("MO: at most %d join job ready at once, want the two leaf jobs to overlap", widest)
		}
		gated, gatedWidest := run(s, true)
		if !slices.EqualFunc(own.Rows, gated.Rows, data.Equal) {
			t.Errorf("%s: rows differ between Gate nil and a locking gate", s.Name())
		}
		if own.TotalSec != gated.TotalSec || widest != gatedWidest {
			t.Errorf("%s: TotalSec %v (widest %d) with Gate nil, %v (widest %d) behind a locking gate",
				s.Name(), own.TotalSec, widest, gated.TotalSec, gatedWidest)
		}
	}
}

func TestReoptThresholdSkipsOptimizerCalls(t *testing.T) {
	sql := `SELECT r.id FROM r, s, u WHERE r.sid = s.id AND s.uid = u.id`
	opt := func(threshold float64) *Result {
		f := newFixture()
		opts := smallOpts()
		opts.ReoptThreshold = threshold
		e := f.engine(opts)
		e.Opt.DisableBroadcast = true // multiple iterations
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, f, sql, res.Rows)
		return res
	}
	always := opt(0)
	lenient := opt(100.0) // estimates never deviate 100x
	if always.Iterations < 2 {
		t.Skip("query completed in one iteration; threshold not exercised")
	}
	if lenient.OptimizeSec >= always.OptimizeSec {
		t.Errorf("threshold should reduce optimizer time: %v vs %v",
			lenient.OptimizeSec, always.OptimizeSec)
	}
}

func TestPlanEvolutionRecorded(t *testing.T) {
	f := newFixture()
	e := f.engine(smallOpts())
	e.Opt.DisableBroadcast = true
	res, err := e.ExecuteSQL(threeWay)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evolution) != res.Iterations {
		t.Errorf("evolution entries = %d, iterations = %d", len(res.Evolution), res.Iterations)
	}
	for _, it := range res.Evolution {
		if it.Plan == "" || len(it.JobsRun) == 0 {
			t.Errorf("incomplete iteration info: %+v", it)
		}
	}
}

func TestSingleRelationQueryThroughEngine(t *testing.T) {
	sql := "SELECT r.id FROM r WHERE r.zip = 94302"
	f := newFixture()
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, sql, res.Rows)
}

func TestAggregationQueryThroughEngine(t *testing.T) {
	sql := `SELECT s.w AS bucket, count(*) AS cnt
		FROM r, s WHERE r.sid = s.id GROUP BY s.w ORDER BY bucket`
	f := newFixture()
	e := f.engine(smallOpts())
	res, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, f, sql, res.Rows)
	if len(res.Rows) != 4 {
		t.Errorf("groups = %d", len(res.Rows))
	}
}

func TestParseErrorPropagates(t *testing.T) {
	f := newFixture()
	e := f.engine(smallOpts())
	if _, err := e.ExecuteSQL("not sql"); err == nil {
		t.Error("want parse error")
	}
	if _, err := e.ExecuteSQL("SELECT x.a FROM nosuch x"); err == nil {
		t.Error("want bind error")
	}
}

func TestStrategyPickers(t *testing.T) {
	mk := func(cost float64, unc int) *jaql.Unit {
		return &jaql.Unit{EstCost: cost, Uncertainty: unc}
	}
	a, b, c := mk(10, 1), mk(5, 3), mk(1, 3)
	ready := []*jaql.Unit{a, b, c}
	if got := (Cheap{N: 1}).Pick(ready); len(got) != 1 || got[0] != c {
		t.Errorf("CHEAP-1 = %v", got)
	}
	if got := (Cheap{N: 2}).Pick(ready); len(got) != 2 || got[0] != c || got[1] != b {
		t.Errorf("CHEAP-2 wrong")
	}
	if got := (Uncertain{N: 1}).Pick(ready); len(got) != 1 || got[0] != c {
		t.Errorf("UNC-1 should pick cheapest of the most uncertain")
	}
	if got := (Uncertain{N: 2}).Pick(ready); len(got) != 2 || got[0] != c || got[1] != b {
		t.Errorf("UNC-2 wrong")
	}
	if got := (One{}).Pick(ready); len(got) != 1 || got[0] != a {
		t.Errorf("SO should pick the first ready unit")
	}
	if got := (All{}).Pick(ready); len(got) != 3 {
		t.Errorf("MO should pick everything")
	}
	names := []string{Cheap{1}.Name(), Cheap{2}.Name(), Uncertain{1}.Name(), Uncertain{2}.Name(), One{}.Name(), All{}.Name()}
	want := []string{"CHEAP-1", "CHEAP-2", "UNC-1", "UNC-2", "SO", "MO"}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("name %d = %s", i, names[i])
		}
	}
}

func TestDeviates(t *testing.T) {
	if !deviates(100, 500, 0) {
		t.Error("threshold 0 always re-optimizes")
	}
	if deviates(100, 110, 0.5) {
		t.Error("10% deviation within 50% threshold")
	}
	if !deviates(100, 200, 0.5) {
		t.Error("100% deviation exceeds 50% threshold")
	}
	if !deviates(0, 5, 0.5) || deviates(0, 0, 0.5) {
		t.Error("zero-estimate handling")
	}
}

func TestPilotEstimateAccuracy(t *testing.T) {
	// Pilot estimate of the unfiltered fact cardinality should be close
	// to the true 400 even from a sample.
	f := newFixture()
	opts := smallOpts()
	opts.K = 64
	e := f.engine(opts)
	if _, err := e.ExecuteSQL("SELECT r.id FROM r, s WHERE r.sid = s.id"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sig := range e.Store.Signatures() {
		ts, _ := e.Store.Get(sig)
		if c, ok := ts.Cols["r.sid"]; ok && c.NDV > 0 {
			found = true
			if math.Abs(ts.Card-400)/400 > 0.3 {
				t.Errorf("pilot card estimate %v, want ~400", ts.Card)
			}
		}
	}
	if !found {
		t.Fatal("no stats stored for r's leaf")
	}
}
