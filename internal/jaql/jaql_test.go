package jaql

import (
	"fmt"
	"strings"
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/naive"
	"dyno/internal/optimizer"
	"dyno/internal/plan"
	"dyno/internal/rewrite"
	"dyno/internal/sqlparse"
	"dyno/internal/stats"
)

func testEnv() *mapreduce.Env {
	cfg := cluster.Config{
		Workers:              2,
		MapSlotsPerWorker:    3,
		ReduceSlotsPerWorker: 2,
		SlotMemory:           1 << 20,
		JobStartup:           10,
		TaskOverhead:         1,
		ScanBps:              10_000,
		ShuffleBps:           5_000,
		WriteBps:             10_000,
		Parallelism:          4,
	}
	return &mapreduce.Env{
		FS:  dfs.New(dfs.WithBlockSize(800)),
		Sim: cluster.New(cfg),
		Reg: expr.NewRegistry(),
	}
}

// writeRaw stores raw records into a table file.
func writeRaw(env *mapreduce.Env, name string, recs []data.Value) *dfs.File {
	w := env.FS.Create("tables/" + name)
	for _, r := range recs {
		w.Append(r)
	}
	return w.Close()
}

// exactStats computes base-relation statistics by scanning the file
// (tests use oracle statistics; production uses pilot runs).
func exactStats(env *mapreduce.Env, f *dfs.File, alias string, cols []string) stats.TableStats {
	var paths []data.Path
	for _, c := range cols {
		paths = append(paths, data.MustParsePath(alias+"."+c))
	}
	col := stats.NewCollector(paths, 1024)
	for _, rec := range f.AllRecords() {
		col.ObserveInputs(1)
		row := data.Object(data.Field{Name: alias, Value: rec})
		col.ObserveOutput(row, env.VirtualSize(row))
	}
	return col.Partial().Exact()
}

// setupTriple builds three small relations r, s, u with FK chains.
func setupTriple(env *mapreduce.Env) *Catalog {
	cat := NewCatalog()
	var rs, ss, us []data.Value
	for i := 0; i < 120; i++ {
		rs = append(rs, data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "sid", Value: data.Int(int64(i % 20))},
			data.Field{Name: "v", Value: data.Int(int64(i % 7))},
		))
	}
	for i := 0; i < 20; i++ {
		ss = append(ss, data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "uid", Value: data.Int(int64(i % 5))},
			data.Field{Name: "w", Value: data.Int(int64(i % 3))},
		))
	}
	for i := 0; i < 5; i++ {
		us = append(us, data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "name", Value: data.String(fmt.Sprintf("u%d", i))},
		))
	}
	cat.Register("r", writeRaw(env, "r", rs))
	cat.Register("s", writeRaw(env, "s", ss))
	cat.Register("u", writeRaw(env, "u", us))
	return cat
}

// compileAndBind parses, rewrites, binds, and attaches oracle stats.
func compileAndBind(t *testing.T, env *mapreduce.Env, cat *Catalog, sql string, colsByAlias map[string][]string) (*sqlparse.Query, *plan.JoinBlock) {
	t.Helper()
	q := sqlparse.MustParse(sql)
	c, err := rewrite.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := Bind(c.Block, cat); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Block.Rels {
		r.Stats = exactStats(env, r.File, r.Leaf.Alias, colsByAlias[r.Leaf.Alias])
	}
	return q, c.Block
}

// executeGraph runs all units in dependency order (the SIMPLE_MO
// behaviour) and returns the root relation.
func executeGraph(t *testing.T, env *mapreduce.Env, g *Graph) *plan.Rel {
	t.Helper()
	n := 0
	root := g.Units[len(g.Units)-1]
	for !root.Done() {
		ready := g.Ready()
		if len(ready) == 0 {
			t.Fatal("graph stuck: no ready units")
		}
		var runs []*Run
		for _, u := range ready {
			run, err := SubmitUnit(env, u, ExecOpts{})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
		if err := env.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		for _, run := range runs {
			n++
			if _, err := run.Finalize(fmt.Sprintf("t%d", n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return root.OutRel
}

// runQuery executes a query end-to-end through optimize/translate/
// execute/finish and compares against the naive oracle.
func runQuery(t *testing.T, env *mapreduce.Env, cat *Catalog, sql string, colsByAlias map[string][]string, optCfg optimizer.Config) []data.Value {
	t.Helper()
	q, block := compileAndBind(t, env, cat, sql, colsByAlias)
	res, err := optimizer.Optimize(block, optCfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(res.Root, nil, "q")
	if err != nil {
		t.Fatal(err)
	}
	final := executeGraph(t, env, g)
	rows, err := FinishQuery(env, q, final, "tmp/final")
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Evaluate(q, cat, env.Reg)
	if err != nil {
		t.Fatal(err)
	}
	got := rows
	if len(q.OrderBy) == 0 {
		got = naive.SortForComparison(got)
		want = naive.SortForComparison(want)
	}
	if len(got) != len(want) {
		t.Fatalf("engine returned %d rows, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !data.Equal(got[i], want[i]) {
			t.Fatalf("row %d differs:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
	return rows
}

func defaultOptCfg(env *mapreduce.Env) optimizer.Config {
	return optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory))
}

func TestTwoWayJoinMatchesOracle(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	rows := runQuery(t, env, cat,
		"SELECT r.id, s.w FROM r, s WHERE r.sid = s.id AND r.v = 1",
		map[string][]string{"r": {"sid", "v"}, "s": {"id", "w"}},
		defaultOptCfg(env))
	if len(rows) == 0 {
		t.Fatal("query returned no rows")
	}
}

func TestThreeWayJoinMatchesOracle(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	runQuery(t, env, cat,
		"SELECT r.id, u.name FROM r, s, u WHERE r.sid = s.id AND s.uid = u.id AND s.w = 0",
		map[string][]string{"r": {"sid"}, "s": {"id", "uid", "w"}, "u": {"id"}},
		defaultOptCfg(env))
}

func TestThreeWayRepartitionOnlyMatchesOracle(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	cfg := defaultOptCfg(env)
	cfg.DisableBroadcast = true
	runQuery(t, env, cat,
		"SELECT r.id, u.name FROM r, s, u WHERE r.sid = s.id AND s.uid = u.id",
		map[string][]string{"r": {"sid"}, "s": {"id", "uid"}, "u": {"id"}},
		cfg)
}

func TestAggregateQueryMatchesOracle(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	rows := runQuery(t, env, cat,
		`SELECT s.w AS bucket, count(*) AS cnt, sum(r.v) AS total
		 FROM r, s WHERE r.sid = s.id
		 GROUP BY s.w ORDER BY bucket`,
		map[string][]string{"r": {"sid", "v"}, "s": {"id", "w"}},
		defaultOptCfg(env))
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rows))
	}
}

func TestOrderByLimitMatchesOracle(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	rows := runQuery(t, env, cat,
		"SELECT r.id FROM r, s WHERE r.sid = s.id AND s.w = 1 ORDER BY r.id DESC LIMIT 5",
		map[string][]string{"r": {"sid"}, "s": {"id", "w"}},
		defaultOptCfg(env))
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].FieldOr("id").Int() < rows[i].FieldOr("id").Int() {
			t.Error("not sorted descending")
		}
	}
}

func TestNonLocalUDFAppliedAtJoin(t *testing.T) {
	env := testEnv()
	env.Reg.Register(expr.UDF{
		Name:    "match",
		CPUCost: 0.001,
		Fn: func(args []data.Value) data.Value {
			// Keep pairs where r.v == s.w.
			return data.Bool(args[0].FieldOr("v").Int() == args[1].FieldOr("w").Int())
		},
	})
	cat := setupTriple(env)
	runQuery(t, env, cat,
		"SELECT r.id, s.id FROM r, s WHERE r.sid = s.id AND match(r, s)",
		map[string][]string{"r": {"sid"}, "s": {"id"}},
		defaultOptCfg(env))
}

func TestLocalUDFOnScan(t *testing.T) {
	env := testEnv()
	env.Reg.Register(expr.UDF{
		Name:    "veven",
		CPUCost: 0.001,
		Fn: func(args []data.Value) data.Value {
			return data.Bool(args[0].FieldOr("v").Int()%2 == 0)
		},
	})
	cat := setupTriple(env)
	runQuery(t, env, cat,
		"SELECT r.id FROM r, s WHERE r.sid = s.id AND veven(r)",
		map[string][]string{"r": {"sid"}, "s": {"id"}},
		defaultOptCfg(env))
}

func TestSingleRelationQuery(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	rows := runQuery(t, env, cat,
		"SELECT r.id FROM r WHERE r.v = 3",
		map[string][]string{"r": {"v"}},
		defaultOptCfg(env))
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestGraphShapesChainIsOneUnit(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	_, block := compileAndBind(t, env, cat,
		"SELECT r.id FROM r, s, u WHERE r.sid = s.id AND s.uid = u.id",
		map[string][]string{"r": {"sid"}, "s": {"id", "uid"}, "u": {"id"}})
	res, err := optimizer.Optimize(block, defaultOptCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	joins, chained := len(block.Rels)-1, strings.Count(plan.Format(res.Root), "(chained)")
	g, err := BuildGraph(res.Root, nil, "q")
	if err != nil {
		t.Fatal(err)
	}
	// Every chained join merges into its parent's unit.
	if got, want := len(g.Units), joins-chained; got != want {
		t.Errorf("units = %d, want %d (joins %d, chained %d)", got, want, joins, chained)
	}
}

func TestPreparedReuseSkipsBaseScan(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	_, block := compileAndBind(t, env, cat,
		"SELECT r.id FROM r, s WHERE r.sid = s.id AND s.w = 0",
		map[string][]string{"r": {"sid"}, "s": {"id", "w"}})
	res, err := optimizer.Optimize(block, defaultOptCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	// Materialize s's filtered leaf by hand (as a pilot run would).
	sRel := block.RelFor("s")
	w := env.FS.Create("prepared/s")
	ectx := &expr.Ctx{Reg: env.Reg}
	for _, rec := range sRel.File.AllRecords() {
		row := data.Object(data.Field{Name: "s", Value: rec})
		if sRel.Leaf.Pred.Eval(ectx, row).Truthy() {
			w.Append(row)
		}
	}
	prepared := Prepared{sRel.Leaf.Signature(): w.Close()}
	g, err := BuildGraph(res.Root, prepared, "q")
	if err != nil {
		t.Fatal(err)
	}
	// The unit consuming s must read the prepared file with no filter.
	found := false
	for _, u := range g.Units {
		for _, src := range append([]source{u.Probe, u.Right}, u.Builds...) {
			if src.Rel != nil && src.Rel.Covers("s") {
				found = true
				if src.Filter != nil || src.Wrap != "" {
					t.Error("prepared source should have no filter/wrap")
				}
				if src.Rel.File.Name() != "prepared/s" {
					t.Errorf("prepared source file = %s", src.Rel.File.Name())
				}
			}
		}
	}
	if !found {
		t.Fatal("no source covering s")
	}
}

func TestUnitAccessors(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	_, block := compileAndBind(t, env, cat,
		"SELECT r.id FROM r, s, u WHERE r.sid = s.id AND s.uid = u.id",
		map[string][]string{"r": {"sid"}, "s": {"id", "uid"}, "u": {"id"}})
	cfg := defaultOptCfg(env)
	cfg.DisableBroadcast = true
	res, err := optimizer.Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(res.Root, nil, "q")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Units) != 2 {
		t.Fatalf("units = %d, want 2 repartition jobs", len(g.Units))
	}
	ready := g.Ready()
	if len(ready) != 1 {
		t.Fatalf("ready = %d, want 1 (left-deep chain)", len(ready))
	}
	u := ready[0]
	if u.MapOnly() {
		t.Error("repartition unit should not be map-only")
	}
	if u.Uncertainty != 1 {
		t.Errorf("uncertainty = %d", u.Uncertainty)
	}
	if u.EstCost <= 0 {
		t.Errorf("EstCost = %v", u.EstCost)
	}
	// Submitting a non-ready unit fails.
	for _, other := range g.Units {
		if other != u {
			if _, err := SubmitUnit(env, other, ExecOpts{}); err == nil {
				t.Error("submitting unready unit should fail")
			}
		}
	}
}

func TestStatsCollectionDuringUnit(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	_, block := compileAndBind(t, env, cat,
		"SELECT r.id FROM r, s WHERE r.sid = s.id",
		map[string][]string{"r": {"sid"}, "s": {"id"}})
	res, err := optimizer.Optimize(block, defaultOptCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(res.Root, nil, "q")
	if err != nil {
		t.Fatal(err)
	}
	run, err := SubmitUnit(env, g.Units[0], ExecOpts{
		StatsPaths: []data.Path{data.MustParsePath("r.sid")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	rel, err := run.Finalize("t1")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Stats.Card != 120 {
		t.Errorf("card = %v, want 120 (every r row matches)", rel.Stats.Card)
	}
	if ndv := rel.Stats.Cols["r.sid"].NDV; ndv != 20 {
		t.Errorf("r.sid NDV = %v, want 20", ndv)
	}
}

func TestBindUnknownTable(t *testing.T) {
	env := testEnv()
	_ = env
	q := sqlparse.MustParse("SELECT a.x FROM missing a")
	c, err := rewrite.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := Bind(c.Block, NewCatalog()); err == nil {
		t.Error("Bind should fail for unknown table")
	}
}

func TestCatalogBasics(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	names := cat.Tables()
	if len(names) != 3 || names[0] != "r" {
		t.Errorf("Tables = %v", names)
	}
	if _, ok := cat.Lookup("r"); !ok {
		t.Error("Lookup(r) failed")
	}
	if _, ok := cat.Lookup("zz"); ok {
		t.Error("Lookup(zz) should fail")
	}
}

func TestFormatRows(t *testing.T) {
	rows := []data.Value{
		data.Object(data.Field{Name: "a", Value: data.Int(1)}),
		data.Object(data.Field{Name: "a", Value: data.Int(2)}),
		data.Object(data.Field{Name: "a", Value: data.Int(3)}),
	}
	out := FormatRows(rows, 2)
	if out != "{\"a\":1}\n{\"a\":2}\n... (1 more rows)\n" {
		t.Errorf("FormatRows = %q", out)
	}
}

func TestDynamicJoinSwitch(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	// Force a repartition-only plan, then let the dynamic join operator
	// discover at submit time that the smaller side actually fits.
	_, block := compileAndBind(t, env, cat,
		"SELECT r.id FROM r, s WHERE r.sid = s.id",
		map[string][]string{"r": {"sid"}, "s": {"id"}})
	cfg := defaultOptCfg(env)
	cfg.DisableBroadcast = true
	res, err := optimizer.Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(res.Root, nil, "q")
	if err != nil {
		t.Fatal(err)
	}
	u := g.Units[0]
	if u.Kind != unitRepartition {
		t.Fatalf("want a repartition unit, got %v", u.Kind)
	}
	run, err := SubmitUnit(env, u, ExecOpts{SwitchMmax: float64(env.Sim.Config().SlotMemory)})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	rel, err := run.Finalize("t1")
	if err != nil {
		t.Fatal(err)
	}
	if !u.Switched || !u.MapOnly() {
		t.Error("unit should have switched to a map-only broadcast join")
	}
	if run.Job == nil {
		t.Fatal("no job")
	}
	// Every r row matches exactly one s row.
	if rel.Stats.Card != 120 {
		t.Errorf("switched join card = %v, want 120", rel.Stats.Card)
	}
	if n := reduceTasks(run.Sub); n != 0 {
		t.Errorf("switched job ran %d reducers, want none", n)
	}
}

func TestDynamicJoinDoesNotSwitchWhenTooBig(t *testing.T) {
	env := testEnv()
	cat := setupTriple(env)
	_, block := compileAndBind(t, env, cat,
		"SELECT r.id FROM r, s WHERE r.sid = s.id",
		map[string][]string{"r": {"sid"}, "s": {"id"}})
	cfg := defaultOptCfg(env)
	cfg.DisableBroadcast = true
	res, err := optimizer.Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(res.Root, nil, "q")
	if err != nil {
		t.Fatal(err)
	}
	u := g.Units[0]
	// A tiny budget: nothing fits.
	run, err := SubmitUnit(env, u, ExecOpts{SwitchMmax: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := run.Finalize("t1"); err != nil {
		t.Fatal(err)
	}
	if u.Switched {
		t.Error("unit must not switch when neither side fits")
	}
	if reduceTasks(run.Sub) == 0 {
		t.Error("repartition job should have run reducers")
	}
}

// reduceTasks counts the reduce tasks a finished submission ran.
func reduceTasks(sub *cluster.Submission) int {
	n := 0
	for _, t := range sub.CompletedTasks() {
		if t.Kind == cluster.ReduceTask {
			n++
		}
	}
	return n
}
