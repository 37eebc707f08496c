package baselines

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/mapreduce"
	"dyno/internal/naive"
	"dyno/internal/optimizer"
	"dyno/internal/plan"
	"dyno/internal/rewrite"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

func TestHistogramFractions(t *testing.T) {
	var vals []data.Value
	for i := 0; i < 1000; i++ {
		vals = append(vals, data.Int(int64(i)))
	}
	h := buildHistogram(vals, 50)
	cases := []struct {
		v    int64
		want float64
	}{
		{0, 0.0}, {250, 0.25}, {500, 0.5}, {750, 0.75}, {999, 1.0},
	}
	for _, c := range cases {
		got := h.fractionLE(data.Int(c.v))
		if math.Abs(got-c.want) > 0.05 {
			t.Errorf("fractionLE(%d) = %v, want ~%v", c.v, got, c.want)
		}
	}
	if got := h.fractionGE(data.Int(900)); math.Abs(got-0.1) > 0.05 {
		t.Errorf("fractionGE(900) = %v", got)
	}
	if got := h.fractionGT(data.Int(2000)); got != 0 {
		t.Errorf("fractionGT above max = %v", got)
	}
}

func TestHistogramEmptyAndSkewed(t *testing.T) {
	h := buildHistogram(nil, 10)
	if got := h.fractionLE(data.Int(5)); got != 0.5 {
		t.Errorf("empty histogram fallback = %v", got)
	}
	// Heavy skew: 90% of values are 7.
	var vals []data.Value
	for i := 0; i < 900; i++ {
		vals = append(vals, data.Int(7))
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, data.Int(int64(100+i)))
	}
	hs := buildHistogram(vals, 20)
	if got := hs.fractionLE(data.Int(7)); got < 0.8 {
		t.Errorf("skewed fractionLE(7) = %v, want ~0.9", got)
	}
}

// tinyEnv builds a small TPC-H environment shared by the baseline
// tests.
func tinyEnv(t *testing.T, sf float64) (*mapreduce.Env, *jaql.Catalog) {
	t.Helper()
	return tinyEnvWith(t, sf, nil)
}

// tinyEnvWith is tinyEnv on a cluster the caller adjusts first (fault
// injection hooks).
func tinyEnvWith(t *testing.T, sf float64, mut func(*cluster.Config)) (*mapreduce.Env, *jaql.Catalog) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Parallelism = 4 // exercise the pooled executor even on 1-core CI
	if mut != nil {
		mut(&cfg)
	}
	env := &mapreduce.Env{
		FS:  dfs.New(),
		Sim: cluster.New(cfg),
		Reg: expr.NewRegistry(),
	}
	cat, err := tpch.Generate(env.FS, tpch.Config{SF: sf, Scale: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := tpch.DefaultUDFParams()
	p.Q9DimSel = 0.3
	tpch.RegisterUDFs(env.Reg, p)
	return env, cat
}

func compiledBlock(t *testing.T, cat *jaql.Catalog, sql string) *plan.JoinBlock {
	t.Helper()
	q := sqlparse.MustParse(sql)
	c, err := rewrite.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := jaql.Bind(c.Block, cat); err != nil {
		t.Fatal(err)
	}
	return c.Block
}

func TestStatsCatalogIndependenceVsCorrelation(t *testing.T) {
	env, cat := tinyEnv(t, 20)
	sc := NewStatsCatalog(env, cat)
	block := compiledBlock(t, cat,
		`SELECT o.o_orderkey FROM orders o
		 WHERE o.o_orderpriority = '1-URGENT' AND o.o_shippriority = 1`)
	leaf := block.Rels[0].Leaf
	ts, err := sc.LeafStats(leaf)
	if err != nil {
		t.Fatal(err)
	}
	// True selectivity is ~1/5 (the predicates are perfectly
	// correlated); independence gives ~1/5 × 2/5 = 2/25.
	f, _ := cat.Lookup("orders")
	total := float64(f.NumRecords())
	indep := ts.Card / total
	if indep > 0.15 {
		t.Errorf("independence estimate %v should be well below the true 0.2", indep)
	}
	var truth float64
	for _, rec := range f.AllRecords() {
		if rec.FieldOr("o_orderpriority").Str() == "1-URGENT" && rec.FieldOr("o_shippriority").Int() == 1 {
			truth++
		}
	}
	if ts.Card >= truth {
		t.Errorf("static estimate %v should underestimate the true %v", ts.Card, truth)
	}
}

func TestStatsCatalogUDFBlind(t *testing.T) {
	env, cat := tinyEnv(t, 10)
	sc := NewStatsCatalog(env, cat)
	block := compiledBlock(t, cat,
		"SELECT p.p_partkey FROM part p WHERE q9_keep_part(p)")
	ts, err := sc.LeafStats(block.Rels[0].Leaf)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := cat.Lookup("part")
	if ts.Card != float64(f.NumRecords()) {
		t.Errorf("UDF-filtered estimate %v, want the full %d (selectivity 1)", ts.Card, f.NumRecords())
	}
}

func TestStatsCatalogRangeUsesHistogram(t *testing.T) {
	env, cat := tinyEnv(t, 10)
	sc := NewStatsCatalog(env, cat)
	block := compiledBlock(t, cat,
		"SELECT p.p_partkey FROM part p WHERE p.p_size <= 15")
	ts, err := sc.LeafStats(block.Rels[0].Leaf)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := cat.Lookup("part")
	frac := ts.Card / float64(f.NumRecords())
	// p_size uniform over 1..50 → ~30%.
	if math.Abs(frac-0.3) > 0.08 {
		t.Errorf("histogram range estimate %v, want ~0.3", frac)
	}
}

func TestStatsCatalogUnknownTable(t *testing.T) {
	env, cat := tinyEnv(t, 5)
	sc := NewStatsCatalog(env, cat)
	if _, err := sc.LeafStats(&plan.Leaf{Table: "nope", Alias: "x"}); err == nil {
		t.Error("unknown table should error")
	}
}

func TestOracleStatsExact(t *testing.T) {
	env, cat := tinyEnv(t, 10)
	sc := NewStatsCatalog(env, cat)
	block := compiledBlock(t, cat,
		"SELECT o.o_orderkey FROM orders o WHERE o.o_orderpriority = '1-URGENT' AND o.o_shippriority = 1")
	if err := sc.oracleStats(block, env.Reg); err != nil {
		t.Fatal(err)
	}
	f, _ := cat.Lookup("orders")
	var truth float64
	for _, rec := range f.AllRecords() {
		if rec.FieldOr("o_orderpriority").Str() == "1-URGENT" && rec.FieldOr("o_shippriority").Int() == 1 {
			truth++
		}
	}
	if block.Rels[0].Stats.Card != truth {
		t.Errorf("oracle card = %v, want %v", block.Rels[0].Stats.Card, truth)
	}
}

func TestJaqlMethodsTreeRules(t *testing.T) {
	env, cat := tinyEnv(t, 20)
	_ = env
	block := compiledBlock(t, cat, tpch.MustQuerySQL("Q10"))
	sc := NewStatsCatalog(env, cat)
	if err := sc.oracleStats(block, env.Reg); err != nil {
		t.Fatal(err)
	}
	cfg := optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory))
	tree, err := fromOrderTree(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	joins, leftDeep := leftSpine(tree)
	if !leftDeep {
		t.Fatalf("FROM-order tree must be left-deep:\n%s", plan.Format(tree))
	}
	for _, j := range joins {
		rel := j.Right.(*plan.Scan).Rel
		fits := float64(rel.File.Size()) <= cfg.Mmax
		if fits && j.Method != plan.BroadcastJoin {
			t.Errorf("small file %s should broadcast", rel.Name)
		}
		if !fits && j.Method != plan.Repartition {
			t.Errorf("large file %s must repartition", rel.Name)
		}
	}
}

// leftSpine returns the joins down a tree's left spine, root first, and
// whether each has a scan as its right input: then they are all of the
// tree's joins, and the tree is left-deep.
func leftSpine(n plan.Node) (joins []*plan.Join, leftDeep bool) {
	for j, ok := n.(*plan.Join); ok; j, ok = n.(*plan.Join) {
		if _, scan := j.Right.(*plan.Scan); !scan {
			return joins, false
		}
		joins = append(joins, j)
		n = j.Left
	}
	return joins, true
}

func TestBestLeftDeepBeatsFromOrder(t *testing.T) {
	env, cat := tinyEnv(t, 20)
	// A deliberately bad FROM order: lineitem last.
	sql := `SELECT n.n_name FROM nation n, customer c, orders o, lineitem l
		WHERE c.c_nationkey = n.n_nationkey AND o.o_custkey = c.c_custkey
		AND l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R'`
	block := compiledBlock(t, cat, sql)
	sc := NewStatsCatalog(env, cat)
	if err := sc.oracleStats(block, env.Reg); err != nil {
		t.Fatal(err)
	}
	cfg := optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory))
	best, err := bestLeftDeep(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	from, err := fromOrderTree(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, leftDeep := leftSpine(best); !leftDeep {
		t.Error("best plan must be left-deep")
	}
	if best.Cost() > from.Cost() {
		t.Errorf("best (%v) must not cost more than FROM order (%v)", best.Cost(), from.Cost())
	}
}

func TestVariantEnginesMatchOracleOnQ10(t *testing.T) {
	sql := tpch.MustQuerySQL("Q10")
	q := sqlparse.MustParse(sql)
	for _, v := range []Variant{VariantBestStatic, VariantRelOpt, VariantSimple, VariantDynOpt} {
		t.Run(string(v), func(t *testing.T) {
			env, cat := tinyEnv(t, 10)
			opts := core.DefaultOptions()
			opts.K = 128
			opts.KMVSize = 256
			eng, err := NewEngine(v, env, cat, optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory)), opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.ExecuteSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Evaluate(q, cat, env.Reg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(want) {
				t.Fatalf("%s: %d rows, oracle %d", v, len(res.Rows), len(want))
			}
			for i := range want {
				if !data.Equal(res.Rows[i], want[i]) {
					t.Fatalf("%s row %d: got %v want %v", v, i, res.Rows[i], want[i])
				}
			}
			if res.TotalSec <= 0 {
				t.Error("no time charged")
			}
		})
	}
}

func TestRelOptChargesNoPilotTime(t *testing.T) {
	env, cat := tinyEnv(t, 10)
	eng, err := NewEngine(VariantRelOpt, env, cat,
		optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory)), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecuteSQL(tpch.MustQuerySQL("Q10"))
	if err != nil {
		t.Fatal(err)
	}
	if res.PilotSec != 0 || res.Pilot != nil {
		t.Errorf("RELOPT must not run pilots: %+v", res.Pilot)
	}
	if res.OptimizeSec != 0 {
		t.Errorf("RELOPT charges no runtime optimization: %v", res.OptimizeSec)
	}
}

func TestUnknownVariant(t *testing.T) {
	env, cat := tinyEnv(t, 5)
	if _, err := NewEngine(Variant("bogus"), env, cat, optimizer.Config{}, core.Options{}); err == nil {
		t.Error("unknown variant should error")
	}
}

func TestSelectivityOperatorBranches(t *testing.T) {
	env, cat := tinyEnv(t, 10)
	sc := NewStatsCatalog(env, cat)
	cases := []struct {
		sql    string
		lo, hi float64 // acceptable selectivity band
	}{
		{"SELECT p.p_partkey FROM part p WHERE p.p_size <> 10", 0.9, 1.0},
		{"SELECT p.p_partkey FROM part p WHERE p.p_size > 40", 0.1, 0.3},
		{"SELECT p.p_partkey FROM part p WHERE p.p_size >= 40", 0.1, 0.35},
		{"SELECT p.p_partkey FROM part p WHERE p.p_size < 10", 0.1, 0.3},
		{"SELECT p.p_partkey FROM part p WHERE 15 >= p.p_size", 0.2, 0.4}, // flipped orientation
		{"SELECT p.p_partkey FROM part p WHERE NOT p.p_size <= 15", 0.6, 0.8},
		{"SELECT p.p_partkey FROM part p WHERE p.p_size <= 10 OR p.p_size > 40", 0.3, 0.5},
	}
	f, _ := cat.Lookup("part")
	total := float64(f.NumRecords())
	for _, c := range cases {
		block := compiledBlock(t, cat, c.sql)
		ts, err := sc.LeafStats(block.Rels[0].Leaf)
		if err != nil {
			t.Fatal(err)
		}
		sel := ts.Card / total
		if sel < c.lo || sel > c.hi {
			t.Errorf("%s: selectivity %v outside [%v, %v]", c.sql, sel, c.lo, c.hi)
		}
	}
}

func TestFromOrderHandlesDisconnectedQuery(t *testing.T) {
	env, cat := tinyEnv(t, 5)
	sql := "SELECT n.n_name FROM nation n, region r" // no join predicate
	block := compiledBlock(t, cat, sql)
	sc := NewStatsCatalog(env, cat)
	if err := sc.oracleStats(block, env.Reg); err != nil {
		t.Fatal(err)
	}
	cfg := optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory))
	tree, err := fromOrderTree(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if joins, _ := leftSpine(tree); len(joins) != 1 {
		t.Errorf("tree = %s", plan.Format(tree))
	}
	if _, err := bestLeftDeep(block, cfg); err != nil {
		t.Errorf("bestLeftDeep on disconnected query: %v", err)
	}
}

func TestBestLeftDeepSingleRelation(t *testing.T) {
	env, cat := tinyEnv(t, 5)
	block := compiledBlock(t, cat, "SELECT n.n_name FROM nation n")
	sc := NewStatsCatalog(env, cat)
	if err := sc.oracleStats(block, env.Reg); err != nil {
		t.Fatal(err)
	}
	tree, err := bestLeftDeep(block, optimizer.DefaultConfig(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.(*plan.Scan); !ok {
		t.Errorf("single relation should plan to a scan: %T", tree)
	}
	if _, err := bestLeftDeep(&plan.JoinBlock{}, optimizer.DefaultConfig(1e9)); err == nil {
		t.Error("empty block should error")
	}
}

func TestVariantEnginesWithDynamicJoinMatchOracle(t *testing.T) {
	sql := tpch.MustQuerySQL("Q10")
	q := sqlparse.MustParse(sql)
	env, cat := tinyEnv(t, 10)
	opts := core.DefaultOptions()
	opts.K = 128
	opts.KMVSize = 256
	opts.DynamicJoin = true
	eng, err := NewEngine(VariantSimple, env, cat,
		optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory)), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Evaluate(q, cat, env.Reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, oracle %d", len(res.Rows), len(want))
	}
	for i := range want {
		if !naive.ApproxEqual(res.Rows[i], want[i], 1e-9) {
			t.Fatalf("row %d: got %v want %v", i, res.Rows[i], want[i])
		}
	}
}

// TestStaticVariantsResubmitLostLeafJob is core's
// TestLeafJobFailureResubmitted for the variants that run a static job
// graph: every attempt of one leaf job's first map task fails until the
// task's retries are exhausted, and the engine must resubmit the job
// from its materialized inputs, as DYNOPT does, and return the oracle's
// rows with the resubmission recorded as a warning.
func TestStaticVariantsResubmitLostLeafJob(t *testing.T) {
	sql := tpch.MustQuerySQL("Q10")
	q := sqlparse.MustParse(sql)
	for _, v := range []Variant{VariantSimple, VariantBestStatic, VariantRelOpt} {
		failures := 0
		env, cat := tinyEnvWith(t, 10, func(cfg *cluster.Config) {
			cfg.FailInject = func(job, task string, attempt, node int) bool {
				if strings.HasPrefix(job, "q1-i1-") && strings.HasSuffix(task, "-m0") && failures < 4 {
					failures++
					return true
				}
				return false
			}
		})
		opts := core.DefaultOptions()
		opts.K = 128
		opts.KMVSize = 256
		eng, err := NewEngine(v, env, cat, optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory)), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.ExecuteSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if failures != 4 {
			t.Fatalf("%s: injected %d failures, want 4 (retry cap)", v, failures)
		}
		want, err := naive.Evaluate(q, cat, env.Reg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("%s: %d rows, oracle %d", v, len(res.Rows), len(want))
		}
		for i := range want {
			if !naive.ApproxEqual(res.Rows[i], want[i], 1e-9) {
				t.Fatalf("%s: row %d: got %v want %v", v, i, res.Rows[i], want[i])
			}
		}
		resubmitted := 0
		for _, w := range res.Warnings {
			if strings.Contains(w, "resubmitted") {
				resubmitted++
			}
		}
		if resubmitted != 1 {
			t.Errorf("%s: %d resubmission warnings in %v, want 1", v, resubmitted, res.Warnings)
		}
	}
}

// fromOrderTree builds the plan Jaql's unoptimized compiler would
// produce: relations in FROM order (modulo cartesian avoidance), Jaql
// method rules. The reference bestLeftDeep must beat: a naive
// hand-written script.
func fromOrderTree(block *plan.JoinBlock, cfg optimizer.Config) (plan.Node, error) {
	n := len(block.Rels)
	if n == 0 {
		return nil, errors.New("baselines: empty block")
	}
	est := optimizer.NewEstimator(block, cfg)
	used := make([]bool, n)
	bound := map[int]bool{}
	order := make([]*plan.Rel, 0, n)
	for len(order) < n {
		picked := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if len(order) == 0 || est.HasEdge(bound, i) {
				picked = i
				break
			}
		}
		if picked < 0 {
			// Only disconnected relations remain.
			for i := 0; i < n; i++ {
				if !used[i] {
					picked = i
					break
				}
			}
		}
		used[picked] = true
		bound[picked] = true
		order = append(order, block.Rels[picked])
	}
	tree := jaqlMethodsTree(order, cfg.Mmax)
	if err := est.Annotate(tree); err != nil {
		return nil, err
	}
	return tree, nil
}
