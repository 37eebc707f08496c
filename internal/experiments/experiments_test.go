package experiments

import (
	"strconv"
	"strings"
	"testing"

	"dyno/internal/baselines"
	"dyno/internal/data"
	"dyno/internal/naive"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// testConfig keeps experiment tests fast: smaller row counts, fixed
// seed, dimension UDFs permissive enough to keep results non-empty.
func testConfig() Config {
	udf := tpch.DefaultUDFParams()
	udf.Q9DimSel = 0.1
	return Config{Scale: 0.1, Seed: 7, UDF: udf}
}

func TestAllVariantsMatchOracleOnWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload oracle check is slow")
	}
	cfg := testConfig()
	l, err := getLab(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range tpch.QueryNames {
		var want []data.Value
		for _, v := range figure7Variants {
			res, env, err := run(v, 100, cfg, query, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", v, query, err)
			}
			if want == nil {
				if want, err = naive.Evaluate(sqlparse.MustParse(tpch.MustQuerySQL(query)), l.cat, env.Reg); err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatalf("%s yields no rows at test scale; assertion vacuous", query)
				}
			}
			got := res.Rows
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d rows, oracle %d", v, query, len(got), len(want))
			}
			for i := range want {
				if !naive.ApproxEqual(got[i], want[i], 1e-9) {
					t.Fatalf("%s/%s row %d:\n got %v\nwant %v", v, query, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := testConfig()
	for _, q := range []string{"Q2", "Q10"} {
		st, mt, err := table1Raw(cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		for sf, v := range mt {
			if v >= st {
				t.Errorf("%s: PILR_MT at SF%g (%v) should beat PILR_ST at SF100 (%v)", q, sf, v, st)
			}
		}
		// MT cost should be roughly scale-independent: the paper's
		// point is that it depends on the sample, not the data size.
		lo, hi := mt[100], mt[100]
		for _, v := range mt {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > 3*lo {
			t.Errorf("%s: MT varies too much across SF: min %v max %v", q, lo, hi)
		}
	}
}

func TestFigure4OverheadsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := testConfig()
	for _, q := range []string{"Q8p", "Q10"} {
		o, err := measureOverheads(cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		if o.WarmExecSec <= 0 || o.ColdTotalSec <= o.WarmExecSec/2 {
			t.Errorf("%s: implausible times %+v", q, o)
		}
		if frac := o.totalOverheadFraction(); frac <= 0 || frac > 0.5 {
			t.Errorf("%s: total overhead fraction %v outside (0, 0.5]", q, frac)
		}
		if o.PilotSec <= 0 {
			t.Errorf("%s: pilot time missing", q)
		}
	}
}

func TestFigure5MOBeatsSO(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := testConfig()
	times, err := figure5Times(cfg, "Q8p")
	if err != nil {
		t.Fatal(err)
	}
	if times["SIMPLE_MO"] > times["SIMPLE_SO"]*1.01 {
		t.Errorf("SIMPLE_MO (%v) should not exceed SIMPLE_SO (%v)",
			times["SIMPLE_MO"], times["SIMPLE_SO"])
	}
	for _, s := range []string{"UNC-1", "UNC-2", "CHEAP-1", "CHEAP-2"} {
		if times[s] <= 0 {
			t.Errorf("strategy %s has no time", s)
		}
	}
	// On Q8' the paper finds the DYNOPT variants comparable to the
	// SIMPLE ones ("the cheapest and most uncertain jobs coincide");
	// assert UNC-1 stays within 15% of SIMPLE_SO.
	if times["UNC-1"] > times["SIMPLE_SO"]*1.15 {
		t.Errorf("UNC-1 (%v) should stay close to SIMPLE_SO (%v) on Q8'",
			times["UNC-1"], times["SIMPLE_SO"])
	}
}

func TestFigure6SpeedupDecreasesWithSelectivity(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := testConfig()
	points, err := figure6Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(figure6Selectivities) {
		t.Fatalf("points = %d", len(points))
	}
	first := points[0].RelOptSec / points[0].SimpleSec
	last := points[len(points)-1].RelOptSec / points[len(points)-1].SimpleSec
	if first < 1.2 {
		t.Errorf("at lowest selectivity DYNOPT-SIMPLE should win clearly: speedup %v", first)
	}
	if last > first {
		t.Errorf("speedup should shrink as selectivity grows: first %v last %v", first, last)
	}
	if last > 1.5 {
		t.Errorf("at 100%% selectivity the systems should near-converge: %v", last)
	}
	// Broadcast-chain job structure: fewer jobs at low selectivity.
	if points[0].SimpleJobs > points[len(points)-1].SimpleJobs {
		t.Errorf("job count should not shrink with selectivity: %d vs %d",
			points[0].SimpleJobs, points[len(points)-1].SimpleJobs)
	}
}

func TestFigure7Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := testConfig()
	sawBigWin := false
	for _, q := range figure7Queries {
		times, err := variantTimes(cfg, 100, q, false)
		if err != nil {
			t.Fatal(err)
		}
		base := times[baselines.VariantBestStatic]
		dyn := times[baselines.VariantDynOpt]
		// The paper's headline: DYNOPT plans are at least as good as
		// the best hand-written left-deep plan (we allow 15% slack for
		// pilot overhead at this reduced scale).
		if dyn > base*1.15 {
			t.Errorf("%s: DYNOPT %v vs best static %v exceeds slack", q, dyn, base)
		}
		if dyn < base*0.8 {
			sawBigWin = true
		}
	}
	if !sawBigWin {
		t.Error("DYNOPT should clearly beat best static on at least one query")
	}
}

func TestFigure8HiveAmplifiesBroadcastWins(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := testConfig()
	jaqlTimes, err := variantTimes(cfg, 300, "Q9p", false)
	if err != nil {
		t.Fatal(err)
	}
	hiveTimes, err := variantTimes(cfg, 300, "Q9p", true)
	if err != nil {
		t.Fatal(err)
	}
	jaqlSpeedup := jaqlTimes[baselines.VariantBestStatic] / jaqlTimes[baselines.VariantDynOpt]
	hiveSpeedup := hiveTimes[baselines.VariantBestStatic] / hiveTimes[baselines.VariantDynOpt]
	if hiveSpeedup < jaqlSpeedup*0.95 {
		t.Errorf("Hive profile should amplify Q9' speedup: jaql %.2fx hive %.2fx",
			jaqlSpeedup, hiveSpeedup)
	}
}

func TestPlanEvolutionFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := testConfig()
	ev, err := measurePlanEvolution(cfg, "Q9p", 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ev.RelOptPlan, "⋈r") {
		t.Errorf("RELOPT Q9' plan should contain repartition joins:\n%s", ev.RelOptPlan)
	}
	if len(ev.DynoPlans) == 0 || !strings.Contains(ev.DynoPlans[0], "⋈b") {
		t.Error("DYNO Q9' plan should use broadcast joins after pilot runs")
	}
	out := ev.String()
	if !strings.Contains(out, "plan by traditional optimizer") {
		t.Errorf("render missing header:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Header: []string{"a", "bee"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	out := tbl.String()
	want := "T\na    bee\n1    2  \n333  4  \nnote: n\n"
	if out != want {
		t.Errorf("render = %q, want %q", out, want)
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Scale != 0.25 || c.Seed != 2014 || c.UDF.Q9DimSel == 0 {
		t.Errorf("normalized = %+v", c)
	}
}

func TestPctAndRatio(t *testing.T) {
	if pct(0.5) != "50.0%" {
		t.Errorf("pct = %q", pct(0.5))
	}
	if ratio(1, 0) != 0 || ratio(4, 2) != 2 {
		t.Error("ratio broken")
	}
	if _, err := strconv.ParseFloat(strings.TrimSuffix(pct(0.123), "%"), 64); err != nil {
		t.Error("pct not numeric")
	}
}

func TestLabCacheReuse(t *testing.T) {
	labMu.Lock()
	labPool = map[string]*lab{}
	labMu.Unlock()
	cfg := testConfig()
	a, err := getLab(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := getLab(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("lab should be cached per (SF, Scale, Seed)")
	}
	c, err := getLab(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different SF must not share a lab")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := testConfig()
	tables, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 7 {
		t.Fatalf("ablations = %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 || tb.Title == "" {
			t.Errorf("empty ablation table %q", tb.Title)
		}
		if tb.String() == "" {
			t.Error("unrenderable table")
		}
	}
}

func TestAblationDynamicJoinImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb, err := ablationDynamicJoin(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}
