package experiments

import (
	"reflect"
	"testing"

	"dyno/internal/baselines"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/naive"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// TestBatchDifferentialWorkload runs the full TPC-H query set through
// the DYNOPT engine both ways — columnar kernels offered every split
// (the default), and the per-record kernels alone (DisableBatch) — and
// asserts the arms are indistinguishable: same result rows bit for
// bit, same virtual-time trace, same job counts, same plan evolution.
// The default arm is additionally checked against the naive
// relational-algebra oracle so "identical" can never mean "identically
// wrong". CI runs this under -race, which also guards the batch
// layer's shared per-split caches and the shuffle's pooled buffers
// against cross-task sharing bugs.
func TestBatchDifferentialWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential workload is slow")
	}
	type arm struct {
		name  string
		tweak func(*core.Options)
	}
	arms := []arm{{"default", nil}}
	for _, query := range tpch.QueryNames {
		query := query
		t.Run(query, func(t *testing.T) {
			batchCfg := testConfig()
			rowCfg := batchCfg
			rowCfg.DisableBatch = true

			for _, a := range arms {
				batchRes, err := runVariant(baselines.VariantDynOpt, 100, batchCfg, query, false, a.tweak)
				if err != nil {
					t.Fatalf("%s batch: %v", a.name, err)
				}
				row, err := runVariant(baselines.VariantDynOpt, 100, rowCfg, query, false, a.tweak)
				if err != nil {
					t.Fatalf("%s per-record: %v", a.name, err)
				}
				assertSameResult(t, batchRes.res, row.res)

				// Oracle check on the batch arm (the other arm is
				// transitively covered by the bit-identical assertion).
				l, err := getLab(100, batchCfg)
				if err != nil {
					t.Fatal(err)
				}
				env := l.newEnv(false, batchCfg)
				q := sqlparse.MustParse(tpch.MustQuerySQL(query))
				want, err := naive.Evaluate(q, l.cat, env.Reg)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatalf("%s yields no rows at test scale; assertion vacuous", query)
				}
				if len(batchRes.res.Rows) != len(want) {
					t.Fatalf("%s: %d rows, oracle %d", a.name, len(batchRes.res.Rows), len(want))
				}
				for i := range want {
					if !naive.ApproxEqual(batchRes.res.Rows[i], want[i], 1e-9) {
						t.Fatalf("%s row %d:\n got %v\nwant %v", a.name, i, batchRes.res.Rows[i], want[i])
					}
				}
			}
		})
	}
}

// TestBatchDifferentialPilotMT repeats the differential check under
// the PILR_MT pilot mode with the UNC-2 re-optimization strategy — the
// configuration with the most concurrent jobs in flight, and therefore
// the most pooled-buffer traffic.
func TestBatchDifferentialPilotMT(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tweak := func(o *core.Options) {
		o.PilotMode = core.PilotMT
		o.Strategy = core.Uncertain{N: 2}
	}
	batchCfg := testConfig()
	rowCfg := batchCfg
	rowCfg.DisableBatch = true
	for _, query := range []string{"Q8p", "Q10"} {
		batchRes, err := runVariant(baselines.VariantDynOpt, 100, batchCfg, query, false, tweak)
		if err != nil {
			t.Fatalf("%s batch: %v", query, err)
		}
		row, err := runVariant(baselines.VariantDynOpt, 100, rowCfg, query, false, tweak)
		if err != nil {
			t.Fatalf("%s per-record: %v", query, err)
		}
		assertSameResult(t, batchRes.res, row.res)
	}
}

// assertSameResult asserts two engine results are indistinguishable:
// rows, virtual-time trace, job counters, and plan evolution.
func assertSameResult(t *testing.T, fast, legacy *core.Result) {
	t.Helper()
	if len(fast.Rows) != len(legacy.Rows) {
		t.Fatalf("row count diverged: fast %d, legacy %d", len(fast.Rows), len(legacy.Rows))
	}
	for i := range fast.Rows {
		if !data.Equal(fast.Rows[i], legacy.Rows[i]) {
			t.Fatalf("row %d diverged:\n  fast:   %v\n  legacy: %v", i, fast.Rows[i], legacy.Rows[i])
		}
	}
	if fast.TotalSec != legacy.TotalSec || fast.PilotSec != legacy.PilotSec || fast.OptimizeSec != legacy.OptimizeSec {
		t.Fatalf("virtual times diverged: fast{total=%v pilot=%v opt=%v} legacy{total=%v pilot=%v opt=%v}",
			fast.TotalSec, fast.PilotSec, fast.OptimizeSec,
			legacy.TotalSec, legacy.PilotSec, legacy.OptimizeSec)
	}
	if fast.Iterations != legacy.Iterations || fast.Jobs != legacy.Jobs ||
		fast.MapOnlyJobs != legacy.MapOnlyJobs || fast.MapReduceJobs != legacy.MapReduceJobs ||
		fast.SwitchedJobs != legacy.SwitchedJobs || fast.PlanChanges != legacy.PlanChanges {
		t.Fatalf("job counters diverged: fast{it=%d jobs=%d mo=%d mr=%d sw=%d pc=%d} legacy{it=%d jobs=%d mo=%d mr=%d sw=%d pc=%d}",
			fast.Iterations, fast.Jobs, fast.MapOnlyJobs, fast.MapReduceJobs, fast.SwitchedJobs, fast.PlanChanges,
			legacy.Iterations, legacy.Jobs, legacy.MapOnlyJobs, legacy.MapReduceJobs, legacy.SwitchedJobs, legacy.PlanChanges)
	}
	if fast.FinalPlan != legacy.FinalPlan {
		t.Fatalf("final plan diverged:\n  fast:\n%s\n  legacy:\n%s", fast.FinalPlan, legacy.FinalPlan)
	}
	if !reflect.DeepEqual(fast.Evolution, legacy.Evolution) {
		t.Fatalf("plan evolution diverged:\n  fast:   %+v\n  legacy: %+v", fast.Evolution, legacy.Evolution)
	}
}
