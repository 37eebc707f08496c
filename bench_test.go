package dyno_test

import (
	"testing"

	"dyno/internal/baselines"
	"dyno/internal/experiments"
	"dyno/internal/optimizer"
)

// benchConfig keeps a single benchmark iteration around a second; the
// full-scale regeneration of each table/figure is `dynobench -exp ...`.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.1
	return cfg
}

// BenchmarkTable1PilotRuns regenerates Table 1's core comparison:
// PILR_ST versus PILR_MT pilot-run time on Q8'. The reported metric is
// the MT/ST time ratio (the paper measures 16-28%).
func BenchmarkTable1PilotRuns(b *testing.B) {
	cfg := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		st, mt, err := experiments.Table1Raw(cfg, "Q8p")
		if err != nil {
			b.Fatal(err)
		}
		ratio = mt[100] / st
	}
	b.ReportMetric(ratio, "MT/ST-ratio")
}

// BenchmarkFigure4Overhead regenerates Figure 4's overhead
// decomposition for Q8'; the metric is the total dynamic-optimization
// overhead as a fraction of execution (the paper reports 7-10%).
func BenchmarkFigure4Overhead(b *testing.B) {
	cfg := benchConfig()
	var frac float64
	for i := 0; i < b.N; i++ {
		o, err := experiments.MeasureOverheads(cfg, "Q8p")
		if err != nil {
			b.Fatal(err)
		}
		frac = o.TotalOverheadFraction()
	}
	b.ReportMetric(frac*100, "overhead-%")
}

// BenchmarkFigure5Strategies regenerates Figure 5's execution-strategy
// comparison on Q8'; the metric is UNC-1's time relative to
// DYNOPT-SIMPLE_SO.
func BenchmarkFigure5Strategies(b *testing.B) {
	cfg := benchConfig()
	var rel float64
	for i := 0; i < b.N; i++ {
		times, err := experiments.Figure5Times(cfg, "Q8p")
		if err != nil {
			b.Fatal(err)
		}
		rel = times["UNC-1"] / times["SIMPLE_SO"]
	}
	b.ReportMetric(rel*100, "UNC1/SO-%")
}

// BenchmarkFigure6StarJoin regenerates Figure 6's sensitivity sweep
// end points on Q9'; the metric is the DYNOPT-SIMPLE speedup over
// RELOPT at the lowest UDF selectivity (the paper reports 1.78x).
func BenchmarkFigure6StarJoin(b *testing.B) {
	cfg := benchConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure6Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = points[0].RelOptSec / points[0].SimpleSec
	}
	b.ReportMetric(speedup, "low-sel-speedup-x")
}

// BenchmarkFigure7Speedups regenerates Figure 7's four-variant
// comparison at SF=100; the metric is DYNOPT's time relative to
// BESTSTATICJAQL averaged over the four queries (the paper's DYNOPT is
// at or below 100% everywhere).
func BenchmarkFigure7Speedups(b *testing.B) {
	cfg := benchConfig()
	var avg float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, q := range experiments.Figure7Queries {
			times, err := experiments.VariantTimes(cfg, 100, q, false)
			if err != nil {
				b.Fatal(err)
			}
			sum += times[baselines.VariantDynOpt] / times[baselines.VariantBestStatic]
		}
		avg = sum / float64(len(experiments.Figure7Queries))
	}
	b.ReportMetric(avg*100, "DYNOPT/best-%")
}

// BenchmarkFigure8Hive regenerates Figure 8's Hive comparison on Q9';
// the metric is DYNOPT's speedup over BESTSTATICHIVE under the
// distributed-cache profile (the paper reports 3.98x).
func BenchmarkFigure8Hive(b *testing.B) {
	cfg := benchConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		times, err := experiments.VariantTimes(cfg, 300, "Q9p", true)
		if err != nil {
			b.Fatal(err)
		}
		speedup = times[baselines.VariantBestStatic] / times[baselines.VariantDynOpt]
	}
	b.ReportMetric(speedup, "hive-speedup-x")
}

// BenchmarkFigure2PlanEvolution regenerates Figure 2: Q8' executed by
// DYNOPT with plan capture at every re-optimization point; the metric
// is the number of mid-query plan changes.
func BenchmarkFigure2PlanEvolution(b *testing.B) {
	cfg := benchConfig()
	var changes float64
	for i := 0; i < b.N; i++ {
		ev, err := experiments.Figure2Plans(cfg)
		if err != nil {
			b.Fatal(err)
		}
		changes = float64(ev.PlanChanges)
	}
	b.ReportMetric(changes, "plan-changes")
}

// BenchmarkFigure3StarPlans regenerates Figure 3: the Q9' plans under
// the static relational optimizer and under DYNO after pilot runs.
func BenchmarkFigure3StarPlans(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3Plans(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationChaining measures the broadcast-chain rule ablation.
func BenchmarkAblationChaining(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationChaining(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynOptEndToEnd measures one dynamically optimized execution
// of the paper's hardest query (Q8', 8 relations) at SF=100.
func BenchmarkDynOptEndToEnd(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.VariantTimes(cfg, 100, "Q8p", false); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOptimize runs one exhaustive enumeration of a synthetic join
// graph per iteration; allocs/op gates memo-table allocation churn.
func benchOptimize(b *testing.B, kind string, n int) {
	block, err := optimizer.SyntheticJoinBlock(kind, n, 2014)
	if err != nil {
		b.Fatal(err)
	}
	cfg := optimizer.DefaultConfig(optimizer.SyntheticSlotMemory)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.Optimize(block, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeChain12 enumerates a 12-relation chain, the smallest
// graph the PR's >=5x re-optimization acceptance bar applies to.
func BenchmarkOptimizeChain12(b *testing.B) { benchOptimize(b, "chain", 12) }

// BenchmarkOptimizeStar10 enumerates a 10-relation star — dense in
// connected splits, so it stresses branch-and-bound pruning hardest.
func BenchmarkOptimizeStar10(b *testing.B) { benchOptimize(b, "star", 10) }

// BenchmarkPilotRunsOnly isolates the PILR phase (Algorithm 1).
func BenchmarkPilotRunsOnly(b *testing.B) {
	cfg := benchConfig()
	var sec float64
	for i := 0; i < b.N; i++ {
		st, _, err := experiments.Table1Raw(cfg, "Q10")
		if err != nil {
			b.Fatal(err)
		}
		sec = st
	}
	b.ReportMetric(sec, "virtual-sec")
}
