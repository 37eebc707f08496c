package optimizer_test

import (
	"slices"
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/optimizer"
	"dyno/internal/plan"
	"dyno/internal/tpch"
)

// TestIncrementalTPCHByteIdentical runs the evaluation's join queries
// through DYNOPT, which re-optimizes round by round, twice over one
// generated dataset: once with the engine's own search (Optimize, with
// branch-and-bound), once with the exhaustive reference search as the
// planner. The plans must be byte-identical — the same plan every
// round, the same final plan — and so must the rows, job counts and
// plan changes. Only the virtual optimizer-time charge may differ:
// that is what pruning saves.
func TestIncrementalTPCHByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H differential is slow")
	}
	ccfg := cluster.DefaultConfig()
	fs := dfs.New()
	cat, err := tpch.Generate(fs, tpch.Config{SF: 100, Scale: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	udf := tpch.DefaultUDFParams()
	udf.Q9DimSel = 0.1 // keeps Q9p's result non-empty at this scale
	// run executes sql under DYNOPT; a nil planner leaves the engine's
	// own search in charge.
	run := func(sql string, planner func(*plan.JoinBlock, optimizer.Config) (plan.Node, int, error)) *core.Result {
		t.Helper()
		reg := expr.NewRegistry()
		tpch.RegisterUDFs(reg, udf)
		env := &mapreduce.Env{FS: fs, Sim: cluster.New(ccfg), Reg: reg}
		opts := core.DefaultOptions()
		opts.K = 256
		opts.KMVSize = 512
		opts.Planner = planner
		res, err := core.NewEngine(env, cat, optimizer.DefaultConfig(float64(ccfg.SlotMemory)), opts).ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, query := range []string{"Q8p", "Q9p", "Q10"} {
		t.Run(query, func(t *testing.T) {
			sql, err := tpch.QuerySQL(query)
			if err != nil {
				t.Fatal(err)
			}
			own := run(sql, nil)
			ref := run(sql, optimizer.ExhaustivePlanner)
			if own.FinalPlan != ref.FinalPlan {
				t.Errorf("final plans differ:\nown search:\n%s\nexhaustive:\n%s", own.FinalPlan, ref.FinalPlan)
			}
			if len(own.Evolution) != len(ref.Evolution) {
				t.Fatalf("iteration counts differ: %d vs %d", len(own.Evolution), len(ref.Evolution))
			}
			for i := range own.Evolution {
				if own.Evolution[i].Plan != ref.Evolution[i].Plan {
					t.Errorf("iteration %d plans differ:\nown search:\n%s\nexhaustive:\n%s",
						i+1, own.Evolution[i].Plan, ref.Evolution[i].Plan)
				}
			}
			if !slices.EqualFunc(own.Rows, ref.Rows, data.Equal) {
				t.Error("result rows differ")
			}
			if own.Jobs != ref.Jobs || own.PlanChanges != ref.PlanChanges {
				t.Errorf("execution traces differ: jobs %d vs %d, plan changes %d vs %d",
					own.Jobs, ref.Jobs, own.PlanChanges, ref.PlanChanges)
			}
			t.Logf("%d rounds, %d rows; optimizer time %.3fs own search, %.3fs exhaustive",
				len(own.Evolution), len(own.Rows), own.OptimizeSec, ref.OptimizeSec)
		})
	}
}
