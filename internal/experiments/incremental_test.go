package experiments

import (
	"slices"
	"testing"

	"dyno/internal/baselines"
	"dyno/internal/data"
	"dyno/internal/optimizer"
)

// TestIncrementalTPCHByteIdentical runs the evaluation queries the
// acceptance criteria name through the DYNOPT engine with incremental
// reuse and pruning on (the default) and off, and asserts the plans
// are byte-identical: same plan every iteration, same final plan, same
// rows. Only the virtual optimizer-time charge may differ — that is
// the point of the feature.
func TestIncrementalTPCHByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H differential is slow")
	}
	cfg := testConfig()
	for _, query := range []string{"Q8p", "Q9p", "Q10"} {
		query := query
		t.Run(query, func(t *testing.T) {
			on, err := runVariantFull(baselines.VariantDynOpt, 100, cfg, query, false, nil, nil)
			if err != nil {
				t.Fatalf("incremental on: %v", err)
			}
			off, err := runVariantFull(baselines.VariantDynOpt, 100, cfg, query, false, nil,
				func(o *optimizer.Config) {
					o.DisableIncremental = true
					o.DisablePruning = true
				})
			if err != nil {
				t.Fatalf("incremental off: %v", err)
			}
			if on.res.FinalPlan != off.res.FinalPlan {
				t.Errorf("final plans differ:\non:\n%s\noff:\n%s", on.res.FinalPlan, off.res.FinalPlan)
			}
			if len(on.res.Evolution) != len(off.res.Evolution) {
				t.Fatalf("iteration counts differ: %d vs %d", len(on.res.Evolution), len(off.res.Evolution))
			}
			for i := range on.res.Evolution {
				if on.res.Evolution[i].Plan != off.res.Evolution[i].Plan {
					t.Errorf("iteration %d plans differ:\non:\n%s\noff:\n%s",
						i+1, on.res.Evolution[i].Plan, off.res.Evolution[i].Plan)
				}
			}
			if !slices.EqualFunc(on.res.Rows, off.res.Rows, data.Equal) {
				t.Error("result rows differ")
			}
			if on.res.Jobs != off.res.Jobs || on.res.PlanChanges != off.res.PlanChanges {
				t.Errorf("execution traces differ: jobs %d vs %d, plan changes %d vs %d",
					on.res.Jobs, off.res.Jobs, on.res.PlanChanges, off.res.PlanChanges)
			}
		})
	}
}
