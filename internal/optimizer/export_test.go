package optimizer

import "dyno/internal/plan"

// ExhaustivePlanner plans a block with the exhaustive reference search,
// in the shape of core.Options.Planner, so external tests can run a
// whole query with it in place of the engine's incremental session.
func ExhaustivePlanner(block *plan.JoinBlock, cfg Config) (plan.Node, int, error) {
	res, err := exhaustive(block, cfg)
	if err != nil {
		return nil, 0, err
	}
	return res.Root, res.ExprsConsidered, nil
}
