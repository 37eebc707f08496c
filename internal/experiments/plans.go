package experiments

import (
	"fmt"
	"strings"

	"dyno/internal/baselines"
	"dyno/internal/core"
)

// PlanEvolution captures a Figure 2/3-style display: the static
// RELOPT plan next to DYNO's plan after the pilot runs and after each
// re-optimization point.
type PlanEvolution struct {
	Query       string
	RelOptPlan  string
	DynoPlans   []string // plan1..planN, per iteration
	JobsPerIter [][]string
	PlanChanges int
}

// String renders the evolution.
func (p *PlanEvolution) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: plan by traditional optimizer (RELOPT) ===\n%s\n", p.Query, p.RelOptPlan)
	for i, pl := range p.DynoPlans {
		fmt.Fprintf(&sb, "=== DYNO plan%d (jobs run: %s) ===\n%s\n",
			i+1, strings.Join(p.JobsPerIter[i], ", "), pl)
	}
	fmt.Fprintf(&sb, "plan changes during execution: %d\n", p.PlanChanges)
	return sb.String()
}

// measurePlanEvolution runs a query under RELOPT and DYNOPT and
// collects the plans, reproducing the figures' side-by-side view.
func measurePlanEvolution(cfg Config, query string, sf float64) (*PlanEvolution, error) {
	cfg = cfg.normalized()
	rel, _, err := run(baselines.VariantRelOpt, sf, cfg, query, nil)
	if err != nil {
		return nil, err
	}
	dyn, _, err := run(baselines.VariantDynOpt, sf, cfg, query, func(s *setup) { s.opts.Strategy = core.Uncertain{N: 1} })
	if err != nil {
		return nil, err
	}
	out := &PlanEvolution{
		Query:       query,
		PlanChanges: dyn.PlanChanges,
	}
	if len(rel.Evolution) > 0 {
		out.RelOptPlan = rel.Evolution[0].Plan
	}
	for _, it := range dyn.Evolution {
		out.DynoPlans = append(out.DynoPlans, it.Plan)
		out.JobsPerIter = append(out.JobsPerIter, it.JobsRun)
	}
	return out, nil
}

// Figure2Plans reproduces Figure 2: the evolution of Q8”s execution
// plan across DYNO's re-optimization points, next to the static
// relational optimizer's plan.
func Figure2Plans(cfg Config) (*PlanEvolution, error) { return measurePlanEvolution(cfg, "Q8p", 100) }

// Figure3Plans reproduces Figure 3: the Q9' plans — the static
// optimizer's all-repartition plan versus DYNO's broadcast plan after
// pilot runs.
func Figure3Plans(cfg Config) (*PlanEvolution, error) { return measurePlanEvolution(cfg, "Q9p", 300) }
