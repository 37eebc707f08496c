package experiments

import (
	"fmt"

	"dyno/internal/baselines"
)

// figure6Selectivities is the UDF-selectivity sweep of Figure 6.
var figure6Selectivities = []float64{0.0001, 0.001, 0.01, 0.1, 1.0}

// figure6Point is one sweep measurement.
type figure6Point struct {
	Selectivity   float64
	RelOptSec     float64
	SimpleSec     float64
	SimpleJobs    int
	SimpleMapOnly int
}

// figure6Sweep measures DYNOPT-SIMPLE against RELOPT on the Q9' star
// join as the dimension-UDF selectivity varies (§6.4).
func figure6Sweep(cfg Config) ([]figure6Point, error) {
	cfg = cfg.normalized()
	var out []figure6Point
	for _, sel := range figure6Selectivities {
		c := cfg
		c.UDF.Q9DimSel = sel
		rel, err := runVariant(baselines.VariantRelOpt, 300, c, "Q9p", false, nil)
		if err != nil {
			return nil, fmt.Errorf("relopt sel=%g: %w", sel, err)
		}
		simple, err := runVariant(baselines.VariantSimple, 300, c, "Q9p", false, nil)
		if err != nil {
			return nil, fmt.Errorf("simple sel=%g: %w", sel, err)
		}
		out = append(out, figure6Point{
			Selectivity:   sel,
			RelOptSec:     rel.res.TotalSec,
			SimpleSec:     simple.res.TotalSec,
			SimpleJobs:    simple.res.Jobs,
			SimpleMapOnly: simple.res.MapOnlyJobs,
		})
	}
	return out, nil
}

// Figure6 reproduces Figure 6: Q9' execution time of DYNOPT-SIMPLE
// relative to RELOPT as UDF selectivity grows. The paper's speedup
// shrinks from ~1.78x at 0.01% to ~1x at 100%, with the broadcast-chain
// job count growing alongside.
func Figure6(cfg Config) (*Table, error) {
	points, err := figure6Sweep(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 6: Performance impact of UDF selectivity on Q9' (SF=300, relative to RELOPT)",
		Header: []string{"selectivity", "RELOPT", "DYNOPT-SIMPLE", "speedup", "simple-jobs(map-only)"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f%%", p.Selectivity*100),
			"100%",
			pct(ratio(p.SimpleSec, p.RelOptSec)),
			fmt.Sprintf("%.2fx", ratio(p.RelOptSec, p.SimpleSec)),
			fmt.Sprintf("%d(%d)", p.SimpleJobs, p.SimpleMapOnly),
		})
	}
	t.Notes = append(t.Notes,
		"paper: 1.78x/1.71x at 0.01%/0.1% (2 map-only jobs), ~1.15x at 1%/10% (3 jobs), ~parity at 100%")
	return t, nil
}
