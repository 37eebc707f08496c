package experiments

import (
	"dyno/internal/baselines"
	"dyno/internal/core"
)

// figure5Queries are the three queries of Figure 5.
var figure5Queries = []string{"Q7", "Q8p", "Q10"}

// strategyVariant pairs an execution strategy with the engine variant
// it belongs to (the SIMPLE strategies disable re-optimization).
type strategyVariant struct {
	label    string
	variant  baselines.Variant
	strategy core.Strategy
}

var figure5Variants = []strategyVariant{
	{"SIMPLE_SO", baselines.VariantSimple, core.One{}},
	{"SIMPLE_MO", baselines.VariantSimple, core.All{}},
	{"UNC-1", baselines.VariantDynOpt, core.Uncertain{N: 1}},
	{"UNC-2", baselines.VariantDynOpt, core.Uncertain{N: 2}},
	{"CHEAP-1", baselines.VariantDynOpt, core.Cheap{N: 1}},
	{"CHEAP-2", baselines.VariantDynOpt, core.Cheap{N: 2}},
}

// figure5Times returns the absolute execution times per strategy for
// one query at SF=300.
func figure5Times(cfg Config, query string) (map[string]float64, error) {
	cfg = cfg.normalized()
	out := map[string]float64{}
	for _, sv := range figure5Variants {
		res, _, err := run(sv.variant, 300, cfg, query, func(s *setup) { s.opts.Strategy = sv.strategy })
		if err != nil {
			return nil, err
		}
		out[sv.label] = res.TotalSec
	}
	return out, nil
}

// Figure5 reproduces Figure 5: execution strategies for DYNOPT and
// DYNOPT-SIMPLE at SF=300, normalized to SIMPLE_SO.
func Figure5(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 5: Comparison of execution strategies (SF=300, relative to DYNOPT-SIMPLE_SO)",
		Header: []string{"Query"},
	}
	for _, sv := range figure5Variants {
		t.Header = append(t.Header, sv.label)
	}
	for _, q := range figure5Queries {
		times, err := figure5Times(cfg, q)
		if err != nil {
			return nil, err
		}
		base := times["SIMPLE_SO"]
		row := []string{q}
		for _, sv := range figure5Variants {
			row = append(row, pct(ratio(times[sv.label], base)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: SIMPLE_MO ≤ SIMPLE_SO always; UNC-1 wins on Q7/Q8'; all strategies coincide on Q10 (left-deep plan)")
	return t, nil
}
