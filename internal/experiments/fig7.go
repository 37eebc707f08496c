package experiments

import (
	"fmt"

	"dyno/internal/baselines"
)

// figure7Queries are the four queries of Figures 7 and 8.
var figure7Queries = []string{"Q2", "Q8p", "Q9p", "Q10"}

// figure7SFs are the three scale factors of Figure 7.
var figure7SFs = []float64{100, 300, 1000}

// figure7Variants are the four execution-plan variants, in display
// order; the first is the normalization baseline.
var figure7Variants = []baselines.Variant{
	baselines.VariantBestStatic,
	baselines.VariantRelOpt,
	baselines.VariantSimple,
	baselines.VariantDynOpt,
}

// variantTimes measures all four variants for one query at one scale
// factor, on the Jaql or Hive runtime profile.
func variantTimes(cfg Config, sf float64, query string, hiveProfile bool) (map[baselines.Variant]float64, error) {
	cfg = cfg.normalized()
	out := map[baselines.Variant]float64{}
	for _, v := range figure7Variants {
		res, _, err := run(v, sf, cfg, query, func(s *setup) { s.hive = hiveProfile })
		if err != nil {
			return nil, err
		}
		out[v] = res.TotalSec
	}
	return out, nil
}

// relative is a row's cells: each variant's time relative to the
// first's, in display order.
func relative(times map[baselines.Variant]float64) []string {
	row := []string{"100%"}
	for _, v := range figure7Variants[1:] {
		row = append(row, pct(ratio(times[v], times[figure7Variants[0]])))
	}
	return row
}

// Figure7 reproduces Figure 7: end-to-end execution times of the four
// variants across queries and scale factors, normalized to
// BESTSTATICJAQL.
func Figure7(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 7: Execution time relative to BESTSTATICJAQL, per query and scale factor",
		Header: []string{"SF", "Query", "BESTSTATICJAQL", "RELOPT", "DYNOPT-SIMPLE", "DYNOPT"},
	}
	for _, sf := range figure7SFs {
		for _, q := range figure7Queries {
			times, err := variantTimes(cfg, sf, q, false)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%g", sf), q}, relative(times)...))
		}
	}
	t.Notes = append(t.Notes,
		"paper: DYNOPT ≤ best static everywhere; up to 2x on Q8'@SF100; Q2 ≈1.2x via bushy plans; Q9' 1.33-1.88x; Q10 ≈ parity")
	return t, nil
}

// Figure8 reproduces Figure 8: the same comparison at SF=300 on the
// Hive runtime profile (distributed-cache broadcast joins), normalized
// to BESTSTATICHIVE.
func Figure8(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 8: Benefits of DYNOPT plans in Hive (SF=300, relative to BESTSTATICHIVE)",
		Header: []string{"Query", "BESTSTATICHIVE", "RELOPT", "DYNOPT-SIMPLE", "DYNOPT"},
	}
	for _, q := range figure7Queries {
		times, err := variantTimes(cfg, 300, q, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]string{q}, relative(times)...))
	}
	t.Notes = append(t.Notes,
		"paper: same trends as Jaql, with Q9' speedup growing (3.98x vs 1.88x) thanks to distributed-cache broadcasts")
	return t, nil
}
