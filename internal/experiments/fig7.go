package experiments

import (
	"fmt"

	"dyno/internal/baselines"
)

// Figure7Queries are the four queries of Figures 7 and 8.
var Figure7Queries = []string{"Q2", "Q8p", "Q9p", "Q10"}

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

// VariantTimes measures all four variants for one query at one scale
// factor, on the Jaql or Hive runtime profile.
func VariantTimes(cfg Config, sf float64, query string, hiveProfile bool) (map[baselines.Variant]float64, error) {
	cfg = cfg.normalized()
	out := map[baselines.Variant]float64{}
	for _, v := range figure7Variants {
		m, err := runVariant(v, sf, cfg, query, hiveProfile, nil)
		if err != nil {
			return nil, err
		}
		out[v] = m.res.TotalSec
	}
	return out, nil
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
		for _, q := range Figure7Queries {
			times, err := VariantTimes(cfg, sf, q, false)
			if err != nil {
				return nil, err
			}
			base := times[baselines.VariantBestStatic]
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%g", sf), q,
				"100%",
				pct(ratio(times[baselines.VariantRelOpt], base)),
				pct(ratio(times[baselines.VariantSimple], base)),
				pct(ratio(times[baselines.VariantDynOpt], base)),
			})
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
	for _, q := range Figure7Queries {
		times, err := VariantTimes(cfg, 300, q, true)
		if err != nil {
			return nil, err
		}
		base := times[baselines.VariantBestStatic]
		t.Rows = append(t.Rows, []string{
			q,
			"100%",
			pct(ratio(times[baselines.VariantRelOpt], base)),
			pct(ratio(times[baselines.VariantSimple], base)),
			pct(ratio(times[baselines.VariantDynOpt], base)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: same trends as Jaql, with Q9' speedup growing (3.98x vs 1.88x) thanks to distributed-cache broadcasts")
	return t, nil
}
