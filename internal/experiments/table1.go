package experiments

import (
	"fmt"

	"dyno/internal/baselines"
	"dyno/internal/core"
	"dyno/internal/optimizer"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// table1Queries are the four queries of the paper's Table 1.
var table1Queries = []string{"Q2", "Q8p", "Q9p", "Q10"}

// table1SFs are the PILR_MT scale factors of Table 1.
var table1SFs = []float64{100, 300, 1000}

// pilotTime measures only the PILR phase for one query.
func pilotTime(mode core.PilotMode, sf float64, cfg Config, query string) (float64, error) {
	l, err := getLab(sf, cfg)
	if err != nil {
		return 0, err
	}
	env := l.newEnv(false, cfg)
	opts := experimentOptions()
	opts.PilotMode = mode
	optCfg := optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory))
	eng, err := baselines.NewEngine(baselines.VariantDynOpt, env, l.cat, optCfg, opts)
	if err != nil {
		return 0, err
	}
	q, err := sqlparse.Parse(tpch.MustQuerySQL(query))
	if err != nil {
		return 0, err
	}
	report, err := eng.RunPilots(q)
	if err != nil {
		return 0, err
	}
	return report.Duration, nil
}

// Table1 reproduces Table 1: PILR execution time relative to PILR_ST at
// SF=100, for PILR_MT at SF ∈ {100, 300, 1000}. The paper reports
// ~16-28% for MT with no dependence on the scale factor.
func Table1(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:  "Table 1: Relative execution time of PILR for varying queries and scale factors",
		Header: []string{"Query", "SF100-ST", "SF100-MT", "SF300-MT", "SF1000-MT"},
	}
	for _, q := range table1Queries {
		base, mt, err := table1Raw(cfg, q)
		if err != nil {
			return nil, err
		}
		row := []string{q, "100%"}
		for _, sf := range table1SFs {
			row = append(row, pct(ratio(mt[sf], base)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: MT ≈ 16-28% of ST at SF100 and roughly constant across SF (sample-size bound, not data-size bound)")
	return t, nil
}

// table1Raw returns one query's absolute pilot durations: PILR_ST at
// SF100 and PILR_MT at each of table1SFs.
func table1Raw(cfg Config, query string) (st100 float64, mt map[float64]float64, err error) {
	cfg = cfg.normalized()
	st100, err = pilotTime(core.PilotST, 100, cfg, query)
	if err != nil {
		return 0, nil, err
	}
	mt = map[float64]float64{}
	for _, sf := range table1SFs {
		v, err := pilotTime(core.PilotMT, sf, cfg, query)
		if err != nil {
			return 0, nil, fmt.Errorf("MT SF%g: %w", sf, err)
		}
		mt[sf] = v
	}
	return st100, mt, nil
}
