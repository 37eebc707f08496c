package experiments

import (
	"fmt"

	"dyno/internal/baselines"
	"dyno/internal/tpch"
)

// figure4Queries are the four queries of Figure 4.
var figure4Queries = []string{"Q2", "Q7", "Q8p", "Q10"}

// overheads decomposes one dynamic execution (§6.2).
type overheads struct {
	WarmExecSec   float64 // plan execution with pre-collected statistics
	ReoptSec      float64 // total (re-)optimization time
	PilotSec      float64 // PILR time
	OnlineStatSec float64 // statistics-collection overhead
	ColdTotalSec  float64
}

// totalOverheadFraction is the dynamic machinery's share of the cold
// execution (the paper reports 7-10% overall).
func (o overheads) totalOverheadFraction() float64 {
	return ratio(o.ReoptSec+o.PilotSec+o.OnlineStatSec, o.ColdTotalSec)
}

// measureOverheads runs the paper's two-execution methodology for one
// query at SF=300: a cold run computing all statistics at runtime
// (pilot runs + online collection), then a warm run of the same engine
// with the metastore pre-populated and statistics reuse enabled, whose
// only overhead is optimization time.
func measureOverheads(cfg Config, query string) (*overheads, error) {
	cfg = cfg.normalized()
	// ReuseStats: populate, then reuse across the two runs.
	eng, _, err := newEngine(baselines.VariantDynOpt, 300, cfg, func(s *setup) { s.opts.ReuseStats = true })
	if err != nil {
		return nil, err
	}
	sql := tpch.MustQuerySQL(query)

	cold, err := eng.ExecuteSQL(sql)
	if err != nil {
		return nil, fmt.Errorf("cold %s: %w", query, err)
	}
	// Warm: statistics already in the metastore; disable online
	// collection so only (re-)optimization time remains.
	eng.Options.CollectOnlineStats = false
	warm, err := eng.ExecuteSQL(sql)
	if err != nil {
		return nil, fmt.Errorf("warm %s: %w", query, err)
	}

	warmExec := warm.TotalSec - warm.OptimizeSec
	online := cold.TotalSec - cold.PilotSec - cold.OptimizeSec - warmExec
	if online < 0 {
		online = 0
	}
	return &overheads{
		WarmExecSec:   warmExec,
		ReoptSec:      cold.OptimizeSec,
		PilotSec:      cold.PilotSec,
		OnlineStatSec: online,
		ColdTotalSec:  cold.TotalSec,
	}, nil
}

// Figure4 reproduces Figure 4: the overhead of pilot runs,
// re-optimization, and online statistics collection, normalized to the
// execution with pre-collected statistics.
func Figure4(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 4: Overhead of pilot runs, re-optimization and statistics collection (SF=300)",
		Header: []string{"Query", "plan-exec", "re-opt", "PILR", "online-stats", "total-overhead"},
	}
	for _, q := range figure4Queries {
		o, err := measureOverheads(cfg, q)
		if err != nil {
			return nil, err
		}
		base := o.WarmExecSec
		t.Rows = append(t.Rows, []string{
			q,
			pct(1.0),
			pct(ratio(o.ReoptSec, base)),
			pct(ratio(o.PilotSec, base)),
			pct(ratio(o.OnlineStatSec, base)),
			pct(o.totalOverheadFraction()),
		})
	}
	t.Notes = append(t.Notes,
		"paper: re-opt <0.25% (≈7% for Q8'), PILR 2.5-6.7%, online stats 0.1-2.8%, total 7-10%")
	return t, nil
}
