package main

import "fmt"

// runServe is the serve-mix entry point.
func runServe(sp spec, cfg runConfig) (*outcome, error) {
	if cfg.Trace {
		return runServeTraced(sp, cfg)
	}
	b, setupSec, err := medianSetup(sp, cfg.SetupReps,
		func() (*serveBench, error) { return setupServe(sp, cfg.Seed, nil) },
		func(b *serveBench) { b.close() })
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := checkServeOracle(sp, cfg.Seed, cfg.Logf); err != nil {
		return nil, err
	}
	// One seeded cycle, replayed until the budget is spent. Every replay
	// starts from an invalidated server and one client sends the requests
	// in order, so request i meets the same cache state every time and
	// its repetitions can be compared.
	seq := b.sequence()
	var units []unit
	b.cal = &speedometer{}
	for budget := newBudget(cfg.Seconds); budget.more(); {
		c, err := b.runCycle(seq, sp.Clients)
		if err != nil {
			return nil, err
		}
		units = append(units, cycleUnit(c))
	}
	res := endToEndOf(units, setupSec, b.virtualSec, sp.hostFactor(b.cal.slowdown()))
	shares := classShares(units)
	note := fmt.Sprintf("hit=%.3f exec=%.3f over %d requests in %d replays of one cycle",
		shares["hit"], shares["exec"], res.Attempted, len(units))
	cfg.Logf("%s shares: %s", sp.Name, note)
	return &outcome{res: res, notes: map[string]string{"shares": note, "host": hostNote(sp, b.cal, cfg.Logf)}}, nil
}

// opClass names a request's operation type on serve-mix.
func opClass(s reqSample) string {
	if s.Hit {
		return "hit"
	}
	return "exec"
}

// classShares is the measured share of each operation type: where
// the median and the 90th percentile sit depends on it.
func classShares(units []unit) map[string]float64 {
	count, total := map[string]float64{}, 0.0
	for _, u := range units {
		for _, op := range u.Ops {
			count[op.Type]++
			total++
		}
	}
	for k := range count {
		count[k] /= total
	}
	return count
}

// cycleUnit is a cycle as a replay of the timed section: every
// request's round trip (the server's own scratch clean-up happens
// inside it — that is product work) plus the invalidate.
func cycleUnit(c cycle) unit {
	u := unit{CPUSec: c.CPUSec, AllocB: c.AllocB, OverheadSec: c.InvalidateSec}
	for i, s := range c.Samples {
		u.Ops = append(u.Ops, opResult{Slot: i, Type: opClass(s), LatencySec: s.RTTSec, Failed: s.Err != nil})
	}
	return u
}
