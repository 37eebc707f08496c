package main

import (
	"fmt"
	"math/rand"
)

// runAdhoc is the sim-adhoc / proc-wide / proc-deep entry point.
func runAdhoc(sp spec, cfg runConfig) (*outcome, error) {
	if cfg.Trace {
		return runAdhocTraced(sp, cfg)
	}
	a, setupSec, err := medianSetup(sp, cfg.SetupReps,
		func() (*adhoc, error) { return setupAdhoc(sp, cfg.Seed, cfg.SpillRoot, nil) },
		func(a *adhoc) { a.stack.close() })
	if err != nil {
		return nil, err
	}
	defer a.stack.close()
	if _, err := a.verify(cfg.Seed, cfg.SpillRoot, cfg.Logf); err != nil {
		return nil, err
	}
	// Whole passes until the budget is spent: each is a replay of the
	// same five operations.
	var units []unit
	cal := &speedometer{}
	a.stack.cal = cal
	rng := rand.New(rand.NewSource(cfg.Seed))
	for budget := newBudget(cfg.Seconds); budget.more(); {
		ops, _ := a.pass(passOrder(rng))
		units = append(units, passUnit(ops))
	}
	a.stack.cal = nil
	notes := a.notes(cfg.Logf)
	notes["host"] = hostNote(sp, cal, cfg.Logf)
	return &outcome{res: endToEndOf(units, setupSec, a.virtualSec(), sp.hostFactor(cal.slowdown())), notes: notes}, nil
}

// hostNote records, and prints, the host's speed during the timed
// section, so a reader can turn the reported times back into the ones
// the clock showed.
func hostNote(sp spec, cal *speedometer, logf func(string, ...any)) string {
	note := fmt.Sprintf("slowdown=%.3f (calibration kernel median %.3f ms over %d samples, reference %.3f ms); reported times = measured / %.3f",
		cal.slowdown(), median(cal.samples)*1e3, len(cal.samples), calRefSec*1e3, sp.hostFactor(cal.slowdown()))
	logf("host %s %s", sp.Name, note)
	return note
}

// notes records, and prints, what each query's reference execution
// looked like; a query without rows is called out, because its row
// check proves nothing.
func (a *adhoc) notes(logf func(string, ...any)) map[string]string {
	notes := map[string]string{}
	for _, q := range queryNames {
		ref := a.refs[q]
		line := fmt.Sprintf("rows=%d jobs=%d pilots=%d rounds=%d virtual=%.3fs",
			len(ref.Rows), ref.Jobs, ref.PilotJobs, ref.Rounds, ref.VirtualSec)
		if len(ref.Rows) == 0 {
			line += " (warning: zero rows — checked by timeline and job counts only)"
		}
		notes["reference."+q] = line
		logf("reference %s %s %s", a.spec.Name, q, line)
	}
	return notes
}

// passUnit is a pass as a replay of the timed section. Only the query
// calls are timed; the harness's clean-up between them is not.
func passUnit(ops []opSample) unit {
	var u unit
	for _, op := range ops {
		u.CPUSec += op.CPUSec
		u.AllocB += op.AllocB
		u.Ops = append(u.Ops, opResult{Slot: slotOf[op.Query], Type: op.Query, LatencySec: op.WallSec, Failed: op.Err != nil})
	}
	return u
}

// slotOf numbers the query templates: a pass runs each once, in a
// shuffled order, and a template's repetitions share its slot.
var slotOf = func() map[string]int {
	m := map[string]int{}
	for i, q := range queryNames {
		m[q] = i
	}
	return m
}()

// passWall is a pass's timed wall: its query calls, summed.
func passWall(ops []opSample) float64 {
	total := 0.0
	for _, op := range ops {
		total += op.WallSec
	}
	return total
}
