package experiments

import (
	"fmt"

	"dyno/internal/baselines"
	"dyno/internal/core"
)

// faultProfile bundles one deterministic fault-injection intensity for
// the faults experiment.
type faultProfile struct {
	Name            string
	FailEveryN      int
	FailurePenalty  float64
	StragglerEveryN int
	SlowdownFactor  float64
	SpeculativeBeta float64
}

// faultProfiles are the sweep points: a clean baseline plus two fault
// rates. Speculation is enabled whenever stragglers are injected, as
// on a production Hadoop cluster.
var faultProfiles = []faultProfile{
	{Name: "none"},
	{Name: "light", FailEveryN: 60, FailurePenalty: 8,
		StragglerEveryN: 25, SlowdownFactor: 3, SpeculativeBeta: 1.5},
	{Name: "heavy", FailEveryN: 20, FailurePenalty: 8,
		StragglerEveryN: 10, SlowdownFactor: 4, SpeculativeBeta: 1.5},
}

// faultsQueries are the multi-join queries measured under faults.
var faultsQueries = []string{"Q8p", "Q9p", "Q10"}

// faultsSF is the scale factor of the faults experiment.
var faultsSF = 300.0

// The faults experiment runs on a deliberately small cluster: with
// fewer slots than ready tasks, the MO strategy's concurrent jobs
// saturate the cluster, so freed slots always go to pending work and
// speculative backups starve — the contention §5.3 argues SO avoids.
const (
	faultsWorkers           = 4
	faultsMapSlotsPerWorker = 3
	faultsRedSlotsPerWorker = 2
)

// faultPoint is one (query, profile, strategy) measurement.
type faultPoint struct {
	Query    string
	Profile  string
	Strategy string  // "MO" or "SO"
	TotalSec float64 // end-to-end virtual runtime
	Wasted   float64 // slot seconds lost to failed and superseded attempts
}

// faultStrategies maps the display names to job-issue strategies: MO
// floods the cluster with every ready job, SO runs one at a time.
var faultStrategies = []struct {
	name string
	s    core.Strategy
}{{"MO", core.All{}}, {"SO", core.One{}}}

// Faults sweeps DYNOPT over the fault profiles, comparing the
// multiple-jobs (MO) and single-job (SO) issue strategies, and renders
// the sweep (faultsTable). The sweep quantifies the paper's
// fault-tolerance argument (§5.3): because SO materializes one job at a
// time, a failure or straggler can only hit the job in flight, and the
// cluster's idle slots absorb retries and speculative backups — so SO
// loses less work than MO as the fault rate grows.
func Faults(cfg Config) (*Table, error) {
	points, err := measureFaultsQueries(cfg, faultsQueries)
	if err != nil {
		return nil, err
	}
	return faultsTable(faultsQueries, points), nil
}

// measureFaultsQueries runs the sweep over an explicit query list
// (tests restrict it to the differentiating query to stay fast).
func measureFaultsQueries(cfg Config, queries []string) ([]faultPoint, error) {
	cfg = cfg.normalized()
	var out []faultPoint
	for _, q := range queries {
		for _, p := range faultProfiles {
			for _, st := range faultStrategies {
				res, env, err := run(baselines.VariantDynOpt, faultsSF, cfg, q, func(s *setup) {
					c := &s.cluster
					c.Workers, c.MapSlotsPerWorker, c.ReduceSlotsPerWorker = faultsWorkers, faultsMapSlotsPerWorker, faultsRedSlotsPerWorker
					c.FailEveryN, c.FailurePenalty, c.StragglerEveryN = p.FailEveryN, p.FailurePenalty, p.StragglerEveryN
					c.SlowdownFactor, c.SpeculativeBeta = p.SlowdownFactor, p.SpeculativeBeta
					s.opts.Strategy = st.s
				})
				if err != nil {
					return nil, fmt.Errorf("faults %s/%s/%s: %w", q, p.Name, st.name, err)
				}
				out = append(out, faultPoint{
					Query:    q,
					Profile:  p.Name,
					Strategy: st.name,
					TotalSec: res.TotalSec,
					Wasted:   env.Sim.WastedSec(),
				})
			}
		}
	}
	return out, nil
}

// faultsTable renders the fault-tolerance sweep: runtime and wasted
// slot time per query, fault profile, and strategy, plus each
// strategy's slowdown relative to its own fault-free run.
func faultsTable(queries []string, points []faultPoint) *Table {
	find := func(q, profile, strategy string) faultPoint {
		for _, p := range points {
			if p.Query == q && p.Profile == profile && p.Strategy == strategy {
				return p
			}
		}
		return faultPoint{}
	}
	t := &Table{
		Title: "Faults: DYNOPT under task failures and stragglers, MO vs SO issue strategy (SF=300)",
		Header: []string{"Query", "Profile", "MO sec", "SO sec",
			"MO slowdown", "SO slowdown", "MO wasted", "SO wasted"},
	}
	for _, q := range queries {
		moClean := find(q, "none", "MO")
		soClean := find(q, "none", "SO")
		for _, p := range faultProfiles {
			mo := find(q, p.Name, "MO")
			so := find(q, p.Name, "SO")
			t.Rows = append(t.Rows, []string{
				q, p.Name,
				fmt.Sprintf("%.1f", mo.TotalSec),
				fmt.Sprintf("%.1f", so.TotalSec),
				fmt.Sprintf("%.2fx", ratio(mo.TotalSec, moClean.TotalSec)),
				fmt.Sprintf("%.2fx", ratio(so.TotalSec, soClean.TotalSec)),
				fmt.Sprintf("%.1f", mo.Wasted),
				fmt.Sprintf("%.1f", so.Wasted),
			})
		}
	}
	t.Notes = append(t.Notes,
		"MO overlaps jobs and finishes sooner, but its concurrent jobs saturate the small cluster, so failed and superseded attempts waste more slot time; SO's one-job-at-a-time issue loses less work as the fault rate grows (§5.3)")
	return t
}
