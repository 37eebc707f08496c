package main

import (
	"fmt"
	"time"

	"dyno/internal/jaql"
	"dyno/internal/optimizer"
	"dyno/internal/rewrite"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// stagedReplay walks each query through the engine's phases one
// public call at a time — parse, normalize, compile+bind, pilot runs,
// the first optimizer round on the pilot-annotated block, then a whole
// execution on a fresh engine — and fills the sqlparse/rewrite/core/
// optimizer layer metrics with per-pass sums (all five queries) of the
// per-query medians. core.exec_residual_ms is what the execution
// spends beyond pilots and the first round: jobs, re-optimization
// rounds, statistics merges, the final sort. It is reported, never
// folded into a neighbour. Counts come from one execution per query
// and repeat exactly.
func stagedReplay(s *stack, reps int, out layerSet) error {
	stage := func(name string, parent, op int, fn func() error) (float64, error) {
		id := s.tr.begin(name, parent, op)
		start := time.Now()
		err := fn()
		sec := time.Since(start).Seconds()
		s.tr.end(id)
		return sec, err
	}
	for _, query := range queryNames {
		sql := tpch.MustQuerySQL(query)
		var parse, norm, compile, pilot, optimize, execute []float64
		for rep := 0; rep < reps; rep++ {
			s.curOp++
			op := s.curOp
			top := s.tr.begin("staged."+query, -1, op)
			s.curTop = top

			var parsed *sqlparse.Query
			sec, err := stage("sqlparse.parse", top, op, func() (err error) {
				parsed, err = sqlparse.Parse(sql)
				return err
			})
			if err != nil {
				return err
			}
			parse = append(parse, sec)

			sec, err = stage("sqlparse.normalize", top, op, func() error {
				_, err := sqlparse.Normalize(sql)
				return err
			})
			if err != nil {
				return err
			}
			norm = append(norm, sec)

			var compiled *rewrite.Compiled
			sec, err = stage("rewrite.compile", top, op, func() (err error) {
				if compiled, err = rewrite.Compile(parsed); err != nil {
					return err
				}
				return jaql.Bind(compiled.Block, s.cat)
			})
			if err != nil {
				return err
			}
			compile = append(compile, sec)

			se, err := s.newSession()
			if err != nil {
				return err
			}
			pilotJobs := 0
			sec, err = stage("core.pilot", top, op, func() error {
				report, err := se.eng.RunPilots(parsed)
				if err == nil {
					pilotJobs = report.Jobs
				}
				return err
			})
			if err != nil {
				se.cleanup()
				return fmt.Errorf("staged %s pilots: %w", query, err)
			}
			pilot = append(pilot, sec)
			// The pilots published their statistics in the engine's
			// store by leaf signature; attach them to our own block, as
			// pilotRuns did to its.
			for _, rel := range compiled.Block.Rels {
				if rel.IsBase() {
					if ts, ok := se.eng.Store.Get(rel.Leaf.Signature()); ok {
						rel.Stats = ts
					}
				}
			}
			se.cleanup()

			sec, err = stage("optimizer.first_round", top, op, func() error {
				_, err := optimizer.Optimize(compiled.Block, s.optCfg)
				return err
			})
			if err != nil {
				return fmt.Errorf("staged %s optimize: %w", query, err)
			}
			optimize = append(optimize, sec)

			s.tr.end(top)
			run := s.runOp(query)
			if run.Err != nil {
				return fmt.Errorf("staged %s execute: %w", query, run.Err)
			}
			execute = append(execute, run.WallSec)
			if rep == 0 {
				res := run.Res
				out["core.pilot_jobs"] += float64(pilotJobs)
				out["core.rounds"] += float64(res.Iterations)
				out["core.jobs"] += float64(res.Jobs)
				out["core.map_only_jobs"] += float64(res.MapOnlyJobs)
				out["core.plan_changes"] += float64(res.PlanChanges)
				out["optimizer.groups_expanded"] += float64(res.OptGroupsExpanded)
				out["optimizer.groups_pruned"] += float64(res.OptGroupsPruned)
				out["optimizer.groups_reused"] += float64(res.OptGroupsReused)
			}
		}
		out["sqlparse.parse_us"] += median(parse) * 1e6
		out["sqlparse.normalize_us"] += median(norm) * 1e6
		out["rewrite.compile_us"] += median(compile) * 1e6
		out["core.pilot_ms"] += median(pilot) * 1e3
		out["optimizer.first_round_ms"] += median(optimize) * 1e3
		out["core.execute_ms"] += median(execute) * 1e3
		out["core.exec_residual_ms"] += (median(execute) - median(pilot) - median(optimize)) * 1e3
	}
	return nil
}
