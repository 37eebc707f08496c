package experiments

import (
	"fmt"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/optimizer"
	"dyno/internal/tpch"
)

// ablationChaining measures the broadcast-chain rule (§5.2) by running
// DYNOPT-SIMPLE on the star join with chaining enabled and disabled.
func ablationChaining(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:  "Ablation: broadcast-join chaining on Q9' (SF=300, DYNOPT-SIMPLE)",
		Header: []string{"chaining", "time", "jobs", "map-only"},
	}
	for _, enabled := range []bool{true, false} {
		enabled := enabled
		m, err := runVariantFull(baselines.VariantSimple, 300, cfg, "Q9p", false, nil, func(o *optimizer.Config) {
			o.DisableChaining = !enabled
		})
		if err != nil {
			return nil, err
		}
		label := "on"
		if !enabled {
			label = "off"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.1fs", m.res.TotalSec),
			fmt.Sprintf("%d", m.res.Jobs),
			fmt.Sprintf("%d", m.res.MapOnlyJobs),
		})
	}
	t.Notes = append(t.Notes, "chaining merges consecutive broadcast joins into one map-only job (§5.2)")
	return t, nil
}

// ablationPilotK sweeps the pilot sample target k (§4, the paper uses
// 1024) and reports pilot time and end-to-end time on Q8'.
func ablationPilotK(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:  "Ablation: pilot-run sample size k on Q8' (SF=300, DYNOPT)",
		Header: []string{"k", "pilot-time", "total-time"},
	}
	for _, k := range []int64{32, 128, 512, 2048} {
		m, err := runVariant(baselines.VariantDynOpt, 300, cfg, "Q8p", false, func(o *core.Options) {
			o.K = k
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.1fs", m.res.PilotSec),
			fmt.Sprintf("%.1fs", m.res.TotalSec),
		})
	}
	t.Notes = append(t.Notes,
		"larger samples cost more pilot time; plan choice can flip near the broadcast memory bound "+
			"(a small sample that underestimates the filtered orders just below Mmax picks an aggressive "+
			"plan that a fully-measured run rejects)")
	return t, nil
}

// ablationStatsReuse measures §4.1's statistics reuse: the same query
// executed twice with the metastore shared.
func ablationStatsReuse(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:  "Ablation: statistics reuse across recurring queries (Q10, SF=300, DYNOPT)",
		Header: []string{"run", "pilot-jobs", "pilot-time", "total-time"},
	}
	l, err := getLab(300, cfg)
	if err != nil {
		return nil, err
	}
	env := l.newEnv(false, cfg)
	opts := experimentOptions()
	opts.ReuseStats = true
	eng, err := baselines.NewEngine(baselines.VariantDynOpt, env, l.cat, optCfgFor(env), opts)
	if err != nil {
		return nil, err
	}
	sql := tpch.MustQuerySQL("Q10")
	for run := 1; run <= 2; run++ {
		res, err := eng.ExecuteSQL(sql)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", run),
			fmt.Sprintf("%d", res.Pilot.Jobs),
			fmt.Sprintf("%.1fs", res.PilotSec),
			fmt.Sprintf("%.1fs", res.TotalSec),
		})
	}
	t.Notes = append(t.Notes, "the second run reuses leaf-expression statistics by signature and skips all pilot jobs")
	return t, nil
}

// ablationReoptThreshold measures §3's conditional re-optimization: a
// high deviation threshold skips optimizer calls when estimates hold.
func ablationReoptThreshold(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:  "Ablation: conditional re-optimization threshold (Q8', SF=300, DYNOPT)",
		Header: []string{"threshold", "optimize-time", "plan-changes", "total-time"},
	}
	for _, th := range []float64{0, 0.5, 5.0} {
		m, err := runVariant(baselines.VariantDynOpt, 300, cfg, "Q8p", false, func(o *core.Options) {
			o.ReoptThreshold = th
		})
		if err != nil {
			return nil, err
		}
		label := "always"
		if th > 0 {
			label = fmt.Sprintf("%.0f%%", th*100)
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.2fs", m.res.OptimizeSec),
			fmt.Sprintf("%d", m.res.PlanChanges),
			fmt.Sprintf("%.1fs", m.res.TotalSec),
		})
	}
	t.Notes = append(t.Notes, "0 re-optimizes after every job (the paper's default); thresholds skip calls when observed cardinalities match estimates")
	return t, nil
}

// Ablations runs every ablation and concatenates the tables.
func Ablations(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, f := range []func(Config) (*Table, error){
		ablationChaining, ablationPilotK, ablationStatsReuse, ablationReoptThreshold, ablationDynamicJoin,
		ablationProjectionPushdown, ablationScheduler,
	} {
		t, err := f(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ablationDynamicJoin measures the dynamic join operator (the paper's
// §8 future work, implemented here): DYNOPT-SIMPLE executes a static
// plan, but a repartition job whose materialized input turns out to fit
// in memory switches to a broadcast join at submit time. Q8' at SF=1000
// is the case where the static plan goes badly wrong.
func ablationDynamicJoin(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:  "Ablation: dynamic join operator on Q8' (SF=1000, DYNOPT-SIMPLE)",
		Header: []string{"dynamic-join", "time", "switched-jobs", "map-only"},
	}
	for _, enabled := range []bool{false, true} {
		enabled := enabled
		m, err := runVariant(baselines.VariantSimple, 1000, cfg, "Q8p", false, func(o *core.Options) {
			o.DynamicJoin = enabled
		})
		if err != nil {
			return nil, err
		}
		label := "off"
		if enabled {
			label = "on"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.1fs", m.res.TotalSec),
			fmt.Sprintf("%d", m.res.SwitchedJobs),
			fmt.Sprintf("%d", m.res.MapOnlyJobs),
		})
	}
	t.Notes = append(t.Notes,
		"the switch recovers part of DYNOPT's advantage without any re-optimization point")
	return t, nil
}

// ablationProjectionPushdown measures the compiler's projection
// pushdown: rows pruned to the query's referenced fields shrink
// shuffle and materialization volumes (off by default to keep the main
// evaluation comparable to the paper's configuration).
func ablationProjectionPushdown(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:  "Ablation: projection pushdown (Q10, SF=300, DYNOPT)",
		Header: []string{"pushdown", "time", "pilot"},
	}
	for _, push := range []bool{false, true} {
		push := push
		m, err := runVariant(baselines.VariantDynOpt, 300, cfg, "Q10", false, func(o *core.Options) {
			o.ProjectionPushdown = push
		})
		if err != nil {
			return nil, err
		}
		label := "off"
		if push {
			label = "on"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.1fs", m.res.TotalSec),
			fmt.Sprintf("%.1fs", m.res.PilotSec),
		})
	}
	t.Notes = append(t.Notes,
		"pruned rows shrink every shuffle and materialized intermediate; whole-record UDF arguments disable pruning for their aliases")
	return t, nil
}

// ablationScheduler compares the FIFO scheduler (the paper's setup)
// against fair scheduling for the parallel leaf-job strategies the
// paper leaves as future work.
func ablationScheduler(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:  "Ablation: job scheduler under parallel leaf jobs (Q8', SF=300, DYNOPT UNC-2)",
		Header: []string{"scheduler", "time"},
	}
	for _, kind := range []cluster.SchedulerKind{cluster.FIFO, cluster.Fair} {
		l, err := getLab(300, cfg)
		if err != nil {
			return nil, err
		}
		env := l.newEnv(false, cfg)
		ccfg := cfg.clusterConfig()
		ccfg.Scheduler = kind
		env.Sim = cluster.New(ccfg)
		opts := experimentOptions()
		opts.Strategy = core.Uncertain{N: 2}
		eng, err := baselines.NewEngine(baselines.VariantDynOpt, env, l.cat, optCfgFor(env), opts)
		if err != nil {
			return nil, err
		}
		res, err := eng.ExecuteSQL(tpch.MustQuerySQL("Q8p"))
		if err != nil {
			return nil, err
		}
		label := "FIFO"
		if kind == cluster.Fair {
			label = "Fair"
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%.1fs", res.TotalSec)})
	}
	t.Notes = append(t.Notes,
		"the paper used Hadoop's FIFO scheduler and named fair/capacity scheduling as future experiments (§6.3)")
	return t, nil
}
