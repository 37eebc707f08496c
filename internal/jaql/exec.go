package jaql

import (
	"fmt"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/plan"
	"dyno/internal/stats"
)

// ExecOpts configures the execution of one unit.
type ExecOpts struct {
	// StatsPaths lists the attributes to collect output statistics for
	// (the join columns still needed by the unexecuted remainder,
	// §5.4). Nil disables collection.
	StatsPaths []data.Path
	KMVSize    int
	// PruneLive, when non-nil, is the projection-pushdown live-column
	// map: every row a job emits or shuffles carries only the fields
	// the query references (physop.Compile applies it).
	PruneLive map[string]map[string]bool
	// SwitchMmax, when positive, enables the dynamic join operator the
	// paper plans as future work (§8): a repartition join whose
	// smaller input is already materialized and actually fits within
	// this budget is converted to a broadcast join at submit time,
	// without waiting for a re-optimization point. Inputs whose true
	// size is unknown (unfiltered base files with predicates) are
	// judged by their file size, so the conversion is always safe.
	SwitchMmax float64
}

// Run is a submitted unit execution.
type Run struct {
	Unit *Unit
	Job  *mapreduce.Job
	Sub  *cluster.Submission
}

// SubmitUnit translates a ready unit into a MapReduce job and submits
// it to the cluster.
func SubmitUnit(env *mapreduce.Env, u *Unit, opts ExecOpts) (*Run, error) {
	if u.Done() {
		return nil, fmt.Errorf("jaql: unit %s already executed", u.Name)
	}
	if !u.ready() {
		return nil, fmt.Errorf("jaql: unit %s has unexecuted dependencies", u.Name)
	}
	spec, err := buildSpec(env, u, opts)
	if err != nil {
		return nil, err
	}
	job, sub, err := mapreduce.Submit(env, spec)
	if err != nil {
		return nil, err
	}
	return &Run{Unit: u, Job: job, Sub: sub}, nil
}

// Finalize turns a completed run into the unit's output relation. The
// relation's statistics come from the job's online statistics
// collection (exact, since the whole input was processed).
func (r *Run) Finalize(relName string) (*plan.Rel, error) {
	if r.Sub.Err() != nil {
		return nil, r.Sub.Err()
	}
	res, err := r.Job.Result()
	if err != nil {
		return nil, err
	}
	rel := &plan.Rel{
		Name:    relName,
		Aliases: append([]string(nil), r.Unit.Aliases...),
		File:    res.Output,
	}
	if res.Stats != nil {
		rel.Stats = res.Stats.Exact()
	} else {
		rel.Stats = stats.TableStats{
			Card:       float64(res.OutRecords),
			AvgRecSize: avgSize(res),
		}
	}
	r.Unit.OutRel = rel
	return rel, nil
}

func avgSize(res *mapreduce.Result) float64 {
	if res.OutRecords == 0 {
		return 0
	}
	return float64(res.OutputVirtual) / float64(res.OutRecords)
}

// buildSpec assembles the MapReduce spec for a unit: it describes the
// unit as a physical operator and binds the operator's kernels to the
// unit's input files.
func buildSpec(env *mapreduce.Env, u *Unit, opts ExecOpts) (mapreduce.Spec, error) {
	spec := mapreduce.Spec{
		Name:         u.Name,
		Output:       "tmp/" + u.Name,
		CollectStats: opts.StatsPaths,
		KMVSize:      opts.KMVSize,
	}
	switch u.Kind {
	case unitScan:
		file, err := u.Probe.file()
		if err != nil {
			return spec, err
		}
		op := &physop.OpSpec{Kind: physop.Scan, Source: sourceSpec(u.Probe), Prune: opts.PruneLive}
		return op.Bind(spec, file)
	case unitRepartition:
		j := u.Chain[0]
		lf, err := u.Probe.file()
		if err != nil {
			return spec, err
		}
		rf, err := u.Right.file()
		if err != nil {
			return spec, err
		}
		if opts.SwitchMmax > 0 {
			// Dynamic join operator: now that both inputs exist as
			// files, re-check whether one side truly fits in memory.
			probe, build := u.Probe, u.Right
			pf, bf := lf, rf
			if float64(pf.Size()) < float64(bf.Size()) {
				probe, build = build, probe
				pf, bf = bf, pf
			}
			if float64(bf.Size()) <= opts.SwitchMmax {
				u.Switched = true
				return chainSpec(spec, probe, pf, []buildStep{{src: build, join: j}}, opts.PruneLive)
			}
		}
		// Size the reduce phase from the estimated shuffle volume (both
		// filtered inputs are shuffled in full), the way stats-driven
		// engines do, rather than from raw input bytes.
		spec.NumReducers = mapreduce.ReducersFor(env, j.Left.Bytes()+j.Right.Bytes())
		op := &physop.OpSpec{
			Kind:      physop.Repartition,
			Left:      sourceSpec(u.Probe),
			Right:     sourceSpec(u.Right),
			LeftKeys:  probeKeyPaths(j, u.Probe.aliases()),
			RightKeys: probeKeyPaths(j, u.Right.aliases()),
			Residual:  expr.Conjoin(j.Residual),
			Prune:     opts.PruneLive,
		}
		return op.Bind(spec, lf, rf)
	case unitBroadcastChain:
		pf, err := u.Probe.file()
		if err != nil {
			return spec, err
		}
		steps := make([]buildStep, len(u.Chain))
		for i, m := range u.Chain {
			steps[i] = buildStep{src: u.Builds[i], join: m}
		}
		return chainSpec(spec, u.Probe, pf, steps, opts.PruneLive)
	}
	return spec, nil
}

// sourceSpec is a unit input source minus its file, which travels as a
// job input.
func sourceSpec(s source) *physop.Source { return &physop.Source{Wrap: s.Wrap, Filter: s.Filter} }

// buildStep pairs a broadcast build source with the join it serves.
type buildStep struct {
	src  source
	join *plan.Join
}

// chainSpec assembles a map-only hash-join job: the probe input
// streams through the chain of builds. Step i's probe-side keys
// resolve against the probe aliases plus all builds merged before it.
func chainSpec(spec mapreduce.Spec, probe source, probeFile *dfs.File, steps []buildStep, live map[string]map[string]bool) (mapreduce.Spec, error) {
	op := &physop.OpSpec{Kind: physop.Chain, Source: sourceSpec(probe), Prune: live}
	probeAliases := append([]string(nil), probe.aliases()...)
	for i, st := range steps {
		name := fmt.Sprintf("b%d", i)
		bf, err := st.src.file()
		if err != nil {
			return spec, err
		}
		sample, _ := bf.FirstRecord()
		spec.Broadcasts = append(spec.Broadcasts, physop.BindBuild(mapreduce.Broadcast{
			Name:     name,
			File:     bf,
			KeyPaths: probeKeyPaths(st.join, st.src.aliases()),
			Wrap:     st.src.Wrap,
			Filter:   st.src.Filter,
		}, sample))
		op.Steps = append(op.Steps, physop.ChainStep{
			Build:    name,
			Keys:     probeKeyPaths(st.join, probeAliases),
			Residual: expr.Conjoin(st.join.Residual),
		})
		probeAliases = append(probeAliases, st.src.aliases()...)
	}
	return op.Bind(spec, probeFile)
}
