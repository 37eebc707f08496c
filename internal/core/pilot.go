package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/plan"
	"dyno/internal/stats"
)

// PilotMode selects between the paper's two PILR implementations
// (§4.2).
type PilotMode int

// The two pilot-run execution modes.
const (
	// PilotST submits one leaf job after another, each over all splits
	// with early termination via the shared output counter.
	PilotST PilotMode = iota
	// PilotMT submits all leaf jobs at once over m/|R| random splits
	// each, adding splits on demand — amortizing job startup and
	// making pilot cost independent of data size.
	PilotMT
)

// String names the mode.
func (m PilotMode) String() string {
	if m == PilotST {
		return "PILR_ST"
	}
	return "PILR_MT"
}

// PilotReport summarizes one PILR invocation.
type PilotReport struct {
	Mode     PilotMode
	Duration float64 // virtual seconds spent in pilot runs
	Jobs     int     // pilot jobs actually executed
	Reused   int     // leaves whose statistics came from the metastore
	Consumed int     // leaves whose whole input was consumed (output reusable)
	// Warnings records one line per pilot job lost to task-retry
	// exhaustion; its leaf fell back to catalog-derived default
	// statistics instead of aborting the query (graceful degradation —
	// pilot runs are an optimization, never a correctness requirement).
	Warnings []string
}

// pilotRuns implements Algorithm 1 (PILR): for every base relation of
// the block, execute its leaf expression over a sample until k records
// are produced, collect statistics, and attach them to the relation.
func (e *Engine) pilotRuns(block *plan.JoinBlock, queryName string) (*PilotReport, error) {
	report := &PilotReport{Mode: e.Options.PilotMode}
	start := e.Env.Now()
	e.prepared = jaql.Prepared{}

	type pilotJob struct {
		rel *plan.Rel
		sig string
		run *pilotRun
	}
	var jobs []*pilotJob
	for _, rel := range block.Rels {
		if !rel.IsBase() {
			continue
		}
		sig := rel.Leaf.Signature()
		if e.Options.ReuseStats {
			if ts, ok := e.Store.Get(sig); ok {
				rel.Stats = ts
				report.Reused++
				continue
			}
		}
		jobs = append(jobs, &pilotJob{rel: rel, sig: sig})
	}

	switch e.Options.PilotMode {
	case PilotST:
		// One leaf expression at a time (lines 4-8 of Algorithm 1,
		// first implementation).
		for _, pj := range jobs {
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
			run, err := e.submitPilot(pj.rel, queryName, block, nil)
			if err != nil {
				return nil, err
			}
			if err := e.Env.RunUntil(run.sub.Done); err != nil {
				return nil, err
			}
			pj.run = run
		}
	case PilotMT:
		// All leaf jobs together over m/|R| random splits each; the
		// split budget is clamped to at least one split per leaf so a
		// block with more leaves than map slots still samples every
		// relation.
		m := e.Env.ClusterConfig().MapSlots()
		per := max(m/max(len(jobs), 1), 1)
		for _, pj := range jobs {
			run, err := e.submitPilot(pj.rel, queryName, block, samplePlanFor(pj.rel, per, e.rng))
			if err != nil {
				return nil, err
			}
			pj.run = run
		}
		if err := e.Env.RunUntil(func() bool {
			return !slices.ContainsFunc(jobs, func(pj *pilotJob) bool { return pj.run != nil && !pj.run.sub.Done() })
		}); err != nil {
			return nil, err
		}
	}

	for _, pj := range jobs {
		if pj.run == nil {
			continue
		}
		report.Jobs++
		ts, whole, out, err := pj.run.finish()
		if err != nil {
			if !errors.Is(err, cluster.ErrTaskRetriesExhausted) {
				return nil, err
			}
			// Graceful degradation: a lost pilot job costs estimate
			// quality, not the query. The leaf keeps default statistics
			// derived from the catalog's file metadata, and the
			// optimizer treats the relation as unfiltered.
			report.Warnings = append(report.Warnings, fmt.Sprintf(
				"core: pilot job for %s lost to task failures; using catalog statistics", pj.rel.Leaf.Alias))
			pj.rel.Stats = fallbackStats(pj.rel.File)
			continue
		}
		pj.rel.Stats = ts
		e.Store.Put(pj.sig, ts)
		if whole {
			report.Consumed++
			// §4.1: the filtered output is complete — reuse it as the
			// materialized leaf during the real execution.
			e.prepared[pj.sig] = out
		}
		// Client-side merge of the per-task statistics files.
		e.Env.Advance(statsMergeTime)
	}
	report.Duration = e.Env.Now() - start
	return report, nil
}

// sampleSpec describes the split sampling for one pilot job.
type sampleSpec struct {
	initial []int
	reserve []int
}

// samplePlanFor draws `per` random initial splits (reservoir-style)
// and queues the rest in random order for on-demand addition.
func samplePlanFor(rel *plan.Rel, per int, rng *rand.Rand) *sampleSpec {
	n := rel.File.NumBlocks()
	perm := rng.Perm(max(n, 1))
	if n == 0 {
		return &sampleSpec{}
	}
	per = min(per, n)
	return &sampleSpec{initial: perm[:per], reserve: perm[per:]}
}

// pilotRun tracks a submitted pilot job until statistics extraction.
type pilotRun struct {
	rel *plan.Rel
	job *mapreduce.Job
	sub *cluster.Submission
}

// submitPilot builds and submits the leaf-expression job for one
// relation. A nil sample runs over all splits (ST mode).
func (e *Engine) submitPilot(rel *plan.Rel, queryName string, block *plan.JoinBlock, sample *sampleSpec) (*pilotRun, error) {
	leaf := rel.Leaf
	statsPaths := joinColumnsFor(block, leaf.Alias)
	// A pilot job is a plain scan of the leaf expression lexp_R — the
	// very operator the query's own scan of the leaf compiles to, which
	// is what makes a fully consumed pilot's output reusable (§4.1).
	op := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: leaf.Alias, Filter: leaf.Pred}}
	spec, err := op.Bind(mapreduce.Spec{
		Name:                 fmt.Sprintf("pilot/%s/%s", queryName, leaf.Alias),
		Output:               fmt.Sprintf("pilot/%s/%s", queryName, leaf.Alias),
		CollectStats:         statsPaths,
		KMVSize:              e.Options.KMVSize,
		StopAfter:            e.Options.K,
		FinishIfFractionDone: finishFraction,
	}, rel.File)
	if err != nil {
		return nil, err
	}
	if sample != nil {
		spec.Inputs[0].Splits = sample.initial
		spec.MoreSplits = [][]int{sample.reserve}
	}
	job, sub, err := mapreduce.Submit(e.Env, spec)
	if err != nil {
		return nil, err
	}
	e.outputs, e.subs = append(e.outputs, spec.Output), append(e.subs, sub)
	return &pilotRun{rel: rel, job: job, sub: sub}, nil
}

// finish extracts extrapolated statistics from a completed pilot run.
func (p *pilotRun) finish() (stats.TableStats, bool, *dfs.File, error) {
	if err := p.sub.Err(); err != nil {
		return stats.TableStats{}, false, nil, err
	}
	res, err := p.job.Result()
	if err != nil {
		return stats.TableStats{}, false, nil, err
	}
	if res.WholeInput {
		// Every record was observed: statistics are exact.
		return res.Stats.Exact(), true, res.Output, nil
	}
	// |R|ε = size(R) / avg input record size measured over the sample
	// (§4.3); the filtered cardinality estimate is then
	// selectivity · |R|ε via Extrapolate.
	part := res.Stats
	totalInput := float64(part.InRecords)
	var sampleBytes int64
	for _, t := range p.sub.CompletedTasks() {
		sampleBytes += t.Usage().BytesRead
	}
	if part.InRecords > 0 && sampleBytes > 0 {
		avgIn := float64(sampleBytes) / float64(part.InRecords)
		totalInput = float64(p.rel.File.Size()) / avgIn
	}
	return part.Extrapolate(totalInput), false, res.Output, nil
}

// joinColumnsFor returns the block's join columns belonging to the
// alias (the only attributes pilot runs keep statistics for, §4.3).
// Always non-nil: pilot runs need at least the table-level statistics
// (cardinality, record size) even when the relation has no join columns.
func joinColumnsFor(block *plan.JoinBlock, alias string) []data.Path {
	return append([]data.Path{}, joinColumns(block, func(c, _ data.Path) bool { return c.Head() == alias })...)
}

// joinColumns returns the columns of the block's equi-join predicates
// that keep accepts, each given with the predicate's other column:
// each once, in predicate order, nil when keep accepts none.
func joinColumns(block *plan.JoinBlock, keep func(c, other data.Path) bool) (out []data.Path) {
	seen := map[string]bool{}
	for _, p := range block.JoinPreds {
		l, r, ok := expr.EquiJoinCols(p)
		for _, c := range [][2]data.Path{{l, r}, {r, l}} {
			if ok && keep(c[0], c[1]) && !seen[c[0].String()] {
				seen[c[0].String()] = true
				out = append(out, c[0])
			}
		}
	}
	return out
}

// fallbackStats derives default statistics from a file's catalog
// metadata: the unfiltered record count and average record size, with
// no column synopses (column estimators fall back to their defaults).
func fallbackStats(f *dfs.File) stats.TableStats {
	return stats.TableStats{
		Card:       float64(f.NumRecords()),
		AvgRecSize: f.AvgRecordSize(),
	}
}
