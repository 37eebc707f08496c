package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"dyno/internal/cluster"

	"dyno/internal/data"
	"dyno/internal/jaql"
	"dyno/internal/mapreduce"
	"dyno/internal/optimizer"
	"dyno/internal/plan"
	"dyno/internal/rewrite"
	"dyno/internal/sqlparse"
	"dyno/internal/stats"
)

// Options configure the dynamic optimizer.
type Options struct {
	// K is the pilot-run sample target (records per leaf expression).
	K int64
	// KMVSize is the distinct-value synopsis size.
	KMVSize int
	// PilotMode selects PILR_ST or PILR_MT.
	PilotMode PilotMode
	// DisablePilotRuns skips PILR; relations must carry statistics
	// already (used by the static baselines).
	DisablePilotRuns bool
	// Strategy picks the leaf jobs to run per iteration.
	Strategy Strategy
	// Reoptimize enables mid-query re-optimization (DYNOPT); false
	// gives DYNOPT-SIMPLE, which optimizes once after the pilot runs.
	Reoptimize bool
	// ReoptThreshold, when positive, re-optimizes only if a finished
	// job's observed cardinality deviates from the estimate by more
	// than this relative factor (§3's conditional re-optimization).
	ReoptThreshold float64
	// ReuseStats consults the metastore by leaf-expression signature
	// before running a pilot (§4.1).
	ReuseStats bool
	// CollectOnlineStats enables statistics collection on executed
	// jobs (required for re-optimization).
	CollectOnlineStats bool
	// ProjectionPushdown prunes rows to the query's referenced fields
	// as soon as they enter a job, shrinking shuffle and intermediate
	// volumes (a rewrite Jaql's compiler performs; off by default to
	// keep the evaluation comparable to the paper's configuration).
	ProjectionPushdown bool
	// DynamicJoin enables the runtime join-method switch (the paper's
	// §8 future work): a repartition job whose smaller materialized
	// input actually fits in memory is submitted as a broadcast join
	// instead, without waiting for a re-optimization point.
	DynamicJoin bool
	// OptTimePerExpr is the virtual client time charged per memo
	// expression considered during an optimizer call.
	OptTimePerExpr float64
	// Planner overrides the cost-based optimizer (used by the static
	// baselines: RELOPT's plan, Jaql's FROM-order left-deep plan). It
	// returns the physical plan and the number of alternatives
	// considered (for time charging).
	Planner func(block *plan.JoinBlock, cfg optimizer.Config) (plan.Node, int, error)
	// PrepareStats attaches statistics to the block's base relations
	// when pilot runs are disabled (static baselines derive them from
	// catalog-level statistics instead).
	PrepareStats func(block *plan.JoinBlock) error
	// Tag prefixes the engine's query names — and therefore every job
	// name and tmp/pilot DFS path derived from them. A query service
	// gives each session a unique tag so concurrent engines sharing one
	// cluster and DFS never collide. Empty keeps the legacy q1, q2, ...
	// names.
	Tag string
}

// Fixed engine charges and limits.
const (
	// finishFraction lets a pilot job run to completion when it already
	// processed this fraction of the input (§4.1).
	finishFraction = 0.8
	// statsMergeTime is the virtual client time charged per job whose
	// task statistics are merged.
	statsMergeTime = 0.2
	// jobRetries caps how many times a leaf job killed by task-retry
	// exhaustion (cluster.ErrTaskRetriesExhausted) is resubmitted from
	// its materialized DFS inputs before the query aborts. Materialized
	// intermediate results are the paper's natural checkpoints (§5.1),
	// so resubmission never re-runs completed work.
	jobRetries = 2
)

// DefaultOptions mirror the paper's configuration, with its k and KMV
// size of 1024 scaled to the generated data's row counts.
func DefaultOptions() Options {
	return Options{
		K:                  256,
		KMVSize:            512,
		PilotMode:          PilotMT,
		Strategy:           Uncertain{N: 1},
		Reoptimize:         true,
		ReuseStats:         false,
		CollectOnlineStats: true,
		OptTimePerExpr:     0.004,
	}
}

// Engine executes queries with dynamic optimization.
type Engine struct {
	Env     *mapreduce.Env
	Catalog *jaql.Catalog
	Store   *stats.Store
	Opt     optimizer.Config
	Options Options

	rng       *rand.Rand
	queries   int
	pruneLive map[string]map[string]bool // projection-pushdown live columns; nil = off
	ctx       context.Context            // per-call cancellation, checked between cluster phases

	// The current query's scratch, dropped by dropScratch: its whole-input
	// pilot outputs by leaf signature (§4.1), and the output name and
	// submission of every job it submitted.
	prepared jaql.Prepared
	outputs  []string
	subs     []*cluster.Submission
}

// NewEngine wires an engine over the given environment and catalog.
// The optimizer prices broadcasts the way the environment loads them:
// once per worker under env.DistributedCache (the Hive profile), once
// per task otherwise.
func NewEngine(env *mapreduce.Env, cat *jaql.Catalog, opt optimizer.Config, opts Options) *Engine {
	opt.DCacheWorkers = 0
	if env.DistributedCache {
		opt.DCacheWorkers = env.ClusterConfig().Workers
	}
	if opts.Strategy == nil {
		opts.Strategy = Uncertain{N: 1}
	}
	if opts.K <= 0 {
		opts.K = DefaultOptions().K
	}
	return &Engine{
		Env:     env,
		Catalog: cat,
		Store:   stats.NewStore(),
		Opt:     opt,
		Options: opts,
		rng:     rand.New(rand.NewSource(42)),
	}
}

// IterationInfo records one DYNOPT iteration for plan-evolution
// inspection (the paper's Figure 2).
type IterationInfo struct {
	Plan        string // formatted physical plan chosen this iteration
	JobsRun     []string
	PlanChanged bool // differs from the remainder of the previous plan
}

// Result is the outcome of one query execution.
type Result struct {
	Rows []data.Value

	TotalSec    float64 // end-to-end virtual time
	PilotSec    float64 // spent in pilot runs
	OptimizeSec float64 // spent in optimizer calls
	Pilot       *PilotReport

	Iterations    int
	Jobs          int // join-block jobs executed
	MapOnlyJobs   int
	MapReduceJobs int
	SwitchedJobs  int // repartition jobs converted to broadcast at submit time
	PlanChanges   int
	Evolution     []IterationInfo
	FinalPlan     string

	// Optimizer search-work counters summed over every DYNOPT round:
	// groups whose splits were enumerated and searches skipped by
	// branch-and-bound. OptGroupsReused stays 0: each round searches a
	// fresh memo, and the field is kept only for the benchmark report
	// that reads it.
	OptGroupsExpanded int
	OptGroupsPruned   int
	OptGroupsReused   int

	// Warnings records each degradation the engine absorbed (failed
	// pilots falling back to catalog statistics, leaf jobs resubmitted
	// after task-retry exhaustion) instead of aborting.
	Warnings []string
}

// queryName allocates the next query's name, under the session tag
// when one is configured.
func (e *Engine) queryName() string {
	e.queries++
	return fmt.Sprintf("%sq%d", e.Options.Tag, e.queries)
}

// RunPilots executes only the PILR phase for a query (used by the
// Table 1 experiment, which measures pilot runs in isolation).
func (e *Engine) RunPilots(q *sqlparse.Query) (_ *PilotReport, err error) {
	defer func() { e.dropScratch(err) }()
	e.ctx = context.Background()
	name := e.queryName()
	compiled, err := rewrite.Compile(q)
	if err != nil {
		return nil, err
	}
	if err := jaql.Bind(compiled.Block, e.Catalog); err != nil {
		return nil, err
	}
	return e.pilotRuns(compiled.Block, name)
}

// ExecuteSQL parses and executes a query.
func (e *Engine) ExecuteSQL(sql string) (*Result, error) {
	return e.ExecuteSQLContext(context.Background(), sql)
}

// ExecuteSQLContext parses and executes a query under a cancellation
// context: between cluster phases the engine aborts with ctx.Err()
// once the context is done, and a gated environment additionally
// enforces the context while stepping the shared simulator.
func (e *Engine) ExecuteSQLContext(ctx context.Context, sql string) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.execute(ctx, q)
}

// execute runs a parsed query through pilot runs, cost-based
// optimization, dynamic execution, and the post-join operators, under
// ExecuteSQLContext's cancellation.
func (e *Engine) execute(ctx context.Context, q *sqlparse.Query) (_ *Result, err error) {
	defer func() { e.dropScratch(err) }()
	e.ctx = ctx
	name := e.queryName()
	compiled, err := rewrite.Compile(q)
	if err != nil {
		return nil, err
	}
	block := compiled.Block
	if err := jaql.Bind(block, e.Catalog); err != nil {
		return nil, err
	}

	res := &Result{}
	start := e.Env.Now()
	e.pruneLive = nil
	if e.Options.ProjectionPushdown {
		e.pruneLive = rewrite.LiveColumns(q)
	}

	// Step 3 (Figure 1): pilot runs.
	if !e.Options.DisablePilotRuns {
		report, err := e.pilotRuns(block, name)
		if err != nil {
			return nil, err
		}
		res.Pilot = report
		res.PilotSec = report.Duration
		res.Warnings = append(res.Warnings, report.Warnings...)
	} else if e.Options.PrepareStats != nil {
		if err := e.Options.PrepareStats(block); err != nil {
			return nil, err
		}
	}

	// Steps 4'-7': the DYNOPT loop.
	final, err := e.runBlock(block, name, res)
	if err != nil {
		return nil, err
	}

	// Post-join operators (grouping, ordering, projection).
	out := "tmp/" + name + "/final"
	e.outputs = append(e.outputs, out)
	if res.Rows, err = jaql.FinishQuery(e.Env, q, final, out); err != nil {
		return nil, err
	}
	res.TotalSec = e.Env.Now() - start
	return res, nil
}

// dropScratch ends the current query however it returned. A job still
// open on failure or cancellation is canceled and drained, so it creates
// no output later and is retired (freeing its retained shuffle on
// proc); a predicate runs where submissions may be touched. Then every
// output the query's jobs were given is removed, one Remove per name:
// the rows are copied out and the statistics live in the store.
func (e *Engine) dropScratch(err error) {
	if err != nil {
		_ = e.Env.RunUntil(func() bool {
			for _, s := range e.subs {
				s.Cancel(err)
			}
			return !slices.ContainsFunc(e.subs, func(s *cluster.Submission) bool { return !s.Done() })
		})
	}
	for _, name := range e.outputs {
		_ = e.Env.FS.Remove(name)
	}
	e.prepared, e.outputs, e.subs = nil, nil, nil
}

// memoHitOptSec is the constant virtual client time charged for a
// DYNOPT round whose plan is answered without enumeration — the
// remainder of the previous plan under the re-optimization threshold,
// or a search that had no alternative to consider. It prices a
// lookup-and-extract, well under one expression's default
// OptTimePerExpr charge, and keeps Result.OptimizeSec the exact sum of
// the per-iteration charges. Charged only when OptTimePerExpr > 0.
const memoHitOptSec = 0.0005

// runBlock implements Algorithm 2 (DYNOPT) over one join block. Every
// round optimizes the block, cuts the plan into a job graph and hands
// it to drive; the variants differ only in what drive admits. DYNOPT
// admits the strategy's wave once, collects statistics for the block's
// remaining join columns unless the wave is the whole graph, and then
// substitutes the executed sub-plans and re-optimizes. Without
// re-optimization (DYNOPT-SIMPLE and the static baselines) one round
// runs the whole graph: under One a unit is admitted only when nothing
// is open (SO), otherwise every ready unit goes in at once and parents
// start as soon as their inputs exist (MO).
func (e *Engine) runBlock(block *plan.JoinBlock, name string, res *Result) (*plan.Rel, error) {
	relCounter := 0
	var prevRoot plan.Node
	executed := map[string]*plan.Rel{} // alias-set key → materialized rel
	skipReopt := false
	for iter := 1; ; iter++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		if len(block.Rels) == 1 && !block.Rels[0].IsBase() {
			// Whole block executed.
			res.FinalPlan = block.Rels[0].String()
			return block.Rels[0], nil
		}
		res.Iterations = iter

		// Line 2: optimize the current join block — or, when the
		// previous estimates held within the re-optimization
		// threshold, keep executing the previous plan's remainder.
		var root plan.Node
		var optSec float64
		if skipReopt && prevRoot != nil {
			root = pruneExecuted(prevRoot, executed)
			if e.Options.OptTimePerExpr > 0 {
				optSec = memoHitOptSec
				e.Env.Advance(optSec)
				res.OptimizeSec += optSec
			}
		} else {
			var considered int
			var err error
			if e.Options.Planner != nil {
				root, considered, err = e.Options.Planner(block, e.Opt)
			} else {
				var optRes *optimizer.Result
				optRes, err = optimizer.Optimize(block, e.Opt)
				if err == nil {
					root, considered = optRes.Root, optRes.ExprsConsidered
					res.OptGroupsExpanded += optRes.GroupsExpanded
					res.OptGroupsPruned += optRes.GroupsPruned
				}
			}
			if err != nil {
				return nil, err
			}
			optSec = float64(considered) * e.Options.OptTimePerExpr
			if optSec == 0 && e.Options.OptTimePerExpr > 0 {
				// Nothing enumerated: a one-relation block, or a
				// planner that considered no alternative.
				optSec = memoHitOptSec
			}
			e.Env.Advance(optSec)
			res.OptimizeSec += optSec
		}
		info := IterationInfo{Plan: plan.Format(root)}
		if prevRoot != nil && planSig(root, executed) != planSig(prevRoot, executed) {
			info.PlanChanged = true
			res.PlanChanges++
		}
		prevRoot = root

		// Line 3: translate to MapReduce jobs.
		graph, err := jaql.BuildGraph(root, e.prepared, fmt.Sprintf("%s-i%d", name, iter))
		if err != nil {
			return nil, err
		}

		// Lines 4-6: pick leaf jobs and run them through drive.
		toRun := graph.Units
		_, one := e.Options.Strategy.(One)
		admit := func(ready []*jaql.Unit, open int) []*jaql.Unit {
			if !one {
				return ready
			}
			if open > 0 {
				return nil
			}
			return take(ready, 1)
		}
		if e.Options.Reoptimize {
			toRun = e.Options.Strategy.Pick(graph.Ready())
			wave := toRun
			admit = func([]*jaql.Unit, int) []*jaql.Unit {
				w := wave
				wave = nil
				return w
			}
		}
		if len(toRun) == 0 {
			return nil, fmt.Errorf("core: no ready jobs to run")
		}
		lastIteration := len(toRun) == len(graph.Units)
		collect := e.Options.CollectOnlineStats && !lastIteration
		opts := func(u *jaql.Unit) jaql.ExecOpts {
			o := jaql.ExecOpts{KMVSize: e.Options.KMVSize, PruneLive: e.pruneLive}
			if collect {
				o.StatsPaths = e.statsPathsFor(block, u)
			}
			if e.Options.DynamicJoin {
				o.SwitchMmax = e.Opt.Mmax
			}
			return o
		}
		if err := e.drive(graph, admit, opts, res); err != nil {
			return nil, err
		}
		for _, u := range toRun {
			info.JobsRun = append(info.JobsRun, u.Name)
			if collect {
				e.Env.Advance(statsMergeTime)
			}
		}
		res.Evolution = append(res.Evolution, info)

		// Line 8: substitute executed sub-plans by their results.
		deviated := false
		for _, u := range graph.Units {
			if !u.Done() {
				continue
			}
			relCounter++
			u.OutRel.Name = fmt.Sprintf("t%d", relCounter)
			substituteRel(block, u)
			executed[aliasKey(u.Aliases)] = u.OutRel
			if len(u.Chain) > 0 {
				top := u.Chain[len(u.Chain)-1]
				if deviates(top.EstCard, u.OutRel.Stats.Card, e.Options.ReoptThreshold) {
					deviated = true
				}
			}
		}
		if lastIteration {
			res.FinalPlan = info.Plan
			if len(block.Rels) != 1 {
				return nil, fmt.Errorf("core: block not reduced to one relation (%d left)", len(block.Rels))
			}
			return block.Rels[0], nil
		}
		skipReopt = e.Options.ReoptThreshold > 0 && !deviated
	}
}

// aliasKey canonically names an alias set.
func aliasKey(aliases []string) string {
	out := append([]string(nil), aliases...)
	sort.Strings(out)
	return strings.Join(out, ",")
}

// planSig renders the structural signature of a plan with executed
// subtrees collapsed to their alias sets, so successive iterations can
// be compared for plan changes.
func planSig(n plan.Node, executed map[string]*plan.Rel) string {
	key := aliasKey(n.Aliases())
	if _, ok := executed[key]; ok {
		return "{" + key + "}"
	}
	switch t := n.(type) {
	case *plan.Join:
		return t.Method.String() + "(" + planSig(t.Left, executed) + "," + planSig(t.Right, executed) + ")"
	default:
		return "{" + key + "}"
	}
}

// pruneExecuted replaces executed subtrees of a previous plan with
// scans of their materialized relations, yielding the plan remainder
// to run when re-optimization is skipped.
func pruneExecuted(n plan.Node, executed map[string]*plan.Rel) plan.Node {
	if rel, ok := executed[aliasKey(n.Aliases())]; ok {
		return &plan.Scan{Rel: rel}
	}
	if j, ok := n.(*plan.Join); ok {
		cp := *j
		cp.Left = pruneExecuted(j.Left, executed)
		cp.Right = pruneExecuted(j.Right, executed)
		return &cp
	}
	return n
}

// drive runs a job graph's units on the cluster. It repeats: submit
// the units admit picks from the ready, not yet submitted ones (admit
// also sees how many runs are open); run the cluster until an open run
// is done; finalize and count each finished run. A run lost to
// task-retry exhaustion is resubmitted in place, over the same
// materialized inputs, at most jobRetries times per job: job boundaries
// double as checkpoints (§5.1), so resubmission never re-runs completed
// work. Any other failure ends the drive when it is seen, and so does a
// loss past the cap. The drive is over when nothing is open after admit.
func (e *Engine) drive(graph *jaql.Graph, admit func(ready []*jaql.Unit, open int) []*jaql.Unit,
	opts func(*jaql.Unit) jaql.ExecOpts, res *Result) error {
	resubmits := map[*jaql.Unit]int{} // one key per submitted unit
	var open []*jaql.Run
	for {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		var ready []*jaql.Unit
		for _, u := range graph.Ready() {
			if _, ok := resubmits[u]; !ok {
				ready = append(ready, u)
			}
		}
		for _, u := range admit(ready, len(open)) {
			run, err := jaql.SubmitUnit(e.Env, u, opts(u))
			if err != nil {
				return err
			}
			resubmits[u] = 0
			e.outputs, e.subs = append(e.outputs, "tmp/"+u.Name), append(e.subs, run.Sub)
			open = append(open, run)
		}
		if len(open) == 0 {
			return nil
		}
		if err := e.Env.RunUntil(func() bool {
			return slices.ContainsFunc(open, func(r *jaql.Run) bool { return r.Sub.Done() })
		}); err != nil {
			return err
		}
		next := open[:0]
		for _, r := range open {
			switch {
			case !r.Sub.Done():
				next = append(next, r)
			case errors.Is(r.Sub.Err(), cluster.ErrTaskRetriesExhausted) && resubmits[r.Unit] < jobRetries:
				fresh, err := jaql.SubmitUnit(e.Env, r.Unit, opts(r.Unit))
				if err != nil {
					return err
				}
				resubmits[r.Unit]++
				e.subs = append(e.subs, fresh.Sub) // same output name
				res.Warnings = append(res.Warnings, fmt.Sprintf(
					"core: job %s lost to task failures; resubmitted from its materialized inputs", r.Unit.Name))
				next = append(next, fresh)
			default:
				if _, err := r.Finalize("pending"); err != nil {
					return err
				}
				e.countJob(r.Unit, res)
			}
		}
		open = next
	}
}

func (e *Engine) countJob(u *jaql.Unit, res *Result) {
	res.Jobs++
	if u.MapOnly() {
		res.MapOnlyJobs++
	} else {
		res.MapReduceJobs++
	}
	if u.Switched {
		res.SwitchedJobs++
	}
}

// statsPathsFor returns the join columns the unexecuted remainder of
// the block still needs (§5.4: only attributes participating in join
// conditions of the remaining part).
func (e *Engine) statsPathsFor(block *plan.JoinBlock, u *jaql.Unit) []data.Path {
	covered := map[string]bool{}
	for _, a := range u.Aliases {
		covered[a] = true
	}
	// A predicate crossing the unit's boundary: its inner column is
	// needed to estimate the remaining join.
	return joinColumns(block, func(c, other data.Path) bool { return covered[c.Head()] && !covered[other.Head()] })
}

// substituteRel replaces the relations covered by a finished unit with
// its output relation (the paper's t1, t2, ... in Figure 2).
func substituteRel(block *plan.JoinBlock, u *jaql.Unit) {
	var kept []*plan.Rel
	for _, r := range block.Rels {
		if !slices.ContainsFunc(r.Aliases, func(a string) bool { return slices.Contains(u.Aliases, a) }) {
			kept = append(kept, r)
		}
	}
	block.Rels = append(kept, u.OutRel)
}

// deviates applies the re-optimization threshold test.
func deviates(est, actual, threshold float64) bool {
	if threshold <= 0 {
		return true
	}
	if est <= 0 {
		return actual > 0
	}
	return math.Abs(actual-est)/est > threshold
}
