package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"dyno/internal/cluster"

	"dyno/internal/data"
	"dyno/internal/expr"
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
	// K is the pilot-run sample target (records per leaf expression);
	// the paper uses 1024.
	K int64
	// KMVSize is the distinct-value synopsis size (paper: 1024).
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

// DefaultOptions mirror the paper's configuration.
func DefaultOptions() Options {
	return Options{
		K:                  1024,
		KMVSize:            stats.DefaultKMVSize,
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
	Env      *mapreduce.Env
	Catalog  *jaql.Catalog
	Store    *stats.Store
	Prepared jaql.Prepared
	Opt      optimizer.Config
	Options  Options

	rng       *rand.Rand
	queries   int
	pruneLive map[string]map[string]bool // projection-pushdown live columns; nil = off
	ctx       context.Context            // per-call cancellation, set by executeContext
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
		opts.K = 1024
	}
	return &Engine{
		Env:      env,
		Catalog:  cat,
		Store:    stats.NewStore(),
		Prepared: make(jaql.Prepared),
		Opt:      opt,
		Options:  opts,
		rng:      rand.New(rand.NewSource(42)),
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
	// groups whose splits were enumerated, searches skipped by
	// branch-and-bound, and winners reused from the previous round's
	// memo.
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

// ctxErr reports the engine's per-call cancellation state. The engine
// checks it between cluster phases; during event stepping a session
// gate enforces the same context.
func (e *Engine) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// RunPilots executes only the PILR phase for a query (used by the
// Table 1 experiment, which measures pilot runs in isolation).
func (e *Engine) RunPilots(q *sqlparse.Query) (*PilotReport, error) {
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
	return e.executeContext(ctx, q)
}

// Execute runs a parsed query through pilot runs, cost-based
// optimization, dynamic execution, and the post-join operators.
func (e *Engine) Execute(q *sqlparse.Query) (*Result, error) {
	return e.executeContext(context.Background(), q)
}

// executeContext is Execute with per-call cancellation (see
// ExecuteSQLContext).
func (e *Engine) executeContext(ctx context.Context, q *sqlparse.Query) (*Result, error) {
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
	if res.Rows, err = jaql.FinishQuery(e.Env, q, final, "tmp/"+name+"/final"); err != nil {
		return nil, err
	}
	res.TotalSec = e.Env.Now() - start
	return res, nil
}

// memoHitOptSec is the constant virtual client time charged for a
// DYNOPT round whose plan is answered without enumeration — the
// remainder of the previous plan under the re-optimization threshold,
// or a memo whose reused winners left nothing to consider. It prices a
// lookup-and-extract, well under one expression's default
// OptTimePerExpr charge, and keeps Result.OptimizeSec the exact sum of
// the per-iteration charges. Charged only when OptTimePerExpr > 0.
const memoHitOptSec = 0.0005

// runBlock implements Algorithm 2 (DYNOPT) over one join block.
func (e *Engine) runBlock(block *plan.JoinBlock, name string, res *Result) (*plan.Rel, error) {
	relCounter := 0
	var prevRoot plan.Node
	executed := map[string]*plan.Rel{} // alias-set key → materialized rel
	skipReopt := false
	// One memo session per query: rounds reuse every group the
	// substitutions left intact.
	inc := optimizer.NewIncremental(e.Opt)
	for iter := 1; ; iter++ {
		if err := e.ctxErr(); err != nil {
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
				optRes, err = inc.Optimize(block)
				if err == nil {
					root, considered = optRes.Root, optRes.ExprsConsidered
					res.OptGroupsExpanded += optRes.GroupsExpanded
					res.OptGroupsPruned += optRes.GroupsPruned
					res.OptGroupsReused += optRes.GroupsReused
				}
			}
			if err != nil {
				return nil, err
			}
			optSec = float64(considered) * e.Options.OptTimePerExpr
			if optSec == 0 && e.Options.OptTimePerExpr > 0 {
				// Answered entirely from reused winners.
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
		graph, err := jaql.BuildGraph(root, e.Prepared, fmt.Sprintf("%s-i%d", name, iter))
		if err != nil {
			return nil, err
		}

		// Lines 4-6: pick and execute leaf jobs; without
		// re-optimization the whole graph runs at once.
		var toRun []*jaql.Unit
		lastIteration := false
		if !e.Options.Reoptimize {
			if err := e.executeStaticGraph(graph, res); err != nil {
				return nil, err
			}
			toRun = graph.Units
			lastIteration = true
		} else {
			ready := graph.Ready()
			toRun = e.Options.Strategy.Pick(ready)
			lastIteration = len(graph.Units) == len(toRun)
			if err := e.executeWave(block, graph, toRun, res, lastIteration); err != nil {
				return nil, err
			}
		}
		for _, u := range toRun {
			info.JobsRun = append(info.JobsRun, u.Name)
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

// executeWave submits the chosen leaf jobs together and runs the
// cluster until they complete.
func (e *Engine) executeWave(block *plan.JoinBlock, graph *jaql.Graph, toRun []*jaql.Unit, res *Result, last bool) error {
	if len(toRun) == 0 {
		return fmt.Errorf("core: no ready jobs to run")
	}
	var runs []*jaql.Run
	var runOpts []jaql.ExecOpts
	for _, u := range toRun {
		opts := jaql.ExecOpts{KMVSize: e.Options.KMVSize}
		if e.Options.CollectOnlineStats && !last {
			opts.StatsPaths = e.statsPathsFor(block, u)
		}
		if e.Options.DynamicJoin {
			opts.SwitchMmax = e.Opt.Mmax
		}
		opts.PruneLive = e.pruneLive
		run, err := jaql.SubmitUnit(e.Env, u, opts)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		runOpts = append(runOpts, opts)
	}
	if err := e.runWithRecovery(runs, runOpts, res); err != nil {
		return err
	}
	for _, run := range runs {
		if _, err := run.Finalize("pending"); err != nil {
			return err
		}
		e.countJob(run.Unit, res)
		if e.Options.CollectOnlineStats && !last {
			e.Env.Advance(statsMergeTime)
		}
	}
	return nil
}

// recoverable reports whether a finished job's error is answered by
// resubmitting the job: it lost a task to retry exhaustion and has been
// resubmitted fewer than jobRetries times. Any other error aborts the
// query.
func recoverable(err error, resubmitted int) bool {
	return errors.Is(err, cluster.ErrTaskRetriesExhausted) && resubmitted < jobRetries
}

// resubmit converts task-retry exhaustion into checkpoint recovery: a
// leaf job's inputs are materialized DFS files (base tables or
// previously executed sub-plans), so the job is simply resubmitted over
// the same inputs — the paper's argument that job boundaries double as
// checkpoints (§5.1).
func (e *Engine) resubmit(run *jaql.Run, opts jaql.ExecOpts, res *Result) (*jaql.Run, error) {
	fresh, err := jaql.SubmitUnit(e.Env, run.Unit, opts)
	if err != nil {
		return nil, err
	}
	res.Warnings = append(res.Warnings, fmt.Sprintf(
		"core: job %s lost to task failures; resubmitted from its materialized inputs", run.Unit.Name))
	return fresh, nil
}

// runWithRecovery drives the cluster until the submitted runs complete,
// resubmitting every recoverable failure. Failed runs are replaced in
// place so the caller finalizes the recovered execution.
func (e *Engine) runWithRecovery(runs []*jaql.Run, opts []jaql.ExecOpts, res *Result) error {
	resubmitted := make([]int, len(runs))
	for {
		if err := e.Env.RunUntil(func() bool {
			for _, run := range runs {
				if !run.Sub.Done() {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		var failed []int
		for i, run := range runs {
			if err := run.Sub.Err(); err != nil {
				if !recoverable(err, resubmitted[i]) {
					return err
				}
				failed = append(failed, i)
			}
		}
		if len(failed) == 0 {
			return nil
		}
		for _, i := range failed {
			fresh, err := e.resubmit(runs[i], opts[i], res)
			if err != nil {
				return err
			}
			runs[i] = fresh
			resubmitted[i]++
		}
		if err := e.ctxErr(); err != nil {
			return err
		}
	}
}

// executeStaticGraph runs a whole job graph without re-optimization
// (DYNOPT-SIMPLE): submit the ready units, block until an outstanding
// job materializes its output, finalize it, repeat. With the One
// strategy a unit is submitted only when nothing is outstanding, so
// jobs run strictly one at a time (SO); otherwise every ready unit goes
// in at once and parents start the moment their inputs exist (MO),
// letting jobs overlap on the cluster. (On a cluster shared with other
// sessions that moment is the engine's next observation, which can
// trail the completion instant.) A job that fails recoverably is
// resubmitted in place, under the same rule as DYNOPT's waves.
func (e *Engine) executeStaticGraph(graph *jaql.Graph, res *Result) error {
	_, oneAtATime := e.Options.Strategy.(One)
	submitted := map[*jaql.Unit]bool{}
	resubmitted := map[*jaql.Unit]int{}
	var open []*jaql.Run
	for !graph.Done() {
		if err := e.ctxErr(); err != nil {
			return err
		}
		for _, u := range graph.Ready() {
			if submitted[u] || (oneAtATime && len(open) > 0) {
				continue
			}
			submitted[u] = true
			run, err := jaql.SubmitUnit(e.Env, u, e.staticExecOpts())
			if err != nil {
				return err
			}
			open = append(open, run)
		}
		if len(open) == 0 {
			return fmt.Errorf("core: static graph stuck")
		}
		if err := e.Env.RunUntil(func() bool {
			for _, r := range open {
				if r.Sub.Done() {
					return true
				}
			}
			return false
		}); err != nil {
			return err
		}
		next := open[:0]
		for _, r := range open {
			if !r.Sub.Done() {
				next = append(next, r)
				continue
			}
			if err := r.Sub.Err(); err != nil && recoverable(err, resubmitted[r.Unit]) {
				fresh, err := e.resubmit(r, e.staticExecOpts(), res)
				if err != nil {
					return err
				}
				resubmitted[r.Unit]++
				next = append(next, fresh)
				continue
			}
			if _, err := r.Finalize("pending"); err != nil {
				return err
			}
			e.countJob(r.Unit, res)
		}
		open = next
	}
	return nil
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

// staticExecOpts builds the per-unit options for non-reoptimizing
// execution.
func (e *Engine) staticExecOpts() jaql.ExecOpts {
	opts := jaql.ExecOpts{KMVSize: e.Options.KMVSize, PruneLive: e.pruneLive}
	if e.Options.DynamicJoin {
		opts.SwitchMmax = e.Opt.Mmax
	}
	return opts
}

// statsPathsFor returns the join columns the unexecuted remainder of
// the block still needs (§5.4: only attributes participating in join
// conditions of the remaining part).
func (e *Engine) statsPathsFor(block *plan.JoinBlock, u *jaql.Unit) []data.Path {
	covered := map[string]bool{}
	for _, a := range u.Aliases {
		covered[a] = true
	}
	var out []data.Path
	seen := map[string]bool{}
	for _, p := range block.JoinPreds {
		l, r, ok := expr.EquiJoinCols(p)
		if !ok {
			continue
		}
		// A predicate crossing the unit's boundary: its inner column
		// is needed to estimate the remaining join.
		if covered[l.Head()] != covered[r.Head()] {
			for _, c := range []data.Path{l, r} {
				if covered[c.Head()] && !seen[c.String()] {
					seen[c.String()] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// substituteRel replaces the relations covered by a finished unit with
// its output relation (the paper's t1, t2, ... in Figure 2).
func substituteRel(block *plan.JoinBlock, u *jaql.Unit) {
	covered := map[string]bool{}
	for _, a := range u.Aliases {
		covered[a] = true
	}
	var kept []*plan.Rel
	for _, r := range block.Rels {
		drop := false
		for _, a := range r.Aliases {
			if covered[a] {
				drop = true
				break
			}
		}
		if !drop {
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
