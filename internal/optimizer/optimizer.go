// Package optimizer implements DYNO's cost-based join enumerator
// (§5.2), built in the style of the Columbia/Cascades framework: a memo
// of groups keyed by relation subsets, logical join expressions
// generated by commutativity/associativity over the join graph,
// implementation rules for Jaql's two physical joins (repartition and
// broadcast), textbook join-cardinality estimation over the statistics
// supplied with each input relation, and bushy plans whenever they are
// cheapest.
//
// The cost formulas follow the paper's:
//
//	C(R ⋈r S) = crep·(|R|+|S|) + cout·|R⋈S|
//	C(R ⋈b S) = cprobe·|R| + cbuild·|S|·repl(R) + cout·|R⋈S|   (S fits in Mmax)
//
// with crep ≫ cprobe > cbuild > cout, where |·| is the relation's
// virtual byte size. repl(R) is the build replication factor — every
// map task of the probe loads the build side, so the effective build
// cost grows with the probe's task count (or the worker count when the
// runtime serves builds from the distributed cache, the Hive profile of
// §6.6). A post-pass implements the broadcast-chain rule:
// consecutive broadcast joins whose build sides simultaneously fit in
// Mmax execute in one map-only job, eliminating the intermediate
// write/re-read, and their costs are updated accordingly.
package optimizer

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"

	"dyno/internal/expr"
	"dyno/internal/plan"
)

// Config holds the search options a caller sets. The cost constants
// are fixed (see cRep and the rest below).
type Config struct {
	// Mmax bounds broadcast build sides (bytes available to a task).
	Mmax float64

	// DCacheWorkers caps build replication at the cluster's worker
	// count when the runtime distributes builds once per node (Hive's
	// DistributedCache profile). 0 models per-task loading (Jaql).
	// core.NewEngine sets it from mapreduce.Env.DistributedCache.
	DCacheWorkers int

	// DisableChaining turns the broadcast-chain rule off (ablation).
	DisableChaining bool

	// DisableBroadcast removes the broadcast implementation rule
	// (ablation; also used to model conservative engines).
	DisableBroadcast bool
}

// The calibrated cost constants, per virtual byte: crep ≫ cprobe >
// cbuild > cout (§5.2). They are typed so that every expression over
// them rounds as float64 arithmetic does.
const (
	cRep   float64 = 1.0  // per input byte of a repartition join
	cProbe float64 = 0.15 // per probe-side byte of a broadcast join
	cBuild float64 = 0.10 // per build-side byte of a broadcast join
	cOut   float64 = 0.05 // per output byte of any join

	// cJob is the fixed cost of materializing a MapReduce job boundary
	// (job startup plus intermediate handling). Chained broadcast joins
	// share their parent's job and do not pay it; the search
	// anticipates chaining when the probe child's winner is itself a
	// broadcast join.
	cJob float64 = 2e9

	// defaultNDVFraction estimates NDV as card·fraction for columns
	// without statistics.
	defaultNDVFraction float64 = 0.1

	// blockBytes is the split size used to estimate a probe's map-task
	// count for build replication.
	blockBytes float64 = 128 << 20

	// riskFactor derates broadcast eligibility for builds whose size is
	// estimated across joins: a build subtree containing j joins must
	// satisfy bytes × riskFactor^j ≤ Mmax. Estimation error grows
	// exponentially with the number of joins [Ioannidis &
	// Christodoulakis 1991], and a broadcast chosen on an underestimate
	// aborts the query (§6.4), so engines are conservative with derived
	// sizes. Materialized intermediates re-enter the block as single
	// relations with measured statistics, so re-optimization regains
	// the aggressive broadcasts.
	riskFactor float64 = 2
)

// broadcastSafety is the fraction of slot memory the optimizer budgets
// for broadcast builds, leaving headroom for hash-table overhead — the
// conservative margin production engines configure (e.g. Hive's
// small-table thresholds sit well below task memory).
const broadcastSafety = 0.9

// DefaultConfig returns the search configuration for the given slot
// memory; Mmax is derated by broadcastSafety.
func DefaultConfig(slotMemory float64) Config { return Config{Mmax: slotMemory * broadcastSafety} }

// maxRelations is the largest join block the enumerator accepts. Group
// masks are uint64 bitsets, so 64 relations is the hard representation
// limit; the enforced cap is lower because memo size grows as 3^n in
// the number of relations.
const maxRelations = 20

// errTooManyRelations is wrapped in the error Optimize returns for
// blocks beyond maxRelations.
var errTooManyRelations = errors.New("too many relations")

// Result is the optimizer's output.
type Result struct {
	Root plan.Node
	// ExprsConsidered counts the (logical, physical) alternatives
	// examined; DYNO charges virtual optimization time proportional to
	// it (§6.2 measures this overhead). Pruned groups contribute
	// nothing, so the charge tracks actual search work.
	ExprsConsidered int
	// GroupsExpanded counts split-loop executions (a group re-searched
	// under a raised cost limit counts again); GroupsPruned counts
	// searches avoided because a lower bound exceeded the incumbent.
	GroupsExpanded int
	GroupsPruned   int
}

// Optimize enumerates join orders and methods for the block and returns
// the cheapest physical plan.
func Optimize(block *plan.JoinBlock, cfg Config) (*Result, error) {
	m, err := newMemoChecked(block, cfg)
	if err != nil {
		return nil, err
	}
	return m.result(m.optimize(m.full(), math.Inf(1)))
}

func newMemoChecked(block *plan.JoinBlock, cfg Config) (*memo, error) {
	n := len(block.Rels)
	if n == 0 {
		return nil, errors.New("optimizer: empty join block")
	}
	if n > maxRelations {
		return nil, fmt.Errorf("optimizer: %d relations exceed the %d-relation enumeration limit: %w",
			n, maxRelations, errTooManyRelations)
	}
	return newMemo(block, cfg), nil
}

// full is the mask of the whole block.
func (m *memo) full() uint64 { return uint64(1)<<uint(len(m.block.Rels)) - 1 }

// result materializes the whole block's winner best as a chained,
// costed plan and reports the search counters.
func (m *memo) result(best *winner) (*Result, error) {
	if best == nil {
		return nil, errors.New("optimizer: no plan found")
	}
	root := m.extract(m.full())
	if !m.cfg.DisableChaining {
		markChains(root, m.cfg)
	}
	costTree(root, m.cfg)
	return &Result{
		Root:            root,
		ExprsConsidered: m.considered,
		GroupsExpanded:  m.expanded,
		GroupsPruned:    m.pruned,
	}, nil
}

// joinEdge is a preprocessed equi-join predicate.
type joinEdge struct {
	pred       expr.Expr
	li, ri     int    // rel indexes
	lcol, rcol string // column path strings
}

// residual is a preprocessed non-local predicate.
type residual struct {
	pred expr.Expr
	mask uint64 // rels whose aliases it references
}

// groupProps are the logical properties of a relation subset. card is
// the expected cardinality used for costing; cardUp is a conservative
// upper bound used for broadcast memory eligibility (it applies only
// the most selective join condition per step and ignores residual
// filters, so fully correlated composite keys and UDFs cannot trick a
// build side under Mmax).
type groupProps struct {
	card    float64
	cardUp  float64
	avgSize float64
	ndv     map[string]float64
}

func (g groupProps) bytes() float64 { return g.card * g.avgSize }

func (g groupProps) bytesUp() float64 { return g.cardUp * g.avgSize }

// winner is the best physical expression found for a group.
type winner struct {
	cost      float64
	method    plan.JoinMethod
	leftMask  uint64
	rightMask uint64
	leaf      bool
}

// entry is a group's search state. proven means w is the group's true
// optimum (w == nil: the group has no plan at all). Otherwise lb is a
// proven lower bound in the strict sense "the optimum costs more than
// lb": a bounded search that failed under some limit records that limit
// here so later searches under tighter bounds fail without expanding.
// failed marks that one bounded search already expanded and failed; the
// next search then proves the group outright, bounding the total
// expansions of any group at two — dense graphs would otherwise
// re-expand the same groups under ever-rising limits.
type entry struct {
	w      *winner
	proven bool
	failed bool
	lb     float64
}

type memo struct {
	block     *plan.JoinBlock
	cfg       Config
	edges     []joinEdge
	residuals []residual
	adj       []uint64 // adjacency mask per rel
	props     map[uint64]groupProps
	entries   map[uint64]*entry
	lbs       map[uint64]float64 // memoized staticLB
	// cminInput is the cheapest per-byte rate at which any join reads
	// an input (used by staticLB).
	cminInput  float64
	considered int
	expanded   int
	pruned     int
}

func newMemo(block *plan.JoinBlock, cfg Config) *memo {
	m := &memo{
		block:   block,
		cfg:     cfg,
		props:   make(map[uint64]groupProps),
		entries: make(map[uint64]*entry),
		lbs:     make(map[uint64]float64),
		adj:     make([]uint64, len(block.Rels)),
	}
	m.cminInput = cRep
	if !cfg.DisableBroadcast {
		m.cminInput = min(cRep, cProbe, cBuild)
	}
	relIdx := func(alias string) int {
		return slices.IndexFunc(block.Rels, func(r *plan.Rel) bool { return r.Covers(alias) })
	}
	for _, p := range block.JoinPreds {
		l, r, ok := expr.EquiJoinCols(p)
		if !ok {
			continue
		}
		li, ri := relIdx(l.Head()), relIdx(r.Head())
		if li < 0 || ri < 0 || li == ri {
			// A join predicate both of whose sides live in the same
			// (intermediate) relation degenerates into a residual that
			// has already been applied.
			continue
		}
		m.edges = append(m.edges, joinEdge{pred: p, li: li, ri: ri, lcol: l.String(), rcol: r.String()})
		m.adj[li] |= 1 << uint(ri)
		m.adj[ri] |= 1 << uint(li)
	}
	for _, p := range block.NonLocal {
		var mask uint64
		ok := true
		for a := range expr.Aliases(p) {
			i := relIdx(a)
			if i < 0 {
				ok = false
				break
			}
			mask |= 1 << uint(i)
		}
		if ok && bits.OnesCount64(mask) >= 2 {
			m.residuals = append(m.residuals, residual{pred: p, mask: mask})
		}
		// Residuals fully inside one relation were applied when that
		// intermediate was produced.
	}
	return m
}

// ndvOf returns the column's NDV under the group's statistics, falling
// back to a fixed fraction of the cardinality.
func (m *memo) ndvOf(p groupProps, col string) float64 {
	if v, ok := p.ndv[col]; ok && v > 0 {
		return math.Min(v, math.Max(p.card, 1))
	}
	return math.Max(1, p.card*defaultNDVFraction)
}

// propsFor computes (and memoizes) the logical properties of a subset.
func (m *memo) propsFor(mask uint64) groupProps {
	if p, ok := m.props[mask]; ok {
		return p
	}
	var p groupProps
	if bits.OnesCount64(mask) == 1 {
		rel := m.block.Rels[bits.TrailingZeros64(mask)]
		p = groupProps{
			card:    rel.Stats.Card,
			cardUp:  rel.Stats.Card,
			avgSize: rel.Stats.AvgRecSize,
			ndv:     make(map[string]float64, len(rel.Stats.Cols)),
		}
		for col, cs := range rel.Stats.Cols {
			p.ndv[col] = cs.NDV
		}
	} else {
		// Split off the lowest bit for a canonical decomposition; the
		// logical properties are split-independent because selectivity
		// estimation is multiplicative.
		lo := uint64(1) << uint(bits.TrailingZeros64(mask))
		p = m.joinProps(lo, mask&^lo)
	}
	m.props[mask] = p
	return p
}

// joinProps derives the properties of l ∪ r via textbook estimation.
func (m *memo) joinProps(lmask, rmask uint64) groupProps {
	l, r := m.propsFor(lmask), m.propsFor(rmask)
	card := l.card * r.card
	ndv := make(map[string]float64, len(l.ndv)+len(r.ndv))
	maps.Copy(ndv, l.ndv)
	maps.Copy(ndv, r.ndv)
	// Per-edge selectivities 1/max(ndv_l, ndv_r); multiple conditions
	// between the same subsets are combined with exponential backoff
	// (full, then ^1/2, ^1/4, ...) rather than full independence —
	// composite join keys are usually correlated, and naive
	// multiplication collapses cardinalities and misleads broadcast
	// decisions. For the upper bound the divisor is min(ndv_l, ndv_r):
	// sampled NDVs of large relations are routinely *over*-extrapolated
	// (a k-record sample of a low-cardinality key shows no duplicates),
	// and an overestimated divisor silently shrinks a build-side
	// estimate under Mmax.
	var sels, selsUp []float64
	for _, e := range m.edges {
		var lcol, rcol string
		switch {
		case lmask&(1<<uint(e.li)) != 0 && rmask&(1<<uint(e.ri)) != 0:
			lcol, rcol = e.lcol, e.rcol
		case lmask&(1<<uint(e.ri)) != 0 && rmask&(1<<uint(e.li)) != 0:
			lcol, rcol = e.rcol, e.lcol
		default:
			continue
		}
		dl, dr := m.ndvOf(l, lcol), m.ndvOf(r, rcol)
		sels = append(sels, 1/math.Max(math.Max(dl, dr), 1))
		selsUp = append(selsUp, 1/math.Max(math.Min(dl, dr), 1))
		joined := math.Min(dl, dr)
		ndv[lcol], ndv[rcol] = joined, joined
	}
	sort.Float64s(sels)
	exp := 1.0
	for _, sel := range sels {
		card *= math.Pow(sel, exp)
		exp /= 2
	}
	// Upper bound: apply only the strongest pessimistic condition —
	// the rest are assumed fully correlated with it.
	cardUp := l.cardUp * r.cardUp
	if len(selsUp) > 0 {
		sort.Float64s(selsUp)
		cardUp *= selsUp[0]
	}
	// Residual predicates (UDFs over join results) are assumed to keep
	// everything until runtime statistics say otherwise, as the paper's
	// optimizer does.
	card = max(card, 1)
	cardUp = max(cardUp, card)
	for c, v := range ndv {
		ndv[c] = math.Min(v, card)
	}
	return groupProps{card: card, cardUp: cardUp, avgSize: l.avgSize + r.avgSize, ndv: ndv}
}

// replication computes the number of times a broadcast build side is
// loaded for a probe of the given size under the configuration: once
// per probe map task, capped at the worker count when builds are
// served from the distributed cache.
func replication(cfg Config, probeBytes float64) float64 {
	tasks := max(probeBytes/blockBytes, 1)
	if cfg.DCacheWorkers > 0 && tasks > float64(cfg.DCacheWorkers) {
		tasks = float64(cfg.DCacheWorkers)
	}
	return tasks
}

// staticLB is an admissible lower bound on a multi-relation group's
// optimal cost, derived from charges every plan shape must pay: each
// member relation is read at least once by its immediate parent join at
// no less than the cheapest per-byte input rate, the group's output is
// written once by the top join, and at least one job boundary is
// materialized (the bottom join of the probe spine has no broadcast
// parent to chain into, and repartition joins always pay it).
func (m *memo) staticLB(mask uint64) float64 {
	if lb, ok := m.lbs[mask]; ok {
		return lb
	}
	var leafIn float64
	for rem := mask; rem != 0; rem &= rem - 1 {
		leafIn += m.propsFor(rem & -rem).bytes()
	}
	lb := cJob + cOut*m.propsFor(mask).bytes() + m.cminInput*leafIn
	m.lbs[mask] = lb
	return lb
}

// stepInputLB lower-bounds the input-plus-boundary cost of joining two
// sides of the given byte sizes by any method: a repartition join reads
// both at cRep and pays the job boundary; a broadcast join reads the
// probe at cProbe and the build at no less than cBuild (replication
// ≥ 1) and may chain into its parent's job. Mmax eligibility is
// ignored — assuming broadcast is available can only lower the bound.
func (m *memo) stepInputLB(lBytes, rBytes float64) float64 {
	rep := cJob + cRep*(lBytes+rBytes)
	if m.cfg.DisableBroadcast {
		return rep
	}
	bc := math.Min(cProbe*lBytes+cBuild*rBytes, cProbe*rBytes+cBuild*lBytes)
	return math.Min(rep, bc)
}

// boundOf is the tightest known lower bound on a group's optimal cost
// (exact when the group is proven).
func (m *memo) boundOf(mask uint64) float64 {
	if bits.OnesCount64(mask) == 1 {
		return 0
	}
	lb := m.staticLB(mask)
	if e := m.entries[mask]; e != nil {
		if e.proven {
			if e.w == nil {
				return math.Inf(1)
			}
			return e.w.cost
		}
		lb = math.Max(lb, e.lb)
	}
	return lb
}

// optimize returns the best physical alternative for a subset, proven
// optimal whenever its cost is within limit. The search is
// branch-and-bound: the incumbent's cost flows down the recursion as an
// upper bound, splits whose admissible lower bound exceeds it are
// skipped, and a nil return means every alternative provably costs
// strictly more than limit (recorded in the entry so later searches
// under tighter bounds fail fast). Pruning is strict — only
// alternatives costing strictly more than the winner are ever skipped —
// so the chosen plan, including equal-cost tie-breaks, is identical to
// exhaustive enumeration's (the package tests hold it to one).
func (m *memo) optimize(mask uint64, limit float64) *winner {
	e := m.entries[mask]
	if e == nil {
		e = &entry{lb: math.Inf(-1)}
		m.entries[mask] = e
	}
	if e.proven {
		return e.w
	}
	if bits.OnesCount64(mask) == 1 {
		e.w, e.proven = &winner{cost: 0, leaf: true}, true
		return e.w
	}
	if e.failed {
		limit = math.Inf(1)
	} else if limit <= e.lb || limit < m.staticLB(mask) {
		m.pruned++
		return nil
	}
	m.expanded++
	outCost := cOut * m.propsFor(mask).bytes()
	bound := limit
	var best *winner
	for _, s := range m.splits(mask) {
		lmask, rmask := s, mask&^s
		lp, rp := m.propsFor(lmask), m.propsFor(rmask)
		stepLB := outCost + m.stepInputLB(lp.bytes(), rp.bytes())
		if m.boundOf(lmask)+m.boundOf(rmask)+stepLB > bound {
			m.pruned++
			continue
		}
		lw := m.optimize(lmask, bound-m.boundOf(rmask)-stepLB)
		if lw == nil {
			continue
		}
		rw := m.optimize(rmask, bound-lw.cost-stepLB)
		if rw == nil {
			continue
		}
		childCost := lw.cost + rw.cost
		improve := func(c float64, method plan.JoinMethod, left, right uint64) {
			m.considered++
			if best == nil || c < best.cost {
				best = &winner{cost: c, method: method, leftMask: left, rightMask: right}
				if best.cost < bound {
					bound = best.cost
				}
			}
		}

		// Repartition join: the cost is symmetric.
		c, _ := m.joinCost(plan.Repartition, lmask, rmask, childCost, outCost, false)
		improve(c, plan.Repartition, lmask, rmask)
		// Broadcast join: both build orientations are costed (the
		// replication-aware build term prices each correctly).
		for _, o := range [2][2]uint64{{lmask, rmask}, {rmask, lmask}} {
			probe, build := o[0], o[1]
			// Anticipate chaining: if the probe child will itself be
			// a broadcast join, this join shares its map job.
			pw := lw
			if probe == rmask {
				pw = rw
			}
			probeIsBroadcast := !pw.leaf && pw.method == plan.BroadcastJoin
			if c, ok := m.joinCost(plan.BroadcastJoin, probe, build, childCost, outCost, probeIsBroadcast); ok {
				improve(c, plan.BroadcastJoin, probe, build)
			}
		}
	}
	if best != nil && best.cost <= limit {
		e.w, e.proven = best, true
		return best
	}
	if e.failed {
		// Searched without a bound: the group genuinely has no plan.
		e.w, e.proven = nil, true
		return nil
	}
	e.failed = true
	if limit > e.lb {
		e.lb = limit
	}
	return nil
}

// joinCost is the one place a join step is priced: method over left
// (the probe side of a broadcast) and right (its build side), given the
// children's summed cost and the group's output cost. probeIsBroadcast
// says the probe child's winner is itself a broadcast join, so — unless
// chaining is disabled — this join shares its map job and pays no
// boundary cost. ok is false when the configuration rules the method
// out for these sides: broadcast disabled, or a build whose upper-bound
// size exceeds the memory budget (Mmax derated by riskFactor per join
// inside the build).
func (m *memo) joinCost(method plan.JoinMethod, left, right uint64, childCost, outCost float64, probeIsBroadcast bool) (cost float64, ok bool) {
	lp, rp := m.propsFor(left), m.propsFor(right)
	switch method {
	case plan.Repartition:
		return childCost + cRep*(lp.bytes()+rp.bytes()) + outCost + cJob, true
	case plan.BroadcastJoin:
		if m.cfg.DisableBroadcast {
			return 0, false
		}
		budget := m.cfg.Mmax
		for joins := bits.OnesCount64(right) - 1; joins > 0; joins-- {
			budget /= riskFactor
		}
		if rp.bytesUp() > budget && m.cfg.Mmax > 0 {
			return 0, false
		}
		probeBytes := lp.bytes()
		c := childCost + cProbe*probeBytes +
			cBuild*rp.bytes()*replication(m.cfg, probeBytes) + outCost
		if m.cfg.DisableChaining || !probeIsBroadcast {
			c += cJob
		}
		return c, true
	}
	return 0, false
}

// splits enumerates the subset decompositions to consider: connected
// (non-cartesian) splits when any exist, otherwise all splits; each
// unordered pair appears once.
func (m *memo) splits(mask uint64) []uint64 {
	var connected, all []uint64
	lowest := uint64(1) << uint(bits.TrailingZeros64(mask))
	for s := (mask - 1) & mask; s > 0; s = (s - 1) & mask {
		if s&lowest == 0 {
			continue // canonical: keep the lowest rel on the left
		}
		o := mask &^ s
		all = append(all, s)
		if m.crossEdge(s, o) && m.connected(s) && m.connected(o) {
			connected = append(connected, s)
		}
	}
	if len(connected) > 0 {
		return connected
	}
	return all
}

// connected reports whether the subset forms a connected join subgraph.
func (m *memo) connected(mask uint64) bool {
	if mask == 0 {
		return false
	}
	start := uint64(1) << uint(bits.TrailingZeros64(mask))
	reached := start
	for {
		grown := reached
		for i := 0; i < len(m.adj); i++ {
			if reached&(1<<uint(i)) != 0 {
				grown |= m.adj[i] & mask
			}
		}
		if grown == reached {
			break
		}
		reached = grown
	}
	return reached == mask
}

// crossEdge reports whether a join predicate connects the two subsets.
func (m *memo) crossEdge(a, b uint64) bool {
	return slices.ContainsFunc(m.edges, func(e joinEdge) bool { return e.crosses(a, b) })
}

// crosses reports whether the edge joins a relation of a to one of b.
func (e joinEdge) crosses(a, b uint64) bool {
	lbit, rbit := uint64(1)<<uint(e.li), uint64(1)<<uint(e.ri)
	return (a&lbit != 0 && b&rbit != 0) || (a&rbit != 0 && b&lbit != 0)
}

// attachPreds sets a join's predicates for its sides' masks: the join
// conditions that connect the two sides and the residuals that first
// become evaluable over their union.
func (m *memo) attachPreds(j *plan.Join, lmask, rmask uint64) {
	mask := lmask | rmask
	j.Conds, j.Residual = nil, nil
	for _, e := range m.edges {
		if e.crosses(lmask, rmask) {
			j.Conds = append(j.Conds, e.pred)
		}
	}
	for _, res := range m.residuals {
		if res.mask&mask == res.mask && res.mask&lmask != res.mask && res.mask&rmask != res.mask {
			j.Residual = append(j.Residual, res.pred)
		}
	}
}

// extract materializes the winning physical tree for a subset. Leaf
// groups are handled by mask alone: a winner adopted from a previous
// round may reference leaf children that were never searched this
// round.
func (m *memo) extract(mask uint64) plan.Node {
	if bits.OnesCount64(mask) == 1 {
		return &plan.Scan{Rel: m.block.Rels[bits.TrailingZeros64(mask)]}
	}
	e := m.entries[mask]
	if e == nil || e.w == nil {
		return nil
	}
	w := e.w
	j := &plan.Join{
		Method: w.method,
		Left:   m.extract(w.leftMask),
		Right:  m.extract(w.rightMask),
	}
	m.attachPreds(j, w.leftMask, w.rightMask)
	p := m.propsFor(mask)
	j.EstCard = p.card
	j.EstBytes = p.bytes()
	j.CostVal = w.cost
	return j
}

// markChains applies the broadcast-chain rule of §5.2: walking down the
// probe (left) spine, consecutive broadcast joins whose build sides
// simultaneously fit in Mmax are marked chained, which the compiler
// later translates to a single map-only job.
func markChains(root plan.Node, cfg Config) {
	var visit func(n plan.Node)
	visit = func(n plan.Node) {
		j, ok := n.(*plan.Join)
		if !ok {
			return
		}
		visit(j.Right)
		if j.Method != plan.BroadcastJoin {
			visit(j.Left)
			return
		}
		// Collect the broadcast spine below j (top-down) and recurse
		// into every member's build side and the chain's probe input.
		spine := []*plan.Join{j}
		cur := j
		for {
			child, ok := cur.Left.(*plan.Join)
			if !ok || child.Method != plan.BroadcastJoin {
				break
			}
			cur = child
			spine = append(spine, cur)
			visit(cur.Right)
		}
		probeNode := cur.Left
		visit(probeNode)

		// Greedy bottom-up chaining. Merging a child into its parent's
		// map job saves the intermediate write and re-read plus one job
		// boundary, but makes the parent's build load replicate across
		// the (usually larger) bottom probe's tasks instead of the
		// intermediate's — so a chain is taken only when it pays off
		// and the accumulated builds still fit in memory together.
		probeBytes := probeNode.Bytes()
		budget := cur.Right.Bytes()
		for i := len(spine) - 2; i >= 0; i-- {
			parent, child := spine[i], spine[i+1]
			benefit := (cOut+cProbe)*child.EstBytes + cJob
			extraRepl := replication(cfg, probeBytes) - replication(cfg, child.EstBytes)
			cost := cBuild * parent.Right.Bytes() * extraRepl
			memOK := cfg.Mmax <= 0 || budget+parent.Right.Bytes() <= cfg.Mmax
			if memOK && benefit >= cost {
				child.Chained = true
				budget += parent.Right.Bytes()
			} else {
				// The chain breaks: the parent starts a fresh map job
				// whose probe is the child's materialized output.
				probeBytes = child.EstBytes
				budget = parent.Right.Bytes()
			}
		}
	}
	visit(root)
}

// costTree recomputes the cumulative CostVal of every join in the tree
// under the cost constants, honoring chain marks: a chained child
// neither writes its output nor is re-read by its parent.
func costTree(n plan.Node, cfg Config) float64 {
	j, ok := n.(*plan.Join)
	if !ok {
		return 0
	}
	cost := costTree(j.Left, cfg) + costTree(j.Right, cfg)
	out := cOut * j.EstBytes
	if !j.Chained {
		cost += cJob
	}
	switch j.Method {
	case plan.Repartition:
		cost += cRep*(j.Left.Bytes()+j.Right.Bytes()) + out
	case plan.BroadcastJoin:
		cost += cProbe*j.Left.Bytes() +
			cBuild*j.Right.Bytes()*replication(cfg, j.Left.Bytes()) + out
		if lc, ok := j.Left.(*plan.Join); ok && lc.Chained {
			// The chained child pipes records: remove its output write
			// and this join's probe read of that intermediate.
			cost -= (cOut + cProbe) * lc.EstBytes
		}
	}
	j.CostVal = cost
	return cost
}
