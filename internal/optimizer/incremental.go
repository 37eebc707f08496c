// Incremental optimization: DYNOPT re-optimizes after every checkpoint
// (§5.1), but each round's block differs from the previous one only
// where executed sub-plans were replaced by materialized relations with
// measured statistics. Rebuilding the memo from scratch every round
// makes optimizer time grow with round count and join-graph size; an
// Incremental session instead carries the memo across rounds,
// invalidating only groups whose bitmask intersects the affected
// leaves, and re-costs the previous winner to seed the
// branch-and-bound upper bound for the groups it must re-enumerate.
package optimizer

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"

	"dyno/internal/plan"
	"dyno/internal/stats"
)

// Incremental is a per-query optimization session that reuses memo
// state between successive Optimize calls over evolving versions of the
// same join block. Reuse is sound only when the blocks are related the
// way core.Engine relates them — surviving relations keep their
// *plan.Rel identity and order while executed sub-plans collapse into
// fresh relations appended at the end — and is verified structurally:
// when a block cannot be mapped onto the previous one the session
// silently falls back to a from-scratch search. Not safe for
// concurrent use.
type Incremental struct {
	cfg Config

	prev     *memo
	prevRels []*plan.Rel
	prevFPs  []uint64
	prevPlan *shapeNode
}

// NewIncremental starts a session with the given search configuration.
func NewIncremental(cfg Config) *Incremental { return &Incremental{cfg: cfg} }

// Optimize behaves exactly like the package-level Optimize — same plan,
// same errors — but reuses unaffected memo groups from the previous
// round.
func (inc *Incremental) Optimize(block *plan.JoinBlock) (*Result, error) {
	m, err := newMemoChecked(block, inc.cfg)
	if err != nil {
		return nil, err
	}
	seed := math.Inf(1)
	if inc.prev != nil {
		seed = inc.adopt(m, block)
	}
	res, err := m.run(seed)
	if err != nil {
		inc.prev, inc.prevRels, inc.prevFPs, inc.prevPlan = nil, nil, nil, nil
		return nil, err
	}
	inc.remember(m, block)
	return res, nil
}

// remember snapshots the round's memo and the identity of its leaves so
// the next round can map its block back onto this one.
func (inc *Incremental) remember(m *memo, block *plan.JoinBlock) {
	inc.prev = m
	inc.prevRels = append([]*plan.Rel(nil), block.Rels...)
	inc.prevFPs = make([]uint64, len(block.Rels))
	for i, r := range block.Rels {
		inc.prevFPs[i] = statsFP(r.Stats)
	}
	inc.prevPlan = m.shape(m.full())
}

// adopt seeds the fresh memo from the previous round's: groups composed
// entirely of surviving relations (same *plan.Rel, same statistics)
// keep their proven winners and lower bounds under a bit relabeling,
// and the previous winning plan — executed sub-plans collapsed to
// their materialized relations — is re-costed under the new statistics
// to produce the branch-and-bound seed it returns (+Inf when no
// mapping exists). The relabeling is order-preserving, so a translated
// winner is exactly what a fresh search of that group would have
// chosen, tie-breaks included.
func (inc *Incremental) adopt(m *memo, block *plan.JoinBlock) float64 {
	inf := math.Inf(1)
	oldIdx := make(map[*plan.Rel]int, len(inc.prevRels))
	aliasOld := map[string]int{}
	for i, r := range inc.prevRels {
		oldIdx[r] = i
		for _, a := range r.Aliases {
			aliasOld[a] = i
		}
	}
	// Map every new relation to the old relation(s) it came from:
	// survivors by pointer identity (statistics unchanged), new
	// intermediates by the set of old relations their aliases cover.
	oldBitToNew := make(map[int]uint64)
	collapsed := make(map[uint64]uint64)
	var survivors uint64
	for i, r := range block.Rels {
		if j, ok := oldIdx[r]; ok && inc.prevFPs[j] == statsFP(r.Stats) {
			oldBitToNew[j] = 1 << uint(i)
			survivors |= 1 << uint(j)
			continue
		}
		var om uint64
		ok := true
		for _, a := range r.Aliases {
			j, found := aliasOld[a]
			if !found {
				ok = false
				break
			}
			om |= 1 << uint(j)
		}
		if !ok || om == 0 {
			return inf
		}
		aliases := 0
		for rem := om; rem != 0; rem &= rem - 1 {
			aliases += len(inc.prevRels[bits.TrailingZeros64(rem)].Aliases)
		}
		if aliases != len(r.Aliases) {
			return inf // partial coverage: not a clean collapse
		}
		collapsed[om] = 1 << uint(i)
	}
	translateSurvivors := func(old uint64) uint64 {
		var out uint64
		for rem := old; rem != 0; rem &= rem - 1 {
			out |= oldBitToNew[bits.TrailingZeros64(rem)]
		}
		return out
	}
	// Install every survivor-pure group: proven winners verbatim
	// (children of a proven winner are themselves survivor-pure and
	// proven, so the closure extract needs is preserved), failed-search
	// lower bounds as a head start for bounded searches.
	for omask, oe := range inc.prev.entries {
		if oe == nil || omask&^survivors != 0 || bits.OnesCount64(omask) <= 1 {
			continue
		}
		nmask := translateSurvivors(omask)
		if oe.proven && oe.w != nil {
			w := *oe.w
			w.leftMask = translateSurvivors(oe.w.leftMask)
			w.rightMask = translateSurvivors(oe.w.rightMask)
			m.entries[nmask] = &entry{w: &w, proven: true, lb: math.Inf(-1)}
			m.reused++
		} else if !oe.proven && !math.IsInf(oe.lb, -1) {
			if ne := m.entries[nmask]; ne == nil {
				m.entries[nmask] = &entry{lb: oe.lb}
			} else if !ne.proven && oe.lb > ne.lb {
				ne.lb = oe.lb
			}
		}
	}
	// Seed: the previous winner with executed sub-trees collapsed to
	// leaves is a valid plan for the new block; its cost under the new
	// statistics upper-bounds the new optimum.
	ts := translateShape(inc.prevPlan, func(old uint64) (uint64, bool) {
		var out uint64
		rem := old
		for om, nb := range collapsed {
			if rem&om == om {
				out |= nb
				rem &^= om
			} else if rem&om != 0 {
				return 0, false // straddles a collapsed sub-plan
			}
		}
		if rem&^survivors != 0 {
			return 0, false
		}
		return out | translateSurvivors(rem), true
	})
	if ts == nil {
		return inf
	}
	if cost, ok := m.costShape(ts); ok {
		return cost
	}
	return inf
}

// shapeNode is a structural snapshot of a winning plan — masks,
// methods, orientation — detached from the memo that produced it.
type shapeNode struct {
	mask        uint64
	leaf        bool
	method      plan.JoinMethod
	left, right *shapeNode
}

// shape captures the winning tree of a group as shapeNodes.
func (m *memo) shape(mask uint64) *shapeNode {
	if bits.OnesCount64(mask) == 1 {
		return &shapeNode{mask: mask, leaf: true}
	}
	e := m.entries[mask]
	if e == nil || e.w == nil {
		return nil
	}
	l, r := m.shape(e.w.leftMask), m.shape(e.w.rightMask)
	if l == nil || r == nil {
		return nil
	}
	return &shapeNode{mask: mask, method: e.w.method, left: l, right: r}
}

// translateShape rewrites a shape's masks through tr; a subtree whose
// whole mask maps to a single bit collapses into a leaf (its interior
// was executed and materialized).
func translateShape(s *shapeNode, tr func(uint64) (uint64, bool)) *shapeNode {
	if s == nil {
		return nil
	}
	nm, ok := tr(s.mask)
	if !ok || nm == 0 {
		return nil
	}
	if s.leaf || bits.OnesCount64(nm) == 1 {
		return &shapeNode{mask: nm, leaf: true}
	}
	l, r := translateShape(s.left, tr), translateShape(s.right, tr)
	if l == nil || r == nil {
		return nil
	}
	return &shapeNode{mask: nm, method: s.method, left: l, right: r}
}

// costShape prices a fixed plan shape under this memo's statistics with
// exactly the search's cost formulas (joinCost), including chain
// anticipation and broadcast memory eligibility (an ineligible shape
// yields no bound).
func (m *memo) costShape(s *shapeNode) (float64, bool) {
	if s.leaf {
		return 0, true
	}
	lc, ok := m.costShape(s.left)
	if !ok {
		return 0, false
	}
	rc, ok := m.costShape(s.right)
	if !ok {
		return 0, false
	}
	outCost := cOut * m.propsFor(s.mask).bytes()
	probeIsBroadcast := !s.left.leaf && s.left.method == plan.BroadcastJoin
	return m.joinCost(s.method, s.left.mask, s.right.mask, lc+rc, outCost, probeIsBroadcast)
}

// statsFP fingerprints the statistics fields the search actually reads
// (cardinality, record size, per-column NDVs); matching fingerprints
// make two relations interchangeable for costing.
func statsFP(s stats.TableStats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	put(s.Card)
	put(s.AvgRecSize)
	cols := make([]string, 0, len(s.Cols))
	for c := range s.Cols {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		h.Write([]byte(c))
		put(s.Cols[c].NDV)
	}
	return h.Sum64()
}
