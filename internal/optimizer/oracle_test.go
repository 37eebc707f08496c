package optimizer

import (
	"math"
	"math/bits"

	"dyno/internal/plan"
)

// exhaustive is the reference the memo's search is held to: a fresh
// memo, every split of every group enumerated, no bounds, no pruning
// and no reuse. It reports the same counters as Optimize (pruned and
// reused stay zero), so tests compare plans, costs and search work.
func exhaustive(block *plan.JoinBlock, cfg Config) (*Result, error) {
	m, err := newMemoChecked(block, cfg)
	if err != nil {
		return nil, err
	}
	return m.result(m.exhaustiveOptimize(m.full()))
}

// exhaustiveOptimize is memo.optimize without branch-and-bound: each
// group is expanded once, over all its splits, and its optimum (or the
// absence of any plan) is proven outright. It recurses only into
// itself, so a fault in the bounded search cannot leak into the
// reference.
func (m *memo) exhaustiveOptimize(mask uint64) *winner {
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
	m.expanded++
	outCost := cOut * m.propsFor(mask).bytes()
	var best *winner
	for _, s := range m.splits(mask) {
		lmask, rmask := s, mask&^s
		lw, rw := m.exhaustiveOptimize(lmask), m.exhaustiveOptimize(rmask)
		if lw == nil || rw == nil {
			continue
		}
		childCost := lw.cost + rw.cost
		improve := func(c float64, method plan.JoinMethod, left, right uint64) {
			m.considered++
			if best == nil || c < best.cost {
				best = &winner{cost: c, method: method, leftMask: left, rightMask: right}
			}
		}

		// Repartition join: the cost is symmetric.
		c, _ := m.joinCost(plan.Repartition, lmask, rmask, childCost, outCost, false)
		improve(c, plan.Repartition, lmask, rmask)
		// Broadcast join: both build orientations are costed.
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
	// Exhaustively searched: best is the optimum, or nil when the group
	// genuinely has no plan.
	e.w, e.proven = best, true
	return best
}
