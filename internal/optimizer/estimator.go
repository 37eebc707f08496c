package optimizer

import (
	"fmt"
	"slices"

	"dyno/internal/plan"
)

// Estimator exposes the memo's cardinality estimation for externally
// built plans. The static baselines (Jaql's FROM-order left-deep plans,
// the best-left-deep search) construct physical trees by hand and use
// the estimator to fill in cardinalities, attach predicates, and cost
// them with the same formulas the optimizer uses.
type Estimator struct{ m *memo }

// NewEstimator prepares estimation state for a join block.
func NewEstimator(block *plan.JoinBlock, cfg Config) *Estimator {
	return &Estimator{m: newMemo(block, cfg)}
}

// maskFor resolves a node's alias set to the block's relation bitmask.
func (e *Estimator) maskFor(n plan.Node) (uint64, error) {
	var mask uint64
	for _, a := range n.Aliases() {
		idx := -1
		for i, r := range e.m.block.Rels {
			if r.Covers(a) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return 0, fmt.Errorf("optimizer: alias %q not in block", a)
		}
		mask |= 1 << uint(idx)
	}
	if mask == 0 {
		return 0, fmt.Errorf("optimizer: node covers no relations")
	}
	return mask, nil
}

// Annotate fills EstCard/EstBytes on every join of a hand-built tree
// and attaches the block's join predicates and residual filters at the
// joins where they become evaluable, then recomputes costs (including
// chain marks already present on the tree).
func (e *Estimator) Annotate(root plan.Node) error {
	if err := e.annotate(root); err != nil {
		return err
	}
	costTree(root, e.m.cfg)
	return nil
}

func (e *Estimator) annotate(n plan.Node) error {
	j, ok := n.(*plan.Join)
	if !ok {
		return nil
	}
	if err := e.annotate(j.Left); err != nil {
		return err
	}
	if err := e.annotate(j.Right); err != nil {
		return err
	}
	mask, err := e.maskFor(j)
	if err != nil {
		return err
	}
	lmask, err := e.maskFor(j.Left)
	if err != nil {
		return err
	}
	p := e.m.propsFor(mask)
	j.EstCard = p.card
	j.EstBytes = p.bytes()
	e.m.attachPreds(j, lmask, mask&^lmask)
	return nil
}

// HasEdge reports whether any equi-join predicate connects a relation
// in the bound set to the candidate (for cartesian-avoiding order
// enumeration).
func (e *Estimator) HasEdge(bound map[int]bool, candidate int) bool {
	return slices.ContainsFunc(e.m.edges, func(edge joinEdge) bool {
		return bound[edge.li] && edge.ri == candidate || bound[edge.ri] && edge.li == candidate
	})
}
