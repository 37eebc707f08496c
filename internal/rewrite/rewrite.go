// Package rewrite implements the heuristic rewrites Jaql's compiler
// applies before cost-based optimization (§3 step 2): splitting the
// WHERE clause into conjuncts, pushing local predicates and UDFs down to
// their scans (filter pushdown), classifying the remaining predicates
// into equi-join conditions and non-local residual filters, and
// assembling the join block handed to the optimizer.
package rewrite

import (
	"fmt"

	"dyno/internal/expr"
	"dyno/internal/plan"
	"dyno/internal/sqlparse"
)

// Compiled is the result of the rewrite phase: one join block (our SQL
// subset yields exactly one) plus the post-join operators the compiler
// schedules after it.
type Compiled struct {
	Block *plan.JoinBlock
}

// Compile rewrites a parsed query into a join block.
func Compile(q *sqlparse.Query) (*Compiled, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("rewrite: query has no FROM relations")
	}
	localPreds := make(map[string][]expr.Expr)
	var joinPreds, nonLocal []expr.Expr

	for _, conj := range expr.SplitConjuncts(q.Where) {
		aliases := expr.SortedAliases(conj)
		switch len(aliases) {
		case 0:
			// Constant predicate: keep as a residual filter.
			nonLocal = append(nonLocal, conj)
		case 1:
			// Local predicate/UDF: push down to the scan.
			localPreds[aliases[0]] = append(localPreds[aliases[0]], conj)
		default:
			if _, _, ok := expr.EquiJoinCols(conj); ok && len(aliases) == 2 {
				joinPreds = append(joinPreds, conj)
			} else {
				// Non-local predicate: a UDF over a join result, a
				// non-equi condition, or a 3+-way predicate. These
				// cannot be pushed down and are applied above the join
				// that first covers their aliases (§3).
				nonLocal = append(nonLocal, conj)
			}
		}
	}

	block := &plan.JoinBlock{JoinPreds: joinPreds, NonLocal: nonLocal}
	for _, ref := range q.From {
		leaf := &plan.Leaf{
			Table: ref.Table,
			Alias: ref.Alias,
			Pred:  expr.Conjoin(localPreds[ref.Alias]),
		}
		block.Rels = append(block.Rels, &plan.Rel{
			Name:    ref.Table,
			Aliases: []string{ref.Alias},
			Leaf:    leaf,
		})
	}
	return &Compiled{Block: block}, nil
}

// LiveColumns computes, for every FROM alias, the set of top-level
// fields the query references anywhere (projection, predicates,
// grouping, ordering). A nil set means the whole record is needed —
// SELECT *, whole-record UDF arguments like checkid(rv, t), or array
// subscripts directly under the alias. The projection-pushdown
// optimization prunes rows to these sets as soon as they enter a job,
// shrinking shuffle and materialization volumes.
func LiveColumns(q *sqlparse.Query) map[string]map[string]bool {
	live := make(map[string]map[string]bool, len(q.From))
	for _, ref := range q.From {
		live[ref.Alias] = map[string]bool{}
	}
	whole := func(alias string) { live[alias] = nil }

	var exprs []expr.Expr
	for _, s := range q.Select {
		if s.Star {
			for a := range live {
				whole(a)
			}
			return live
		}
		exprs = append(exprs, s.E)
	}
	if q.Where != nil {
		exprs = append(exprs, q.Where)
	}
	exprs = append(exprs, q.GroupBy...)
	for _, o := range q.OrderBy {
		exprs = append(exprs, o.E)
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		for _, p := range expr.ColumnPaths(e) {
			alias := p.Head()
			set, known := live[alias]
			if !known {
				// ORDER BY referencing a select output name, not an
				// alias.
				continue
			}
			if len(p) < 2 || p[1].IsIndex {
				whole(alias)
				continue
			}
			if set != nil {
				set[p[1].Name] = true
			}
		}
	}
	return live
}
