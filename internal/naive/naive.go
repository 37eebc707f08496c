// Package naive is a reference query evaluator: nested-loop joins over
// the catalog with direct predicate evaluation, no optimization, no
// cluster. It exists to cross-check the distributed engine — every
// plan DYNO produces must return exactly the rows this evaluator
// returns. It shares the record-level operator semantics with the
// engine through package rowops.
package naive

import (
	"fmt"
	"sort"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/rowops"
	"dyno/internal/sqlparse"
)

// Catalog resolves table names to files of raw records.
type Catalog interface {
	Lookup(name string) (*dfs.File, bool)
}

// Evaluate runs the query by brute force and returns the projected
// output rows (after GROUP BY / ORDER BY / LIMIT). Joins are nested
// loops, but each WHERE conjunct is applied as soon as all its aliases
// are bound so that intermediate results stay near the final size.
func Evaluate(q *sqlparse.Query, cat Catalog, reg *expr.Registry) ([]data.Value, error) {
	conjuncts := expr.SplitConjuncts(q.Where)
	applied := make([]bool, len(conjuncts))
	bound := map[string]bool{}
	ectx := &expr.Ctx{Reg: reg}

	rows := []data.Value{data.Object()}
	for _, ref := range q.From {
		f, ok := cat.Lookup(ref.Table)
		if !ok {
			return nil, fmt.Errorf("naive: unknown table %q", ref.Table)
		}
		bound[ref.Alias] = true
		// Conjuncts that become fully bound with this relation.
		var active []expr.Expr
		for i, c := range conjuncts {
			if applied[i] {
				continue
			}
			ok := true
			for a := range expr.Aliases(c) {
				if !bound[a] {
					ok = false
					break
				}
			}
			if ok {
				applied[i] = true
				active = append(active, c)
			}
		}
		// Pick one equi-join conjunct linking the new relation to the
		// bound prefix to index on; the rest re-verify per row.
		var probeLeft, keyRight data.Path
		for _, c := range active {
			l, r, ok := expr.EquiJoinCols(c)
			if !ok {
				continue
			}
			switch {
			case l.Head() == ref.Alias && bound[r.Head()]:
				probeLeft, keyRight = r, l
			case r.Head() == ref.Alias && bound[l.Head()]:
				probeLeft, keyRight = l, r
			default:
				continue
			}
			break
		}
		wrapped := make([]data.Value, 0, f.NumRecords())
		for _, rec := range f.AllRecords() {
			wrapped = append(wrapped, data.Object(data.Field{Name: ref.Alias, Value: rec}))
		}
		var index map[uint64][]data.Value
		if keyRight != nil {
			index = make(map[uint64][]data.Value, len(wrapped))
			for _, w := range wrapped {
				k := data.Hash64(keyRight.Eval(w))
				index[k] = append(index[k], w)
			}
		}
		var next []data.Value
		for _, left := range rows {
			cands := wrapped
			if index != nil {
				cands = index[data.Hash64(probeLeft.Eval(left))]
			}
		recs:
			for _, w := range cands {
				row := data.MergeObjects(left, w)
				for _, c := range active {
					if !c.Eval(ectx, row).Truthy() {
						continue recs
					}
				}
				next = append(next, row)
			}
		}
		rows = next
	}
	if ectx.Err != nil {
		return nil, ectx.Err
	}

	var out []data.Value
	if q.HasAggregates() || len(q.GroupBy) > 0 {
		out = aggregate(ectx, q, rows)
	} else {
		for _, row := range rows {
			out = append(out, rowops.Project(ectx, q.Select, row))
		}
	}
	if ectx.Err != nil {
		return nil, ectx.Err
	}
	if len(q.OrderBy) > 0 {
		rowops.Sort(out, q.OrderBy)
	}
	if q.Limit >= 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// aggregate groups rows by the normalized key of their group key —
// data.Compare equality, so 0 and -0.0, 2 and 2.0, and NaNs group
// together — and returns the groups in data.Compare order.
func aggregate(ectx *expr.Ctx, q *sqlparse.Query, rows []data.Value) []data.Value {
	groups := map[string][]data.Value{}
	var order []string
	for _, row := range rows {
		k := data.NormKey(rowops.GroupKey(ectx, q.GroupBy, row))
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	sort.Strings(order)
	var out []data.Value
	for _, k := range order {
		out = append(out, rowops.AggregateGroup(ectx, q.Select, groups[k]))
	}
	return out
}

// SortForComparison canonically orders rows so engine output (whose
// order depends on task scheduling) can be compared to the oracle.
func SortForComparison(rows []data.Value) []data.Value {
	out := append([]data.Value(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		return data.Compare(out[a], out[b]) < 0
	})
	return out
}

// ApproxEqual compares two values, treating floating-point numbers as
// equal within a relative tolerance. Aggregates computed by the engine
// sum group members in task order, which differs from the oracle's row
// order, so double-precision sums can differ in the last bits.
func ApproxEqual(a, b data.Value, tol float64) bool {
	if a.Kind() == data.KindDouble || b.Kind() == data.KindDouble {
		if !a.IsNumeric() || !b.IsNumeric() {
			return false
		}
		af, bf := a.Float(), b.Float()
		diff := af - bf
		if diff < 0 {
			diff = -diff
		}
		mag := 1.0
		if m := abs(af); m > mag {
			mag = m
		}
		if m := abs(bf); m > mag {
			mag = m
		}
		return diff <= tol*mag
	}
	switch a.Kind() {
	case data.KindArray:
		if b.Kind() != data.KindArray || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !ApproxEqual(a.Index(i), b.Index(i), tol) {
				return false
			}
		}
		return true
	case data.KindObject:
		if b.Kind() != data.KindObject || a.Len() != b.Len() {
			return false
		}
		bf := b.Fields()
		for i, f := range a.Fields() {
			if bf[i].Name != f.Name || !ApproxEqual(f.Value, bf[i].Value, tol) {
				return false
			}
		}
		return true
	default:
		return data.Equal(a, b)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
