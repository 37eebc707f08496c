// Package rowops implements the record-level semantics of the
// post-join operators — projection, aggregation, and ordering — shared
// by the distributed engine's reducers and the naive reference
// evaluator, so both compute identical results by construction.
package rowops

import (
	"sort"
	"strconv"
	"sync"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/sqlparse"
)

// fieldScratch pools the transient []data.Field slices Project and
// AggregateGroup assemble per row/group. data.Object copies its field
// arguments into the new record, so the scratch never escapes and can
// be recycled immediately after the call.
var fieldScratch = sync.Pool{
	New: func() any { s := make([]data.Field, 0, 16); return &s },
}

// Project evaluates a non-aggregate select list over a row. A star item
// returns the row unchanged.
func Project(ectx *expr.Ctx, items []sqlparse.SelectItem, row data.Value) data.Value {
	sp := fieldScratch.Get().(*[]data.Field)
	fields := (*sp)[:0]
	for _, it := range items {
		if it.Star {
			fieldScratch.Put(sp)
			return row
		}
		fields = append(fields, data.Field{Name: it.Name(), Value: it.E.Eval(ectx, row)})
	}
	out := data.Object(fields...)
	clear(fields)
	*sp = fields[:0]
	fieldScratch.Put(sp)
	return out
}

// AggregateGroup computes one output record for a group of rows.
func AggregateGroup(ectx *expr.Ctx, items []sqlparse.SelectItem, group []data.Value) data.Value {
	sp := fieldScratch.Get().(*[]data.Field)
	fields := (*sp)[:0]
	for _, it := range items {
		fields = append(fields, data.Field{Name: it.Name(), Value: aggValue(ectx, it, group)})
	}
	out := data.Object(fields...)
	clear(fields)
	*sp = fields[:0]
	fieldScratch.Put(sp)
	return out
}

func aggValue(ectx *expr.Ctx, it sqlparse.SelectItem, group []data.Value) data.Value {
	if it.Agg == "" {
		// Scalar item: functionally dependent on the group key.
		return it.E.Eval(ectx, group[0])
	}
	return foldGroup(ectx, it, group).result(it.Agg)
}

// fold is one aggregate's state: the count of non-null values, their
// sum, and for min and max the extreme so far (null before any value).
type fold struct {
	n   int64
	sum float64
	v   data.Value
}

// foldGroup folds an aggregate item's values over a group of rows.
func foldGroup(ectx *expr.Ctx, it sqlparse.SelectItem, group []data.Value) fold {
	var f fold
	if it.Agg == "count" && it.Star {
		f.n = int64(len(group))
		return f
	}
	for _, rec := range group {
		f.add(it.Agg, it.E.Eval(ectx, rec))
	}
	return f
}

// add folds one value into the state; a null changes nothing.
func (f *fold) add(agg string, x data.Value) {
	if x.IsNull() {
		return
	}
	f.n++
	f.sum += x.Float()
	if (agg == "min" || agg == "max") && (f.v.IsNull() ||
		(agg == "min" && data.Compare(x, f.v) < 0) ||
		(agg == "max" && data.Compare(x, f.v) > 0)) {
		f.v = x
	}
}

// result is the aggregate's value: avg over no values is null, sum 0.
func (f fold) result(agg string) data.Value {
	switch agg {
	case "count":
		return data.Int(f.n)
	case "sum":
		return data.Double(f.sum)
	case "avg":
		if f.n == 0 {
			return data.Null()
		}
		return data.Double(f.sum / float64(f.n))
	}
	return f.v
}

// Sort orders projected output records by the query's ORDER BY. Keys
// resolve as column paths over the record, falling back to select-item
// output names for single-component paths.
//
// Keys are evaluated once per row up front (not per comparison inside
// the comparator), then the rows are stably sorted on the precomputed
// keys — the same comparator verdicts in the same stable sort, so the
// ordering is identical to sorting with inline key evaluation.
func Sort(rows []data.Value, order []sqlparse.OrderItem) {
	if len(rows) < 2 || len(order) == 0 {
		return
	}
	m := len(order)
	keys := make([]data.Value, len(rows)*m)
	for i, row := range rows {
		for j, item := range order {
			keys[i*m+j] = sortKey(row, item)
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]*m:], keys[idx[b]*m:]
		for j, item := range order {
			c := data.Compare(ka[j], kb[j])
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]data.Value, len(rows))
	for i, from := range idx {
		sorted[i] = rows[from]
	}
	copy(rows, sorted)
}

func sortKey(row data.Value, item sqlparse.OrderItem) data.Value {
	ectx := &expr.Ctx{}
	v := item.E.Eval(ectx, row)
	if !v.IsNull() {
		return v
	}
	// Projection flattens rows to their output names, so "r.id"
	// resolves as the field "id" and "revenue" as itself.
	if c, ok := item.E.(*expr.Col); ok {
		if last := c.Path[len(c.Path)-1]; !last.IsIndex {
			return row.FieldOr(last.Name)
		}
	}
	return v
}

// GroupKey evaluates the GROUP BY expressions over a row into a
// composite key.
func GroupKey(ectx *expr.Ctx, groupBy []expr.Expr, row data.Value) data.Value {
	vals := make([]data.Value, len(groupBy))
	for i, g := range groupBy {
		vals[i] = g.Eval(ectx, row)
	}
	return data.Array(vals...)
}

// Partial aggregation (MapReduce combiner support): PartialAggregate
// folds a group of raw rows into one mergeable partial record, and
// MergeAggregates folds partials into the final output record,
// producing exactly what AggregateGroup would over the union of the
// raw rows. count becomes a summable count, avg carries (sum, count),
// min/max merge by comparison, and scalar items pass through.

// partialField names the i-th item's slot in a partial record.
func partialField(i int, suffix string) string {
	return "p" + strconv.Itoa(i) + suffix
}

// PartialAggregate reduces raw rows to a single mergeable record.
func PartialAggregate(ectx *expr.Ctx, items []sqlparse.SelectItem, group []data.Value) data.Value {
	fields := make([]data.Field, 0, len(items)*2)
	for i, it := range items {
		switch it.Agg {
		case "":
			fields = append(fields, data.Field{Name: partialField(i, ""), Value: it.E.Eval(ectx, group[0])})
		case "sum", "avg":
			f := foldGroup(ectx, it, group)
			fields = append(fields,
				data.Field{Name: partialField(i, "_sum"), Value: data.Double(f.sum)},
				data.Field{Name: partialField(i, "_cnt"), Value: data.Int(f.n)})
		default:
			fields = append(fields, data.Field{Name: partialField(i, ""), Value: foldGroup(ectx, it, group).result(it.Agg)})
		}
	}
	return data.Object(fields...)
}

// MergeAggregates combines partial records into the final output
// record with the select items' output names.
func MergeAggregates(items []sqlparse.SelectItem, partials []data.Value) data.Value {
	fields := make([]data.Field, 0, len(items))
	for i, it := range items {
		var f fold
		for _, p := range partials {
			switch it.Agg {
			case "count":
				f.n += p.FieldOr(partialField(i, "")).Int()
			case "sum", "avg":
				f.sum += p.FieldOr(partialField(i, "_sum")).Float()
				f.n += p.FieldOr(partialField(i, "_cnt")).Int()
			default:
				f.add(it.Agg, p.FieldOr(partialField(i, "")))
			}
		}
		v := f.result(it.Agg)
		if it.Agg == "" {
			v = partials[0].FieldOr(partialField(i, ""))
		}
		fields = append(fields, data.Field{Name: it.Name(), Value: v})
	}
	return data.Object(fields...)
}
