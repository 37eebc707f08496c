package physop

import (
	"fmt"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/rowops"
)

// The oracle: the record-at-a-time map kernels the split kernels
// replaced — scanMap, shuffleMap and probeMap over sourceRowFn's rows,
// verbatim — assembled as Compile assembled them. The differential
// tests run every operator both ways and require the same rows in the
// same order, the same statistics and the same float of UDF cost.

// recordMap is a record-at-a-time map, the oracle kernels' shape.
type recordMap func(mc *mapreduce.MapCtx, rec data.Value)

// perRecord runs a record-at-a-time map as a map kernel: it walks the
// split's records in order.
func perRecord(m recordMap) mapreduce.MapFunc {
	return func(mc *mapreduce.MapCtx, d *batch.Data) {
		for _, rec := range d.Records() {
			m(mc, rec)
		}
	}
}

// oracleCompile is Compile with the oracle's map kernel; the reduce and
// combine kernels are Compile's own.
func oracleCompile(op *OpSpec, input int, sample data.Value) (Kernels, error) {
	k, err := Compile(op, input, sample)
	if err != nil {
		return k, err
	}
	prune := NewPruner(op.Prune)
	switch op.Kind {
	case Scan:
		k.Map = perRecord(scanMap(sourceRowFn(deref(op.Source), sample), prune))
	case Repartition:
		src, keys, tag := deref(op.Left), op.LeftKeys, "L"
		if input == 1 {
			src, keys, tag = deref(op.Right), op.RightKeys, "R"
		}
		k.Map = perRecord(shuffleMap(sourceRowFn(src, sample), data.CompileAccessors(keys, mapSample(src, sample, prune)), tag, prune))
	case Chain:
		src := deref(op.Source)
		ms := mapSample(src, sample, prune)
		steps := make([]probeStep, len(op.Steps))
		for i, st := range op.Steps {
			steps[i] = probeStep{name: st.Build, keys: st.Keys, keyAccs: data.CompileAccessors(st.Keys, ms), residual: expr.Compile(st.Residual, ms)}
		}
		k.Map = perRecord(probeMap(sourceRowFn(src, sample), steps, prune))
	case Aggregate:
		groupBy := make([]expr.Expr, len(op.GroupBy))
		for i, e := range op.GroupBy {
			groupBy[i] = expr.Compile(e, sample)
		}
		k.Map = perRecord(func(mc *mapreduce.MapCtx, rec data.Value) {
			mc.EmitKV(rowops.GroupKey(mc.ExprCtx(), groupBy, rec), "", rec)
		})
	default:
		return k, fmt.Errorf("oracle: no map kernel for %q", op.Kind)
	}
	return k, nil
}

// oracleBind is OpSpec.Bind with the oracle's kernels.
func oracleBind(op *OpSpec, spec mapreduce.Spec, files ...*dfs.File) (mapreduce.Spec, error) {
	spec.RemoteOp = op
	for i, f := range files {
		sample, _ := f.FirstRecord()
		k, err := oracleCompile(op, i, sample)
		if err != nil {
			return spec, err
		}
		spec.Inputs = append(spec.Inputs, mapreduce.Input{File: f, Map: k.Map})
		spec.Reduce, spec.Combine = k.Reduce, k.Combine
	}
	return spec, nil
}

// oracleBindBuild is BindBuild with the oracle's kernel.
func oracleBindBuild(b mapreduce.Broadcast, sample data.Value) mapreduce.Broadcast {
	op := &OpSpec{Kind: Repartition, Left: &Source{Wrap: b.Wrap, Filter: b.Filter}, LeftKeys: b.KeyPaths}
	k, _ := oracleCompile(op, 0, sample)
	b.Map = k.Map
	return b
}

// rowFn maps a raw input record to the source's wrapped, filtered row;
// null means the record was filtered out.
type rowFn func(*expr.Ctx, data.Value) data.Value

// sourceRowFn builds a source's per-record row function. A filter
// whose columns are all rooted at the wrap alias is alias-stripped and
// evaluated on the raw record before wrapping, so records the
// predicate drops never allocate the wrap object; the predicate sees
// exactly the values it would see through the wrapped row (see
// expr.StripAlias), and surviving rows are wrapped identically. Other
// shapes keep the wrap-then-filter order, with the filter compiled
// against the wrapped sample.
func sourceRowFn(s Source, sample data.Value) rowFn {
	wrap, filter := s.Wrap, s.Filter
	if filter != nil && wrap != "" {
		if stripped, ok := expr.StripAlias(filter, wrap); ok {
			stripped = expr.Compile(stripped, sample)
			return func(ectx *expr.Ctx, rec data.Value) data.Value {
				if !stripped.Eval(ectx, rec).Truthy() {
					return data.Null()
				}
				return data.ObjectFromSorted([]data.Field{{Name: wrap, Value: rec}})
			}
		}
	}
	filter = expr.Compile(filter, mapSample(s, sample, nil))
	return func(ectx *expr.Ctx, rec data.Value) data.Value {
		row := rec
		if wrap != "" {
			row = data.ObjectFromSorted([]data.Field{{Name: wrap, Value: rec}})
		}
		if filter != nil && !filter.Eval(ectx, row).Truthy() {
			return data.Null()
		}
		return row
	}
}

// scanMap emits wrapped, filtered rows.
func scanMap(row rowFn, prune func(data.Value) data.Value) recordMap {
	return func(mc *mapreduce.MapCtx, rec data.Value) {
		if row := row(mc.ExprCtx(), rec); !row.IsNull() {
			if prune != nil {
				row = prune(row)
			}
			mc.Emit(row)
		}
	}
}

// shuffleMap emits wrapped, filtered rows keyed for a repartition join.
func shuffleMap(row rowFn, keyAccs []*data.Accessor, tag string, prune func(data.Value) data.Value) recordMap {
	return func(mc *mapreduce.MapCtx, rec data.Value) {
		row := row(mc.ExprCtx(), rec)
		if row.IsNull() {
			return
		}
		if prune != nil {
			row = prune(row)
		}
		mc.EmitKV(mapreduce.CompositeKeyCompiled(row, keyAccs), tag, row)
	}
}

// probeMap is the map-only hash join: the probe input streams through
// the chain of builds, merging and applying each join's residual
// inline.
func probeMap(row rowFn, steps []probeStep, prune func(data.Value) data.Value) recordMap {
	return func(mc *mapreduce.MapCtx, rec data.Value) {
		row := row(mc.ExprCtx(), rec)
		if row.IsNull() {
			return
		}
		if prune != nil {
			row = prune(row)
		}
		mc.Scratch.Reset()
		rows := []data.Value{row}
		for i := range steps {
			st := &steps[i]
			ht := mc.Build(st.name)
			arena := stepArena(mc, i == len(steps)-1, prune != nil)
			var next []data.Value
			for _, r := range rows {
				next = st.probe(mc, arena, r, ht.Probe(mapreduce.CompositeKeyCompiled(r, st.keyAccs)), next)
			}
			rows = next
			if len(rows) == 0 {
				return
			}
		}
		for _, r := range rows {
			if prune != nil {
				r = prune(r)
			}
			mc.Emit(r)
		}
	}
}
