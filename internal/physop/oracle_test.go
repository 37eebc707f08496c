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

// pairMap is a record-at-a-time shuffle map: the pair one record
// yields, if any.
type pairMap func(mc *mapreduce.MapCtx, rec data.Value) (key, row data.Value, ok bool)

// perRecordPairs runs a record-at-a-time shuffle map as a map kernel:
// it collects the split's pairs in record order and shuffles them in
// one ShuffleSel call, their key columns built by definition
// (data.NormKey, data.Hash64).
func perRecordPairs(m pairMap, tag string) mapreduce.MapFunc {
	return func(mc *mapreduce.MapCtx, d *batch.Data) {
		var keys, rows []data.Value
		var nks []string
		var hashes []uint64
		var sel []int32
		for _, rec := range d.Records() {
			if k, row, ok := m(mc, rec); ok {
				sel = append(sel, int32(len(keys)))
				keys, rows = append(keys, k), append(rows, row)
				nks, hashes = append(nks, data.NormKey(k)), append(hashes, data.Hash64(k))
			}
		}
		mc.ShuffleSel(keys, nks, hashes, rows, sel, tag)
	}
}

// oracleCompile is Compile with the oracle's map kernel; the reduce
// kernel is Compile's own.
func oracleCompile(op *OpSpec, input int, sample data.Value) (Kernels, error) {
	k, err := Compile(op, input, sample)
	if err != nil {
		return k, err
	}
	prune := newPruner(op.Prune)
	switch op.Kind {
	case Scan:
		k.Map = perRecord(scanMap(sourceRowFn(deref(op.Source), sample), prune))
	case Repartition:
		src, keys, tag := deref(op.Left), op.LeftKeys, "L"
		if input == 1 {
			src, keys, tag = deref(op.Right), op.RightKeys, "R"
		}
		k.Map = perRecordPairs(shuffleMap(sourceRowFn(src, sample), data.CompileAccessors(keys, pruned(prune, mapSample(src, sample))), prune), tag)
	case Chain:
		src := deref(op.Source)
		// Every step binds eagerly to the probe input's (wrapped, pruned)
		// sample: build-side columns have no hints there and resolve
		// through the accessors' name fallback, so the differential
		// tests hold the kernel's split key columns and lazily bound
		// accessors to a binding of their own.
		ms := pruned(prune, mapSample(src, sample))
		steps := make([]oracleStep, len(op.Steps))
		for i, st := range op.Steps {
			steps[i] = oracleStep{name: st.Build, keyAccs: data.CompileAccessors(st.Keys, ms), residual: expr.Compile(st.Residual, ms)}
		}
		k.Map = perRecord(probeMap(sourceRowFn(src, sample), steps, prune))
	case Aggregate:
		groupBy := make([]expr.Expr, len(op.GroupBy))
		for i, e := range op.GroupBy {
			groupBy[i] = expr.Compile(e, sample)
		}
		k.Map = perRecordPairs(func(mc *mapreduce.MapCtx, rec data.Value) (data.Value, data.Value, bool) {
			return rowops.GroupKey(mc.ExprCtx(), groupBy, rec), rec, true
		}, "")
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
		spec.Reduce = k.Reduce
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

// mapSample returns a sample row with the layout of the source's
// wrapped rows. The filter is deliberately not applied — it selects
// rows, it does not change their shape.
func mapSample(s Source, sample data.Value) data.Value {
	if s.Wrap != "" {
		sample = data.Object(data.Field{Name: s.Wrap, Value: sample})
	}
	return sample
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
	filter = expr.Compile(filter, mapSample(s, sample))
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

// shuffleMap yields wrapped, filtered rows keyed for a repartition join.
func shuffleMap(row rowFn, keyAccs []*data.Accessor, prune func(data.Value) data.Value) pairMap {
	return func(mc *mapreduce.MapCtx, rec data.Value) (data.Value, data.Value, bool) {
		row := row(mc.ExprCtx(), rec)
		if row.IsNull() {
			return data.Value{}, data.Value{}, false
		}
		if prune != nil {
			row = prune(row)
		}
		return data.CompositeKey(row, keyAccs), row, true
	}
}

// oracleStep is one link of the oracle's chain: the probe keys'
// accessors and the residual, both bound to the probe input's sample.
type oracleStep struct {
	name     string
	keyAccs  []*data.Accessor
	residual expr.Expr
}

// probe appends to next the merge of r with each of its matches that
// passes the residual. Merged rows are carved out of arena; a rejected
// row hands its fields back.
func (st *oracleStep) probe(mc *mapreduce.MapCtx, arena *data.FieldArena, r data.Value, matches []data.Value, next []data.Value) []data.Value {
	for _, m := range matches {
		merged := arena.Merge(r, m)
		if st.residual != nil && !st.residual.Eval(mc.ExprCtx(), merged).Truthy() {
			arena.Release(merged)
			continue
		}
		next = append(next, merged)
	}
	return next
}

// probeMap is the map-only hash join: the probe input streams through
// the chain of builds, merging and applying each join's residual
// inline.
func probeMap(row rowFn, steps []oracleStep, prune func(data.Value) data.Value) recordMap {
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
				next = st.probe(mc, arena, r, ht.Probe(data.CompositeKey(r, st.keyAccs)), next)
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
