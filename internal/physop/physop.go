// Package physop is the one definition of the engine's physical
// operators. The compiler describes every job as an OpSpec — scan,
// repartition join, broadcast-join chain, or aggregate — and Compile
// derives the map, columnar-map, reduce and combine kernels from it.
// The in-process runtime compiles once per job against each input's
// first record; a worker decodes the same OpSpec from a task frame and
// compiles per task against its block's first record. Compilation
// never changes results (accessors verify positions per record and
// fall back to name lookup), so both run the same operator the same
// way — which is what lets a pilot run's output stand in for the
// leaf's materialization (§4.1).
package physop

import (
	"fmt"
	"sync"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/rowops"
	"dyno/internal/sqlparse"
)

// Operator kinds.
const (
	Scan        = "scan"
	Repartition = "repartition"
	Chain       = "chain"
	Aggregate   = "aggregate"
)

// Source is one unit input: the alias to wrap raw records with (empty
// for pre-wrapped intermediates) and the inline filter over the
// wrapped row. The file travels separately (a job input, or a block
// path on the wire).
type Source struct {
	Wrap   string
	Filter expr.Expr
}

// ChainStep is one link of a broadcast probe chain: which build table
// to probe, the probe-side key columns, and the join's residual.
type ChainStep struct {
	Build    string
	Keys     []data.Path
	Residual expr.Expr
}

// OpSpec declares what a job's tasks compute, covering the four job
// shapes the compiler emits. Expressions are the uncompiled originals:
// Compile binds copies to a schema sample, the frame codec serializes
// them as they are.
type OpSpec struct {
	Kind string // Scan | Repartition | Chain | Aggregate

	// Source is the scanned/probed input (Scan and Chain).
	Source *Source

	// Repartition: the two shuffled sides (input 0 = Left, tag "L";
	// input 1 = Right, tag "R"), their key columns, and the reduce-side
	// residual over merged rows.
	Left      *Source
	Right     *Source
	LeftKeys  []data.Path
	RightKeys []data.Path
	Residual  expr.Expr

	// Steps is the broadcast probe chain (Chain).
	Steps []ChainStep

	// Prune is the projection-pushdown live-column map (alias -> kept
	// fields; a nil set keeps the alias whole); nil disables pruning.
	Prune map[string]map[string]bool

	// Aggregate: grouping keys, select list, and whether tasks run the
	// map-side combiner (partial aggregation).
	GroupBy []expr.Expr
	Select  []sqlparse.SelectItem
	Combine bool
}

// Kernels are the executable form of one input of an OpSpec.
type Kernels struct {
	// Map is the per-record kernel; always set.
	Map mapreduce.MapFunc
	// BatchMap is the columnar kernel, nil when the input's shape has
	// none (pruning, a filter reaching outside the wrap alias, a
	// predicate batch.Supported refuses).
	BatchMap mapreduce.BatchFunc
	// Reduce and Combine are nil for map-only operators; Combine is
	// set only when the op asks for map-side partial aggregation.
	Reduce  mapreduce.ReduceFunc
	Combine mapreduce.ReduceFunc
}

// Bind compiles op against each input file's first record and installs
// the kernels, and op itself for a task executor, on the spec.
func (op *OpSpec) Bind(spec mapreduce.Spec, files ...*dfs.File) (mapreduce.Spec, error) {
	spec.RemoteOp = op
	for i, f := range files {
		sample, _ := f.FirstRecord()
		k, err := Compile(op, i, sample)
		if err != nil {
			return spec, err
		}
		spec.Inputs = append(spec.Inputs, mapreduce.Input{File: f, Map: k.Map, BatchMap: k.BatchMap})
		spec.Reduce, spec.Combine = k.Reduce, k.Combine
	}
	return spec, nil
}

// BindBuild compiles a build side's declaration (Wrap, Filter, KeyPaths)
// against its first raw record (null when empty). A build is a one-
// partition shuffle of its file, so the kernels are a repartition input's.
func BindBuild(b mapreduce.Broadcast, sample data.Value) mapreduce.Broadcast {
	op := &OpSpec{Kind: Repartition, Left: &Source{Wrap: b.Wrap, Filter: b.Filter}, LeftKeys: b.KeyPaths}
	k, _ := Compile(op, 0, sample) // input 0 of a repartition always compiles
	b.Map, b.BatchMap = k.Map, k.BatchMap
	return b
}

// Compile derives the kernels for input number `input` of op. sample
// is the first raw record the map kernels will see (null when the
// input is empty): expressions and key paths are bound to its layout.
func Compile(op *OpSpec, input int, sample data.Value) (Kernels, error) {
	prune := NewPruner(op.Prune)
	switch op.Kind {
	case Scan:
		src := deref(op.Source)
		k := Kernels{Map: scanMap(sourceRowFn(src, sample), prune)}
		if prune == nil {
			if alias, pred, ok := batchSource(src); ok {
				k.BatchMap = scanBatch(alias, pred)
			}
		}
		return k, nil

	case Repartition:
		var src Source
		var keys []data.Path
		var tag string
		switch input {
		case 0:
			src, keys, tag = deref(op.Left), op.LeftKeys, "L"
		case 1:
			src, keys, tag = deref(op.Right), op.RightKeys, "R"
		default:
			return Kernels{}, fmt.Errorf("physop: repartition op has no input %d", input)
		}
		k := Kernels{
			Map:    shuffleMap(sourceRowFn(src, sample), data.CompileAccessors(keys, mapSample(src, sample, prune)), tag, prune),
			Reduce: joinReduce(op.Residual, prune),
		}
		if prune == nil {
			if alias, pred, ok := batchSource(src); ok {
				k.BatchMap = shuffleBatch(alias, pred, keys, tag)
			}
		}
		return k, nil

	case Chain:
		if len(op.Steps) == 0 {
			return Kernels{}, fmt.Errorf("physop: chain op has no steps")
		}
		src := deref(op.Source)
		// Probe keys and residuals are bound to the probe input's first
		// (wrapped, pruned) row; columns of build-side aliases compile
		// without positional hints and resolve through the accessor's
		// name fallback.
		ms := mapSample(src, sample, prune)
		steps := make([]probeStep, len(op.Steps))
		for i, st := range op.Steps {
			steps[i] = probeStep{name: st.Build, keys: st.Keys, keyAccs: data.CompileAccessors(st.Keys, ms), residual: expr.Compile(st.Residual, ms)}
		}
		k := Kernels{Map: probeMap(sourceRowFn(src, sample), steps, prune)}
		if prune == nil {
			if alias, pred, ok := batchSource(src); ok {
				k.BatchMap = probeBatch(alias, pred, steps)
			}
		}
		return k, nil

	case Aggregate:
		groupBy := make([]expr.Expr, len(op.GroupBy))
		for i, e := range op.GroupBy {
			groupBy[i] = expr.Compile(e, sample)
		}
		k := Kernels{Map: func(mc *mapreduce.MapCtx, rec data.Value) {
			mc.EmitKV(rowops.GroupKey(mc.ExprCtx(), groupBy, rec), "", rec)
		}}
		sel := &lazySelect{items: op.Select}
		if op.Combine {
			// Map-side partial aggregation: the combiner folds each map
			// task's rows per group into one mergeable partial, and the
			// reducer merges partials.
			k.Combine = func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Tagged) {
				rows := groupRecs(group)
				rc.Emit(rowops.PartialAggregate(rc.ExprCtx(), sel.bind(rows[0]), rows))
			}
			merge := freezeNames(op.Select)
			k.Reduce = func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Tagged) {
				rc.Emit(rowops.MergeAggregates(merge, groupRecs(group)))
			}
		} else {
			k.Reduce = func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Tagged) {
				rows := groupRecs(group)
				rc.Emit(rowops.AggregateGroup(rc.ExprCtx(), sel.bind(rows[0]), rows))
			}
		}
		return k, nil
	}
	return Kernels{}, fmt.Errorf("physop: unknown op kind %q", op.Kind)
}

func deref(s *Source) Source {
	if s == nil {
		return Source{}
	}
	return *s
}

func groupRecs(group []mapreduce.Tagged) []data.Value {
	rows := make([]data.Value, len(group))
	for i, g := range group {
		rows[i] = g.Rec
	}
	return rows
}

// OutputName is the name a select item's value is emitted under, fixed
// before the expression is compiled or serialized: SelectItem.Name
// derives an unaliased column's name from the raw *expr.Col node,
// which a compiled wrapper hides.
func OutputName(it sqlparse.SelectItem) string {
	if it.As == "" && !it.Star && it.E != nil {
		return it.Name()
	}
	return it.As
}

func freezeNames(items []sqlparse.SelectItem) []sqlparse.SelectItem {
	out := make([]sqlparse.SelectItem, len(items))
	for i, it := range items {
		it.As = OutputName(it)
		out[i] = it
	}
	return out
}

// CompileSelect returns a copy of the select list with output names
// frozen and each item's expression compiled against a sample row
// (schema-resolved column access; see expr.Compile).
func CompileSelect(items []sqlparse.SelectItem, sample data.Value) []sqlparse.SelectItem {
	out := freezeNames(items)
	for i := range out {
		out[i].E = expr.Compile(out[i].E, sample)
	}
	return out
}

// lazySelect binds a select list to the layout of the first row a
// reduce-side kernel sees. Reduce kernels have no input block to
// sample at compile time, and one kernel serves every reduce task of
// an in-process job concurrently, hence the Once.
type lazySelect struct {
	once  sync.Once
	items []sqlparse.SelectItem
}

func (l *lazySelect) bind(sample data.Value) []sqlparse.SelectItem {
	l.once.Do(func() { l.items = CompileSelect(l.items, sample) })
	return l.items
}

// joinReduce builds the repartition join's reducer: the cross product
// of a key group's left and right rows, filtered by the residual
// (bound lazily to the first merged row, see lazySelect) and pruned.
func joinReduce(residual expr.Expr, prune func(data.Value) data.Value) mapreduce.ReduceFunc {
	var once sync.Once
	var compiled expr.Expr
	return func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Tagged) {
		ls, rs := rc.Sides(group, "L")
		arena := &rc.Arena
		for _, l := range ls {
			for _, r := range rs {
				merged := arena.Merge(l, r)
				if residual != nil {
					once.Do(func() { compiled = expr.Compile(residual, merged) })
					if !compiled.Eval(rc.ExprCtx(), merged).Truthy() {
						arena.Release(merged)
						continue
					}
				}
				row := merged
				if prune != nil {
					row = prune(merged) // a copy of what it keeps
					arena.Release(merged)
				}
				rc.Emit(row)
			}
		}
	}
}

// mapSample returns a sample row with the layout the source's map
// kernel emits: the sample record, wrapped and pruned. The filter is
// deliberately not applied — it selects rows, it does not change their
// shape.
func mapSample(s Source, sample data.Value, prune func(data.Value) data.Value) data.Value {
	if s.Wrap != "" {
		sample = data.Object(data.Field{Name: s.Wrap, Value: sample})
	}
	if prune != nil {
		sample = prune(sample)
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

// batchSource reduces a source to the (alias, raw-record predicate)
// form the columnar kernels evaluate: pred is the source filter
// rewritten to apply directly to stored records (alias-stripped for
// wrapped scans, as-is for pre-wrapped intermediates), uncompiled so
// the batch layer can inspect its shape. ok is false when no such form
// exists (a filter mentioning columns outside the wrap alias); whether
// pred itself is batch-evaluable is decided by the columnar builders,
// which return nil for unsupported shapes.
func batchSource(s Source) (alias string, pred expr.Expr, ok bool) {
	if s.Filter == nil {
		return s.Wrap, nil, true
	}
	if s.Wrap == "" {
		return "", s.Filter, true
	}
	if stripped, sok := expr.StripAlias(s.Filter, s.Wrap); sok {
		return s.Wrap, stripped, true
	}
	return "", nil, false
}

// scanMap emits wrapped, filtered rows.
func scanMap(row rowFn, prune func(data.Value) data.Value) mapreduce.MapFunc {
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
func shuffleMap(row rowFn, keyAccs []*data.Accessor, tag string, prune func(data.Value) data.Value) mapreduce.MapFunc {
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

// probeStep is one compiled link of a broadcast probe chain. keys are
// the uncompiled paths (the columnar kernel's key-column cache is keyed
// by them), keyAccs their accessors.
type probeStep struct {
	name     string
	keys     []data.Path
	keyAccs  []*data.Accessor
	residual expr.Expr
}

// probe appends to next the merge of r with each of its matches in the
// step's build table that passes the residual. Merged rows are carved
// out of arena; a rejected row hands its fields back.
func (st *probeStep) probe(mc *mapreduce.MapCtx, arena *data.FieldArena, r data.Value, matches []data.Value, next []data.Value) []data.Value {
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

// stepArena is where a chain step's merged rows go: the last step's are
// the task's output, earlier ones die with their probe row — as do all
// of a pruned chain's, which emits the pruner's copies.
func stepArena(mc *mapreduce.MapCtx, last, pruned bool) *data.FieldArena {
	if last && !pruned {
		return &mc.Arena
	}
	return &mc.Scratch
}

// probeMap is the map-only hash join: the probe input streams through
// the chain of builds, merging and applying each join's residual
// inline.
func probeMap(row rowFn, steps []probeStep, prune func(data.Value) data.Value) mapreduce.MapFunc {
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

// NewPruner builds a row transform for projection pushdown: every
// alias sub-record keeps only its live fields (a nil set keeps the
// whole record).
func NewPruner(live map[string]map[string]bool) func(data.Value) data.Value {
	if live == nil {
		return nil
	}
	// Field slices filtered from a sorted object stay sorted and
	// duplicate-free, so the rebuilt objects can retain them directly.
	return func(row data.Value) data.Value {
		fields := row.Fields()
		out := make([]data.Field, 0, len(fields))
		for _, f := range fields {
			set, known := live[f.Name]
			if !known || set == nil {
				out = append(out, f)
				continue
			}
			inner := f.Value.Fields()
			kept := make([]data.Field, 0, len(set))
			for _, g := range inner {
				if set[g.Name] {
					kept = append(kept, g)
				}
			}
			out = append(out, data.Field{Name: f.Name, Value: data.ObjectFromSorted(kept)})
		}
		return data.ObjectFromSorted(out)
	}
}

// The columnar kernels process a whole split at a time where the
// per-record kernel would be a scan→filter→project pipeline, a shuffle
// emit loop, or a chain probe: per-split column vectors and selection
// vectors replace per-record predicate evaluation, pre-wrapped row
// slabs replace per-record wrap objects, and shuffle/probe keys are
// normalized, interned, and hashed once per split instead of once per
// record per job (splits are immutable, so the columnar image is
// cached with the split and shared across pilot runs, re-executions,
// and repeated scans — see internal/batch). Each emits exactly the
// records its per-record kernel would, in the same order, with the
// same virtual sizes.

// predSig renders a predicate's selection-cache signature once per
// kernel; "" for a nil predicate.
func predSig(pred expr.Expr) string {
	if pred == nil {
		return ""
	}
	return pred.String()
}

// scanBatch is the columnar scan: filter the raw records with pred
// (already alias-stripped, nil = keep all), wrap survivors as
// {alias: rec}, and emit them in record order. Returns nil when pred
// cannot be evaluated column-wise.
func scanBatch(alias string, pred expr.Expr) mapreduce.BatchFunc {
	if pred != nil && !batch.Supported(pred) {
		return nil
	}
	sig := predSig(pred)
	return func(mc *mapreduce.MapCtx, d *batch.Data) bool {
		sel, ok := d.Select(pred, sig)
		if !ok {
			return false
		}
		if len(sel) == 0 {
			return true
		}
		rows := d.Wrapped(alias)
		for _, i := range sel {
			mc.Emit(rows[i])
		}
		return true
	}
}

// shuffleBatch is the columnar repartition map: filter, wrap, and
// shuffle each survivor under its composite key evaluated over the
// wrapped row. Key values, normalized encodings, and partition hashes
// come from the split's cached key columns, so the per-record
// AppendNormKey/Hash64 of EmitKV is paid once per split ever, not once
// per record per job.
func shuffleBatch(alias string, pred expr.Expr, keys []data.Path, tag string) mapreduce.BatchFunc {
	if pred != nil && !batch.Supported(pred) {
		return nil
	}
	sig := predSig(pred)
	keySig := batch.KeySig(alias, keys)
	return func(mc *mapreduce.MapCtx, d *batch.Data) bool {
		sel, ok := d.Select(pred, sig)
		if !ok {
			return false
		}
		if len(sel) == 0 {
			return true
		}
		rows := d.Wrapped(alias)
		kc := d.Keys(keySig, alias, keys)
		hs := d.Hashes(kc)
		mc.SizeParts(hs, sel)
		for _, i := range sel {
			mc.EmitPair(kc.Vals[i], kc.NK[i], tag, rows[i], hs[i])
		}
		return true
	}
}

// probeBatch is the columnar broadcast-chain probe: filter the split
// column-wise, then drive each surviving row through the build chain.
// The first step's probe keys come from the split's cached key columns
// — normalized, interned, and shared across jobs — so the hash-table
// lookup is a direct map probe with no per-record key evaluation or
// normalization; later steps see chain-merged rows that exist only
// until the next probe row (they live in the task's scratch arena) and
// probe exactly like the per-record kernel, reusing two scratch buffers
// across rows. Residuals run per merged row in the same order as the
// per-record kernel, so UDF cost accounting and emitted rows are
// identical.
func probeBatch(alias string, pred expr.Expr, steps []probeStep) mapreduce.BatchFunc {
	if pred != nil && !batch.Supported(pred) {
		return nil
	}
	sig := predSig(pred)
	keySig := batch.KeySig(alias, steps[0].keys)
	return func(mc *mapreduce.MapCtx, d *batch.Data) bool {
		sel, ok := d.Select(pred, sig)
		if !ok {
			return false
		}
		if len(sel) == 0 {
			return true
		}
		rows := d.Wrapped(alias)
		st0 := &steps[0]
		ht0 := mc.Build(st0.name)
		kc := d.Keys(keySig, alias, st0.keys)
		var cur, next []data.Value
		for _, i := range sel {
			var matches []data.Value
			if ht0.FastIndexed() && kc.NK[i] != "" {
				matches = ht0.ProbeNK(kc.NK[i])
			} else {
				// Demoted table or unencodable probe key: the generic
				// probe handles both.
				matches = ht0.Probe(kc.Vals[i])
			}
			if len(matches) == 0 {
				continue
			}
			mc.Scratch.Reset()
			cur = st0.probe(mc, stepArena(mc, len(steps) == 1, false), rows[i], matches, cur[:0])
			for si := 1; si < len(steps) && len(cur) > 0; si++ {
				st := &steps[si]
				ht := mc.Build(st.name)
				arena := stepArena(mc, si == len(steps)-1, false)
				next = next[:0]
				for _, r := range cur {
					next = st.probe(mc, arena, r, ht.Probe(mapreduce.CompositeKeyCompiled(r, st.keyAccs)), next)
				}
				cur, next = next, cur
			}
			for _, r := range cur {
				mc.Emit(r)
			}
		}
		return true
	}
}
