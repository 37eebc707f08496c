// Package physop is the one definition of the engine's physical
// operators. The compiler describes every job as an OpSpec — scan,
// repartition join, broadcast-join chain, or aggregate — and Compile
// derives its kernels from it: one map kernel per input, which every
// split of the input runs through the split's columnar image (see
// internal/batch), and the reduce and combine kernels. The in-process
// runtime compiles once per job against each input's first record; a
// worker decodes the same OpSpec from a task frame and compiles per
// task against its block's first record. Compilation never changes
// results (accessors verify positions per record and fall back to name
// lookup), so both run the same operator the same way — which is what
// lets a pilot run's output stand in for the leaf's materialization
// (§4.1). The record-at-a-time map kernels these replaced live on in
// the package's tests, as the oracle the kernels are held to.
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
	// Map is the input's map kernel, always set: every split of the
	// input runs it, whatever its filter, pruning or operator.
	Map mapreduce.MapFunc
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
		spec.Inputs = append(spec.Inputs, mapreduce.Input{File: f, Map: k.Map})
		spec.Reduce, spec.Combine = k.Reduce, k.Combine
	}
	return spec, nil
}

// BindBuild compiles a build side's declaration (Wrap, Filter, KeyPaths)
// against its first raw record (null when empty). A build is a one-
// partition shuffle of its file, so the kernel is a repartition input's.
func BindBuild(b mapreduce.Broadcast, sample data.Value) mapreduce.Broadcast {
	op := &OpSpec{Kind: Repartition, Left: &Source{Wrap: b.Wrap, Filter: b.Filter}, LeftKeys: b.KeyPaths}
	k, _ := Compile(op, 0, sample) // input 0 of a repartition always compiles
	b.Map = k.Map
	return b
}

// Compile derives the kernels for input number `input` of op. sample
// is the first raw record the map kernel will see (null when the
// input is empty): expressions and key paths are bound to its layout.
func Compile(op *OpSpec, input int, sample data.Value) (Kernels, error) {
	prune := newPruner(op.Prune)
	switch op.Kind {
	case Scan:
		return Kernels{Map: scanKernel(compileSource(deref(op.Source), sample), prune)}, nil

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
		return Kernels{
			Map:    shuffleKernel(compileSource(src, sample), keys, tag, prune),
			Reduce: joinReduce(op.Residual, prune),
		}, nil

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
		return Kernels{Map: probeKernel(compileSource(src, sample), steps, prune)}, nil

	case Aggregate:
		groupBy := make([]expr.Expr, len(op.GroupBy))
		for i, e := range op.GroupBy {
			groupBy[i] = expr.Compile(e, sample)
		}
		// Every record is shuffled whole under its group key: the keys are
		// the task's own columns, the records and selection the split's.
		k := Kernels{Map: func(mc *mapreduce.MapCtx, d *batch.Data) {
			recs := d.Records()
			if len(recs) == 0 {
				return
			}
			keys := make([]data.Value, len(recs))
			for i, rec := range recs {
				keys[i] = rowops.GroupKey(mc.ExprCtx(), groupBy, rec)
			}
			kc := batch.KeyColsOf(keys)
			mc.ShuffleSel(kc.Vals, kc.NK, d.Hashes(kc), recs, d.Select(nil, ""), "")
		}}
		sel := &lazySelect{items: op.Select}
		if op.Combine {
			// Map-side partial aggregation: the combiner folds each map
			// task's rows per group into one mergeable partial, and the
			// reducer merges partials.
			k.Combine = func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Pair) {
				rows := groupRecs(group)
				rc.Emit(rowops.PartialAggregate(rc.ExprCtx(), sel.bind(rows[0]), rows))
			}
			merge := freezeNames(op.Select)
			k.Reduce = func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Pair) {
				rc.Emit(rowops.MergeAggregates(merge, groupRecs(group)))
			}
		} else {
			k.Reduce = func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Pair) {
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

func groupRecs(group []mapreduce.Pair) []data.Value {
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
	return func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Pair) {
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

// source is a compiled Source: the alias its rows are wrapped under,
// and its filter in one of two forms. A filter whose alias-stripped form
// (as-is for a pre-wrapped source) batch.Supported accepts is pred: the
// split's image evaluates it column-wise and caches the selection under
// sig, sound because such a predicate is a pure function of its columns.
// Any other filter — a UDF call, arithmetic, a bare alias, a column
// outside the alias — is perRow: compiled against the wrapped sample and
// evaluated once per wrapped row, in row order, on the task's context.
// Its verdicts are never cached: a UDF charges virtual CPU per call, and
// every job over the split pays again.
type source struct {
	alias  string
	pred   expr.Expr // nil: every row
	sig    string
	perRow expr.Expr
}

func compileSource(s Source, sample data.Value) source {
	src := source{alias: s.Wrap}
	if s.Filter == nil {
		return src
	}
	pred, ok := s.Filter, true
	if s.Wrap != "" {
		pred, ok = expr.StripAlias(s.Filter, s.Wrap)
	}
	if ok && batch.Supported(pred) {
		src.pred, src.sig = pred, pred.String()
	} else {
		src.perRow = expr.Compile(s.Filter, mapSample(s, sample, nil))
	}
	return src
}

// keeps is the per-row filter's verdict on one wrapped row (true when
// the source has none).
func (s *source) keeps(mc *mapreduce.MapCtx, row data.Value) bool {
	return s.perRow == nil || s.perRow.Eval(mc.ExprCtx(), row).Truthy()
}

// selection returns the split's wrapped rows and the ascending
// selection of those the filter keeps (no rows when it keeps none).
func (s *source) selection(mc *mapreduce.MapCtx, d *batch.Data) ([]data.Value, []int32) {
	sel := d.Select(s.pred, s.sig)
	if len(sel) == 0 {
		return nil, nil
	}
	rows := d.Wrapped(s.alias)
	if s.perRow == nil {
		return rows, sel
	}
	kept := make([]int32, 0, len(sel))
	for _, i := range sel {
		if s.keeps(mc, rows[i]) {
			kept = append(kept, i)
		}
	}
	return rows, kept
}

// pruned applies a projection-pushdown pruner (nil keeps the row whole).
func pruned(prune func(data.Value) data.Value, row data.Value) data.Value {
	if prune == nil {
		return row
	}
	return prune(row)
}

// probeStep is one compiled link of a broadcast probe chain. keys are
// the uncompiled paths (the first step's key columns are cached on the
// split under them), keyAccs their accessors.
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

// prunes reports whether a live-column map drops anything: some alias
// has a non-nil set. A map whose every set is nil keeps every row
// whole, and it is what the wire carries as no map at all.
func prunes(live map[string]map[string]bool) bool {
	for _, set := range live {
		if set != nil {
			return true
		}
	}
	return false
}

// newPruner builds a row transform for projection pushdown: every
// alias sub-record keeps only its live fields (a nil set keeps the
// whole record). It is nil when live prunes nothing.
func newPruner(live map[string]map[string]bool) func(data.Value) data.Value {
	if !prunes(live) {
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

// The map kernels process a whole split at a time: a cached selection
// vector (or one in-order pass of a per-row filter), pre-wrapped row
// slabs, and shuffle/probe keys normalized, interned and hashed once
// per split, not per record per job (the image is cached with the
// immutable split, see internal/batch). Each emits exactly the records
// of the record-at-a-time oracle in this package's tests, in order,
// with the same virtual sizes and the same float of UDF cost.

// ScanImage returns the rows a map task of op selects its output from
// when the task answers with positions: the split's records wrapped
// under the scan's alias, the split's own image (batch.Data.Wrapped). An
// unpruned scan emits exactly those rows at the positions its filter
// keeps, so whoever holds the split rebuilds the task's output from the
// positions alone. ok is false for every other op — a pruned scan, a
// chain, a repartition or an aggregate emits rows of its own making.
// "Unpruned" is newPruner's verdict (no alias restricted to a field
// set), the one the scan kernel compiles to, so a map of nil sets —
// which the wire drops — answers with positions on both ends.
func ScanImage(op *OpSpec, d *batch.Data) (rows []data.Value, ok bool) {
	if op.Kind != Scan || prunes(op.Prune) {
		return nil, false
	}
	return d.Wrapped(deref(op.Source).Wrap), true
}

// scanKernel is the scan: the filter's survivors, wrapped as
// {alias: rec}, in record order. Unpruned, it hands them over as its
// split's image at the selection; pruned, it emits the pruner's copies.
func scanKernel(src source, prune func(data.Value) data.Value) mapreduce.MapFunc {
	return func(mc *mapreduce.MapCtx, d *batch.Data) {
		rows, sel := src.selection(mc, d)
		if len(sel) == 0 {
			return
		}
		if prune == nil {
			mc.EmitSel(rows, sel)
			return
		}
		for _, i := range sel {
			mc.Emit(prune(rows[i]))
		}
	}
}

// shuffleKernel is the repartition map: filter, wrap, and shuffle each
// survivor, pruned, under its composite key over the wrapped row. Keys,
// their encodings and hashes come from the split's cached key columns,
// and ShuffleSel keeps positions into them: unpruned, the rows are the
// split's wrapped rows too; pruned, a column of the pruner's copies.
func shuffleKernel(src source, keys []data.Path, tag string, prune func(data.Value) data.Value) mapreduce.MapFunc {
	keySig := batch.KeySig(src.alias, keys)
	return func(mc *mapreduce.MapCtx, d *batch.Data) {
		rows, sel := src.selection(mc, d)
		if len(sel) == 0 {
			return
		}
		if prune != nil {
			own := make([]data.Value, len(rows))
			for _, i := range sel {
				own[i] = prune(rows[i])
			}
			rows = own
		}
		kc := d.Keys(keySig, src.alias, keys)
		mc.ShuffleSel(kc.Vals, kc.NK, d.Hashes(kc), rows, sel, tag)
	}
}

// probeKernel is the map-only hash join: each row the filter keeps
// streams through the chain of builds, merging and applying each join's
// residual inline. The first step's probe keys come from the split's
// cached key columns — normalized, interned, and shared across jobs —
// so its lookup is one index probe with no per-record key
// evaluation; later steps see chain-merged rows that exist only until
// the next probe row (they live in the task's scratch arena), reusing
// two buffers across rows. A pruned chain prunes the probe row before
// its first merge, and every row it emits.
func probeKernel(src source, steps []probeStep, prune func(data.Value) data.Value) mapreduce.MapFunc {
	keySig := batch.KeySig(src.alias, steps[0].keys)
	return func(mc *mapreduce.MapCtx, d *batch.Data) {
		sel := d.Select(src.pred, src.sig)
		if len(sel) == 0 {
			return
		}
		rows := d.Wrapped(src.alias)
		st0, hts := &steps[0], make([]*mapreduce.HashTable, len(steps))
		for si := range steps {
			hts[si] = mc.Build(steps[si].name)
		}
		kc := d.Keys(keySig, src.alias, st0.keys)
		var cur, next []data.Value
		for _, i := range sel {
			// A per-row filter runs right before the row's probes, matched
			// or not: residual UDFs charge the same context, so the float
			// sum grows in record order.
			if !src.keeps(mc, rows[i]) {
				continue
			}
			matches := hts[0].ProbeNK(kc.NK[i])
			if len(matches) == 0 {
				continue
			}
			mc.Scratch.Reset()
			cur = st0.probe(mc, stepArena(mc, len(steps) == 1, prune != nil), pruned(prune, rows[i]), matches, cur[:0])
			for si := 1; si < len(steps) && len(cur) > 0; si++ {
				st, arena := &steps[si], stepArena(mc, si == len(steps)-1, prune != nil)
				next = next[:0]
				for _, r := range cur {
					next = st.probe(mc, arena, r, hts[si].Probe(mapreduce.CompositeKeyCompiled(r, st.keyAccs)), next)
				}
				cur, next = next, cur
			}
			for _, r := range cur {
				mc.Emit(pruned(prune, r))
			}
		}
	}
}
