package mapreduce

import (
	"sync/atomic"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/expr"
)

// The task bodies in this file are the record loops of a map and a
// reduce task, free of scheduling and accounting. Job.runMap and
// Job.runReduce call them in-process over a DFS block; a task executor's
// workers call the very same functions over a decoded block, so both
// runtimes produce their rows with one piece of code.

// Pair is one shuffled record: join/group key, input tag, record.
type Pair struct {
	Key data.Value
	Tag string
	Rec data.Value
	// nk is Key's order-preserving normalized encoding, "" when the key
	// is unencodable (see data.AppendNormKey) or the pair was decoded
	// from a frame. Sorting and grouping compare it instead of walking
	// the key tree; pairs without one fall back to data.Compare.
	nk string
}

// MapCtx is handed to map functions for emitting output.
type MapCtx struct {
	ectx   *expr.Ctx
	builds map[string]*HashTable
	rows   []data.Value
	parts  [][]Pair // one bucket per reduce partition; nil for map-only tasks
	nkBuf  []byte   // scratch for key normalization, reused across emits
	// Arena is where a join kernel merges the rows it emits; Scratch
	// those that nothing references once the kernel resets it.
	Arena, Scratch data.FieldArena
}

// ExprCtx returns the expression evaluation context (UDF registry plus
// accumulated CPU cost).
func (mc *MapCtx) ExprCtx() *expr.Ctx { return mc.ectx }

// Build returns the broadcast hash table registered under the given
// name, or nil.
func (mc *MapCtx) Build(name string) *HashTable { return mc.builds[name] }

// Emit writes a record to the job's (map-only) output.
func (mc *MapCtx) Emit(rec data.Value) {
	mc.rows = append(mc.rows, rec)
}

// EmitKV routes a record through the shuffle, keyed for the reduce
// phase. Partition assignment is data.Hash64(key) % numReducers — it
// decides which reduce task (and therefore which output position) a
// record lands in. The key is normalized once here so downstream
// sorting and grouping compare strings instead of walking the key tree
// per comparison.
func (mc *MapCtx) EmitKV(key data.Value, tag string, rec data.Value) {
	b, ok := data.AppendNormKey(mc.nkBuf[:0], key)
	mc.nkBuf = b[:0]
	nk := ""
	if ok {
		nk = string(b)
	}
	mc.EmitPair(key, nk, tag, rec, data.Hash64(key))
}

// EmitPair is EmitKV with the key's partition hash and normalized
// encoding already computed — columnar kernels evaluate keys once per
// split and route rows through here, skipping the per-record Hash64
// and AppendNormKey work. nk must be the key's normalized encoding (""
// when unencodable) and hash its data.Hash64, so the pair is
// indistinguishable from one built by EmitKV.
func (mc *MapCtx) EmitPair(key data.Value, nk string, tag string, rec data.Value, hash uint64) {
	p := int(hash % uint64(len(mc.parts)))
	mc.parts[p] = append(mc.parts[p], Pair{Key: key, Tag: tag, Rec: rec, nk: nk})
}

// SizeParts provisions the shuffle buckets for exactly the pairs a
// columnar kernel is about to emit — hashes[i] for each i in sel — so a
// map that filters most of its split allocates for what survives.
func (mc *MapCtx) SizeParts(hashes []uint64, sel []int32) {
	counts := make([]int, len(mc.parts))
	for _, i := range sel {
		counts[hashes[i]%uint64(len(counts))]++
	}
	mc.cutParts(len(sel), func(p int) int { return counts[p] })
}

// cutParts makes each bucket a capacity-limited window of one array of
// total pairs: a bucket outgrowing its window reallocates alone.
func (mc *MapCtx) cutParts(total int, size func(p int) int) {
	backing := make([]Pair, total)
	for p := range mc.parts {
		n := size(p)
		mc.parts[p], backing = backing[:0:n], backing[n:]
	}
}

// MapFunc processes one input record.
type MapFunc func(mc *MapCtx, rec data.Value)

// BatchFunc processes one whole split through its columnar image, or
// declines. Returning true means the split was fully handled: the
// function emitted exactly what the per-record Map would have emitted
// for every record, in order, with the same virtual sizes. Returning
// false means the per-record Map must run instead — the function must
// decline before emitting anything.
type BatchFunc func(mc *MapCtx, d *batch.Data) bool

// ReduceCtx is handed to reduce functions for emitting output.
type ReduceCtx struct {
	ectx   *expr.Ctx
	rows   []data.Value
	ls, rs []data.Value // Sides' scratch, reused across key groups
	// Arena is where a join reducer merges the rows it emits.
	Arena data.FieldArena
}

// ExprCtx returns the expression evaluation context.
func (rc *ReduceCtx) ExprCtx() *expr.Ctx { return rc.ectx }

// Sides splits a key group into the records tagged left and the rest,
// in group order, into scratch valid until the next call: one ReduceFunc
// value serves all of a job's reduce tasks concurrently, so per-group
// state lives here, not in its closure.
func (rc *ReduceCtx) Sides(group []Tagged, left string) (ls, rs []data.Value) {
	rc.ls, rc.rs = rc.ls[:0], rc.rs[:0]
	for _, g := range group {
		if g.Tag == left {
			rc.ls = append(rc.ls, g.Rec)
		} else {
			rc.rs = append(rc.rs, g.Rec)
		}
	}
	return rc.ls, rc.rs
}

// Emit writes a record to the job's output.
func (rc *ReduceCtx) Emit(rec data.Value) {
	rc.rows = append(rc.rows, rec)
}

// Tagged is one shuffled record with its input tag (repartition joins
// tag records with the side they came from).
type Tagged struct {
	Tag string
	Rec data.Value
}

// ReduceFunc processes all records sharing a key. The group slice is
// valid only for the duration of the call (it is carved out of a
// pooled slab); reducers must copy anything they keep.
type ReduceFunc func(rc *ReduceCtx, key data.Value, group []Tagged)

// MapTask is one map task's record loop: a split, the kernels to run
// over it, and the broadcast tables they probe.
type MapTask struct {
	Reg *expr.Registry
	// Ctx, when non-nil, is continued in place of a fresh context: UDF
	// cost is a running sum in record order, kept across blocks.
	Ctx  *expr.Ctx
	Recs []data.Value
	// Aux is the split's cache slot for its columnar image (see
	// batch.For); nil builds an uncached image.
	Aux *atomic.Value
	Map MapFunc
	// BatchMap, when non-nil, is offered the split before the
	// per-record loop.
	BatchMap BatchFunc
	// Combine, when non-nil, folds each shuffle bucket per key before
	// the task returns (the classic map-side combiner).
	Combine ReduceFunc
	// NumReducers partitions shuffle output; 0 marks a map-only task.
	NumReducers int
	Builds      map[string]*HashTable
}

// MapOutput is what a map task's record loop produced. Rows comes from
// the row pool: whoever can prove no one still holds it may recycle it
// (the in-process job does at job end). Parts are windows of one
// per-task array (or combiner output) and are left to the collector.
type MapOutput struct {
	Rows  []data.Value // map-only tasks
	Parts [][]Pair     // shuffle tasks: one bucket per reduce partition
	// CPUMap is the UDF cost of the map phase alone; CPUTotal
	// additionally includes the combiner.
	CPUMap   float64
	CPUTotal float64
}

// RunMapTask executes one map task's record loop: offer the split to
// the columnar kernel, fall back to the per-record kernel when there is
// none or it declines, then fold the combiner over the buckets.
func RunMapTask(t *MapTask) (*MapOutput, error) {
	ectx := t.Ctx
	if ectx == nil {
		ectx = &expr.Ctx{Reg: t.Reg}
	}
	mc := &MapCtx{ectx: ectx, builds: t.Builds}
	// Size output buffers from the split: most maps emit at most one
	// row per input record, so this avoids the append growth ladder in
	// the shuffle hot path.
	n := len(t.Recs)
	if t.NumReducers > 0 {
		mc.parts = make([][]Pair, t.NumReducers)
	} else if n > 0 {
		mc.rows = rowSlices.get(n)
	}
	if t.BatchMap == nil || !t.BatchMap(mc, batch.For(t.Aux, t.Recs)) {
		if t.NumReducers > 0 && n > 0 {
			// The per-record kernel cannot say what it will emit: even
			// windows over the unfiltered split.
			per := n/t.NumReducers + 1
			mc.cutParts(t.NumReducers*per, func(int) int { return per })
		}
		for _, rec := range t.Recs {
			t.Map(mc, rec)
		}
	}
	out := &MapOutput{Rows: mc.rows, Parts: mc.parts, CPUMap: ectx.CPUSeconds}
	if ectx.Err == nil && t.Combine != nil {
		combineParts(out.Parts, t.Combine, ectx)
	}
	out.CPUTotal = ectx.CPUSeconds
	return out, ectx.Err
}

// combineParts folds each bucket's rows per key through the combiner,
// replacing the bucket with the combiner's output.
func combineParts(parts [][]Pair, combine ReduceFunc, ectx *expr.Ctx) {
	rc := &ReduceCtx{ectx: ectx}
	for p, bucket := range parts {
		if len(bucket) == 0 {
			continue
		}
		SortPairsByKey(bucket)
		var combined []Pair
		eachGroup(bucket, func(lead *Pair, group []Tagged) {
			rc.rows = rc.rows[:0]
			combine(rc, lead.Key, group)
			for _, rec := range rc.rows {
				combined = append(combined, Pair{Key: lead.Key, Rec: rec, nk: lead.nk})
			}
		})
		parts[p] = combined
	}
}

// RunReduceTask executes one reduce task's record loop over pairs
// already in reduce key order (SortPairsByKey, or any stable sort by
// data.Compare), returning the emitted rows and the UDF CPU cost.
func RunReduceTask(reg *expr.Registry, reduce ReduceFunc, pairs []Pair) ([]data.Value, float64, error) {
	ectx := &expr.Ctx{Reg: reg}
	rc := &ReduceCtx{ectx: ectx, rows: rowSlices.get(0)}
	eachGroup(pairs, func(lead *Pair, group []Tagged) {
		reduce(rc, lead.Key, group)
	})
	return rc.rows, ectx.CPUSeconds, ectx.Err
}

// eachGroup walks sorted pairs one key group at a time, handing fn the
// group's first pair and its members carved out of one pooled slab.
func eachGroup(pairs []Pair, fn func(lead *Pair, group []Tagged)) {
	slab := taggedSlabs.get(len(pairs))
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && samePairKey(&pairs[hi], &pairs[lo]) {
			hi++
		}
		start := len(slab)
		for i := lo; i < hi; i++ {
			slab = append(slab, Tagged{Tag: pairs[i].Tag, Rec: pairs[i].Rec})
		}
		fn(&pairs[lo], slab[start:len(slab):len(slab)])
		lo = hi
	}
	taggedSlabs.put(slab)
}
