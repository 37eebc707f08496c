package mapreduce

import (
	"fmt"
	"sync/atomic"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/expr"
)

// The task bodies in this file are the record loops of a map and a
// reduce task, free of scheduling and accounting: Job.runMap and
// Job.runReduce run them over a DFS block, a worker over a decoded one.

// Pair is one shuffled record: join/group key, input tag, record.
type Pair struct {
	Key data.Value
	Tag string
	Rec data.Value
	// nk is Key's order-preserving normalized encoding (see
	// data.AppendNormKey) that sorting and grouping compare; "" until
	// SortPairsByKey fills it for a pair decoded from a frame.
	nk string
}

// MapCtx is handed to map functions for emitting output.
type MapCtx struct {
	ectx   *expr.Ctx
	builds map[string]*HashTable
	rows   []data.Value
	n      int // the split's record count: what the first Emit sizes rows for
	from   []data.Value
	sel    []int32
	// A shuffle task's Partitioned output (offs is nil for a map-only
	// task): placed by SizeParts, else in emit order with each pair's
	// partition in dest until the task ends.
	pairs  []Pair
	offs   []int
	dest   []int32
	placed bool
	nkBuf  []byte // scratch for key normalization, reused across emits
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
	if mc.rows == nil {
		// Most maps emit at most a row per record: sized from the split,
		// on the first row, so a task that emits none takes none.
		mc.rows = rowSlices.get(mc.n)
	}
	mc.rows = append(mc.rows, rec)
}

// EmitSel writes the rows from[i], for i in the ascending selection
// sel, to the job's (map-only) output in one call: a kernel whose
// output is rows it did not make names them instead of copying them. A
// kernel emits through Emit or through one EmitSel, never both. Neither
// slice is copied; both must stay unmodified.
func (mc *MapCtx) EmitSel(from []data.Value, sel []int32) {
	mc.from, mc.sel = from, sel
}

// EmitKV routes a record through the shuffle, keyed for the reduce
// phase: to partition data.Hash64(key) % numReducers, which decides
// the record's reduce task and so its output position. The key is
// normalized once here, for sorting and grouping to compare.
func (mc *MapCtx) EmitKV(key data.Value, tag string, rec data.Value) {
	mc.nkBuf, _ = data.AppendNormKey(mc.nkBuf[:0], key)
	mc.EmitPair(key, string(mc.nkBuf), tag, rec, data.Hash64(key))
}

// EmitPair is EmitKV with the key's normalized encoding nk and its
// data.Hash64 already computed, as a shuffle kernel reads them from the
// split's cached key columns: the pair is the one EmitKV would build.
func (mc *MapCtx) EmitPair(key data.Value, nk string, tag string, rec data.Value, hash uint64) {
	p := hash % uint64(len(mc.offs)-1)
	pair := Pair{Key: key, Tag: tag, Rec: rec, nk: nk}
	if mc.placed {
		mc.pairs[mc.offs[p+1]] = pair
		mc.offs[p+1]++
		return
	}
	if mc.pairs == nil {
		mc.pairs, mc.dest = pairSlices.get(mc.n), make([]int32, 0, mc.n)
	}
	mc.pairs = append(mc.pairs, pair)
	mc.dest = append(mc.dest, int32(p))
}

// SizeParts sizes the task's shuffle output for exactly the pairs a
// kernel is about to emit — hashes[i] for each i in sel, each through
// EmitPair or EmitKV with that hash — so each pair is written straight
// into its partition's slot of one array. A kernel calls it at most
// once, before its first emit, and emits nothing else; one that does
// not call it has its pairs sorted into place when the task ends.
func (mc *MapCtx) SizeParts(hashes []uint64, sel []int32) {
	r := uint64(len(mc.offs) - 1)
	for _, i := range sel {
		mc.offs[hashes[i]%r+1]++
	}
	firstSlots(mc.offs)
	mc.pairs, mc.placed = make([]Pair, len(sel)), true
}

// firstSlots turns the counts in offs[1:] into partition p's first slot
// at offs[p+1]; placing a pair bumps it, so at the end it ends p.
func firstSlots(offs []int) {
	at := 0
	for p := 1; p < len(offs); p++ {
		offs[p], at = at, at+offs[p]
	}
}

// shuffled is the task's shuffle output, the pairs of a kernel that
// did not size them moved into place by a stable counting sort.
func (mc *MapCtx) shuffled() Partitioned {
	if !mc.placed && len(mc.pairs) > 0 {
		for _, p := range mc.dest {
			mc.offs[p+1]++
		}
		firstSlots(mc.offs)
		placed := make([]Pair, len(mc.pairs))
		for i, p := range mc.dest {
			placed[mc.offs[p+1]] = mc.pairs[i]
			mc.offs[p+1]++
		}
		pairSlices.put(mc.pairs)
		mc.pairs = placed
	}
	return Partitioned{Pairs: mc.pairs, Offs: mc.offs}
}

// Partitioned is a shuffle task's output: its pairs in one array by
// partition, each in emit order, cut into windows by R+1 offsets.
type Partitioned struct {
	Pairs []Pair
	Offs  []int
}

// Part is partition p's window of the pairs, nil past the last one.
func (s Partitioned) Part(p int) []Pair {
	if p < 0 || p+1 >= len(s.Offs) {
		return nil
	}
	lo, hi := s.Offs[p], s.Offs[p+1]
	return s.Pairs[lo:hi:hi]
}

// NumParts is the number of partitions, 0 for a map-only task.
func (s Partitioned) NumParts() int { return max(len(s.Offs)-1, 0) }

// MapFunc is a map kernel: it processes one whole split through its
// columnar image (see batch.Data, which builds vectors, wrapped rows and
// key columns on request), emitting rows or pairs in split order.
type MapFunc func(mc *MapCtx, d *batch.Data)

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
// in group order, into scratch valid until the next call (one ReduceFunc
// serves a job's reduce tasks concurrently: per-group state lives here).
func (rc *ReduceCtx) Sides(group []Pair, left string) (ls, rs []data.Value) {
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

// ReduceFunc processes all records sharing a key: group is their window
// of the sorted pairs (tagged with their input's side), valid only for
// the call; reducers must copy anything they keep.
type ReduceFunc func(rc *ReduceCtx, key data.Value, group []Pair)

// MapTask is one map task's record loop: a split, the kernel to run
// over it, and the broadcast tables it probes.
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
	// Combine, when non-nil, folds each shuffle partition per key before
	// the task returns (the classic map-side combiner). It emits at most
	// as many rows as each group holds: they replace the group in place.
	Combine ReduceFunc
	// NumReducers partitions shuffle output; 0 marks a map-only task.
	NumReducers int
	Builds      map[string]*HashTable
}

// MapOutput is what a map task's record loop produced. A map-only
// task's rows are Rows, or From at the positions Sel (MapCtx.EmitSel).
// Rows comes from the row pool, for whoever proves no one holds it to
// recycle (the in-process job, at its end); From and Sel belong to the
// split's image. A shuffle task's pairs are Shuffled, its own array.
type MapOutput struct {
	Rows     []data.Value
	From     []data.Value
	Sel      []int32
	Shuffled Partitioned
	// CPUMap is the UDF cost of the map phase alone; CPUTotal
	// additionally includes the combiner.
	CPUMap   float64
	CPUTotal float64
}

// RunMapTask executes one map task's record loop: the kernel over the
// split's image, then the combiner over the partitions.
func RunMapTask(t *MapTask) (MapOutput, error) {
	ectx := t.Ctx
	if ectx == nil {
		ectx = &expr.Ctx{Reg: t.Reg}
	}
	mc := &MapCtx{ectx: ectx, builds: t.Builds, n: len(t.Recs)}
	if t.NumReducers > 0 {
		mc.offs = make([]int, t.NumReducers+1)
	}
	t.Map(mc, batch.For(t.Aux, t.Recs))
	out := MapOutput{Rows: mc.rows, From: mc.from, Sel: mc.sel, CPUMap: ectx.CPUSeconds}
	if mc.offs != nil {
		out.Shuffled = mc.shuffled()
	}
	if ectx.Err == nil && t.Combine != nil {
		combineParts(&out.Shuffled, t.Combine, ectx)
	}
	out.CPUTotal = ectx.CPUSeconds
	return out, ectx.Err
}

// taskRows is a map-only task's output as a buffer the job owns and
// recycles at its end: the rows it emitted, or the rows of from at the
// positions sel gathered into one from the pool.
func taskRows(rows, from []data.Value, sel []int32) []data.Value {
	if len(sel) == 0 {
		return rows
	}
	out := rowSlices.get(len(sel))
	for _, i := range sel {
		out = append(out, from[i])
	}
	return out
}

// combineParts folds each partition's pairs per key through the
// combiner, window by window, each group's output overwriting slots
// already read: the array compacts in place.
func combineParts(s *Partitioned, combine ReduceFunc, ectx *expr.Ctx) {
	rc := &ReduceCtx{ectx: ectx}
	at := 0
	for p := range s.NumParts() {
		lo, hi := s.Offs[p], s.Offs[p+1]
		s.Offs[p] = at
		window := s.Pairs[lo:hi]
		SortPairsByKey(window)
		read := lo
		eachGroup(window, func(group []Pair) {
			lead := group[0]
			rc.rows = rc.rows[:0]
			combine(rc, lead.Key, group)
			read += len(group)
			if at+len(rc.rows) > read && ectx.Err == nil {
				ectx.Err = fmt.Errorf("mapreduce: combiner emitted %d rows for a group of %d", len(rc.rows), len(group))
			}
			for _, rec := range rc.rows[:min(len(rc.rows), read-at)] {
				s.Pairs[at] = Pair{Key: lead.Key, Rec: rec, nk: lead.nk}
				at++
			}
		})
	}
	if n := s.NumParts(); n > 0 {
		s.Offs[n] = at
	}
	clear(s.Pairs[at:]) // the array lives as long as the job: pin no records
	s.Pairs = s.Pairs[:at]
}

// RunReduceTask executes one reduce task's record loop over pairs
// SortPairsByKey put in reduce key order, returning the emitted rows and
// the UDF CPU cost.
func RunReduceTask(reg *expr.Registry, reduce ReduceFunc, pairs []Pair) ([]data.Value, float64, error) {
	ectx := &expr.Ctx{Reg: reg}
	rc := &ReduceCtx{ectx: ectx, rows: rowSlices.get(0)}
	eachGroup(pairs, func(group []Pair) {
		reduce(rc, group[0].Key, group)
	})
	return rc.rows, ectx.CPUSeconds, ectx.Err
}

// eachGroup walks pairs sorted by SortPairsByKey one key group at a
// time: a group is a run of equal normalized keys, handed to fn as its
// window of pairs.
func eachGroup(pairs []Pair, fn func(group []Pair)) {
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].nk == pairs[lo].nk {
			hi++
		}
		fn(pairs[lo:hi:hi])
		lo = hi
	}
}
