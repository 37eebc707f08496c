package mapreduce

import (
	"fmt"
	"strings"
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
	// A shuffle task's output (out.Offs is nil for a map-only task), and
	// EmitKV's positions and key hashes until the task ends.
	out     Partitioned
	emitted []int32
	hashes  []uint64
	nks     strings.Builder // EmitKV's normalized keys: NK views them
	nk      []byte          // the one being encoded
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
// the record's reduce task and so its output position. The pair goes
// into columns the task owns, its key normalized once for sorting and
// grouping to compare. Every pair of a task carries the same tag.
func (mc *MapCtx) EmitKV(key data.Value, tag string, rec data.Value) {
	s := &mc.out
	if len(s.Keys) > 0 && tag != s.Tag && mc.ectx.Err == nil {
		mc.ectx.Err = fmt.Errorf("mapreduce: one map task emitted tags %q and %q", s.Tag, tag)
	}
	mc.nk, _ = data.AppendNormKey(mc.nk[:0], key) // at least one byte
	at := mc.nks.Len()
	mc.nks.Write(mc.nk) // a returned String stays valid across later writes
	s.Keys, s.NK = append(s.Keys, key), append(s.NK, mc.nks.String()[at:])
	s.Recs, s.Tag = append(s.Recs, rec), tag
	mc.emitted, mc.hashes = append(mc.emitted, int32(len(mc.emitted))), append(mc.hashes, data.Hash64(key))
}

// ShuffleSel routes the pairs (keys[i], tag, recs[i]), for each i in
// the ascending selection sel, through the shuffle by hashes[i] in one
// call: the task's output is positions into these columns, which it
// keeps, not copies. nk[i] must be keys[i]'s normalized encoding and
// hashes[i] its data.Hash64, as a shuffle kernel reads them from the
// split's cached key columns. A kernel calls it at most once and emits
// nothing else; no slice may change after.
func (mc *MapCtx) ShuffleSel(keys []data.Value, nk []string, hashes []uint64, recs []data.Value, sel []int32, tag string) {
	s := &mc.out
	s.Keys, s.NK, s.Recs, s.Tag = keys, nk, recs, tag
	// A stable counting sort: Offs[p+1] counts partition p, then is its
	// next slot, so at the end it ends p.
	r := uint64(len(s.Offs) - 1)
	for _, i := range sel {
		s.Offs[hashes[i]%r+1]++
	}
	var first int32
	for p := 1; p < len(s.Offs); p++ {
		s.Offs[p], first = first, first+s.Offs[p]
	}
	s.Idx = make([]int32, len(sel))
	for _, i := range sel {
		p := hashes[i]%r + 1
		s.Idx[s.Offs[p]] = i
		s.Offs[p]++
	}
}

// Partitioned is a shuffle task's output as positions into columns: the
// pair at position i is (Keys[i], Tag, Recs[i]), NK[i] its key's
// normalized encoding. Idx lists the positions by partition, each
// partition in emit order, cut into windows by R+1 offsets. A
// repartition kernel's columns are its split's cached key columns and
// rows, so the task allocates only Idx and Offs.
type Partitioned struct {
	Keys []data.Value
	NK   []string
	Recs []data.Value
	Tag  string
	Idx  []int32
	Offs []int32
}

// Part is partition p's window of Idx, nil past the last one.
func (s *Partitioned) Part(p int) []int32 {
	if p < 0 || p+1 >= len(s.Offs) {
		return nil
	}
	lo, hi := s.Offs[p], s.Offs[p+1]
	return s.Idx[lo:hi:hi]
}

// NumParts is the number of partitions, 0 for a map-only task.
func (s *Partitioned) NumParts() int { return max(len(s.Offs)-1, 0) }

// AppendPart appends partition p's pairs, in order, to dst.
func (s *Partitioned) AppendPart(dst []Pair, p int) []Pair {
	for _, i := range s.Part(p) {
		dst = append(dst, Pair{Key: s.Keys[i], Tag: s.Tag, Rec: s.Recs[i], nk: s.NK[i]})
	}
	return dst
}

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
	// as many rows as each group holds: they replace the group.
	Combine ReduceFunc
	// NumReducers partitions shuffle output; 0 marks a map-only task.
	NumReducers int
	Builds      map[string]*HashTable
}

// MapOutput is what a map task's record loop produced. A map-only
// task's rows are Rows, or From at the positions Sel (MapCtx.EmitSel).
// Rows comes from the row pool, for whoever proves no one holds it to
// recycle (the in-process job, at its end); From and Sel belong to the
// split's image. A shuffle task's pairs are Shuffled, positions into
// columns that are the split's image or its own (see Partitioned).
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
		mc.out.Offs = make([]int32, t.NumReducers+1)
	}
	t.Map(mc, batch.For(t.Aux, t.Recs))
	out := MapOutput{Rows: mc.rows, From: mc.from, Sel: mc.sel, CPUMap: ectx.CPUSeconds}
	if mc.emitted != nil && mc.out.Offs != nil {
		mc.ShuffleSel(mc.out.Keys, mc.out.NK, mc.hashes, mc.out.Recs, mc.emitted, mc.out.Tag)
	}
	out.Shuffled = mc.out
	if ectx.Err == nil && t.Combine != nil && t.NumReducers > 0 {
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
// combiner, window by window, into columns of its own: the output's Idx
// compacts in place, each window's pairs gathered into one scratch
// before its first output position is written.
func combineParts(s *Partitioned, combine ReduceFunc, ectx *expr.Ctx) {
	rc := &ReduceCtx{ectx: ectx}
	in := *s
	s.Keys, s.NK, s.Recs, s.Tag = nil, nil, nil, ""
	window, at := []Pair(nil), int32(0)
	for p := range in.NumParts() {
		window = in.AppendPart(window[:0], p)
		s.Offs[p] = at
		SortPairsByKey(window)
		eachGroup(window, func(group []Pair) {
			lead := group[0]
			rc.rows = rc.rows[:0]
			combine(rc, lead.Key, group)
			if len(rc.rows) > len(group) && ectx.Err == nil {
				ectx.Err = fmt.Errorf("mapreduce: combiner emitted %d rows for a group of %d", len(rc.rows), len(group))
			}
			for _, rec := range rc.rows[:min(len(rc.rows), len(group))] {
				s.Keys, s.NK, s.Recs = append(s.Keys, lead.Key), append(s.NK, lead.nk), append(s.Recs, rec)
				s.Idx[at] = at
				at++
			}
		})
	}
	s.Offs[len(s.Offs)-1] = at
	s.Idx = s.Idx[:at]
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
