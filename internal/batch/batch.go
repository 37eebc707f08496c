// Package batch implements the columnar batch layer of the execution
// engine: per-split column vectors, cached selection vectors for
// predicates, pre-wrapped row images, and vectorized join-key columns
// (values, normalized keys, hashes). Every map kernel runs over it
// (internal/physop) and emits exactly the records a record-at-a-time
// loop would emit, in the same order, so results, traces, and
// statistics stay bit-identical (see physop's differential suite,
// which holds the kernels to that loop, kept as its test oracle).
package batch

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dyno/internal/data"
	"dyno/internal/expr"
)

// Data is the columnar image of one immutable split. It is built
// lazily, column by column, and cached on the split's auxiliary slot
// (dfs.Block.Aux), so its lifetime is the block's own and repeated
// scans of a split — pilot runs, re-optimized re-executions, benchmark
// repeats — share one extraction. All derived state (vectors, wrapped
// rows, selection vectors, key columns) is immutable once published;
// the mutex only guards construction.
type Data struct {
	recs []data.Value

	mu      sync.Mutex
	cols    map[string]*vec         // path -> column vector
	wrapped map[string][]data.Value // alias -> {alias: rec} row per record
	sels    map[string][]int32      // predicate signature -> selection
	keys    map[string]*KeyCols     // key signature -> key columns
	orders  map[[2]string]*HashOrder
	allSel  []int32
}

// For returns the split's columnar image, attaching a new one to the
// cache slot on first use. slot may be nil (uncached, e.g. in tests);
// recs must be the split's immutable record slice.
func For(slot *atomic.Value, recs []data.Value) *Data {
	if slot == nil {
		return &Data{recs: recs}
	}
	if d, ok := slot.Load().(*Data); ok {
		return d
	}
	d := &Data{recs: recs}
	if slot.CompareAndSwap(nil, d) {
		return d
	}
	return slot.Load().(*Data)
}

// Records returns the raw record slice (not a copy).
func (d *Data) Records() []data.Value { return d.recs }

// Wrapped returns the split's rows wrapped as {alias: rec} — the exact
// values a scan-shaped map emits (data.ObjectFromSorted over a
// single-field slice, same encoded size, same field identity). An
// empty alias means the records are stored pre-wrapped and are
// returned as-is. The field slices come from one slab per alias, so
// the per-row wrap allocation of the record-at-a-time path is paid
// once per split instead of once per record per job.
func (d *Data) Wrapped(alias string) []data.Value {
	if alias == "" {
		return d.recs
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wrappedLocked(alias)
}

func (d *Data) wrappedLocked(alias string) []data.Value {
	if alias == "" {
		return d.recs
	}
	if rows, ok := d.wrapped[alias]; ok {
		return rows
	}
	n := len(d.recs)
	rows := make([]data.Value, n)
	slab := make([]data.Field, n)
	for i, rec := range d.recs {
		slab[i] = data.Field{Name: alias, Value: rec}
		rows[i] = data.ObjectFromSorted(slab[i : i+1 : i+1])
	}
	if d.wrapped == nil {
		d.wrapped = make(map[string][]data.Value)
	}
	d.wrapped[alias] = rows
	return rows
}

// Select evaluates a supported predicate (see Supported) over the raw
// records column-wise and returns the ascending selection of rows on
// which it is truthy. sig must be the predicate's String() rendering,
// computed once per job by the caller; the selection is cached under
// it — sound because supported predicates are pure functions of their
// column paths and literals (no UDF calls, no evaluation state), and
// expression String() renderings are faithful. Callers pass supported
// predicates only. A nil predicate selects every row. Callers must not
// mutate the returned slice.
func (d *Data) Select(pred expr.Expr, sig string) []int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pred == nil {
		return d.allSelLocked()
	}
	if s, ok := d.sels[sig]; ok {
		return s
	}
	s := d.evalPred(pred, d.allSelLocked())
	if d.sels == nil {
		d.sels = make(map[string][]int32)
	}
	d.sels[sig] = s
	return s
}

func (d *Data) allSelLocked() []int32 {
	if d.allSel == nil {
		d.allSel = make([]int32, len(d.recs))
		for i := range d.allSel {
			d.allSel[i] = int32(i)
		}
	}
	return d.allSel
}

// first is the row accessors over rows are compiled against: the first,
// null when there is none.
func first(rows []data.Value) data.Value {
	if len(rows) == 0 {
		return data.Null()
	}
	return rows[0]
}

// colLocked returns the cached vector for a column path, extracting it
// on first use through an accessor compiled against the split's first
// record (accessors verify positions per record, so heterogeneous
// splits still resolve correctly — identical to the per-record path).
func (d *Data) colLocked(path data.Path) *vec {
	sig := path.String()
	if v, ok := d.cols[sig]; ok {
		return v
	}
	v := extractVec(data.CompileAccessor(path, first(d.recs)), d.recs)
	if d.cols == nil {
		d.cols = make(map[string]*vec)
	}
	d.cols[sig] = v
	return v
}

// KeyCols is the vectorized image of a composite join/shuffle key over
// a split: the key value per row, its normalized encoding (see
// data.AppendNormKey), and lazily, the key's data.Hash64 per row
// (shuffle partitioning). The NK strings are
// substrings of one slab, so materializing a split's keys costs one
// allocation, not one per row.
type KeyCols struct {
	Vals []data.Value
	NK   []string
	hash []uint64
}

// KeySig builds the cache signature for Keys over the given alias and
// key paths. Callers compute it once per job and pass it to every Keys
// call, keeping the per-split cache probe allocation-free.
func KeySig(alias string, paths []data.Path) string {
	sig := alias
	for _, p := range paths {
		sig += "|" + p.String()
	}
	return sig
}

// Keys returns the cached key columns for the given key paths
// evaluated over the alias-wrapped rows ("" = raw records) by
// data.CompositeKey. sig must be KeySig(alias, paths).
func (d *Data) Keys(sig, alias string, paths []data.Path) *KeyCols {
	d.mu.Lock()
	defer d.mu.Unlock()
	if kc, ok := d.keys[sig]; ok {
		return kc
	}
	rows := d.wrappedLocked(alias)
	accs := data.CompileAccessors(paths, first(rows))
	keys := make([]data.Value, len(rows))
	for i, row := range rows {
		keys[i] = data.CompositeKey(row, accs)
	}
	kc := KeyColsOf(keys)
	if d.keys == nil {
		d.keys = make(map[string]*KeyCols)
	}
	d.keys[sig] = kc
	return kc
}

// KeyColsOf normalizes key values into key columns over them (vals is
// kept, not copied): the encodings are substrings of one slab, and the
// hashes are left for Hashes to compute.
func KeyColsOf(vals []data.Value) *KeyCols {
	kc := &KeyCols{Vals: vals, NK: make([]string, len(vals))}
	var slab strings.Builder
	slab.Grow(9 * len(vals))  // a number key's encoding is 9 bytes
	nk := make([]byte, 0, 64) // the one being encoded
	ends := make([]int32, len(vals))
	for i, k := range vals {
		nk, _ = data.AppendNormKey(nk[:0], k)
		slab.Write(nk)
		ends[i] = int32(slab.Len())
	}
	// One string over the slab, never written again: keys are its substrings.
	all, start := slab.String(), int32(0)
	for i := range kc.NK {
		kc.NK[i] = all[start:ends[i]]
		start = ends[i]
	}
	return kc
}

// Hashes returns data.Hash64 of each row's key, computed once per key
// column under the split's lock.
func (d *Data) Hashes(kc *KeyCols) []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if kc.hash == nil {
		h := make([]uint64, len(kc.Vals))
		for i, k := range kc.Vals {
			h[i] = data.Hash64(k)
		}
		kc.hash = h
	}
	return kc.hash
}

// HashOrder is a column of a split's wrapped rows as the statistics
// collector reads it, pointer-free: Hashes is each row's data.Hash64 of
// its value, Rows the rows whose value is not null in ascending hash
// order (ties in any order), Distinct the number of distinct hashes.
type HashOrder struct {
	Hashes   []uint64
	Rows     []int32
	Distinct int
}

// HashOrder returns the cached hash order of path evaluated over the
// rows wrapped under wrap ("" = raw records); sig must be path.String().
func (d *Data) HashOrder(wrap string, path data.Path, sig string) *HashOrder {
	d.mu.Lock()
	defer d.mu.Unlock()
	if o, ok := d.orders[[2]string{wrap, sig}]; ok {
		return o
	}
	rows := d.wrappedLocked(wrap)
	acc := data.CompileAccessor(path, first(rows))
	o := &HashOrder{Hashes: make([]uint64, len(rows)), Rows: make([]int32, 0, len(rows))}
	for i, row := range rows {
		if v := acc.Eval(row); !v.IsNull() {
			o.Hashes[i], o.Rows = data.Hash64(v), append(o.Rows, int32(i))
		}
	}
	slices.SortFunc(o.Rows, func(a, b int32) int { return cmp.Compare(o.Hashes[a], o.Hashes[b]) })
	for i, r := range o.Rows {
		if i == 0 || o.Hashes[r] != o.Hashes[o.Rows[i-1]] {
			o.Distinct++
		}
	}
	if d.orders == nil {
		d.orders = make(map[[2]string]*HashOrder)
	}
	d.orders[[2]string{wrap, sig}] = o
	return o
}
