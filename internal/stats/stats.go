package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"dyno/internal/batch"
	"dyno/internal/data"
)

// ColStats summarizes one attribute of a (real or virtual) relation.
type ColStats struct {
	NDV float64 // estimated number of distinct values
}

// TableStats summarizes a relation: cardinality, average record size in
// virtual bytes, and per-attribute statistics keyed by column path
// (e.g. "o.o_custkey").
type TableStats struct {
	Card       float64
	AvgRecSize float64
	Cols       map[string]ColStats
}

// SizeBytes returns the relation's estimated virtual byte size.
func (t TableStats) SizeBytes() float64 { return t.Card * t.AvgRecSize }

// String renders a compact summary.
func (t TableStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "card=%.0f avg=%.1fB", t.Card, t.AvgRecSize)
	paths := make([]string, 0, len(t.Cols))
	for p := range t.Cols {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		c := t.Cols[p]
		fmt.Fprintf(&sb, " %s{ndv=%.0f}", p, c.NDV)
	}
	return sb.String()
}

// freqCap bounds the per-column frequency sketch (as a multiple of the
// KMV size); columns exceeding it are treated as high-cardinality.
const freqCap = 4

// foldBound is the tail length at which a task folds its raw hashes
// into the sorted run, so a huge task holds at most foldBound raw
// hashes plus freqCap·k distinct ones per column.
const foldBound = 4096

// colAcc accumulates one column's observations as a run of hashes read
// two ways: the k smallest are the KMV synopsis, the counts the
// frequency sketch. A task appends rows' hashes to tail, or a scan task
// walks its split's hash order into run; a column it never sees
// non-null — the common case across a job's many map tasks — costs two
// nil slices. tail is folded into run when it reaches foldBound and,
// for a whole job, once by MergePartials.
type colAcc struct {
	tail []uint64 // raw hashes, unsorted, duplicates kept
	// run is sorted by hash and distinct: every hash folded so far with
	// its count, or only the k smallest once more than freqCap·k were
	// seen (overflow: high-cardinality, the counts no longer read).
	run      []hashCount
	overflow bool
}

type hashCount struct {
	h uint64
	n int64
}

// observe appends one hash. After overflow only a hash below the k-th
// smallest can change the run; the rest are rejected with one compare.
func (a *colAcc) observe(h uint64, k, expect int) {
	if a.overflow && h >= a.run[k-1].h {
		return
	}
	if a.tail == nil && expect > 0 {
		a.tail = make([]uint64, 0, min(expect, foldBound))
	}
	if a.tail = append(a.tail, h); len(a.tail) >= foldBound {
		a.run, a.overflow = mergeRuns([][]hashCount{a.run, sortRun(a.tail, k)}, a.overflow, k)
		a.tail = a.tail[:0]
	}
}

// sortRun is raw as a run: sorted as plain uint64s, run-length-encoded,
// cut once it holds freqCap·k + 1 distinct hashes. A long raw mostly
// cannot matter — past freqCap·k distinct hashes only the k smallest
// do — so it is sorted lowest hashes first, in slabs: the hashes under a
// cut that uniform hashing puts about 2·freqCap·k values below are moved
// to the front and sorted alone, then a slab four times that, and so on
// until the run is cut or raw is used up (a column of few, repeated
// values). The cuts decide how much is sorted, never the result.
func sortRun(raw []uint64, k int) []hashCount {
	limit, lo := freqCap*k, 0.0
	run := make([]hashCount, 0, min(len(raw), limit+1))
	for want := 2 * limit; len(raw) > 0 && len(run) <= limit; want *= 4 {
		m := len(raw)
		if m > 2*want {
			lo += (hashSpace - lo) * float64(want) / float64(m)
			cut := uint64(lo)
			m = 0
			for i, h := range raw {
				if h < cut {
					raw[i], raw[m] = raw[m], h
					m++
				}
			}
		}
		slab := raw[:m]
		raw = raw[m:]
		slices.Sort(slab)
		for i := 0; i < len(slab) && len(run) <= limit; {
			j := i + 1
			for j < len(slab) && slab[j] == slab[i] {
				j++
			}
			run = append(run, hashCount{slab[i], int64(j - i)})
			i = j
		}
	}
	return run
}

// mergeRuns merges sorted distinct runs, summing equal hashes' counts,
// into a fresh run allocated once: one k-way merge over a heap of their
// heads (runs' headers are consumed, the runs only read). It has
// overflowed iff some run had (overflow) or the union holds more than
// freqCap·k distinct hashes — a property of the set of values, not of
// their order — and then keeps the k smallest, so it stops once k, or
// else freqCap·k + 1, hashes are out.
func mergeRuns(runs [][]hashCount, overflow bool, k int) ([]hashCount, bool) {
	limit, n, heap := freqCap*k, 0, runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			n, heap, overflow = n+len(r), append(heap, r), overflow || len(r) > limit
		}
	}
	if n = min(n, limit+1); overflow {
		n = min(n, k)
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	out := make([]hashCount, 0, n)
	for len(heap) > 0 && len(out) < n {
		e := hashCount{heap[0][0].h, 0}
		for len(heap) > 0 && heap[0][0].h == e.h {
			if e.n, heap[0] = e.n+heap[0][0].n, heap[0][1:]; len(heap[0]) == 0 {
				heap[0], heap = heap[len(heap)-1], heap[:len(heap)-1]
			}
			siftDown(heap, 0)
		}
		out = append(out, e)
	}
	if len(out) > limit {
		overflow, out = true, out[:k]
	}
	return out, overflow
}

// siftDown restores the min-heap of runs ordered by head hash below i.
func siftDown(heap [][]hashCount, i int) {
	for c := 2*i + 1; c < len(heap); i, c = c, 2*c+1 {
		if c+1 < len(heap) && heap[c+1][0].h < heap[c][0].h {
			c++
		}
		if heap[i][0].h <= heap[c][0].h {
			return
		}
		heap[i], heap[c] = heap[c], heap[i]
	}
}

// Partial is the statistics a single task publishes: input/output record
// counts, output bytes, and per-column accumulators. Partials from all
// tasks of a job merge into a Partial for the whole output.
//
// A collector's Partial is unsealed: its columns may hold a raw tail,
// which only the task that owns the collector folds, and only while it
// is still observing. MergePartials is the one thing that seals, and it
// seals a fresh Partial: its inputs are read, never sorted, truncated
// or aliased, so the same partials can be merged again. Exact and
// Extrapolate only read a sealed Partial (any number of goroutines may
// share one); handed an unsealed one they merge it into a sealed copy
// first and leave it as it was.
type Partial struct {
	InRecords  int64
	OutRecords int64
	OutBytes   int64
	keys       []string // column paths, distinct
	cols       []colAcc // parallel to keys
	kmvSize    int
	sealed     bool // every tail folded: set by MergePartials only
}

// Collector builds a Partial for one task. Paths name the attributes to
// track (only join-relevant attributes, per §4.3, to bound overhead).
type Collector struct {
	paths   []data.Path
	accs    []*data.Accessor // compiled against the first observed record
	cols    []int            // the partial's column for paths[i]
	partial Partial
}

// NewCollector returns a collector tracking the given column paths.
func NewCollector(paths []data.Path, kmvSize int) *Collector {
	c := &Collector{paths: paths, cols: make([]int, len(paths))}
	p := &c.partial
	p.keys, p.kmvSize = make([]string, 0, len(paths)), clampK(kmvSize)
	for i, path := range paths {
		key := path.String()
		if c.cols[i] = slices.Index(p.keys, key); c.cols[i] < 0 {
			c.cols[i], p.keys = len(p.keys), append(p.keys, key)
		}
	}
	p.cols = make([]colAcc, len(p.keys))
	return c
}

// ObserveInputs counts n records read before filtering.
func (c *Collector) ObserveInputs(n int) { c.partial.InRecords += int64(n) }

// ObserveOutputs records a task's output rows and their total virtual
// byte size. Column paths are compiled into positional accessors against
// the first record seen (collectors are per-task, so this is race-free);
// the accessors verify field positions per record and fall back to name
// lookup, so values are identical to Path.Eval on any record mix. The
// walk is column-major, a tight gather of a few rows' values before they
// are hashed: the cache misses of reaching into consecutive
// rows overlap. Per column the values are still observed in row order,
// into a run allocated once for all of them.
func (c *Collector) ObserveOutputs(rows []data.Value, totalBytes int64) {
	c.partial.OutRecords += int64(len(rows))
	c.partial.OutBytes += totalBytes
	if c.accs == nil && len(rows) > 0 {
		c.accs = data.CompileAccessors(c.paths, rows[0])
	}
	var buf [32]data.Value
	for i, a := range c.accs {
		acc := &c.partial.cols[c.cols[i]]
		for rest := rows; len(rest) > 0; {
			n := min(len(rest), len(buf))
			for r, rec := range rest[:n] {
				buf[r] = a.Eval(rec)
			}
			rest = rest[n:]
			for _, v := range buf[:n] {
				if !v.IsNull() {
					acc.observe(data.Hash64(v), c.partial.kmvSize, len(rows))
				}
			}
		}
	}
}

// ObserveScan is ObserveOutputs over the rows of d.Wrapped(wrap) at the
// ascending positions sel — an unpruned scan task's output — read off
// the split's hash orders: per path, one walk of the column's sorted
// hashes counts each distinct hash of the rows sel names into a run, cut
// as sortRun cuts it. No value is evaluated or hashed, nothing sorted.
func (c *Collector) ObserveScan(d *batch.Data, wrap string, sel []int32, totalBytes int64) {
	c.partial.OutRecords += int64(len(sel))
	c.partial.OutBytes += totalBytes
	var keep []uint64 // a bit per row sel names; nil when it names all
	if n := len(d.Records()); len(sel) < n {
		keep = make([]uint64, (n+63)/64)
		for _, r := range sel {
			keep[r>>6] |= 1 << (r & 63)
		}
	}
	k := c.partial.kmvSize
	for i, path := range c.paths {
		o := d.HashOrder(wrap, path, c.partial.keys[c.cols[i]])
		run := walk(o, keep, make([]hashCount, 0, min(len(sel), o.Distinct, freqCap*k+1)))
		overflow := len(run) > freqCap*k
		if overflow {
			run = run[:k]
		}
		if acc := &c.partial.cols[c.cols[i]]; len(acc.run) == 0 {
			acc.run, acc.overflow = run, overflow
		} else {
			acc.run, acc.overflow = mergeRuns([][]hashCount{acc.run, run}, acc.overflow || overflow, k)
		}
	}
}

// walk appends to run, in ascending hash order, each distinct hash of
// o's rows that keep selects (all when nil) with its count, until run is
// full: its capacity is at least their number, or freqCap·k + 1.
func walk(o *batch.HashOrder, keep []uint64, run []hashCount) []hashCount {
	for i := 0; i < len(o.Rows) && len(run) < cap(run); {
		h, n := o.Hashes[o.Rows[i]], int64(0)
		for ; i < len(o.Rows) && o.Hashes[o.Rows[i]] == h; i++ {
			if r := o.Rows[i]; keep == nil || keep[r>>6]&(1<<(r&63)) != 0 {
				n++
			}
		}
		if n > 0 {
			run = append(run, hashCount{h, n})
		}
	}
	return run
}

// ObserveOutput is ObserveOutputs for one record.
func (c *Collector) ObserveOutput(rec data.Value, n int64) { c.ObserveOutputs([]data.Value{rec}, n) }

// Partial returns the accumulated statistics. It does no work: the
// job's one sort and one merge are MergePartials'.
func (c *Collector) Partial() *Partial { return &c.partial }

// MergePartials combines task-level partials into one (the client-side
// merge the paper performs after reading the per-task statistics files
// published in ZooKeeper). Per column it concatenates every task's tail
// into one exactly-sized slice, sorts that once into a run, and merges
// it with every task's own run (a scan task's, or one a task folded) in
// one k-way merge. The result is sealed and shares no memory with parts.
func MergePartials(parts []*Partial) *Partial {
	return MergePartialsOn(parts, func(n int, fn func(i int)) {
		for i := range n {
			fn(i)
		}
	})
}

// MergePartialsOn is MergePartials with the record-sized share of the
// merge — a call per column: concatenate, sort, merge — handed to par, a
// parallel-for, in one batch (so a caller can ride more work on it).
// Columns share nothing: the result does not depend on how par runs them.
func MergePartialsOn(parts []*Partial, par func(n int, fn func(i int))) *Partial {
	out := &Partial{kmvSize: DefaultKMVSize, sealed: true}
	var tails []int      // per output column, the summed tail lengths
	var srcs [][]*colAcc // and every part's accumulator for it
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.kmvSize > 0 {
			out.kmvSize = p.kmvSize
		}
		out.InRecords += p.InRecords
		out.OutRecords += p.OutRecords
		out.OutBytes += p.OutBytes
		for i := range p.cols {
			// A job's tasks all track the same paths in the same order:
			// guess the same position first.
			acc, j := &p.cols[i], i
			if j >= len(out.keys) || out.keys[j] != p.keys[i] {
				if j = slices.Index(out.keys, p.keys[i]); j < 0 {
					j = len(out.keys)
					out.keys = append(out.keys, p.keys[i])
					out.cols = append(out.cols, colAcc{})
					tails = append(tails, 0)
					srcs = append(srcs, make([]*colAcc, 0, len(parts)))
				}
			}
			tails[j] += len(acc.tail)
			srcs[j] = append(srcs[j], acc)
		}
	}
	par(len(out.cols), func(j int) {
		raw, runs, overflow := make([]uint64, 0, tails[j]), make([][]hashCount, 1, len(srcs[j])+1), false
		for _, acc := range srcs[j] {
			raw, runs, overflow = append(raw, acc.tail...), append(runs, acc.run), overflow || acc.overflow
		}
		runs[0] = sortRun(raw, out.kmvSize)
		out.cols[j].run, out.cols[j].overflow = mergeRuns(runs, overflow, out.kmvSize)
	})
	return out
}

// selectivity returns the observed fraction of input records that
// survived (1 when nothing was read).
func (p *Partial) selectivity() float64 {
	if p.InRecords == 0 {
		return 1
	}
	return float64(p.OutRecords) / float64(p.InRecords)
}

// avgRecSize returns the observed mean output record size.
func (p *Partial) avgRecSize() float64 {
	if p.OutRecords == 0 {
		return 0
	}
	return float64(p.OutBytes) / float64(p.OutRecords)
}

// Extrapolate converts sample statistics into TableStats for the full
// relation.
//
// totalInput is the full relation's input cardinality estimate (for a
// pilot run, size(R)/avg input record size; for a completed job, the
// exact input count). The filtered cardinality estimate is
// selectivity · totalInput, and distinct values scale by the paper's
// linear rule DV(R) = |R|/|Rs| · DV(Rs), capped by the cardinality.
func (p *Partial) Extrapolate(totalInput float64) TableStats {
	sel := p.selectivity()
	card := max(sel*totalInput, float64(p.OutRecords))
	scale := 1.0
	if p.OutRecords > 0 && card > float64(p.OutRecords) {
		scale = card / float64(p.OutRecords)
	}
	return p.tableStats(card, func(acc *colAcc, k int) float64 { return extrapolateNDV(acc, k, scale, card) })
}

// tableStats reads every column off the sealed form of p.
func (p *Partial) tableStats(card float64, ndv func(acc *colAcc, k int) float64) TableStats {
	if !p.sealed {
		p = MergePartials([]*Partial{p})
	}
	ts := TableStats{Card: card, AvgRecSize: p.avgRecSize(), Cols: make(map[string]ColStats, len(p.cols))}
	for i := range p.cols {
		acc := &p.cols[i]
		ts.Cols[p.keys[i]] = ColStats{NDV: ndv(acc, p.kmvSize)}
	}
	return ts
}

// extrapolateNDV scales a sampled column's distinct-value estimate to
// the full relation. The paper uses the linear rule
// DV(R) = |R|/|Rs| · DV(Rs) and notes it is imprecise (its authors
// defer better estimators to future work); linear extrapolation
// explodes low-cardinality columns, so when the sample's complete value
// frequencies are available we use the Chao1 richness estimator
// D + f1²/(2·(f2+1)) instead — with f1 singletons and f2 doubletons —
// which converges to the sample's distinct count once values repeat.
// High-cardinality columns (frequency sketch overflow, or nearly all
// sample values distinct) keep the paper's linear rule.
func extrapolateNDV(acc *colAcc, k int, scale, card float64) float64 {
	linear := math.Min(estimate(acc.run, k)*scale, card)
	if acc.overflow || len(acc.run) == 0 {
		return linear
	}
	var f1, f2 int64
	for _, e := range acc.run {
		switch e.n {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	d := float64(len(acc.run))
	if float64(f1) > 0.95*d {
		// Nearly every sampled value is unique: the sample says
		// nothing about saturation; fall back to the linear rule.
		return linear
	}
	chao := d + float64(f1*f1)/(2*float64(f2+1))
	return math.Min(math.Max(chao, d), card)
}

// Exact converts a complete (unsampled) partial into TableStats; no
// extrapolation is applied because every record was observed.
func (p *Partial) Exact() TableStats {
	card := float64(p.OutRecords)
	return p.tableStats(card, func(acc *colAcc, k int) float64 { return math.Min(estimate(acc.run, k), card) })
}

// Store is the statistics metastore. Entries are keyed by expression
// signature so that recurring queries, or the same leaf expression in
// different queries, reuse statistics (§4.1).
type Store struct {
	mu sync.Mutex
	m  map[string]TableStats
}

// NewStore returns an empty metastore.
func NewStore() *Store { return &Store{m: make(map[string]TableStats)} }

// Put stores statistics under a signature.
func (s *Store) Put(signature string, ts TableStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[signature] = ts
}

// Get looks statistics up by signature.
func (s *Store) Get(signature string) (TableStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.m[signature]
	return ts, ok
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Signatures returns the sorted stored signatures.
func (s *Store) Signatures() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
