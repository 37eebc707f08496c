package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

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

// Col returns statistics for a column path, with ok=false when unknown.
func (t TableStats) Col(path string) (ColStats, bool) {
	c, ok := t.Cols[path]
	return c, ok
}

// NDVOr returns the column's distinct-value estimate, falling back to
// the given default when the column is unknown.
func (t TableStats) NDVOr(path string, def float64) float64 {
	if c, ok := t.Cols[path]; ok && c.NDV > 0 {
		return c.NDV
	}
	return def
}

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
// frequency sketch. A task only appends to tail; a column it never sees
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
		a.absorb(a.tail, k)
		a.tail = a.tail[:0]
	}
}

// absorb folds raw hashes into the run: sorted as plain uint64s (raw is
// reordered, never kept), run-length-encoded, then unioned in. A long
// raw mostly cannot matter — past freqCap·k distinct hashes only the k
// smallest do — so it is sorted lowest hashes first, in slabs: the
// hashes under a cut that uniform hashing puts about 2·freqCap·k values
// below are moved to the front and sorted alone, then a slab four times
// that, and so on until the run overflows or raw is used up (a column of
// few, repeated values). The cuts decide how much is sorted, never the
// result.
func (a *colAcc) absorb(raw []uint64, k int) {
	if len(raw) == 0 {
		return
	}
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
	a.union(run, len(run) > limit, k)
}

// union merges another sorted distinct run into a's, summing counts.
// The result has overflowed iff either side had or the union holds more
// than freqCap·k distinct hashes — a property of the set of values, not
// of the order they arrived in — and then keeps only the k smallest,
// which are the k smallest of the two sides' k smallest.
func (a *colAcc) union(b []hashCount, overflow bool, k int) {
	overflow = overflow || a.overflow
	n := len(a.run) + len(b)
	if overflow {
		n = min(n, k)
	}
	out := make([]hashCount, 0, n)
	for i, j := 0, 0; len(out) < n && (i < len(a.run) || j < len(b)); {
		switch {
		case j == len(b) || (i < len(a.run) && a.run[i].h < b[j].h):
			out = append(out, a.run[i])
			i++
		case i == len(a.run) || b[j].h < a.run[i].h:
			out = append(out, b[j])
			j++
		default:
			out = append(out, hashCount{b[j].h, a.run[i].n + b[j].n})
			i, j = i+1, j+1
		}
	}
	if len(out) > freqCap*k {
		overflow, out = true, out[:k]
	}
	a.run, a.overflow = out, overflow
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
	cols    []*colAcc        // the partial's column for paths[i]
	partial Partial
}

// NewCollector returns a collector tracking the given column paths.
func NewCollector(paths []data.Path, kmvSize int) *Collector {
	c := &Collector{paths: paths, cols: make([]*colAcc, len(paths))}
	p := &c.partial
	p.keys, p.cols, p.kmvSize = make([]string, 0, len(paths)), make([]colAcc, len(paths)), clampK(kmvSize)
	for i, path := range paths {
		key := path.String()
		j := slices.Index(p.keys, key)
		if j < 0 {
			j = len(p.keys)
			p.keys = append(p.keys, key)
		}
		c.cols[i] = &p.cols[j]
	}
	p.cols = p.cols[:len(p.keys)]
	return c
}

// ObserveInput counts a record read before filtering.
func (c *Collector) ObserveInput() { c.partial.InRecords++ }

// ObserveInputs counts n records read before filtering — the batch
// equivalent of n ObserveInput calls.
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
		acc := c.cols[i]
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

// ObserveOutput is ObserveOutputs for one record.
func (c *Collector) ObserveOutput(rec data.Value, n int64) { c.ObserveOutputs([]data.Value{rec}, n) }

// Partial returns the accumulated statistics. It does no work: the
// tasks of a job only append, and the one sort is MergePartials'.
func (c *Collector) Partial() *Partial { return &c.partial }

// MergePartials combines task-level partials into one (the client-side
// merge the paper performs after reading the per-task statistics files
// published in ZooKeeper). Per column it concatenates every task's tail
// into one exactly-sized slice and sorts that once; runs a task already
// folded (rare: more than foldBound values) are unioned in afterwards.
// The result is sealed and shares no memory with parts.
func MergePartials(parts []*Partial) *Partial {
	return MergePartialsOn(parts, func(n int, fn func(i int)) {
		for i := range n {
			fn(i)
		}
	})
}

// MergePartialsOn is MergePartials with the record-sized share of the
// merge — a call per column: concatenate, union, sort — handed to par, a
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
		dst, raw := &out.cols[j], make([]uint64, 0, tails[j])
		for _, acc := range srcs[j] {
			raw = append(raw, acc.tail...)
			if len(acc.run) > 0 {
				dst.union(acc.run, acc.overflow, out.kmvSize)
			}
		}
		dst.absorb(raw, out.kmvSize)
	})
	return out
}

// Selectivity returns the observed fraction of input records that
// survived (1 when nothing was read).
func (p *Partial) Selectivity() float64 {
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
	sel := p.Selectivity()
	card := sel * totalInput
	if card < float64(p.OutRecords) {
		card = float64(p.OutRecords)
	}
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
