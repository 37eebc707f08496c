package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"dyno/internal/data"
)

// ColStats summarizes one attribute of a (real or virtual) relation.
type ColStats struct {
	Min, Max data.Value
	NDV      float64 // estimated number of distinct values
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

// colAcc accumulates per-column observations inside a task. The KMV
// synopsis and frequency sketch are allocated on the first observation
// (kmvSize is threaded through observe), so tasks that never see a
// non-null value for a column — the common case across a job's many
// map tasks — cost two nil pointers instead of a map and a synopsis.
type colAcc struct {
	min, max data.Value
	seenAny  bool
	kmv      *KMV
	// freq counts value occurrences in the sample, bounded by
	// freqCap·kmvSize distinct entries; overflow marks the column
	// high-cardinality.
	freq     map[uint64]int64
	overflow bool
}

func (a *colAcc) observe(h uint64, kmvSize int) {
	if a.kmv == nil {
		a.kmv = NewKMV(kmvSize)
		a.freq = map[uint64]int64{}
	}
	a.kmv.Add(h)
	if a.overflow {
		return
	}
	if _, ok := a.freq[h]; !ok && len(a.freq) >= freqCap*a.kmv.K() {
		a.overflow = true
		a.freq = nil
		return
	}
	a.freq[h]++
}

// Partial is the statistics a single task publishes: input/output record
// counts, output bytes, and per-column accumulators. Partials from all
// tasks of a job merge into a Partial for the whole output.
type Partial struct {
	InRecords  int64
	OutRecords int64
	OutBytes   int64
	cols       map[string]*colAcc
	kmvSize    int
}

// Collector builds a Partial for one task. Paths name the attributes to
// track (only join-relevant attributes, per §4.3, to bound overhead).
type Collector struct {
	paths   []data.Path
	accs    []*data.Accessor // compiled against the first observed record
	cols    []*colAcc        // partial.cols[paths[i].String()], resolved once
	partial *Partial
}

// NewCollector returns a collector tracking the given column paths.
func NewCollector(paths []data.Path, kmvSize int) *Collector {
	if kmvSize <= 0 {
		kmvSize = DefaultKMVSize
	}
	p := &Partial{cols: make(map[string]*colAcc, len(paths)), kmvSize: kmvSize}
	cols := make([]*colAcc, len(paths))
	for i, path := range paths {
		key := path.String()
		if cols[i] = p.cols[key]; cols[i] == nil {
			cols[i] = &colAcc{}
			p.cols[key] = cols[i]
		}
	}
	return &Collector{paths: paths, cols: cols, partial: p}
}

// ObserveInput counts a record read before filtering.
func (c *Collector) ObserveInput() { c.partial.InRecords++ }

// ObserveInputs counts n records read before filtering — the batch
// equivalent of n ObserveInput calls.
func (c *Collector) ObserveInputs(n int) { c.partial.InRecords += int64(n) }

// ObserveOutput records one output record and its virtual byte size.
// Column paths are compiled into positional accessors against the first
// record seen (collectors are per-task, so this is race-free); the
// accessors verify field positions per record and fall back to name
// lookup, so values are identical to Path.Eval on any record mix.
func (c *Collector) ObserveOutput(rec data.Value, sizeBytes int64) {
	c.partial.OutRecords++
	c.partial.OutBytes += sizeBytes
	if c.accs == nil && len(c.paths) > 0 {
		c.accs = data.CompileAccessors(c.paths, rec)
	}
	for i := range c.paths {
		v := c.accs[i].Eval(rec)
		if v.IsNull() {
			continue
		}
		acc := c.cols[i]
		if !acc.seenAny || data.Compare(v, acc.min) < 0 {
			acc.min = v
		}
		if !acc.seenAny || data.Compare(v, acc.max) > 0 {
			acc.max = v
		}
		acc.seenAny = true
		acc.observe(data.Hash64(v), c.partial.kmvSize)
	}
}

// Partial returns the accumulated statistics.
func (c *Collector) Partial() *Partial { return c.partial }

// MergePartials combines task-level partials into one (the client-side
// merge the paper performs after reading the per-task statistics files
// published in ZooKeeper).
func MergePartials(parts []*Partial) *Partial {
	out := &Partial{cols: make(map[string]*colAcc), kmvSize: DefaultKMVSize}
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
		for k, acc := range p.cols {
			dst, ok := out.cols[k]
			if !ok {
				dst = &colAcc{}
				out.cols[k] = dst
			}
			if acc.seenAny {
				if !dst.seenAny || data.Compare(acc.min, dst.min) < 0 {
					dst.min = acc.min
				}
				if !dst.seenAny || data.Compare(acc.max, dst.max) > 0 {
					dst.max = acc.max
				}
				dst.seenAny = true
			}
			if acc.kmv != nil {
				if dst.kmv == nil {
					dst.kmv = NewKMV(acc.kmv.K())
					if !dst.overflow {
						dst.freq = map[uint64]int64{}
					}
				}
				dst.kmv.Merge(acc.kmv)
			}
			if acc.overflow {
				dst.overflow = true
				dst.freq = nil
			} else if !dst.overflow {
				for h, c := range acc.freq {
					if _, ok := dst.freq[h]; !ok && len(dst.freq) >= freqCap*dst.kmv.K() {
						dst.overflow = true
						dst.freq = nil
						break
					}
					dst.freq[h] += c
				}
			}
		}
	}
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

// AvgRecSize returns the observed mean output record size.
func (p *Partial) AvgRecSize() float64 {
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
	ts := TableStats{
		Card:       card,
		AvgRecSize: p.AvgRecSize(),
		Cols:       make(map[string]ColStats, len(p.cols)),
	}
	for k, acc := range p.cols {
		ndv := extrapolateNDV(acc, scale, card)
		ts.Cols[k] = ColStats{Min: acc.min, Max: acc.max, NDV: ndv}
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
func extrapolateNDV(acc *colAcc, scale, card float64) float64 {
	var linear float64
	if acc.kmv != nil {
		linear = math.Min(acc.kmv.Estimate()*scale, card)
	}
	if acc.overflow || len(acc.freq) == 0 {
		return linear
	}
	var n, f1, f2 int64
	for _, c := range acc.freq {
		n += c
		switch c {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	d := float64(len(acc.freq))
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
	ts := TableStats{
		Card:       float64(p.OutRecords),
		AvgRecSize: p.AvgRecSize(),
		Cols:       make(map[string]ColStats, len(p.cols)),
	}
	for k, acc := range p.cols {
		var ndv float64
		if acc.kmv != nil {
			ndv = math.Min(acc.kmv.Estimate(), ts.Card)
		}
		ts.Cols[k] = ColStats{Min: acc.min, Max: acc.max, NDV: ndv}
	}
	return ts
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

// Has reports whether a signature is present.
func (s *Store) Has(signature string) bool {
	_, ok := s.Get(signature)
	return ok
}

// Delete removes a signature.
func (s *Store) Delete(signature string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, signature)
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
