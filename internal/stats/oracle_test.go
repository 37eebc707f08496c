package stats

// The accumulator this package used before a column became one sorted
// run of hashes, kept verbatim (names prefixed, the three KMV methods
// the accumulator never called dropped, nothing else changed) as
// the reference the run is held to: a k-minimum-values synopsis with a
// sorted insert per value, a map[uint64]int64 frequency sketch beside
// it, and a merge that folds one task's synopsis and map into the
// job's. oracle_diff_test.go drives both with the same records.

import (
	"math"
	"sort"

	"dyno/internal/data"
)

// oracleKMV is a k-minimum-values synopsis over a multiset of values: it
// retains the k smallest distinct 64-bit hashes observed. Synopses built
// over partitions merge losslessly (union, keep k smallest), which is
// how per-split synopses combine into a relation-wide one.
type oracleKMV struct {
	k    int
	vals []uint64 // sorted ascending, distinct, len <= k
}

// newOracleKMV returns an empty synopsis retaining k minimum hash values.
func newOracleKMV(k int) *oracleKMV {
	if k < 2 {
		k = 2
	}
	return &oracleKMV{k: k}
}

// K returns the synopsis size parameter.
func (s *oracleKMV) K() int { return s.k }

// Add inserts a raw hash.
func (s *oracleKMV) Add(h uint64) {
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= h })
	if i < len(s.vals) && s.vals[i] == h {
		return // already present
	}
	if len(s.vals) == s.k {
		if i == s.k {
			return // larger than current kth minimum
		}
		// Insert and drop the largest.
		copy(s.vals[i+1:], s.vals[i:len(s.vals)-1])
		s.vals[i] = h
		return
	}
	s.vals = append(s.vals, 0)
	copy(s.vals[i+1:], s.vals[i:len(s.vals)-1])
	s.vals[i] = h
}

// Merge folds another synopsis into this one (union of observed hashes,
// keeping the k smallest).
func (s *oracleKMV) Merge(other *oracleKMV) {
	if other == nil {
		return
	}
	for _, h := range other.vals {
		s.Add(h)
	}
}

// Estimate returns the unbiased distinct-value estimate (k−1)·M / h_k
// from the paper [Beyer et al. 2007]. When fewer than k distinct hashes
// have been observed the synopsis is exact and returns that count.
func (s *oracleKMV) Estimate() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if n < s.k {
		return float64(n)
	}
	hk := float64(s.vals[n-1])
	if hk == 0 {
		return float64(n)
	}
	return float64(s.k-1) * hashSpace / hk
}

// oracleColAcc accumulates per-column observations inside a task. The oracleKMV
// synopsis and frequency sketch are allocated on the first observation
// (kmvSize is threaded through observe), so tasks that never see a
// non-null value for a column — the common case across a job's many
// map tasks — cost two nil pointers instead of a map and a synopsis.
type oracleColAcc struct {
	kmv *oracleKMV
	// freq counts value occurrences in the sample, bounded by
	// freqCap·kmvSize distinct entries; overflow marks the column
	// high-cardinality.
	freq     map[uint64]int64
	overflow bool
}

func (a *oracleColAcc) observe(h uint64, kmvSize int) {
	if a.kmv == nil {
		a.kmv = newOracleKMV(kmvSize)
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

// oraclePartial is the statistics a single task publishes: input/output record
// counts, output bytes, and per-column accumulators. Partials from all
// tasks of a job merge into a oraclePartial for the whole output.
type oraclePartial struct {
	InRecords  int64
	OutRecords int64
	OutBytes   int64
	cols       map[string]*oracleColAcc
	kmvSize    int
}

// oracleCollector builds a oraclePartial for one task. Paths name the attributes to
// track (only join-relevant attributes, per §4.3, to bound overhead).
type oracleCollector struct {
	paths   []data.Path
	accs    []*data.Accessor // compiled against the first observed record
	cols    []*oracleColAcc  // partial.cols[paths[i].String()], resolved once
	partial *oraclePartial
}

// newOracleCollector returns a collector tracking the given column paths.
func newOracleCollector(paths []data.Path, kmvSize int) *oracleCollector {
	if kmvSize <= 0 {
		kmvSize = DefaultKMVSize
	}
	p := &oraclePartial{cols: make(map[string]*oracleColAcc, len(paths)), kmvSize: kmvSize}
	cols := make([]*oracleColAcc, len(paths))
	for i, path := range paths {
		key := path.String()
		if cols[i] = p.cols[key]; cols[i] == nil {
			cols[i] = &oracleColAcc{}
			p.cols[key] = cols[i]
		}
	}
	return &oracleCollector{paths: paths, cols: cols, partial: p}
}

// ObserveInput counts a record read before filtering.
func (c *oracleCollector) ObserveInput() { c.partial.InRecords++ }

// ObserveInputs counts n records read before filtering — the batch
// equivalent of n ObserveInput calls.
func (c *oracleCollector) ObserveInputs(n int) { c.partial.InRecords += int64(n) }

// ObserveOutput records one output record and its virtual byte size.
// Column paths are compiled into positional accessors against the first
// record seen (collectors are per-task, so this is race-free); the
// accessors verify field positions per record and fall back to name
// lookup, so values are identical to Path.Eval on any record mix.
func (c *oracleCollector) ObserveOutput(rec data.Value, sizeBytes int64) {
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
		acc.observe(data.Hash64(v), c.partial.kmvSize)
	}
}

// oraclePartial returns the accumulated statistics.
func (c *oracleCollector) Partial() *oraclePartial { return c.partial }

// oracleMergePartials combines task-level partials into one (the client-side
// merge the paper performs after reading the per-task statistics files
// published in ZooKeeper).
func oracleMergePartials(parts []*oraclePartial) *oraclePartial {
	out := &oraclePartial{cols: make(map[string]*oracleColAcc), kmvSize: DefaultKMVSize}
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
				dst = &oracleColAcc{}
				out.cols[k] = dst
			}
			if acc.kmv != nil {
				if dst.kmv == nil {
					dst.kmv = newOracleKMV(acc.kmv.K())
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
func (p *oraclePartial) Selectivity() float64 {
	if p.InRecords == 0 {
		return 1
	}
	return float64(p.OutRecords) / float64(p.InRecords)
}

// AvgRecSize returns the observed mean output record size.
func (p *oraclePartial) AvgRecSize() float64 {
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
func (p *oraclePartial) Extrapolate(totalInput float64) TableStats {
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
		ndv := oracleExtrapolateNDV(acc, scale, card)
		ts.Cols[k] = ColStats{NDV: ndv}
	}
	return ts
}

// oracleExtrapolateNDV scales a sampled column's distinct-value estimate to
// the full relation. The paper uses the linear rule
// DV(R) = |R|/|Rs| · DV(Rs) and notes it is imprecise (its authors
// defer better estimators to future work); linear extrapolation
// explodes low-cardinality columns, so when the sample's complete value
// frequencies are available we use the Chao1 richness estimator
// D + f1²/(2·(f2+1)) instead — with f1 singletons and f2 doubletons —
// which converges to the sample's distinct count once values repeat.
// High-cardinality columns (frequency sketch overflow, or nearly all
// sample values distinct) keep the paper's linear rule.
func oracleExtrapolateNDV(acc *oracleColAcc, scale, card float64) float64 {
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
func (p *oraclePartial) Exact() TableStats {
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
		ts.Cols[k] = ColStats{NDV: ndv}
	}
	return ts
}
