package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/data"
)

// The hash-order path: a scan task's output handed over as positions
// into its split's image (ObserveScan) must give the statistics the row
// path gives over the same rows gathered (ObserveOutputs), Partial for
// Partial, and the one k-way merge must be the pairwise unions and the
// concatenate-and-sort merge it replaced.

var scanPaths = []data.Path{
	data.MustParsePath("t.a"),
	data.MustParsePath("t.b"),
	data.MustParsePath("t.a"),    // tracked twice: every value counted twice
	data.MustParsePath("t.none"), // never present
	data.MustParsePath("u.a"),    // another alias: null on every {t: rec}
}

// scanRec is a record whose a is v — an int or, as often, the double
// that equals it (one value, one hash) — null on every 11th row and
// missing on every 13th, and whose b is one of seven strings, missing on
// every third row.
func scanRec(r *rand.Rand, row int, v int64) data.Value {
	var fields []data.Field
	switch {
	case row%11 == 5:
		fields = append(fields, data.Field{Name: "a", Value: data.Null()})
	case row%13 == 7:
	case r.Intn(2) == 0:
		fields = append(fields, data.Field{Name: "a", Value: data.Int(v)})
	default:
		fields = append(fields, data.Field{Name: "a", Value: data.Double(float64(v))})
	}
	if row%3 != 0 {
		fields = append(fields, data.Field{Name: "b", Value: data.String(fmt.Sprint("b", v%7))})
	}
	return data.Object(fields...)
}

// scanBlock builds a split of the values, raw or stored pre-wrapped as
// {t: rec} (wrap then ""), and returns its image and the wrap to read.
func scanBlock(r *rand.Rand, vals []int64, prewrapped bool) (*batch.Data, string) {
	recs := make([]data.Value, len(vals))
	for i, v := range vals {
		if recs[i] = scanRec(r, i, v); prewrapped {
			recs[i] = data.Object(data.Field{Name: "t", Value: recs[i]})
		}
	}
	if prewrapped {
		return batch.For(nil, recs), ""
	}
	return batch.For(nil, recs), "t"
}

// randomSel is an ascending selection of n rows: every row, none, a
// dense or a sparse random share, or the last row alone (in the bitmap's
// last, partial word).
func randomSel(r *rand.Rand, n int) []int32 {
	var sel []int32
	keep := []float64{1, 0, 0.5, 0.05, -1}[r.Intn(5)]
	for i := range n {
		if keep < 0 && i == n-1 || keep >= 0 && r.Float64() < keep || keep == 1 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// observeScanBoth observes one scan task both ways, and the oracle the
// row way, and checks that the two partials are the same.
func observeScanBoth(t *testing.T, what string, k int, d *batch.Data, wrap string, sel []int32) (*Partial, *Partial, *oraclePartial) {
	t.Helper()
	all := d.Wrapped(wrap)
	rows := make([]data.Value, len(sel))
	var total int64
	for i, p := range sel {
		rows[i] = all[p]
		total += rows[i].EncodedSize()
	}
	byRow, byScan, o := NewCollector(scanPaths, k), NewCollector(scanPaths, k), newOracleCollector(scanPaths, k)
	byRow.ObserveInputs(len(all))
	byScan.ObserveInputs(len(all))
	o.ObserveInputs(len(all))
	byRow.ObserveOutputs(rows, total)
	byScan.ObserveScan(d, wrap, sel, total)
	for _, row := range rows {
		o.ObserveOutput(row, row.EncodedSize())
	}
	if a, b := MergePartials([]*Partial{byRow.Partial()}), MergePartials([]*Partial{byScan.Partial()}); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: scan partial differs from the row partial", what)
	}
	sameStats(t, what+" Exact", byScan.Partial().Exact(), byRow.Partial().Exact())
	sameStats(t, what+" Extrapolate", byScan.Partial().Extrapolate(1e6), byRow.Partial().Extrapolate(1e6))
	return byRow.Partial(), byScan.Partial(), o.Partial()
}

func TestObserveScanMatchesRows(t *testing.T) {
	for _, k := range []int{2, 16, 512} {
		limit := freqCap * k
		for _, distinct := range []int{1, limit - 1, limit, limit + 1, 3 * limit} {
			for _, prewrapped := range []bool{false, true} {
				name := fmt.Sprintf("k=%d/distinct=%d/prewrapped=%v", k, distinct, prewrapped)
				r := rand.New(rand.NewSource(int64(k*7919 + distinct*31 + len(name))))
				// The first task holds every distinct value and selects
				// every row: the task's own run meets the cut exactly at
				// limit and limit+1. The rest cut seeded repeats of them
				// into blocks of random length, most not a multiple of
				// 64, under random selections.
				vals := stream(r, distinct, distinct+distinct/10)
				var rowParts, scanParts []*Partial
				var oparts []*oraclePartial
				for i, rest := 0, vals; len(rest) > 0 || i < 4; i++ {
					n := len(rest)
					if i > 0 {
						n = min(1+r.Intn(3000), len(rest))
					}
					d, wrap := scanBlock(r, rest[:n], prewrapped)
					sel := randomSel(r, n)
					if i == 0 {
						sel = d.Select(nil, "")
					}
					a, b, o := observeScanBoth(t, fmt.Sprintf("%s task %d", name, i), k, d, wrap, sel)
					rowParts, scanParts, oparts = append(rowParts, a), append(scanParts, b), append(oparts, o)
					if rest = rest[n:]; len(rest) == 0 && i < 3 {
						rest = stream(r, max(distinct/3, 1), 500)
					}
				}
				merged := MergePartials(scanParts)
				if !reflect.DeepEqual(merged, MergePartials(rowParts)) {
					t.Errorf("%s: merged scan partials differ from the merged row partials", name)
				}
				sameAsOracle(t, name+" merged", merged, oracleMergePartials(oparts))
			}
		}
	}
}

// TestObserveScanSeesOnlyItsSplit: two splits of one block size, read
// under two wraps, keep hash orders of their own, built once and cached.
func TestObserveScanSeesOnlyItsSplit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d1, _ := scanBlock(r, stream(r, 40, 100), false)
	d2, _ := scanBlock(r, stream(r, 90, 100), false)
	p := scanPaths[0]
	if d1.HashOrder("t", p, p.String()) != d1.HashOrder("t", p, p.String()) {
		t.Error("a split's hash order was built twice")
	}
	if d1.HashOrder("t", p, p.String()) == d2.HashOrder("t", p, p.String()) || d1.HashOrder("t", p, p.String()) == d1.HashOrder("u", p, p.String()) {
		t.Error("two splits, or two wraps of one, share a hash order")
	}
	if o := d1.HashOrder("u", p, p.String()); len(o.Rows) != 0 {
		t.Errorf("t.a over {u: rec} rows has %d non-null rows, want none", len(o.Rows))
	}
}

// TestObserveScanSharedSplit: tasks of concurrent jobs read one split's
// image at once, the first of them building its hash orders; each gets
// the partial it gets alone. Run under -race.
func TestObserveScanSharedSplit(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	vals := stream(r, 300, 2000)
	alone, _ := scanBlock(rand.New(rand.NewSource(1)), vals, false)
	shared, _ := scanBlock(rand.New(rand.NewSource(1)), vals, false)
	sel := randomSel(rand.New(rand.NewSource(2)), len(vals))
	want := NewCollector(scanPaths, 16)
	want.ObserveScan(alone, "t", sel, 0)
	got := make([]*Partial, 8)
	onGoroutines(len(got), func(i int) {
		c := NewCollector(scanPaths, 16)
		c.ObserveScan(shared, "t", sel, 0)
		got[i] = c.Partial()
	})
	for i, p := range got {
		if !reflect.DeepEqual(p, want.Partial()) {
			t.Errorf("task %d of 8 on a shared split: partial differs from a lone task's", i)
		}
	}
}

// TestMergeRunsMatchesPairwiseAndConcat: the k-way merge of the runs of
// raw hash lists equals folding them in one pair at a time and sorting
// their concatenation into one run, at distinct counts on both sides of
// the cut, with hashes shared across runs; the runs are only read.
func TestMergeRunsMatchesPairwiseAndConcat(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, k := range []int{2, 16, 512} {
		limit := freqCap * k
		for _, distinct := range []int{1, limit - 1, limit, limit + 1, 5 * limit} {
			for trial := range 4 {
				pool := make([]uint64, distinct)
				for i := range pool {
					pool[i] = r.Uint64()
				}
				raws := make([][]uint64, 1+r.Intn(12))
				for i, h := range pool { // every pool hash in some run
					raws[i%len(raws)] = append(raws[i%len(raws)], h)
				}
				var all []uint64
				for i := range raws {
					for range r.Intn(2 * distinct) { // repeats, across runs too
						raws[i] = append(raws[i], pool[r.Intn(distinct)])
					}
					all = append(all, raws[i]...)
				}
				runs := make([][]hashCount, len(raws))
				var pairwise colAcc
				for i, raw := range raws {
					runs[i] = sortRun(slices.Clone(raw), k)
					pairwise.run, pairwise.overflow = mergeRuns([][]hashCount{pairwise.run, runs[i]}, pairwise.overflow, k)
				}
				copies := make([][]hashCount, len(runs))
				for i := range runs {
					copies[i] = slices.Clone(runs[i])
				}
				var concat colAcc
				concat.run, concat.overflow = mergeRuns([][]hashCount{concat.run, sortRun(all, k)}, concat.overflow, k)
				got, overflow := mergeRuns(slices.Clone(runs), false, k)
				what := fmt.Sprintf("k=%d/distinct=%d/trial=%d/runs=%d", k, distinct, trial, len(runs))
				if overflow != (distinct > limit) || overflow && len(got) != k || !overflow && len(got) != distinct {
					t.Errorf("%s: %d hashes out, overflow %v", what, len(got), overflow)
				}
				if !reflect.DeepEqual(got, pairwise.run) || overflow != pairwise.overflow {
					t.Errorf("%s: the k-way merge differs from pairwise unions", what)
				}
				if !reflect.DeepEqual(got, concat.run) || overflow != concat.overflow {
					t.Errorf("%s: the k-way merge differs from the concatenated tails sorted once", what)
				}
				if !reflect.DeepEqual(runs, copies) {
					t.Errorf("%s: the merge changed its runs", what)
				}
			}
		}
	}
}
