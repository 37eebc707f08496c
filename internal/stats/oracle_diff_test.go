package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dyno/internal/data"
)

// The differential: the same records, cut into the same tasks, go
// through the oracle (oracle_test.go) and through the run; the merged
// statistics must agree field by field, NDV by == on the float.

var diffPaths = []data.Path{
	data.MustParsePath("t.a"),
	data.MustParsePath("t.b"),
	data.MustParsePath("t.never"), // tracked, never present: key kept, NDV 0
	data.MustParsePath("t.a"),     // tracked twice: one column, every value counted twice
}

// diffRec carries the stream's value in t.a and a low-cardinality
// companion in t.b that is null on every third row.
func diffRec(v int64) data.Value {
	fields := []data.Field{{Name: "a", Value: data.Int(v)}}
	if v%3 != 0 {
		fields = append(fields, data.Field{Name: "b", Value: data.Int(v % 7)})
	}
	return data.Object(data.Field{Name: "t", Value: data.Object(fields...)})
}

// observeBoth feeds one task's values to a fresh collector of each
// kind: the oracle row by row, the collector too or — every other task
// — all rows at once (ObserveOutputs: column-major, in buffer-sized
// gathers, each column's run sized for them). The walk must not show in
// the result.
func observeBoth(k int, vals []int64, whole bool) (*Partial, *oraclePartial) {
	c, o := NewCollector(diffPaths, k), newOracleCollector(diffPaths, k)
	var rows []data.Value
	var total int64
	for _, v := range vals {
		rec := diffRec(v)
		if v%4 == 0 { // a record the filter dropped: selectivity below 1
			c.ObserveInputs(1)
			o.ObserveInput()
		}
		c.ObserveInputs(1)
		o.ObserveInput()
		o.ObserveOutput(rec, rec.EncodedSize())
		if whole {
			rows, total = append(rows, rec), total+rec.EncodedSize()
		} else {
			c.ObserveOutput(rec, rec.EncodedSize())
		}
	}
	if whole {
		c.ObserveOutputs(rows, total)
	}
	return c.Partial(), o.Partial()
}

// onGoroutines is a parallel-for that runs every call on a goroutine of
// its own, last index first.
func onGoroutines(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

func sameStats(t *testing.T, what string, got, want TableStats) {
	t.Helper()
	if got.Card != want.Card || got.AvgRecSize != want.AvgRecSize {
		t.Errorf("%s: card/avg = %v/%v, oracle %v/%v", what, got.Card, got.AvgRecSize, want.Card, want.AvgRecSize)
	}
	if len(got.Cols) != len(want.Cols) {
		t.Errorf("%s: %d columns, oracle %d", what, len(got.Cols), len(want.Cols))
	}
	for key, w := range want.Cols {
		g, ok := got.Cols[key]
		if !ok {
			t.Errorf("%s: column %s missing", what, key)
			continue
		}
		if g.NDV != w.NDV {
			t.Errorf("%s: %s NDV = %v, oracle %v", what, key, g.NDV, w.NDV)
		}
	}
}

func sameAsOracle(t *testing.T, what string, p *Partial, o *oraclePartial) {
	t.Helper()
	sameStats(t, what+" Exact", p.Exact(), o.Exact())
	for _, n := range []float64{0, float64(o.InRecords), 10 * float64(o.InRecords), 1e9} {
		sameStats(t, fmt.Sprintf("%s Extrapolate(%v)", what, n), p.Extrapolate(n), o.Extrapolate(n))
	}
}

func clonePartial(p *Partial) *Partial {
	if p == nil {
		return nil
	}
	c := *p
	c.keys = slices.Clone(p.keys)
	c.cols = slices.Clone(p.cols)
	for i := range c.cols {
		a := &c.cols[i]
		a.tail, a.run = slices.Clone(a.tail), slices.Clone(a.run)
	}
	return &c
}

// stream draws n values over `distinct` distinct ones: all of them once
// first (so the distinct count is exact), then seeded repeats.
func stream(r *rand.Rand, distinct, n int) []int64 {
	vals := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if i < distinct {
			vals = append(vals, int64(i))
		} else {
			vals = append(vals, vals[r.Intn(distinct)])
		}
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

func TestRunMatchesOracle(t *testing.T) {
	taskSizes := []int{0, 1, 56, foldBound - 1, foldBound, foldBound + 1}
	for _, k := range []int{0, 1, 2, 8, 512} {
		limit := freqCap * clampK(k)
		// 3·foldBound: a lone collector folds, overflows and then meets
		// hashes on both sides of its k-th smallest, at every k.
		for _, distinct := range []int{1, limit - 1, limit, limit + 1, 10 * limit, 3 * foldBound} {
			for _, dup := range []int{1, 6} { // all-unique, heavy duplicates
				name := fmt.Sprintf("k=%d/distinct=%d/dup=%d", k, distinct, dup)
				r := rand.New(rand.NewSource(int64(k*1_000_003 + distinct*7 + dup)))
				vals := stream(r, distinct, distinct*dup)
				// One collector over the whole stream: a lone
				// Partial().Exact() with folds and overflow.
				lone, loneOracle := observeBoth(k, vals, false)
				before := clonePartial(lone)
				sameAsOracle(t, name+" lone", lone, loneOracle)
				if !reflect.DeepEqual(lone, before) {
					t.Errorf("%s: reading an unsealed partial changed it", name)
				}

				// The same stream cut into tasks of every size class,
				// with nil partials in between.
				var parts []*Partial
				var oparts []*oraclePartial
				for i, rest := 0, vals; len(rest) > 0 || i < len(taskSizes); i++ {
					n := min(taskSizes[i%len(taskSizes)], len(rest))
					p, o := observeBoth(k, rest[:n], i%2 == 0)
					parts, oparts, rest = append(parts, p), append(oparts, o), rest[n:]
					if i%4 == 1 {
						parts, oparts = append(parts, nil), append(oparts, nil)
					}
				}
				copies := make([]*Partial, len(parts))
				for i, p := range parts {
					copies[i] = clonePartial(p)
				}
				merged := MergePartials(parts)
				sameAsOracle(t, name+" merged", merged, oracleMergePartials(oparts))
				if again := MergePartials(parts); !reflect.DeepEqual(again, merged) {
					t.Errorf("%s: merging the same parts twice differs", name)
				}
				// The parallel form, a goroutine per column, twice over.
				for range 2 {
					if pooled := MergePartialsOn(parts, onGoroutines); !reflect.DeepEqual(pooled, merged) {
						t.Errorf("%s: merging a column per goroutine differs", name)
					}
				}
				// Every rotation (every 1+n/12-th of a long list) and a
				// seeded shuffle: the order of the parts does not show.
				want := merged.Extrapolate(1e7)
				for rot := 1; rot < len(parts); rot += 1 + len(parts)/12 {
					order := append(slices.Clone(parts[rot:]), parts[:rot]...)
					sameStats(t, fmt.Sprintf("%s rotation %d", name, rot), MergePartials(order).Extrapolate(1e7), want)
					sameStats(t, fmt.Sprintf("%s rotation %d, pooled", name, rot), MergePartialsOn(order, onGoroutines).Extrapolate(1e7), want)
				}
				order := slices.Clone(parts)
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				sameStats(t, name+" shuffled", MergePartials(order).Extrapolate(1e7), want)
				// A merge of merges (overflowed and not, sealed and
				// not, mixed) is the merge of everything.
				half := len(parts) / 2
				nested := MergePartials([]*Partial{MergePartials(parts[:half]), nil, lone, MergePartials(parts[half:])})
				sameAsOracle(t, name+" nested", nested, oracleMergePartials([]*oraclePartial{
					oracleMergePartials(oparts[:half]), nil, loneOracle, oracleMergePartials(oparts[half:])}))
				if !reflect.DeepEqual(parts, copies) || !reflect.DeepEqual(lone, before) {
					t.Errorf("%s: MergePartials changed its inputs", name)
				}
			}
		}
	}
}

// One merged Partial — merged on the pool, a goroutine per column — is
// read by finish's caller, jaql and the pilot later on; Exact and
// Extrapolate must only read it. Run under -race.
func TestMergedPartialSharedReads(t *testing.T) {
	var parts []*Partial
	r := rand.New(rand.NewSource(11))
	for task := 0; task < 8; task++ {
		p, _ := observeBoth(8, stream(r, 20+task*10, 200), true)
		parts = append(parts, p)
	}
	merged := MergePartialsOn(parts, onGoroutines)
	want := merged.Exact()
	if !reflect.DeepEqual(want, MergePartials(parts).Exact()) {
		t.Error("merged on the pool differs from merged serially")
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := merged.Exact(); !reflect.DeepEqual(got.Cols, want.Cols) {
					t.Error("concurrent Exact differs")
				}
				merged.Extrapolate(1e6)
				// An unsealed partial is merged into a private copy.
				parts[0].Exact()
				MergePartials(parts)
			}
		}()
	}
	wg.Wait()
}

// TestMergeSortsOnlyInsidePar: MergePartialsOn calls par exactly once,
// with one call per column, and every hash it touches it touches in
// there — a par that drops its calls leaves the counters and min/max
// merged and every column without a single distinct value.
func TestMergeSortsOnlyInsidePar(t *testing.T) {
	var parts []*Partial
	r := rand.New(rand.NewSource(5))
	for task := 0; task < 6; task++ {
		p, _ := observeBoth(8, stream(r, 40, 300), task%2 == 0)
		parts = append(parts, p)
	}
	var batches []int
	dropped := MergePartialsOn(parts, func(n int, _ func(i int)) { batches = append(batches, n) })
	full := MergePartials(parts)
	if want := []int{len(full.cols)}; !slices.Equal(batches, want) || len(full.cols) != 3 {
		t.Fatalf("par was handed batches %v, want one of %v", batches, want)
	}
	if dropped.OutRecords != full.OutRecords || dropped.InRecords != full.InRecords || dropped.OutBytes != full.OutBytes {
		t.Errorf("counters %d/%d/%d merged outside par, want %d/%d/%d", dropped.InRecords, dropped.OutRecords, dropped.OutBytes,
			full.InRecords, full.OutRecords, full.OutBytes)
	}
	for i := range dropped.cols {
		if acc := &dropped.cols[i]; len(acc.run) != 0 || len(acc.tail) != 0 {
			t.Errorf("column %s holds %d+%d hashes though par ran nothing", dropped.keys[i], len(acc.run), len(acc.tail))
		}
		if len(full.cols[i].run) == 0 && full.keys[i] != "t.never" {
			t.Errorf("vacuous: column %s is empty in the full merge too", full.keys[i])
		}
	}
}
