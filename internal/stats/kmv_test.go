package stats

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dyno/internal/data"
)

// sealedRun observes hashes the way a task does (append, fold at
// foldBound) and then folds the tail the way the job's merge does.
func sealedRun(k int, hs []uint64) *colAcc {
	a := &colAcc{}
	for _, h := range hs {
		a.observe(h, k, 0)
	}
	a.run, a.overflow = mergeRuns([][]hashCount{a.run, sortRun(slices.Clone(a.tail), k)}, a.overflow, k)
	a.tail = nil
	return a
}

func runOf(hs []uint64, ns []int64) []hashCount {
	run := make([]hashCount, len(hs))
	for i := range hs {
		run[i] = hashCount{hs[i], ns[i]}
	}
	return run
}

func intHashes(n int, val func(i int) int64) []uint64 {
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = data.Hash64(data.Int(val(i)))
	}
	return hs
}

func TestKMVExactBelowK(t *testing.T) {
	hs := intHashes(40, func(i int) int64 { return int64(i) })
	if got := estimate(sealedRun(64, hs).run, 64); got != 40 {
		t.Errorf("estimate = %v, want exact 40", got)
	}
	// Duplicates do not inflate.
	a := sealedRun(64, append(hs, hs...))
	if got := estimate(a.run, 64); got != 40 {
		t.Errorf("after duplicates estimate = %v, want 40", got)
	}
	if len(a.run) != 40 || a.run[0].n != 2 {
		t.Errorf("frequency reading = %v, want 40 counts of 2", a.run)
	}
}

func TestKMVEstimateAccuracy(t *testing.T) {
	// k=1024 over 100k distinct values: the paper cites ~6% error
	// bound; allow 10%. 100k values is two dozen folds and an overflow.
	const n = 100_000
	a := sealedRun(1024, intHashes(n, func(i int) int64 { return int64(i) }))
	if !a.overflow || len(a.run) != 1024 {
		t.Fatalf("overflow=%v len(run)=%d, want overflow and the 1024 smallest", a.overflow, len(a.run))
	}
	if got := estimate(a.run, 1024); math.Abs(got-n)/n > 0.10 {
		t.Errorf("estimate = %v, want within 10%% of %d", got, n)
	}
}

func TestKMVSkewedDuplicates(t *testing.T) {
	// 5000 distinct values, each appearing many times.
	r := rand.New(rand.NewSource(7))
	a := sealedRun(1024, intHashes(100_000, func(int) int64 { return int64(r.Intn(5000)) }))
	if got := estimate(a.run, 1024); math.Abs(got-5000)/5000 > 0.12 {
		t.Errorf("estimate = %v, want ~5000", got)
	}
}

func TestKMVMergeEqualsUnion(t *testing.T) {
	// Runs over partitions merge to the run of the whole.
	r := rand.New(rand.NewSource(3))
	all := intHashes(20_000, func(int) int64 { return int64(r.Intn(5000)) })
	var even, odd []uint64
	for i, h := range all {
		if i%2 == 0 {
			even = append(even, h)
		} else {
			odd = append(odd, h)
		}
	}
	whole, a, b := sealedRun(128, all), sealedRun(128, even), sealedRun(128, odd)
	a.run, a.overflow = mergeRuns([][]hashCount{a.run, b.run}, a.overflow || b.overflow, 128)
	if a.overflow != whole.overflow || !slices.EqualFunc(a.run, whole.run, func(x, y hashCount) bool { return x.h == y.h }) {
		t.Errorf("merged run (estimate %v) != whole run (estimate %v)", estimate(a.run, 128), estimate(whole.run, 128))
	}
}

func TestKMVMergeNil(t *testing.T) {
	a := sealedRun(16, []uint64{7})
	a.run, a.overflow = mergeRuns([][]hashCount{a.run, sortRun(nil, 16)}, a.overflow, 16)
	if estimate(a.run, 16) != 1 || a.run[0].n != 1 {
		t.Error("folding an empty tail should be a no-op")
	}
}

// The merge is a fresh run: growing it leaves the side it was built
// from as it was (what KMV.Clone used to be asked for).
func TestRunUnionDoesNotAlias(t *testing.T) {
	src := sealedRun(16, []uint64{10, 20, 30})
	dst := &colAcc{}
	dst.run, dst.overflow = mergeRuns([][]hashCount{dst.run, src.run}, dst.overflow || src.overflow, 16)
	dst.run, dst.overflow = mergeRuns([][]hashCount{dst.run, runOf([]uint64{5, 20}, []int64{1, 4})}, dst.overflow, 16)
	if !slices.Equal(src.run, runOf([]uint64{10, 20, 30}, []int64{1, 1, 1})) {
		t.Errorf("source run changed: %v", src.run)
	}
	if !slices.Equal(dst.run, runOf([]uint64{5, 10, 20, 30}, []int64{1, 1, 5, 1})) {
		t.Errorf("union = %v", dst.run)
	}
}

func TestKMVMinimumK(t *testing.T) {
	if clampK(1) != 2 || NewCollector(nil, 1).partial.kmvSize != 2 {
		t.Error("k should be clamped to >= 2")
	}
	if clampK(0) != DefaultKMVSize || NewCollector(nil, -3).partial.kmvSize != DefaultKMVSize {
		t.Error("k <= 0 should select the default size")
	}
}

func TestKMVEmpty(t *testing.T) {
	if estimate(nil, 8) != 0 || estimate(sealedRun(8, nil).run, 8) != 0 {
		t.Error("empty run should estimate 0")
	}
}

func TestKMVPropertyOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(500)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = r.Uint64() % 10_000
		}
		shuffled := make([]uint64, n)
		for i, j := range r.Perm(n) {
			shuffled[i] = vals[j]
		}
		// k=32 overflows past 128 distinct, k=512 never does here.
		return reflect.DeepEqual(sealedRun(32, vals), sealedRun(32, shuffled)) &&
			reflect.DeepEqual(sealedRun(512, vals), sealedRun(512, shuffled))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKMVPropertyRetainsKSmallest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var vals []uint64
		seen := map[uint64]bool{}
		for i := 0; i < 200; i++ {
			v := r.Uint64() % 1000
			vals = append(vals, v)
			seen[v] = true
		}
		// Past freqCap·8 distinct values the run must hold exactly the
		// 8 smallest of them.
		var want []uint64
		for v := range seen {
			want = append(want, v)
		}
		slices.Sort(want)
		if len(want) > freqCap*8 {
			want = want[:8]
		}
		got := sealedRun(8, vals).run
		return slices.EqualFunc(got, want, func(e hashCount, h uint64) bool { return e.h == h })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
