package mapreduce

import (
	"slices"
	"sync"

	"dyno/internal/data"
)

// The shuffle keeps its per-record costs off the hot path without
// changing a single output bit:
//
//   - EmitKV normalizes each shuffle key once into an order-preserving
//     byte string (data.AppendNormKey), so combine/reduce sorting and
//     grouping become memcmp string compares instead of recursive
//     data.Compare calls per comparison. Reduce partition assignment is
//     data.Hash64(key) % numReducers — partitioning decides output row
//     placement, so it never depends on the encoding.
//   - A map task's shuffle buckets are windows of one array; gathered
//     reduce inputs, row slices and per-group Tagged slabs are recycled
//     through sync.Pools across tasks and jobs.
//   - Broadcast hash tables index build rows by normalized key, turning
//     probes into exact map lookups with no collision re-checks.
//
// Keys the normalized encoding cannot represent consistently with
// data.Compare (NaN, integers beyond ±2^53 — see data.AppendNormKey)
// carry an empty nk, and any batch containing one falls back to
// Compare-based sorting wholesale, so ordering is correct for every
// input, not just the common domain.

// sortPairsByKey stably sorts shuffle pairs into reduce key order:
// by normalized key when every pair has one, otherwise by data.Compare.
// Both arms use a stable sort, a stable sort's output permutation is a
// pure function of the comparator's verdicts, and the normalized
// ordering equals data.Compare's on every encodable key — so the two
// arms (and any other stable sort by data.Compare, such as a worker's
// sort of fetched segments) produce the identical permutation.
func sortPairsByKey(pairs []Pair) {
	for i := range pairs {
		if pairs[i].nk == "" {
			slices.SortStableFunc(pairs, func(a, b Pair) int {
				return data.Compare(a.Key, b.Key)
			})
			return
		}
	}
	slices.SortStableFunc(pairs, func(a, b Pair) int {
		if a.nk < b.nk {
			return -1
		}
		if a.nk > b.nk {
			return 1
		}
		return 0
	})
}

// samePairKey reports whether two adjacent sorted pairs share a key.
func samePairKey(a, b *Pair) bool {
	if a.nk != "" && b.nk != "" {
		return a.nk == b.nk
	}
	return data.Equal(a.Key, b.Key)
}

// Pools recycle the shuffle's large transient buffers across tasks and
// jobs. Slices are cleared before being pooled so they do not pin
// record trees, and are only released once a job has fully finished
// (every Run closure executes at most once, so no retry can observe a
// recycled buffer).
var (
	pairSlicePool sync.Pool // *[]Pair
	taggedPool    sync.Pool // *[]Tagged
	rowPool       sync.Pool // *[]data.Value
)

func getPairSlice(capacity int) []Pair {
	if p, _ := pairSlicePool.Get().(*[]Pair); p != nil && cap(*p) >= capacity {
		return (*p)[:0]
	}
	return make([]Pair, 0, capacity)
}

func putPairSlice(s []Pair) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	pairSlicePool.Put(&s)
}

func getRowSlice(capacity int) []data.Value {
	if p, _ := rowPool.Get().(*[]data.Value); p != nil && cap(*p) >= capacity {
		return (*p)[:0]
	}
	return make([]data.Value, 0, capacity)
}

func putRowSlice(s []data.Value) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	rowPool.Put(&s)
}

func getTaggedSlab(capacity int) []Tagged {
	if p, _ := taggedPool.Get().(*[]Tagged); p != nil && cap(*p) >= capacity {
		return (*p)[:0]
	}
	return make([]Tagged, 0, capacity)
}

func putTaggedSlab(s []Tagged) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	taggedPool.Put(&s)
}
