package mapreduce

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
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
//   - A map task's shuffle buckets are windows of one array (exact ones
//     when a columnar kernel counted its output first); gathered reduce
//     inputs, row slices and per-group Tagged slabs are recycled through
//     sync.Pools across tasks and jobs.
//   - Broadcast hash tables index build rows by normalized key, turning
//     probes into exact map lookups with no collision re-checks.
//
// Keys the normalized encoding cannot represent consistently with
// data.Compare (NaN, integers beyond ±2^53 — see data.AppendNormKey)
// carry an empty nk, and any batch containing one falls back to
// Compare-based sorting wholesale, so ordering is correct for every
// input, not just the common domain.
//
// Why one unstable sort reproduces two stable ones. Reduce order is the
// stable sort of a partition's pairs, in map submission order, by
// data.Compare on the key — on the controller and on a worker alike. A
// stable sort's output is the one permutation ordered by (key, input
// index): a total order without ties, so any correct sort of it, stable
// or not, yields that permutation. The normalized encoding orders
// encodable keys as data.Compare does, and its first 8 bytes (big-endian,
// zero-padded: 0x00 is the encoding's terminator and sorts below every
// element) never order two keys against their full encodings. So
// (prefix, nk, index) is (Compare, index), and SortPairsByKey sorts one
// 16-byte (prefix, index) entry per pair under it, then moves each
// 80-byte Pair once, where a stable merge rotates pairs log n times.

// sortEnt is a pair's sort entry: nkPrefix of its key, input position.
type sortEnt struct {
	prefix uint64
	i      int32
}

// SortPairsByKey sorts shuffle pairs into reduce key order — the stable
// order by data.Compare on the key — in place. Pairs that arrive without
// a normalized key (decoded from a frame) are given one first; the
// data.Compare comparator runs only when some key is unencodable.
func SortPairsByKey(pairs []Pair) {
	if len(pairs) < 2 {
		return
	}
	order := func(a, b sortEnt) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := strings.Compare(pairs[a.i].nk, pairs[b.i].nk); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	}
	if !fillNormKeys(pairs) {
		order = func(a, b sortEnt) int {
			if c := data.Compare(pairs[a.i].Key, pairs[b.i].Key); c != 0 {
				return c
			}
			return cmp.Compare(a.i, b.i)
		}
	}
	ents := make([]sortEnt, len(pairs))
	for i := range pairs {
		ents[i] = sortEnt{nkPrefix(pairs[i].nk), int32(i)}
	}
	if slices.IsSortedFunc(ents, order) {
		return
	}
	slices.SortFunc(ents, order)
	// ents[k].i is the pair that belongs at k: follow each cycle of the
	// permutation, marking a placed slot by pointing it at itself.
	for k := range ents {
		if int(ents[k].i) == k {
			continue
		}
		first := pairs[k]
		for j := k; ; {
			src := int(ents[j].i)
			ents[j].i = int32(j)
			if src == k {
				pairs[j] = first
				break
			}
			pairs[j] = pairs[src]
			j = src
		}
	}
}

// nkPrefix is a normalized key's first 8 bytes, big-endian, zero-padded.
func nkPrefix(nk string) uint64 {
	var b [8]byte
	copy(b[:], nk)
	return binary.BigEndian.Uint64(b[:])
}

// fillNormKeys normalizes the key of every pair that has no nk, into one
// buffer the pairs share, and reports whether every key is encodable.
func fillNormKeys(pairs []Pair) bool {
	var all strings.Builder // a returned String stays valid across later writes
	var buf []byte
	for i := range pairs {
		if pairs[i].nk != "" {
			continue
		}
		var ok bool
		if buf, ok = data.AppendNormKey(buf[:0], pairs[i].Key); !ok {
			return false
		}
		at := all.Len()
		all.Write(buf)
		pairs[i].nk = all.String()[at:]
	}
	return true
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
	pairSlices  slicePool[Pair]
	taggedSlabs slicePool[Tagged]
	rowSlices   slicePool[data.Value]
)

type slicePool[T any] struct{ p sync.Pool } // of *[]T

func (sp *slicePool[T]) get(capacity int) []T {
	if p, _ := sp.p.Get().(*[]T); p != nil && cap(*p) >= capacity {
		return (*p)[:0]
	}
	return make([]T, 0, capacity)
}

func (sp *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	sp.p.Put(&s)
}
