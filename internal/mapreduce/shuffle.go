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
//   - A key is normalized once per split, into an order-preserving
//     string (data.AppendNormKey; batch.KeyColsOf): sorting and grouping
//     compare strings. Its partition is data.Hash64(key) % R, which
//     decides output row placement, never the encoding.
//   - Pairs enter a map task's output one way, MapCtx.ShuffleSel, as
//     positions, not copies (Partitioned): one Idx by partition, cut by
//     R+1 offsets, into key and record columns that for the repartition
//     kernel are its split's cached ones and for the aggregate its
//     split's records. A reducer's input is its windows' pairs gathered
//     in map order, and a key group is its window of the sorted pairs.
//   - A shuffled record has one price, Partitioned.Bytes, on both
//     runtimes.
//   - Broadcast hash tables group build rows by normalized key in one
//     row array behind one index sized once: a probe compares keys,
//     never values.
//
// Why one unstable sort reproduces two stable ones. Reduce order is the
// stable sort of a partition's pairs, in map submission order, by
// data.Compare on the key, on both runtimes: the one permutation
// ordered by (key, input index), a total order any correct sort yields.
// The normalized encoding orders keys as data.Compare does, and its
// first 8 bytes (big-endian, zero-padded) never order two keys against
// their full encodings. So (prefix, nk, index) is (Compare, index), and
// SortPairsByKey sorts one 16-byte (prefix, index) entry per pair, then
// moves each 80-byte Pair once.

// sortEnt is a pair's sort entry: nkPrefix of its key, input position.
type sortEnt struct {
	prefix uint64
	i      int32
}

// SortPairsByKey sorts shuffle pairs into reduce key order — the stable
// order by data.Compare on the key — in place. Pairs that arrive without
// a normalized key (decoded from a frame) are given one first.
func SortPairsByKey(pairs []Pair) {
	fillNormKeys(pairs)
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

// fillNormKeys normalizes the key of every pair that has no nk (every
// encoding is at least one byte), into one buffer the pairs share.
func fillNormKeys(pairs []Pair) {
	var all strings.Builder // a returned String stays valid across later writes
	var buf []byte
	for i := range pairs {
		if pairs[i].nk != "" {
			continue
		}
		buf, _ = data.AppendNormKey(buf[:0], pairs[i].Key)
		at := all.Len()
		all.Write(buf)
		pairs[i].nk = all.String()[at:]
	}
}

// Pools recycle the shuffle's large transient buffers across tasks and
// jobs, cleared so they pin no records, once nothing reads them: a
// reduce task's gathered pairs at its end, output rows once written.
var (
	pairSlices slicePool[Pair]
	rowSlices  slicePool[data.Value]
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
