// Package batch implements the columnar batch layer of the execution
// engine: per-split column vectors, cached selection vectors for
// predicates, pre-wrapped row images, and vectorized join-key columns
// (values, normalized keys, hashes). Every map kernel runs over it
// (internal/physop) and emits exactly the records a record-at-a-time
// loop would emit, in the same order, so results, traces, and
// statistics stay bit-identical (see physop's differential suite,
// which holds the kernels to that loop, kept as its test oracle).
package batch

import "sync"

// The interner deduplicates the short strings the hot path mints per
// record — above all normalized shuffle/probe keys, whose byte images
// repeat heavily (foreign keys, group keys). Interned strings make
// map lookups and equality checks pointer-fast and cut the dominant
// per-record allocation of EmitKV-shaped loops.
//
// The table is sharded to keep contention negligible under parallel
// map tasks, and each shard is capped: once full, misses return a
// plain copy instead of growing the table, so a high-cardinality key
// column cannot balloon resident memory in a long-lived process.

const (
	internShards   = 64
	internShardCap = 1 << 13
)

type internShard struct {
	mu sync.RWMutex
	m  map[string]string
}

var internTable [internShards]*internShard

func init() {
	for i := range internTable {
		internTable[i] = &internShard{m: make(map[string]string)}
	}
}

// fnv-1a over the bytes, for shard selection only.
func internHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func internHashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// InternBytes returns a canonical string with the bytes of b,
// allocating only on first sight (or never again once the shard is
// full and the string is already known).
func InternBytes(b []byte) string {
	sh := internTable[internHash(b)&(internShards-1)]
	sh.mu.RLock()
	s, ok := sh.m[string(b)] // no-alloc map probe
	sh.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	sh.mu.Lock()
	if prev, ok := sh.m[s]; ok {
		s = prev
	} else if len(sh.m) < internShardCap {
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return s
}

// intern returns the canonical copy of s.
func intern(s string) string {
	sh := internTable[internHashString(s)&(internShards-1)]
	sh.mu.RLock()
	canon, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return canon
	}
	sh.mu.Lock()
	if prev, ok := sh.m[s]; ok {
		s = prev
	} else if len(sh.m) < internShardCap {
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return s
}
