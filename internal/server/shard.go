package server

import (
	"fmt"
	"sync"

	"dyno/internal/cluster"
	"dyno/internal/jaql"
	"dyno/internal/oncecache"
	"dyno/internal/runtime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/stats"
	"dyno/internal/tpch"
)

// shard is one independent serving unit: its own simulated cluster,
// DFS, TPC-H catalog, gate, statistics store, and result cache.
// Requests route to a shard by hash of their normalized SQL, so a given
// query text always lands on the same shard and its cache sees every
// repeat.
// Shards share nothing but the server's UDF registry (read-only after
// construction) and the admission semaphore, so N shards run N queries
// with zero gate contention between them.
type shard struct {
	id   int
	rt   runtime.Runtime
	gate *simGate
	cat  *jaql.Catalog

	// mu guards the statistics store and the result table, which
	// invalidate swaps together. The table holds pending and finished
	// results alike (cost 1 each, bounded by Config.ResultCacheSize), so
	// a request that finds its key either reads the result or waits for
	// the execution under way.
	mu      sync.Mutex
	store   *stats.Store
	results *oncecache.Cache[string, *response]
}

// newShard generates the shard's private copy of the dataset and wires
// up its cluster. Every shard uses the same generation seed, so all
// shards answer any query identically — routing is purely a
// throughput concern.
func newShard(id int, cfg Config, ccfg cluster.Config) (*shard, error) {
	newRT := cfg.NewRuntime
	if newRT == nil {
		newRT = func(c cluster.Config) (runtime.Runtime, error) { return simruntime.New(c), nil }
	}
	rt, err := newRT(ccfg)
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: runtime: %w", id, err)
	}
	cat, err := tpch.Generate(rt.FS(), tpch.Config{SF: cfg.SF, Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: generate dataset: %w", id, err)
	}
	sh := &shard{id: id, rt: rt, gate: &simGate{sim: rt.Sim()}, cat: cat}
	sh.invalidate(cfg.ResultCacheSize)
	return sh, nil
}

// session returns the statistics store and the result table one
// request runs against, taken together.
func (sh *shard) session() (*stats.Store, *oncecache.Cache[string, *response]) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.store, sh.results
}

// invalidate gives the shard a fresh statistics store and result
// table. An execution that straddles it finishes into the old table,
// where no later request looks, and no later request waits on it.
func (sh *shard) invalidate(resultCacheSize int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.store = stats.NewStore()
	sh.results = oncecache.New[string, *response](int64(resultCacheSize))
}
