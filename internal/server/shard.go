package server

import (
	"fmt"
	"strings"
	"sync"

	"dyno/internal/cluster"
	"dyno/internal/dfs"
	"dyno/internal/jaql"
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
	fs   *dfs.FS
	gate *simGate
	cat  *jaql.Catalog

	// mu guards the epoch-scoped state swapped by invalidate. epoch is
	// the shard's view of the server epoch, snapshotted together with
	// store so a session never mixes one epoch's key with another's
	// statistics.
	mu    sync.Mutex
	epoch int64
	store *stats.Store

	results *fifoCache[*response]
	flight  *flightGroup
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
	fs := rt.FS()
	cat, err := tpch.Generate(fs, tpch.Config{SF: cfg.SF, Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: generate dataset: %w", id, err)
	}
	return &shard{
		id:      id,
		rt:      rt,
		fs:      fs,
		gate:    &simGate{sim: rt.Sim()},
		cat:     cat,
		store:   stats.NewStore(),
		results: newFIFOCache[*response](cfg.ResultCacheSize),
		flight:  newFlightGroup(),
	}, nil
}

// session snapshots the epoch-scoped state one query session runs
// against.
func (sh *shard) session() (epoch int64, store *stats.Store) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.epoch, sh.store
}

// invalidate advances the shard to a new statistics epoch: fresh
// statistics store, result cache cleared. The cache remembers the new
// epoch, so in-flight queries that captured the old one cannot park
// stale entries afterwards.
func (sh *shard) invalidate(epoch int64) {
	sh.mu.Lock()
	sh.epoch = epoch
	sh.store = stats.NewStore()
	sh.mu.Unlock()
	sh.results.clear(epoch)
}

// scratchTracker records the DFS output files a session's jobs create,
// via mapreduce.Env.OnCreateFile. Cleanup then removes exactly those
// names: the previous implementation listed the entire namespace per
// query, an O(total files) scan (with a sort) that went quadratic at
// load-generator client counts and worse with shards. Jobs can finish
// on any goroutine driving the shared simulator, hence the mutex.
type scratchTracker struct {
	mu    sync.Mutex
	names []string
}

func (t *scratchTracker) add(name string) {
	t.mu.Lock()
	t.names = append(t.names, name)
	t.mu.Unlock()
}

// take returns the tracked names and resets the tracker.
func (t *scratchTracker) take() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := t.names
	t.names = nil
	return names
}

// removeScratch deletes the session's scratch DFS files (tmp/ and
// pilot/ trees under its tag; result rows were already copied out).
// Only names under the session's own prefixes are touched, mirroring
// the prefix filter the old full-namespace scan applied.
func (sh *shard) removeScratch(t *scratchTracker, tag string) {
	for _, name := range t.take() {
		if strings.HasPrefix(name, "tmp/"+tag) || strings.HasPrefix(name, "pilot/"+tag) {
			_ = sh.fs.Remove(name)
		}
	}
}
