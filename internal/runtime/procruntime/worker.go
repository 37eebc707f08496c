package procruntime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
)

// WorkerStatus is the GET /status payload: cache occupancy plus
// hit/miss/eviction counters, and the worker's peer-shuffle traffic
// totals.
type WorkerStatus struct {
	Draining bool `json:"draining,omitempty"`

	Blocks         int   `json:"blocks"`
	BlockBytes     int64 `json:"blockBytes"`
	BlockHits      int64 `json:"blockHits"`
	BlockMisses    int64 `json:"blockMisses"`
	BlockEvictions int64 `json:"blockEvictions"`

	Tables         int   `json:"tables"`
	TableHits      int64 `json:"tableHits"`
	TableMisses    int64 `json:"tableMisses"`
	TableEvictions int64 `json:"tableEvictions"`

	ShuffleBlocks    int   `json:"shuffleBlocks"`
	ShuffleBytes     int64 `json:"shuffleBytes"`
	ShuffleServed    int64 `json:"shuffleServed"`
	ShuffleEvictions int64 `json:"shuffleEvictions"`

	PeerFetches int64 `json:"peerFetches"`
	PeerBytes   int64 `json:"peerBytes"`
}

type blockEntry struct {
	recs []data.Value
	// aux caches the block's columnar image (batch.For) for the columnar
	// kernels; it lives and is evicted with the entry.
	aux atomic.Value
}

// onceCache is a FIFO cache bounded by total cost whose entries are
// built once: a frame's tasks run in parallel and can all miss one key
// at the same instant, so late arrivals wait for the first caller's
// build instead of repeating it. A failed build is not cached.
type onceCache[V any] struct {
	max int64 // total cost bound

	mu    sync.Mutex
	m     map[string]*onceEntry[V]
	order []string // built keys, oldest first
	cost  int64

	hits, misses, evicts int64
}

type onceEntry[V any] struct {
	once  sync.Once
	v     V
	cost  int64
	err   error
	built bool // v is set and the entry is in order; guarded by the cache's mu
}

// The bounds of a worker's three caches. Blocks and built tables are
// immutable (new file version = new mirror directory), so plain FIFO
// eviction is safe; the controller names what job retirement made
// garbage — retained map outputs, the blocks and tables of mirrors
// whose files are gone — and these bounds are the backstop for what it
// never names. An evicted-but-needed shuffle block degrades to a 404,
// which the controller recovers through the mirror path.
const (
	blockCacheBytes   = 256 << 20 // mirrored-block records, by on-disk bytes
	tableCacheEntries = 64        // built broadcast tables
	shuffleCacheBytes = 256 << 20 // retained map outputs, by encoded bytes
)

func newOnceCache[V any](max int64) *onceCache[V] {
	return &onceCache[V]{max: max, m: map[string]*onceEntry[V]{}}
}

// get returns key's value; the first caller to ask runs build, which
// also reports the value's cost.
func (c *onceCache[V]) get(key string, build func() (V, int64, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = &onceEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.v, e.cost, e.err = build()
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.m[key] != e {
			return // dropped while it was being built
		}
		if e.err != nil {
			delete(c.m, key)
			return
		}
		for c.cost+e.cost > c.max && len(c.order) > 0 {
			c.cost -= c.m[c.order[0]].cost
			delete(c.m, c.order[0])
			c.order = c.order[1:]
			c.evicts++
		}
		c.order = append(c.order, key)
		c.cost += e.cost
		e.built = true
	})
	return e.v, e.err
}

// peek returns key's value if it has been built; it builds nothing.
func (c *onceCache[V]) peek(key string) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[key]; e != nil && e.built {
		return e.v, true
	}
	return v, false
}

// drop forgets every entry whose key dead reports true. It is not an
// eviction: the caller knows those keys will not be asked for again.
func (c *onceCache[V]) drop(dead func(key string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.m {
		if dead(key) {
			if e.built {
				c.cost -= e.cost
			}
			delete(c.m, key)
		}
	}
	c.order = slices.DeleteFunc(c.order, func(key string) bool { return c.m[key] == nil })
}

// stats returns the entry count, total cost, and the counters.
func (c *onceCache[V]) stats() (n int, cost, hits, misses, evicts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order), c.cost, c.hits, c.misses, c.evicts
}

// Worker executes dispatched map/reduce task bodies. It serves the
// controller's wire protocol from Handler(), so the same code runs as
// a real process (cmd/dynoworker) and in-process under httptest for
// the differential tests.
type Worker struct {
	reg *expr.Registry
	// peers fetches shuffle segments from other workers; keep-alive so
	// a reduce wave's fetches reuse connections.
	peers *http.Client

	blocks   *onceCache[*blockEntry]          // bounded by on-disk bytes
	tables   *onceCache[*mapreduce.HashTable] // bounded by entry count
	shuffles *onceCache[[][]wire.KV]          // retained map outputs by shuffle id, bounded by encoded bytes

	mu          sync.Mutex
	draining    bool
	drainNotify func()

	statShufServed  atomic.Int64
	statPeerFetches atomic.Int64
	statPeerBytes   atomic.Int64
}

// NewWorker builds a worker evaluating expressions against reg (which
// must carry the same UDF registrations as the controller's registry
// for the differential contract to hold).
func NewWorker(reg *expr.Registry) *Worker {
	return &Worker{
		reg: reg,
		// A frame's reduce tasks fetch from one producer concurrently; the
		// default transport's 2 idle connections per host would churn.
		peers: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: runtime.GOMAXPROCS(0), // the frame parallelism
			IdleConnTimeout:     90 * time.Second,
		}},
		blocks:   newOnceCache[*blockEntry](blockCacheBytes),
		tables:   newOnceCache[*mapreduce.HashTable](tableCacheEntries),
		shuffles: newOnceCache[[][]wire.KV](shuffleCacheBytes),
	}
}

// OnDrain registers a callback invoked after a drain request has been
// acknowledged (cmd/dynoworker exits from it).
func (w *Worker) OnDrain(fn func()) { w.drainNotify = fn }

// Handler returns the worker's HTTP surface: /tasks (batched DYT1
// frames in, DYR1 frames out), /shuffle (peer segment serving, DYS1
// frames), and the JSON control plane: /shuffle/gc, /status, /healthz,
// and /drain.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tasks", w.handleTaskBatch)
	mux.HandleFunc("GET /shuffle", w.handleShuffle)
	mux.HandleFunc("POST /shuffle/gc", w.handleShuffleGC)
	mux.HandleFunc("GET /status", w.handleStatus)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
		rw.Write([]byte("ok\n"))
	})
	mux.HandleFunc("POST /drain", w.handleDrain)
	return mux
}

func (w *Worker) handleDrain(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	already := w.draining
	w.draining = true
	w.mu.Unlock()
	rw.WriteHeader(http.StatusOK)
	if !already && w.drainNotify != nil {
		go w.drainNotify()
	}
}

// handleShuffle serves one retained shuffle partition to a peer as a
// DYS1 frame. Draining workers keep serving — retained data stays
// valid until the process exits, and a vanished process surfaces as a
// fetch error the controller recovers from.
func (w *Worker) handleShuffle(rw http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	part, err := strconv.Atoi(r.URL.Query().Get("part"))
	if id == "" || err != nil {
		http.Error(rw, "bad shuffle request: need id and part", http.StatusBadRequest)
		return
	}
	pairs, ok := w.shuffleLookup(id, part)
	if !ok {
		http.Error(rw, "unknown shuffle block", http.StatusNotFound)
		return
	}
	w.statShufServed.Add(1)
	frame := wire.EncodeShuffle(pairs)
	defer frame.Close()
	rw.Header().Set("Content-Type", wire.ContentTypeBinary)
	rw.Write(frame.Bytes())
}

func (w *Worker) handleShuffleGC(rw http.ResponseWriter, r *http.Request) {
	var req wire.ShuffleGCRequest
	if !decodeJSON(rw, r, &req) {
		return
	}
	slices.Sort(req.IDs) // a big job retires thousands of ids at once
	w.shuffles.drop(func(id string) bool { _, dead := slices.BinarySearch(req.IDs, id); return dead })
	// Block keys are paths inside a mirror directory; table keys start
	// with the build file's directory (BuildRef.Version).
	w.blocks.drop(func(path string) bool { return slices.Contains(req.Dirs, filepath.Dir(path)) })
	w.tables.drop(func(key string) bool {
		dir, _, _ := strings.Cut(key, "|")
		return slices.Contains(req.Dirs, dir)
	})
	rw.WriteHeader(http.StatusOK)
}

func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	st := WorkerStatus{Draining: w.draining}
	w.mu.Unlock()
	st.ShuffleBlocks, st.ShuffleBytes, _, _, st.ShuffleEvictions = w.shuffles.stats()
	st.Blocks, st.BlockBytes, st.BlockHits, st.BlockMisses, st.BlockEvictions = w.blocks.stats()
	st.Tables, _, st.TableHits, st.TableMisses, st.TableEvictions = w.tables.stats()
	st.ShuffleServed = w.statShufServed.Load()
	st.PeerFetches = w.statPeerFetches.Load()
	st.PeerBytes = w.statPeerBytes.Load()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(st)
}

// handleTaskBatch serves one frame of tasks — a worker's share of a
// dispatch wave — on up to GOMAXPROCS goroutines, answering in request
// order. Tasks fail independently: a deterministic operator error lands
// in that task's slot while its frame-mates complete normally.
func (w *Worker) handleTaskBatch(rw http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") != wire.ContentTypeBinary {
		http.Error(rw, "task batches must be "+wire.ContentTypeBinary, http.StatusUnsupportedMediaType)
		return
	}
	body, ok := readBody(rw, r)
	if !ok {
		return
	}
	tasks, err := wire.DecodeTaskBatch(body)
	if err != nil {
		http.Error(rw, "bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	results := make([]*wire.TaskResult, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(tasks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
				results[i] = w.runTask(tasks[i])
			}
		}()
	}
	wg.Wait()
	frame := wire.EncodeResultBatch(results)
	defer frame.Close()
	rw.Header().Set("Content-Type", wire.ContentTypeBinary)
	rw.Write(frame.Bytes())
}

// runTask executes one task; operator and decode errors come back in
// the result body (deterministic failures the controller must not
// retry), transport-level errors never originate here. A panicking
// operator is such a failure too: it would panic identically on every
// worker, so it must not surface as a dropped connection that is
// retried elsewhere and strikes each worker toward the blacklist.
func (w *Worker) runTask(task *wire.Task) (res *wire.TaskResult) {
	defer func() {
		if r := recover(); r != nil {
			res = &wire.TaskResult{Err: fmt.Sprintf("task %s panicked: %v", task.Task, r)}
		}
	}()
	if task.Op == nil {
		return &wire.TaskResult{Err: "task has no operator"}
	}
	var err error
	switch task.Kind {
	case "map":
		res, err = w.runMap(task)
	case "reduce":
		res, err = w.runReduce(task)
	default:
		err = fmt.Errorf("unknown task kind %q", task.Kind)
	}
	if err != nil {
		return &wire.TaskResult{Err: err.Error()}
	}
	return res
}

// runMap compiles the task's operator against the block's first
// record and runs the engine's own map task body over the block.
func (w *Worker) runMap(task *wire.Task) (*wire.TaskResult, error) {
	blk, err := w.block(task.Block)
	if err != nil {
		return nil, err
	}
	builds := make(map[string]*mapreduce.HashTable, len(task.Builds))
	for _, ref := range task.Builds {
		if builds[ref.Name], err = w.table(ref); err != nil {
			return nil, err
		}
	}
	for _, st := range task.Op.Steps {
		if builds[st.Build] == nil {
			return nil, fmt.Errorf("chain step references unknown build %q", st.Build)
		}
	}
	var sample data.Value
	if len(blk.recs) > 0 {
		sample = blk.recs[0]
	}
	k, err := physop.Compile(task.Op, task.InputIdx, sample)
	if err != nil {
		return nil, err
	}
	mt := &mapreduce.MapTask{Reg: w.reg, Recs: blk.recs, Aux: &blk.aux, Map: k.Map, Builds: builds}
	if task.HasReduce {
		mt.NumReducers = task.NumReducers
	}
	if task.RunCombine {
		if k.Combine == nil {
			return nil, fmt.Errorf("combiner requested for %s op", task.Op.Kind)
		}
		mt.Combine = k.Combine
	}
	out, err := mapreduce.RunMapTask(mt)
	if err != nil {
		return nil, err
	}
	res := &wire.TaskResult{CPUMap: out.CPUMap, CPUTotal: out.CPUTotal}
	switch {
	case !task.HasReduce:
		res.Rows = out.Rows
	case task.RetainShuffle && task.ShuffleID != "":
		res.Parts = w.retainShuffle(task.ShuffleID, out.Parts, task.ByteScale)
	default:
		// The recovery re-run of a lost output: the pairs go back to the
		// controller, which inlines the missing segment.
		res.Pairs = out.Parts
	}
	return res, nil
}

// retainShuffle registers a map task's partitioned output in the
// shuffle registry and returns the per-partition digests the
// controller accounts with. The virtual size replicates the
// controller's per-record arithmetic exactly — int64 conversion per
// record, then int64 summation — so proc and sim runs charge identical
// virtual bytes.
func (w *Worker) retainShuffle(id string, parts [][]wire.KV, scale float64) []wire.ShufflePart {
	digests := make([]wire.ShufflePart, len(parts))
	var raw int64
	for p, pairs := range parts {
		var vb int64
		for _, kv := range pairs {
			vb += int64(float64(kv.Rec.EncodedSize()+1) * scale)
			raw += kv.Key.EncodedSize() + kv.Rec.EncodedSize() + int64(len(kv.Tag)) + 16
		}
		digests[p] = wire.ShufflePart{Count: len(pairs), Bytes: vb}
	}
	// A hedged duplicate or re-run of a deterministic map finds the id
	// taken: its output is byte-identical, so the first copy serves.
	w.shuffles.get(id, func() ([][]wire.KV, int64, error) { return parts, raw, nil })
	return digests
}

func (w *Worker) shuffleLookup(id string, part int) ([]wire.KV, bool) {
	parts, ok := w.shuffles.peek(id)
	if !ok || part < 0 || part >= len(parts) {
		return nil, false
	}
	return parts[part], true
}

// fetchShuffle pulls one shuffle segment from the producing peer,
// retrying one transient transport failure. A non-OK status (the peer
// is up but no longer holds the block) is deterministic and not
// retried — the controller falls back to the mirror path instead.
func (w *Worker) fetchShuffle(base, id string, part int) ([]wire.KV, int64, error) {
	target := base + "/shuffle?id=" + url.QueryEscape(id) + "&part=" + strconv.Itoa(part)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			return nil, 0, err
		}
		resp, err := w.peers.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := wire.ReadBody(resp.Body, resp.ContentLength)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body[:min(len(body), 512)]))
		}
		kvs, err := wire.DecodeShuffle(body)
		if err != nil {
			return nil, 0, err
		}
		w.statPeerFetches.Add(1)
		w.statPeerBytes.Add(int64(len(body)))
		return kvs, int64(len(body)), nil
	}
	return nil, 0, lastErr
}

// runReduce assembles the reduce input from the segment list in order
// — inline pairs, the local registry, then the producing peer — sorts
// it, and runs the engine's own reduce task body.
func (w *Worker) runReduce(task *wire.Task) (*wire.TaskResult, error) {
	k, err := physop.Compile(task.Op, 0, data.Null())
	if err != nil {
		return nil, err
	}
	if k.Reduce == nil {
		return nil, fmt.Errorf("op kind %q has no reduce phase", task.Op.Kind)
	}
	var pairs []wire.KV
	res := &wire.TaskResult{}
	for i := range task.Fetches {
		ref := &task.Fetches[i]
		if ref.ID == "" {
			pairs = append(pairs, ref.Pairs...)
			continue
		}
		if local, ok := w.shuffleLookup(ref.ID, ref.Part); ok {
			pairs = append(pairs, local...)
			continue
		}
		kvs, n, err := w.fetchShuffle(ref.URL, ref.ID, ref.Part)
		if err != nil {
			return &wire.TaskResult{Err: wire.PeerFetchErr(i, ref.URL, err)}, nil
		}
		res.PeerFetches++
		res.PeerBytes += n
		pairs = append(pairs, kvs...)
	}
	wire.SortKVs(pairs)
	if res.Rows, res.CPUSeconds, err = mapreduce.RunReduceTask(w.reg, k.Reduce, pairs); err != nil {
		return nil, err
	}
	return res, nil
}

// block loads one mirrored block file (a DYB1 frame; anything else is
// an error), memoizing by path under the FIFO block cache bounded by
// on-disk bytes: one decode, so one columnar image, per block.
func (w *Worker) block(path string) (*blockEntry, error) {
	if path == "" {
		return nil, fmt.Errorf("map task has no input block")
	}
	return w.blocks.get(path, func() (*blockEntry, int64, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("open block: %w", err)
		}
		recs, err := wire.DecodeBlock(b)
		if err != nil {
			return nil, 0, fmt.Errorf("decode block %s: %w", path, err)
		}
		return &blockEntry{recs: recs}, int64(len(b)), nil
	})
}

// table returns the built hash table for a broadcast ref, memoized by
// the ref's full semantic identity (file version + build parameters),
// so rebuilds of the same file with different filters never collide.
// The build's UDF cost is discarded: the controller charges the
// one-time filtered-build preparation to the virtual clock itself, so a
// worker rebuilding the table must not double-charge it.
func (w *Worker) table(ref wire.BuildRef) (*mapreduce.HashTable, error) {
	filterKey, err := wire.ExprKey(ref.Filter)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", ref.Name, err)
	}
	key := ref.Version + "|" + ref.Name + "|" + ref.Wrap + "|" + filterKey
	for _, p := range ref.Keys {
		key += "|" + p.String()
	}
	return w.tables.get(key, func() (*mapreduce.HashTable, int64, error) {
		blocks := make([]mapreduce.Split, len(ref.Blocks))
		var sample data.Value
		for i, path := range ref.Blocks {
			blk, err := w.block(path)
			if err != nil {
				return nil, 0, fmt.Errorf("build %s: %w", ref.Name, err)
			}
			blocks[i] = mapreduce.Split{Recs: blk.recs, Aux: &blk.aux}
			if sample.IsNull() && len(blk.recs) > 0 {
				sample = blk.recs[0]
			}
		}
		t, err := mapreduce.BuildHashTable(w.reg, physop.BindBuild(mapreduce.Broadcast{
			Name: ref.Name, KeyPaths: ref.Keys, Wrap: ref.Wrap, Filter: ref.Filter,
		}, sample), blocks, nil, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("build %s: %w", ref.Name, err)
		}
		return t, 1, nil
	})
}
