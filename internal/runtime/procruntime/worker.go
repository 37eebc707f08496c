package procruntime

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/oncecache"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
)

// WorkerStatus is the GET /status payload: cache occupancy plus
// hit/miss/eviction counters. ShuffleServed counts the segments it
// served to peers (a request names several).
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
}

// The bounds of a worker's three caches. Blocks and built tables are
// immutable (new file version = new mirror file), so plain FIFO
// eviction is safe; the controller names what job retirement made
// garbage — retained map outputs, the blocks and tables of mirrors
// whose files are gone — and these bounds are the backstop for what it
// never names. An evicted-but-needed shuffle block degrades to a 404,
// and the controller re-runs its map onto a live worker.
const (
	blockCacheBytes   = 256 << 20 // mirrored-block records, by on-disk bytes
	tableCacheEntries = 64        // built broadcast tables
	shuffleCacheBytes = 256 << 20 // retained map outputs, by encoded bytes
)

// Worker executes dispatched map/reduce task bodies. It serves the
// controller's wire protocol from Handler(), so the same code runs as
// a real process (cmd/dynoworker) and in-process under httptest for
// the differential tests.
type Worker struct {
	reg *expr.Registry
	// peers fetches shuffle segments from other workers; keep-alive so
	// a reduce wave's fetches reuse connections.
	peers *http.Client

	blocks   *oncecache.Cache[wire.BlockRef, *dfs.Block]      // bounded by on-disk bytes
	tables   *oncecache.Cache[tableKey, *mapreduce.HashTable] // bounded by entry count
	shuffles *oncecache.Cache[string, mapreduce.Partitioned]  // retained map outputs by shuffle id, bounded by encoded bytes

	mu          sync.Mutex
	draining    bool
	drainNotify func()

	statShufServed atomic.Int64
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
		blocks:   oncecache.New[wire.BlockRef, *dfs.Block](blockCacheBytes),
		tables:   oncecache.New[tableKey, *mapreduce.HashTable](tableCacheEntries),
		shuffles: oncecache.New[string, mapreduce.Partitioned](shuffleCacheBytes),
	}
}

// OnDrain registers a callback invoked after a drain request has been
// acknowledged (cmd/dynoworker exits from it).
func (w *Worker) OnDrain(fn func()) { w.drainNotify = fn }

// Handler returns the worker's HTTP surface: /tasks (batched DYT1
// frames in, DYR2 frames out), /shuffle (a peer's DYF1 request in, one
// DYS2 frame of the segments it names out), and the JSON control plane:
// /shuffle/gc, /status, /healthz, and /drain.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tasks", w.handleTaskBatch)
	mux.HandleFunc("POST /shuffle", w.handleShuffle)
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

// handleShuffle answers a peer's DYF1 request with one DYS2 frame of
// the segments it names, in order, or with 404 and a PeerFetchErr of
// the request positions it no longer holds. Draining workers keep
// serving: retained data stays valid until the process exits.
func (w *Worker) handleShuffle(rw http.ResponseWriter, r *http.Request) {
	body, ok := readBody(rw, r)
	if !ok {
		return
	}
	part, ids, err := wire.DecodeShuffleRequest(body)
	if err != nil {
		http.Error(rw, "bad shuffle request: "+err.Error(), http.StatusBadRequest)
		return
	}
	outs := make([]mapreduce.Partitioned, len(ids))
	var missing []int
	for i, id := range ids {
		if outs[i], ok = w.shuffleLookup(id, part); !ok {
			missing = append(missing, i)
		}
	}
	if missing != nil {
		http.Error(rw, wire.PeerFetchErr(missing, "unknown shuffle blocks"), http.StatusNotFound)
		return
	}
	w.statShufServed.Add(int64(len(ids)))
	frame := wire.EncodeShuffleParts(outs, part)
	defer frame.Close()
	rw.Header().Set("Content-Type", wire.ContentTypeBinary)
	rw.Header().Set("Content-Length", strconv.Itoa(len(frame.Bytes())))
	rw.Write(frame.Bytes())
}

func (w *Worker) handleShuffleGC(rw http.ResponseWriter, r *http.Request) {
	var req wire.ShuffleGCRequest
	if !decodeJSON(rw, r, &req) {
		return
	}
	slices.Sort(req.IDs) // a big job retires thousands of ids at once
	w.shuffles.Drop(func(id string) bool { _, dead := slices.BinarySearch(req.IDs, id); return dead })
	w.blocks.Drop(func(ref wire.BlockRef) bool { return slices.Contains(req.Files, ref.File) })
	w.tables.Drop(func(key tableKey) bool { return slices.Contains(req.Files, key.file) })
	rw.WriteHeader(http.StatusOK)
}

func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	st := WorkerStatus{Draining: w.draining}
	w.mu.Unlock()
	st.ShuffleBlocks, st.ShuffleBytes, _, _, st.ShuffleEvictions = w.shuffles.Stats()
	st.Blocks, st.BlockBytes, st.BlockHits, st.BlockMisses, st.BlockEvictions = w.blocks.Stats()
	st.Tables, _, st.TableHits, st.TableMisses, st.TableEvictions = w.tables.Stats()
	st.ShuffleServed = w.statShufServed.Load()
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
	rw.Header().Set("Content-Length", strconv.Itoa(len(frame.Bytes())))
	rw.Write(frame.Bytes())
}

// runTask executes one task. Operator and decode errors, panics
// included, come back in the result body: deterministic failures the
// controller must not retry elsewhere, striking each worker toward the
// blacklist. Transport-level errors never originate here.
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
// record and runs the engine's map task body over the block.
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
	if blk.NumRecords() > 0 {
		sample = blk.Records()[0]
	}
	k, err := physop.Compile(task.Op, task.InputIdx, sample)
	if err != nil {
		return nil, err
	}
	// A shuffle op (one with a reducer) comes with its reducer count and
	// the id its output is retained under: the pairs never travel back.
	if (k.Reduce != nil) != (task.NumReducers > 0) {
		return nil, fmt.Errorf("%s op with %d reducers", task.Op.Kind, task.NumReducers)
	}
	if task.NumReducers > 0 && task.ShuffleID == "" {
		return nil, fmt.Errorf("%s op with no shuffle id to retain its output under", task.Op.Kind)
	}
	mt := &mapreduce.MapTask{Reg: w.reg, Block: blk, Map: k.Map, Builds: builds, NumReducers: task.NumReducers}
	out, err := mapreduce.RunMapTask(mt)
	if err != nil {
		return nil, err
	}
	res := &wire.TaskResult{CPU: out.CPUMap}
	if task.NumReducers == 0 {
		res.Rows, res.Sel = out.Rows, out.Sel
	} else {
		res.Parts = w.retainShuffle(task.ShuffleID, out.Shuffled, task.ByteScale)
	}
	return res, nil
}

// retainShuffle registers a map task's output in the shuffle registry
// and returns its digest per partition, priced by Partitioned.Bytes as
// the in-process runtime prices it, so proc and sim runs charge
// identical bytes.
func (w *Worker) retainShuffle(id string, out mapreduce.Partitioned, scale float64) []wire.ShufflePart {
	digests := make([]wire.ShufflePart, out.NumParts())
	for p := range digests {
		digests[p] = wire.ShufflePart{Count: len(out.Part(p)), Bytes: out.Bytes(p, scale)}
	}
	// The cache charge is the pairs' encoded bytes.
	raw := int64(len(out.Idx)) * (int64(len(out.Tag)) + 16)
	for _, i := range out.Idx {
		raw += out.Keys[i].EncodedSize() + out.Recs[i].EncodedSize()
	}
	// A hedged duplicate of a deterministic map finds the id taken: its
	// output is byte-identical, so the first copy serves.
	w.shuffles.Get(context.Background(), id, func() (mapreduce.Partitioned, int64, error) { return out, raw, nil })
	return digests
}

// shuffleLookup is the retained output that holds partition part.
func (w *Worker) shuffleLookup(id string, part int) (mapreduce.Partitioned, bool) {
	out, ok := w.shuffles.Peek(id)
	if !ok || part < 0 || part >= out.NumParts() {
		return mapreduce.Partitioned{}, false
	}
	return out, true
}

// fetchShuffle fills segs[i] for every Fetches index i in idx, all held
// by one producer, in one request, retrying one transport failure. It
// returns those it could not fill: the ones a 404 names (the peer is up
// but evicted them, not retried), else all of idx.
func (w *Worker) fetchShuffle(task *wire.Task, idx []int, segs [][]wire.KV, res *wire.TaskResult) (lost []int, err error) {
	ids := make([]string, len(idx))
	for j, i := range idx {
		ids[j] = task.Fetches[i].ID
	}
	peer := &task.Fetches[idx[0]]
	frame := wire.EncodeShuffleRequest(peer.Part, ids)
	defer frame.Close()
	for attempt := 0; attempt < 2; attempt++ {
		resp, perr := w.peers.Post(peer.URL+"/shuffle", wire.ContentTypeBinary, bytes.NewReader(frame.Bytes()))
		if err = perr; err != nil {
			continue
		}
		body, rerr := wire.ReadBody(resp.Body, resp.ContentLength)
		resp.Body.Close()
		if err = rerr; err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg := string(bytes.TrimSpace(body[:min(len(body), 512)]))
			lost = idx
			pos, ok := wire.ParsePeerFetchErr(msg)
			if ok && resp.StatusCode == http.StatusNotFound && !slices.ContainsFunc(pos, func(j int) bool { return j < 0 || j >= len(idx) }) {
				lost = make([]int, len(pos))
				for k, j := range pos {
					lost[k] = idx[j]
				}
			}
			return lost, fmt.Errorf("%s: HTTP %d: %s", peer.URL, resp.StatusCode, msg)
		}
		got, derr := wire.DecodeShuffleSegments(body)
		if derr == nil && len(got) != len(idx) {
			derr = fmt.Errorf("%d segments answered for %d asked", len(got), len(idx))
		}
		if derr != nil {
			return idx, fmt.Errorf("%s: %w", peer.URL, derr)
		}
		for j, i := range idx {
			segs[i] = got[j]
		}
		res.PeerFetches++
		res.PeerBytes += int64(len(body))
		return nil, nil
	}
	return idx, fmt.Errorf("%s: %w", peer.URL, err)
}

// runReduce gathers the reduce input and runs the engine's own reduce
// task body over it, which sorts it.
func (w *Worker) runReduce(task *wire.Task) (*wire.TaskResult, error) {
	k, err := physop.Compile(task.Op, 0, data.Null())
	if err != nil {
		return nil, err
	}
	if k.Reduce == nil {
		return nil, fmt.Errorf("op kind %q has no reduce phase", task.Op.Kind)
	}
	res := &wire.TaskResult{}
	pairs, lost := w.gather(task, res)
	if lost != "" {
		return &wire.TaskResult{Err: lost}, nil
	}
	if res.Rows, res.CPU, err = mapreduce.RunReduceTask(w.reg, k.Reduce, pairs); err != nil {
		return nil, err
	}
	return res, nil
}

// gather assembles a reduce task's input in Fetches order into one
// exactly-sized slice: local windows and one request per producing
// peer — or a PeerFetchErr naming every segment it could not fetch, for
// the controller to relocate before it dispatches again.
func (w *Worker) gather(task *wire.Task, res *wire.TaskResult) (pairs []wire.KV, lost string) {
	segs := make([][]wire.KV, len(task.Fetches))
	held := make([]mapreduce.Partitioned, len(task.Fetches)) // local outputs, read through their positions
	var peers []string
	asks := map[string][]int{} // Fetches indices by producer and partition, in order
	for i := range task.Fetches {
		ref := &task.Fetches[i]
		var ok bool
		if held[i], ok = w.shuffleLookup(ref.ID, ref.Part); !ok {
			peer := fmt.Sprint(ref.Part, " ", ref.URL)
			if asks[peer] == nil {
				peers = append(peers, peer)
			}
			asks[peer] = append(asks[peer], i)
		}
	}
	var failed []int
	var why []string
	for _, peer := range peers {
		if idx, err := w.fetchShuffle(task, asks[peer], segs, res); err != nil {
			failed = append(failed, idx...)
			why = append(why, err.Error())
		}
	}
	if failed != nil {
		slices.Sort(failed)
		return nil, wire.PeerFetchErr(failed, strings.Join(why, "; "))
	}
	n := 0
	for i := range segs {
		n += len(segs[i]) + len(held[i].Part(task.Fetches[i].Part))
	}
	pairs = make([]wire.KV, 0, n)
	for i := range segs {
		pairs = held[i].AppendPart(append(pairs, segs[i]...), task.Fetches[i].Part)
	}
	return pairs, ""
}

// block loads one mirrored block (a DYB1 frame; anything else is an
// error), memoizing by its reference under the FIFO block cache bounded
// by on-disk bytes: one decode, so one columnar image (on the block's
// cache slot, evicted with it), per block.
func (w *Worker) block(ref wire.BlockRef) (*dfs.Block, error) {
	if ref.File == "" {
		return nil, fmt.Errorf("map task has no input block")
	}
	b, _, err := w.blocks.Get(context.Background(), ref, func() (*dfs.Block, int64, error) {
		b, err := readSpan(ref)
		if err != nil {
			return nil, 0, err
		}
		recs, err := wire.DecodeBlock(b)
		if err != nil {
			return nil, 0, fmt.Errorf("decode block %s@%d: %w", ref.File, ref.Off, err)
		}
		return dfs.NewBlock(recs), ref.Len, nil
	})
	return b, err
}

// readSpan reads a block's frame out of its mirror file with one
// positioned read into an exactly-sized buffer. A span longer than any
// body the worker accepts, or past the end of the file, is refused
// before the buffer is allocated. (The decoder has refused negative
// ones.)
func readSpan(ref wire.BlockRef) ([]byte, error) {
	if ref.Len > wire.MaxBodyBytes {
		return nil, fmt.Errorf("block %s@%d: %d bytes is over the %d-byte frame bound", ref.File, ref.Off, ref.Len, int64(wire.MaxBodyBytes))
	}
	f, err := os.Open(ref.File)
	if err != nil {
		return nil, fmt.Errorf("open block: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("open block: %w", err)
	}
	if ref.Off > st.Size() || ref.Len > st.Size()-ref.Off {
		return nil, fmt.Errorf("block %s@%d: %d bytes run past the file's %d", ref.File, ref.Off, ref.Len, st.Size())
	}
	b := make([]byte, ref.Len)
	if _, err := f.ReadAt(b, ref.Off); err != nil {
		return nil, fmt.Errorf("read block %s@%d: %w", ref.File, ref.Off, err)
	}
	return b, nil
}

// tableKey is a built table's identity: the mirror file its build side
// was read from (the file's version) and the build parameters, the
// order its blocks are read in among them.
type tableKey struct{ file, params string }

// table returns the built hash table for a broadcast ref, memoized by
// what the table is a function of: the mirror file (its version), which
// of its blocks in which order (a group's rows are in scan order), and
// the build's wrap, filter and keys. Builds of one file with different
// filters never collide, and one build reached under different step
// names (b0 in one chain, b1 in another) is built once. The build's UDF
// cost is discarded: the controller charges the one-time filtered-build
// preparation to the virtual clock itself, so a worker rebuilding the
// table must not double-charge it.
func (w *Worker) table(ref wire.BuildRef) (*mapreduce.HashTable, error) {
	filterKey, err := wire.ExprKey(ref.Filter)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", ref.Name, err)
	}
	order := make([]byte, 0, 8*len(ref.Blocks))
	for _, b := range ref.Blocks {
		order = strconv.AppendInt(append(order, '@'), b.Off, 10)
	}
	key := tableKey{params: string(order) + "|" + ref.Wrap + "|" + filterKey}
	if len(ref.Blocks) > 0 {
		key.file = ref.Blocks[0].File
	}
	for _, p := range ref.Keys {
		key.params += "|" + p.String()
	}
	t, _, err := w.tables.Get(context.Background(), key, func() (*mapreduce.HashTable, int64, error) {
		blocks := make([]*dfs.Block, len(ref.Blocks))
		var sample data.Value
		for i, b := range ref.Blocks {
			if b.File != key.file {
				return nil, 0, fmt.Errorf("build %s: blocks from %s and %s", ref.Name, key.file, b.File)
			}
			blk, err := w.block(b)
			if err != nil {
				return nil, 0, fmt.Errorf("build %s: %w", ref.Name, err)
			}
			blocks[i] = blk
			if sample.IsNull() && blk.NumRecords() > 0 {
				sample = blk.Records()[0]
			}
		}
		t, err := mapreduce.BuildHashTable(w.reg, physop.BindBuild(mapreduce.Broadcast{
			Name: ref.Name, KeyPaths: ref.Keys, Wrap: ref.Wrap, Filter: ref.Filter,
		}, sample), blocks, 0, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("build %s: %w", ref.Name, err)
		}
		return t, 1, nil
	})
	return t, err
}
