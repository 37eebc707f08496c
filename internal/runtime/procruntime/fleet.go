// Package procruntime is the real multi-process execution backend: a
// controller embedded in the client process (dynoql/dynod) plus
// dynoworker processes speaking HTTP. Workers register with the
// controller and heartbeat (JSON); every map/reduce task body is
// dispatched to a worker in batched binary frames, and the worker
// executes the job's serialized operator against file-backed DFS
// blocks mirrored to local disk, keeping shuffle output for its peers
// to fetch directly: shuffle pairs travel worker to worker only. The
// discrete-event simulator keeps running controller-side as the
// scheduler and virtual-time accountant, so plans, rows, and job counts
// match the sim backend exactly (the differential contract) while task
// bodies consume honest wall-clock on real processes.
//
// Fault model (the simulator's, at the dispatch layer): per-task
// timeouts, bounded retries on distinct workers, blacklisting after
// consecutive failures, and straggler-tolerant hedged re-dispatch once
// an attempt exceeds a multiple of the observed median task duration —
// first answer wins. A map output lost with its worker is re-run onto a
// live one, as Hadoop re-executes a map whose output a reducer cannot
// fetch.
package procruntime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/runtime/wire"
	"dyno/internal/tpch"
)

// Config shapes a worker fleet.
type Config struct {
	// Addr is the controller's listen address; default 127.0.0.1:0.
	Addr string
	// SpillDir holds the mirror files, one per DFS file; default a fresh
	// temp directory removed on Close.
	SpillDir string
	// HedgeMin is the minimum straggler hedge delay; default 2s. An
	// attempt older than max(HedgeMin, hedgeFactor x median completed
	// duration of the task kind) triggers a speculative second attempt
	// on a different worker.
	HedgeMin time.Duration
	// StaleAfter is how long a worker may stay silent (it reports every
	// heartbeat) before dispatch skips it; default 10s.
	StaleAfter time.Duration
	// Logf, when set, receives fleet events (registrations, retries,
	// hedges, blacklists).
	Logf func(format string, args ...any)
}

// Fixed fleet bounds and timings.
const (
	// maxAttempts bounds dispatch attempts per task, the hedged attempt
	// included.
	maxAttempts = 3
	// blacklistAfter removes a worker from rotation after this many
	// consecutive failures.
	blacklistAfter = 3
	// taskTimeout bounds one dispatch attempt per task it carries.
	taskTimeout = 60 * time.Second
	// hedgeFactor scales a task kind's median completed duration into
	// its straggler threshold (see Config.HedgeMin).
	hedgeFactor = 2
	// heartbeat is the interval workers are told to report at.
	heartbeat = time.Second
)

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 2 * time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 10 * time.Second
	}
	return c
}

type workerState struct {
	id       int
	url      string
	fails    int
	black    bool
	lastSeen time.Time
}

// Fleet is the controller side of the proc backend: the worker
// registry, the block mirror, and the dispatch engine. One Fleet can
// serve many Runtimes (shards) concurrently; all methods are safe for
// concurrent use.
type Fleet struct {
	cfg      Config
	srv      *http.Server
	ln       net.Listener
	client   *http.Client
	ownSpill bool
	done     chan struct{} // closed by Close; fails tasks still in dispatch

	mu sync.Mutex
	// workers is in id order: ids are handed out 1, 2, ... and a worker
	// leaves only when Close drops them all, so id == index+1.
	workers   []*workerState
	rr        int
	mirrors   map[*dfs.File]*mirror
	mirrorSeq int
	closed    bool
	// sweeps tracks the goroutines deleting retired mirror files;
	// Close waits for them.
	sweeps sync.WaitGroup

	durMu     sync.Mutex
	durations map[string]*durRing // task kind -> recent completed seconds

	// shufSeq allocates fleet-global shuffle ids; jobShuffles tracks
	// the ids each job produced so RetireJob can broadcast GC.
	shufSeq     atomic.Int64
	shufMu      sync.Mutex
	jobShuffles map[string][]string

	// Wire-level counters (task dispatch only; register, heartbeat,
	// drain, and shuffle-GC traffic is not counted).
	statRPCs      atomic.Int64
	statTasks     atomic.Int64
	statBytesOut  atomic.Int64
	statBytesIn   atomic.Int64
	statPeerShufB atomic.Int64
	statPeerFetch atomic.Int64
}

// WireStats is a snapshot of the fleet's dispatch-plane counters.
type WireStats struct {
	// RPCs is the number of task-carrying HTTP round-trips; Tasks
	// counts task attempts carried by them.
	RPCs  int64 `json:"rpcs"`
	Tasks int64 `json:"tasks"`
	// BytesOut/BytesIn are request/response payload bytes.
	BytesOut int64 `json:"bytesOut"`
	BytesIn  int64 `json:"bytesIn"`
	// CtlShuffleBytes is always 0: no shuffle pair crosses the
	// controller, a lost segment included (it is re-run onto a worker).
	// It stays for the benchmark harness, which still reports it.
	// PeerShuffleBytes is shuffle payload fetched worker-to-worker;
	// PeerFetches counts those fetch RPCs.
	CtlShuffleBytes  int64 `json:"ctlShuffleBytes"`
	PeerShuffleBytes int64 `json:"peerShuffleBytes"`
	PeerFetches      int64 `json:"peerFetches"`
}

// WireStats returns the dispatch counters accumulated so far.
func (f *Fleet) WireStats() WireStats {
	return WireStats{
		RPCs:             f.statRPCs.Load(),
		Tasks:            f.statTasks.Load(),
		BytesOut:         f.statBytesOut.Load(),
		BytesIn:          f.statBytesIn.Load(),
		PeerShuffleBytes: f.statPeerShufB.Load(),
		PeerFetches:      f.statPeerFetch.Load(),
	}
}

// mirror is one DFS file's blocks written to local disk for workers to
// read. fs and name say which file it mirrors, so RetireJob can tell
// when that file is gone.
type mirror struct {
	fs     *dfs.FS
	name   string
	path   string
	once   sync.Once
	err    error
	blocks []wire.BlockRef
}

// hedgeWindow is how many of a task kind's most recent completions
// the straggler threshold is computed over.
const hedgeWindow = 128

// durRing holds the last hedgeWindow completed durations of one task
// kind, in seconds.
type durRing struct {
	buf [hedgeWindow]float64
	n   int // completions recorded so far
}

// NewFleet starts the controller listener and returns the fleet.
func NewFleet(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg: cfg,
		// One keep-alive client serves every dispatch attempt:
		// connections to workers are reused across tasks and batches,
		// and per-attempt deadlines ride the request context instead
		// of a per-client timeout.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		}},
		done:        make(chan struct{}),
		mirrors:     map[*dfs.File]*mirror{},
		durations:   map[string]*durRing{},
		jobShuffles: map[string][]string{},
	}
	if cfg.SpillDir == "" {
		dir, err := os.MkdirTemp("", "dyno-spill-*")
		if err != nil {
			return nil, err
		}
		f.cfg.SpillDir = dir
		f.ownSpill = true
	} else if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", f.cfg.Addr)
	if err != nil {
		if f.ownSpill {
			os.RemoveAll(f.cfg.SpillDir)
		}
		return nil, err
	}
	f.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runtime/register", f.handleRegister)
	mux.HandleFunc("POST /runtime/heartbeat", f.handleHeartbeat)
	f.srv = &http.Server{Handler: mux}
	go f.srv.Serve(ln)
	return f, nil
}

// URL returns the controller's base URL for workers to register at.
func (f *Fleet) URL() string { return "http://" + f.ln.Addr().String() }

// logf reports a fleet event.
func (f *Fleet) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// RegisterWorkerCaps adds a worker by base URL and returns its id. A
// worker that does not announce binary frames, batched dispatch and
// peer shuffle is refused with a *wire.CapsError naming what is
// missing: there is no other data plane to put it on.
func (f *Fleet) RegisterWorkerCaps(url string, caps wire.Caps) (int, error) {
	if err := caps.Check(); err != nil {
		err = fmt.Errorf("procruntime: refused worker at %s: %w", url, err)
		f.logf("%v", err)
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, w := range f.workers {
		if w.url == url {
			// Re-registration (worker restart): reset its standing.
			w.fails, w.black, w.lastSeen = 0, false, time.Now()
			return w.id, nil
		}
	}
	w := &workerState{id: len(f.workers) + 1, url: url, lastSeen: time.Now()}
	f.workers = append(f.workers, w)
	f.logf("procruntime: worker %d registered at %s", w.id, url)
	return w.id, nil
}

// liveWorkers returns the number of live (non-blacklisted, fresh)
// workers.
func (f *Fleet) liveWorkers() int { return len(f.live(0)) }

// alive reports dispatch eligibility; callers hold f.mu.
func (f *Fleet) alive(w *workerState) bool {
	return !w.black && time.Since(w.lastSeen) <= f.cfg.StaleAfter
}

// WaitForWorkers blocks until n workers are live or the timeout
// elapses.
func (f *Fleet) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if f.liveWorkers() >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("procruntime: %d of %d workers registered within %s", f.liveWorkers(), n, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Close drains the fleet: workers are sent a drain request and
// deregistered, the controller listener stops, and an owned spill
// directory is removed.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.done) // dispatch loops fail their tasks, sent or not
	workers := f.workers
	f.workers = nil
	f.mu.Unlock()

	for _, w := range workers {
		req, err := http.NewRequest(http.MethodPost, w.url+"/drain", nil)
		if err != nil {
			continue
		}
		resp, err := f.client.Do(req)
		if err != nil {
			f.logf("procruntime: drain of worker %d (%s) failed: %v", w.id, w.url, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		f.logf("procruntime: worker %d drained", w.id)
	}
	err := f.srv.Close()
	f.sweeps.Wait()
	if f.ownSpill {
		os.RemoveAll(f.cfg.SpillDir)
	}
	return err
}

// readBody reads a request body under wire.MaxBodyBytes, answering
// 413 (oversize) or 400 itself on failure.
func readBody(rw http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := wire.ReadBody(r.Body, r.ContentLength)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *wire.BodyTooLargeError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(rw, "read "+r.URL.Path+" body: "+err.Error(), status)
		return nil, false
	}
	return body, true
}

// decodeJSON reads a control-plane request body into v, answering the
// error itself on failure.
func decodeJSON(rw http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(rw, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(rw, "bad "+r.URL.Path+" payload: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (f *Fleet) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.URL == "" {
		http.Error(w, "bad register payload: no url", http.StatusBadRequest)
		return
	}
	id, err := f.RegisterWorkerCaps(req.URL, req.Caps)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Workers evaluate the TPC-H UDFs with the parameters every
	// controller registers.
	udf, err := json.Marshal(tpch.DefaultUDFParams())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	json.NewEncoder(w).Encode(wire.RegisterResponse{
		ID:              id,
		HeartbeatMillis: int(heartbeat / time.Millisecond),
		UDF:             udf,
	})
}

func (f *Fleet) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req wire.HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	f.mu.Lock()
	ok := req.ID >= 1 && req.ID <= len(f.workers)
	if ok {
		f.workers[req.ID-1].lastSeen = time.Now()
	}
	f.mu.Unlock()
	if !ok {
		// Unknown id (controller restarted): tell the worker to
		// re-register.
		http.Error(w, "unknown worker", http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// mirrorFile mirrors a DFS file's blocks to local disk once (files are
// immutable: Create always makes a new *dfs.File, so pointer identity
// is version identity) and returns the blocks' spans in its one mirror
// file. fs is the file system the file was opened from.
func (f *Fleet) mirrorFile(fs *dfs.FS, file *dfs.File) ([]wire.BlockRef, error) {
	f.mu.Lock()
	m, ok := f.mirrors[file]
	if !ok {
		f.mirrorSeq++
		m = &mirror{fs: fs, name: file.Name(), path: filepath.Join(f.cfg.SpillDir, fmt.Sprintf("f%06d.mir", f.mirrorSeq))}
		f.mirrors[file] = m
	}
	f.mu.Unlock()
	m.once.Do(func() {
		m.blocks, m.err = writeMirror(m.path, file.NumBlocks(), func(i int) []data.Value { return file.Block(i).Records() })
	})
	return m.blocks, m.err
}

// writeMirror creates the mirror file path — exclusively: a mirror is
// written once — and writes the records of blocks 0..n-1 into it, each
// block as its own DYB1 frame, back to back, as each is encoded. It
// returns the frames' spans in block order.
func writeMirror(path string, n int, block func(i int) []data.Value) ([]wire.BlockRef, error) {
	out, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	refs := make([]wire.BlockRef, n)
	var off int64
	for i := range refs {
		frame := wire.EncodeBlock(block(i))
		n, err := out.Write(frame.Bytes())
		frame.Close()
		if err != nil {
			out.Close()
			return nil, err
		}
		refs[i] = wire.BlockRef{File: path, Off: off, Len: int64(n)}
		off += int64(n)
	}
	return refs, out.Close()
}

// sweepMirrors forgets every mirror whose file its file system no
// longer serves under that name (removed, or replaced by a newer
// version), deletes the mirror files in the background and returns
// them: a long-lived fleet holds mirrors for the live file set, not for
// every file it ever read.
func (f *Fleet) sweepMirrors() (paths []string) {
	f.mu.Lock()
	for file, m := range f.mirrors {
		if cur, err := m.fs.Open(m.name); err != nil || cur != file {
			delete(f.mirrors, file)
			paths = append(paths, m.path)
		}
	}
	f.mu.Unlock()
	if len(paths) > 0 {
		f.sweeps.Add(1)
		go func() {
			defer f.sweeps.Done()
			for _, path := range paths {
				os.Remove(path)
			}
		}()
	}
	return paths
}

// live returns the live workers in round-robin order — starting after
// the last turn taken — and takes n turns, so picks and waves spread
// over the fleet instead of piling on its first worker.
func (f *Fleet) live(n int) []*workerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	live := make([]*workerState, 0, len(f.workers))
	for i := range f.workers {
		if w := f.workers[(f.rr+1+i)%len(f.workers)]; f.alive(w) {
			live = append(live, w)
		}
	}
	f.rr += n
	return live
}

// pickWorker returns the next live worker not in tried; callers get nil
// when none remain.
func (f *Fleet) pickWorker(tried []*workerState) *workerState {
	for _, w := range f.live(1) {
		if !slices.Contains(tried, w) {
			return w
		}
	}
	return nil
}

func (f *Fleet) noteSuccess(w *workerState, kind string, d time.Duration) {
	f.mu.Lock()
	w.fails = 0
	f.mu.Unlock()
	f.durMu.Lock()
	r := f.durations[kind]
	if r == nil {
		r = &durRing{}
		f.durations[kind] = r
	}
	r.buf[r.n%hedgeWindow] = d.Seconds()
	r.n++
	f.durMu.Unlock()
}

func (f *Fleet) noteFailure(w *workerState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w.fails++
	if w.fails >= blacklistAfter && !w.black {
		w.black = true
		f.logf("procruntime: worker %d (%s) blacklisted after %d consecutive failures", w.id, w.url, w.fails)
	}
}

// hedgeDelay is the straggler threshold for a task kind: a multiple of
// the median of its recent completed durations, floored at HedgeMin.
func (f *Fleet) hedgeDelay(kind string) time.Duration {
	var recent [hedgeWindow]float64
	n := 0
	f.durMu.Lock()
	if r := f.durations[kind]; r != nil {
		n = min(r.n, hedgeWindow)
		recent = r.buf
	}
	f.durMu.Unlock()
	if n == 0 {
		return f.cfg.HedgeMin
	}
	ds := recent[:n]
	slices.Sort(ds)
	return max(time.Duration(hedgeFactor*ds[n/2]*float64(time.Second)), f.cfg.HedgeMin)
}

// taskFailedError is a deterministic task failure: the worker ran the
// operator and it returned an error (no retry — it would fail
// identically elsewhere). The executor inspects it to distinguish
// recoverable peer-fetch failures from genuine operator errors.
type taskFailedError struct {
	task   string
	worker string
	msg    string
}

func (e *taskFailedError) Error() string {
	return fmt.Sprintf("procruntime: task %s failed on worker %s: %s", e.task, e.worker, e.msg)
}

// nextShuffleID allocates a fleet-global shuffle id and records it
// against the producing job for retirement GC. IDs stay unique across
// the runtimes sharing the fleet via the global sequence; hedged
// attempts of one task intentionally share the id (the output is
// deterministic), and the GC broadcast reclaims the loser's orphan.
func (f *Fleet) nextShuffleID(jobName, taskName string) string {
	id := taskName + "#" + strconv.FormatInt(f.shufSeq.Add(1), 10)
	f.shufMu.Lock()
	f.jobShuffles[jobName] = append(f.jobShuffles[jobName], id)
	f.shufMu.Unlock()
	return id
}

// RetireJob reclaims what the fleet held for a finished job: mirrors of
// files that no longer exist are dropped, and a GC request for the
// job's retained map outputs and those mirrors' cached blocks goes to
// every registered worker (every worker, not just known producers:
// hedged losers may hold orphan copies the controller never saw win).
// Fire-and-forget — a missed GC only costs cache space the worker's own
// byte bounds reclaim.
func (f *Fleet) RetireJob(jobName string) {
	files := f.sweepMirrors()
	f.shufMu.Lock()
	ids := f.jobShuffles[jobName]
	delete(f.jobShuffles, jobName)
	f.shufMu.Unlock()
	if len(ids) == 0 && len(files) == 0 {
		return
	}
	payload, err := json.Marshal(wire.ShuffleGCRequest{IDs: ids, Files: files})
	if err != nil {
		return
	}
	f.mu.Lock()
	urls := make([]string, 0, len(f.workers))
	for _, w := range f.workers {
		urls = append(urls, w.url)
	}
	f.mu.Unlock()
	for _, u := range urls {
		go func(u string) {
			req, err := http.NewRequest(http.MethodPost, u+"/shuffle/gc", bytes.NewReader(payload))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := f.client.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(u)
	}
}

// countShuffle adds one successful attempt's worker-to-worker shuffle
// traffic to the counters.
func (f *Fleet) countShuffle(res *wire.TaskResult) {
	if res.PeerBytes != 0 {
		f.statPeerShufB.Add(res.PeerBytes)
	}
	if res.PeerFetches != 0 {
		f.statPeerFetch.Add(int64(res.PeerFetches))
	}
}

var errFleetClosed = errors.New("procruntime: fleet closed with tasks in dispatch")

// dispatch runs a task to completion across the fleet: retry on
// transport failures (distinct workers), hedge on stragglers, fail
// fast on deterministic operator errors (retrying those elsewhere
// would fail identically and mask bugs). The first attempt rides wv's
// frame when wv is open (see wave); every other attempt, and every
// dispatch outside a wave, is its own frame, sent at once. Tasks
// sharing a frame still retry, hedge, and fail independently.
func (f *Fleet) dispatch(task *wire.Task, wv *wave) (*wire.TaskResult, error) {
	results := make(chan attempt, maxAttempts+1)
	var tried []*workerState
	launch := func() bool {
		w := f.pickWorker(tried)
		if w == nil {
			return false
		}
		tried = append(tried, w)
		go f.flush(w, []*wire.Task{task}, []chan<- attempt{results})
		return true
	}
	if w := wv.join(task, results); w != nil {
		tried = append(tried, w)
		// The attempt starts when the wave is sent; time spent at the
		// barrier is not straggling.
		select {
		case <-wv.sent:
		case <-f.done:
			return nil, errFleetClosed
		}
	} else if !launch() {
		return nil, fmt.Errorf("procruntime: no live workers for task %s", task.Task)
	}
	attempts, inflight := 1, 1
	hedged := false
	hedge := time.NewTimer(f.hedgeDelay(task.Kind))
	defer hedge.Stop()
	var lastErr error
	for {
		select {
		case a := <-results:
			inflight--
			if a.err == nil && a.res.Err == "" {
				a.res.Worker = a.w.url
				f.countShuffle(a.res)
				f.noteSuccess(a.w, task.Kind, a.elapsed)
				return a.res, nil
			}
			if a.err == nil {
				return nil, &taskFailedError{task: task.Task, worker: a.w.url, msg: a.res.Err}
			}
			lastErr = a.err
			f.logf("procruntime: task %s attempt on worker %d failed: %v", task.Task, a.w.id, a.err)
			if attempts < maxAttempts && launch() {
				attempts++
				inflight++
			} else if inflight == 0 {
				return nil, fmt.Errorf("procruntime: task %s failed after %d attempts: %w", task.Task, attempts, lastErr)
			}
		case <-hedge.C:
			if !hedged && attempts < maxAttempts && launch() {
				hedged = true
				attempts++
				inflight++
				f.logf("procruntime: task %s hedged after straggler threshold", task.Task)
			}
		case <-f.done:
			return nil, errFleetClosed
		}
	}
}
