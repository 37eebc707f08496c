package procruntime

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
)

// fullCaps is what cmd/dynoworker announces.
var fullCaps = wire.Caps{Codecs: []string{wire.CodecBinary, wire.CodecJSON}, Batch: true, PeerShuffle: true}

// batchStub is the stub worker every dispatch test uses: it serves
// /tasks in binary frames, delegating per-task results to fn (called
// with each decoded task); rpcs counts the RPCs seen and frameSizes
// records how many tasks each carried. A nil result from fn fails the
// whole RPC with HTTP 500 — a transport-level failure, as opposed to a
// TaskResult.Err operator failure.
type batchStub struct {
	srv  *httptest.Server
	rpcs atomic.Int32

	mu     sync.Mutex
	frames []int
}

func newBatchStub(t *testing.T, fn func(task *wire.Task) *wire.TaskResult) *batchStub {
	t.Helper()
	s := &batchStub{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tasks", func(w http.ResponseWriter, r *http.Request) {
		s.rpcs.Add(1)
		body, err := wire.ReadBody(r.Body, r.ContentLength)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tasks, err := wire.DecodeTaskBatch(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.frames = append(s.frames, len(tasks))
		s.mu.Unlock()
		results := make([]*wire.TaskResult, len(tasks))
		for i, task := range tasks {
			if results[i] = fn(task); results[i] == nil {
				http.Error(w, "synthetic transport failure", http.StatusInternalServerError)
				return
			}
		}
		frame := wire.EncodeResultBatch(results)
		defer frame.Close()
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.Write(frame.Bytes())
	})
	// Fleet.Close drains workers; accept it quietly.
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// frameSizes returns the task count of every RPC seen, ascending.
func (s *batchStub) frameSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Clone(s.frames)
	slices.Sort(out)
	return out
}

// okStub answers every task with an empty success.
func okStub(t *testing.T) *batchStub {
	return newBatchStub(t, func(*wire.Task) *wire.TaskResult { return &wire.TaskResult{} })
}

// failStub fails every RPC in transport.
func failStub(t *testing.T) *batchStub {
	return newBatchStub(t, func(*wire.Task) *wire.TaskResult { return nil })
}

// echoStub answers each task with its Partition as CPU, so a
// result landing on the wrong task shows.
func echoStub(t *testing.T) *batchStub {
	return newBatchStub(t, func(task *wire.Task) *wire.TaskResult {
		return &wire.TaskResult{CPU: float64(task.Partition)}
	})
}

// register adds a fully capable worker and returns its id.
func register(t *testing.T, f *Fleet, url string) int {
	t.Helper()
	id, err := f.RegisterWorkerCaps(url, fullCaps)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// runWave runs closures as one dispatch wave, the way a Runtime's
// simulator does; each closure dispatches through the function it is
// handed.
func runWave(f *Fleet, closures []func(dispatch func(*wire.Task) (*wire.TaskResult, error))) {
	r := &waveRunner{f: f}
	dispatch := func(task *wire.Task) (*wire.TaskResult, error) { return f.dispatch(task, r.cur.Load()) }
	run := make([]func(), len(closures))
	for i, fn := range closures {
		run[i] = func() { fn(dispatch) }
	}
	r.run(run)
}

// dispatchWave runs a wave of n closures that each dispatch one task
// and returns the results and errors by task index.
func dispatchWave(f *Fleet, n int, mk func(i int) *wire.Task) ([]*wire.TaskResult, []error) {
	results := make([]*wire.TaskResult, n)
	errs := make([]error, n)
	closures := make([]func(func(*wire.Task) (*wire.TaskResult, error)), n)
	for i := range closures {
		closures[i] = func(dispatch func(*wire.Task) (*wire.TaskResult, error)) {
			results[i], errs[i] = dispatch(mk(i))
		}
	}
	runWave(f, closures)
	return results, errs
}

func mapTask(i int) *wire.Task {
	return &wire.Task{Task: fmt.Sprintf("t-m%d", i), Kind: "map", Partition: i}
}

// TestWaveOneFramePerWorker: a wave of N tasks over W live workers is
// exactly min(N, W) RPCs — no timer, no second frame — dealt
// round-robin, the wire counters see every task once, and each result
// lands on the task it answers.
func TestWaveOneFramePerWorker(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{1, 1}, {1, 3}, {2, 3}, {3, 3}, {7, 2}, {64, 3}} {
		t.Run(fmt.Sprintf("n%d_w%d", tc.n, tc.w), func(t *testing.T) {
			f := newBareFleet(t, Config{})
			stubs := make([]*batchStub, tc.w)
			for i := range stubs {
				stubs[i] = echoStub(t)
				register(t, f, stubs[i].srv.URL)
			}
			results, errs := dispatchWave(f, tc.n, mapTask)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("task %d: %v", i, err)
				}
				if results[i].CPU != float64(i) {
					t.Fatalf("task %d got task %v's result", i, results[i].CPU)
				}
			}
			st := f.WireStats()
			if want := int64(min(tc.n, tc.w)); st.RPCs != want || st.Tasks != int64(tc.n) {
				t.Fatalf("RPCs = %d, Tasks = %d; want %d and %d", st.RPCs, st.Tasks, want, tc.n)
			}
			if st.BytesOut <= 0 || st.BytesIn <= 0 {
				t.Fatalf("byte counters not populated: %+v", st)
			}
			for i, s := range stubs {
				sizes := s.frameSizes()
				if len(sizes) > 1 {
					t.Fatalf("worker %d received %d frames for one wave", i, len(sizes))
				}
				if len(sizes) == 1 && sizes[0] != tc.n/tc.w && sizes[0] != (tc.n+tc.w-1)/tc.w {
					t.Fatalf("worker %d's frame carried %d of %d tasks over %d workers: not round-robin", i, sizes[0], tc.n, tc.w)
				}
			}
		})
	}
}

// TestSuccessiveWavesRotateWorkers: the round-robin carries over from
// wave to wave, so a run of single-task waves spreads over the fleet.
func TestSuccessiveWavesRotateWorkers(t *testing.T) {
	f := newBareFleet(t, Config{})
	stubs := []*batchStub{okStub(t), okStub(t), okStub(t)}
	for _, s := range stubs {
		register(t, f, s.srv.URL)
	}
	for i := 0; i < 6; i++ {
		if _, errs := dispatchWave(f, 1, mapTask); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	for i, s := range stubs {
		if got := s.rpcs.Load(); got != 2 {
			t.Errorf("worker %d served %d of 6 single-task waves, want 2", i, got)
		}
	}
}

// newBlockWorker starts a real worker over reg and writes n blocks,
// block i holding i+1 records {v: i}: a scan of block i that keeps every
// record answers with positions 0..i, so answers tell their tasks apart.
// It returns the worker's URL and the blocks' spans in one mirror file.
func newBlockWorker(t *testing.T, reg *expr.Registry, n int) (*Worker, string, []wire.BlockRef) {
	t.Helper()
	w := NewWorker(reg)
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	blocks := make([][]data.Value, n)
	for i := range blocks {
		blocks[i] = make([]data.Value, i+1)
		for r := range blocks[i] {
			blocks[i][r] = data.Object(data.Field{Name: "v", Value: data.Int(int64(i))})
		}
	}
	return w, ts.URL, mirrorBlocks(t, blocks...)
}

// scanTask scans one block through the UDF predicate name(t.v).
func scanTask(i int, block wire.BlockRef, udf string) *wire.Task {
	return &wire.Task{Task: fmt.Sprintf("t-m%d", i), Kind: "map", Block: block, Op: &physop.OpSpec{
		Kind:   physop.Scan,
		Source: &physop.Source{Wrap: "t", Filter: &expr.Call{Name: udf, Args: []expr.Expr{expr.NewCol("t.v")}}},
	}}
}

// TestWaveSlotFailuresStayInTheirSlot: real workers, one wave. An
// operator error (a block that does not exist) and an operator panic
// each fail their own task — unretried, the worker's standing untouched
// — while every frame-mate completes with its own rows.
func TestWaveSlotFailuresStayInTheirSlot(t *testing.T) {
	reg := expr.NewRegistry()
	reg.Register(expr.UDF{Name: "boom", Fn: func(args []data.Value) data.Value {
		if args[0].Int() == 3 {
			panic("boom on 3")
		}
		return data.Bool(true)
	}})
	f := newBareFleet(t, Config{})
	_, url, blocks := newBlockWorker(t, reg, 6)
	register(t, f, url)
	_, url2, _ := newBlockWorker(t, reg, 0)
	register(t, f, url2)

	results, errs := dispatchWave(f, 6, func(i int) *wire.Task {
		if i == 1 {
			missing := blocks[i]
			missing.File += ".missing"
			return scanTask(i, missing, "boom")
		}
		return scanTask(i, blocks[i], "boom")
	})
	for i := range errs {
		switch i {
		case 1:
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "open block") {
				t.Errorf("task 1 error = %v, want the missing-block operator error", errs[i])
			}
		case 3:
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "panicked: boom on 3") {
				t.Errorf("task 3 error = %v, want the recovered panic", errs[i])
			}
		default:
			if errs[i] != nil {
				t.Errorf("task %d failed alongside a bad frame-mate: %v", i, errs[i])
			} else if len(results[i].Rows) != 0 || !slices.Equal(results[i].Sel, positions(i+1)) {
				t.Errorf("task %d answered positions %v and rows %v, want its own block's %d positions", i, results[i].Sel, results[i].Rows, i+1)
			}
		}
	}
	if st := f.WireStats(); st.RPCs != 2 || st.Tasks != 6 {
		t.Errorf("RPCs = %d, Tasks = %d; want 2 and 6 (operator failures are never retried)", st.RPCs, st.Tasks)
	}
	if got := f.Workers(); got != 2 {
		t.Errorf("live workers = %d after operator failures, want 2", got)
	}
}

// waveJob is a cluster job of independent map tasks.
type waveJob struct{ tasks []*cluster.Task }

func (j *waveJob) Name() string                                                { return "wavejob" }
func (j *waveJob) Start(*cluster.Submission) []*cluster.Task                   { return j.tasks }
func (j *waveJob) TaskDone(*cluster.Submission, *cluster.Task) []*cluster.Task { return nil }

// TestWaveWithEarlyReturnsAndInjectedFailures: through the real seam
// (simulator → wave runner → executor → fleet), a wave in which some
// closures return before dispatching anything and some attempts are
// failure-injected (so their closures never run) still fires its
// barrier and completes.
func TestWaveWithEarlyReturnsAndInjectedFailures(t *testing.T) {
	f := newBareFleet(t, Config{})
	stubs := []*batchStub{okStub(t), okStub(t)}
	for _, s := range stubs {
		register(t, f, s.srv.URL)
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Workers, ccfg.MapSlotsPerWorker = 2, 4 // one wave of 8
	ccfg.Parallelism = 2
	ccfg.FailEveryN = 3 // first attempts 3 and 6 (tasks 2 and 5) are injected
	rt := New(f, ccfg)
	ex := rt.NewEnv(expr.NewRegistry()).Exec
	file := rt.FS().Create("in")
	file.Append(data.Object(data.Field{Name: "v", Value: data.Int(1)}))
	in := file.Close()

	var dispatched, early atomic.Int32
	job := &waveJob{}
	for i := 0; i < 8; i++ {
		job.tasks = append(job.tasks, &cluster.Task{Kind: cluster.MapTask, Name: fmt.Sprintf("m%d", i),
			Run: func(cluster.TaskContext) (cluster.Usage, error) {
				m := mapreduce.MapExec{JobName: "wavejob", TaskName: fmt.Sprintf("wavejob-m%d", i), File: in, Op: &physop.OpSpec{Kind: physop.Scan}}
				if i == 1 || i == 4 {
					// A missing remote op fails in the executor, before any
					// dispatch — the same shape as a broadcast build over
					// slot memory.
					m.Op = nil
					if _, err := ex.ExecMap(m); err == nil {
						return cluster.Usage{}, fmt.Errorf("op-less map was dispatched")
					}
					early.Add(1)
					return cluster.Usage{}, nil
				}
				_, err := ex.ExecMap(m)
				dispatched.Add(1)
				return cluster.Usage{}, err
			}})
	}
	rt.Sim().Submit(job)
	done := make(chan error, 1)
	go func() { done <- rt.Sim().Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("wave hung: the barrier waited on a closure that never dispatches")
	}
	if dispatched.Load() != 6 || early.Load() != 2 {
		t.Fatalf("%d closures dispatched and %d returned early, want 6 and 2", dispatched.Load(), early.Load())
	}
	// Wave 1 launches 8 attempts: 2 injected (no closure), 2 early
	// returns, 4 dispatches over 2 workers = 2 RPCs. The two injected
	// attempts retry after the failure penalty, one event — so one
	// single-task wave — each: 2 more RPCs.
	if st := f.WireStats(); st.Tasks != 6 || st.RPCs != 4 {
		t.Errorf("Tasks = %d, RPCs = %d; want 6 and 4", st.Tasks, st.RPCs)
	}
}

// TestCloseFailsPendingWave: a wave still waiting on a closure when the
// fleet closes fails its tasks — nobody is stranded at the barrier, and
// nothing is sent to the drained workers.
func TestCloseFailsPendingWave(t *testing.T) {
	f := newBareFleet(t, Config{})
	stub := okStub(t)
	register(t, f, stub.srv.URL)
	r := &waveRunner{f: f}
	gate := make(chan struct{})
	errs := make([]error, 3)
	closures := make([]func(), 3)
	for i := range closures {
		closures[i] = func() {
			if i == 2 {
				<-gate
			}
			_, errs[i] = f.dispatch(mapTask(i), r.cur.Load())
		}
	}
	ran := make(chan struct{})
	go func() {
		r.run(closures)
		close(ran)
	}()
	waitFor(t, "two tasks at the barrier", func() bool {
		wv := r.cur.Load()
		if wv == nil {
			return false
		}
		wv.mu.Lock()
		defer wv.mu.Unlock()
		return wv.pending == 1
	})
	f.Close()
	close(gate)
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("closing the fleet stranded a pending wave")
	}
	for i, err := range errs[:2] {
		if err == nil || !strings.Contains(err.Error(), "fleet closed") {
			t.Errorf("task %d error = %v, want fleet-closed", i, err)
		}
	}
	if errs[2] == nil {
		t.Error("a task dispatched into the closed fleet's wave succeeded")
	}
	if got := stub.rpcs.Load(); got != 0 {
		t.Errorf("%d task RPCs went out after Close", got)
	}
}

func waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHedgeLeavesWhileWaveFrameInFlight: a wave's frame to one worker
// stalls. Each task on it is hedged — its own single-task frame to the
// other worker, sent at once — and completes while the straggling
// frame is still in flight; nothing queues behind anything.
func TestHedgeLeavesWhileWaveFrameInFlight(t *testing.T) {
	release := make(chan struct{})
	slow := newBatchStub(t, func(*wire.Task) *wire.TaskResult {
		<-release
		return &wire.TaskResult{CPU: -1}
	})
	fast := echoStub(t)
	// The straggler is held until the test ends (released before the
	// stubs close), so a wave that completes completed around it.
	t.Cleanup(func() { close(release) })
	f := newBareFleet(t, Config{HedgeMin: 30 * time.Millisecond})
	register(t, f, slow.srv.URL)
	register(t, f, fast.srv.URL)

	results, errs := dispatchWave(f, 4, mapTask)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if results[i].CPU != float64(i) {
			t.Fatalf("task %d result %v: want the fast worker's answer", i, results[i].CPU)
		}
	}
	if got := slow.frameSizes(); !slices.Equal(got, []int{2}) {
		t.Errorf("slow worker frames %v, want its one wave frame of 2", got)
	}
	if got := fast.frameSizes(); !slices.Equal(got, []int{1, 1, 2}) {
		t.Errorf("fast worker frames %v, want its wave frame of 2 and two single-task hedges", got)
	}
}

// TestWorkerRunsFrameConcurrently: handleTaskBatch runs a frame's tasks
// side by side — two tasks that each wait for the other inside a UDF
// both finish — and answers in request order whatever order they
// finished in.
func TestWorkerRunsFrameConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	var arrived atomic.Int32
	met := make(chan struct{})
	reg := expr.NewRegistry()
	reg.Register(expr.UDF{Name: "meet", Fn: func(args []data.Value) data.Value {
		if arrived.Add(1) == 2 {
			close(met)
		}
		select {
		case <-met:
			return data.Bool(true)
		case <-time.After(10 * time.Second):
			return data.Bool(false)
		}
	}})
	_, url, blocks := newBlockWorker(t, reg, 4)
	tasks := make([]*wire.Task, len(blocks))
	for i := range tasks {
		tasks[i] = scanTask(i, blocks[i], "meet")
	}
	frame, err := wire.EncodeTaskBatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	defer frame.Close()
	resp, err := http.Post(url+"/tasks", wire.ContentTypeBinary, bytes.NewReader(frame.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := wire.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		t.Fatal(err)
	}
	results, err := wire.DecodeResultBatch(body)
	if err != nil || len(results) != len(tasks) {
		t.Fatalf("decoded %d results, err %v", len(results), err)
	}
	for i, res := range results {
		if res.Err != "" {
			t.Fatalf("task %d: %s", i, res.Err)
		}
		if len(res.Rows) != 0 || !slices.Equal(res.Sel, positions(i+1)) {
			t.Fatalf("slot %d holds positions %v: the rendezvous timed out (tasks ran one after another) or results are out of request order", i, res.Sel)
		}
	}
}
