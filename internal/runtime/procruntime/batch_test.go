package procruntime

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyno/internal/runtime/wire"
)

// fullCaps is what cmd/dynoworker announces.
var fullCaps = wire.Caps{Codecs: []string{wire.CodecBinary, wire.CodecJSON}, Batch: true, PeerShuffle: true}

// batchStub is the stub worker every dispatch test uses: it serves
// /tasks in binary frames, delegating per-task results to fn (called
// with each decoded task); rpcs counts the RPCs seen. A nil result
// from fn fails the whole RPC with HTTP 500 — a transport-level
// failure, as opposed to a TaskResult.Err operator failure.
type batchStub struct {
	srv  *httptest.Server
	rpcs atomic.Int32
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

// okStub answers every task with an empty success.
func okStub(t *testing.T) *batchStub {
	return newBatchStub(t, func(*wire.Task) *wire.TaskResult { return &wire.TaskResult{} })
}

// failStub fails every RPC in transport.
func failStub(t *testing.T) *batchStub {
	return newBatchStub(t, func(*wire.Task) *wire.TaskResult { return nil })
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

// dispatchWave fires n concurrent dispatches (the shape the sim's wave
// pool produces) and returns the results and errors by task index.
func dispatchWave(f *Fleet, n int, mk func(i int) *wire.Task) ([]*wire.TaskResult, []error) {
	results := make([]*wire.TaskResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f.dispatch(mk(i))
		}(i)
	}
	wg.Wait()
	return results, errs
}

// TestBatchedDispatchCoalesces: a wave of concurrent dispatches to one
// worker conflates into far fewer RPCs than tasks, and the wire
// counters see every task exactly once.
func TestBatchedDispatchCoalesces(t *testing.T) {
	const n = 16
	stub := newBatchStub(t, func(task *wire.Task) *wire.TaskResult {
		time.Sleep(5 * time.Millisecond) // give later arrivals time to queue
		return &wire.TaskResult{CPUSeconds: 1}
	})
	f := newBareFleet(t, Config{BatchLinger: 20 * time.Millisecond})
	register(t, f, stub.srv.URL)

	_, errs := dispatchWave(f, n, func(i int) *wire.Task {
		return &wire.Task{Task: "t-m" + string(rune('0'+i%10)), Kind: "map"}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	st := f.WireStats()
	if st.Tasks != n {
		t.Fatalf("WireStats.Tasks = %d, want %d", st.Tasks, n)
	}
	if st.RPCs != int64(stub.rpcs.Load()) {
		t.Fatalf("WireStats.RPCs = %d but stub saw %d", st.RPCs, stub.rpcs.Load())
	}
	if st.RPCs >= n/2 {
		t.Fatalf("16 concurrent tasks took %d RPCs: batching is not conflating", st.RPCs)
	}
	if st.BytesOut <= 0 || st.BytesIn <= 0 {
		t.Fatalf("byte counters not populated: %+v", st)
	}
}

// TestBatcherPriorityLane: the acceptance property for the second
// dispatch lane — an urgent task (how dispatch marks retries and
// hedges) enqueued while a full wave batch sits queued behind an
// in-flight RPC is sent ahead of every queued regular task.
func TestBatcherPriorityLane(t *testing.T) {
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	stub := newBatchStub(t, func(task *wire.Task) *wire.TaskResult {
		mu.Lock()
		order = append(order, task.Task)
		mu.Unlock()
		if task.Task == "t1" {
			<-release // hold the first RPC so later tasks queue behind it
		}
		return &wire.TaskResult{CPUSeconds: 1}
	})
	// MaxBatch 1 gives a total order over sends; linger disabled so the
	// sender grabs t1 immediately.
	f := newBareFleet(t, Config{MaxBatch: 1, BatchLinger: -1})
	id := register(t, f, stub.srv.URL)
	f.mu.Lock()
	b := f.workers[id].batcher
	f.mu.Unlock()

	var wg sync.WaitGroup
	enqueue := func(name string, urgent bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.do(&wire.Task{Task: name, Kind: "map"}, urgent); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}

	enqueue("t1", false)
	waitFor("t1 in flight", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 1
	})
	// A wave queues behind the blocked RPC, in order.
	for i, name := range []string{"t2", "t3", "t4"} {
		enqueue(name, false)
		n := i + 1
		waitFor(name+" queued", func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return len(b.queue) == n
		})
	}
	// The hedge arrives last but must be sent next.
	enqueue("t5", true)
	waitFor("t5 on the priority lane", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.prio) == 1
	})
	close(release)
	wg.Wait()

	want := []string{"t1", "t5", "t2", "t3", "t4"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("sent %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("send order %v, want %v (urgent task must preempt the queued wave)", order, want)
		}
	}
}
