package procruntime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
)

// These tests exercise the dispatch engine directly with stub HTTP
// workers (wave_test.go's batchStub): retry on transport failure (on
// distinct workers), fail-fast on deterministic operator errors,
// blacklisting after consecutive failed RPCs, staleness, the straggler
// hedge, and the registration capability check.

// newBareFleet builds a fleet with test-friendly defaults: no
// heartbeat staleness, hedge effectively off unless a test opts in.
func newBareFleet(t testing.TB, cfg Config) *Fleet {
	t.Helper()
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = time.Hour
	}
	if cfg.HedgeMin == 0 {
		cfg.HedgeMin = time.Hour
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestDispatchRetriesOnDistinctWorkers: transport failures are
// retried, each attempt on a worker not yet tried for this task, and a
// failed RPC is one strike against its worker however many tasks it
// carried.
func TestDispatchRetriesOnDistinctWorkers(t *testing.T) {
	// Registration order pins the round-robin: with ids {1,2,3} the
	// first pick is id 2, so the good worker (registered first, id 1)
	// is reached only after both bad workers fail once each.
	t.Run("single", func(t *testing.T) {
		f := newBareFleet(t, Config{})
		good := newBatchStub(t, func(*wire.Task) *wire.TaskResult { return &wire.TaskResult{CPU: 1} })
		bad1, bad2 := failStub(t), failStub(t)
		register(t, f, good.srv.URL)
		register(t, f, bad1.srv.URL)
		register(t, f, bad2.srv.URL)

		res, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"}, nil)
		if err != nil {
			t.Fatalf("dispatch: %v", err)
		}
		if res.CPU != 1 {
			t.Fatalf("got result %+v, want the good worker's", res)
		}
		if got := good.rpcs.Load(); got != 1 {
			t.Errorf("good worker hit %d times, want 1", got)
		}
		// Retries land on distinct workers, never re-posting to one that
		// already failed.
		if a, b := bad1.rpcs.Load(), bad2.rpcs.Load(); a != 1 || b != 1 {
			t.Errorf("bad workers hit %d and %d times, want once each", a, b)
		}
	})

	// blacklistAfter is the tripwire: a 6-task wave splits 3/3 across
	// the workers, so per-item failure counting would blacklist the bad
	// worker from its single lost RPC; per-RPC counting must not. Each
	// task the lost frame carried retries on the other worker as its own
	// frame, at once — there is no later wave for it to ride.
	t.Run("wave", func(t *testing.T) {
		good := newBatchStub(t, func(*wire.Task) *wire.TaskResult { return &wire.TaskResult{CPU: 1} })
		bad := failStub(t)
		f := newBareFleet(t, Config{})
		register(t, f, good.srv.URL)
		register(t, f, bad.srv.URL)

		results, errs := dispatchWave(f, 2*blacklistAfter, func(i int) *wire.Task {
			return &wire.Task{Task: "t-m" + string(rune('0'+i)), Kind: "map"}
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("task %d: %v (should have retried on the good worker)", i, err)
			}
			if results[i].CPU != 1 {
				t.Fatalf("task %d result %+v", i, results[i])
			}
		}
		if got := bad.frameSizes(); !slices.Equal(got, []int{3}) {
			t.Fatalf("bad worker frames %v, want its one wave frame of 3", got)
		}
		if got := good.frameSizes(); !slices.Equal(got, []int{1, 1, 1, 3}) {
			t.Fatalf("good worker frames %v, want its wave frame of 3 and three single-task retries", got)
		}
		if got := f.Workers(); got != 2 {
			t.Fatalf("live workers = %d, want 2: one failed batch RPC must count as one failure, not one per task", got)
		}
	})
}

// TestDispatchExhaustsAttempts: when every attempt fails in
// transport, dispatch reports the failure after maxAttempts.
func TestDispatchExhaustsAttempts(t *testing.T) {
	f := newBareFleet(t, Config{})
	stubs := []*batchStub{failStub(t), failStub(t), failStub(t), failStub(t)}
	for _, s := range stubs {
		register(t, f, s.srv.URL)
	}

	_, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"}, nil)
	if err == nil {
		t.Fatal("dispatch succeeded with only failing workers")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("after %d attempts", maxAttempts)) {
		t.Fatalf("error = %v, want attempt-exhaustion", err)
	}
	var hits int32
	for _, s := range stubs {
		hits += s.rpcs.Load()
	}
	if hits != maxAttempts {
		t.Errorf("workers hit %d times, want maxAttempts=%d", hits, maxAttempts)
	}
}

// TestDispatchFailFastOnOperatorError: a task answered with
// TaskResult.Err is a deterministic operator failure — retrying it
// elsewhere would fail identically, so dispatch must not. Only that
// task fails: its batchmates complete and the worker's standing is
// untouched.
func TestDispatchFailFastOnOperatorError(t *testing.T) {
	var badRuns atomic.Int32
	fn := func(task *wire.Task) *wire.TaskResult {
		if task.Task == "bad" {
			badRuns.Add(1)
			return &wire.TaskResult{Err: "unknown function frob"}
		}
		time.Sleep(5 * time.Millisecond)
		return &wire.TaskResult{CPU: 1}
	}
	f := newBareFleet(t, Config{})
	register(t, f, newBatchStub(t, fn).srv.URL)
	register(t, f, newBatchStub(t, fn).srv.URL)

	names := []string{"a", "bad", "c", "d"}
	results, errs := dispatchWave(f, len(names), func(i int) *wire.Task {
		return &wire.Task{Task: names[i], Kind: "map"}
	})
	for i, name := range names {
		if name == "bad" {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "unknown function frob") {
				t.Fatalf("bad task error = %v, want the operator error surfaced", errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("task %s failed alongside its bad batchmate: %v", name, errs[i])
		}
		if results[i].CPU != 1 {
			t.Fatalf("task %s result %+v", name, results[i])
		}
	}
	if got := badRuns.Load(); got != 1 {
		t.Errorf("operator error ran %d times, want 1 (no retry on another worker)", got)
	}
	// Deterministic errors are the task's fault, not the worker's.
	if got := f.Workers(); got != 2 {
		t.Errorf("live workers = %d after operator error, want 2", got)
	}
}

// TestDispatchBlacklist: a worker failing blacklistAfter consecutive
// dispatches leaves the rotation; with nobody left, dispatch reports
// no live workers instead of spinning. A lone worker takes one attempt
// per dispatch: a retry goes to a worker not yet tried.
func TestDispatchBlacklist(t *testing.T) {
	f := newBareFleet(t, Config{})
	bad := failStub(t)
	register(t, f, bad.srv.URL)

	for i := 0; i < blacklistAfter; i++ {
		if _, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"}, nil); err == nil {
			t.Fatalf("dispatch %d succeeded against a failing worker", i)
		}
	}
	if got := f.Workers(); got != 0 {
		t.Fatalf("live workers = %d after 3 consecutive failures, want 0 (blacklisted)", got)
	}
	_, err := f.dispatch(&wire.Task{Task: "t-m1", Kind: "map"}, nil)
	if err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("error = %v, want no-live-workers", err)
	}

	// Re-registration (worker restart) restores its standing.
	register(t, f, bad.srv.URL)
	if got := f.Workers(); got != 1 {
		t.Fatalf("live workers = %d after re-registration, want 1", got)
	}
}

// TestDispatchSuccessResetsFailures: failures must be consecutive to
// blacklist; a success in between clears the count.
func TestDispatchSuccessResetsFailures(t *testing.T) {
	f := newBareFleet(t, Config{})
	var n atomic.Int32
	flaky := newBatchStub(t, func(*wire.Task) *wire.TaskResult {
		// Fail blacklistAfter-1 times, succeed, ...: never blacklistAfter
		// in a row, though most dispatches fail.
		if n.Add(1)%blacklistAfter != 0 {
			return nil
		}
		return &wire.TaskResult{}
	})
	register(t, f, flaky.srv.URL)

	for i := 0; i < 3*blacklistAfter; i++ {
		f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"}, nil)
	}
	if got := f.Workers(); got != 1 {
		t.Fatalf("live workers = %d, want 1 (failures broken by a success never blacklist)", got)
	}
}

// TestDispatchHedgesStragglers: once an attempt exceeds the hedge
// threshold, a speculative duplicate runs on another worker and the
// first answer wins — the dispatcher does not wait out the straggler
// stuck inside its batched RPC.
func TestDispatchHedgesStragglers(t *testing.T) {
	f := newBareFleet(t, Config{HedgeMin: 50 * time.Millisecond})
	var order atomic.Int32
	fn := func(*wire.Task) *wire.TaskResult {
		// The first task to arrive anywhere is the straggler.
		seq := order.Add(1)
		if seq == 1 {
			time.Sleep(1 * time.Second)
		}
		return &wire.TaskResult{CPU: float64(seq)}
	}
	register(t, f, newBatchStub(t, fn).srv.URL)
	register(t, f, newBatchStub(t, fn).srv.URL)

	start := time.Now()
	res, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"}, nil)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if res.CPU != 2 {
		t.Fatalf("winning result %+v, want the hedged attempt's (seq 2)", res)
	}
	if d := time.Since(start); d > 800*time.Millisecond {
		t.Fatalf("dispatch took %v: waited out the straggler instead of hedging", d)
	}
}

// TestHedgeHistoryIsBounded: the straggler threshold is the median of
// the last hedgeWindow completions — a long-lived fleet neither keeps
// nor re-sorts its whole history on every dispatch.
func TestHedgeHistoryIsBounded(t *testing.T) {
	f := newBareFleet(t, Config{HedgeMin: time.Millisecond})
	w := &workerState{}
	for i := 0; i < 100_000; i++ {
		f.noteSuccess(w, "map", time.Second)
	}
	if got := f.hedgeDelay("map"); got != 2*time.Second {
		t.Fatalf("hedgeDelay = %v after 1s completions, want 2s", got)
	}
	// One window of fast completions displaces all 100k slow ones.
	for i := 0; i < hedgeWindow; i++ {
		f.noteSuccess(w, "map", 10*time.Millisecond)
	}
	if got := f.hedgeDelay("map"); got != 20*time.Millisecond {
		t.Fatalf("hedgeDelay = %v, want 20ms: completions older than the window still count", got)
	}
	if got := f.hedgeDelay("reduce"); got != time.Millisecond {
		t.Fatalf("hedgeDelay of an unseen kind = %v, want HedgeMin", got)
	}
	// The per-dispatch cost is a read of the sorted window: nothing
	// proportional to history, nothing on the heap.
	if allocs := testing.AllocsPerRun(100, func() { f.hedgeDelay("map") }); allocs != 0 {
		t.Fatalf("hedgeDelay allocates %.0f times per call after 100k completions, want 0", allocs)
	}
}

// TestHedgeDelayIsTheSortedMedian: the window kept sorted as durations
// complete gives, after every completion of either kind, the median a
// sort of the kind's last hedgeWindow durations gives, before and well
// after the window first wraps, with durations that repeat.
func TestHedgeDelayIsTheSortedMedian(t *testing.T) {
	f := newBareFleet(t, Config{HedgeMin: time.Nanosecond})
	rng := rand.New(rand.NewSource(1))
	w := &workerState{}
	history := map[string][]time.Duration{}
	for i := 0; i < 5*hedgeWindow; i++ {
		kind := []string{"map", "reduce"}[rng.Intn(4)/3] // three maps to a reduce
		d := time.Duration(1+rng.Intn(40)) * time.Millisecond
		if rng.Intn(2) == 0 {
			d = time.Duration(rng.Int63n(int64(time.Second)))
		}
		f.noteSuccess(w, kind, d)
		history[kind] = append(history[kind], d)
		recent := slices.Clone(history[kind][max(0, len(history[kind])-hedgeWindow):])
		slices.Sort(recent)
		want := time.Duration(hedgeFactor * recent[len(recent)/2].Seconds() * float64(time.Second))
		if got := f.hedgeDelay(kind); got != max(want, time.Nanosecond) {
			t.Fatalf("%s hedge delay %v after %d completions, want %v", kind, got, len(history[kind]), want)
		}
	}
	if n := len(history["reduce"]); n <= hedgeWindow {
		t.Fatalf("reduce window never wrapped (%d completions)", n)
	}
}

// TestMirrorsFollowLiveFiles: every pass creates a temp file, runs a
// map over it, removes it and retires the job. The fleet's mirror
// table and its spill directory must track the live file set (the one
// long-lived input), not every file ever read.
func TestMirrorsFollowLiveFiles(t *testing.T) {
	spill := t.TempDir()
	f := newBareFleet(t, Config{SpillDir: spill})
	register(t, f, okStub(t).srv.URL)
	fsys := dfs.New()
	ex := executor{f: f, fs: fsys}
	write := func(name string) *dfs.File {
		w := fsys.Create(name)
		for i := 0; i < 64; i++ {
			w.Append(data.Object(data.Field{Name: "v", Value: data.Int(int64(i))}))
		}
		return w.Close()
	}
	run := func(job string, file *dfs.File) {
		t.Helper()
		_, err := ex.ExecMap(mapreduce.MapExec{JobName: job, TaskName: job + "-m0", File: file, Op: &physop.OpSpec{Kind: physop.Scan}})
		if err != nil {
			t.Fatal(err)
		}
	}
	spillBytes := func() (total int64) {
		filepath.WalkDir(spill, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if info, err := d.Info(); err == nil {
					total += info.Size()
				}
			}
			return nil
		})
		return total
	}

	base := write("base")
	run("warm", base)
	f.RetireJob("warm")
	f.sweeps.Wait()
	liveBytes := spillBytes()
	if liveBytes == 0 {
		t.Fatal("the live file was not mirrored")
	}

	for pass := 0; pass < 20; pass++ {
		job := "pass" + string(rune('a'+pass))
		tmp := write("tmp")
		run(job, base)
		run(job, tmp)
		if err := fsys.Remove("tmp"); err != nil {
			t.Fatal(err)
		}
		f.RetireJob(job)
	}
	f.sweeps.Wait()
	f.mu.Lock()
	mirrors := len(f.mirrors)
	f.mu.Unlock()
	if mirrors != 1 {
		t.Errorf("%d mirrors held after 20 passes, want 1 (the live file)", mirrors)
	}
	if got := spillBytes(); got != liveBytes {
		t.Errorf("spill dir holds %d bytes after 20 passes, want %d (the live file's mirror)", got, liveBytes)
	}
}

// TestRegistrationRefusesPartialCaps: a worker announcing less than
// binary frames + batched dispatch + peer shuffle is refused — by the
// Go API with a *wire.CapsError and by POST /runtime/register with a
// 4xx, both naming what is missing — and never receives a task.
func TestRegistrationRefusesPartialCaps(t *testing.T) {
	cases := []struct {
		name    string
		caps    wire.Caps
		missing []string
	}{
		{"none", wire.Caps{}, []string{"bin codec", "batch", "peerShuffle"}},
		{"jsonOnly", wire.Caps{Codecs: []string{wire.CodecJSON}, Batch: true, PeerShuffle: true}, []string{"bin codec"}},
		{"noBatch", wire.Caps{Codecs: []string{wire.CodecBinary}, PeerShuffle: true}, []string{"batch"}},
		{"noPeer", wire.Caps{Codecs: []string{wire.CodecBinary}, Batch: true}, []string{"peerShuffle"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newBareFleet(t, Config{})
			stub := okStub(t)

			_, err := f.RegisterWorkerCaps(stub.srv.URL, tc.caps)
			var ce *wire.CapsError
			if !errors.As(err, &ce) {
				t.Fatalf("RegisterWorkerCaps error = %v, want a *wire.CapsError", err)
			}
			if !reflect.DeepEqual(ce.Missing, tc.missing) {
				t.Fatalf("missing = %v, want %v", ce.Missing, tc.missing)
			}

			payload, _ := json.Marshal(wire.RegisterRequest{URL: stub.srv.URL, Caps: tc.caps})
			resp, err := http.Post(f.URL()+"/runtime/register", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("register: HTTP %d, want 400", resp.StatusCode)
			}
			for _, m := range tc.missing {
				if !strings.Contains(string(body), m) {
					t.Errorf("refusal %q does not name missing capability %q", bytes.TrimSpace(body), m)
				}
			}

			if got := f.Workers(); got != 0 {
				t.Fatalf("live workers = %d after refused registrations, want 0", got)
			}
			if _, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"}, nil); err == nil || !strings.Contains(err.Error(), "no live workers") {
				t.Fatalf("dispatch error = %v, want no-live-workers", err)
			}
			if got := stub.rpcs.Load(); got != 0 {
				t.Fatalf("refused worker received %d task RPCs", got)
			}
		})
	}
}

// TestWorkersGoStaleWithoutHeartbeat: a silent worker drops out of
// dispatch eligibility after StaleAfter and returns on heartbeat.
func TestWorkersGoStaleWithoutHeartbeat(t *testing.T) {
	f := newBareFleet(t, Config{StaleAfter: 50 * time.Millisecond})
	id := register(t, f, okStub(t).srv.URL)
	if got := f.Workers(); got != 1 {
		t.Fatalf("live workers = %d, want 1", got)
	}
	time.Sleep(100 * time.Millisecond)
	if got := f.Workers(); got != 0 {
		t.Fatalf("live workers = %d after silence, want 0 (stale)", got)
	}
	if _, err := f.dispatch(&wire.Task{Task: "t-m0", Kind: "map"}, nil); err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("error = %v, want no-live-workers (stale workers are skipped)", err)
	}

	// A heartbeat through the real endpoint refreshes it.
	payload, _ := json.Marshal(wire.HeartbeatRequest{ID: id})
	resp, err := http.Post(f.URL()+"/runtime/heartbeat", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("heartbeat: HTTP %d", resp.StatusCode)
	}
	if got := f.Workers(); got != 1 {
		t.Fatalf("live workers = %d after heartbeat, want 1", got)
	}

	// A heartbeat for an id the controller does not know must get Gone
	// so the worker re-registers.
	payload, _ = json.Marshal(wire.HeartbeatRequest{ID: 999})
	resp, err = http.Post(f.URL()+"/runtime/heartbeat", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unknown-id heartbeat: HTTP %d, want %d", resp.StatusCode, http.StatusGone)
	}
}
