package procruntime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
	"dyno/internal/sqlparse"
)

// rowStrings renders rows for comparison.
func rowStrings(rows []data.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// workerStatus fetches one worker's GET /status snapshot.
func workerStatus(t *testing.T, base string) WorkerStatus {
	t.Helper()
	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// These tests drive the executor's peer-shuffle data plane end to end
// against real workers (the same handler cmd/dynoworker serves):
// retained map outputs, direct reduce-side fetches, and the fallback
// recovery re-run when a producer dies.

// sumOp groups records {k, v} by k and sums v — the smallest op that
// exercises the full map/shuffle/reduce path.
func sumOp() *physop.OpSpec {
	return &physop.OpSpec{
		Kind:    physop.Aggregate,
		GroupBy: []expr.Expr{expr.NewCol("k")},
		Select: []sqlparse.SelectItem{
			{E: expr.NewCol("k"), As: "k"},
			{Agg: "sum", E: expr.NewCol("v"), As: "s"},
		},
	}
}

// newPeerHarness builds a fleet with n real workers, a
// DFS file of {k, v} records (one record per block, so each record is
// its own map task), and the executor over them. It returns the
// executor, the file, and the workers' servers by registration order.
func newPeerHarness(t *testing.T, n, records int) (executor, *dfs.File, []*httptest.Server) {
	t.Helper()
	f := newBareFleet(t, Config{})
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(NewWorker(expr.NewRegistry()).Handler())
		t.Cleanup(ts.Close)
		servers[i] = ts
		register(t, f, ts.URL)
	}
	fs := dfs.New(dfs.WithBlockSize(1))
	w := fs.Create("in")
	for i := 0; i < records; i++ {
		w.Append(data.Object(
			data.Field{Name: "k", Value: data.Int(int64(i % 3))},
			data.Field{Name: "v", Value: data.Int(int64(i + 1))},
		))
	}
	return executor{f: f, fs: fs}, w.Close(), servers
}

// runPeerJob maps every block with retained shuffle output and
// reduces both partitions, returning the reduce rows per partition
// and the map outputs (for handle surgery in the fault tests).
func runPeerJob(t *testing.T, ex executor, file *dfs.File, numReducers int) ([][]data.Value, []*mapreduce.MapExecOut) {
	t.Helper()
	op := sumOp()
	outs := make([]*mapreduce.MapExecOut, file.NumBlocks())
	for i := range outs {
		out, err := ex.ExecMap(mapreduce.MapExec{
			JobName:     "peerjob",
			TaskName:    fmt.Sprintf("peerjob-m%d", i),
			File:        file,
			Split:       i,
			NumReducers: numReducers,
			HasReduce:   true,
			Op:          op,
		})
		if err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
		outs[i] = out
	}
	rows := make([][]data.Value, numReducers)
	for p := 0; p < numReducers; p++ {
		inputs := make([]mapreduce.ShuffleInput, 0, len(outs))
		for _, out := range outs {
			inputs = append(inputs, mapreduce.ShuffleInput{Handle: out.Shuffle})
		}
		res, err := ex.ExecReduce(mapreduce.ReduceExec{
			JobName:   "peerjob",
			TaskName:  fmt.Sprintf("peerjob-r%d", p),
			Partition: p,
			Inputs:    inputs,
			Op:        op,
		})
		if err != nil {
			t.Fatalf("reduce %d: %v", p, err)
		}
		rows[p] = res.Rows
	}
	return rows, outs
}

// TestPeerShuffleKeepsBytesOffController: map outputs are retained on
// their producers and reduce inputs travel worker-to-worker — the
// controller's dispatch plane carries zero shuffle pairs.
func TestPeerShuffleKeepsBytesOffController(t *testing.T) {
	ex, file, _ := newPeerHarness(t, 2, 8)
	rows, outs := runPeerJob(t, ex, file, 2)
	for i, out := range outs {
		if out.Shuffle == nil {
			t.Fatalf("map %d: output not retained on the producer", i)
		}
		if len(out.ShuffleParts) != 2 {
			t.Fatalf("map %d: %d shuffle parts, want 2", i, len(out.ShuffleParts))
		}
	}
	var total int64
	for _, out := range outs {
		for _, part := range out.ShuffleParts {
			total += int64(part.Count)
		}
	}
	if total != int64(file.NumBlocks()) {
		t.Errorf("digests count %d pairs, want %d (one per record)", total, file.NumBlocks())
	}
	if got := len(rows[0]) + len(rows[1]); got != 3 {
		t.Errorf("reduce produced %d groups, want 3", got)
	}
	st := ex.f.WireStats()
	if st.CtlShuffleBytes != 0 {
		t.Errorf("controller carried %d shuffle bytes, want 0", st.CtlShuffleBytes)
	}
	// With one record per block spread over two workers, at least one
	// reduce input segment lives on the other worker.
	if st.PeerFetches == 0 {
		t.Error("no peer fetches recorded; reduce inputs did not travel worker-to-worker")
	}
	if st.PeerShuffleBytes == 0 {
		t.Error("peer shuffle bytes counter stayed zero")
	}
}

// TestPeerDeathFallsBackToMirror: killing a producing worker after
// its maps complete must not fail the job — the reduce's failed peer
// fetch is recovered by re-running the deterministic map and inlining
// the segment.
func TestPeerDeathFallsBackToMirror(t *testing.T) {
	ex, file, servers := newPeerHarness(t, 2, 8)
	want, outs := runPeerJob(t, ex, file, 2)

	// Kill the producer of the first map's output; every handle whose
	// segment lived there now dereferences a dead peer.
	dead := outs[0].Shuffle.(*peerOutput).url
	var killed bool
	for _, ts := range servers {
		if ts.URL == dead {
			ts.Close()
			killed = true
		}
	}
	if !killed {
		t.Fatalf("producer %s not among the harness servers", dead)
	}

	op := sumOp()
	for p := 0; p < 2; p++ {
		inputs := make([]mapreduce.ShuffleInput, 0, len(outs))
		for _, out := range outs {
			inputs = append(inputs, mapreduce.ShuffleInput{Handle: out.Shuffle})
		}
		res, err := ex.ExecReduce(mapreduce.ReduceExec{
			JobName:   "peerjob",
			TaskName:  fmt.Sprintf("peerjob-r%d", p),
			Partition: p,
			Inputs:    inputs,
			Op:        op,
		})
		if err != nil {
			t.Fatalf("reduce %d after peer death: %v", p, err)
		}
		if !reflect.DeepEqual(rowStrings(res.Rows), rowStrings(want[p])) {
			t.Errorf("partition %d rows changed after recovery:\ngot  %v\nwant %v",
				p, rowStrings(res.Rows), rowStrings(want[p]))
		}
	}
	if st := ex.f.WireStats(); st.CtlShuffleBytes == 0 {
		t.Error("recovery shipped no controller-side shuffle bytes")
	}
}

// TestShuffleGCOnJobRetirement: retiring a job broadcasts a GC that
// empties every worker's shuffle registry for that job's blocks.
func TestShuffleGCOnJobRetirement(t *testing.T) {
	ex, file, servers := newPeerHarness(t, 2, 6)
	_, outs := runPeerJob(t, ex, file, 2)
	if outs[0].Shuffle == nil {
		t.Fatal("map output not retained")
	}
	ex.RetireJob("peerjob")
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for _, ts := range servers {
			total += workerStatus(t, ts.URL).ShuffleBlocks
		}
		if total == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d shuffle blocks still retained after job retirement", total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCanceledJobIsRetired: a job canceled after its maps retained
// output never reaches mapreduce's finish, yet the fleet forgets its
// shuffle ids and the GC broadcast empties the workers — a timed-out
// or abandoned query leaves nothing behind on either side.
func TestCanceledJobIsRetired(t *testing.T) {
	ex, _, servers := newPeerHarness(t, 2, 0)
	f := ex.f
	retained := func() (blocks int) {
		for _, ts := range servers {
			blocks += workerStatus(t, ts.URL).ShuffleBlocks
		}
		return blocks
	}
	rt := New(f, cluster.DefaultConfig())
	env := rt.NewEnv(expr.NewRegistry())
	w := rt.FS().Create("in")
	for i := 0; i < 6; i++ {
		w.Append(data.Object(
			data.Field{Name: "k", Value: data.Int(int64(i % 3))},
			data.Field{Name: "v", Value: data.Int(int64(i + 1))},
		))
	}
	spec, err := sumOp().Bind(mapreduce.Spec{Name: "doomed", Output: "out", NumReducers: 2}, w.Close())
	if err != nil {
		t.Fatal(err)
	}
	_, sub, err := mapreduce.Submit(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.RunUntil(func() bool { return len(sub.CompletedTasks()) > 0 }); err != nil {
		t.Fatal(err)
	}
	if retained() == 0 {
		t.Fatal("no map output retained before the cancel: the test would prove nothing")
	}
	sub.Cancel(errors.New("session canceled"))
	if err := env.RunUntil(sub.Done); err != nil {
		t.Fatal(err)
	}
	if sub.Err() == nil {
		t.Fatal("canceled job reports no error")
	}
	f.shufMu.Lock()
	left := len(f.jobShuffles)
	f.shufMu.Unlock()
	if left != 0 {
		t.Errorf("fleet still tracks shuffle ids of %d job(s) after the cancel", left)
	}
	waitFor(t, "the workers to drop the canceled job's map outputs", func() bool { return retained() == 0 })
	if names := rt.Coord().CounterNames(); len(names) != 0 {
		t.Errorf("coordination service still holds %v", names)
	}
}

// TestRetirementDropsDeadBlocksFromWorkers: every pass maps a temp
// file, removes it and retires the job. The GC broadcast names the
// swept mirror directories, so the workers' block caches follow the
// live file set too — not every block they ever decoded, which would
// grow the heap pass after pass until the byte bound cycled it.
func TestRetirementDropsDeadBlocksFromWorkers(t *testing.T) {
	ex, base, servers := newPeerHarness(t, 2, 6)
	scan := func(job string, file *dfs.File) {
		t.Helper()
		for i := 0; i < file.NumBlocks(); i++ {
			_, err := ex.ExecMap(mapreduce.MapExec{JobName: job, TaskName: fmt.Sprintf("%s-m%d", job, i),
				File: file, Split: i, Op: &physop.OpSpec{Kind: physop.Scan}})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	cached := func() (blocks int) {
		for _, ts := range servers {
			blocks += workerStatus(t, ts.URL).Blocks
		}
		return blocks
	}
	scan("warm", base)
	live := cached()
	if live != base.NumBlocks() {
		t.Fatalf("%d blocks cached after one scan of %d", live, base.NumBlocks())
	}
	for pass := 0; pass < 5; pass++ {
		w := ex.fs.Create("tmp")
		for i := 0; i < 4; i++ {
			w.Append(data.Object(data.Field{Name: "v", Value: data.Int(int64(i))}))
		}
		job := fmt.Sprintf("pass%d", pass)
		scan(job, w.Close())
		if err := ex.fs.Remove("tmp"); err != nil {
			t.Fatal(err)
		}
		ex.RetireJob(job)
	}
	waitFor(t, "the workers to drop the dead mirrors' blocks", func() bool { return cached() == live })
}

// TestWorkerRefusesHostileInput: the worker's socket- and disk-facing
// readers fail closed — an oversize body is 413 before it is buffered,
// a non-frame Content-Type is 415, a task frame whose counts no
// controller emits is 400 before anything is sized from them, a block
// file that is not a DYB1 frame is a task error rather than a guess at
// another format, and a panicking operator is a task error too — and
// after each of them the worker still serves the next request.
func TestWorkerRefusesHostileInput(t *testing.T) {
	reg := expr.NewRegistry()
	reg.Register(expr.UDF{Name: "boom", Fn: func([]data.Value) data.Value { panic("udf exploded") }})
	ts := httptest.NewServer(NewWorker(reg).Handler())
	t.Cleanup(ts.Close)
	dir := t.TempDir()
	notABlock := filepath.Join(dir, "b0.blk")
	if err := os.WriteFile(notABlock, []byte(`["i","1"]`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	block := filepath.Join(dir, "b1.blk")
	if err := wire.WriteBlockFile(block, []data.Value{data.Object(data.Field{Name: "v", Value: data.Int(1)})}); err != nil {
		t.Fatal(err)
	}
	frameOf := func(task *wire.Task) io.Reader {
		t.Helper()
		frame, err := wire.EncodeTaskBatch([]*wire.Task{task})
		if err != nil {
			t.Fatal(err)
		}
		defer frame.Close()
		return bytes.NewReader(bytes.Clone(frame.Bytes()))
	}
	scan := &physop.OpSpec{Kind: physop.Scan}
	shuffle := &physop.OpSpec{Kind: physop.Repartition}
	panicky := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t",
		Filter: &expr.Call{Name: "boom", Args: []expr.Expr{expr.NewCol("t.v")}}}}

	cases := []struct {
		name        string
		contentType string
		body        io.Reader
		length      int64
		wantStatus  int
		wantTaskErr string
	}{
		// The body is declared, never sent: the worker must answer from
		// the header alone (Expect: 100-continue keeps the client from
		// streaming half a gigabyte at it).
		{"oversize", wire.ContentTypeBinary, zeroReader{}, wire.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, ""},
		{"jsonBatch", "application/json", strings.NewReader(`{"tasks":[]}`), -1, http.StatusUnsupportedMediaType, ""},
		{"unknownBlockMagic", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: scan, Block: notABlock}), -1, http.StatusOK, "not a block frame"},
		// A 40-byte frame must not size a bucket array or take a modulus.
		{"hugeNumReducers", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: shuffle, Block: block, HasReduce: true, NumReducers: 1 << 40}), -1, http.StatusBadRequest, ""},
		{"zeroNumReducers", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: shuffle, Block: block, HasReduce: true}), -1, http.StatusBadRequest, ""},
		{"negativeInputIdx", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: shuffle, Block: block, InputIdx: -1}), -1, http.StatusBadRequest, ""},
		// Deterministic: a task error the controller fails fast on, not a
		// dropped connection it retries on three workers.
		{"panickingUDF", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: panicky, Block: block}), -1, http.StatusOK, "panicked: udf exploded"},
		// The worker is still serving.
		{"stillServing", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: scan, Block: block}), -1, http.StatusOK, ""},
	}
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
	defer client.CloseIdleConnections()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/tasks", tc.body)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", tc.contentType)
			if tc.length >= 0 {
				req.ContentLength = tc.length
				req.Header.Set("Expect", "100-continue")
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("HTTP %d (%s), want %d", resp.StatusCode, bytes.TrimSpace(body), tc.wantStatus)
			}
			if resp.StatusCode != http.StatusOK {
				return
			}
			results, err := wire.DecodeResultBatch(body)
			if err != nil || len(results) != 1 {
				t.Fatalf("decode result batch: %v (%d results)", err, len(results))
			}
			if tc.wantTaskErr == "" && results[0].Err != "" {
				t.Fatalf("task error = %q, want success", results[0].Err)
			}
			if !strings.Contains(results[0].Err, tc.wantTaskErr) {
				t.Fatalf("task error = %q, want it to contain %q", results[0].Err, tc.wantTaskErr)
			}
		})
	}
}

// zeroReader is an endless body; the oversize case must be refused
// without reading it.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
