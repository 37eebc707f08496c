package procruntime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/naive"
	"dyno/internal/physop"
	"dyno/internal/runtime/simruntime"
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
// retained map outputs, direct reduce-side fetches, and the relocation
// of an output whose producer died or evicted it.

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
	return newHarness(t, n, records, (*Worker).Handler)
}

// newHarness is newPeerHarness with each worker served by handler.
func newHarness(t *testing.T, n, records int, handler func(*Worker) http.Handler) (executor, *dfs.File, []*httptest.Server) {
	t.Helper()
	f := newBareFleet(t, Config{})
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(handler(NewWorker(expr.NewRegistry())))
		t.Cleanup(ts.Close)
		servers[i] = ts
		register(t, f, ts.URL)
	}
	fs := dfs.New(dfs.WithBlockSize(1))
	w := fs.Create("in")
	w.AppendAll(kvRecords(records))
	return executor{f: f, fs: fs}, w.Close(), servers
}

// kvRecords are the harness's records: {k: i mod 3, v: i+1}.
func kvRecords(n int) []data.Value {
	recs := make([]data.Value, n)
	for i := range recs {
		recs[i] = data.Object(
			data.Field{Name: "k", Value: data.Int(int64(i % 3))},
			data.Field{Name: "v", Value: data.Int(int64(i + 1))},
		)
	}
	return recs
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
			Op:          op,
		})
		if err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
		outs[i] = out
	}
	rows := make([][]data.Value, numReducers)
	for p := 0; p < numReducers; p++ {
		res, err := ex.ExecReduce(mapreduce.ReduceExec{
			JobName:   "peerjob",
			TaskName:  fmt.Sprintf("peerjob-r%d", p),
			Partition: p,
			Inputs:    shuffleInputs(outs),
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
// fetch is recovered by re-running each lost map onto a live worker,
// which retains the copy, and the reduce task fetches it peer to peer:
// PeerFetches rises and the controller carries no shuffle byte.
func TestPeerDeathFallsBackToMirror(t *testing.T) {
	ex, file, servers := newPeerHarness(t, 3, 12)
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

	before := ex.f.WireStats().PeerFetches
	for p := 0; p < 2; p++ {
		if got := reduceAll(t, ex, outs, p); !reflect.DeepEqual(rowStrings(got), rowStrings(want[p])) {
			t.Errorf("partition %d rows changed after recovery:\ngot  %v\nwant %v", p, rowStrings(got), rowStrings(want[p]))
		}
	}
	for i, out := range outs {
		if po := out.Shuffle.(*peerOutput); po.url == dead {
			t.Errorf("map %d: output still named on the dead worker after the reduces", i)
		}
	}
	st := ex.f.WireStats()
	if st.PeerFetches <= before {
		t.Errorf("peer fetches %d -> %d: the recovered segments did not travel worker to worker", before, st.PeerFetches)
	}
	if st.CtlShuffleBytes != 0 {
		t.Errorf("controller carried %d shuffle bytes, want 0", st.CtlShuffleBytes)
	}
}

// shuffleInputs is a reduce task's input list over the map outputs.
func shuffleInputs(outs []*mapreduce.MapExecOut) []any {
	inputs := make([]any, 0, len(outs))
	for _, out := range outs {
		inputs = append(inputs, out.Shuffle)
	}
	return inputs
}

// reduceAll runs partition part of the peer job over every map output.
func reduceAll(t *testing.T, ex executor, outs []*mapreduce.MapExecOut, part int) []data.Value {
	t.Helper()
	inputs := shuffleInputs(outs)
	res, err := ex.ExecReduce(mapreduce.ReduceExec{JobName: "peerjob", TaskName: fmt.Sprintf("peerjob-r%d", part),
		Partition: part, Inputs: inputs, Op: sumOp()})
	if err != nil {
		t.Fatalf("reduce %d: %v", part, err)
	}
	return res.Rows
}

// catalog is a naive.Catalog over named files.
type catalog map[string]*dfs.File

func (c catalog) Lookup(name string) (*dfs.File, bool) { f, ok := c[name]; return f, ok }

// TestLostSegmentsCostOneRedispatch: a reduce task learns of every
// segment it cannot have from its one request per producer — all of
// them when the producer is dead, only the evicted ones when it is up —
// and the executor relocates them all before it dispatches the task
// again: one extra dispatch, not one per segment. The rows equal the
// simulator's and the naive oracle's.
// simSum runs the peer job's aggregate over records kv records on the
// simulator, one reducer, and evaluates it on the naive oracle.
func simSum(t *testing.T, records int) (sim, oracle []data.Value) {
	t.Helper()
	rt := simruntime.New(cluster.DefaultConfig())
	in := rt.FS().Create("nums")
	in.AppendAll(kvRecords(records))
	nums := in.Close()
	spec, err := sumOp().Bind(mapreduce.Spec{Name: "simjob", Output: "out", NumReducers: 1}, nums)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(rt.NewEnv(expr.NewRegistry()), spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err = naive.Evaluate(sqlparse.MustParse(`SELECT t.k AS k, SUM(t.v) AS s FROM nums t GROUP BY t.k`),
		catalog{"nums": nums}, expr.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return res.Output.AllRecords(), oracle
}

func TestLostSegmentsCostOneRedispatch(t *testing.T) {
	const records = 12
	simRows, oracle := simSum(t, records)

	for _, arm := range []string{"dead", "evicted"} {
		t.Run(arm, func(t *testing.T) {
			ex, file, servers := newPeerHarness(t, 2, records)
			_, outs := runPeerJob(t, ex, file, 1)
			producer := outs[0].Shuffle.(*peerOutput).url
			var held []string
			for _, out := range outs {
				if po := out.Shuffle.(*peerOutput); po.url == producer && po.parts[0].Count > 0 {
					held = append(held, po.id)
				}
			}
			if len(held) < 3 {
				t.Fatalf("the producer holds %d of the reduce task's segments, want >= 3", len(held))
			}
			if arm == "dead" {
				for _, ts := range servers {
					if ts.URL == producer {
						ts.Close()
					}
				}
				// The controller has noticed: no attempt goes to the dead
				// worker, so every attempt counted below is one dispatch.
				ex.f.mu.Lock()
				for _, w := range ex.f.workers {
					w.black = w.url == producer
				}
				ex.f.mu.Unlock()
			} else {
				held = held[:2]
				gc, _ := json.Marshal(wire.ShuffleGCRequest{IDs: held})
				resp, err := http.Post(producer+"/shuffle/gc", "application/json", bytes.NewReader(gc))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			before := ex.f.WireStats().Tasks
			rows := reduceAll(t, ex, outs, 0)
			// One task per relocated map, and the reduce twice: the attempt
			// that found the segments gone and the one dispatch after.
			if got, want := ex.f.WireStats().Tasks-before, int64(len(held)+2); got != want {
				t.Errorf("%d task attempts to relocate %d segments, want %d", got, len(held), want)
			}
			if st := ex.f.WireStats(); st.CtlShuffleBytes != 0 {
				t.Errorf("controller carried %d shuffle bytes, want 0", st.CtlShuffleBytes)
			}
			if got, want := rowStrings(rows), rowStrings(simRows); !reflect.DeepEqual(got, want) {
				t.Errorf("rows %v, sim %v", got, want)
			}
			if got, want := rowStrings(naive.SortForComparison(rows)), rowStrings(naive.SortForComparison(oracle)); !reflect.DeepEqual(got, want) {
				t.Errorf("rows %v, oracle %v", got, want)
			}
		})
	}
}

// newLossyHarness is newPeerHarness over workers that lose the output
// of a shuffle map task they run, after it is retained and before they
// answer, while lose counts down from above zero: the controller is
// told of a copy that can no longer be fetched.
func newLossyHarness(t *testing.T, n, records int, lose *atomic.Int64) (executor, *dfs.File) {
	t.Helper()
	ex, file, _ := newHarness(t, n, records, func(w *Worker) http.Handler {
		h := w.Handler()
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/tasks" {
				h.ServeHTTP(rw, r)
				return
			}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			tasks, _ := wire.DecodeTaskBatch(body)
			for _, task := range tasks {
				if task.ShuffleID != "" && lose.Add(-1) >= 0 {
					w.shuffles.Drop(func(id string) bool { return id == task.ShuffleID })
				}
			}
			maps.Copy(rw.Header(), rec.Header())
			rw.WriteHeader(rec.Code)
			rw.Write(rec.Body.Bytes())
		})
	})
	return ex, file
}

// evictFirst drops the first map's retained output from its producer,
// the way a byte bound would, and returns its handle.
func evictFirst(t *testing.T, outs []*mapreduce.MapExecOut) *peerOutput {
	t.Helper()
	po := outs[0].Shuffle.(*peerOutput)
	gc, _ := json.Marshal(wire.ShuffleGCRequest{IDs: []string{po.id}})
	resp, err := http.Post(po.url+"/shuffle/gc", "application/json", bytes.NewReader(gc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return po
}

// TestRelocatedCopyLostAgainIsRelocatedAgain: the copy a relocation
// made is lost in turn before the reduce task fetches it, so the task's
// second dispatch fails on it too and the segment is relocated once
// more: three reduce dispatches and two re-runs, each under a fresh id,
// and the rows equal the simulator's.
func TestRelocatedCopyLostAgainIsRelocatedAgain(t *testing.T) {
	const records = 12
	simRows, _ := simSum(t, records)
	var lose atomic.Int64
	ex, file := newLossyHarness(t, 2, records, &lose)
	_, outs := runPeerJob(t, ex, file, 1)
	po := evictFirst(t, outs)
	first := po.id
	lose.Store(1) // the first relocated copy
	before := ex.f.WireStats().Tasks
	rows := reduceAll(t, ex, outs, 0)
	if got := ex.f.WireStats().Tasks - before; got != 5 {
		t.Errorf("%d task attempts, want 5: three reduce dispatches and two re-runs", got)
	}
	if po.id == first || !strings.HasPrefix(po.id, "peerjob-m0#") {
		t.Errorf("the segment is named %q after its relocations, first %q", po.id, first)
	}
	if got, want := rowStrings(rows), rowStrings(simRows); !reflect.DeepEqual(got, want) {
		t.Errorf("rows %v, sim %v", got, want)
	}
	if st := ex.f.WireStats(); st.CtlShuffleBytes != 0 {
		t.Errorf("controller carried %d shuffle bytes, want 0", st.CtlShuffleBytes)
	}
}

// TestLossesPastTheBoundFailTheReduce: when every relocated copy is
// lost as well, the reduce task relocates for maxAttempts rounds and
// then fails with the worker's peer-fetch error.
func TestLossesPastTheBoundFailTheReduce(t *testing.T) {
	var lose atomic.Int64
	ex, file := newLossyHarness(t, 2, 12, &lose)
	_, outs := runPeerJob(t, ex, file, 1)
	evictFirst(t, outs)
	lose.Store(1 << 30)
	before := ex.f.WireStats().Tasks
	inputs := shuffleInputs(outs)
	_, err := ex.ExecReduce(mapreduce.ReduceExec{JobName: "peerjob", TaskName: "peerjob-r0", Inputs: inputs, Op: sumOp()})
	var tfe *taskFailedError
	if !errors.As(err, &tfe) {
		t.Fatalf("reduce error %v, want a task failure", err)
	}
	if idxs, ok := wire.ParsePeerFetchErr(tfe.msg); !ok || len(idxs) != 1 {
		t.Errorf("reduce failed with %q, want the peer-fetch error naming the one segment", tfe.msg)
	}
	rounds := int64(maxAttempts)
	if got, want := ex.f.WireStats().Tasks-before, 2*rounds+1; got != want {
		t.Errorf("%d task attempts, want %d: a reduce dispatch and a re-run per round, and the last dispatch", got, want)
	}
}

// TestRelocationChecksDigests: a re-run whose digests are not the lost
// copy's fails the reduce task instead of feeding it other pairs.
func TestRelocationChecksDigests(t *testing.T) {
	ex, file, _ := newPeerHarness(t, 2, 12)
	_, outs := runPeerJob(t, ex, file, 1)
	po := evictFirst(t, outs)
	po.parts = []wire.ShufflePart{{Count: po.parts[0].Count, Bytes: po.parts[0].Bytes + 1}}
	inputs := shuffleInputs(outs)
	_, err := ex.ExecReduce(mapreduce.ReduceExec{JobName: "peerjob", TaskName: "peerjob-r0", Inputs: inputs, Op: sumOp()})
	if err == nil || !strings.Contains(err.Error(), "digests") {
		t.Fatalf("reduce error %v, want the relocation's digest mismatch", err)
	}
}

// TestRelocatedCopiesAreCollected: a relocation's fresh id is recorded
// against the job, so retiring the job collects the re-run's copy from
// the worker that holds it.
func TestRelocatedCopiesAreCollected(t *testing.T) {
	ex, file, servers := newPeerHarness(t, 2, 12)
	_, outs := runPeerJob(t, ex, file, 1)
	po := evictFirst(t, outs)
	lost := po.id
	reduceAll(t, ex, outs, 0)
	if po.id == lost {
		t.Fatal("the evicted segment was not relocated")
	}
	ex.f.shufMu.Lock()
	ids := slices.Clone(ex.f.jobShuffles["peerjob"])
	ex.f.shufMu.Unlock()
	if !slices.Contains(ids, po.id) {
		t.Fatalf("relocated id %s is not among the job's ids %v", po.id, ids)
	}
	ex.RetireJob("peerjob")
	waitFor(t, "the workers to drop the job's outputs, the relocated copy included", func() bool {
		total := 0
		for _, ts := range servers {
			total += workerStatus(t, ts.URL).ShuffleBlocks
		}
		return total == 0
	})
}

// TestConcurrentReducesRelocateOnce: the reduce tasks of one job share
// each map output's handle. When a producer evicts outputs they all
// need, the tasks running at once relocate each output exactly once —
// the first to report it re-runs the map, the others fetch that copy —
// and every partition's rows are those of the job before the loss.
func TestConcurrentReducesRelocateOnce(t *testing.T) {
	const reducers = 3
	ex, _, _ := newPeerHarness(t, 2, 0)
	ex.fs = dfs.New(dfs.WithBlockSize(64))
	in := ex.fs.Create("in")
	in.AppendAll(kvRecords(24))
	want, outs := runPeerJob(t, ex, in.Close(), reducers)
	producer := outs[0].Shuffle.(*peerOutput).url
	var evicted []string
	shared := 0 // evicted outputs more than one reduce task needs
	for _, out := range outs {
		if po := out.Shuffle.(*peerOutput); po.url == producer {
			evicted = append(evicted, po.id)
			needed := 0
			for _, part := range po.parts {
				if part.Count > 0 {
					needed++
				}
			}
			if needed > 1 {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatalf("no evicted output of %d is needed by two reduce tasks: the test would prove nothing", len(evicted))
	}
	gc, _ := json.Marshal(wire.ShuffleGCRequest{IDs: evicted})
	resp, err := http.Post(producer+"/shuffle/gc", "application/json", bytes.NewReader(gc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	inputs := shuffleInputs(outs)
	got := make([][]data.Value, reducers)
	var wg sync.WaitGroup
	for p := range reducers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ex.ExecReduce(mapreduce.ReduceExec{JobName: "peerjob", TaskName: fmt.Sprintf("peerjob-r%d", p),
				Partition: p, Inputs: inputs, Op: sumOp()})
			if err != nil {
				t.Errorf("reduce %d: %v", p, err)
				return
			}
			got[p] = res.Rows
		}()
	}
	wg.Wait()
	for p := range reducers {
		if !reflect.DeepEqual(rowStrings(got[p]), rowStrings(want[p])) {
			t.Errorf("partition %d: rows %v, before the loss %v", p, rowStrings(got[p]), rowStrings(want[p]))
		}
	}
	ex.f.shufMu.Lock()
	ids := len(ex.f.jobShuffles["peerjob"])
	ex.f.shufMu.Unlock()
	if ids != len(outs)+len(evicted) {
		t.Errorf("%d shuffle ids for %d maps and %d evicted outputs: each output must be relocated once", ids, len(outs), len(evicted))
	}
}

// partitioned lays segments out as a map task's shuffle output, one
// partition each: columns of their pairs, positions in order. A task
// carries one tag, the segments' pairs' (they must share it).
func partitioned(segs ...[]wire.KV) mapreduce.Partitioned {
	out := mapreduce.Partitioned{Offs: make([]int32, 1, len(segs)+1)}
	for _, seg := range segs {
		for _, kv := range seg {
			out.Idx = append(out.Idx, int32(len(out.Keys)))
			out.Keys, out.NK, out.Recs, out.Tag = append(out.Keys, kv.Key), append(out.NK, ""), append(out.Recs, kv.Rec), kv.Tag
		}
		out.Offs = append(out.Offs, int32(len(out.Idx)))
	}
	return out
}

// TestReduceAsksEachPeerOnce: the segments a reduce task needs from one
// peer arrive in one request, and the task's input is assembled in
// Fetches order with local and fetched segments interleaved. A request
// that fails names the segments lost: all of them for a peer that
// cannot be reached, only the missing ones for a peer that answers 404.
func TestReduceAsksEachPeerOnce(t *testing.T) {
	seg := func(tag string, n int) []wire.KV {
		pairs := make([]wire.KV, n)
		for i := range pairs {
			pairs[i] = wire.KV{Key: data.Int(int64(i)), Tag: tag, Rec: data.String(tag)}
		}
		return pairs
	}
	a, b := NewWorker(expr.NewRegistry()), NewWorker(expr.NewRegistry())
	var asks atomic.Int64
	hb := b.Handler()
	peer := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shuffle" {
			asks.Add(1)
		}
		hb.ServeHTTP(rw, r)
	}))
	t.Cleanup(peer.Close)
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	for _, id := range []string{"b1", "b2", "b3"} {
		b.retainShuffle(id, partitioned(seg(id, 1), seg(id, 3)), 1)
	}
	a.retainShuffle("a1", partitioned(nil, seg("a1", 2)), 1)
	a.retainShuffle("a2", partitioned(seg("a2", 4), seg("a2", 1)), 1)
	at := func(url, id string) wire.ShuffleRef { return wire.ShuffleRef{URL: url, ID: id, Part: 1} }
	tags := func(pairs []wire.KV) (out []string) {
		for _, kv := range pairs {
			out = append(out, kv.Tag)
		}
		return out
	}

	// a1's and a2's URL is unreachable: they must come from a's own
	// registry.
	task := &wire.Task{Partition: 1, Fetches: []wire.ShuffleRef{at(gone.URL, "a2"), at(peer.URL, "b1"),
		at(gone.URL, "a1"), at(peer.URL, "b2"), at(gone.URL, "a2"), at(peer.URL, "b3")}}
	res := &wire.TaskResult{}
	pairs, lost := a.gather(task, res)
	if lost != "" {
		t.Fatal(lost)
	}
	want := []string{"a2", "b1", "b1", "b1", "a1", "a1", "b2", "b2", "b2", "a2", "b3", "b3", "b3"}
	if got := tags(pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("input %v, want %v", got, want)
	}
	if asks.Load() != 1 || res.PeerFetches != 1 || b.statShufServed.Load() != 3 {
		t.Errorf("%d requests, %d counted, %d segments served; want 1, 1, 3", asks.Load(), res.PeerFetches, b.statShufServed.Load())
	}

	asks.Store(0)
	task.Fetches = []wire.ShuffleRef{at(peer.URL, "b1"), at(peer.URL, "evicted"), at(gone.URL, "z1"),
		at(peer.URL, "b3"), at(gone.URL, "z2"), at(peer.URL, "evicted2"), at(gone.URL, "a2")}
	_, lost = a.gather(task, &wire.TaskResult{})
	if idxs, ok := wire.ParsePeerFetchErr(lost); !ok || !reflect.DeepEqual(idxs, []int{1, 2, 4, 5}) {
		t.Errorf("lost segments %v (%q), want [1 2 4 5]", idxs, lost)
	}
	if asks.Load() != 1 {
		t.Errorf("%d requests to the peer that answered 404, want 1 (a 404 is not retried)", asks.Load())
	}
}

// TestServedAndRecoveredSegmentsAreTheWindow: what a producer serves a
// peer for partition p is the pairs of partition p's window of its
// retained output, in order, and a re-run of the map under a fresh id —
// the relocation of a lost copy — answers the same digests and serves
// the same windows, for a kernel whose output is positions into its
// split's image (the repartition map) and one that emits pair by pair
// (the aggregate map).
func TestServedAndRecoveredSegmentsAreTheWindow(t *testing.T) {
	const reducers = 5
	w := NewWorker(expr.NewRegistry())
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	recs := make([]data.Value, 200)
	for i := range recs {
		recs[i] = data.Object(data.Field{Name: "k", Value: data.Int(int64(i * i % 17))}, data.Field{Name: "v", Value: data.Int(int64(i))})
	}
	block := mirrorBlocks(t, recs)[0]
	ops := []*physop.OpSpec{
		{Kind: physop.Repartition, Left: &physop.Source{Wrap: "t"}, LeftKeys: []data.Path{data.MustParsePath("t.k")}},
		sumOp(),
	}
	same := func(a, b []wire.KV) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Tag != b[i].Tag || a[i].Key.String() != b[i].Key.String() || a[i].Rec.String() != b[i].Rec.String() {
				return false
			}
		}
		return true
	}
	for n, op := range ops {
		id := fmt.Sprintf("s%d", n)
		task := &wire.Task{Task: id + "-m0", Kind: "map", Op: op, Block: block, NumReducers: reducers, ShuffleID: id, ByteScale: 1}
		res := w.runTask(task)
		if res.Err != "" || len(res.Parts) != reducers {
			t.Fatalf("%s: %q, %d digests", op.Kind, res.Err, len(res.Parts))
		}
		rerun := *task
		rerun.ShuffleID = id + "-rerun"
		if again := w.runTask(&rerun); again.Err != "" || !reflect.DeepEqual(again.Parts, res.Parts) {
			t.Fatalf("%s: re-run under a fresh id: %q, digests %v, want %v", op.Kind, again.Err, again.Parts, res.Parts)
		}
		out, _ := w.shuffles.Peek(id)
		var total int
		for p := range reducers {
			window := out.AppendPart(nil, p)
			total += len(window)
			ask := wire.EncodeShuffleRequest(p, []string{id, rerun.ShuffleID})
			resp, err := http.Post(ts.URL+"/shuffle", wire.ContentTypeBinary, bytes.NewReader(ask.Bytes()))
			ask.Close()
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			segs, err := wire.DecodeShuffleSegments(body)
			if err != nil || len(segs) != 2 || !same(segs[0], window) {
				t.Errorf("%s partition %d: served %v, want the window %v (%v)", op.Kind, p, segs, window, err)
			} else if !same(segs[1], window) {
				t.Errorf("%s partition %d: the re-run served %v, want the window %v", op.Kind, p, segs[1], window)
			}
		}
		if total == 0 || total != len(out.Idx) {
			t.Errorf("%s: windows hold %d of %d pairs", op.Kind, total, len(out.Idx))
		}
	}
}

// TestRetainedDigestsAreSimArithmetic: the digest a worker answers for
// an output it retains — pair count and virtual bytes per partition —
// is what the in-process run of the same map task counts and charges:
// Env.VirtualSize of each pair's record at the same byte scale, summed
// as int64s, for the repartition map and the aggregate map.
func TestRetainedDigestsAreSimArithmetic(t *testing.T) {
	const reducers, scale = 5, 2.75
	w := NewWorker(expr.NewRegistry())
	recs := make([]data.Value, 200)
	for i := range recs {
		recs[i] = data.Object(data.Field{Name: "k", Value: data.Int(int64(i * i % 17))}, data.Field{Name: "v", Value: data.String(strings.Repeat("x", i%13))})
	}
	block := mirrorBlocks(t, recs)[0]
	env := &mapreduce.Env{FS: dfs.New()}
	env.FS.SetByteScale(scale)
	ops := []*physop.OpSpec{
		{Kind: physop.Repartition, Left: &physop.Source{Wrap: "t"}, LeftKeys: []data.Path{data.MustParsePath("t.k")}},
		sumOp(),
	}
	for n, op := range ops {
		id := fmt.Sprintf("d%d", n)
		res := w.runTask(&wire.Task{Task: id + "-m0", Kind: "map", Op: op, Block: block, NumReducers: reducers, ShuffleID: id, ByteScale: scale})
		if res.Err != "" || len(res.Parts) != reducers {
			t.Fatalf("%s: %q, %d digests", op.Kind, res.Err, len(res.Parts))
		}
		k, err := physop.Compile(op, 0, recs[0])
		if err != nil {
			t.Fatal(err)
		}
		out, err := mapreduce.RunMapTask(&mapreduce.MapTask{Reg: expr.NewRegistry(), Block: dfs.NewBlock(recs), Map: k.Map, NumReducers: reducers})
		if err != nil {
			t.Fatal(err)
		}
		var total int
		for p := range reducers {
			pairs := out.Shuffled.AppendPart(nil, p)
			want := wire.ShufflePart{Count: len(pairs)}
			for _, pair := range pairs {
				want.Bytes += env.VirtualSize(pair.Rec)
			}
			if res.Parts[p] != want {
				t.Errorf("%s partition %d: worker digest %+v, in-process %+v", op.Kind, p, res.Parts[p], want)
			}
			total += want.Count
		}
		if total == 0 {
			t.Errorf("%s: no pairs", op.Kind)
		}
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
// controller emits is 400 before anything is sized from them, so is a
// shuffle request that is truncated, not DYF1, or claims more ids than
// its body could hold; a shuffle map task without a shuffle id is a
// task error, as is a block that is not a DYB1 frame rather than a
// guess at another format, and so is a block reference whose span runs
// past its mirror file, is longer than any frame, or names no file,
// each refused before a buffer is sized from it; a panicking operator
// is a task error too — and after each of them the worker still serves
// the next request.
func TestWorkerRefusesHostileInput(t *testing.T) {
	reg := expr.NewRegistry()
	reg.Register(expr.UDF{Name: "boom", Fn: func([]data.Value) data.Value { panic("udf exploded") }})
	ts := httptest.NewServer(NewWorker(reg).Handler())
	t.Cleanup(ts.Close)
	jsonLines := []byte(`["i","1"]` + "\n")
	notABlock := wire.BlockRef{File: filepath.Join(t.TempDir(), "f000001.mir"), Len: int64(len(jsonLines))}
	if err := os.WriteFile(notABlock.File, jsonLines, 0o644); err != nil {
		t.Fatal(err)
	}
	block := mirrorBlocks(t, []data.Value{data.Object(data.Field{Name: "v", Value: data.Int(1)})})[0]
	span := func(file string, off, n int64) wire.BlockRef { return wire.BlockRef{File: file, Off: off, Len: n} }
	frameOf := func(task *wire.Task) io.Reader {
		t.Helper()
		frame, err := wire.EncodeTaskBatch([]*wire.Task{task})
		if err != nil {
			t.Fatal(err)
		}
		defer frame.Close()
		return bytes.NewReader(bytes.Clone(frame.Bytes()))
	}
	ask := wire.EncodeShuffleRequest(0, []string{"s1", "s2", "s3"})
	askBytes := bytes.Clone(ask.Bytes())
	ask.Close()
	// Partition 0, then an id count of 2^40 and no ids.
	hugeAsk := binary.AppendUvarint(binary.AppendUvarint([]byte("DYF1"), 0), 1<<40)
	scan := &physop.OpSpec{Kind: physop.Scan}
	shuffle := &physop.OpSpec{Kind: physop.Repartition}
	panicky := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t",
		Filter: &expr.Call{Name: "boom", Args: []expr.Expr{expr.NewCol("t.v")}}}}

	cases := []struct {
		name        string
		path        string // default /tasks
		contentType string
		body        io.Reader
		length      int64
		wantStatus  int
		wantTaskErr string
	}{
		// The body is declared, never sent: the worker must answer from
		// the header alone (Expect: 100-continue keeps the client from
		// streaming half a gigabyte at it).
		{"oversize", "", wire.ContentTypeBinary, zeroReader{}, wire.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, ""},
		{"shuffleOversize", "/shuffle", wire.ContentTypeBinary, zeroReader{}, wire.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, ""},
		{"jsonBatch", "", "application/json", strings.NewReader(`{"tasks":[]}`), -1, http.StatusUnsupportedMediaType, ""},
		{"shuffleHugeIDCount", "/shuffle", wire.ContentTypeBinary, bytes.NewReader(hugeAsk), -1, http.StatusBadRequest, ""},
		{"shuffleTruncatedIDs", "/shuffle", wire.ContentTypeBinary, bytes.NewReader(askBytes[:len(askBytes)-2]), -1, http.StatusBadRequest, ""},
		{"shuffleWrongMagic", "/shuffle", wire.ContentTypeBinary, bytes.NewReader(append([]byte("DYS2"), askBytes[4:]...)), -1, http.StatusBadRequest, ""},
		{"shuffleUnknownIDs", "/shuffle", wire.ContentTypeBinary, bytes.NewReader(askBytes), -1, http.StatusNotFound, ""},
		{"unknownBlockMagic", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: scan, Block: notABlock}), -1, http.StatusOK, "not a block frame"},
		{"spanPastFile", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: scan, Block: span(block.File, block.Off, block.Len+1)}), -1, http.StatusOK, "run past the file"},
		{"offsetPastFile", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: scan, Block: span(block.File, 1<<62, 1)}), -1, http.StatusOK, "run past the file"},
		{"spanOverFrameBound", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: scan, Block: span(block.File, 0, wire.MaxBodyBytes+1)}), -1, http.StatusOK, "frame bound"},
		{"missingMirror", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: scan, Block: span(block.File+".gone", 0, block.Len)}), -1, http.StatusOK, "open block"},
		// A 40-byte frame must not size a bucket array or take a modulus.
		{"hugeNumReducers", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: shuffle, Block: block, NumReducers: 1 << 40}), -1, http.StatusBadRequest, ""},
		// A shuffle op sent as a map-only task: a task error, before any
		// modulus is taken.
		{"zeroNumReducers", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: shuffle, Block: block}), -1, http.StatusOK, "with 0 reducers"},
		// A shuffle map task with nowhere to retain its output: its pairs
		// never travel back in the answer.
		{"noShuffleID", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: shuffle, Block: block, NumReducers: 2}), -1, http.StatusOK, "no shuffle id"},
		{"negativeInputIdx", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: shuffle, Block: block, InputIdx: -1}), -1, http.StatusBadRequest, ""},
		// Deterministic: a task error the controller fails fast on, not a
		// dropped connection it retries on three workers.
		{"panickingUDF", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: panicky, Block: block}), -1, http.StatusOK, "panicked: udf exploded"},
		// The worker is still serving.
		{"stillServing", "", wire.ContentTypeBinary,
			frameOf(&wire.Task{Task: "t-m0", Kind: "map", Op: scan, Block: block}), -1, http.StatusOK, ""},
	}
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
	defer client.CloseIdleConnections()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = "/tasks"
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+path, tc.body)
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
