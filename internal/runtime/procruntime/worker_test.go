package procruntime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
)

// TestWorkerChargesPerRowFilterEveryTask: a worker runs the engine's own
// kernel, and every scan leaves the split's columnar image on the cached
// block entry. A selection the batch layer evaluates column-wise is
// cached on that image and free; the same selection phrased through a
// UDF call is evaluated per row over the image's wrapped rows and never
// cached — two consecutive tasks over the block both charge the UDF's
// CPU once per record, and all three tasks answer with the same
// positions.
func TestWorkerChargesPerRowFilterEveryTask(t *testing.T) {
	reg := expr.NewRegistry()
	reg.Register(expr.UDF{Name: "small", CPUCost: 0.25, Fn: func(args []data.Value) data.Value {
		return data.Bool(args[0].Int() < 40)
	}})
	w := NewWorker(reg)
	recs := make([]data.Value, 100)
	for i := range recs {
		recs[i] = data.Object(
			data.Field{Name: "pad", Value: data.String("x")},
			data.Field{Name: "v", Value: data.Int(int64(i))},
		)
	}
	block := mirrorBlocks(t, recs)[0]
	scan := func(filter expr.Expr) *wire.TaskResult {
		t.Helper()
		res := w.runOne(&wire.Task{Task: "t-m0", Kind: "map", Block: block,
			Op: &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t", Filter: filter}}})
		if res.Err != "" {
			t.Fatal(res.Err)
		}
		return res
	}
	image := func() *batch.Data {
		blk, err := w.block(block)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := blk.Aux().Load().(*batch.Data)
		return d
	}

	viaCmp := scan(&expr.Cmp{Op: expr.LT, L: expr.NewCol("t.v"), R: expr.NewLit(data.Int(40))})
	d := image()
	if d == nil {
		t.Fatal("the scan left no columnar image on the cached block")
	}
	if viaCmp.CPU != 0 || len(viaCmp.Rows) != 0 || !slices.Equal(viaCmp.Sel, positions(40)) {
		t.Errorf("column-wise scan charged CPU=%v for rows %v and positions %v, want 0 for positions 0..39 and no rows",
			viaCmp.CPU, viaCmp.Rows, viaCmp.Sel)
	}
	for task := 0; task < 2; task++ {
		viaCall := scan(&expr.Call{Name: "small", Args: []expr.Expr{expr.NewCol("t.v")}})
		if want := 0.25 * float64(len(recs)); viaCall.CPU != want {
			t.Errorf("task %d charged CPU=%v, want %v (one UDF call per record)", task, viaCall.CPU, want)
		}
		if len(viaCall.Rows) != 0 || !slices.Equal(viaCall.Sel, viaCmp.Sel) {
			t.Errorf("task %d: the UDF filter kept %v (and rows %v), the comparison %v", task, viaCall.Sel, viaCall.Rows, viaCmp.Sel)
		}
		if image() != d {
			t.Fatalf("task %d replaced the block's image", task)
		}
	}
}

// mirrorBlocks writes blocks into one mirror file with the fleet's own
// writer and returns their spans.
func mirrorBlocks(t testing.TB, blocks ...[]data.Value) []wire.BlockRef {
	t.Helper()
	refs, err := writeMirror(filepath.Join(t.TempDir(), "f000001.mir"), len(blocks), func(i int) []data.Value { return blocks[i] })
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// runOne runs task as the one task of its job in a frame, on the
// calling goroutine.
func (w *Worker) runOne(task *wire.Task) *wire.TaskResult {
	return w.runTask(task, &frameJob{first: task})
}

// positions returns the selection 0, 1, ..., n-1.
func positions(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// TestBroadcastTableBuiltOncePerWorker: the map tasks of a
// broadcast-join wave run in parallel on a worker and all miss the
// table at the same instant. The first builds it — decoding each
// build-side block once — and the rest wait for that build instead of
// making their own copy; the rows are what a one-at-a-time worker
// produces.
func TestBroadcastTableBuiltOncePerWorker(t *testing.T) {
	const probes, buildBlocks = 8, 3
	kv := func(k, v int) data.Value {
		return data.Object(data.Field{Name: "k", Value: data.Int(int64(k))}, data.Field{Name: "v", Value: data.Int(int64(v))})
	}
	build := make([][]data.Value, buildBlocks)
	for i := range build {
		build[i] = make([]data.Value, 200)
		for r := range build[i] {
			build[i][r] = kv(i*len(build[i])+r, r)
		}
	}
	ref := wire.BuildRef{Name: "b0", Wrap: "b", Keys: []data.Path{data.MustParsePath("b.k")}, Blocks: mirrorBlocks(t, build...)}
	probe := make([][]data.Value, probes)
	for i := range probe {
		probe[i] = make([]data.Value, 50)
		for r := range probe[i] {
			probe[i][r] = kv((i*37+r*11)%(buildBlocks*200), i)
		}
	}
	probeRefs := mirrorBlocks(t, probe...)
	op := &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "t"},
		Steps: []physop.ChainStep{{Build: "b0", Keys: []data.Path{data.MustParsePath("t.k")}}}}
	tasks := make([]*wire.Task, probes)
	for i := range tasks {
		tasks[i] = &wire.Task{Task: fmt.Sprintf("t-m%d", i), Kind: "map", Op: op,
			Block: probeRefs[i], Builds: []wire.BuildRef{ref}}
	}

	serial := NewWorker(expr.NewRegistry())
	want := make([][]string, probes)
	for i, task := range tasks {
		res := serial.runOne(task)
		if res.Err != "" {
			t.Fatal(res.Err)
		}
		if want[i] = rowStrings(res.Rows); len(want[i]) != 50 {
			t.Fatalf("probe %d joined %d of 50 rows", i, len(want[i]))
		}
	}

	w := NewWorker(expr.NewRegistry())
	got := make([]*wire.TaskResult, probes)
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = w.runOne(task)
		}()
	}
	wg.Wait()
	for i, res := range got {
		if res.Err != "" {
			t.Fatalf("probe %d: %s", i, res.Err)
		}
		if !reflect.DeepEqual(rowStrings(res.Rows), want[i]) {
			t.Errorf("probe %d: concurrent rows differ from the serial worker's", i)
		}
	}
	if _, _, hits, misses, _ := w.tables.Stats(); misses != 1 || hits != probes-1 {
		t.Errorf("table misses = %d, hits = %d; want 1 and %d (one build, the rest wait for it)", misses, hits, probes-1)
	}
	// One decode per block: each probe block by its own task, each
	// build-side block by the one table build.
	if _, _, _, misses, _ := w.blocks.Stats(); misses != probes+buildBlocks {
		t.Errorf("block misses = %d, want %d (one decode per block)", misses, probes+buildBlocks)
	}
}

// TestFrameCompilesAndResolvesOncePerJob: a frame of n map tasks of one
// 3-step chain job, beside n scan tasks of another, resolves the
// chain's three tables once — the worker's table lookups grow by 3, not
// 3n — and answers each task with the rows and positions, byte for
// byte, that n one-task frames get from a fresh worker.
func TestFrameCompilesAndResolvesOncePerJob(t *testing.T) {
	const n = 6
	obj := func(fields ...data.Field) data.Value { return data.Object(fields...) }
	num := func(name string, v int) data.Field { return data.Field{Name: name, Value: data.Int(int64(v))} }
	sides := make([][]data.Value, 3)
	for i := range 40 {
		sides[0] = append(sides[0], obj(num("k", i), num("a", 2*i)))
		if i%2 == 0 {
			sides[1] = append(sides[1], obj(num("k", i), num("b", 3*i)))
		}
		if i < 5 {
			sides[2] = append(sides[2], obj(num("v", i), num("c", -i)))
		}
	}
	probes := make([][]data.Value, n)
	for i := range probes {
		for r := range 20 {
			probes[i] = append(probes[i], obj(num("k", (i*7+r)%40), num("v", r%7)))
		}
	}
	probeRefs, sideRefs := mirrorBlocks(t, probes...), mirrorBlocks(t, sides...)
	path := data.MustParsePath
	chain := &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "t"}, Steps: []physop.ChainStep{
		{Build: "b0", Keys: []data.Path{path("t.k")}},
		{Build: "b1", Keys: []data.Path{path("t.k")}},
		{Build: "b2", Keys: []data.Path{path("t.v")}},
	}}
	scan := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t",
		Filter: &expr.Cmp{Op: expr.LT, L: expr.NewCol("t.v"), R: expr.NewLit(data.Int(4))}}}
	var tasks []*wire.Task
	for i := range n {
		builds := make([]wire.BuildRef, 3) // each task's own list, as the executor builds it
		for b, key := range []string{"b.k", "c.k", "d.v"} {
			builds[b] = wire.BuildRef{Name: fmt.Sprint("b", b), Wrap: key[:1], Keys: []data.Path{path(key)}, Blocks: sideRefs[b : b+1]}
		}
		tasks = append(tasks,
			&wire.Task{Task: fmt.Sprintf("j-m%d", i), Kind: "map", Op: chain, Block: probeRefs[i], Builds: builds},
			&wire.Task{Task: fmt.Sprintf("s-m%d", i), Kind: "map", Op: scan, Block: probeRefs[i]})
	}
	post := func(url string, tasks []*wire.Task) []*wire.TaskResult {
		t.Helper()
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
			t.Fatalf("%d results for %d tasks, err %v: %s", len(results), len(tasks), err, body)
		}
		return results
	}
	lookups := func(url string) int64 { st := workerStatus(t, url); return st.TableHits + st.TableMisses }

	alone := httptest.NewServer(NewWorker(expr.NewRegistry()).Handler())
	defer alone.Close()
	var want []*wire.TaskResult
	for _, task := range tasks {
		want = append(want, post(alone.URL, []*wire.Task{task})...)
	}
	if got := lookups(alone.URL); got != 3*n {
		t.Fatalf("one-task frames looked tables up %d times, want %d", got, 3*n)
	}
	framed := httptest.NewServer(NewWorker(expr.NewRegistry()).Handler())
	defer framed.Close()
	same := func(tasks []*wire.Task, got, want []*wire.TaskResult) {
		t.Helper()
		for i := range tasks {
			if got[i].Err != "" || want[i].Err != "" {
				t.Fatalf("task %s: %q / %q", tasks[i].Task, got[i].Err, want[i].Err)
			}
			a, b := wire.EncodeResultBatch(got[i:i+1]), wire.EncodeResultBatch(want[i:i+1])
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("task %s answers differently in one frame than alone", tasks[i].Task)
			}
			a.Close()
			b.Close()
		}
	}
	got := post(framed.URL, tasks)
	if l := lookups(framed.URL); l != 3 {
		t.Errorf("one frame looked tables up %d times, want 3 (once per build of its one chain job)", l)
	}
	same(tasks, got, want)
	if len(got[0].Rows) == 0 || len(got[1].Sel) == 0 || len(got[1].Sel) == len(probes[0]) {
		t.Errorf("the chain joined %d rows and the scan kept %d positions: the probes test nothing", len(got[0].Rows), len(got[1].Sel))
	}
	// One op under two build lists is two jobs: a task whose b0 is built
	// from another side joins in a frame what it joins alone.
	other := *tasks[0]
	other.Builds = slices.Clone(other.Builds)
	other.Builds[0].Blocks = sideRefs[2:3] // no b.k: nothing joins
	pair := []*wire.Task{tasks[0], &other}
	want = append(post(alone.URL, pair[:1]), post(alone.URL, pair[1:])...)
	if len(want[1].Rows) >= len(want[0].Rows) {
		t.Fatalf("the other b0 joined %d rows of %d: it tests nothing", len(want[1].Rows), len(want[0].Rows))
	}
	same(pair, post(framed.URL, pair), want)
}

// TestTableKeyHasNoStepName: a built table is a function of its mirror
// file and its wrap, filter and keys, not of the chain step that names
// it, so one build reached as b0 in one job and as b1 in another is
// built once on a worker, and both probes join the same rows.
func TestTableKeyHasNoStepName(t *testing.T) {
	kv := func(k int) data.Value { return data.Object(data.Field{Name: "k", Value: data.Int(int64(k))}) }
	build, probe := make([]data.Value, 30), make([]data.Value, 20)
	for i := range build {
		build[i] = kv(i)
	}
	for i := range probe {
		probe[i] = kv(i * 2)
	}
	builds, probes := mirrorBlocks(t, build), mirrorBlocks(t, probe)
	w := NewWorker(expr.NewRegistry())
	var rows [][]string
	for _, name := range []string{"b0", "b1"} {
		ref := wire.BuildRef{Name: name, Wrap: "b", Keys: []data.Path{data.MustParsePath("b.k")}, Blocks: builds}
		op := &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "t"},
			Steps: []physop.ChainStep{{Build: name, Keys: []data.Path{data.MustParsePath("t.k")}}}}
		res := w.runOne(&wire.Task{Task: "t-m0", Kind: "map", Op: op, Block: probes[0], Builds: []wire.BuildRef{ref}})
		if res.Err != "" {
			t.Fatalf("step %s: %s", name, res.Err)
		}
		rows = append(rows, rowStrings(res.Rows))
	}
	if len(rows[0]) != 15 || !reflect.DeepEqual(rows[0], rows[1]) {
		t.Errorf("the probes joined %d and %d rows, want the same 15", len(rows[0]), len(rows[1]))
	}
	if n, _, hits, misses, _ := w.tables.Stats(); n != 1 || misses != 1 || hits != 1 {
		t.Errorf("tables=%d hits=%d misses=%d; want one table, built once and found once", n, hits, misses)
	}
}

// TestGCDropsDeadMirrorFiles: a GC request naming a mirror file drops
// that file's cached blocks and the tables built from it — in flight or
// built — and nothing else; the cost accounting follows.
func TestGCDropsDeadMirrorFiles(t *testing.T) {
	rec := []data.Value{data.Object(data.Field{Name: "k", Value: data.Int(1)})}
	live, dead := mirrorBlocks(t, rec, rec), mirrorBlocks(t, rec)
	refs := []wire.BuildRef{
		{Name: "live", Wrap: "b", Keys: []data.Path{data.MustParsePath("b.k")}, Blocks: live[1:]},
		{Name: "dead", Wrap: "c", Keys: []data.Path{data.MustParsePath("c.k")}, Blocks: dead},
	}
	task := &wire.Task{Task: "t-m0", Kind: "map", Block: live[0], Builds: refs,
		Op: &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "t"}, Steps: []physop.ChainStep{
			{Build: "live", Keys: []data.Path{data.MustParsePath("t.k")}},
			{Build: "dead", Keys: []data.Path{data.MustParsePath("t.k")}},
		}}}
	w := NewWorker(expr.NewRegistry())
	if res := w.runOne(task); res.Err != "" || len(res.Rows) != 1 {
		t.Fatalf("probe: err=%q rows=%d", res.Err, len(res.Rows))
	}
	_, liveCost, _, _, _ := w.blocks.Stats()

	body, _ := json.Marshal(wire.ShuffleGCRequest{Files: []string{dead[0].File}})
	req := httptest.NewRequest(http.MethodPost, "/shuffle/gc", bytes.NewReader(body))
	rr := httptest.NewRecorder()
	w.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("gc: HTTP %d", rr.Code)
	}
	if n, cost, _, _, _ := w.blocks.Stats(); n != 2 || cost >= liveCost || cost <= 0 {
		t.Errorf("%d blocks (cost %d of %d) cached after the GC, want the live file's 2", n, cost, liveCost)
	}
	if n, cost, _, _, _ := w.tables.Stats(); n != 1 || cost != 1 {
		t.Errorf("%d tables (cost %d) cached after the GC, want 1", n, cost)
	}
	// The live entries still hit; a dropped one is rebuilt if asked for.
	if res := w.runOne(task); res.Err != "" || len(res.Rows) != 1 {
		t.Fatalf("probe after gc: err=%q rows=%d", res.Err, len(res.Rows))
	}
	if _, _, _, misses, _ := w.tables.Stats(); misses != 3 {
		t.Errorf("table misses = %d, want 3 (two builds, then the dropped one again)", misses)
	}
	if _, _, _, misses, _ := w.blocks.Stats(); misses != 4 {
		t.Errorf("block misses = %d, want 4 (three decodes, then the dropped block again)", misses)
	}
}
