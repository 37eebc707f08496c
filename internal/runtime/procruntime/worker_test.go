package procruntime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
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
// CPU once per record, and all three tasks keep the same rows.
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
	block := filepath.Join(t.TempDir(), "b0.blk")
	if err := wire.WriteBlockFile(block, recs); err != nil {
		t.Fatal(err)
	}
	scan := func(filter expr.Expr) *wire.TaskResult {
		t.Helper()
		res := w.runTask(&wire.Task{Task: "t-m0", Kind: "map", Block: block,
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
		d, _ := blk.aux.Load().(*batch.Data)
		return d
	}

	viaCmp := scan(&expr.Cmp{Op: expr.LT, L: expr.NewCol("t.v"), R: expr.NewLit(data.Int(40))})
	d := image()
	if d == nil {
		t.Fatal("the scan left no columnar image on the cached block")
	}
	if viaCmp.CPUMap != 0 || len(viaCmp.Rows) != 40 {
		t.Errorf("column-wise scan charged CPUMap=%v for %d rows, want 0 for 40", viaCmp.CPUMap, len(viaCmp.Rows))
	}
	for task := 0; task < 2; task++ {
		viaCall := scan(&expr.Call{Name: "small", Args: []expr.Expr{expr.NewCol("t.v")}})
		if want := 0.25 * float64(len(recs)); viaCall.CPUMap != want || viaCall.CPUTotal != want {
			t.Errorf("task %d charged CPUMap=%v CPUTotal=%v, want %v (one UDF call per record)", task, viaCall.CPUMap, viaCall.CPUTotal, want)
		}
		if !reflect.DeepEqual(rowStrings(viaCall.Rows), rowStrings(viaCmp.Rows)) {
			t.Errorf("task %d: the UDF filter kept %d rows, the comparison %d", task, len(viaCall.Rows), len(viaCmp.Rows))
		}
		if image() != d {
			t.Fatalf("task %d replaced the block's image", task)
		}
		if &viaCall.Rows[0].Fields()[0] != &d.Wrapped("t")[0].Fields()[0] {
			t.Errorf("task %d wrapped its rows anew instead of reading the image's", task)
		}
	}
}

// TestBroadcastTableBuiltOncePerWorker: the map tasks of a
// broadcast-join wave run in parallel on a worker and all miss the
// table at the same instant. The first builds it — decoding each
// build-side block once — and the rest wait for that build instead of
// making their own copy; the rows are what a one-at-a-time worker
// produces.
func TestBroadcastTableBuiltOncePerWorker(t *testing.T) {
	const probes, buildBlocks = 8, 3
	dir := t.TempDir()
	write := func(name string, recs []data.Value) string {
		path := filepath.Join(dir, name)
		if err := wire.WriteBlockFile(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	kv := func(k, v int) data.Value {
		return data.Object(data.Field{Name: "k", Value: data.Int(int64(k))}, data.Field{Name: "v", Value: data.Int(int64(v))})
	}
	ref := wire.BuildRef{Name: "b0", Wrap: "b", Keys: []data.Path{data.MustParsePath("b.k")}, Version: dir}
	for i := 0; i < buildBlocks; i++ {
		recs := make([]data.Value, 200)
		for r := range recs {
			recs[r] = kv(i*len(recs)+r, r)
		}
		ref.Blocks = append(ref.Blocks, write(fmt.Sprintf("build%d.blk", i), recs))
	}
	op := &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "t"},
		Steps: []physop.ChainStep{{Build: "b0", Keys: []data.Path{data.MustParsePath("t.k")}}}}
	tasks := make([]*wire.Task, probes)
	for i := range tasks {
		recs := make([]data.Value, 50)
		for r := range recs {
			recs[r] = kv((i*37+r*11)%(buildBlocks*200), i)
		}
		tasks[i] = &wire.Task{Task: fmt.Sprintf("t-m%d", i), Kind: "map", Op: op,
			Block: write(fmt.Sprintf("probe%d.blk", i), recs), Builds: []wire.BuildRef{ref}}
	}

	serial := NewWorker(expr.NewRegistry())
	want := make([][]string, probes)
	for i, task := range tasks {
		res := serial.runTask(task)
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
			got[i] = w.runTask(task)
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
	if _, _, hits, misses, _ := w.tables.stats(); misses != 1 || hits != probes-1 {
		t.Errorf("table misses = %d, hits = %d; want 1 and %d (one build, the rest wait for it)", misses, hits, probes-1)
	}
	// One decode per block: each probe block by its own task, each
	// build-side block by the one table build.
	if _, _, _, misses, _ := w.blocks.stats(); misses != probes+buildBlocks {
		t.Errorf("block misses = %d, want %d (one decode per block)", misses, probes+buildBlocks)
	}
}

// TestGCDropsDeadMirrorDirs: a GC request naming a mirror directory
// drops that directory's cached blocks and the tables built from it —
// in flight or built — and nothing else; the cost accounting follows.
func TestGCDropsDeadMirrorDirs(t *testing.T) {
	liveDir, deadDir := t.TempDir(), t.TempDir()
	rec := []data.Value{data.Object(data.Field{Name: "k", Value: data.Int(1)})}
	write := func(dir, name string) string {
		path := filepath.Join(dir, name)
		if err := wire.WriteBlockFile(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	probe := write(liveDir, "b0.blk")
	refs := []wire.BuildRef{
		{Name: "live", Wrap: "b", Keys: []data.Path{data.MustParsePath("b.k")}, Version: liveDir, Blocks: []string{write(liveDir, "b1.blk")}},
		{Name: "dead", Wrap: "c", Keys: []data.Path{data.MustParsePath("c.k")}, Version: deadDir, Blocks: []string{write(deadDir, "b0.blk")}},
	}
	task := &wire.Task{Task: "t-m0", Kind: "map", Block: probe, Builds: refs,
		Op: &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "t"}, Steps: []physop.ChainStep{
			{Build: "live", Keys: []data.Path{data.MustParsePath("t.k")}},
			{Build: "dead", Keys: []data.Path{data.MustParsePath("t.k")}},
		}}}
	w := NewWorker(expr.NewRegistry())
	if res := w.runTask(task); res.Err != "" || len(res.Rows) != 1 {
		t.Fatalf("probe: err=%q rows=%d", res.Err, len(res.Rows))
	}
	_, liveCost, _, _, _ := w.blocks.stats()

	body, _ := json.Marshal(wire.ShuffleGCRequest{Dirs: []string{deadDir}})
	req := httptest.NewRequest(http.MethodPost, "/shuffle/gc", bytes.NewReader(body))
	rr := httptest.NewRecorder()
	w.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("gc: HTTP %d", rr.Code)
	}
	if n, cost, _, _, _ := w.blocks.stats(); n != 2 || cost >= liveCost || cost <= 0 {
		t.Errorf("%d blocks (cost %d of %d) cached after the GC, want the live directory's 2", n, cost, liveCost)
	}
	if n, cost, _, _, _ := w.tables.stats(); n != 1 || cost != 1 {
		t.Errorf("%d tables (cost %d) cached after the GC, want 1", n, cost)
	}
	// The live entries still hit; a dropped one is rebuilt if asked for.
	if res := w.runTask(task); res.Err != "" || len(res.Rows) != 1 {
		t.Fatalf("probe after gc: err=%q rows=%d", res.Err, len(res.Rows))
	}
	if _, _, _, misses, _ := w.tables.stats(); misses != 3 {
		t.Errorf("table misses = %d, want 3 (two builds, then the dropped one again)", misses)
	}
	if _, _, _, misses, _ := w.blocks.stats(); misses != 4 {
		t.Errorf("block misses = %d, want 4 (three decodes, then the dropped block again)", misses)
	}
}

// TestOnceCache pins what the worker's three caches rely on: FIFO
// eviction by cost, peek that never builds, drop that keeps the cost
// honest, and a build that finishes after its key was dropped staying
// out of the cache.
func TestOnceCache(t *testing.T) {
	c := newOnceCache[string](10)
	put := func(key string, cost int64) {
		t.Helper()
		if v, err := c.get(key, func() (string, int64, error) { return "v" + key, cost, nil }); err != nil || v != "v"+key {
			t.Fatalf("get(%s) = %q, %v", key, v, err)
		}
	}
	put("a", 4)
	put("b", 4)
	if _, ok := c.peek("zz"); ok {
		t.Error("peek found a key nobody built")
	}
	if n, _, _, misses, _ := c.stats(); n != 2 || misses != 2 {
		t.Errorf("peek of an unknown key changed the cache: %d entries, %d misses", n, misses)
	}
	put("c", 4) // 12 > 10: the oldest goes
	if _, ok := c.peek("a"); ok {
		t.Error("the oldest entry survived an over-budget insert")
	}
	if v, ok := c.peek("b"); !ok || v != "vb" {
		t.Errorf("peek(b) = %q, %v", v, ok)
	}
	if n, cost, _, _, evicts := c.stats(); n != 2 || cost != 8 || evicts != 1 {
		t.Errorf("after eviction: %d entries, cost %d, %d evictions; want 2, 8, 1", n, cost, evicts)
	}
	c.drop(func(key string) bool { return key == "b" })
	if n, cost, _, _, evicts := c.stats(); n != 1 || cost != 4 || evicts != 1 {
		t.Errorf("after drop: %d entries, cost %d, %d evictions; want 1, 4, 1", n, cost, evicts)
	}
	// Dropped mid-build: the caller still gets its value, the cache does
	// not keep it.
	v, err := c.get("d", func() (string, int64, error) {
		c.drop(func(key string) bool { return key == "d" })
		return "vd", 4, nil
	})
	if err != nil || v != "vd" {
		t.Fatalf("get(d) = %q, %v", v, err)
	}
	if _, ok := c.peek("d"); ok {
		t.Error("an entry dropped while it was being built was cached")
	}
	if n, cost, _, _, _ := c.stats(); n != 1 || cost != 4 {
		t.Errorf("after the dropped build: %d entries, cost %d; want 1, 4", n, cost)
	}
}
