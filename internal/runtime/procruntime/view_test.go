package procruntime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
)

// These tests hold the view rule: a broadcast of a file that an
// unpruned scan wrote of its whole input is built by the workers from
// the input's mirror (the scan's wrap and filter over the base blocks
// in the order the scan visited them), and the table follows the base
// file, not the view.

// viewHarness is a fleet of real workers, a file system of small blocks
// holding base (records {k: i mod 7, v: i}, eight blocks), and an
// environment whose tasks run on the fleet.
type viewHarness struct {
	ex      executor
	env     *mapreduce.Env
	spill   string
	workers []*Worker
	base    *dfs.File
}

func newViewHarness(t *testing.T, workers int) *viewHarness {
	t.Helper()
	h := &viewHarness{spill: t.TempDir()}
	f := newBareFleet(t, Config{SpillDir: h.spill})
	for range workers {
		w := NewWorker(expr.NewRegistry())
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		register(t, f, ts.URL)
		h.workers = append(h.workers, w)
	}
	fsys := dfs.New(dfs.WithBlockSize(256))
	w := fsys.Create("base")
	for i := range 120 {
		w.Append(data.Object(data.Field{Name: "k", Value: data.Int(int64(i % 7))}, data.Field{Name: "v", Value: data.Int(int64(i))}))
	}
	h.base = w.Close()
	if h.base.NumBlocks() != 8 {
		t.Fatalf("base has %d blocks, want 8", h.base.NumBlocks())
	}
	h.ex = executor{f: f, fs: fsys}
	h.env = &mapreduce.Env{FS: fsys, Reg: expr.NewRegistry(), Exec: h.ex, Sim: cluster.New(cluster.Config{
		Workers: 2, MapSlotsPerWorker: 2, ReduceSlotsPerWorker: 1, SlotMemory: 1 << 30,
		JobStartup: 1, TaskOverhead: 1, ScanBps: 1e6, ShuffleBps: 1e6, WriteBps: 1e6,
	})}
	return h
}

// scan runs op over base on the fleet as a pilot would — starting on
// splits first (nil: every split) and taking the others, in the order
// given, while it has seen fewer than stopAfter rows — and returns its
// output.
func (h *viewHarness) scan(t *testing.T, name string, op *physop.OpSpec, first, more []int, stopAfter int64) *dfs.File {
	t.Helper()
	spec, err := op.Bind(mapreduce.Spec{Name: name, Output: name, StopAfter: stopAfter}, h.base)
	if err != nil {
		t.Fatal(err)
	}
	if first != nil {
		spec.Inputs[0].Splits, spec.MoreSplits = first, [][]int{more}
	}
	res, err := mapreduce.Run(h.env, spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Output
}

// mirrored reports whether the fleet holds a mirror of file.
func (h *viewHarness) mirrored(file *dfs.File) bool {
	h.ex.f.mu.Lock()
	defer h.ex.f.mu.Unlock()
	return h.ex.f.mirrors[file] != nil
}

var (
	kOf       = data.MustParsePath("t.k")
	wholeScan = &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t"}}
	// edgeScan keeps the rows of the first and the last few blocks.
	edgeScan = &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t", Filter: &expr.Or{Terms: []expr.Expr{
		&expr.Cmp{Op: expr.LT, L: expr.NewCol("t.v"), R: expr.NewLit(data.Int(30))},
		&expr.Cmp{Op: expr.GE, L: expr.NewCol("t.v"), R: expr.NewLit(data.Int(80))},
	}}}}
)

// TestViewBuildEqualsMaterializedBuild: the table a worker builds from
// a view's base equals, group by group and row by row, the one it
// builds from the view file itself — for an unfiltered leaf, a filtered
// leaf and a pilot that visited the splits out of file order — while
// neither the view file is mirrored nor the base mirrored twice. The
// unfiltered builds in file order and out of it differ only in their
// blocks' order, so they are two tables.
func TestViewBuildEqualsMaterializedBuild(t *testing.T) {
	h := newViewHarness(t, 1)
	w := h.workers[0]
	reversed := []int{7, 6, 5, 4, 2, 1}
	views := map[string]*dfs.File{
		"unfiltered":   h.scan(t, "unfiltered", wholeScan, nil, nil, 1<<40),
		"filtered":     h.scan(t, "filtered", edgeScan, nil, nil, 1<<40),
		"out-of-order": h.scan(t, "out-of-order", wholeScan, []int{3, 0}, reversed, 1<<40),
	}
	for _, name := range []string{"unfiltered", "filtered", "out-of-order"} {
		view := views[name]
		if view.View() == nil {
			t.Fatalf("%s: the scan over the whole input recorded no view", name)
		}
		ref, err := h.ex.buildRef(mapreduce.Broadcast{Name: "b0", File: view, KeyPaths: []data.Path{kOf}})
		if err != nil {
			t.Fatal(err)
		}
		base, err := h.ex.f.mirrorFile(h.ex.fs, h.base)
		if err != nil {
			t.Fatal(err)
		}
		if h.mirrored(view) || len(ref.Blocks) != 8 || ref.Blocks[0].File != base[0].File || ref.Wrap != "t" {
			t.Fatalf("%s: the build reads %d blocks of %s wrapped %q (view mirrored: %v), want the base's 8 wrapped t",
				name, len(ref.Blocks), ref.Blocks[0].File, ref.Wrap, h.mirrored(view))
		}
		fromBase, err := w.table(ref)
		if err != nil {
			t.Fatal(err)
		}
		own, err := h.ex.f.mirrorFile(h.ex.fs, view)
		if err != nil {
			t.Fatal(err)
		}
		fromView, err := w.table(wire.BuildRef{Name: "b0", Keys: []data.Path{kOf}, Blocks: own})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for k := range 8 {
			got, want := rowStrings(fromBase.Probe(data.Int(int64(k)))), rowStrings(fromView.Probe(data.Int(int64(k))))
			if !slices.Equal(got, want) {
				t.Errorf("%s: group %d built from the base is %v, from the view file %v", name, k, got, want)
			}
			rows += len(want)
		}
		if rows != int(view.NumRecords()) || rows == 0 {
			t.Errorf("%s: the groups hold %d rows, the view %d", name, rows, view.NumRecords())
		}
	}
	if n, _, _, misses, _ := w.tables.Stats(); n != 6 || misses != 6 {
		t.Errorf("%d tables from %d builds, want 6 from 6 (three from the base, three from the view files)", n, misses)
	}
}

// TestViewBuildTakesTheMirrorPathOtherwise: a broadcast is built from
// its own file's mirror when the view's op is a pruned scan or a chain,
// when the broadcast has a wrap or filter of its own, when the file is
// no view (an early-stopped pilot), and when the view's base is no
// longer the file its name holds: the worker reads the file's own
// blocks through the broadcast's own wrap and filter.
func TestViewBuildTakesTheMirrorPathOtherwise(t *testing.T) {
	h := newViewHarness(t, 1)
	pruned := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t"}, Prune: map[string]map[string]bool{"t": {"k": true}}}
	chained := h.env.FS.Create("chained")
	chained.AppendAll(h.base.Block(0).Records())
	chained.SetView(&dfs.View{Base: h.base, Splits: []int{0}, Op: &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{}}})
	early := h.scan(t, "early", wholeScan, nil, nil, 2)
	orphan := h.scan(t, "orphan", wholeScan, nil, nil, 1<<40)
	cases := []struct {
		name string
		b    mapreduce.Broadcast
	}{
		{"pruned scan", mapreduce.Broadcast{File: h.scan(t, "pruned", pruned, nil, nil, 1<<40), KeyPaths: []data.Path{kOf}}},
		{"chain op", mapreduce.Broadcast{File: chained.Close(), KeyPaths: []data.Path{data.MustParsePath("k")}}},
		{"own wrap", mapreduce.Broadcast{File: h.scan(t, "wrapped", wholeScan, nil, nil, 1<<40), Wrap: "w", KeyPaths: []data.Path{data.MustParsePath("w.t.k")}}},
		{"own filter", mapreduce.Broadcast{File: h.scan(t, "filtered", wholeScan, nil, nil, 1<<40), KeyPaths: []data.Path{kOf}, Filter: edgeScan.Source.Filter}},
		{"early-stopped pilot", mapreduce.Broadcast{File: early, KeyPaths: []data.Path{kOf}}},
		{"replaced base", mapreduce.Broadcast{File: orphan, KeyPaths: []data.Path{kOf}}},
	}
	if early.View() != nil || early.NumRecords() >= h.base.NumRecords() {
		t.Fatalf("the early-stopped pilot kept %d of %d rows and recorded view %v", early.NumRecords(), h.base.NumRecords(), early.View())
	}
	for _, c := range cases {
		if c.name != "early-stopped pilot" && c.name != "chain op" && c.b.File.View() == nil {
			t.Fatalf("%s: the scan recorded no view", c.name)
		}
		if c.name == "replaced base" {
			h.env.FS.Create("base").AppendAll(h.base.Block(0).Records())
		}
		c.b.Name = "b0"
		ref, err := h.ex.buildRef(c.b)
		if err != nil {
			t.Fatal(err)
		}
		own, err := h.ex.f.mirrorFile(h.ex.fs, c.b.File)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ref.Blocks, own) || ref.Wrap != c.b.Wrap || ref.Filter != c.b.Filter {
			t.Errorf("%s: the build reads %v wrapped %q, want its own file's mirror %v wrapped %q", c.name, ref.Blocks, ref.Wrap, own, c.b.Wrap)
		}
	}
}

// gc posts a GC request naming files to w.
func gc(t *testing.T, w *Worker, files ...string) {
	t.Helper()
	body, _ := json.Marshal(wire.ShuffleGCRequest{Files: files})
	rr := httptest.NewRecorder()
	w.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/shuffle/gc", bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		t.Fatalf("gc: HTTP %d", rr.Code)
	}
}

// TestViewTableFollowsTheBaseFile: a table built from a view's base is
// cached under the base's mirror. A GC naming nothing, or the view
// file's own mirror (mirrored because a task scans it), leaves it; a GC
// naming the base's mirror drops it.
func TestViewTableFollowsTheBaseFile(t *testing.T) {
	h := newViewHarness(t, 1)
	w := h.workers[0]
	view := h.scan(t, "pilot", edgeScan, nil, nil, 1<<40)
	chain := &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "p"},
		Steps: []physop.ChainStep{{Build: "b0", Keys: []data.Path{data.MustParsePath("p.t.k")}}}}
	sample, _ := view.FirstRecord()
	out, err := h.ex.ExecMap(mapreduce.MapExec{JobName: "probe", TaskName: "probe-m0", File: view, Op: chain,
		Broadcasts: []mapreduce.Broadcast{physop.BindBuild(mapreduce.Broadcast{Name: "b0", File: view, KeyPaths: []data.Path{kOf}}, sample)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) == 0 {
		t.Fatal("the probe joined no rows")
	}
	own, base := h.ex.f.mirrors[view].path, h.ex.f.mirrors[h.base].path
	for _, files := range [][]string{nil, {own}} {
		gc(t, w, files...)
		if n, _, _, _, _ := w.tables.Stats(); n != 1 {
			t.Fatalf("%d tables cached after a GC of %v, want the view's 1", n, files)
		}
	}
	gc(t, w, base)
	if n, _, _, _, _ := w.tables.Stats(); n != 0 {
		t.Errorf("%d tables cached after a GC of the base's mirror, want 0", n)
	}
}

// TestViewBroadcastIsNeverMirrored: twenty passes of a pilot-shaped scan
// of the live base followed by a chain job that broadcasts the scan's
// output, each pass's files removed after it: the fleet holds one
// mirror, the base's, and so does the spill directory; each worker built
// the table at most once.
func TestViewBroadcastIsNeverMirrored(t *testing.T) {
	h := newViewHarness(t, 2)
	chain := &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "p"},
		Steps: []physop.ChainStep{{Build: "b0", Keys: []data.Path{data.MustParsePath("p.k")}}}}
	for pass := range 20 {
		name := fmt.Sprintf("pilot%d", pass)
		view := h.scan(t, name, edgeScan, nil, nil, 1<<40)
		sample, _ := view.FirstRecord()
		spec, err := chain.Bind(mapreduce.Spec{Name: name + "-join", Output: name + "-join",
			Broadcasts: []mapreduce.Broadcast{physop.BindBuild(mapreduce.Broadcast{Name: "b0", File: view, KeyPaths: []data.Path{kOf}}, sample)}}, h.base)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mapreduce.Run(h.env, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.OutRecords == 0 {
			t.Fatalf("pass %d joined no rows", pass)
		}
		for _, file := range []string{name, name + "-join"} {
			if err := h.env.FS.Remove(file); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.ex.f.RetireJob("last")
	h.ex.f.sweeps.Wait()
	h.ex.f.mu.Lock()
	mirrors, base := len(h.ex.f.mirrors), h.ex.f.mirrors[h.base]
	h.ex.f.mu.Unlock()
	if mirrors != 1 || base == nil {
		t.Fatalf("%d mirrors held after 20 passes (the base's among them: %v), want the base's alone", mirrors, base != nil)
	}
	entries, err := os.ReadDir(h.spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Join(h.spill, entries[0].Name()) != base.path {
		t.Errorf("the spill directory holds %v, want the base's mirror alone", entries)
	}
	for i, w := range h.workers {
		if _, _, _, misses, _ := w.tables.Stats(); misses > 1 {
			t.Errorf("worker %d built the table %d times in 20 passes, want at most once", i, misses)
		}
	}
}

// One op of ViewBuildHit = a map task of a one-step chain over a
// 256-row probe split whose broadcast is a view: the controller
// resolves the broadcast to the base's warm mirror (4,096 rows in five
// blocks, half kept by the scan's filter) and a worker runs the task,
// finding the table it built on the first op. From that op on, the
// collector is off and one P runs, as for MirrorFile.
func BenchmarkViewBuildHit(b *testing.B) {
	fsys := dfs.New(dfs.WithBlockSize(16 << 10))
	write := func(name string, n int) *dfs.File {
		w := fsys.Create(name)
		for i := range n {
			w.Append(data.Object(data.Field{Name: "k", Value: data.Int(int64(i))}, data.Field{Name: "v", Value: data.Int(int64(i % 2))}))
		}
		return w.Close()
	}
	base, probe := write("base", 4096), write("probe", 256)
	scan := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t",
		Filter: &expr.Cmp{Op: expr.EQ, L: expr.NewCol("t.v"), R: expr.NewLit(data.Int(0))}}}
	spec, err := scan.Bind(mapreduce.Spec{Name: "pilot", Output: "pilot"}, base)
	if err != nil {
		b.Fatal(err)
	}
	env := &mapreduce.Env{FS: fsys, Reg: expr.NewRegistry(), Sim: cluster.New(cluster.DefaultConfig())}
	res, err := mapreduce.Run(env, spec)
	if err != nil || res.Output.View() == nil || base.NumBlocks() != 5 {
		b.Fatalf("pilot: %v (view %v over %d blocks)", err, res.Output.View(), base.NumBlocks())
	}
	ex := executor{f: newBareFleet(b, Config{SpillDir: b.TempDir()}), fs: fsys}
	probes, err := ex.f.mirrorFile(fsys, probe)
	if err != nil {
		b.Fatal(err)
	}
	build := mapreduce.Broadcast{Name: "b0", File: res.Output, KeyPaths: []data.Path{kOf}}
	chain := &physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "p"},
		Steps: []physop.ChainStep{{Build: "b0", Keys: []data.Path{data.MustParsePath("p.k")}}}}
	w := NewWorker(expr.NewRegistry())
	op := func() {
		ref, err := ex.buildRef(build)
		if err != nil {
			b.Fatal(err)
		}
		if res := w.runTask(&wire.Task{Task: "join-m0", Kind: "map", Op: chain, Block: probes[0], Builds: []wire.BuildRef{ref}}); res.Err != "" || len(res.Rows) != 128 {
			b.Fatalf("join: err=%q rows=%d, want 128", res.Err, len(res.Rows))
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
}
