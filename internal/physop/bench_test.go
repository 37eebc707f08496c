package physop

import (
	"runtime/debug"
	"sync/atomic"
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
)

// BenchmarkProbeChain runs one map task of a three-step broadcast chain
// over a warm 4,096-row split: every probe row matches once per step,
// so a task merges 12,288 rows — 8,192 of them intermediate, in the
// scratch arena — and emits 4,096. CI holds its allocs/op to a ceiling
// (BENCH_allocs_baseline.txt) that only per-chunk allocation can meet.
func BenchmarkProbeChain(b *testing.B) {
	const rows = 4096
	table := func(n int) []data.Value {
		recs := make([]data.Value, n)
		for i := range recs {
			recs[i] = data.Object(data.Field{Name: "k", Value: data.Int(int64(i))})
		}
		return recs
	}
	reg := expr.NewRegistry()
	op := &OpSpec{Kind: Chain, Source: &Source{Wrap: "t"}}
	builds := map[string]*mapreduce.HashTable{}
	for i, name := range []string{"b0", "b1", "b2"} {
		key := []data.Path{data.MustParsePath(name + ".k")}
		recs := table(rows)
		ht, err := mapreduce.BuildHashTable(reg, BindBuild(mapreduce.Broadcast{Name: name, Wrap: name, KeyPaths: key}, recs[0]),
			[]mapreduce.Split{{Recs: recs}}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		builds[name] = ht
		probeKey := []data.Path{data.MustParsePath("t.k")}
		if i > 0 {
			probeKey = []data.Path{data.MustParsePath("b0.k")}
		}
		op.Steps = append(op.Steps, ChainStep{Build: name, Keys: probeKey})
	}
	split := table(rows)
	k, err := Compile(op, 0, split[0])
	if err != nil {
		b.Fatal(err)
	}
	var aux atomic.Value // the split's columnar image, built by the first task
	run := func() int {
		out, err := mapreduce.RunMapTask(&mapreduce.MapTask{Reg: reg, Recs: split, Aux: &aux, Map: k.Map, Builds: builds})
		if err != nil {
			b.Fatal(err)
		}
		return len(out.Rows)
	}
	if n := run(); n != rows {
		b.Fatalf("chain emitted %d rows, want %d", n, rows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkBuildHashTable is one broadcast build over a warm 4,096-row
// split with a filter that keeps two rows in three, every key distinct:
// the selection, the wrapped rows and the interned key strings come from
// the split's cached image, the table is indexed from the kernel's
// positions into it. It allocates per table (its row array, keys,
// offsets and slots), never per key or scanned row. CI holds its
// allocs/op and B/op to ceilings.
func BenchmarkBuildHashTable(b *testing.B) {
	benchBuild(b, func(i int) int64 { return int64(i) },
		&expr.Cmp{Op: expr.NE, L: expr.NewCol("b.flag"), R: expr.NewLit(data.Int(1))}, 4096-(4096+1)/3)
}

// BenchmarkBuildHashTableGrouped is BenchmarkBuildHashTable unfiltered,
// 64 rows per key, each key's rows spread over the split: the index's
// grouping pass, gated by its own ceilings.
func BenchmarkBuildHashTableGrouped(b *testing.B) {
	benchBuild(b, func(i int) int64 { return int64(i % 64) }, nil, 4096)
}

// benchBuild times one build over a warm 4,096-row split keyed by key,
// after checking that probing every key finds the kept rows.
func benchBuild(b *testing.B, key func(i int) int64, filter expr.Expr, kept int) {
	const rows = 4096
	recs := make([]data.Value, rows)
	for i := range recs {
		recs[i] = data.Object(data.Field{Name: "flag", Value: data.Int(int64(i % 3))}, data.Field{Name: "k", Value: data.Int(key(i))})
	}
	build := BindBuild(mapreduce.Broadcast{Name: "b", Wrap: "b", KeyPaths: []data.Path{data.MustParsePath("b.k")},
		Filter: filter}, recs[0])
	var aux atomic.Value // the split's columnar image, built by the first build
	split := []mapreduce.Split{{Recs: recs, Aux: &aux}}
	run := func() *mapreduce.HashTable {
		ht, err := mapreduce.BuildHashTable(nil, build, split, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		return ht
	}
	ht, found := run(), 0
	for i := range rows {
		found += len(ht.Probe(data.Int(int64(i))))
	}
	if found != kept {
		b.Fatalf("build kept %d rows, want %d", found, kept)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkShuffle is one repartition job's shuffle as production runs
// it: the repartition kernel over a cold 8,000-row input (fresh blocks,
// so every split builds its image: wrapped rows, key columns, hashes),
// each map task's output positions into its split's image by partition,
// the reduce-side gather and sort and an identity reducer. It allocates
// per split, per task's positions and per output block, not per pair on
// the map side. The collector is off:
// a collection empties the row and pair pools mid-job, and the count
// would follow GC timing. Run it with:
//
//	go test -run='^$' -bench=BenchmarkShuffle -benchtime=1x ./internal/physop
func BenchmarkShuffle(b *testing.B) {
	op := &OpSpec{Kind: Repartition, Left: &Source{Wrap: "l"}, LeftKeys: []data.Path{data.MustParsePath("l.grp")}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := testEnv()
		w := env.FS.Create("l")
		for r := 0; r < 8000; r++ {
			w.Append(data.Object(
				data.Field{Name: "grp", Value: data.Int(int64(r % 100))},
				data.Field{Name: "id", Value: data.Int(int64(r))},
				data.Field{Name: "pad", Value: data.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")},
			))
		}
		spec, err := op.Bind(mapreduce.Spec{Name: "shuffle", Output: "shuffled", NumReducers: 8}, w.Close())
		if err != nil {
			b.Fatal(err)
		}
		spec.Reduce = func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Pair) {
			for _, g := range group {
				rc.Emit(g.Rec)
			}
		}
		b.StartTimer()
		res, err := mapreduce.Run(env, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.OutRecords != 8000 {
			b.Fatalf("out = %d, want 8000", res.OutRecords)
		}
	}
}
