package physop

import (
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
		ht, err := mapreduce.BuildHashTable(reg, mapreduce.Broadcast{Name: name, Wrap: name, KeyPaths: key}, [][]data.Value{table(rows)}, nil)
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
	if err != nil || k.BatchMap == nil {
		b.Fatalf("chain compiled without a columnar kernel (err %v)", err)
	}
	var aux atomic.Value // the split's columnar image, built by the first task
	run := func() int {
		out, err := mapreduce.RunMapTask(&mapreduce.MapTask{Reg: reg, Recs: split, Aux: &aux, Map: k.Map, BatchMap: k.BatchMap, Builds: builds})
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
