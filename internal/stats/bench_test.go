package stats

import (
	"testing"

	"dyno/internal/data"
)

var benchPaths = []data.Path{
	data.MustParsePath("o.o_orderkey"),
	data.MustParsePath("o.o_custkey"),
}

func BenchmarkCollectorObserve(b *testing.B) {
	c := NewCollector(benchPaths, 1024)
	rec := orderRec(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ObserveInput()
		c.ObserveOutput(rec, 120)
	}
}

// BenchmarkMergePartials is shaped like Q7's widest job: 1,350 tasks of
// 56 rows over two columns at k=512, one column overflowing and one
// not. It allocates per column, not per partial or per hash.
func BenchmarkMergePartials(b *testing.B) {
	parts := make([]*Partial, 1350)
	for t := range parts {
		c := NewCollector(benchPaths, 512)
		rows := make([]data.Value, 56)
		for i := range rows {
			rows[i] = orderRec(int64(t*56 + i))
		}
		c.ObserveOutputs(rows, 56*120)
		parts[t] = c.Partial()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergePartials(parts)
	}
}
