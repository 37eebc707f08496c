package stats

import (
	"testing"

	"dyno/internal/batch"
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
		c.ObserveInputs(1)
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

// scanSplits are n warm 4,096-row splits of orders, raw records read
// under wrap "", each with the selection of two rows in three.
func scanSplits(n int) ([]*batch.Data, []int32) {
	splits := make([]*batch.Data, n)
	for s := range splits {
		recs := make([]data.Value, 4096)
		for i := range recs {
			recs[i] = orderRec(int64(s*len(recs) + i))
		}
		splits[s] = batch.For(nil, recs)
	}
	var sel []int32
	for i := range int32(4096) {
		if i%3 != 0 {
			sel = append(sel, i)
		}
	}
	for _, d := range splits { // build the hash orders once, as the first scan does
		NewCollector(benchPaths, 1024).ObserveScan(d, "", sel, 0)
	}
	return splits, sel
}

// BenchmarkObserveScan is one scan task's statistics at k=1024: a
// collector over two columns (o_orderkey, 2,731 distinct, and
// o_custkey, 100) reading a warm split at a selection of 2,731 rows. It
// allocates per task and per column, never per row.
func BenchmarkObserveScan(b *testing.B) {
	splits, sel := scanSplits(1)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c := NewCollector(benchPaths, 1024)
		c.ObserveInputs(4096)
		c.ObserveScan(splits[0], "", sel, 120*int64(len(sel)))
	}
}

// BenchmarkMergeRuns is a job's merge of 64 such scan tasks' runs: one
// k-way merge per column, allocating per column, never per task or hash.
func BenchmarkMergeRuns(b *testing.B) {
	splits, sel := scanSplits(64)
	parts := make([]*Partial, len(splits))
	for i, d := range splits {
		c := NewCollector(benchPaths, 1024)
		c.ObserveScan(d, "", sel, 120*int64(len(sel)))
		parts[i] = c.Partial()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		MergePartials(parts)
	}
}
