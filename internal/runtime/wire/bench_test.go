package wire

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/physop"
)

// lineitems is one 4,096-record split of lineitem records shaped like
// TPC-H's generator output: 10 int, double and string columns.
func lineitems() []data.Value {
	rng := rand.New(rand.NewSource(1))
	flags := []string{"A", "N", "R"}
	recs := make([]data.Value, 4096)
	for i := range recs {
		recs[i] = data.Object(
			data.Field{Name: "l_orderkey", Value: data.Int(int64(i / 4))},
			data.Field{Name: "l_partkey", Value: data.Int(int64(rng.Intn(2000)))},
			data.Field{Name: "l_suppkey", Value: data.Int(int64(rng.Intn(100)))},
			data.Field{Name: "l_linenumber", Value: data.Int(int64(i%4 + 1))},
			data.Field{Name: "l_quantity", Value: data.Int(int64(1 + rng.Intn(50)))},
			data.Field{Name: "l_extendedprice", Value: data.Double(1000 + float64(rng.Intn(9000000))/100)},
			data.Field{Name: "l_discount", Value: data.Double(float64(rng.Intn(11)) / 100)},
			data.Field{Name: "l_tax", Value: data.Double(float64(rng.Intn(9)) / 100)},
			data.Field{Name: "l_returnflag", Value: data.String(flags[rng.Intn(3)])},
			data.Field{Name: "l_shipdate", Value: data.Int(int64(19920101 + rng.Intn(70000)))},
		)
	}
	return recs
}

// lineitemBlock is the split's rows wrapped {"l": {...10 columns...}}:
// two levels of object column over int, double and string columns.
func lineitemBlock() []data.Value {
	recs := lineitems()
	for i, l := range recs {
		recs[i] = data.Object(data.Field{Name: "l", Value: l})
	}
	return recs
}

// One op = encode the block into a pooled frame and release it. From
// the warm-up op on, the collector is off and one P runs, as in
// procruntime's BenchmarkMirrorFile: a collection empties the encoder
// pool and a move to another P misses the encoder the old P holds, and
// either way an op would count the encoder's regrowth.
func BenchmarkEncodeBlock(b *testing.B) {
	recs := lineitemBlock()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := EncodeBlock(recs)
	b.SetBytes(int64(len(f.Bytes())))
	f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		EncodeBlock(recs).Close()
	}
}

// One op = decode the block's frame into records: one list, one slab
// per object column, the dictionary's strings — nothing per row.
func BenchmarkDecodeBlock(b *testing.B) {
	f := EncodeBlock(lineitemBlock())
	defer f.Close()
	frame := f.Bytes()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := DecodeBlock(frame); err != nil {
			b.Fatal(err)
		}
	}
}

var scanAnswerSink []data.Value

// One op = a scan task's answer over one split whose filter keeps about
// two thirds of it (l_quantity <= 33): the worker's result frame encoded,
// decoded on the controller, and the kept rows gathered from the
// controller's warm image of the split. Nothing in it is per row but the
// gathered slice's length.
func BenchmarkScanAnswer(b *testing.B) {
	recs := lineitems()
	var sel []int32
	for i, rec := range recs {
		if rec.FieldOr("l_quantity").Int() <= 33 {
			sel = append(sel, int32(i))
		}
	}
	op := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "l"}}
	var aux atomic.Value
	wrap, _ := physop.ScanImage(op)
	image := batch.For(&aux, recs).Wrapped(wrap)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		f := EncodeResultBatch([]*TaskResult{{Sel: sel}})
		got, err := DecodeResultBatch(f.Bytes())
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]data.Value, 0, len(got[0].Sel))
		for _, i := range got[0].Sel {
			rows = append(rows, image[i])
		}
		scanAnswerSink = rows
	}
}
