package wire

import (
	"math/rand"
	"testing"

	"dyno/internal/data"
)

// lineitemBlock is one 4,096-row block of alias-wrapped lineitem rows,
// {"l": {...10 columns...}}, shaped like TPC-H's generator output: two
// levels of object column over int, double and string columns.
func lineitemBlock() []data.Value {
	rng := rand.New(rand.NewSource(1))
	flags := []string{"A", "N", "R"}
	recs := make([]data.Value, 4096)
	for i := range recs {
		l := data.Object(
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
		recs[i] = data.Object(data.Field{Name: "l", Value: l})
	}
	return recs
}

// One op = encode the block into a pooled frame and release it.
func BenchmarkEncodeBlock(b *testing.B) {
	recs := lineitemBlock()
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
