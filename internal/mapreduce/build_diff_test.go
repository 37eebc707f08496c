package mapreduce_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
)

// The build differential: a broadcast side scanned through physop's
// kernel (BuildHashTable, on pools of every size, column-wise and
// per-row filters alike) against the scan loop it replaced
// (OracleBuildHashTable, build_oracle_test.go). Same rows, same virtual
// bytes, the same float of UDF cost, and for every key the same rows in
// the same order — those data.Equal picks by exhaustive scan — whether
// probed by value or by normalized key. The hostile keys (NaN, ±(2^53+1))
// once demoted both tables to a hash index; now they are keys like any.

// buildScale is the byte scale both builds price rows at; the oracle
// prices them by the formula written out.
const buildScale = 37.5

func buildSize(v data.Value) int64 { return int64(float64(v.EncodedSize()+1) * buildScale) }

// buildRec is one build-side record: a duplicated int key, a string
// second key column, a flag the filters select on.
func buildRec(i int, k data.Value) data.Value {
	return data.Object(
		data.Field{Name: "flag", Value: data.Int(int64(i % 3))},
		data.Field{Name: "k", Value: k},
		data.Field{Name: "s", Value: data.String(fmt.Sprintf("s%d", i%4))},
		data.Field{Name: "seq", Value: data.Int(int64(i))},
	)
}

// buildBlocks cuts n records into blocks of the given sizes (zero-sized
// ones included); the record at position odd, if any, gets key oddKey.
func buildBlocks(sizes []int, wrapped bool, odd int, oddKey data.Value) [][]data.Value {
	blocks := make([][]data.Value, len(sizes))
	i := 0
	for b, n := range sizes {
		for ; n > 0; n-- {
			k := data.Int(int64(i % 11))
			if i == odd {
				k = oddKey
			}
			rec := buildRec(i, k)
			if wrapped {
				rec = data.Object(data.Field{Name: "b", Value: rec})
			}
			blocks[b] = append(blocks[b], rec)
			i++
		}
	}
	return blocks
}

func sameRows(a, b []data.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

func TestBuildMatchesScanLoopOracle(t *testing.T) {
	reg := expr.NewRegistry()
	reg.Register(expr.UDF{Name: "keep", CPUCost: 0.0137, Fn: func(args []data.Value) data.Value {
		return data.Bool(args[0].Int() != 1)
	}})
	col, lit := expr.NewCol, func(i int64) expr.Expr { return expr.NewLit(data.Int(i)) }
	filters := map[string]expr.Expr{
		"none":      nil,
		"columnar":  &expr.Cmp{Op: expr.NE, L: col("b.flag"), R: lit(1)},
		"outside":   &expr.Or{Terms: []expr.Expr{&expr.Cmp{Op: expr.EQ, L: col("b.flag"), R: lit(0)}, &expr.Cmp{Op: expr.EQ, L: col("other.x"), R: lit(1)}}},
		"udf":       &expr.Call{Name: "keep", Args: []expr.Expr{col("b.flag")}},
		"udf-error": &expr.Call{Name: "nosuch", Args: []expr.Expr{col("b.flag")}},
	}
	keys := map[string][]data.Path{
		"k":   {data.MustParsePath("b.k")},
		"k,s": {data.MustParsePath("b.k"), data.MustParsePath("b.s")},
	}
	sizes := []int{7, 0, 13, 0, 9, 6} // 35 records, blocks 0, 2, 4, 5
	odds := map[string]struct {
		at  int
		key data.Value
	}{
		"encodable":          {-1, data.Null()},
		"NaN first block":    {0, data.Double(math.NaN())},
		"2^53+1 middle":      {12, data.Int(1<<53 + 1)},
		"-(2^53+1) last":     {33, data.Int(-(1<<53 + 1))},
		"NaN last record":    {34, data.Double(math.NaN())},
		"filtered NaN (f=1)": {4, data.Double(math.NaN())}, // dropped by every filter but "none"
	}
	layouts := map[string][]int{"blocks": sizes, "empty blocks": {0, 0}, "empty file": nil}
	for lname, layout := range layouts {
		for _, wrapped := range []bool{false, true} {
			for fname, filter := range filters {
				for kname, keyPaths := range keys {
					for oname, odd := range odds {
						if lname != "blocks" && oname != "encodable" {
							continue
						}
						name := fmt.Sprintf("%s/prewrapped=%v/filter=%s/keys=%s/%s", lname, wrapped, fname, kname, oname)
						recs := buildBlocks(layout, wrapped, odd.at, odd.key)
						decl := mapreduce.Broadcast{Name: "b", KeyPaths: keyPaths, Filter: filter}
						if !wrapped {
							decl.Wrap = "b"
						}
						want, wantErr := mapreduce.OracleBuildHashTable(reg, decl, recs, buildSize)
						var sample data.Value
						for _, blk := range recs {
							if len(blk) > 0 {
								sample = blk[0]
								break
							}
						}
						for _, pool := range []int{0, 1, 4} {
							b := physop.BindBuild(decl, sample)
							if b.Map == nil {
								t.Fatalf("%s: build compiled without a kernel", name)
							}
							splits := make([]*dfs.Block, len(recs))
							for i, blk := range recs {
								splits[i] = dfs.NewBlock(blk)
							}
							got, err := mapreduce.BuildHashTable(reg, b, splits, buildScale, cluster.New(cluster.Config{Parallelism: pool}).Parallel)
							checkBuild(t, fmt.Sprintf("%s/pool=%d", name, pool), got, err, want, wantErr, recs, keyPaths, decl.Wrap)
						}
					}
				}
			}
		}
	}
}

func checkBuild(t *testing.T, name string, got *mapreduce.HashTable, err error, want *mapreduce.OracleTable, wantErr error, recs [][]data.Value, keyPaths []data.Path, wrap string) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Errorf("%s: err = %v, oracle %v", name, err, wantErr)
	}
	if err != nil || wantErr != nil {
		return
	}
	gb, gc := got.Charges()
	wb, wc := want.Charges()
	if got.Rows() != want.Rows() || gb != wb || gc != wc {
		t.Errorf("%s: rows/bytes/prepCPU = %d/%d/%v, oracle %d/%d/%v",
			name, got.Rows(), gb, gc, want.Rows(), wb, wc)
	}
	// Probe with every key the file holds, filtered out or not, and a
	// few it does not.
	probes := []data.Value{data.Int(999), data.String("nope"), data.Null(), data.Array(data.Int(3), data.String("nope")),
		data.Double(-math.NaN()), data.Int(1 << 53), data.Double(1 << 53), data.Int(1<<53 + 2)}
	for _, blk := range recs {
		for _, rec := range blk {
			row := rec
			if wrap != "" {
				row = data.Object(data.Field{Name: wrap, Value: rec})
			}
			probes = append(probes, mapreduce.CompositeKey(row, keyPaths))
		}
	}
	for _, k := range probes {
		g := got.Probe(k)
		if w := want.Probe(k); !sameRows(g, w) {
			t.Errorf("%s: Probe(%v) = %v, oracle %v", name, k, g, w)
		}
		// The exhaustive scan is quadratic in the build: a large one is
		// held to the oracle's index alone.
		if want.Rows() <= 1000 {
			if w := want.Scan(k); !sameRows(g, w) {
				t.Errorf("%s: Probe(%v) = %v, exhaustive scan %v", name, k, g, w)
			}
		}
		if nk := data.NormKey(k); !sameRows(got.ProbeNK(nk), g) {
			t.Errorf("%s: ProbeNK(%v) = %v, Probe %v", name, k, got.ProbeNK(nk), g)
		}
	}
}

// TestBuildReusesSplitImage: a base-table build handed the split's cache
// slot leaves its selection, wrapped rows and key column there, so the
// next build of the same side — another pilot, round or query — emits
// the very same row objects and interned key strings.
func TestBuildReusesSplitImage(t *testing.T) {
	recs := buildBlocks([]int{40}, false, -1, data.Null())
	decl := mapreduce.Broadcast{Name: "b", Wrap: "b", KeyPaths: []data.Path{data.MustParsePath("b.k")},
		Filter: &expr.Cmp{Op: expr.NE, L: expr.NewCol("b.flag"), R: expr.NewLit(data.Int(1))}}
	b := physop.BindBuild(decl, recs[0][0])
	split := []*dfs.Block{dfs.NewBlock(recs[0])}
	first, err := mapreduce.BuildHashTable(nil, b, split, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := mapreduce.BuildHashTable(nil, b, split, 0, nil)
	if err != nil || first.Rows() == 0 || first.Rows() != again.Rows() {
		t.Fatalf("rows %d, then %d (err %v)", first.Rows(), again.Rows(), err)
	}
	for k := int64(0); k < 11; k++ {
		a, b := first.Probe(data.Int(k)), again.Probe(data.Int(k))
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("key %d: %d rows, then %d", k, len(a), len(b))
		}
		for i := range a {
			if &a[i].Fields()[0] != &b[i].Fields()[0] {
				t.Errorf("key %d row %d: the second build wrapped the record again", k, i)
			}
		}
	}
}

// indexBuilds are builds that stress the table's index, each cut into
// two blocks: duplicate keys (a group's rows come back in scan order),
// NULL keys, keys equal as numbers but not as written (1/1.0, -0.0/0,
// which the normalized key makes one group), an empty build, one key for
// every row, and enough distinct keys that slots collide.
func indexBuilds() map[string][][]data.Value {
	keyed := func(n int, key func(i int) data.Value) [][]data.Value {
		recs := make([]data.Value, n)
		for i := range recs {
			recs[i] = buildRec(i, key(i))
		}
		return [][]data.Value{recs[:n/3], recs[n/3:]}
	}
	numbers := []data.Value{data.Int(1), data.Double(1.0), data.Double(math.Copysign(0, -1)), data.Int(0),
		data.Double(0), data.Int(-1), data.Double(-1.0), data.Double(2.5)}
	return map[string][][]data.Value{
		"duplicates": keyed(120, func(i int) data.Value { return data.Int(int64(i % 7)) }),
		"null keys": keyed(40, func(i int) data.Value {
			if i%3 == 0 {
				return data.Null()
			}
			return data.Int(int64(i % 5))
		}),
		"number-equal": keyed(64, func(i int) data.Value { return numbers[i%len(numbers)] }),
		"empty":        keyed(0, nil),
		"one key":      keyed(100, func(int) data.Value { return data.String("k") }),
		"distinct":     keyed(4096, func(i int) data.Value { return data.Int(int64(i * 7919)) }),
	}
}

// TestIndexMatchesOracle holds the index to the oracle on indexBuilds:
// every key the build holds and the misses checkBuild adds, by value and
// by normalized key, inline and on a pool of 4.
func TestIndexMatchesOracle(t *testing.T) {
	decl := mapreduce.Broadcast{Name: "b", Wrap: "b", KeyPaths: []data.Path{data.MustParsePath("b.k")}}
	for name, recs := range indexBuilds() {
		want, wantErr := mapreduce.OracleBuildHashTable(nil, decl, recs, buildSize)
		var sample data.Value
		if len(recs[1]) > 0 {
			sample = recs[1][0]
		}
		for _, pool := range []int{0, 4} {
			splits := []*dfs.Block{dfs.NewBlock(recs[0]), dfs.NewBlock(recs[1])}
			got, err := mapreduce.BuildHashTable(nil, physop.BindBuild(decl, sample), splits, buildScale, cluster.New(cluster.Config{Parallelism: pool}).Parallel)
			checkBuild(t, fmt.Sprintf("%s/pool=%d", name, pool), got, err, want, wantErr, recs, decl.KeyPaths, decl.Wrap)
		}
	}
	// Number-equal keys share a group exactly as their normalized keys
	// do (1 and 1.0; -0.0, 0 and 0.0; -1 and -1.0), in scan order.
	recs := indexBuilds()["number-equal"]
	got, err := mapreduce.BuildHashTable(nil, physop.BindBuild(decl, recs[1][0]), []*dfs.Block{dfs.NewBlock(recs[0]), dfs.NewBlock(recs[1])}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k    data.Value
		want int
	}{{data.Double(1), 16}, {data.Int(0), 24}, {data.Double(math.Copysign(0, -1)), 24}, {data.Int(-1), 16}, {data.Double(2.5), 8}} {
		k, rows := c.k, got.Probe(c.k)
		if len(rows) != c.want {
			t.Errorf("Probe(%v): %d rows, want %d", k, len(rows), c.want)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i-1].FieldOr("b").FieldOr("seq").Int() >= rows[i].FieldOr("b").FieldOr("seq").Int() {
				t.Errorf("Probe(%v): rows out of scan order: %v", k, rows)
			}
		}
	}
}

// TestIndexConcurrentProbes probes one table from several goroutines at
// once, by value and by normalized key (run it under -race): a built
// table is only read.
func TestIndexConcurrentProbes(t *testing.T) {
	recs := indexBuilds()["duplicates"]
	decl := mapreduce.Broadcast{Name: "b", Wrap: "b", KeyPaths: []data.Path{data.MustParsePath("b.k")}}
	ht, err := mapreduce.BuildHashTable(nil, physop.BindBuild(decl, recs[0][0]), []*dfs.Block{dfs.NewBlock(recs[0]), dfs.NewBlock(recs[1])}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int{}
	for _, blk := range recs {
		for _, rec := range blk {
			want[rec.FieldOr("k").Int()]++
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range int64(9) { // keys 7 and 8 miss
				key := data.Int(k)
				if n, m := len(ht.Probe(key)), len(ht.ProbeNK(data.NormKey(key))); n != want[k] || m != want[k] {
					t.Errorf("goroutine %d: key %d: Probe %d rows, ProbeNK %d, want %d", g, k, n, m, want[k])
				}
			}
		}()
	}
	wg.Wait()
}
