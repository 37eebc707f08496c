package procruntime

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/runtime/wire"
)

// TestMirrorIsOneFile: mirroring a k-block DFS file creates exactly one
// regular file under the spill directory and no directory; the blocks'
// spans tile that file from its first byte to its last, each span
// decodes to its block's records, asking again writes nothing, and
// retiring a job once the DFS file is gone unlinks the mirror.
func TestMirrorIsOneFile(t *testing.T) {
	spill := t.TempDir()
	f := newBareFleet(t, Config{SpillDir: spill})
	fsys := dfs.New(dfs.WithBlockSize(256))
	w := fsys.Create("in")
	w.AppendAll(kvRecords(200))
	file := w.Close()
	if file.NumBlocks() < 3 {
		t.Fatalf("the input has %d blocks, want several", file.NumBlocks())
	}

	refs, err := f.mirrorFile(fsys, file)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Type().IsRegular() {
		t.Fatalf("spill dir holds %v after mirroring one file, want one regular file", entries)
	}
	path := filepath.Join(spill, entries[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != file.NumBlocks() {
		t.Fatalf("%d spans for %d blocks", len(refs), file.NumBlocks())
	}
	var end int64
	for i, ref := range refs {
		if ref.File != path || ref.Off != end || ref.Len <= 0 {
			t.Fatalf("block %d: span %+v, want one starting at %d in %s", i, ref, end, path)
		}
		end += ref.Len
		recs, err := wire.DecodeBlock(raw[ref.Off:end])
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		want := file.Block(i).Records()
		if len(recs) != len(want) {
			t.Fatalf("block %d decodes to %d records, want %d", i, len(recs), len(want))
		}
		for r := range recs {
			if data.Compare(recs[r], want[r]) != 0 {
				t.Fatalf("block %d record %d: %v, want %v", i, r, recs[r], want[r])
			}
		}
	}
	if end != int64(len(raw)) {
		t.Fatalf("the spans cover %d of the mirror's %d bytes", end, len(raw))
	}
	again, err := f.mirrorFile(fsys, file)
	if err != nil || len(again) != len(refs) || again[0] != refs[0] {
		t.Fatalf("a second mirror of the same file answered %v, %v", again, err)
	}

	f.RetireJob("live") // the file still exists: the mirror stays
	f.sweeps.Wait()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("a live file's mirror went: %v", err)
	}
	if err := fsys.Remove("in"); err != nil {
		t.Fatal(err)
	}
	f.RetireJob("dead")
	f.sweeps.Wait()
	if entries, _ := os.ReadDir(spill); len(entries) != 0 {
		t.Fatalf("spill dir holds %v after the file was removed and a job retired", entries)
	}
}

// mirrorBenchBlocks are 16 blocks of 4,096 lineitem-shaped records,
// about 5.6 MB of frames in all: more than the pooled encoder keeps, so
// an encoder grown to the whole file is grown again on every op.
func mirrorBenchBlocks() [][]data.Value {
	rng := rand.New(rand.NewSource(1))
	flags := []string{"A", "N", "R"}
	blocks := make([][]data.Value, 16)
	for b := range blocks {
		blocks[b] = make([]data.Value, 4096)
		for i := range blocks[b] {
			blocks[b][i] = data.Object(
				data.Field{Name: "l_orderkey", Value: data.Int(int64(b*4096+i) / 4)},
				data.Field{Name: "l_partkey", Value: data.Int(int64(rng.Intn(2000)))},
				data.Field{Name: "l_quantity", Value: data.Int(int64(1 + rng.Intn(50)))},
				data.Field{Name: "l_extendedprice", Value: data.Double(1000 + float64(rng.Intn(9000000))/100)},
				data.Field{Name: "l_discount", Value: data.Double(float64(rng.Intn(11)) / 100)},
				data.Field{Name: "l_returnflag", Value: data.String(flags[rng.Intn(3)])},
				data.Field{Name: "l_comment", Value: data.String(randomComment(rng))},
			)
		}
	}
	return blocks
}

// randomComment is a 40-to-80-byte lowercase string.
func randomComment(rng *rand.Rand) string {
	b := make([]byte, 40+rng.Intn(41))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// One op = one 16-block file mirrored: the file created, each block
// encoded on the pooled encoder and written as it is encoded, the file
// closed and (outside the mirror path, to keep the disk flat) removed.
// From the warm-up op on, the collector is off and one P runs: a
// collection empties the encoder pool, and a goroutine that moved to
// another P misses the encoder its old P holds. Either way an op would
// count the pooled encoder's regrowth, and the count would follow the
// scheduler instead of the code.
func BenchmarkMirrorFile(b *testing.B) {
	blocks := mirrorBenchBlocks()
	path := filepath.Join(b.TempDir(), "f000001.mir")
	block := func(i int) []data.Value { return blocks[i] }
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // before the op that warms the pool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	refs, err := writeMirror(path, len(blocks), block)
	if err != nil {
		b.Fatal(err)
	}
	last := refs[len(refs)-1]
	b.SetBytes(last.Off + last.Len)
	os.Remove(path)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := writeMirror(path, len(blocks), block); err != nil {
			b.Fatal(err)
		}
		os.Remove(path)
	}
}
