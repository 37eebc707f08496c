package dfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dyno/internal/data"
)

func rec(i int64) data.Value {
	return data.Object(
		data.Field{Name: "id", Value: data.Int(i)},
		data.Field{Name: "payload", Value: data.String("xxxxxxxxxxxxxxxxxxxx")},
	)
}

func TestCreateWriteRead(t *testing.T) {
	fs := New()
	w := fs.Create("t/orders")
	for i := int64(0); i < 100; i++ {
		w.Append(rec(i))
	}
	f := w.Close()
	if f.NumRecords() != 100 {
		t.Fatalf("NumRecords = %d", f.NumRecords())
	}
	got, err := fs.Open("t/orders")
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Error("Open returned a different file")
	}
	all := f.AllRecords()
	if len(all) != 100 || all[42].FieldOr("id").Int() != 42 {
		t.Error("AllRecords order broken")
	}
}

func TestOpenMissing(t *testing.T) {
	fs := New()
	if _, err := fs.Open("nope"); err == nil {
		t.Error("Open of missing file should fail")
	}
	if err := fs.Remove("nope"); err == nil {
		t.Error("Remove of missing file should fail")
	}
}

func TestBlockCutting(t *testing.T) {
	// Tiny blocks: every record is ~40 raw bytes, so a 100-byte block
	// holds 2 records.
	fs := New(WithBlockSize(100))
	w := fs.Create("f")
	for i := int64(0); i < 10; i++ {
		w.Append(rec(i))
	}
	f := w.Close()
	if f.NumBlocks() < 4 {
		t.Errorf("NumBlocks = %d, want several", f.NumBlocks())
	}
	// No record loss across blocks.
	var n int
	for _, b := range f.Blocks() {
		n += b.NumRecords()
		if b.NumRecords() == 0 {
			t.Error("empty block")
		}
	}
	if n != 10 {
		t.Errorf("records across blocks = %d", n)
	}
}

func TestByteScaleMultipliesSizes(t *testing.T) {
	fs := New()
	w := fs.Create("f")
	w.Append(rec(1))
	f := w.Close()
	raw := f.Size()
	fs.SetByteScale(1000)
	if got := f.Size(); got != raw*1000 {
		t.Errorf("scaled size = %d, want %d", got, raw*1000)
	}
	if got := f.BlockSizeBytes(0); got != raw*1000 {
		t.Errorf("scaled block size = %d, want %d", got, raw*1000)
	}
	fs.SetByteScale(0) // invalid resets to 1
	if fs.ByteScale() != 1 {
		t.Error("SetByteScale(0) should clamp to 1")
	}
}

func TestByteScaleAffectsBlockCutting(t *testing.T) {
	// With scale 1000 and block size 100_000 virtual bytes, each block
	// holds ~100 raw bytes = 2 records.
	fs := New(WithBlockSize(100_000))
	fs.SetByteScale(1000)
	w := fs.Create("f")
	for i := int64(0); i < 10; i++ {
		w.Append(rec(i))
	}
	f := w.Close()
	if f.NumBlocks() < 4 {
		t.Errorf("NumBlocks = %d, want several (scale-aware cutting)", f.NumBlocks())
	}
}

func TestAvgRecordSize(t *testing.T) {
	fs := New()
	w := fs.Create("f")
	for i := int64(0); i < 10; i++ {
		w.Append(rec(i))
	}
	f := w.Close()
	avg := f.AvgRecordSize()
	if avg <= 0 || avg != float64(f.Size())/10 {
		t.Errorf("AvgRecordSize = %f", avg)
	}
	empty := fs.Create("e").Close()
	if empty.AvgRecordSize() != 0 {
		t.Error("empty file avg size should be 0")
	}
}

func TestListAndTotalSize(t *testing.T) {
	fs := New()
	fs.Create("b").Append(rec(1))
	fs.Create("a").Append(rec(2))
	names := fs.List()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("List = %v", names)
	}
	if fs.TotalSize() <= 0 {
		t.Error("TotalSize should be positive")
	}
	if _, err := fs.Open("zz"); err == nil {
		t.Error("Open of a missing file must fail")
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("a"); err == nil {
		t.Error("Remove did not remove")
	}
}

func TestCreateTruncates(t *testing.T) {
	fs := New()
	fs.Create("f").Append(rec(1))
	f2 := fs.Create("f").Close()
	if f2.NumRecords() != 0 {
		t.Error("Create should truncate")
	}
}

func TestPropertyNoRecordLoss(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fs := New(WithBlockSize(int64(50 + r.Intn(500))))
		n := r.Intn(200)
		w := fs.Create("f")
		for i := 0; i < n; i++ {
			w.Append(rec(int64(i)))
		}
		file := w.Close()
		if file.NumRecords() != int64(n) {
			return false
		}
		all := file.AllRecords()
		for i, rcd := range all {
			if rcd.FieldOr("id").Int() != int64(i) {
				return false
			}
		}
		// Size equals the sum of block sizes.
		var sum int64
		for i := range file.Blocks() {
			sum += file.BlockSizeBytes(i)
		}
		return sum == file.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAppendAllCutsAsOneAtATime: writing runs of records of random
// sizes in one AppendAll — onto a fresh file or after some one-record
// Appends — cuts the same blocks, with the same raw bytes and the same
// records, as appending one record at a time, and both cut where the
// rule does: a record that takes a non-empty block past the block size
// starts the next one. Every block AppendAll starts is allocated at its
// final length.
func TestAppendAllCutsAsOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		fs := New(WithBlockSize(int64(50 + rng.Intn(400))))
		fs.SetByteScale([]float64{1, 0.5, 3}[trial%3])
		recs := make([]data.Value, rng.Intn(300))
		for i := range recs {
			recs[i] = data.Object(data.Field{Name: "p", Value: data.String(string(make([]byte, rng.Intn(120))))})
		}
		var runs [][]data.Value
		head := 0
		if trial%2 == 1 && len(recs) > 0 {
			head = rng.Intn(len(recs))
		}
		for rest := recs[head:]; len(rest) > 0; {
			n := rng.Intn(len(rest) + 1)
			runs, rest = append(runs, rest[:n]), rest[n:]
		}
		one, batched := fs.Create("one"), fs.Create("batched")
		for _, r := range recs {
			one.Append(r)
		}
		for _, r := range recs[:head] {
			batched.Append(r)
		}
		started := len(batched.file.blocks) // blocks before here grew one record at a time
		batched.AppendAll(runs...)
		a, b := one.Close(), batched.Close()

		// The rule, applied here from scratch.
		var want [][]data.Value
		var raw int64
		for _, r := range recs {
			sz := r.EncodedSize() + 1
			if len(want) == 0 || float64(raw+sz)*fs.ByteScale() > float64(fs.blockSize) && len(want[len(want)-1]) > 0 {
				want, raw = append(want, nil), 0
			}
			want[len(want)-1] = append(want[len(want)-1], r)
			raw += sz
		}
		for _, f := range []*File{a, b} {
			if f.NumBlocks() != len(want) {
				t.Fatalf("trial %d: %s has %d blocks, want %d", trial, f.Name(), f.NumBlocks(), len(want))
			}
			for i, blk := range f.Blocks() {
				var raw int64
				for j, r := range blk.Records() {
					if j >= len(want[i]) || data.Compare(r, want[i][j]) != 0 {
						t.Fatalf("trial %d: %s block %d record %d is not the rule's", trial, f.Name(), i, j)
					}
					raw += r.EncodedSize() + 1
				}
				if blk.NumRecords() != len(want[i]) || blk.rawBytes != raw || a.Block(i).rawBytes != blk.rawBytes {
					t.Fatalf("trial %d: %s block %d has %d records, %d raw bytes; want %d, %d", trial, f.Name(), i, blk.NumRecords(), blk.rawBytes, len(want[i]), raw)
				}
				if f == b && i >= started && cap(blk.records) != len(blk.records) {
					t.Errorf("trial %d: block %d has cap %d for %d records", trial, i, cap(blk.records), len(blk.records))
				}
			}
		}
	}
}
