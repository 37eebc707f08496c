package data

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomRow builds an object of up to width fields named from a small
// alphabet, so two rows clash on names often; width 0 is the empty row.
func randomRow(r *rand.Rand, width int) Value {
	fs := make([]Field, r.Intn(width+1))
	for i := range fs {
		fs[i] = Field{Name: fmt.Sprintf("f%d", r.Intn(8)), Value: randomValue(r, 1)}
	}
	return Object(fs...)
}

// sameRow holds an arena row to MergeObjects' row for the same inputs:
// equal under Compare, and the same bytes everywhere the engine looks
// (rendering, cached size, hash).
func sameRow(t *testing.T, got, want Value) {
	t.Helper()
	if !Equal(got, want) || got.String() != want.String() ||
		got.EncodedSize() != want.EncodedSize() || Hash64(got) != Hash64(want) {
		t.Fatalf("arena row diverged:\n  got:  %v\n  want: %v", got, want)
	}
}

// TestArenaMergeMatchesMergeObjects: over seeded random objects — empty
// sides and name clashes included — an arena merge is MergeObjects, and
// rows handed out earlier are untouched by everything the arena does
// later (10k further merges, chunk growth, releases).
func TestArenaMergeMatchesMergeObjects(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var a FieldArena
	var got, want []Value
	merge := func() {
		x, y := randomRow(r, 5), randomRow(r, 5)
		got, want = append(got, a.Merge(x, y)), append(want, MergeObjects(x, y))
	}
	for i := 0; i < 500; i++ {
		merge()
	}
	if empty := a.Merge(Object(), Int(3)); empty.Kind() != KindObject || empty.Len() != 0 {
		t.Fatalf("merge of two empty sides = %v, want {}", empty)
	}
	for i := 0; i < 10000; i++ {
		if i%3 == 0 {
			a.Release(a.Merge(randomRow(r, 5), randomRow(r, 5)))
		}
		merge()
	}
	for i := range got {
		sameRow(t, got[i], want[i])
	}
}

// TestArenaClashReturnsReservedFields: b wins a name clash, and the
// field reserved for the loser goes back to the chunk.
func TestArenaClashReturnsReservedFields(t *testing.T) {
	var a FieldArena
	x := Object(Field{"x", Int(1)}, Field{"y", Int(2)})
	y := Object(Field{"y", Int(9)}, Field{"z", Int(3)})
	m := a.Merge(x, y)
	if m.Len() != 3 || m.FieldOr("y").Int() != 9 {
		t.Fatalf("merge = %v, want 3 fields with y from the right side", m)
	}
	if len(a.chunk) != 3 {
		t.Fatalf("chunk top = %d after a 2+2 merge with one clash, want 3", len(a.chunk))
	}
}

// TestArenaReleaseRestoresTop: handing back the latest row restores the
// chunk top and clears its slots; handing back anything else is a no-op.
func TestArenaReleaseRestoresTop(t *testing.T) {
	var a FieldArena
	x := Object(Field{"a", String("left")})
	y := Object(Field{"b", String("right")})
	kept := a.Merge(x, y)
	top := len(a.chunk)
	rejected := a.Merge(y, x)
	a.Release(kept) // not the latest: must stay
	if len(a.chunk) != top+2 {
		t.Fatalf("releasing an older row moved the top to %d", len(a.chunk))
	}
	a.Release(rejected)
	if len(a.chunk) != top {
		t.Fatalf("top = %d after release, want %d", len(a.chunk), top)
	}
	for _, f := range a.chunk[top : top+2] {
		if f.Name != "" || !f.Value.IsNull() {
			t.Fatalf("released slot still holds %q: %v", f.Name, f.Value)
		}
	}
	a.Release(Object(Field{"a", Int(1)})) // not an arena row at all
	a.Release(Null())
	if next := a.Merge(x, y); &next.Fields()[0] != &a.chunk[top] {
		t.Fatal("the next merge did not reuse the released fields")
	}
	sameRow(t, kept, MergeObjects(x, y))
}

// TestArenaResetDoesNotAliasOutput: the broadcast chain's shape — an
// intermediate row in a scratch arena, final rows merged from it into
// the output arena — leaves the output intact when the scratch arena is
// reset and overwritten.
func TestArenaResetDoesNotAliasOutput(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var out, scratch FieldArena
	var got, want []Value
	for i := 0; i < 2000; i++ {
		scratch.Reset()
		x, y, z := randomRow(r, 4), randomRow(r, 4), randomRow(r, 4)
		mid := scratch.Merge(x, y)
		got = append(got, out.Merge(mid, z))
		want = append(want, MergeObjects(MergeObjects(x, y), z))
	}
	for i := range got {
		sameRow(t, got[i], want[i])
	}
}

// TestArenaChunkSizing: chunks double from the small first one up to
// the cap, a row never straddles two chunks, and a row wider than the
// cap gets a chunk of its own — so one retained row pins one chunk of
// at most max(cap, its own width) fields.
func TestArenaChunkSizing(t *testing.T) {
	var a FieldArena
	one := Object(Field{"a", Int(1)})
	two := Object(Field{"b", Int(2)})
	var sizes []int
	for i := 0; i < 4000; i++ {
		row := a.Merge(one, two)
		if len(sizes) == 0 || sizes[len(sizes)-1] != cap(a.chunk) {
			sizes = append(sizes, cap(a.chunk))
		}
		fs := row.Fields()
		if &fs[0] != &a.chunk[len(a.chunk)-2] || cap(fs) != 2 {
			t.Fatalf("row %d is not the top 2 fields of the current chunk (cap %d)", i, cap(fs))
		}
	}
	want := []int{16, 32, 64, 128, 256}
	if len(sizes) < len(want) {
		t.Fatalf("chunk sizes %v, want a prefix %v", sizes, want)
	}
	for i, sz := range sizes {
		if w := want[min(i, len(want)-1)]; sz != w {
			t.Fatalf("chunk %d has %d fields, want %d (all: %v)", i, sz, w, sizes)
		}
	}
	wide := make([]Field, 1500)
	for i := range wide {
		wide[i] = Field{Name: fmt.Sprintf("w%04d", i), Value: Int(int64(i))}
	}
	a.Merge(Object(wide...), one)
	if cap(a.chunk) != 1501 {
		t.Fatalf("a 1501-field row got a chunk of %d", cap(a.chunk))
	}
}
