package data

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func accSampleRow() Value {
	return Object(Field{Name: "l", Value: Object(
		Field{Name: "l_extendedprice", Value: Double(4520.25)},
		Field{Name: "l_orderkey", Value: Int(123456)},
		Field{Name: "l_partkey", Value: Int(789)},
		Field{Name: "tags", Value: Array(String("a"), String("b"))},
	)})
}

func TestAccessorMatchesPathEval(t *testing.T) {
	row := accSampleRow()
	for _, s := range []string{
		"l.l_orderkey", "l.l_extendedprice", "l.tags[1]", "l.tags[5]",
		"l.missing", "x.l_orderkey", "l.l_orderkey.deeper",
	} {
		p := MustParsePath(s)
		a := CompileAccessor(p, row)
		want, got := p.Eval(row), a.Eval(row)
		if !Equal(want, got) {
			t.Errorf("path %q: accessor=%s path=%s", s, got, want)
		}
	}
}

// Records that deviate from the compile-time sample (extra fields, missing
// fields, different layouts, non-objects) must still evaluate exactly like
// Path.Eval via the name-lookup fallback.
func TestAccessorHeterogeneousRecords(t *testing.T) {
	p := MustParsePath("l.l_orderkey")
	a := CompileAccessor(p, accSampleRow())
	rows := []Value{
		accSampleRow(),
		// Extra field shifts l_orderkey's position.
		Object(Field{Name: "l", Value: Object(
			Field{Name: "aaa", Value: Int(0)},
			Field{Name: "l_extendedprice", Value: Double(1)},
			Field{Name: "l_orderkey", Value: Int(99)},
		)}),
		// Field missing entirely.
		Object(Field{Name: "l", Value: Object(
			Field{Name: "l_partkey", Value: Int(789)},
		)}),
		// Alias missing.
		Object(Field{Name: "r", Value: Int(1)}),
		// Non-object row.
		Int(7),
		Null(),
		// Hinted position exists but holds a different field.
		Object(Field{Name: "l", Value: Object(
			Field{Name: "a", Value: Int(1)},
			Field{Name: "b", Value: Int(2)},
		)}),
	}
	for i, row := range rows {
		want, got := p.Eval(row), a.Eval(row)
		if !Equal(want, got) {
			t.Errorf("row %d (%s): accessor=%s path=%s", i, row, got, want)
		}
	}
}

func TestAccessorNullSampleStillWorks(t *testing.T) {
	p := MustParsePath("l.l_orderkey")
	a := CompileAccessor(p, Null())
	row := accSampleRow()
	if got, want := a.Eval(row), p.Eval(row); !Equal(got, want) {
		t.Errorf("accessor=%s path=%s", got, want)
	}
}

func TestAccessorPropertyMatchesPathEval(t *testing.T) {
	paths := []Path{
		MustParsePath("a"), MustParsePath("a.b"), MustParsePath("a.b.c"),
		MustParsePath("a[0]"), MustParsePath("a.b[1].c"), MustParsePath("e"),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sample, row := randomValue(r, 3), randomValue(r, 3)
		for _, p := range paths {
			a := CompileAccessor(p, sample)
			if !Equal(a.Eval(row), p.Eval(row)) {
				t.Logf("path %s sample %s row %s: accessor=%s path=%s",
					p, sample, row, a.Eval(row), p.Eval(row))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCompileAccessors(t *testing.T) {
	row := accSampleRow()
	paths := []Path{MustParsePath("l.l_orderkey"), MustParsePath("l.missing")}
	accs := CompileAccessors(paths, row)
	if len(accs) != len(paths) {
		t.Fatalf("got %d accessors, want %d", len(accs), len(paths))
	}
	for i, a := range accs {
		if !Equal(a.Eval(row), paths[i].Eval(row)) {
			t.Errorf("accessor %d mismatch", i)
		}
	}
}

func BenchmarkAccessorEval(b *testing.B) {
	row := accSampleRow()
	p := MustParsePath("l.l_orderkey")
	a := CompileAccessor(p, row)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Eval(row)
	}
}

func BenchmarkAccessorEvalFallback(b *testing.B) {
	// Row layout differs from the sample, forcing the name-lookup fallback.
	row := accSampleRow()
	sample := Object(Field{Name: "l", Value: Object(
		Field{Name: "aaa", Value: Int(0)},
		Field{Name: "l_orderkey", Value: Int(1)},
	)})
	a := CompileAccessor(MustParsePath("l.l_orderkey"), sample)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Eval(row)
	}
}
