package data

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNormKey(t *testing.T, v Value) []byte {
	t.Helper()
	b, ok := AppendNormKey(nil, v)
	if !ok {
		t.Fatalf("AppendNormKey(%s) not encodable", v)
	}
	return b
}

// The defining property: byte order of normalized keys matches Compare.
func TestNormKeyOrderMatchesCompare(t *testing.T) {
	vals := []Value{
		Null(),
		Bool(false), Bool(true),
		Int(-500), Int(-1), Int(0), Int(1), Int(42), Int(1 << 50),
		Double(math.Inf(-1)), Double(-2.5), Double(-0.0), Double(0.0),
		Double(0.5), Double(2.5), Double(1e300), Double(math.Inf(1)),
		String(""), String("a"), String("a\x00b"), String("ab"), String("b"),
		Array(), Array(Int(1)), Array(Int(1), Int(2)), Array(Int(2)),
		Array(String("x")),
		Object(),
		Object(Field{Name: "a", Value: Int(1)}),
		Object(Field{Name: "a", Value: Int(1)}, Field{Name: "b", Value: Int(2)}),
		Object(Field{Name: "a", Value: Int(2)}),
		Object(Field{Name: "b", Value: Int(0)}),
	}
	for i, a := range vals {
		for j, b := range vals {
			want := sign(Compare(a, b))
			got := sign(bytes.Compare(mustNormKey(t, a), mustNormKey(t, b)))
			if got != want {
				t.Errorf("vals[%d]=%s vs vals[%d]=%s: bytes.Compare=%d, Compare=%d",
					i, a, j, b, got, want)
			}
		}
	}
}

func TestNormKeyPropertyOrderMatchesCompare(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r, 3), randomValue(r, 3)
		return sign(bytes.Compare(mustNormKey(t, a), mustNormKey(t, b))) == sign(Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Equal values (including cross-kind int/double equality) must map to
// identical keys, since the shuffle groups by key equality.
func TestNormKeyEqualValuesSameKey(t *testing.T) {
	pairs := [][2]Value{
		{Int(3), Double(3.0)},
		{Int(0), Double(-0.0)},
		{Double(0.0), Double(math.Copysign(0, -1))},
		{Int(-7), Double(-7.0)},
		{Array(Int(1), Double(2)), Array(Double(1), Int(2))},
		{
			Object(Field{Name: "k", Value: Int(5)}),
			Object(Field{Name: "k", Value: Double(5)}),
		},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) != 0 {
			t.Fatalf("test bug: %s and %s not Compare-equal", p[0], p[1])
		}
		ka, kb := mustNormKey(t, p[0]), mustNormKey(t, p[1])
		if !bytes.Equal(ka, kb) {
			t.Errorf("%s and %s are Compare-equal but keys differ: %x vs %x",
				p[0], p[1], ka, kb)
		}
	}
}

// Distinct values in the encodable domain must map to distinct keys.
func TestNormKeyDistinctValuesDistinctKeys(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true), Int(0), Int(1), String(""),
		String("\x00"), String("\x00\xff"), Array(), Array(String("")),
		Array(Null()), Object(), Object(Field{Name: "", Value: Null()}),
		Array(String("a"), String("b")), Array(String("a\x00\x00b")),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := string(mustNormKey(t, v))
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share key %x", prev, v, k)
		}
		seen[k] = v
	}
}

// TestNormKeyUnencodable: the values the encoding once refused — NaN,
// integers beyond ±2^53, and containers holding them — encode, and order
// exactly as Compare among themselves and against their neighbours.
func TestNormKeyUnencodable(t *testing.T) {
	const big = maxExactInt
	vals := []Value{
		Double(math.Inf(-1)), Int(math.MinInt64), Double(-0x1p63), Int(math.MinInt64 + 1),
		Int(-big - 3), Int(-big - 2), Int(-big - 1), Double(float64(-big)), Int(-big), Int(-big + 1),
		Int(-1), Double(math.Copysign(0, -1)), Int(0), Double(0.5),
		Int(big - 1), Int(big), Double(float64(big)), Int(big + 1), Double(float64(big + 2)), Int(big + 2), Int(big + 3),
		Int(1<<62 + 1023), Double(0x1p62 + 1024), Int(math.MaxInt64 - 1), Int(math.MaxInt64), Double(0x1p63),
		Double(math.Inf(1)), Double(math.NaN()), Double(-math.NaN()), Double(math.Float64frombits(0x7ff0000000000001)),
		Array(Int(1), Double(math.NaN())), Array(Int(1), Double(math.NaN()), Int(0)),
		Array(Int(big+1), Null()), Array(Int(big+1), Int(0)),
		Object(Field{Name: "x", Value: Int(math.MaxInt64)}),
		Array(Object(), Object()), Array(Object(Field{Name: "", Value: Null()})),
	}
	for i, a := range vals {
		ka, ok := AppendNormKey(nil, a)
		if !ok {
			t.Fatalf("AppendNormKey(%s) not ok", a)
		}
		if string(ka) != NormKey(a) {
			t.Fatalf("NormKey(%s) differs from AppendNormKey", a)
		}
		for j, b := range vals {
			if got, want := sign(bytes.Compare(ka, mustNormKey(t, b))), sign(Compare(a, b)); got != want {
				t.Errorf("vals[%d]=%s vs vals[%d]=%s: bytes.Compare=%d, Compare=%d", i, a, j, b, got, want)
			}
		}
	}
}

func TestNormKeyAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 128)
	k1, ok := AppendNormKey(buf, Int(7))
	if !ok {
		t.Fatal("Int(7) unencodable")
	}
	k2, ok := AppendNormKey(k1, String("x"))
	if !ok {
		t.Fatal("String(x) unencodable")
	}
	if !bytes.Equal(k2[:len(k1)], k1) {
		t.Error("append overwrote earlier key bytes")
	}
	want := mustNormKey(t, String("x"))
	if !bytes.Equal(k2[len(k1):], want) {
		t.Errorf("appended key = %x, want %x", k2[len(k1):], want)
	}
}

func BenchmarkNormKeyEncode(b *testing.B) {
	v := Array(Int(123456), String("BRAZIL"), Double(1995.5))
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendNormKey(buf[:0], v)
	}
}

func BenchmarkNormKeyCompareVsDataCompare(b *testing.B) {
	x := Array(Int(123456), String("BRAZIL"), Double(1995.5))
	y := Array(Int(123456), String("BRAZIL"), Double(1996.5))
	kx, ky := NormKey(x), NormKey(y)
	b.Run("normkey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if kx >= ky {
				b.Fatal("order broken")
			}
		}
	})
	b.Run("compare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Compare(x, y) >= 0 {
				b.Fatal("order broken")
			}
		}
	})
}
