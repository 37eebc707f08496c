package data

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int",
		KindDouble: "double", KindString: "string", KindArray: "array",
		KindObject: "object", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KindNull {
		t.Fatalf("zero Value is %v, want null", v.Kind())
	}
}

// TestValueLayout pins the three-word layout and what guards it: the
// sizes every per-row structure is a multiple of, non-comparability
// (== would compare the pointer word by address), the uncached zero
// Value, and the zero answer of every typed view on every wrong kind —
// the pointer word means something different per kind, so a view that
// forgot to check would reinterpret string bytes as fields.
func TestValueLayout(t *testing.T) {
	if sz := reflect.TypeOf(Value{}).Size(); sz != 24 {
		t.Errorf("Sizeof(Value) = %d, want 24", sz)
	}
	if sz := reflect.TypeOf(Field{}).Size(); sz != 40 {
		t.Errorf("Sizeof(Field) = %d, want 40", sz)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable")
	}
	if got := (Value{}).EncodedSize(); got != 4 {
		t.Errorf("zero Value EncodedSize() = %d, want 4", got)
	}
	long := "a string long enough to be mistaken for several fields' worth of bytes ............"
	for _, v := range []Value{
		{}, Bool(true), Int(1 << 40), Double(-2.5), String(long), String(""),
		Array(String(long), Int(1)), Array(), Object(Field{"a", String(long)}), Object(),
	} {
		k := v.Kind()
		if k != KindString && v.Str() != "" {
			t.Errorf("%v %s: Str() = %q", k, v, v.Str())
		}
		if k != KindArray && (v.Elems() != nil || !v.Index(0).IsNull()) {
			t.Errorf("%v %s: Elems() = %v, Index(0) = %s", k, v, v.Elems(), v.Index(0))
		}
		if _, ok := v.field("a"); k != KindObject && (v.Fields() != nil || ok || !v.FieldOr("a").IsNull()) {
			t.Errorf("%v %s: Fields() = %v, Field(a) found = %v", k, v, v.Fields(), ok)
		}
		if k != KindArray && k != KindObject && v.Len() != 0 {
			t.Errorf("%v %s: Len() = %d", k, v, v.Len())
		}
		if acc := CompileAccessor(MustParsePath("a[0].b"), v); !acc.Eval(v).IsNull() {
			t.Errorf("%v %s: a[0].b resolves to %s", k, v, acc.Eval(v))
		}
	}
}

func TestScalarAccessors(t *testing.T) {
	if !Bool(true).Bool() || Bool(false).Bool() {
		t.Error("Bool accessor broken")
	}
	if Int(42).Int() != 42 {
		t.Error("Int accessor broken")
	}
	if Double(2.5).Float() != 2.5 {
		t.Error("Double accessor broken")
	}
	if Double(2.9).Int() != 2 {
		t.Error("Double→Int should truncate")
	}
	if Int(7).Float() != 7.0 {
		t.Error("Int→Float broken")
	}
	if String("x").Str() != "x" {
		t.Error("Str accessor broken")
	}
	// Cross-kind accessors return zero values.
	if String("x").Int() != 0 || Int(1).Str() != "" || Null().Bool() {
		t.Error("cross-kind accessors should return zero values")
	}
}

func TestObjectFieldLookup(t *testing.T) {
	o := Object(
		Field{"zeta", Int(1)},
		Field{"alpha", Int(2)},
		Field{"mid", Int(3)},
	)
	if got := o.FieldOr("alpha").Int(); got != 2 {
		t.Errorf("alpha = %d, want 2", got)
	}
	if got := o.FieldOr("zeta").Int(); got != 1 {
		t.Errorf("zeta = %d, want 1", got)
	}
	if _, ok := o.field("missing"); ok {
		t.Error("missing field reported present")
	}
	// Fields are sorted.
	fs := o.Fields()
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Name >= fs[i].Name {
			t.Errorf("fields not sorted: %q >= %q", fs[i-1].Name, fs[i].Name)
		}
	}
}

func TestObjectDuplicateKeepsLast(t *testing.T) {
	o := Object(Field{"a", Int(1)}, Field{"a", Int(2)})
	if o.Len() != 1 {
		t.Fatalf("Len = %d, want 1", o.Len())
	}
	if got := o.FieldOr("a").Int(); got != 2 {
		t.Errorf("a = %d, want 2 (last write wins)", got)
	}
}

func TestArrayIndexing(t *testing.T) {
	a := Array(Int(10), Int(20), Int(30))
	if a.Len() != 3 {
		t.Fatalf("Len = %d", a.Len())
	}
	if a.Index(1).Int() != 20 {
		t.Error("Index(1) wrong")
	}
	if !a.Index(-1).IsNull() || !a.Index(3).IsNull() {
		t.Error("out-of-range index should be null")
	}
	if !Int(5).Index(0).IsNull() {
		t.Error("indexing a scalar should be null")
	}
}

func TestMergeObjects(t *testing.T) {
	a := Object(Field{"x", Int(1)}, Field{"y", Int(2)})
	b := Object(Field{"y", Int(9)}, Field{"z", Int(3)})
	m := MergeObjects(a, b)
	if m.FieldOr("x").Int() != 1 || m.FieldOr("y").Int() != 9 || m.FieldOr("z").Int() != 3 {
		t.Errorf("merge wrong: %v", m)
	}
}

func TestCompareOrdering(t *testing.T) {
	ordered := []Value{
		Null(),
		Bool(false), Bool(true),
		Int(-5), Int(0), Double(0.5), Int(1), Double(1.5),
		String(""), String("a"), String("b"),
		Array(), Array(Int(1)), Array(Int(1), Int(2)), Array(Int(2)),
		Object(), Object(Field{"a", Int(1)}),
	}
	for i := range ordered {
		for j := range ordered {
			c := Compare(ordered[i], ordered[j])
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%v, %v) = %d, want <0", ordered[i], ordered[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v, %v) = %d, want >0", ordered[i], ordered[j], c)
			case i == j && c != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], c)
			}
		}
	}
}

func TestCompareCrossNumeric(t *testing.T) {
	if Compare(Int(2), Double(2.0)) != 0 {
		t.Error("2 and 2.0 should compare equal")
	}
	if Compare(Int(2), Double(2.5)) != -1 {
		t.Error("2 < 2.5")
	}
	if Compare(Double(3.5), Int(3)) != 1 {
		t.Error("3.5 > 3")
	}
	// Exact at ±2^53, where float images collide; ±0 equal; NaN one
	// value above +Inf.
	nan, big := math.NaN(), int64(1)<<53
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{Int(big + 1), Double(float64(big)), 1},
		{Int(big), Double(float64(big)), 0},
		{Int(-big - 1), Double(float64(-big)), -1},
		{Int(math.MaxInt64), Double(0x1p63), -1},
		{Int(math.MinInt64), Double(-0x1p63), 0},
		{Double(math.Copysign(0, -1)), Int(0), 0},
		{Double(math.Copysign(0, -1)), Double(0), 0},
		{Double(nan), Double(-nan), 0},
		{Double(nan), Double(math.Inf(1)), 1},
		{Double(nan), Int(math.MaxInt64), 1},
		{Double(math.Inf(-1)), Int(math.MinInt64), -1},
	} {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestHashEqualValuesCollide(t *testing.T) {
	pairs := [][2]Value{
		{Int(2), Double(2.0)},
		{Int(0), Double(math.Copysign(0, -1))},
		{Double(math.NaN()), Double(-math.NaN())},
		{Object(Field{"a", Int(1)}, Field{"b", Int(2)}), Object(Field{"b", Int(2)}, Field{"a", Int(1)})},
		{Array(String("x")), Array(String("x"))},
	}
	for _, p := range pairs {
		if Hash64(p[0]) != Hash64(p[1]) {
			t.Errorf("Hash64(%v) != Hash64(%v) for equal values", p[0], p[1])
		}
	}
}

func TestHashDistinguishes(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true), Int(0), Int(1), String("0"),
		String(""), Array(), Object(), Array(Int(1), Int(2)),
		Array(Array(Int(1)), Int(2)),
	}
	seen := map[uint64]Value{}
	for _, v := range vals {
		h := Hash64(v)
		if prev, ok := seen[h]; ok && !Equal(prev, v) {
			t.Errorf("hash collision between %v and %v", prev, v)
		}
		seen[h] = v
	}
}

func TestTruthy(t *testing.T) {
	if !Bool(true).Truthy() {
		t.Error("true should be truthy")
	}
	for _, v := range []Value{Bool(false), Null(), Int(1), String("true"), Array(Int(1))} {
		if v.Truthy() {
			t.Errorf("%v should not be truthy", v)
		}
	}
}

func TestStringRendering(t *testing.T) {
	v := Object(
		Field{"name", String("joe's")},
		Field{"ids", Array(Int(1), Int(2))},
		Field{"rate", Double(4.5)},
		Field{"none", Null()},
	)
	got := v.String()
	want := `{"ids":[1,2],"name":"joe's","none":null,"rate":4.5}`
	if got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

func TestEncodedSizeTracksString(t *testing.T) {
	vals := []Value{
		Int(12345), Double(1.25), String("hello"), Bool(true), Null(),
		Array(Int(1), String("ab")),
		Object(Field{"k", Int(1)}),
	}
	for _, v := range vals {
		sz := v.EncodedSize()
		if sz <= 0 {
			t.Errorf("EncodedSize(%v) = %d, want > 0", v, sz)
		}
		// The estimate should be within 2x of the real JSON length.
		real := int64(len(v.String()))
		if sz > 2*real+4 || real > 2*sz+4 {
			t.Errorf("EncodedSize(%v) = %d far from JSON len %d", v, sz, real)
		}
	}
}

// randomValue builds an arbitrary value for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(7)
	if depth <= 0 && k >= 5 {
		k = r.Intn(5)
	}
	switch k {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63n(1000) - 500)
	case 3:
		return Double(float64(r.Int63n(1000))/7.0 - 50)
	case 4:
		letters := []byte("abcdefgh")
		n := r.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return String(string(b))
	case 5:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return Array(elems...)
	default:
		n := r.Intn(4)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = Field{Name: string(rune('a' + r.Intn(5))), Value: randomValue(r, depth-1)}
		}
		return Object(fields...)
	}
}

func TestPropertyCompareReflexiveAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r, 3), randomValue(r, 3)
		if Compare(a, a) != 0 || Compare(b, b) != 0 {
			return false
		}
		cab, cba := Compare(a, b), Compare(b, a)
		return sign(cab) == -sign(cba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomValue(r, 2), randomValue(r, 2), randomValue(r, 2)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 {
			return Compare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		b := []byte(v.String())
		got, err := DecodeJSON(b)
		if err != nil {
			t.Logf("decode %s: %v", b, err)
			return false
		}
		return Equal(v, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEqualImpliesEqualHash(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		b := []byte(v.String())
		w, err := DecodeJSON(b)
		if err != nil {
			return false
		}
		return Hash64(v) == Hash64(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// fnvReference reproduces Hash64's traversal through the standard
// library's hash/fnv, pinning the inlined implementation to the exact
// byte stream the pre-optimization code hashed — except that -0.0 and
// NaN hash as 0 and one NaN, the values Compare cannot tell apart.
func fnvReference(v Value) uint64 {
	h := fnv.New64a()
	var walk func(Value)
	walk = func(v Value) {
		switch v.Kind() {
		case KindNull:
			h.Write([]byte{0})
		case KindBool:
			h.Write([]byte{1})
			if v.Bool() {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		case KindInt, KindDouble:
			h.Write([]byte{2})
			f := v.Float()
			switch {
			case f == 0:
				f = 0
			case math.IsNaN(f):
				f = math.NaN()
			}
			bits := math.Float64bits(f)
			var buf [8]byte
			for i := 0; i < 8; i++ {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		case KindString:
			h.Write([]byte{3})
			h.Write([]byte(v.Str()))
		case KindArray:
			h.Write([]byte{4})
			for _, e := range v.Elems() {
				walk(e)
			}
		case KindObject:
			h.Write([]byte{5})
			for _, f := range v.Fields() {
				h.Write([]byte(f.Name))
				walk(f.Value)
			}
		}
	}
	walk(v)
	return h.Sum64()
}

// TestHash64MatchesFNVReference pins the allocation-free hash to the
// standard library FNV-1a it replaced: partition assignments and
// hash-table layouts must not shift across the optimization.
func TestHash64MatchesFNVReference(t *testing.T) {
	fixed := []Value{
		Null(), Bool(true), Bool(false), Int(0), Int(-42), Double(3.25),
		Double(math.Copysign(0, -1)), Double(-math.NaN()), String(""), String("acme corp"), Array(), Array(Int(1), String("x")),
		Object(Field{Name: "k", Value: Int(7)}, Field{Name: "s", Value: String("v")}),
	}
	for _, v := range fixed {
		if got, want := Hash64(v), fnvReference(v); got != want {
			t.Errorf("Hash64(%v) = %#x, fnv reference %#x", v, got, want)
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		return Hash64(v) == fnvReference(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHash64DoesNotAllocate guards the shuffle hot path.
func TestHash64DoesNotAllocate(t *testing.T) {
	v := Object(
		Field{Name: "id", Value: Int(12345)},
		Field{Name: "name", Value: String("some customer name")},
		Field{Name: "tags", Value: Array(String("a"), String("b"))},
	)
	if allocs := testing.AllocsPerRun(100, func() { Hash64(v) }); allocs != 0 {
		t.Errorf("Hash64 allocates %.1f objects per call, want 0", allocs)
	}
}
