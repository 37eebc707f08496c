package data

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/big"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The model: the same tree as plain Go values — nil, bool, int64,
// float64, string, []any, map[string]any — with none of Value's packed
// layout, so every accessor answer can be recomputed independently.

// modelGen builds a Value and its model side by side from fuzz bytes.
type modelGen struct{ b []byte }

func (g *modelGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *modelGen) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = g.next()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// edgeInts and edgeDoubles are the numbers Compare, Hash64 and
// AppendNormKey treat specially: the float64 exact-integer boundary and
// the ints beyond it, int/double twins, signed zero, the non-finite
// doubles.
var (
	edgeInts    = []int64{0, 2, -2, 1 << 53, -(1 << 53), 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64}
	edgeDoubles = []float64{0, math.Copysign(0, -1), 2, -2, 1 << 53, -(1 << 53), math.NaN(), math.Inf(1), math.Inf(-1), 0.5}
)

// str copies fuzz bytes (NULs, quotes, invalid UTF-8 and all) into a
// fresh heap string, so only the Value keeps it alive.
func (g *modelGen) str() string {
	b := make([]byte, int(g.next())%7)
	for i := range b {
		b[i] = g.next()
	}
	return string(b)
}

func (g *modelGen) build(depth int) (Value, any) {
	k := g.next() % 7
	if depth <= 0 && k >= 5 {
		k -= 5
	}
	switch Kind(k) {
	case KindNull:
		return Null(), nil
	case KindBool:
		b := g.next()&1 == 1
		return Bool(b), b
	case KindInt:
		i := int64(g.u64())
		if c := g.next(); c&1 == 1 {
			i = edgeInts[int(c>>1)%len(edgeInts)]
		}
		return Int(i), i
	case KindDouble:
		f := math.Float64frombits(g.u64())
		if c := g.next(); c&1 == 1 {
			f = edgeDoubles[int(c>>1)%len(edgeDoubles)]
		}
		return Double(f), f
	case KindString:
		s := g.str()
		return String(s), strings.Clone(s) // the model must not keep v's bytes alive
	case KindArray:
		n := int(g.next()) % 4
		elems, m := make([]Value, n), make([]any, n)
		for i := range elems {
			elems[i], m[i] = g.build(depth - 1)
		}
		return Array(elems...), m
	default:
		n := int(g.next()) % 4
		fields, m := make([]Field, n), make(map[string]any, n)
		for i := range fields {
			name := g.str() // unsorted, may repeat: the last one wins
			fields[i].Name = name
			fields[i].Value, m[name] = g.build(depth - 1)
		}
		return Object(fields...), m
	}
}

func modelKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// modelRender writes the JSON-lines rendering and returns the size the
// DFS charges for it (a string counts its bytes plus two quotes,
// escapes not included).
func modelRender(sb *strings.Builder, m any) (size int64) {
	start := sb.Len()
	switch x := m.(type) {
	case nil:
		sb.WriteString("null")
	case bool:
		sb.WriteString(strconv.FormatBool(x))
	case int64:
		sb.WriteString(strconv.FormatInt(x, 10))
	case float64:
		sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case string:
		sb.WriteString(strconv.Quote(x))
		return int64(len(x)) + 2
	case []any:
		size = 2
		sb.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				sb.WriteByte(',')
				size++
			}
			size += modelRender(sb, e)
		}
		sb.WriteByte(']')
		return size
	case map[string]any:
		size = 2
		sb.WriteByte('{')
		for i, k := range modelKeys(x) {
			if i > 0 {
				sb.WriteByte(',')
				size++
			}
			sb.WriteString(strconv.Quote(k))
			sb.WriteByte(':')
			size += int64(len(k)) + 3 + modelRender(sb, x[k])
		}
		sb.WriteByte('}')
		return size
	}
	return int64(sb.Len() - start)
}

func modelClass(m any) int {
	switch m.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int64, float64:
		return 2
	case string:
		return 3
	case []any:
		return 4
	}
	return 5
}

// modelNumCompare is the number order, exactly, through math/big: NaN
// equals NaN and sorts above everything, -0.0 equals 0.
func modelNumCompare(a, b any) int {
	an, bn := modelIsNaN(a), modelIsNaN(b)
	switch {
	case an || bn:
		return cmpBool(an, bn)
	}
	return modelBig(a).Cmp(modelBig(b))
}

func modelIsNaN(m any) bool {
	f, ok := m.(float64)
	return ok && math.IsNaN(f)
}

func modelBig(m any) *big.Float {
	if i, ok := m.(int64); ok {
		return new(big.Float).SetInt64(i)
	}
	return new(big.Float).SetFloat64(m.(float64))
}

// cmpBool orders false before true.
func cmpBool(x, y bool) int {
	switch {
	case x == y:
		return 0
	case y:
		return -1
	}
	return 1
}

// modelCompare is Compare's documented order, over the model.
func modelCompare(a, b any) int {
	if ca, cb := modelClass(a), modelClass(b); ca != cb {
		return cmp.Compare(ca, cb)
	}
	switch x := a.(type) {
	case bool:
		return cmpBool(x, b.(bool))
	case int64, float64:
		return modelNumCompare(a, b)
	case string:
		return strings.Compare(x, b.(string))
	case []any:
		y := b.([]any)
		for i := 0; i < len(x) && i < len(y); i++ {
			if c := modelCompare(x[i], y[i]); c != 0 {
				return c
			}
		}
		return len(x) - len(y)
	case map[string]any:
		y := b.(map[string]any)
		kx, ky := modelKeys(x), modelKeys(y)
		for i := 0; i < len(kx) && i < len(ky); i++ {
			if c := strings.Compare(kx[i], ky[i]); c != 0 {
				return c
			}
			if c := modelCompare(x[kx[i]], y[ky[i]]); c != 0 {
				return c
			}
		}
		return len(kx) - len(ky)
	}
	return 0
}

// modelTwin swaps every int for the equal double where one exists and
// back (2 <-> 2.0, 2^60 <-> 2^60.0, -0.0 -> 0), and every NaN for the
// NaN of the other sign: a different tree that must compare, hash and
// normalize the same.
func modelTwin(m any) (Value, any) {
	switch x := m.(type) {
	case nil:
		return Null(), nil
	case bool:
		return Bool(x), x
	case int64:
		if f := float64(x); f < 0x1p63 && int64(f) == x {
			return Double(f), f
		}
		return Int(x), x
	case float64:
		if math.IsNaN(x) {
			return Double(-x), -x
		}
		if x == math.Trunc(x) && x >= -0x1p63 && x < 0x1p63 {
			return Int(int64(x)), int64(x)
		}
		return Double(x), x
	case string:
		return String(x), x
	case []any:
		elems, tm := make([]Value, len(x)), make([]any, len(x))
		for i, e := range x {
			elems[i], tm[i] = modelTwin(e)
		}
		return Array(elems...), tm
	}
	x := m.(map[string]any)
	fields, tm := make([]Field, 0, len(x)), make(map[string]any, len(x))
	for k, e := range x {
		var v Value
		v, tm[k] = modelTwin(e)
		fields = append(fields, Field{Name: k, Value: v})
	}
	return Object(fields...), tm
}

// checkAgainstModel holds every accessor of v — the right-kind ones and
// the wrong-kind ones, which must answer zero — to the model.
func checkAgainstModel(t *testing.T, v Value, m any) {
	t.Helper()
	var (
		kind   Kind
		b      bool
		i      int64
		f      float64
		s      string
		elems  []any
		fields map[string]any
	)
	switch x := m.(type) {
	case nil:
		kind = KindNull
	case bool:
		kind, b = KindBool, x
	case int64:
		kind, i, f = KindInt, x, float64(x)
	case float64:
		kind, i, f = KindDouble, int64(x), x
	case string:
		kind, s = KindString, x
	case []any:
		kind, elems = KindArray, x
	case map[string]any:
		kind, fields = KindObject, x
	}
	sameFloat := v.Float() == f || (math.IsNaN(f) && math.IsNaN(v.Float()))
	if v.Kind() != kind || v.IsNull() != (m == nil) || v.IsNumeric() != (kind == KindInt || kind == KindDouble) ||
		v.Bool() != b || v.Truthy() != b || v.Int() != i || !sameFloat || v.Str() != s ||
		v.Len() != len(elems)+len(fields) || len(v.Elems()) != len(elems) || len(v.Fields()) != len(fields) {
		t.Fatalf("%s: kind %v bool %v int %d float %v str %q len %d elems %d fields %d; model %#v",
			v, v.Kind(), v.Bool(), v.Int(), v.Float(), v.Str(), v.Len(), len(v.Elems()), len(v.Fields()), m)
	}
	if (kind != KindArray && v.Elems() != nil) || (kind != KindObject && v.Fields() != nil) {
		t.Fatalf("%s: a %v answers Elems() or Fields() non-nil", v, kind)
	}
	for idx := -1; idx <= len(elems); idx++ {
		got := v.Index(idx)
		if idx < 0 || idx >= len(elems) {
			if !got.IsNull() {
				t.Fatalf("%s: Index(%d) = %s, want null", v, idx, got)
			}
			continue
		}
		checkAgainstModel(t, got, elems[idx])
		if e := v.Elems()[idx]; e.Kind() != got.Kind() || !Equal(e, got) {
			t.Fatalf("%s: Elems()[%d] = %s, Index(%d) = %s", v, idx, e, idx, got)
		}
	}
	for n, name := range modelKeys(fields) {
		got, ok := v.field(name)
		if fl := v.Fields()[n]; !ok || fl.Name != name || fl.Value.Kind() != got.Kind() || !Equal(fl.Value, got) {
			t.Fatalf("%s: Fields()[%d] = %q: %s, Field(%q) = %s (found %v)", v, n, fl.Name, fl.Value, name, got, ok)
		}
		checkAgainstModel(t, got, fields[name])
	}
	if got, ok := v.field("\xffabsent"); ok || !got.IsNull() || !v.FieldOr("\xffabsent").IsNull() {
		t.Fatalf("%s: absent field found: %s", v, got)
	}
}

// FuzzValueModel builds three random trees both as Values and as the
// plain-Go model, lets the collector run while nothing but the Values'
// own pointer words keeps their strings and backing arrays alive, and
// then holds accessors, rendering, sizes, Compare, Hash64 and the
// normalized keys to the model.
func FuzzValueModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 5})                                // 2 vs 2.0
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 7, 2, 0, 0, 0, 0, 0, 0, 0, 0, 11, 3, 0, 0, 0, 0, 0, 0, 0, 0, 9}) // 2^53, 2^53+1, 2^53 as a double
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 13, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 3}) // NaN, 1, -0.0
	f.Add([]byte{4, 0, 5, 0, 6, 0})                                                                          // "", [], {}
	f.Add([]byte{4, 3, 'a', 0, 'b', 4, 3, 'a', 0, 0, 4, 2, 'a', 0})                                          // NUL-bearing strings
	f.Add([]byte{6, 3, 1, 'b', 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 5, 2, 4, 1, 'x', 0, 1, 'b', 1, 1})      // unsorted object, duplicate name, nested array
	f.Add([]byte{5, 3, 6, 1, 2, 'k', 0, 4, 6, 0xff, 0xfe, '"', '\\', '\n', 0, 3, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 1, 1})
	f.Add([]byte{5, 2, 6, 0, 6, 0, 5, 1, 6, 1, 0, 0})                                  // [{},{}] vs [{"":null}]
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0x20, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x40, 0x43, 0}) // 2^53+1 vs 2^53 as a double
	f.Fuzz(func(t *testing.T, raw []byte) {
		g := &modelGen{b: raw}
		var vs [3]Value
		var ms [3]any
		for i := range vs {
			vs[i], ms[i] = g.build(3)
		}
		// Collect, then allocate over whatever was wrongly freed.
		runtime.GC()
		inv := bytes.Clone(raw)
		for i := range inv {
			inv[i] = ^inv[i]
		}
		churn, _ := (&modelGen{b: inv}).build(3)
		defer runtime.KeepAlive(churn)

		var nks [3][]byte
		for i, v := range vs {
			checkAgainstModel(t, v, ms[i])
			var sb strings.Builder
			size := modelRender(&sb, ms[i])
			if v.String() != sb.String() {
				t.Fatalf("String() = %s, model renders %s", v, sb.String())
			}
			if v.EncodedSize() != size {
				t.Fatalf("EncodedSize(%s) = %d, model %d", v, v.EncodedSize(), size)
			}
			var ok bool
			if nks[i], ok = AppendNormKey(nil, v); !ok {
				t.Fatalf("AppendNormKey(%s) not ok", v)
			}

			tw, tm := modelTwin(ms[i])
			checkAgainstModel(t, tw, tm)
			if !Equal(v, tw) {
				t.Fatalf("%s != its twin %s", v, tw)
			}
			if Hash64(v) != Hash64(tw) {
				t.Fatalf("%s and its twin %s hash apart", v, tw)
			}
			if tnk, _ := AppendNormKey(nil, tw); !bytes.Equal(tnk, nks[i]) {
				t.Fatalf("%s and its twin %s normalize apart", v, tw)
			}
		}
		for i := range vs {
			for j := range vs {
				c := Compare(vs[i], vs[j])
				if c != modelCompare(ms[i], ms[j]) || sign(c) != -sign(Compare(vs[j], vs[i])) {
					t.Fatalf("Compare(%s, %s) = %d, reverse %d, model %d", vs[i], vs[j], c, Compare(vs[j], vs[i]), modelCompare(ms[i], ms[j]))
				}
				if c == 0 && Hash64(vs[i]) != Hash64(vs[j]) {
					t.Fatalf("%s == %s but they hash apart", vs[i], vs[j])
				}
				if sign(bytes.Compare(nks[i], nks[j])) != sign(c) {
					t.Fatalf("normalized keys order %s, %s as %d, Compare as %d", vs[i], vs[j], bytes.Compare(nks[i], nks[j]), c)
				}
				for k := range vs {
					if c <= 0 && Compare(vs[j], vs[k]) <= 0 && Compare(vs[i], vs[k]) > 0 {
						t.Fatalf("Compare is not transitive on %s, %s, %s", vs[i], vs[j], vs[k])
					}
				}
			}
		}
	})
}
