// Package data implements the semistructured value model used throughout
// DYNO. Values are immutable, JSON-like trees: null, bool, int, double,
// string, array, and object. Objects keep their fields sorted by name so
// that encoding, comparison, and hashing are deterministic.
//
// Rows flowing through the engine are objects keyed by relation alias,
// e.g. {"rs": {...restaurant...}, "rv": {...review...}}, which makes
// path expressions such as rs.addr[0].zip uniform across base-table and
// post-join records.
package data

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds, ordered so that Compare can totally order values of
// different kinds (null < bool < numbers < string < array < object).
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindDouble
	KindString
	KindArray
	KindObject
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindObject:
		return "object"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Field is a single named member of an object value.
type Field struct {
	Name  string
	Value Value
}

// Value is an immutable semistructured datum. The zero Value is null.
//
// It is a three-word tagged union (see DESIGN.md, "Value layout"):
//
//   - p points at the string's bytes, or at the first element of the
//     array's []Value / the object's []Field backing array (an interior
//     pointer keeps the whole array alive); nil for scalars.
//   - n holds the int's bits, the double's IEEE bits, the bool (0/1), or
//     the length of the string / array / object.
//   - meta holds the kind in its low byte and, above it, the JSON-lines
//     EncodedSize — computed once at construction from the children's
//     cached sizes, so size accounting on the engine's hot paths is O(1).
//     56 bits of size is 64 PiB, beyond any value that fits in memory.
//
// What p points at depends on the kind, so nothing reads it except the
// typed views Str, Elems and Fields, which check the kind first. The
// zero-size func array keeps Value (and everything embedding it) not
// comparable: == would compare p by address.
type Value struct {
	_    [0]func()
	p    unsafe.Pointer
	n    uint64
	meta uint64
}

func mkValue(k Kind, p unsafe.Pointer, n uint64, enc int64) Value {
	return Value{p: p, n: n, meta: uint64(k) | uint64(enc)<<8}
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return mkValue(KindBool, nil, 1, 4)
	}
	return mkValue(KindBool, nil, 0, 5)
}

// Int returns an integer value.
func Int(i int64) Value { return mkValue(KindInt, nil, uint64(i), intEncLen(i)) }

// Double returns a floating-point value.
func Double(f float64) Value {
	var buf [32]byte
	return mkValue(KindDouble, nil, math.Float64bits(f), int64(len(strconv.AppendFloat(buf[:0], f, 'g', -1, 64))))
}

// String returns a string value.
func String(s string) Value {
	return mkValue(KindString, unsafe.Pointer(unsafe.StringData(s)), uint64(len(s)), int64(len(s))+2)
}

// Array returns an array value holding the given elements. The slice is
// retained; callers must not mutate it afterwards.
func Array(elems ...Value) Value {
	var n int64 = 2
	for i := range elems {
		if i > 0 {
			n++
		}
		n += elems[i].EncodedSize()
	}
	return mkValue(KindArray, unsafe.Pointer(unsafe.SliceData(elems)), uint64(len(elems)), n)
}

// intEncLen returns the decimal encoding length of an integer without
// formatting it.
func intEncLen(i int64) int64 {
	var n int64
	u := uint64(i)
	if i < 0 {
		n = 1
		u = uint64(-i) // math.MinInt64 wraps to its own magnitude, which is correct here
	}
	for {
		n++
		u /= 10
		if u == 0 {
			return n
		}
	}
}

// objectFromSorted wraps fields that are already sorted by name and
// duplicate-free. The slice is retained.
func objectFromSorted(fs []Field) Value {
	var n int64 = 2
	for i := range fs {
		if i > 0 {
			n++
		}
		n += int64(len(fs[i].Name)) + 3 + fs[i].Value.EncodedSize()
	}
	return mkValue(KindObject, unsafe.Pointer(unsafe.SliceData(fs)), uint64(len(fs)), n)
}

// Object returns an object value from the given fields. Fields are sorted
// by name; a duplicate name keeps the last occurrence.
func Object(fields ...Field) Value {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	// Most construction sites already supply fields in sorted order
	// (single-field alias wraps, rebuilds of existing objects); detect
	// that in one pass and skip the sort + dedup entirely.
	sorted := true
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Name >= fs[i].Name {
			sorted = false
			break
		}
	}
	if sorted {
		return objectFromSorted(fs)
	}
	slices.SortStableFunc(fs, func(a, b Field) int { return strings.Compare(a.Name, b.Name) })
	// Deduplicate, keeping the last write for each name.
	out := fs[:0]
	for i := 0; i < len(fs); i++ {
		if len(out) > 0 && out[len(out)-1].Name == fs[i].Name {
			out[len(out)-1] = fs[i]
		} else {
			out = append(out, fs[i])
		}
	}
	return objectFromSorted(out)
}

// ObjectFromSorted returns an object value over fields that are
// already sorted by name and duplicate-free, retaining the slice
// without copying it. Callers must not mutate the slice afterwards and
// must guarantee the ordering invariant — it is what makes encoding,
// comparison, and hashing deterministic. Row transforms that filter an
// existing object's fields (which are sorted by construction) use this
// to skip Object's defensive copy on per-record paths.
func ObjectFromSorted(fs []Field) Value { return objectFromSorted(fs) }

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return Kind(v.meta) }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.Kind() == KindNull }

// Bool returns the boolean payload. It is false for non-bool values.
func (v Value) Bool() bool { return v.Kind() == KindBool && v.n != 0 }

// Int returns the integer payload, converting doubles by truncation.
// It is 0 for non-numeric values.
func (v Value) Int() int64 {
	switch v.Kind() {
	case KindInt:
		return int64(v.n)
	case KindDouble:
		return int64(math.Float64frombits(v.n))
	default:
		return 0
	}
}

// Float returns the numeric payload as float64. It is 0 for non-numeric
// values.
func (v Value) Float() float64 {
	switch v.Kind() {
	case KindInt:
		return float64(int64(v.n))
	case KindDouble:
		return math.Float64frombits(v.n)
	default:
		return 0
	}
}

// Str returns the string payload. It is "" for non-string values.
func (v Value) Str() string {
	if v.Kind() != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// IsNumeric reports whether the value is an int or a double.
func (v Value) IsNumeric() bool { return v.Kind() == KindInt || v.Kind() == KindDouble }

// Len returns the number of elements (arrays) or fields (objects),
// and 0 for everything else.
func (v Value) Len() int {
	switch v.Kind() {
	case KindArray, KindObject:
		return int(v.n)
	default:
		return 0
	}
}

// Index returns the i-th array element. Out-of-range indexes and
// non-arrays yield null.
func (v Value) Index(i int) Value {
	if a := v.Elems(); i >= 0 && i < len(a) {
		return a[i]
	}
	return Null()
}

// Elems returns the array elements. Callers must not mutate the slice.
func (v Value) Elems() []Value {
	if v.Kind() != KindArray {
		return nil
	}
	return unsafe.Slice((*Value)(v.p), int(v.n))
}

// fieldIndexIn returns the position of the named field, or -1. Rows are
// shallow objects (a handful of aliases, each wrapping a table-width
// record), so a linear scan with sorted-order early exit beats binary
// search up to a few dozen fields; wider objects use an inlined binary
// search, avoiding the closure calls of sort.Search on the Eval hot
// path.
func fieldIndexIn(fs []Field, name string) int {
	if len(fs) <= 24 {
		for i := range fs {
			if fs[i].Name >= name {
				if fs[i].Name == name {
					return i
				}
				return -1
			}
		}
		return -1
	}
	lo, hi := 0, len(fs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fs[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(fs) && fs[lo].Name == name {
		return lo
	}
	return -1
}

// field returns the named object field and whether it exists.
func (v Value) field(name string) (Value, bool) {
	fs := v.Fields()
	if i := fieldIndexIn(fs, name); i >= 0 {
		return fs[i].Value, true
	}
	return Null(), false
}

// FieldOr returns the named field or null when absent.
func (v Value) FieldOr(name string) Value {
	f, _ := v.field(name)
	return f
}

// Fields returns the object's fields in name order. Callers must not
// mutate the slice.
func (v Value) Fields() []Field {
	if v.Kind() != KindObject {
		return nil
	}
	return unsafe.Slice((*Field)(v.p), int(v.n))
}

// MergeObjects returns an object containing the fields of a and b.
// On a name clash b wins. Non-object inputs contribute nothing.
// The engine's joins merge through a FieldArena instead; this is the
// same merge with a slice of its own per row.
func MergeObjects(a, b Value) Value {
	af, bf := a.Fields(), b.Fields()
	if len(af) == 0 && len(bf) == 0 {
		return objectFromSorted(nil)
	}
	return objectFromSorted(mergeFields(make([]Field, 0, len(af)+len(bf)), af, bf))
}

// mergeFields appends the union of two sorted field lists to dst, which
// must have room for len(af)+len(bf) fields. Both inputs keep their
// fields sorted, so the merge is a single linear pass — no re-sort, the
// dominant cost of every join's output row.
func mergeFields(dst, af, bf []Field) []Field {
	i, j := 0, 0
	for i < len(af) && j < len(bf) {
		switch {
		case af[i].Name < bf[j].Name:
			dst = append(dst, af[i])
			i++
		case af[i].Name > bf[j].Name:
			dst = append(dst, bf[j])
			j++
		default: // clash: b wins
			dst = append(dst, bf[j])
			i++
			j++
		}
	}
	dst = append(dst, af[i:]...)
	return append(dst, bf[j:]...)
}

// Compare totally orders two values: first by kind class, then by
// payload. Numbers compare by exact value across int and double
// (CompareInt, CompareFloat, CompareIntFloat): -0.0 equals 0, and every
// NaN equals every other NaN and sorts above +Inf. It returns -1, 0, or
// +1. AppendNormKey encodes this order and Hash64 respects its equality.
func Compare(a, b Value) int {
	ca, cb := kindClass(a.Kind()), kindClass(b.Kind())
	if ca != cb {
		if ca < cb {
			return -1
		}
		return 1
	}
	switch a.Kind() {
	case KindBool:
		return int(a.n) - int(b.n)
	case KindInt:
		if b.Kind() == KindDouble {
			return CompareIntFloat(int64(a.n), math.Float64frombits(b.n))
		}
		return CompareInt(int64(a.n), int64(b.n))
	case KindDouble:
		if b.Kind() == KindInt {
			return -CompareIntFloat(int64(b.n), math.Float64frombits(a.n))
		}
		return CompareFloat(math.Float64frombits(a.n), math.Float64frombits(b.n))
	case KindString:
		return strings.Compare(a.Str(), b.Str())
	case KindArray:
		ae, be := a.Elems(), b.Elems()
		n := min(len(ae), len(be))
		for i := 0; i < n; i++ {
			if c := Compare(ae[i], be[i]); c != 0 {
				return c
			}
		}
		return len(ae) - len(be)
	case KindObject:
		af, bf := a.Fields(), b.Fields()
		n := min(len(af), len(bf))
		for i := 0; i < n; i++ {
			if c := strings.Compare(af[i].Name, bf[i].Name); c != 0 {
				return c
			}
			if c := Compare(af[i].Value, bf[i].Value); c != 0 {
				return c
			}
		}
		return len(af) - len(bf)
	}
	return 0
}

// CompareInt orders two ints.
func CompareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CompareFloat orders two doubles as Compare does: -0.0 equals 0, NaN
// equals NaN and sorts above +Inf.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a != a: // NaN: equal to NaN, above every number
		if b != b {
			return 0
		}
		return 1
	}
	return -1 // b is NaN, a is not
}

// CompareIntFloat orders an int against a double by exact value, with
// no rounding at ±2^53: Int(2^53+1) is above Double(2^53). NaN is above
// every int.
func CompareIntFloat(i int64, f float64) int {
	// Rounding is monotonic, so a strict order of the int's float image
	// is the int's own order. Equal images leave f integral and within
	// [-2^63, 2^63], exactly comparable as an int below 2^63.
	fi := float64(i)
	switch {
	case fi < f:
		return -1
	case fi > f:
		return 1
	case fi != f: // NaN
		return -1
	case f >= 0x1p63:
		return -1
	}
	return CompareInt(i, int64(f))
}

// canonFloat folds the doubles Compare cannot tell apart onto one
// representative: -0.0 onto 0, every NaN onto one positive quiet NaN.
func canonFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return math.NaN()
	}
	return f
}

// kindClass groups int and double so they compare as numbers.
func kindClass(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindDouble:
		return 2
	case KindString:
		return 3
	case KindArray:
		return 4
	case KindObject:
		return 5
	}
	return 6
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a parameters (hash/fnv's 64a variant, inlined so hashing is
// allocation-free on the shuffle hot path).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 returns a 64-bit FNV-1a hash of the value. Values that compare
// equal hash equal (ints and integral doubles, -0.0 and 0, every NaN).
// The result is byte-for-byte identical to hashing the same traversal
// through hash/fnv.New64a.
func Hash64(v Value) uint64 {
	return hashValue(fnvOffset64, v)
}

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashNumber hashes a number by its float64 image.
func hashNumber(h uint64, f float64) uint64 {
	h = hashByte(h, 2)
	bits := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(bits>>(8*i)))
	}
	return h
}

func hashValue(h uint64, v Value) uint64 {
	switch v.Kind() {
	case KindNull:
		return hashByte(h, 0)
	case KindBool:
		return hashByte(hashByte(h, 1), byte(v.n))
	case KindInt:
		// Hash numbers by their canonical float64 image so 2 and 2.0,
		// -0.0 and 0, and all NaNs collide, as Compare equates them.
		return hashNumber(h, float64(int64(v.n)))
	case KindDouble:
		f := math.Float64frombits(v.n)
		if f == 0 || f != f { // -0.0 or NaN; unguarded, Hash64 read 5-15 % slower
			f = canonFloat(f)
		}
		return hashNumber(h, f)
	case KindString:
		return hashString(hashByte(h, 3), v.Str())
	case KindArray:
		h = hashByte(h, 4)
		for _, e := range v.Elems() {
			h = hashValue(h, e)
		}
		return h
	case KindObject:
		h = hashByte(h, 5)
		for _, f := range v.Fields() {
			h = hashString(h, f.Name)
			h = hashValue(h, f.Value)
		}
		return h
	}
	return h
}

// EncodedSize estimates the on-disk size of the value in bytes, matching
// the JSON-lines encoding used by the simulated DFS. The simulator and
// the optimizer's cost model both consume this estimate. Every
// constructor caches the size, so calls are O(1); only the zero Value
// (null, 4 bytes) carries none.
func (v Value) EncodedSize() int64 {
	if enc := v.meta >> 8; enc != 0 {
		return int64(enc)
	}
	return 4
}

// String renders the value as compact JSON-ish text.
func (v Value) String() string {
	var sb strings.Builder
	v.writeTo(&sb)
	return sb.String()
}

func (v Value) writeTo(sb *strings.Builder) {
	switch v.Kind() {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.Bool()))
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.Int(), 10))
	case KindDouble:
		sb.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case KindString:
		sb.WriteString(strconv.Quote(v.Str()))
	case KindArray:
		sb.WriteByte('[')
		for i, e := range v.Elems() {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.writeTo(sb)
		}
		sb.WriteByte(']')
	case KindObject:
		sb.WriteByte('{')
		for i, f := range v.Fields() {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Quote(f.Name))
			sb.WriteByte(':')
			f.Value.writeTo(sb)
		}
		sb.WriteByte('}')
	}
}

// Truthy reports whether the value should be treated as true in a filter
// position: boolean true, or any non-null non-false value is falsy except
// booleans; only Bool(true) is truthy, matching SQL-ish predicate
// semantics where predicates evaluate to booleans.
func (v Value) Truthy() bool { return v.Bool() }
