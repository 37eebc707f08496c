package data

import "math"

// Normalized keys: an order-preserving byte encoding of values, so that
// for any two values a and b,
//
//	bytes.Compare(NormKey(a), NormKey(b)) == Compare(a, b)
//
// (cross-kind comparisons, exact int/double order, -0.0 == 0, NaN above
// +Inf included). Every value has one. The shuffle uses them to sort and
// group pairs with memcmp string compares instead of recursive Compare
// calls per comparison, and the broadcast hash table indexes its rows by
// them — both on the per-record hot path, both Compare by the property
// above.
//
// Layout. Every value starts with a kind-class byte (classes as in
// kindClass, shifted by 1 so 0x00 stays free as a terminator that
// sorts below any element):
//
//	null   0x01
//	bool   0x02 b
//	number 0x03 <8-byte order-preserving float64 image, big-endian> [0x07 r r]
//	string 0x04 <bytes, 0x00 escaped as 0x00 0xFF> 0x00 0x00
//	array  0x05 <elements...> 0x00
//	object 0x06 (0x01 <name as escaped string> <value>)... 0x00
//
// A number encodes the largest double not above it, with the usual
// sign-fold (flip all bits for negatives, flip the sign bit for
// positives); -0.0 is canonicalized to +0.0 and every NaN to one
// positive NaN, which folds above +Inf. An int the double does not
// represent exactly (beyond ±2^53) appends a tail: 0x07 — above every
// byte that can follow a number (a class byte, a field marker, a
// terminator) — then its residual over that double, big-endian in two
// bytes (doubles below 2^63 are at most 2^10 apart). So equal numbers
// share a key and the tail orders an int between its double and the
// next. The string escape keeps the encoding self-delimiting inside
// arrays and objects while preserving order; each field's 0x01 marker
// sorts above the 0x00 terminator, so an object that ends first sorts
// first whatever the other's next field name, exactly like Compare's
// length tie-break — as the terminators do for arrays and strings.

const (
	nkTerm    = 0x00
	nkNull    = 0x01
	nkBool    = 0x02
	nkNumber  = 0x03
	nkString  = 0x04
	nkArray   = 0x05
	nkObject  = 0x06
	nkField   = 0x01
	nkIntTail = 0x07
)

// maxExactInt is the largest int64 magnitude below which every integer
// has an exact float64 image.
const maxExactInt = int64(1) << 53

// AppendNormKey appends the normalized encoding of v to dst (see the
// layout above). ok is always true: every value is encodable.
func AppendNormKey(dst []byte, v Value) (_ []byte, ok bool) { return appendNormKey(dst, v), true }

func appendNormKey(dst []byte, v Value) []byte {
	switch v.Kind() {
	case KindNull:
		return append(dst, nkNull)
	case KindBool:
		return append(dst, nkBool, byte(v.n))
	case KindInt:
		i := int64(v.n)
		if i > maxExactInt || i < -maxExactInt {
			return appendNormBigInt(dst, i)
		}
		return appendNormFloat(dst, float64(i))
	case KindDouble:
		return appendNormFloat(dst, canonFloat(math.Float64frombits(v.n)))
	case KindString:
		return appendNormString(append(dst, nkString), v.Str())
	case KindArray:
		dst = append(dst, nkArray)
		for _, e := range v.Elems() {
			dst = appendNormKey(dst, e)
		}
		return append(dst, nkTerm)
	case KindObject:
		dst = append(dst, nkObject)
		for _, f := range v.Fields() {
			dst = appendNormKey(appendNormString(append(dst, nkField), f.Name), f.Value)
		}
		return append(dst, nkTerm)
	}
	return dst
}

// appendNormFloat appends the order-preserving 8-byte image of f.
func appendNormFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return append(dst, nkNumber,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

// appendNormBigInt encodes an int beyond ±2^53: the largest double not
// above it, then the tail when the double is not the int itself.
func appendNormBigInt(dst []byte, i int64) []byte {
	f := float64(i) // rounded to nearest: may be above i, or 2^63
	if f >= 0x1p63 || int64(f) > i {
		f = math.Nextafter(f, math.Inf(-1))
	}
	dst = appendNormFloat(dst, f)
	if r := i - int64(f); r != 0 {
		dst = append(dst, nkIntTail, byte(r>>8), byte(r))
	}
	return dst
}

// appendNormString appends s with 0x00 escaped as 0x00 0xFF and a
// 0x00 0x00 terminator, preserving byte order and self-delimiting the
// encoding.
func appendNormString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// NormKey returns the normalized key of v as a string (memcmp-ordered,
// usable as a map key).
func NormKey(v Value) string { return string(appendNormKey(make([]byte, 0, 24), v)) }
