package data

import "math"

// Normalized keys: an order-preserving byte encoding of values, so that
// for any two encodable values a and b,
//
//	bytes.Compare(NormKey(a), NormKey(b)) == Compare(a, b)
//
// (including cross-kind comparisons and int/double numeric equality).
// The shuffle uses them to sort and group kvPairs with memcmp string
// compares instead of recursive Compare calls per comparison, and the
// broadcast hash table uses them for probe equality — both on the
// per-record hot path, both bit-identical to the Compare-based slow
// path by the property above.
//
// Layout. Every value starts with a kind-class byte (classes as in
// kindClass, shifted by 1 so 0x00 stays free as a terminator that
// sorts below any element):
//
//	null   0x01
//	bool   0x02 b
//	number 0x03 <8-byte order-preserving float64 image, big-endian>
//	string 0x04 <bytes, 0x00 escaped as 0x00 0xFF> 0x00 0x00
//	array  0x05 <elements...> 0x00
//	object 0x06 (<name as escaped string> <value>)... 0x00
//
// Numbers encode their float64 image with the usual sign-fold (flip all
// bits for negatives, flip the sign bit for positives), matching
// Compare's cross-kind int/double semantics; -0.0 is canonicalized to
// +0.0 first, since Compare treats them as equal. The string escape
// keeps the encoding self-delimiting inside arrays and objects while
// preserving order, and the 0x00 terminators sort shorter prefixes
// first, exactly like Compare's length tie-breaks.
//
// Two value classes cannot be encoded consistently with Compare and
// make AppendNormKey report ok=false: NaN doubles (Compare is not a
// total order over them) and integers beyond ±2^53 (Compare orders
// those exactly while their float64 images collide). Callers must fall
// back to Compare-based sorting for any batch containing such a key;
// TPC-H and every workload in this repository never produce one.

const (
	nkTerm   = 0x00
	nkNull   = 0x01
	nkBool   = 0x02
	nkNumber = 0x03
	nkString = 0x04
	nkArray  = 0x05
	nkObject = 0x06
)

// maxExactInt is the largest int64 magnitude whose float64 image is
// exact and unique, keeping the numeric encoding consistent with
// Compare's exact int ordering.
const maxExactInt = int64(1) << 53

// AppendNormKey appends the normalized encoding of v to dst and reports
// whether v is encodable (see package comment above). On ok=false dst
// may hold a partial encoding and must be discarded.
func AppendNormKey(dst []byte, v Value) ([]byte, bool) {
	switch v.Kind() {
	case KindNull:
		return append(dst, nkNull), true
	case KindBool:
		if v.Bool() {
			return append(dst, nkBool, 1), true
		}
		return append(dst, nkBool, 0), true
	case KindInt:
		i := v.Int()
		if i > maxExactInt || i < -maxExactInt {
			return dst, false
		}
		return appendNormFloat(dst, float64(i)), true
	case KindDouble:
		f := v.Float()
		if math.IsNaN(f) {
			return dst, false
		}
		if f == 0 {
			f = 0 // canonicalize -0.0, which Compare treats as equal to +0.0
		}
		return appendNormFloat(dst, f), true
	case KindString:
		return appendNormString(append(dst, nkString), v.Str()), true
	case KindArray:
		dst = append(dst, nkArray)
		var ok bool
		for _, e := range v.Elems() {
			if dst, ok = AppendNormKey(dst, e); !ok {
				return dst, false
			}
		}
		return append(dst, nkTerm), true
	case KindObject:
		dst = append(dst, nkObject)
		var ok bool
		for _, f := range v.Fields() {
			dst = appendNormString(dst, f.Name)
			if dst, ok = AppendNormKey(dst, f.Value); !ok {
				return dst, false
			}
		}
		return append(dst, nkTerm), true
	}
	return dst, false
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
// usable as a map key), and whether v is encodable.
func NormKey(v Value) (string, bool) {
	b, ok := AppendNormKey(make([]byte, 0, 24), v)
	if !ok {
		return "", false
	}
	return string(b), true
}
