package batch

import "dyno/internal/data"

// vecKind classifies a column vector by the dynamic kinds it observed.
// A vector is typed only when every non-null value shares one exact
// kind; anything else — booleans, arrays, objects, or a mix of kinds
// (including int/double mixes, whose exact Compare semantics a single
// float image cannot reproduce beyond 2^53) — stays as materialized
// values, compared per row with data.Compare. Typed vectors therefore
// never approximate: every comparison loop below reproduces
// data.Compare's verdict exactly.
type vecKind uint8

const (
	vecMixed vecKind = iota
	vecInt
	vecFloat
	vecStr
)

// vec is one extracted column of a split: a typed payload array plus a
// null bitmap (bit i set = row i is null or missing). Vectors are
// immutable once built and shared by every job that scans the split.
type vec struct {
	kind   vecKind
	ints   []int64
	floats []float64
	strs   []string
	vals   []data.Value // vecMixed only
	nulls  []uint64     // nil when the column has no nulls
}

func (v *vec) isNull(i int) bool {
	return v.nulls != nil && v.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

func setNull(bits []uint64, i int) {
	bits[i>>6] |= 1 << (uint(i) & 63)
}

// value materializes row i back to a data.Value. Typed vectors are
// kind-pure, so the reconstruction is faithful (same kind, same
// payload, same encoded size) and Compare over it matches Compare over
// the original.
func (v *vec) value(i int) data.Value {
	if v.isNull(i) {
		return data.Null()
	}
	switch v.kind {
	case vecInt:
		return data.Int(v.ints[i])
	case vecFloat:
		return data.Double(v.floats[i])
	case vecStr:
		return data.String(v.strs[i])
	default:
		return v.vals[i]
	}
}

// class returns the data.Compare kind class of a typed vector's
// non-null values (numbers 2, strings 3); vecMixed has no single class.
func (v *vec) class() int {
	if v.kind == vecStr {
		return 3
	}
	return 2
}

// extractVec materializes one column of recs through a compiled
// accessor and classifies it.
func extractVec(acc *data.Accessor, recs []data.Value) *vec {
	n := len(recs)
	v := &vec{}
	vals := make([]data.Value, n)
	var nulls []uint64
	allInt, allFloat, allStr := true, true, true
	for i, rec := range recs {
		x := acc.Eval(rec)
		vals[i] = x
		switch x.Kind() {
		case data.KindNull:
			if nulls == nil {
				nulls = make([]uint64, (n+63)/64)
			}
			setNull(nulls, i)
		case data.KindInt:
			allFloat, allStr = false, false
		case data.KindDouble:
			allInt, allStr = false, false
		case data.KindString:
			allInt, allFloat = false, false
		default:
			allInt, allFloat, allStr = false, false, false
		}
	}
	v.nulls = nulls
	switch {
	case allInt:
		v.kind = vecInt
		v.ints = make([]int64, n)
		for i := range vals {
			v.ints[i] = vals[i].Int()
		}
	case allFloat:
		v.kind = vecFloat
		v.floats = make([]float64, n)
		for i := range vals {
			v.floats[i] = vals[i].Float()
		}
	case allStr:
		// Str is a view of the value's own bytes: the vector copies none.
		v.kind = vecStr
		v.strs = make([]string, n)
		for i := range vals {
			v.strs[i] = vals[i].Str()
		}
	default:
		v.kind = vecMixed
		v.vals = vals
	}
	return v
}
