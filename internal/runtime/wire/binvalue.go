package wire

import (
	"fmt"
	"slices"

	"dyno/internal/data"
)

// Columnar value encoding. A value list (a block's records, a
// response's rows, one side of a KV batch) is written as a count plus
// one column. Homogeneous scalar columns carry a null bitmap and a
// packed payload (varint ints, 8-byte doubles, interned strings, bit
// bools); lists of objects that share one field-name sequence recurse
// column-wise with the names written once; anything else falls back to
// per-value tagged encoding. All paths are exact: int64s survive via
// zigzag varints, doubles via their IEEE bits (-0.0 and NaN included),
// strings byte-for-byte (0x00 welcome), and object field order is the
// stored sorted order — decode rebuilds data.Compare-equal values with
// identical String() images.

// Column kinds.
const (
	colGeneric byte = iota // per-value tagged encoding
	colInt                 // null bitmap + zigzag varints
	colDouble              // null bitmap + IEEE bits
	colString              // null bitmap + interned strings
	colBool                // null bitmap + value bitmap
	colObject              // null bitmap + shared field names + field columns
)

// Generic value tags.
const (
	tagNull byte = iota
	tagFalse
	tagTrue
	tagInt
	tagDouble
	tagString
	tagArray
	tagObject
)

// writeValueList writes a counted column of values.
func (e *benc) writeValueList(vals []data.Value) {
	e.uvarint(uint64(len(vals)))
	e.writeColumn(vals)
}

// readValueList reads a counted column.
func (d *bdec) readValueList() ([]data.Value, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Cheapest possible value is one bitmap bit (a null, or a bool in
	// the packed bool column), so a valid column needs >= n/8 bytes.
	if n > uint64(d.rem())*8 {
		return nil, errShortFrame
	}
	return d.readList(int(n))
}

// readList decodes a column of n values into a fresh list.
func (d *bdec) readList(n int) ([]data.Value, error) {
	out := make([]data.Value, n)
	if err := d.readColumn(n, colDst{vals: out}, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// columnKind picks the densest representation for the list: a scalar
// kind when every non-null value shares it, colObject when every value
// is an object with the identical field-name sequence (nulls allowed),
// colGeneric otherwise.
func columnKind(vals []data.Value) byte {
	if len(vals) == 0 {
		return colGeneric
	}
	kind := colGeneric
	sawNonNull := false
	var names []data.Field
	for _, v := range vals {
		var k byte
		switch v.Kind() {
		case data.KindNull:
			continue
		case data.KindInt:
			k = colInt
		case data.KindDouble:
			k = colDouble
		case data.KindString:
			k = colString
		case data.KindBool:
			k = colBool
		case data.KindObject:
			k = colObject
		default:
			return colGeneric
		}
		if !sawNonNull {
			sawNonNull, kind = true, k
			if k == colObject {
				names = v.Fields()
			}
			continue
		}
		if k != kind {
			return colGeneric
		}
		if k == colObject && !sameFieldNames(names, v.Fields()) {
			return colGeneric
		}
	}
	if !sawNonNull {
		return colGeneric // all-null: tags are as small as a bitmap
	}
	return kind
}

func sameFieldNames(a, b []data.Field) bool {
	return slices.EqualFunc(a, b, func(x, y data.Field) bool { return x.Name == y.Name })
}

// writeNullBitmap writes one bit per value (1 = non-null).
func (e *benc) writeNullBitmap(vals []data.Value) {
	var cur byte
	for i := range vals {
		if vals[i].Kind() != data.KindNull {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			e.byte(cur)
			cur = 0
		}
	}
	if len(vals)&7 != 0 {
		e.byte(cur)
	}
}

func bitSet(bm []byte, i int) bool { return bm[i>>3]&(1<<(i&7)) != 0 }

// countSet returns how many of bm's first n bits are set.
func countSet(bm []byte, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if bitSet(bm, i) {
			c++
		}
	}
	return c
}

func (e *benc) writeColumn(vals []data.Value) {
	kind := columnKind(vals)
	e.byte(kind)
	switch kind {
	case colGeneric:
		for i := range vals {
			e.writeValue(vals[i])
		}
	case colInt:
		e.writeNullBitmap(vals)
		for i := range vals {
			if vals[i].Kind() != data.KindNull {
				e.varint(vals[i].Int())
			}
		}
	case colDouble:
		e.writeNullBitmap(vals)
		for i := range vals {
			if vals[i].Kind() != data.KindNull {
				e.f64(vals[i].Float())
			}
		}
	case colString:
		e.writeNullBitmap(vals)
		for i := range vals {
			if vals[i].Kind() != data.KindNull {
				e.str(vals[i].Str())
			}
		}
	case colBool:
		e.writeNullBitmap(vals)
		var cur byte
		nb := 0
		for i := range vals {
			if vals[i].Kind() == data.KindNull {
				continue
			}
			if vals[i].Bool() {
				cur |= 1 << (nb & 7)
			}
			if nb&7 == 7 {
				e.byte(cur)
				cur = 0
			}
			nb++
		}
		if nb&7 != 0 {
			e.byte(cur)
		}
	case colObject:
		e.writeNullBitmap(vals)
		var first []data.Field
		for i := range vals {
			if vals[i].Kind() != data.KindNull {
				first = vals[i].Fields()
				break
			}
		}
		e.uvarint(uint64(len(first)))
		for _, f := range first {
			e.str(f.Name)
		}
		// One sub-column per field, over the non-null rows, gathered on
		// the encoder's stack. A nested object column gathers its own
		// above this one and pops them before returning.
		base := len(e.stack)
		for fi := range first {
			for i := range vals {
				if vals[i].Kind() != data.KindNull {
					e.stack = append(e.stack, vals[i].Fields()[fi].Value)
				}
			}
			e.writeColumn(e.stack[base:])
			e.pop(base)
		}
	}
}

// pop drops the encoder's stack back to base, clearing what it drops
// so the pooled encoder pins no values.
func (e *benc) pop(base int) {
	clear(e.stack[base:])
	e.stack = e.stack[:base]
}

// colDst is where a column's values land: vals[i], or — for one field's
// sub-column of an object column — the Value of fields[i*stride], that
// field's slot in each row of the column's slab.
type colDst struct {
	vals   []data.Value
	fields []data.Field
	stride int
}

func (c colDst) set(i int, v data.Value) {
	if c.fields != nil {
		c.fields[i*c.stride].Value = v
		return
	}
	c.vals[i] = v
}

// readColumn decodes a column of n values, nested depth object columns
// deep, into dst. An object column's non-null rows share one
// []data.Field slab of nonNull × nf that its field sub-columns decode
// straight into. Each row is cut with len == cap (as Fields() answers
// anyway), so no append through one row reaches the next.
func (d *bdec) readColumn(n int, dst colDst, depth int) error {
	if depth > maxValueDepth {
		return fmt.Errorf("wire: value nesting exceeds %d", maxValueDepth)
	}
	kind, err := d.byte()
	if err != nil {
		return err
	}
	if kind == colGeneric {
		for i := 0; i < n; i++ {
			v, err := d.readValue(depth)
			if err != nil {
				return err
			}
			dst.set(i, v)
		}
		return nil
	}
	if kind > colObject {
		return fmt.Errorf("wire: unknown column kind %d", kind)
	}
	bm, err := d.take((n + 7) / 8) // the non-null flags
	if err != nil {
		return err
	}
	switch kind {
	case colInt:
		for i := 0; i < n; i++ {
			if bitSet(bm, i) {
				x, err := d.varint()
				if err != nil {
					return err
				}
				dst.set(i, data.Int(x))
			}
		}
	case colDouble:
		for i := 0; i < n; i++ {
			if bitSet(bm, i) {
				x, err := d.f64()
				if err != nil {
					return err
				}
				dst.set(i, data.Double(x))
			}
		}
	case colString:
		for i := 0; i < n; i++ {
			if bitSet(bm, i) {
				s, err := d.str()
				if err != nil {
					return err
				}
				dst.set(i, data.String(s))
			}
		}
	case colBool:
		vb, err := d.take((countSet(bm, n) + 7) / 8)
		if err != nil {
			return err
		}
		nb := 0
		for i := 0; i < n; i++ {
			if bitSet(bm, i) {
				dst.set(i, data.Bool(bitSet(vb, nb)))
				nb++
			}
		}
	case colObject:
		nonNull := countSet(bm, n)
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		// Every field costs a name of >= 1 byte. (Bounding u first keeps
		// the slab's product from overflowing.)
		if u > uint64(d.rem()) {
			return errShortFrame
		}
		if err := d.charge(uint64(nonNull) * u); err != nil {
			return err
		}
		nf := int(u)
		slab := make([]data.Field, nonNull*nf)
		for f := 0; f < nf; f++ {
			name, err := d.str()
			if err != nil {
				return err
			}
			if nonNull > 0 {
				slab[f].Name = name // row 0's; the others copy it below
			}
		}
		for f := 0; f < nf; f++ {
			sub := colDst{stride: nf}
			if nonNull > 0 {
				sub.fields = slab[f:]
			}
			if err := d.readColumn(nonNull, sub, depth+1); err != nil {
				return err
			}
		}
		// Field order is the encoder's stored (sorted) order, so
		// ObjectFromSorted rebuilds the identical layout.
		lo := 0
		for i := 0; i < n; i++ {
			if bitSet(bm, i) {
				row := slab[lo : lo+nf : lo+nf]
				for f := range row {
					row[f].Name = slab[f].Name
				}
				dst.set(i, data.ObjectFromSorted(row))
				lo += nf
			}
		}
	}
	return nil
}

// writeValue writes one tagged value (the generic row-wise form).
func (e *benc) writeValue(v data.Value) {
	switch v.Kind() {
	case data.KindBool:
		if v.Bool() {
			e.byte(tagTrue)
		} else {
			e.byte(tagFalse)
		}
	case data.KindInt:
		e.byte(tagInt)
		e.varint(v.Int())
	case data.KindDouble:
		e.byte(tagDouble)
		e.f64(v.Float())
	case data.KindString:
		e.byte(tagString)
		e.str(v.Str())
	case data.KindArray:
		e.byte(tagArray)
		elems := v.Elems()
		e.uvarint(uint64(len(elems)))
		for _, el := range elems {
			e.writeValue(el)
		}
	case data.KindObject:
		e.byte(tagObject)
		fields := v.Fields()
		e.uvarint(uint64(len(fields)))
		for _, f := range fields {
			e.str(f.Name)
			e.writeValue(f.Value)
		}
	default:
		e.byte(tagNull)
	}
}

// maxValueDepth bounds nesting while decoding untrusted frames.
const maxValueDepth = 512

func (d *bdec) readValue(depth int) (data.Value, error) {
	if depth > maxValueDepth {
		return data.Null(), fmt.Errorf("wire: value nesting exceeds %d", maxValueDepth)
	}
	tag, err := d.byte()
	if err != nil {
		return data.Null(), err
	}
	switch tag {
	case tagNull:
		return data.Null(), nil
	case tagFalse:
		return data.Bool(false), nil
	case tagTrue:
		return data.Bool(true), nil
	case tagInt:
		x, err := d.varint()
		return data.Int(x), err
	case tagDouble:
		x, err := d.f64()
		return data.Double(x), err
	case tagString:
		s, err := d.str()
		return data.String(s), err
	case tagArray:
		n, err := d.uvarint()
		if err != nil {
			return data.Null(), err
		}
		if n > uint64(d.rem()) {
			return data.Null(), errShortFrame
		}
		if err := d.charge(n); err != nil {
			return data.Null(), err
		}
		elems := make([]data.Value, n)
		for i := range elems {
			if elems[i], err = d.readValue(depth + 1); err != nil {
				return data.Null(), err
			}
		}
		return data.Array(elems...), nil
	case tagObject:
		n, err := d.uvarint()
		if err != nil {
			return data.Null(), err
		}
		if n > uint64(d.rem()) {
			return data.Null(), errShortFrame
		}
		if err := d.charge(n); err != nil {
			return data.Null(), err
		}
		fields := make([]data.Field, n)
		for i := range fields {
			if fields[i].Name, err = d.str(); err != nil {
				return data.Null(), err
			}
			if fields[i].Value, err = d.readValue(depth + 1); err != nil {
				return data.Null(), err
			}
		}
		return data.ObjectFromSorted(fields), nil
	default:
		return data.Null(), fmt.Errorf("wire: unknown value tag %d", tag)
	}
}

// writeKVs writes one KV batch of n pairs whose keys and then records
// the caller gathered onto the encoder's stack from base on: keys, tags
// (tag(k) the k-th pair's) and records, each as a column.
func (e *benc) writeKVs(base, n int, tag func(k int) string) {
	e.uvarint(uint64(n))
	if n > 0 {
		e.writeColumn(e.stack[base : base+n : base+n])
		for k := range n {
			e.str(tag(k))
		}
		e.writeColumn(e.stack[base+n : base+2*n])
	}
	e.pop(base)
}

// writePairs writes pairs as one KV batch.
func (e *benc) writePairs(pairs []KV) {
	base := len(e.stack)
	for i := range pairs {
		e.stack = append(e.stack, pairs[i].Key)
	}
	for i := range pairs {
		e.stack = append(e.stack, pairs[i].Rec)
	}
	e.writeKVs(base, len(pairs), func(k int) string { return pairs[k].Tag })
}

func (d *bdec) readKVs() ([]KV, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(d.rem()) {
		return nil, errShortFrame
	}
	keys, err := d.readList(int(n))
	if err != nil {
		return nil, err
	}
	out := make([]KV, n)
	for i := range out {
		if out[i].Tag, err = d.str(); err != nil {
			return nil, err
		}
	}
	recs, err := d.readList(int(n))
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Key, out[i].Rec = keys[i], recs[i]
	}
	return out, nil
}
