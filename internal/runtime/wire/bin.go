package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"dyno/internal/data"
)

// The binary frame codec. Every frame is a self-contained byte stream:
// varint-coded integers (zigzag for signed), IEEE-754 bits for doubles
// (exact — no decimal round trip), length-prefixed byte strings, and a
// per-frame string dictionary so aliases, field names, tags, and
// repeated data strings are carried once and referenced by index
// afterwards. Both ends grow the dictionary with the same rule, so no
// table is ever shipped.
//
// Interning rule (encoder and decoder must agree exactly): a string is
// added to the dictionary after being written in full iff it is at
// most maxInternLen bytes and the dictionary holds fewer than
// maxInternEntries strings. Longer or overflow strings are written in
// full every time.

const (
	maxInternLen     = 128
	maxInternEntries = 1 << 16
)

// benc is a binary frame encoder. The zero value is NOT ready; use
// newBenc (pooled).
type benc struct {
	buf  []byte
	dict map[string]uint64
	// stack gathers an object column's field sub-columns (and a KV
	// batch's keys and records); writeColumn pops and clears what it
	// pushes, so it is empty between frames.
	stack []data.Value
}

var bencPool = sync.Pool{New: func() any { return &benc{dict: make(map[string]uint64)} }}

func newBenc() *benc {
	e := bencPool.Get().(*benc)
	e.buf = e.buf[:0]
	clear(e.dict)
	return e
}

// release returns the encoder to the pool. The caller must be done
// with any slice obtained from e.buf.
func (e *benc) release() {
	if cap(e.buf) > 1<<22 { // don't pin giant task payloads
		e.buf = nil
	}
	if cap(e.stack) > 1<<17 {
		e.stack = nil
	}
	bencPool.Put(e)
}

func (e *benc) raw(b []byte)     { e.buf = append(e.buf, b...) }
func (e *benc) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *benc) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }
func (e *benc) varint(x int64)   { e.buf = binary.AppendVarint(e.buf, x) }
func (e *benc) bool(b bool)      { e.byte(boolByte(b)) }
func (e *benc) f64(x float64)    { e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(x)) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// str writes an interned string: index+1 for a dictionary hit, or 0
// followed by the raw bytes for a first occurrence.
func (e *benc) str(s string) {
	if idx, ok := e.dict[s]; ok {
		e.uvarint(idx + 1)
		return
	}
	e.uvarint(0)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
	if len(s) <= maxInternLen && len(e.dict) < maxInternEntries {
		e.dict[s] = uint64(len(e.dict))
	}
}

// bdec decodes a frame produced by benc.
type bdec struct {
	buf  []byte
	pos  int
	dict []string
	// cells is what is left of the frame's allocation budget (charge).
	cells uint64
}

var bdecPool = sync.Pool{New: func() any { return &bdec{} }}

func newBdec(b []byte) *bdec {
	d := bdecPool.Get().(*bdec)
	d.buf, d.pos, d.dict, d.cells = b, 0, d.dict[:0], 8*uint64(len(b))
	return d
}

// charge takes n cells — the Values, Fields or Exprs of a container
// that can nest (an object column's slab, a generic array or object,
// an expression list) — from the frame's budget before they are
// allocated. Every such cell of a valid frame is backed by at least one
// bit that backs no other (a bitmap bit, a tag byte), so a frame of L
// bytes decodes at most 8L of them, however deeply its containers nest.
// A check against the bytes left alone would count the same bytes
// again at every level. (Top-level lists do not nest: their own checks
// keep them linear.)
func (d *bdec) charge(n uint64) error {
	if n > d.cells {
		return errShortFrame
	}
	d.cells -= n
	return nil
}

func (d *bdec) release() {
	d.buf = nil
	if cap(d.dict) > maxInternEntries {
		d.dict = nil
	}
	bdecPool.Put(d)
}

var errShortFrame = fmt.Errorf("wire: truncated binary frame")

func (d *bdec) rem() int { return len(d.buf) - d.pos }

func (d *bdec) byte() (byte, error) {
	if d.rem() < 1 {
		return 0, errShortFrame
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *bdec) bool() (bool, error) {
	b, err := d.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("wire: bad bool byte %d", b)
	}
	return b == 1, nil
}

func (d *bdec) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	d.pos += n
	return x, nil
}

func (d *bdec) varint() (int64, error) {
	x, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	d.pos += n
	return x, nil
}

func (d *bdec) f64() (float64, error) {
	if d.rem() < 8 {
		return 0, errShortFrame
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return x, nil
}

func (d *bdec) take(n int) ([]byte, error) {
	if n < 0 || d.rem() < n {
		return nil, errShortFrame
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *bdec) blob() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.rem()) {
		return nil, errShortFrame
	}
	return d.take(int(n))
}

// str reads an interned string, mirroring benc.str's dictionary rule.
func (d *bdec) str() (string, error) {
	idx, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if idx > 0 {
		idx--
		if idx >= uint64(len(d.dict)) {
			return "", fmt.Errorf("wire: dictionary reference %d out of range (%d entries)", idx, len(d.dict))
		}
		return d.dict[idx], nil
	}
	b, err := d.blob()
	if err != nil {
		return "", err
	}
	s := string(b)
	if len(s) <= maxInternLen && len(d.dict) < maxInternEntries {
		d.dict = append(d.dict, s)
	}
	return s, nil
}
