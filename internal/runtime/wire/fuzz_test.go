package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
)

// gen deterministically derives values and expressions from a fuzz
// byte stream: every input maps to one well-formed tree, so the fuzzer
// explores the codec's structural space instead of drowning in parse
// rejections.
type gen struct {
	b []byte
	i int
}

func (g *gen) next() byte {
	if g.i >= len(g.b) {
		return 0
	}
	v := g.b[g.i]
	g.i++
	return v
}

func (g *gen) u64() uint64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = g.next()
	}
	return binary.LittleEndian.Uint64(raw[:])
}

// str yields a valid-UTF-8 string (engine strings are decoded JSON,
// always valid). NUL bytes survive.
func (g *gen) str() string {
	n := int(g.next()) % 40
	raw := make([]byte, n)
	for i := range raw {
		raw[i] = g.next()
	}
	return strings.ToValidUTF8(string(raw), "�")
}

func (g *gen) value(depth int) data.Value {
	c := g.next()
	if depth <= 0 {
		c %= 6 // scalars only at the depth limit
	} else {
		c %= 8
	}
	switch c {
	case 0:
		return data.Null()
	case 1:
		return data.Bool(g.next()&1 == 0)
	case 2:
		return data.Int(int64(g.u64()))
	case 3:
		return data.Double(math.Float64frombits(g.u64()))
	case 4:
		return data.String(g.str())
	case 5:
		// Boundary scalars the random u64 path rarely hits.
		switch g.next() % 6 {
		case 0:
			return data.Int(1 << 53)
		case 1:
			return data.Int(-(1 << 53))
		case 2:
			return data.Double(math.Copysign(0, -1))
		case 3:
			return data.Double(math.Inf(1))
		case 4:
			return data.Int(math.MinInt64)
		default:
			return data.String("\x00")
		}
	case 6:
		n := int(g.next()) % 5
		elems := make([]data.Value, n)
		for i := range elems {
			elems[i] = g.value(depth - 1)
		}
		return data.Array(elems...)
	default:
		n := int(g.next()) % 5
		fields := make([]data.Field, n)
		for i := range fields {
			fields[i] = data.Field{Name: "f" + string(rune('a'+i)) + g.str(), Value: g.value(depth - 1)}
		}
		return data.Object(fields...)
	}
}

var fuzzPaths = []data.Path{
	data.MustParsePath("l.l_quantity"),
	data.MustParsePath("o.o_orderstatus"),
	data.MustParsePath("p.p_name"),
	data.MustParsePath("a.b.c"),
}

var cmpOps = []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
var arithOps = []expr.ArithOp{expr.Add, expr.Sub, expr.Mul, expr.Div}

func (g *gen) expr(depth int) expr.Expr {
	c := g.next()
	if depth <= 0 {
		c %= 2
	} else {
		c %= 8
	}
	switch c {
	case 0:
		return &expr.Col{Path: fuzzPaths[int(g.next())%len(fuzzPaths)]}
	case 1:
		return &expr.Lit{V: g.value(2)}
	case 2:
		return &expr.Cmp{Op: cmpOps[int(g.next())%len(cmpOps)], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 3:
		terms := make([]expr.Expr, 1+int(g.next())%3)
		for i := range terms {
			terms[i] = g.expr(depth - 1)
		}
		return &expr.And{Terms: terms}
	case 4:
		terms := make([]expr.Expr, 1+int(g.next())%3)
		for i := range terms {
			terms[i] = g.expr(depth - 1)
		}
		return &expr.Or{Terms: terms}
	case 5:
		return &expr.Not{E: g.expr(depth - 1)}
	case 6:
		return &expr.Arith{Op: arithOps[int(g.next())%len(arithOps)], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	default:
		args := make([]expr.Expr, int(g.next())%3)
		for i := range args {
			args[i] = g.expr(depth - 1)
		}
		return &expr.Call{Name: "udf_" + string(rune('a'+int(g.next())%4)), Args: args}
	}
}

// Seed spellers for gen's input. Object fields are named "fa", "fb", …
// by position (the name suffix is left empty), so objects with equal
// field counts share a field-name sequence and form an object column.
var seedNull = []byte{0}

func seedInt(x byte) []byte { return []byte{2, x, 0, 0, 0, 0, 0, 0, 0} }

func seedStr(s string) []byte { return append([]byte{4, byte(len(s))}, s...) }

func seedObj(fields ...[]byte) []byte {
	b := []byte{7, byte(len(fields))}
	for _, f := range fields {
		b = append(append(b, 0), f...)
	}
	return b
}

// seedRows spells a list of one to four values.
func seedRows(rows ...[]byte) []byte {
	return append([]byte{byte(len(rows) - 1)}, bytes.Join(rows, nil)...)
}

// FuzzValueRoundTrip drives generated values through the binary block
// frame and requires a data.Compare-equal value with the identical
// rendering back.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f, 0x00})          // large int
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0x80})                               // -0.0
	f.Add([]byte{4, 5, 'a', 0x00, 'b', 0xc3, 0xa9})                           // NUL + UTF-8
	f.Add([]byte{7, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 2, 0, 0, 6, 2, 0, 1}) // nested object
	f.Add([]byte{6, 4, 2, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1}) // mixed array
	// Object columns two levels deep, nulls at both.
	f.Add(seedRows(
		seedObj(seedObj(seedInt(1)), seedInt(2)),
		seedNull,
		seedObj(seedObj(seedNull), seedInt(3)),
		seedObj(seedNull, seedInt(4))))
	// Three levels deep, with a mixed-kind (generic) field beside them.
	f.Add(seedRows(
		seedObj(seedObj(seedObj(seedInt(1), seedStr("x"))), seedInt(5)),
		seedObj(seedObj(seedNull), seedStr("m")),
		seedObj(seedObj(seedObj(seedNull, seedStr("y"))), seedInt(6)),
		seedNull))
	// A field absent in one row and null in another.
	f.Add(seedRows(
		seedObj(seedObj(seedInt(1), seedInt(2))),
		seedObj(seedObj(seedInt(3))),
		seedObj(seedObj(seedNull, seedInt(4)))))
	f.Fuzz(func(t *testing.T, raw []byte) {
		g := &gen{b: raw}
		vals := make([]data.Value, 1+int(g.next())%4)
		for i := range vals {
			vals[i] = g.value(4)
		}
		got := binValueRoundTrip(t, vals)
		for i := range vals {
			assertSameValue(t, vals[i], got[i])
		}
	})
}

// FuzzExprRoundTrip drives one generated expression through a full
// task frame (as an OpSpec residual), requiring the decode to rebuild
// the identical tree.
func FuzzExprRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0, 1, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{3, 2, 5, 2, 1, 0, 0, 1, 4, 5, 0x00, 0x00, 'x', 0xff, 0xfe})
	f.Add([]byte{7, 2, 6, 1, 0, 1, 2, 2, 2, 1, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		g := &gen{b: raw}
		e := g.expr(5)
		be, err := frameRoundTrip(e)
		if err != nil {
			t.Fatalf("round trip of %s: %v", e, err)
		}
		if be.String() != e.String() {
			t.Fatalf("round trip changed tree:\n  %s\n  %s", e, be)
		}
	})
}

// The three fuzzers below feed arbitrary bytes to the decoders that
// face the socket. A decoder may refuse the input but never panic, and
// whatever it accepts must survive encode -> decode -> encode
// unchanged: the first encode canonicalizes (hostile input may spell a
// varint or a dictionary reference the long way), after which the
// frame is a fixed point.

// The task seeds carry block spans at both ends of their range (0 and
// MaxInt64) and, among the hostile ones, negative spans, which encode
// past what the decoder accepts.
func FuzzTaskBatchDecode(f *testing.F) {
	f.Add([]byte("DYT2"))
	seed, err := EncodeTaskBatch(sampleTasks(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(seed.Bytes()))
	seed.Close()
	// One job's tasks, sharing one op and one build list.
	shared, err := EncodeTaskBatch(chainTasks(4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(shared.Bytes()))
	shared.Close()
	for _, frame := range tableIndexFrames() {
		f.Add(frame)
	}
	for _, task := range hostileTasks() {
		bad, err := EncodeTaskBatch([]*Task{task})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(bad.Bytes()))
		bad.Close()
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		tasks, err := DecodeTaskBatch(raw)
		if err != nil {
			return
		}
		first, err := EncodeTaskBatch(tasks)
		if err != nil {
			t.Fatalf("re-encode of an accepted batch: %v", err)
		}
		defer first.Close()
		again, err := DecodeTaskBatch(first.Bytes())
		if err != nil {
			t.Fatalf("decode of a re-encoded batch: %v", err)
		}
		second, err := EncodeTaskBatch(again)
		if err != nil {
			t.Fatal(err)
		}
		defer second.Close()
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("task batch is not a fixed point:\n  %x\n  %x", first.Bytes(), second.Bytes())
		}
	})
}

func FuzzResultBatchDecode(f *testing.F) {
	f.Add([]byte("DYR2"))
	seed := EncodeResultBatch(sampleResults())
	f.Add(bytes.Clone(seed.Bytes()))
	seed.Close()
	for _, sel := range sampleSels() {
		one := EncodeResultBatch([]*TaskResult{{Sel: sel}})
		f.Add(bytes.Clone(one.Bytes()))
		one.Close()
	}
	f.Add(resultWithSel(2, 1, 0))
	f.Add(resultWithSel(2, 1<<31, 1))
	for _, res := range hostileResults() {
		bad := EncodeResultBatch([]*TaskResult{res})
		f.Add(bytes.Clone(bad.Bytes()))
		bad.Close()
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		results, err := DecodeResultBatch(raw)
		if err != nil {
			return
		}
		first := EncodeResultBatch(results)
		defer first.Close()
		again, err := DecodeResultBatch(first.Bytes())
		if err != nil {
			t.Fatalf("decode of a re-encoded batch: %v", err)
		}
		second := EncodeResultBatch(again)
		defer second.Close()
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("result batch is not a fixed point:\n  %x\n  %x", first.Bytes(), second.Bytes())
		}
	})
}

func FuzzShuffleDecode(f *testing.F) {
	f.Add([]byte("DYS2"))
	segs := sampleSegments()
	for _, seed := range [][][]KV{segs, {segs[0]}, {nil}, {}, {nil, nil, segs[2]}} {
		frame := encodeShuffleSegments(seed)
		f.Add(bytes.Clone(frame.Bytes()))
		frame.Close()
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		segs, err := DecodeShuffleSegments(raw)
		if one, oneErr := DecodeShuffle(raw); (oneErr == nil) != (err == nil && len(segs) == 1) ||
			oneErr == nil && len(one) != len(segs[0]) {
			t.Fatalf("DecodeShuffle disagrees with its one-segment case: %v, %v", oneErr, err)
		}
		if err != nil {
			return
		}
		first := encodeShuffleSegments(segs)
		defer first.Close()
		again, err := DecodeShuffleSegments(first.Bytes())
		if err != nil {
			t.Fatalf("decode of a re-encoded frame: %v", err)
		}
		second := encodeShuffleSegments(again)
		defer second.Close()
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("shuffle frame is not a fixed point:\n  %x\n  %x", first.Bytes(), second.Bytes())
		}
	})
}

func FuzzShuffleRequestDecode(f *testing.F) {
	f.Add([]byte("DYF1"))
	for _, ids := range [][]string{nil, {"j-m0#1"}, {"j-m0#1", "j-m1#2", "j-m0#1", strings.Repeat("x", 200)}} {
		frame := EncodeShuffleRequest(3, ids)
		f.Add(bytes.Clone(frame.Bytes()))
		frame.Close()
	}
	f.Add(binary.AppendUvarint([]byte("DYF1\x00"), 1<<40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		part, ids, err := DecodeShuffleRequest(raw)
		if err != nil {
			return
		}
		if len(ids) > len(raw) {
			t.Fatalf("%d ids from a %d-byte body", len(ids), len(raw))
		}
		frame := EncodeShuffleRequest(part, ids)
		defer frame.Close()
		part2, ids2, err := DecodeShuffleRequest(frame.Bytes())
		if err != nil || part2 != part || !slices.Equal(ids, ids2) {
			t.Fatalf("request changed across a round trip: %d %q -> %d %q (%v)", part, ids, part2, ids2, err)
		}
	})
}
