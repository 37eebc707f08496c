package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/sqlparse"
)

// binValueRoundTrip pushes values through the binary block codec (the
// same column/value writer every frame kind uses) and back.
func binValueRoundTrip(t *testing.T, vals []data.Value) []data.Value {
	t.Helper()
	frame := EncodeBlock(vals)
	defer frame.Close()
	got, err := DecodeBlock(frame.Bytes())
	if err != nil {
		t.Fatalf("decode block: %v", err)
	}
	if len(got) != len(vals) {
		t.Fatalf("round trip changed count: %d -> %d", len(vals), len(got))
	}
	return got
}

func assertSameValue(t *testing.T, want, got data.Value) {
	t.Helper()
	if !data.Equal(got, want) || got.Kind() != want.Kind() {
		t.Fatalf("round trip changed value: %s (%v) -> %s (%v)", want, want.Kind(), got, got.Kind())
	}
	if got.String() != want.String() {
		t.Fatalf("round trip changed rendering: %q -> %q", want.String(), got.String())
	}
	if got.EncodedSize() != want.EncodedSize() {
		t.Fatalf("round trip changed encoded size for %s: %d -> %d", want, want.EncodedSize(), got.EncodedSize())
	}
}

// adversarialValues is the corpus the ISSUE calls out: 0x00-embedded
// strings, the float64 exact-integer boundary, -0.0, non-finite
// doubles, deep nesting, and strings past the interning cutoff.
func adversarialValues() []data.Value {
	long := strings.Repeat("x", maxInternLen+1) // too long to intern
	return []data.Value{
		data.Null(),
		data.Bool(true),
		data.Bool(false),
		data.Int(0),
		data.Int(-1),
		data.Int(1 << 53),
		data.Int(-(1 << 53)),
		data.Int(math.MaxInt64),
		data.Int(math.MinInt64),
		data.Double(0),
		data.Double(math.Copysign(0, -1)), // -0.0
		data.Double(0.1),
		data.Double(math.MaxFloat64),
		data.Double(math.SmallestNonzeroFloat64),
		data.Double(math.Inf(1)),
		data.Double(math.Inf(-1)),
		data.Double(math.NaN()),
		data.String(""),
		data.String("a\x00b\x00"),
		data.String("héllo, wörld"),
		data.String(long),
		data.Array(),
		data.Array(data.Int(1), data.String("x"), data.Null(), data.Array(data.Bool(false))),
		data.Object(),
		data.Object(
			data.Field{Name: "s", Value: data.String("a\x00b")},
			data.Field{Name: "d", Value: data.Double(-0.0)},
			data.Field{Name: "o", Value: data.Object(data.Field{Name: "n", Value: data.Int(1 << 53)})},
		),
	}
}

func TestBinValueRoundTrip(t *testing.T) {
	vals := adversarialValues()
	// Mixed-kind list: forces the generic column.
	got := binValueRoundTrip(t, vals)
	for i := range vals {
		assertSameValue(t, vals[i], got[i])
	}
	// One-value lists: each kind picks its own column.
	for _, v := range vals {
		got := binValueRoundTrip(t, []data.Value{v})
		assertSameValue(t, v, got[0])
	}
}

func TestBinValueRoundTripBitExactDoubles(t *testing.T) {
	vals := []data.Value{data.Double(math.Copysign(0, -1)), data.Double(0.1), data.Double(math.NaN())}
	got := binValueRoundTrip(t, vals)
	for i, v := range vals {
		if math.Float64bits(got[i].Float()) != math.Float64bits(v.Float()) {
			t.Fatalf("double %d changed bits: %x -> %x", i, math.Float64bits(v.Float()), math.Float64bits(got[i].Float()))
		}
	}
}

// Typed columns: homogeneous lists with nulls exercise every
// specialized column kind plus its null bitmap.
func TestBinTypedColumnsWithNulls(t *testing.T) {
	cases := map[string][]data.Value{
		"int":    {data.Int(1), data.Null(), data.Int(-(1 << 53)), data.Int(7), data.Null()},
		"double": {data.Null(), data.Double(-0.0), data.Double(2.5)},
		"string": {data.String("dup"), data.String("dup"), data.Null(), data.String("a\x00b")},
		"bool":   {data.Bool(true), data.Null(), data.Bool(false)},
		"object": {
			data.Object(data.Field{Name: "a", Value: data.Int(1)}, data.Field{Name: "b", Value: data.String("x")}),
			data.Null(),
			data.Object(data.Field{Name: "a", Value: data.Null()}, data.Field{Name: "b", Value: data.String("y")}),
		},
		"allNull": {data.Null(), data.Null(), data.Null()},
	}
	for name, vals := range cases {
		got := binValueRoundTrip(t, vals)
		for i := range vals {
			if got[i].String() != vals[i].String() {
				t.Fatalf("%s[%d]: %q -> %q", name, i, vals[i].String(), got[i].String())
			}
			assertSameValue(t, vals[i], got[i])
		}
	}
}

// A field being null and a field being absent are different values;
// the object column must not conflate them (it falls back to the
// generic encoding when field sets differ across rows).
func TestBinObjectColumnAbsentVsNull(t *testing.T) {
	withNull := []data.Value{
		data.Object(data.Field{Name: "a", Value: data.Int(1)}),
		data.Object(data.Field{Name: "a", Value: data.Null()}),
	}
	withAbsent := []data.Value{
		data.Object(data.Field{Name: "a", Value: data.Int(1)}),
		data.Object(),
	}
	for _, vals := range [][]data.Value{withNull, withAbsent} {
		got := binValueRoundTrip(t, vals)
		for i := range vals {
			assertSameValue(t, vals[i], got[i])
			gf, vf := got[i].Fields(), vals[i].Fields()
			if len(gf) != len(vf) {
				t.Fatalf("row %d: field count %d -> %d", i, len(vf), len(gf))
			}
		}
	}
}

// nestedRows are object columns two and three levels deep: null rows
// at every level, a field null in one row and absent in another (the
// inner column falls back to generic), and a mixed-kind field that is
// a generic column inside an object column.
func nestedRows() []data.Value {
	obj := func(fs ...data.Field) data.Value { return data.Object(fs...) }
	fld := func(name string, v data.Value) data.Field { return data.Field{Name: name, Value: v} }
	var rows []data.Value
	for i := range 12 {
		if i%5 == 3 {
			rows = append(rows, data.Null())
			continue
		}
		deep := obj(fld("k", data.Int(int64(i))), fld("s", data.String("x")))
		switch i % 4 {
		case 1:
			deep = data.Null()
		case 2:
			deep = obj(fld("k", data.Null()), fld("s", data.String("y")))
		}
		mid := obj(fld("deep", deep), fld("p", data.Double(float64(i)/100)))
		if i%6 == 5 {
			mid = data.Null()
		}
		var mixed data.Value
		switch i % 3 {
		case 0:
			mixed = data.Int(int64(i))
		case 1:
			mixed = data.String("m")
		default:
			mixed = data.Array(data.Bool(true))
		}
		var ragged data.Value
		if i%2 == 0 {
			ragged = obj(fld("a", data.Int(1)), fld("b", data.Null()))
		} else {
			ragged = obj(fld("a", data.Int(2)))
		}
		rows = append(rows, obj(fld("mid", mid), fld("mixed", mixed), fld("ragged", ragged), fld("flag", data.Bool(i%2 == 0))))
	}
	return rows
}

// TestBinNestedObjectColumns: nested object columns decode into one slab
// per column and still rebuild every row exactly; each row's fields are
// its own (len == cap), so no append through one row reaches the next.
func TestBinNestedObjectColumns(t *testing.T) {
	rows := nestedRows()
	if columnKind(rows) != colObject || columnKind([]data.Value{rows[0].FieldOr("mid"), rows[1].FieldOr("mid")}) != colObject {
		t.Fatal("the rows no longer exercise nested object columns")
	}
	got := binValueRoundTrip(t, rows)
	for i := range rows {
		assertSameValue(t, rows[i], got[i])
	}
	var walk func(v data.Value)
	walk = func(v data.Value) {
		fs := v.Fields()
		if cap(fs) != len(fs) {
			t.Fatalf("%s: cap(Fields()) = %d, len %d", v, cap(fs), len(fs))
		}
		for _, f := range fs {
			walk(f.Value)
		}
	}
	for _, v := range got {
		walk(v)
	}
	before := got[1].String()
	_ = append(got[0].Fields(), data.Field{Name: "zz", Value: data.Int(9)})
	if got[1].String() != before {
		t.Fatalf("append to row 0's fields changed row 1: %s -> %s", before, got[1].String())
	}
}

// TestEncoderStackIsClearBetweenFrames: the stack the encoder gathers
// sub-columns on is empty and zeroed once a frame is written, so a
// pooled encoder pins none of the last frame's values.
func TestEncoderStackIsClearBetweenFrames(t *testing.T) {
	e := newBenc()
	defer e.release()
	e.writeValueList(nestedRows())
	e.writePairs([]KV{{Key: data.Int(1), Tag: "L", Rec: nestedRows()[0]}})
	if len(e.stack) != 0 || cap(e.stack) == 0 {
		t.Fatalf("stack len %d cap %d after a frame, want empty and used", len(e.stack), cap(e.stack))
	}
	for i, v := range e.stack[:cap(e.stack)] {
		if !v.IsNull() || v.EncodedSize() != 4 {
			t.Fatalf("stack slot %d still holds %s", i, v)
		}
	}
}

// objectChain spells a DYB1 frame whose list is levels object columns
// nested through their first field. Every level has rows rows, all
// non-null, and nf fields named "" (spelled once, then referenced);
// tail ends the frame.
func objectChain(levels, rows, nf int, tail ...byte) []byte {
	bitmap := bytes.Repeat([]byte{0xff}, rows/8)
	if rows%8 != 0 {
		bitmap = append(bitmap, byte(1)<<(rows%8)-1)
	}
	b := binary.AppendUvarint(append([]byte(nil), magicBlock...), uint64(rows))
	for l := range levels {
		b = append(b, colObject)
		b = append(b, bitmap...)
		b = binary.AppendUvarint(b, uint64(nf))
		if l == 0 {
			b = append(b, 0, 0)
		} else {
			b = append(b, 1)
		}
		b = append(b, bytes.Repeat([]byte{1}, nf-1)...)
	}
	return append(b, tail...)
}

// TestBinObjectColumnSlabIsBounded: every slab, array, object and
// expression list the decoder allocates is charged to one budget of 8
// cells per frame byte first, so no frame, however its containers nest,
// costs much more than 8 × sizeof(Field) per byte. Checking each level
// only against the bytes left would count those bytes again at every
// level: each nested frame below would then allocate 30–100 MB.
func TestBinObjectColumnSlabIsBounded(t *testing.T) {
	// 300 containers, each claiming pad elements, the first of which is
	// the next container; 4 KB of zeros (nulls) follow.
	const pad = 4 << 10
	nest := func(prefix []byte, tag byte, name func(level int) []byte) []byte {
		b := append([]byte(nil), prefix...)
		for l := range 300 {
			b = binary.AppendUvarint(append(b, tag), pad)
			b = append(b, name(l)...)
		}
		return append(b, make([]byte, pad)...)
	}
	noName := func(int) []byte { return nil }
	emptyName := func(l int) []byte { // "", spelled once, then referenced
		if l == 0 {
			return []byte{0, 0}
		}
		return []byte{1}
	}
	oneGeneric := append(binary.AppendUvarint(append([]byte(nil), magicBlock...), 1), colGeneric)
	decodeBlock := func(b []byte) error { _, err := DecodeBlock(b); return err }
	frames := []struct {
		name   string
		frame  []byte
		decode func([]byte) error
	}{
		// 8,192 rows of 320 fields, a 100 MB slab, in under 2 KB.
		{"one wide level", objectChain(1, 8192, 320), decodeBlock},
		// 256 rows of 32 fields per level: each slab is ~330 KB and
		// fits what is left of the frame.
		{"300 object levels", objectChain(300, 256, 32), decodeBlock},
		{"300 arrays", nest(oneGeneric, tagArray, noName), decodeBlock},
		{"300 objects", nest(oneGeneric, tagObject, emptyName), decodeBlock},
		{"300 ANDs", nest(nil, exprAnd, noName), func(b []byte) error {
			d := newBdec(b)
			defer d.release()
			_, err := d.readExpr(0)
			return err
		}},
	}
	fieldSize := uint64(reflect.TypeOf(data.Field{}).Size())
	for _, f := range frames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f.decode(f.frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decode accepted a truncated frame", f.name)
		}
		// The charged cells reach the budget here; 1 MiB of slack covers
		// the uncharged top-level list and the runtime's own allocations.
		grew, limit := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(f.frame))*fieldSize+1<<20
		if grew > limit {
			t.Fatalf("%s: refusing a %d-byte frame allocated %d bytes, over %d", f.name, len(f.frame), grew, limit)
		}
	}
	// The budget fits a valid frame: 256 rows whose object columns nest
	// 300 deep charge a cell per bitmap bit.
	tail := append([]byte{colGeneric}, make([]byte, 256)...) // 256 × tagNull
	if recs, err := DecodeBlock(objectChain(300, 256, 1, tail...)); err != nil || len(recs) != 256 {
		t.Fatalf("a valid 300-level chain: %d records, err %v", len(recs), err)
	}
}

// TestBinObjectColumnDepthIsBounded: object columns nest no deeper than
// generic values do, so a chain of them cannot exhaust the stack.
func TestBinObjectColumnDepthIsBounded(t *testing.T) {
	nullInt := []byte{colInt, 0} // the innermost field: one null int
	if _, err := DecodeBlock(objectChain(maxValueDepth, 1, 1, nullInt...)); err != nil {
		t.Fatalf("%d levels: %v", maxValueDepth, err)
	}
	_, err := DecodeBlock(objectChain(maxValueDepth+1, 1, 1, nullInt...))
	if err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("%d levels: err %v, want a nesting error", maxValueDepth+1, err)
	}
}

func sampleTasks(t testing.TB) []*Task {
	t.Helper()
	col := func(p string) expr.Expr { return &expr.Col{Path: data.MustParsePath(p)} }
	paths := func(ps ...string) []data.Path {
		out := make([]data.Path, len(ps))
		for i, p := range ps {
			out[i] = data.MustParsePath(p)
		}
		return out
	}
	filter := &expr.Cmp{Op: expr.LE, L: col("l.l_quantity"), R: &expr.Lit{V: data.Double(24)}}
	residual := &expr.And{Terms: []expr.Expr{
		&expr.Not{E: &expr.Cmp{Op: expr.EQ, L: col("o.o_orderstatus"), R: &expr.Lit{V: data.String("F")}}},
		&expr.Call{Name: "q9_keep_part", Args: []expr.Expr{col("p.p_name")}},
	}}
	op := &physop.OpSpec{
		Kind:      physop.Chain,
		Source:    &physop.Source{Wrap: "l", Filter: filter},
		Left:      &physop.Source{Wrap: "o"},
		Right:     &physop.Source{Wrap: "l", Filter: filter},
		LeftKeys:  paths("o.o_orderkey"),
		RightKeys: paths("l.l_orderkey"),
		Residual:  residual,
		Steps: []physop.ChainStep{
			{Build: "part", Keys: paths("l.l_partkey"), Residual: residual},
			{Build: "supplier", Keys: paths("l.l_suppkey")},
		},
		Prune: map[string]map[string]bool{
			"l": {"l_orderkey": true, "l_discount": true},
			"o": {},
		},
		GroupBy: []expr.Expr{col("n.n_name"), nil},
		Select: []sqlparse.SelectItem{
			{E: col("n.n_name"), As: "nation"},
			{Agg: "sum", E: &expr.Arith{Op: expr.Mul, L: col("l.l_extendedprice"), R: &expr.Lit{V: data.Int(1)}}, As: "amount"},
			{Star: true},
		},
	}
	return []*Task{
		{
			Task: "j1-m0", Kind: "map", Op: op,
			InputIdx: 1, Block: BlockRef{File: "/tmp/spill/f000001.mir", Off: 1 << 40, Len: 1<<31 + 7}, NumReducers: 6,
			Builds: []BuildRef{{
				Name: "part", Wrap: "p", Filter: filter,
				Keys: paths("p.p_partkey"), Blocks: []BlockRef{
					{File: "/tmp/spill/f000002.mir", Len: 0},
					{File: "/tmp/spill/f000002.mir", Off: math.MaxInt64, Len: math.MaxInt64},
					{File: "/tmp/spill/f000002.mir", Off: 127, Len: 128},
				},
			}},
		},
		{
			Task: "j1-r3", Kind: "reduce", Op: op, Partition: 3,
			Fetches: []ShuffleRef{
				{URL: "http://127.0.0.1:9001", ID: "j1-m0#1", Part: 3},
				{URL: "http://127.0.0.1:9002", ID: "j1-m1#2", Part: 3},
			},
		},
		{Task: "j2-m0", Kind: "map", Op: &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "r"}}},
	}
}

// TestBinTaskBatchRoundTrip: every task of a decoded batch re-encodes
// to the frame the original task encodes to. (Not reflect.DeepEqual:
// it compares two separately built data.Values by the address of
// their backing arrays.)
func TestBinTaskBatchRoundTrip(t *testing.T) {
	tasks := sampleTasks(t)
	frame, err := EncodeTaskBatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	defer frame.Close()
	got, err := DecodeTaskBatch(frame.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tasks) {
		t.Fatalf("batch count %d -> %d", len(tasks), len(got))
	}
	// Block spans at 0, 2^40 and MaxInt64 come back exactly.
	if got[0].Block != tasks[0].Block || !slices.Equal(got[0].Builds[0].Blocks, tasks[0].Builds[0].Blocks) {
		t.Fatalf("block spans changed across round trip: %v %v -> %v %v",
			tasks[0].Block, tasks[0].Builds[0].Blocks, got[0].Block, got[0].Builds[0].Blocks)
	}
	for i := range tasks {
		want, err := EncodeTaskBatch(tasks[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		have, err := EncodeTaskBatch(got[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), have.Bytes()) {
			t.Fatalf("task %d changed across round trip:\n  %+v\n  %+v", i, tasks[i], got[i])
		}
		want.Close()
		have.Close()
	}
}

// sampleSels are the selections a result frame must carry exactly: one
// position, a dense split (a byte per position), and a sparse list up
// to the largest position there is.
func sampleSels() [][]int32 {
	dense := make([]int32, 4096)
	for i := range dense {
		dense[i] = int32(i)
	}
	return [][]int32{{0}, dense, {3, 200, 1 << 20, 1<<31 - 2, 1<<31 - 1}}
}

// sampleSegments are shuffle segments a producer's answer must carry
// exactly: two around an empty one.
func sampleSegments() [][]KV {
	return [][]KV{
		{{Key: data.Int(1), Tag: "L", Rec: data.String("a\x00")}, {Key: data.Int(1), Tag: "R", Rec: data.Double(-0.0)}},
		nil,
		{{Key: data.Null(), Rec: data.Array(data.Int(1 << 53))}},
	}
}

func sampleResults() []*TaskResult {
	sels := sampleSels()
	return []*TaskResult{
		{Rows: adversarialValues(), CPU: 0.25},
		{Parts: []ShufflePart{{Count: 2}, {}, {Count: 1, Bytes: 9}}, CPU: 1.5},
		{Parts: []ShufflePart{{Count: 3, Bytes: 1 << 40}, {}}, PeerBytes: 77, PeerFetches: 2},
		{Err: "boom: operator failed"},
		{},
		{Sel: sels[0]},
		{Sel: sels[1], CPU: 0.5},
		{Sel: sels[2]},
	}
}

func TestBinResultBatchRoundTrip(t *testing.T) {
	results := sampleResults()
	frame := EncodeResultBatch(results)
	defer frame.Close()
	got, err := DecodeResultBatch(frame.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(results) {
		t.Fatalf("batch count %d -> %d", len(results), len(got))
	}
	for i, want := range results {
		have := got[i]
		if have.Err != want.Err || have.CPU != want.CPU ||
			have.PeerBytes != want.PeerBytes || have.PeerFetches != want.PeerFetches || !reflect.DeepEqual(have.Parts, want.Parts) ||
			len(have.Rows) != len(want.Rows) ||
			!slices.Equal(have.Sel, want.Sel) || (have.Sel == nil) != (want.Sel == nil) {
			t.Fatalf("result %d changed across round trip:\n  %+v\n  %+v", i, want, have)
		}
		for k := range want.Rows {
			assertSameValue(t, want.Rows[k], have.Rows[k])
		}
	}
	again := EncodeResultBatch(got)
	defer again.Close()
	if !bytes.Equal(again.Bytes(), frame.Bytes()) {
		t.Fatal("decoded batch re-encodes to a different frame")
	}
}

func TestBinTaskBatchRejectsUnknownKind(t *testing.T) {
	if _, err := EncodeTaskBatch([]*Task{{Task: "t", Kind: "exotic", Op: &physop.OpSpec{Kind: physop.Scan}}}); err == nil {
		t.Fatal("expected EncodeTaskBatch to reject an unknown task kind")
	}
}

// hostileTasks are frames no controller emits: a worker sizes buffers
// and takes moduli from these fields, so the decoder must refuse them.
func hostileTasks() map[string]*Task {
	op := &physop.OpSpec{Kind: physop.Repartition}
	return map[string]*Task{
		"hugeReducers":      {Task: "t", Kind: "map", Op: op, NumReducers: 1 << 40},
		"oneReducerTooMany": {Task: "t", Kind: "map", Op: op, NumReducers: maxReducers + 1},
		"negativeReducers":  {Task: "t", Kind: "map", Op: op, NumReducers: -1},
		"negativeInput":     {Task: "t", Kind: "map", Op: op, InputIdx: -1},
		"negativePartition": {Task: "t", Kind: "reduce", Op: op, Partition: -1},
		"hugePartition":     {Task: "t", Kind: "reduce", Op: op, Partition: maxReducers},
		// A negative span is written as a uvarint past what an int64 holds.
		"negativeOffset": {Task: "t", Kind: "map", Op: op, Block: BlockRef{File: "f", Off: -1, Len: 1}},
		"negativeLength": {Task: "t", Kind: "map", Op: op, Block: BlockRef{File: "f", Len: -1}},
		"negativeBuildSpan": {Task: "t", Kind: "map", Op: op, Builds: []BuildRef{{Name: "b",
			Blocks: []BlockRef{{File: "f", Off: 0, Len: 8}, {File: "f", Off: math.MinInt64, Len: 8}}}}},
	}
}

func TestBinTaskBatchRejectsOutOfRange(t *testing.T) {
	for name, task := range hostileTasks() {
		frame, err := EncodeTaskBatch([]*Task{task})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeTaskBatch(frame.Bytes()); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: decode error = %v, want an out-of-range refusal", name, err)
		}
		frame.Close()
	}
}

// hostileResults are answers no worker sends: their accounting reaches
// the job's Usage and moves the virtual timeline, so the decoder must
// refuse them (the controller then treats the frame as a transport
// failure).
func hostileResults() map[string]*TaskResult {
	return map[string]*TaskResult{
		"negativePartCount": {Parts: []ShufflePart{{Count: 2, Bytes: 9}, {Count: -5, Bytes: 7}}},
		"negativePartBytes": {Parts: []ShufflePart{{Count: 5, Bytes: -7}}},
		"negativePeerBytes": {PeerBytes: -3, PeerFetches: 1},
		"negativeFetches":   {PeerBytes: 3, PeerFetches: -2},
		"negativeCPU":       {CPU: -0.5},
		"nanCPU":            {CPU: math.NaN()},
		"infCPU":            {CPU: math.Inf(1)},
		"minusInfCPU":       {CPU: math.Inf(-1)},
	}
}

func TestBinResultBatchRejectsOutOfRange(t *testing.T) {
	for name, res := range hostileResults() {
		frame := EncodeResultBatch([]*TaskResult{{CPU: 1}, res})
		if _, err := DecodeResultBatch(frame.Bytes()); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: decode error = %v, want an out-of-range refusal", name, err)
		}
		frame.Close()
	}
}

func TestBinDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, []byte("DYT"), []byte("DYT1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), []byte("not a frame"), []byte("DYR2")} {
		if _, err := DecodeTaskBatch(b); err == nil {
			t.Fatalf("DecodeTaskBatch accepted %q", b)
		}
	}
	// Every truncation of a result frame carrying selections errors, and
	// so does the frame under the magic of the layout before selections: a
	// stale worker's answer is refused, not misread.
	results := EncodeResultBatch(sampleResults())
	whole := results.Bytes()
	for n := 0; n < len(whole); n++ {
		if _, err := DecodeResultBatch(whole[:n]); err == nil {
			t.Fatalf("DecodeResultBatch accepted a %d-byte truncation", n)
		}
	}
	stale := append([]byte("DYR1"), whole[len(magicRespBatch):]...)
	if _, err := DecodeResultBatch(stale); err == nil {
		t.Fatal("DecodeResultBatch accepted a DYR1 frame")
	}
	results.Close()
	// Truncations of a valid frame must error, never panic.
	for _, recs := range [][]data.Value{{data.Int(1)}, nestedRows()} {
		frame := EncodeBlock(recs)
		whole := frame.Bytes()
		for n := 0; n < len(whole); n++ {
			if _, err := DecodeBlock(whole[:n]); err == nil {
				t.Fatalf("DecodeBlock accepted a %d-byte truncation", n)
			}
		}
		frame.Close()
	}
}

// encodeShuffleSegments encodes segments, in order, as one shuffle
// frame: the layout a producer's answer has, built from pairs.
func encodeShuffleSegments(segs [][]KV) *Frame {
	e := newBenc()
	e.raw(magicShuffle)
	e.writeSegments(segs)
	return &Frame{enc: e}
}

// TestShufflePartsEncodeTheirWindows: a producer's answer written from
// its retained outputs' positions is byte for byte the frame of the
// pairs in those windows, for every partition, empty windows and
// outputs with no pairs included.
func TestShufflePartsEncodeTheirWindows(t *testing.T) {
	vals := adversarialValues()
	var outs []mapreduce.Partitioned
	for n, tag := range []string{"L", "", "R\x00"} {
		out := mapreduce.Partitioned{Tag: tag, Offs: make([]int32, 4)}
		for i := range vals[:n*len(vals)/2] {
			out.Keys = append(out.Keys, vals[(i*7)%len(vals)])
			out.NK, out.Recs = append(out.NK, ""), append(out.Recs, vals[i])
		}
		for p := range 3 { // partition p holds every third position from p, backwards
			for i := len(out.Keys) - 1 - p; i >= 0; i -= 3 {
				out.Idx = append(out.Idx, int32(i))
			}
			out.Offs[p+1] = int32(len(out.Idx))
		}
		outs = append(outs, out)
	}
	for part := range 4 {
		segs := make([][]KV, len(outs))
		for i := range outs {
			segs[i] = outs[i].AppendPart(nil, part)
		}
		got, want := EncodeShuffleParts(outs, part), encodeShuffleSegments(segs)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("partition %d: positions encode\n  %x\nthe windows' pairs\n  %x", part, got.Bytes(), want.Bytes())
		}
		got.Close()
		want.Close()
	}
}

// TestShuffleFrames: a producer's answer holds any number of segments,
// empty ones included, and EncodeShuffle/DecodeShuffle are its
// one-segment case; a reduce task's request carries its partition and
// ids. Every truncation of either is refused, as is the per-segment
// frame the DYS2 layout replaced.
func TestShuffleFrames(t *testing.T) {
	segs := sampleSegments()
	for _, want := range [][][]KV{segs, {nil}, {}} {
		frame := encodeShuffleSegments(want)
		got, err := DecodeShuffleSegments(frame.Bytes())
		if err != nil || len(got) != len(want) {
			t.Fatalf("%d segments -> %d: %v", len(want), len(got), err)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("segment %d: %d pairs -> %d", i, len(want[i]), len(got[i]))
			}
			for n, kv := range want[i] {
				if got[i][n].Tag != kv.Tag {
					t.Fatalf("segment %d pair %d: tag %q -> %q", i, n, kv.Tag, got[i][n].Tag)
				}
				assertSameValue(t, kv.Key, got[i][n].Key)
				assertSameValue(t, kv.Rec, got[i][n].Rec)
			}
		}
		if _, err := DecodeShuffle(frame.Bytes()); (err == nil) != (len(want) == 1) {
			t.Fatalf("DecodeShuffle of %d segments: %v", len(want), err)
		}
		frame.Close()
	}
	one := EncodeShuffle(segs[0])
	if got, err := DecodeShuffle(one.Bytes()); err != nil || len(got) != len(segs[0]) {
		t.Fatalf("one segment: %v, %d pairs", err, len(got))
	}
	if _, err := DecodeShuffle(append([]byte("DYS1"), one.Bytes()[len(magicShuffle)+1:]...)); err == nil {
		t.Fatal("DecodeShuffle accepted a DYS1 frame")
	}
	one.Close()

	ask := EncodeShuffleRequest(7, []string{"j-m0#1", "j-m3#4", "j-m0#1"})
	part, ids, err := DecodeShuffleRequest(ask.Bytes())
	if err != nil || part != 7 || !slices.Equal(ids, []string{"j-m0#1", "j-m3#4", "j-m0#1"}) {
		t.Fatalf("request: partition %d, ids %q, %v", part, ids, err)
	}
	for _, frame := range []*Frame{ask, encodeShuffleSegments(segs)} {
		whole := frame.Bytes()
		for n := 0; n < len(whole); n++ {
			_, _, rerr := DecodeShuffleRequest(whole[:n])
			if _, serr := DecodeShuffleSegments(whole[:n]); rerr == nil || serr == nil {
				t.Fatalf("a %d-byte truncation of a %q frame decoded", n, whole[:4])
			}
		}
		frame.Close()
	}
}

func TestPeerFetchErrRoundTrip(t *testing.T) {
	msg := PeerFetchErr([]int{0, 3, 12}, "http://127.0.0.1:9/: HTTP 404: unknown")
	if idxs, ok := ParsePeerFetchErr(msg); !ok || !slices.Equal(idxs, []int{0, 3, 12}) {
		t.Fatalf("%q parsed to %v, %v", msg, idxs, ok)
	}
	for _, msg := range []string{"boom: operator failed", "peer-fetch []: x", "peer-fetch [1 a]: x", "peer-fetch [1]", "[1]: x"} {
		if idxs, ok := ParsePeerFetchErr(msg); ok {
			t.Fatalf("%q parsed to %v", msg, idxs)
		}
	}
}

// resultWithSel is a one-result frame whose selection is sel: raw
// bytes, its count and gaps as uvarints.
func resultWithSel(sel ...uint64) []byte {
	f := EncodeResultBatch([]*TaskResult{{}})
	defer f.Close()
	b := f.Bytes()
	// An empty result ends in four zero counts: the selection, parts,
	// peer bytes and peer fetches.
	out := bytes.Clone(b[:len(b)-4])
	for _, x := range sel {
		out = binary.AppendUvarint(out, x)
	}
	return append(out, 0, 0, 0)
}

// TestBinSelIsBounded: the decoder refuses a selection no encoder
// writes — a zero gap (a repeated position), a position past
// math.MaxInt32, a count the rest of the frame cannot hold — before
// sizing anything from it.
func TestBinSelIsBounded(t *testing.T) {
	if got, err := DecodeResultBatch(resultWithSel(3, 1, 2, 1<<31-3)); err != nil || !slices.Equal(got[0].Sel, []int32{0, 2, 1<<31 - 1}) {
		t.Fatalf("a valid hand-written selection decoded to %v, %v", got, err)
	}
	for name, frame := range map[string][]byte{
		"zeroGap":        resultWithSel(2, 1, 0),
		"firstGapZero":   resultWithSel(1, 0),
		"overflow":       resultWithSel(1, 1<<31+1),
		"overflowBySum":  resultWithSel(2, 1<<31, 1),
		"hugeGap":        resultWithSel(1, math.MaxUint64),
		"countPastFrame": resultWithSel(100, 1, 1, 1),
		"countHuge":      resultWithSel(1 << 40),
	} {
		if _, err := DecodeResultBatch(frame); err == nil {
			t.Errorf("%s: DecodeResultBatch accepted the selection", name)
		}
	}
}

// TestBlockFileRoundTrip: a mirrored block is a DYB1 frame, and bytes
// with any other magic are refused rather than parsed as some other
// format.
func TestBlockFileRoundTrip(t *testing.T) {
	recs := adversarialValues()
	frame := EncodeBlock(recs)
	defer frame.Close()
	got, err := DecodeBlock(frame.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		assertSameValue(t, recs[i], got[i])
	}
	if _, err := DecodeBlock([]byte(`["i","1"]` + "\n")); err == nil {
		t.Fatal("DecodeBlock accepted a JSON-lines block")
	}
}

// TestBinStringInterning pins the dictionary size win: a batch of
// tasks repeating the same block paths and key strings must encode
// far smaller than the concatenation of per-task frames.
func TestBinStringInterning(t *testing.T) {
	mk := func(i int) *Task {
		return &Task{
			Task: "job-with-a-reasonably-long-name-m0", Kind: "map",
			Op:    &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "lineitem"}},
			Block: BlockRef{File: "/tmp/dyno-spill/f000001.mir", Off: 4096, Len: 81920},
		}
	}
	one, err := EncodeTaskBatch([]*Task{mk(0)})
	if err != nil {
		t.Fatal(err)
	}
	oneLen := len(one.Bytes())
	one.Close()
	tasks := make([]*Task, 32)
	for i := range tasks {
		tasks[i] = mk(i)
	}
	batch, err := EncodeTaskBatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	if got, naive := len(batch.Bytes()), 32*oneLen; got*2 >= naive {
		t.Fatalf("interning too weak: 32-task batch is %dB, 32 single frames %dB", got, naive)
	}
}
