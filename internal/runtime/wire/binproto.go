package wire

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/sqlparse"
)

// Binary frames for the controller/worker protocol. A task batch is
// one frame: magic, the frame's distinct ops, its distinct build lists,
// then the tasks back to back, each naming its op and build list by
// index, all sharing the frame's string dictionary (job names, aliases,
// column names, and repeated data strings are carried once per frame,
// not once per task). The response frame mirrors it. The blocks of a
// mirror file, a reduce task's request to a producer and the
// producer's shuffle segments use the same codec with their own
// magics; a body with any other leading bytes is an error.

var (
	magicTaskBatch  = []byte("DYT2")
	magicRespBatch  = []byte("DYR2")
	magicBlock      = []byte("DYB1")
	magicShuffle    = []byte("DYS2")
	magicShuffleReq = []byte("DYF1")
)

// Frame is an encoded binary frame backed by a pooled buffer. Call
// Close once the bytes have been written out.
type Frame struct{ enc *benc }

// Bytes returns the frame's encoded payload; valid until Close.
func (f *Frame) Bytes() []byte { return f.enc.buf }

// Close recycles the frame's buffer.
func (f *Frame) Close() {
	if f.enc != nil {
		f.enc.release()
		f.enc = nil
	}
}

// Expression node tags. Only the uncompiled node types have one:
// compiled nodes (accessor-bound columns, see expr.Compile) are refused
// at encode time — operators carry the uncompiled originals, and
// expr.Compile is documented to change neither results nor UDF CPU
// accrual, so both sides evaluate identically after compiling their
// own copies.
const (
	exprNil byte = iota
	exprCol
	exprLit
	exprCmp
	exprAnd
	exprOr
	exprNot
	exprArith
	exprCall
)

// writeExpr writes a nilable expression; an unsupported node is the
// encoder's error.
func (e *benc) writeExpr(x expr.Expr) {
	switch n := x.(type) {
	case nil:
		e.byte(exprNil)
	case *expr.Col:
		e.byte(exprCol)
		e.str(n.Path.String())
	case *expr.Lit:
		e.byte(exprLit)
		e.writeValue(n.V)
	case *expr.Cmp:
		e.byte(exprCmp)
		e.str(n.Op.String())
		e.writeExprs(false, n.L, n.R)
	case *expr.And:
		e.byte(exprAnd)
		e.writeExprs(true, n.Terms...)
	case *expr.Or:
		e.byte(exprOr)
		e.writeExprs(true, n.Terms...)
	case *expr.Not:
		e.byte(exprNot)
		e.writeExpr(n.E)
	case *expr.Arith:
		e.byte(exprArith)
		e.str(n.Op.String())
		e.writeExprs(false, n.L, n.R)
	case *expr.Call:
		e.byte(exprCall)
		e.str(n.Name)
		e.writeExprs(true, n.Args...)
	default:
		e.fail(fmt.Errorf("wire: unsupported expression node %T (serialize uncompiled expressions)", x))
	}
}

// writeExprs writes expressions back to back, after their count when
// counted is set.
func (e *benc) writeExprs(counted bool, xs ...expr.Expr) {
	if counted {
		e.uvarint(uint64(len(xs)))
	}
	for _, x := range xs {
		e.writeExpr(x)
	}
}

func (d *bdec) readExpr(depth int) (expr.Expr, error) {
	if depth > maxValueDepth {
		return nil, fmt.Errorf("wire: expression nesting exceeds %d", maxValueDepth)
	}
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case exprNil:
		return nil, nil
	case exprCol:
		p, err := d.readPath()
		return &expr.Col{Path: p}, err
	case exprLit:
		v, err := d.readValue(depth)
		return &expr.Lit{V: v}, err
	case exprCmp, exprArith:
		sym, err := d.str()
		if err != nil {
			return nil, err
		}
		l, err := d.readExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		r, err := d.readExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		if tag == exprCmp {
			for op := expr.EQ; op <= expr.GE; op++ {
				if op.String() == sym {
					return &expr.Cmp{Op: op, L: l, R: r}, nil
				}
			}
			return nil, fmt.Errorf("wire: unknown comparison operator %q", sym)
		}
		for op := expr.Add; op <= expr.Div; op++ {
			if op.String() == sym {
				return &expr.Arith{Op: op, L: l, R: r}, nil
			}
		}
		return nil, fmt.Errorf("wire: unknown arithmetic operator %q", sym)
	case exprAnd:
		xs, err := d.readExprs(depth + 1)
		return &expr.And{Terms: xs}, err
	case exprOr:
		xs, err := d.readExprs(depth + 1)
		return &expr.Or{Terms: xs}, err
	case exprNot:
		x, err := d.readExpr(depth + 1)
		return &expr.Not{E: x}, err
	case exprCall:
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		args, err := d.readExprs(depth + 1)
		return &expr.Call{Name: name, Args: args}, err
	}
	return nil, fmt.Errorf("wire: unknown expression tag byte %d", tag)
}

func (d *bdec) readTopExpr() (expr.Expr, error) { return d.readExpr(0) }

// readExprs reads a counted expression list.
func (d *bdec) readExprs(depth int) ([]expr.Expr, error) {
	n, err := d.count()
	if err != nil || n == 0 {
		return nil, err
	}
	if err := d.charge(n); err != nil {
		return nil, err
	}
	xs := make([]expr.Expr, n)
	for i := range xs {
		if xs[i], err = d.readExpr(depth); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// count reads a list length, refusing one the rest of the frame could
// not hold at a byte per element.
func (d *bdec) count() (uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.rem())+1 {
		return 0, errShortFrame
	}
	return n, nil
}

// writeList writes a counted list, each element with write.
func writeList[T any](e *benc, xs []T, write func(T)) {
	e.uvarint(uint64(len(xs)))
	for _, x := range xs {
		write(x)
	}
}

// readList reads a counted list, each element with read. An empty list
// reads as nil: no list the frames carry tells nil from empty.
func readList[T any](d *bdec, read func() (T, error)) ([]T, error) {
	n, err := d.count()
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		if out[i], err = read(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// get reads one field unless an earlier one failed, keeping the first
// error on the decoder: a reader of many fields in a row checks d.err
// once, after the last.
func get[T any](d *bdec, read func() (T, error)) (v T) {
	if d.err == nil {
		v, d.err = read()
	}
	return v
}

// getList is get of a counted list.
func getList[T any](d *bdec, read func() (T, error)) []T {
	return get(d, func() ([]T, error) { return readList(d, read) })
}

func (e *benc) writeStrs(ss []string) { writeList(e, ss, e.str) }

func (d *bdec) readStrs() ([]string, error) { return readList(d, d.str) }

// Column paths travel in their canonical string form (Path.String
// round-trips through ParsePath for every parser-produced path).
func (d *bdec) readPath() (data.Path, error) {
	s, err := d.str()
	if err != nil {
		return nil, err
	}
	p, err := data.ParsePath(s)
	if err != nil {
		return nil, fmt.Errorf("wire: bad column path %q: %v", s, err)
	}
	return p, nil
}

func (e *benc) writePaths(paths []data.Path) {
	writeList(e, paths, func(p data.Path) { e.str(p.String()) })
}

func (d *bdec) readPaths() ([]data.Path, error) { return readList(d, d.readPath) }

func (e *benc) writeSource(s *physop.Source) {
	e.bool(s != nil)
	if s != nil {
		e.str(s.Wrap)
		e.writeExpr(s.Filter)
	}
}

func (d *bdec) readSource() (*physop.Source, error) {
	if present, err := d.bool(); !present || err != nil {
		return nil, err
	}
	s := &physop.Source{Wrap: get(d, d.str), Filter: get(d, d.readTopExpr)}
	return s, d.err
}

// writeOp writes a nilable operator spec.
func (e *benc) writeOp(op *physop.OpSpec) {
	e.bool(op != nil)
	if op == nil {
		return
	}
	e.str(op.Kind)
	e.writeSource(op.Source)
	e.writeSource(op.Left)
	e.writeSource(op.Right)
	e.writePaths(op.LeftKeys)
	e.writePaths(op.RightKeys)
	e.writeExpr(op.Residual)
	writeList(e, op.Steps, func(st physop.ChainStep) {
		e.str(st.Build)
		e.writePaths(st.Keys)
		e.writeExpr(st.Residual)
	})
	// The live-column map travels as (alias, kept fields) entries in
	// sorted order. A fully live alias (nil set) is omitted: the pruner
	// keeps unknown aliases whole.
	var aliases []string
	for alias, set := range op.Prune {
		if set != nil {
			aliases = append(aliases, alias)
		}
	}
	sort.Strings(aliases)
	e.uvarint(uint64(len(aliases)))
	for _, alias := range aliases {
		fields := make([]string, 0, len(op.Prune[alias]))
		for f := range op.Prune[alias] {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		e.str(alias)
		e.writeStrs(fields)
	}
	e.writeExprs(true, op.GroupBy...)
	writeList(e, op.Select, func(it sqlparse.SelectItem) {
		e.writeExpr(it.E)
		e.str(it.Agg)
		e.bool(it.Star)
		e.str(physop.OutputName(it))
	})
}

func (d *bdec) readOp() (*physop.OpSpec, error) {
	if present, err := d.bool(); !present || err != nil {
		return nil, err
	}
	op := &physop.OpSpec{Kind: get(d, d.str)}
	op.Source, op.Left, op.Right = get(d, d.readSource), get(d, d.readSource), get(d, d.readSource)
	op.LeftKeys, op.RightKeys = get(d, d.readPaths), get(d, d.readPaths)
	op.Residual = get(d, d.readTopExpr)
	op.Steps = getList(d, func() (physop.ChainStep, error) {
		st := physop.ChainStep{Build: get(d, d.str), Keys: get(d, d.readPaths), Residual: get(d, d.readTopExpr)}
		return st, d.err
	})
	if n := get(d, d.count); n > 0 {
		op.Prune = make(map[string]map[string]bool, n)
		for ; n > 0 && d.err == nil; n-- {
			alias, fields := get(d, d.str), get(d, d.readStrs)
			set := make(map[string]bool, len(fields))
			for _, f := range fields {
				set[f] = true
			}
			op.Prune[alias] = set
		}
	}
	op.GroupBy = get(d, func() ([]expr.Expr, error) { return d.readExprs(0) })
	op.Select = getList(d, func() (sqlparse.SelectItem, error) {
		it := sqlparse.SelectItem{E: get(d, d.readTopExpr), Agg: get(d, d.str), Star: get(d, d.bool), As: get(d, d.str)}
		return it, d.err
	})
	return op, d.err
}

// ExprKey returns a string that is equal for two expressions exactly
// when they are the same tree (the empty string for nil): the
// expression's frame encoding under a fresh dictionary. Workers key
// their built-table cache with it.
func ExprKey(x expr.Expr) (string, error) {
	if x == nil {
		return "", nil
	}
	e := newBenc()
	defer e.release()
	e.writeExpr(x)
	return string(e.buf), e.err
}

func (e *benc) writeBuild(b BuildRef) {
	e.str(b.Name)
	e.str(b.Wrap)
	e.writeExpr(b.Filter)
	e.writePaths(b.Keys)
	writeList(e, b.Blocks, e.writeBlockRef)
}

func (d *bdec) readBuild() (BuildRef, error) {
	b := BuildRef{Name: get(d, d.str), Wrap: get(d, d.str), Filter: get(d, d.readTopExpr), Keys: get(d, d.readPaths)}
	b.Blocks = getList(d, d.readBlockRef)
	return b, d.err
}

// writeBlockRef writes a block reference: the mirror file's path
// (interned: a frame names few files), then the span as uvarints.
func (e *benc) writeBlockRef(ref BlockRef) {
	e.str(ref.File)
	e.uvarint(uint64(ref.Off))
	e.uvarint(uint64(ref.Len))
}

// readBlockRef reads a block reference, refusing an offset or length
// no int64 holds (a negative one, as written). Whether the file holds
// the span is for its reader to check.
func (d *bdec) readBlockRef() (BlockRef, error) {
	ref := BlockRef{File: get(d, d.str)}
	off, n := get(d, d.uvarint), get(d, d.uvarint)
	if d.err == nil && (off > math.MaxInt64 || n > math.MaxInt64) {
		return ref, fmt.Errorf("wire: block span %d+%d of %s is out of range", off, n, ref.File)
	}
	ref.Off, ref.Len = int64(off), int64(n)
	return ref, d.err
}

// Task kind bytes.
const (
	kindMapByte    byte = 0
	kindReduceByte byte = 1
)

// writeTask writes a task naming entry op of the frame's op table and
// entry builds of its build-list table.
func (e *benc) writeTask(t *Task, op, builds int) {
	var kb byte
	switch t.Kind {
	case "map":
		kb = kindMapByte
	case "reduce":
		kb = kindReduceByte
	default:
		e.fail(fmt.Errorf("wire: unknown task kind %q", t.Kind))
	}
	e.str(t.Task)
	e.byte(kb)
	e.uvarint(uint64(op))
	e.uvarint(uint64(builds))
	e.varint(int64(t.InputIdx))
	e.varint(int64(t.NumReducers))
	e.varint(int64(t.Partition))
	e.writeBlockRef(t.Block)
	e.str(t.ShuffleID)
	e.f64(t.ByteScale)
	writeList(e, t.Fetches, func(ref ShuffleRef) {
		e.str(ref.URL)
		e.str(ref.ID)
		e.varint(int64(ref.Part))
	})
}

// readTask reads a task, giving it the entries of ops and lists it
// names; an index past either table is refused.
func (d *bdec) readTask(ops []*physop.OpSpec, lists [][]BuildRef) (*Task, error) {
	t := &Task{Task: get(d, d.str)}
	kind, op, builds := get(d, d.byte), get(d, d.uvarint), get(d, d.uvarint)
	input, reducers, part := get(d, d.varint), get(d, d.varint), get(d, d.varint)
	t.Block, t.ShuffleID, t.ByteScale = get(d, d.readBlockRef), get(d, d.str), get(d, d.f64)
	t.Fetches = getList(d, func() (ShuffleRef, error) {
		ref := ShuffleRef{URL: get(d, d.str), ID: get(d, d.str), Part: int(get(d, d.varint))}
		return ref, d.err
	})
	switch {
	case d.err != nil:
		return nil, d.err
	case kind > kindReduceByte:
		return nil, fmt.Errorf("wire: unknown task kind byte %d", kind)
	// Workers size buffers and take moduli from these; a value no
	// controller emits is refused here, before it is used.
	case input < 0 || reducers < 0 || reducers > maxReducers || part < 0 || part >= maxReducers:
		return nil, fmt.Errorf("wire: task %s: input %d, %d reducers or partition %d is out of range", t.Task, input, reducers, part)
	case op >= uint64(len(ops)) || builds >= uint64(len(lists)):
		return nil, fmt.Errorf("wire: task %s: op %d of %d or build list %d of %d is out of range", t.Task, op, len(ops), builds, len(lists))
	}
	t.Kind = [...]string{kindMapByte: "map", kindReduceByte: "reduce"}[kind]
	t.Op, t.Builds = ops[op], lists[builds]
	t.InputIdx, t.NumReducers, t.Partition = int(input), int(reducers), int(part)
	return t, nil
}

func (e *benc) writeResult(r *TaskResult) {
	e.str(r.Err)
	e.f64(r.CPU)
	e.writeValueList(r.Rows)
	e.writeSel(r.Sel)
	e.uvarint(uint64(len(r.Parts)))
	for _, p := range r.Parts {
		e.varint(int64(p.Count))
		e.varint(p.Bytes)
	}
	e.varint(r.PeerBytes)
	e.varint(int64(r.PeerFetches))
}

// readResult reads what writeResult wrote. The accounting fields move
// the virtual timeline, so values no worker computes are refused: a
// negative count or byte total, a CPU cost negative, NaN or infinite.
func (d *bdec) readResult() (*TaskResult, error) {
	r := &TaskResult{Err: get(d, d.str), CPU: get(d, d.f64), Rows: get(d, d.readValueList), Sel: get(d, d.readSel)}
	r.Parts = getList(d, func() (ShufflePart, error) {
		p := ShufflePart{Count: int(get(d, d.varint)), Bytes: get(d, d.varint)}
		if d.err == nil && (p.Count < 0 || p.Bytes < 0) {
			return p, fmt.Errorf("wire: shuffle part of %d pairs in %d bytes is out of range", p.Count, p.Bytes)
		}
		return p, d.err
	})
	r.PeerBytes, r.PeerFetches = get(d, d.varint), int(get(d, d.varint))
	switch {
	case d.err != nil:
		return nil, d.err
	case !(r.CPU >= 0 && r.CPU <= math.MaxFloat64):
		return nil, fmt.Errorf("wire: CPU cost %v is out of range", r.CPU)
	case r.PeerBytes < 0 || r.PeerFetches < 0:
		return nil, fmt.Errorf("wire: %d peer bytes in %d fetches is out of range", r.PeerBytes, r.PeerFetches)
	}
	return r, nil
}

// writeSel writes an ascending selection as its count and the gaps
// between consecutive positions, the first counted from -1: every gap
// is at least 1, and a dense selection costs a byte per position.
func (e *benc) writeSel(sel []int32) {
	e.uvarint(uint64(len(sel)))
	prev := int64(-1)
	for _, i := range sel {
		e.uvarint(uint64(int64(i) - prev))
		prev = int64(i)
	}
}

// readSel reads what writeSel wrote. A gap takes at least one byte, so
// a count the rest of the frame could not hold is refused before the
// selection is allocated, as are a zero gap (positions ascend strictly)
// and a position past math.MaxInt32.
func (d *bdec) readSel() ([]int32, error) {
	n, err := d.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	if n > uint64(d.rem()) {
		return nil, errShortFrame
	}
	sel := make([]int32, n)
	pos := int64(-1)
	for i := range sel {
		gap, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if gap == 0 {
			return nil, fmt.Errorf("wire: selection position %d repeats its predecessor", i)
		}
		if gap > uint64(math.MaxInt32-pos) {
			return nil, fmt.Errorf("wire: selection position %d is past %d", i, math.MaxInt32)
		}
		pos += int64(gap)
		sel[i] = int32(pos)
	}
	return sel, nil
}

// EncodeTaskBatch encodes a task batch as one binary frame sharing a
// string dictionary across tasks. A job's tasks share their op
// (MapExec.Op) and build list, so the frame writes each distinct op (by
// pointer) and build list (by value) once, and each task names its
// entries. Close the frame after use.
func EncodeTaskBatch(tasks []*Task) (*Frame, error) {
	var ops []*physop.OpSpec
	var lists [][]BuildRef
	for _, t := range tasks {
		if !slices.Contains(ops, t.Op) {
			ops = append(ops, t.Op)
		}
		if buildsIndex(lists, t.Builds) < 0 {
			lists = append(lists, t.Builds)
		}
	}
	e := newBenc()
	e.raw(magicTaskBatch)
	writeList(e, ops, e.writeOp)
	writeList(e, lists, func(l []BuildRef) { writeList(e, l, e.writeBuild) })
	writeList(e, tasks, func(t *Task) { e.writeTask(t, slices.Index(ops, t.Op), buildsIndex(lists, t.Builds)) })
	if e.err != nil {
		e.release()
		return nil, e.err
	}
	return &Frame{enc: e}, nil
}

// buildsIndex is the position in lists of the list equal to l, or -1.
// Filters compare by identity first: a job's tasks share them.
func buildsIndex(lists [][]BuildRef, l []BuildRef) int {
	return slices.IndexFunc(lists, func(m []BuildRef) bool {
		return slices.EqualFunc(m, l, func(a, b BuildRef) bool {
			return a.Name == b.Name && a.Wrap == b.Wrap && sameExpr(a.Filter, b.Filter) &&
				slices.EqualFunc(a.Keys, b.Keys, slices.Equal) && slices.Equal(a.Blocks, b.Blocks)
		})
	})
}

// sameExpr reports whether two encodable expressions are the same tree.
func sameExpr(a, b expr.Expr) bool {
	if a == b {
		return true
	}
	ka, errA := ExprKey(a)
	kb, errB := ExprKey(b)
	return errA == nil && errB == nil && ka == kb
}

// DecodeTaskBatch decodes a binary task batch frame. Every task naming
// one op or build-list entry gets the same *physop.OpSpec or
// []BuildRef.
func DecodeTaskBatch(b []byte) ([]*Task, error) {
	if !bytes.HasPrefix(b, magicTaskBatch) {
		return nil, fmt.Errorf("wire: not a task batch frame")
	}
	d := newBdec(b[len(magicTaskBatch):])
	defer d.release()
	ops := getList(d, d.readOp)
	lists := getList(d, func() ([]BuildRef, error) { return readList(d, d.readBuild) })
	n := get(d, d.count)
	if d.err != nil {
		return nil, d.err
	}
	out := make([]*Task, n)
	for i := range out {
		var err error
		if out[i], err = d.readTask(ops, lists); err != nil {
			return nil, fmt.Errorf("wire: task %d of %d: %w", i, n, err)
		}
	}
	return out, nil
}

// EncodeResultBatch encodes a response batch frame. Close after use.
func EncodeResultBatch(results []*TaskResult) *Frame {
	e := newBenc()
	e.raw(magicRespBatch)
	e.uvarint(uint64(len(results)))
	for _, r := range results {
		e.writeResult(r)
	}
	return &Frame{enc: e}
}

// DecodeResultBatch decodes a response batch frame.
func DecodeResultBatch(b []byte) ([]*TaskResult, error) {
	if !bytes.HasPrefix(b, magicRespBatch) {
		return nil, fmt.Errorf("wire: not a result batch frame")
	}
	d := newBdec(b[len(magicRespBatch):])
	defer d.release()
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	out := make([]*TaskResult, n)
	for i := range out {
		if out[i], err = d.readResult(); err != nil {
			return nil, fmt.Errorf("wire: result %d of %d: %w", i, n, err)
		}
	}
	return out, nil
}

// EncodeBlock encodes a block's records as one binary frame.
func EncodeBlock(recs []data.Value) *Frame {
	e := newBenc()
	e.raw(magicBlock)
	e.writeValueList(recs)
	return &Frame{enc: e}
}

// DecodeBlock decodes a binary block frame.
func DecodeBlock(b []byte) ([]data.Value, error) {
	if !bytes.HasPrefix(b, magicBlock) {
		return nil, fmt.Errorf("wire: not a block frame")
	}
	d := newBdec(b[len(magicBlock):])
	defer d.release()
	return d.readValueList()
}

// EncodeShuffleRequest encodes a reduce task's one request to a
// producer: partition part of the map outputs ids, answered with their
// segments in that order. Close after use.
func EncodeShuffleRequest(part int, ids []string) *Frame {
	e := newBenc()
	e.raw(magicShuffleReq)
	e.uvarint(uint64(part))
	e.writeStrs(ids)
	return &Frame{enc: e}
}

// DecodeShuffleRequest decodes a shuffle request frame; an id count the
// body could not hold is refused before anything is sized from it.
func DecodeShuffleRequest(b []byte) (part int, ids []string, err error) {
	if !bytes.HasPrefix(b, magicShuffleReq) {
		return 0, nil, fmt.Errorf("wire: not a shuffle request frame")
	}
	d := newBdec(b[len(magicShuffleReq):])
	defer d.release()
	p, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	ids, err = d.readStrs()
	return int(p), ids, err
}

// writeSegments writes pair segments: their count, then each one.
func (e *benc) writeSegments(segs [][]KV) {
	e.uvarint(uint64(len(segs)))
	for _, pairs := range segs {
		e.writePairs(pairs)
	}
}

func (d *bdec) readSegments() ([][]KV, error) {
	n, err := d.count()
	if err != nil || n == 0 {
		return nil, err
	}
	segs := make([][]KV, n)
	for i := range segs {
		if segs[i], err = d.readKVs(); err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// EncodeShuffleParts encodes partition part of each retained map
// output, in order, as one shuffle frame — a producer's answer to POST
// /shuffle, the same bytes as its windows' pairs would encode, written
// from their positions. Close after use.
func EncodeShuffleParts(outs []mapreduce.Partitioned, part int) *Frame {
	e := newBenc()
	e.raw(magicShuffle)
	e.uvarint(uint64(len(outs)))
	for i := range outs {
		out, base := &outs[i], len(e.stack)
		win := out.Part(part)
		for _, j := range win {
			e.stack = append(e.stack, out.Keys[j])
		}
		for _, j := range win {
			e.stack = append(e.stack, out.Recs[j])
		}
		e.writeKVs(base, len(win), func(int) string { return out.Tag })
	}
	return &Frame{enc: e}
}

// DecodeShuffleSegments decodes a shuffle frame into its segments.
func DecodeShuffleSegments(b []byte) ([][]KV, error) {
	if !bytes.HasPrefix(b, magicShuffle) {
		return nil, fmt.Errorf("wire: not a shuffle frame")
	}
	d := newBdec(b[len(magicShuffle):])
	defer d.release()
	return d.readSegments()
}

// EncodeShuffle encodes one segment as a shuffle frame.
func EncodeShuffle(pairs []KV) *Frame {
	e := newBenc()
	e.raw(magicShuffle)
	e.writeSegments([][]KV{pairs})
	return &Frame{enc: e}
}

// DecodeShuffle decodes a shuffle frame holding exactly one segment.
func DecodeShuffle(b []byte) ([]KV, error) {
	segs, err := DecodeShuffleSegments(b)
	if err != nil || len(segs) != 1 {
		return nil, cmp.Or(err, fmt.Errorf("wire: shuffle frame holds %d segments, want 1", len(segs)))
	}
	return segs[0], nil
}

// PeerFetchErr formats the deterministic error a reduce worker returns
// when fetch segments idxs (ascending) could not be had from their
// producers; the executor relocates exactly those (ParsePeerFetchErr).
func PeerFetchErr(idxs []int, detail string) string {
	return fmt.Sprintf("peer-fetch %v: %s", idxs, detail)
}

// ParsePeerFetchErr extracts the segment indices from a
// PeerFetchErr-formatted message; ok is false for any other error.
func ParsePeerFetchErr(msg string) (idxs []int, ok bool) {
	list, _, found := strings.Cut(strings.TrimPrefix(msg, "peer-fetch ["), "]: ")
	for _, f := range strings.Fields(list) {
		idx, err := strconv.Atoi(f)
		if err != nil {
			return nil, false
		}
		idxs = append(idxs, idx)
	}
	return idxs, found && idxs != nil && strings.HasPrefix(msg, "peer-fetch [")
}
