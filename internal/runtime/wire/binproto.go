package wire

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
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
// one frame: magic, task count, then the tasks back to back sharing
// the frame's string dictionary (job names, aliases, column names, and
// repeated data strings are carried once per frame, not once per
// task). The response frame mirrors it. The blocks of a mirror file, a
// reduce task's request to a producer and the producer's shuffle
// segments use the same codec with their own magics; a body with any
// other leading bytes is an error.

var (
	magicTaskBatch  = []byte("DYT1")
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

// writeExpr writes a nilable expression.
func (e *benc) writeExpr(x expr.Expr) error {
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
		return e.writeExprs(false, n.L, n.R)
	case *expr.And:
		e.byte(exprAnd)
		return e.writeExprs(true, n.Terms...)
	case *expr.Or:
		e.byte(exprOr)
		return e.writeExprs(true, n.Terms...)
	case *expr.Not:
		e.byte(exprNot)
		return e.writeExpr(n.E)
	case *expr.Arith:
		e.byte(exprArith)
		e.str(n.Op.String())
		return e.writeExprs(false, n.L, n.R)
	case *expr.Call:
		e.byte(exprCall)
		e.str(n.Name)
		return e.writeExprs(true, n.Args...)
	default:
		return fmt.Errorf("wire: unsupported expression node %T (serialize uncompiled expressions)", x)
	}
	return nil
}

// writeExprs writes expressions back to back, after their count when
// counted is set.
func (e *benc) writeExprs(counted bool, xs ...expr.Expr) error {
	if counted {
		e.uvarint(uint64(len(xs)))
	}
	for _, x := range xs {
		if err := e.writeExpr(x); err != nil {
			return err
		}
	}
	return nil
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

func (e *benc) writeSource(s *physop.Source) error {
	if s == nil {
		e.byte(0)
		return nil
	}
	e.byte(1)
	e.str(s.Wrap)
	return e.writeExpr(s.Filter)
}

func (d *bdec) readSource() (*physop.Source, error) {
	present, err := d.byte()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	s := &physop.Source{}
	if s.Wrap, err = d.str(); err != nil {
		return nil, err
	}
	s.Filter, err = d.readExpr(0)
	return s, err
}

// writeOp writes a nilable operator spec.
func (e *benc) writeOp(op *physop.OpSpec) error {
	if op == nil {
		e.byte(0)
		return nil
	}
	e.byte(1)
	e.str(op.Kind)
	if err := e.writeSource(op.Source); err != nil {
		return err
	}
	if err := e.writeSource(op.Left); err != nil {
		return err
	}
	if err := e.writeSource(op.Right); err != nil {
		return err
	}
	e.writePaths(op.LeftKeys)
	e.writePaths(op.RightKeys)
	if err := e.writeExpr(op.Residual); err != nil {
		return err
	}
	e.uvarint(uint64(len(op.Steps)))
	for _, st := range op.Steps {
		e.str(st.Build)
		e.writePaths(st.Keys)
		if err := e.writeExpr(st.Residual); err != nil {
			return err
		}
	}
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
	if err := e.writeExprs(true, op.GroupBy...); err != nil {
		return err
	}
	e.uvarint(uint64(len(op.Select)))
	for _, it := range op.Select {
		if err := e.writeExpr(it.E); err != nil {
			return err
		}
		e.str(it.Agg)
		e.bool(it.Star)
		e.str(physop.OutputName(it))
	}
	return nil
}

func (d *bdec) readOp() (*physop.OpSpec, error) {
	present, err := d.byte()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	op := &physop.OpSpec{}
	if op.Kind, err = d.str(); err != nil {
		return nil, err
	}
	if op.Source, err = d.readSource(); err != nil {
		return nil, err
	}
	if op.Left, err = d.readSource(); err != nil {
		return nil, err
	}
	if op.Right, err = d.readSource(); err != nil {
		return nil, err
	}
	if op.LeftKeys, err = d.readPaths(); err != nil {
		return nil, err
	}
	if op.RightKeys, err = d.readPaths(); err != nil {
		return nil, err
	}
	if op.Residual, err = d.readExpr(0); err != nil {
		return nil, err
	}
	op.Steps, err = readList(d, func() (st physop.ChainStep, err error) {
		if st.Build, err = d.str(); err != nil {
			return st, err
		}
		if st.Keys, err = d.readPaths(); err != nil {
			return st, err
		}
		st.Residual, err = d.readExpr(0)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		op.Prune = make(map[string]map[string]bool, n)
		for ; n > 0; n-- {
			alias, err := d.str()
			if err != nil {
				return nil, err
			}
			fields, err := d.readStrs()
			if err != nil {
				return nil, err
			}
			set := make(map[string]bool, len(fields))
			for _, f := range fields {
				set[f] = true
			}
			op.Prune[alias] = set
		}
	}
	if op.GroupBy, err = d.readExprs(0); err != nil {
		return nil, err
	}
	op.Select, err = readList(d, func() (it sqlparse.SelectItem, err error) {
		if it.E, err = d.readExpr(0); err != nil {
			return it, err
		}
		if it.Agg, err = d.str(); err != nil {
			return it, err
		}
		if it.Star, err = d.bool(); err != nil {
			return it, err
		}
		it.As, err = d.str()
		return it, err
	})
	return op, err
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
	if err := e.writeExpr(x); err != nil {
		return "", err
	}
	return string(e.buf), nil
}

func (e *benc) writeBuild(b *BuildRef) error {
	e.str(b.Name)
	e.str(b.Wrap)
	if err := e.writeExpr(b.Filter); err != nil {
		return err
	}
	e.writePaths(b.Keys)
	writeList(e, b.Blocks, e.writeBlockRef)
	return nil
}

func (d *bdec) readBuild() (BuildRef, error) {
	var b BuildRef
	var err error
	if b.Name, err = d.str(); err != nil {
		return b, err
	}
	if b.Wrap, err = d.str(); err != nil {
		return b, err
	}
	if b.Filter, err = d.readExpr(0); err != nil {
		return b, err
	}
	if b.Keys, err = d.readPaths(); err != nil {
		return b, err
	}
	b.Blocks, err = readList(d, d.readBlockRef)
	return b, err
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
func (d *bdec) readBlockRef() (ref BlockRef, err error) {
	var span [2]uint64
	if ref.File, err = d.str(); err != nil {
		return ref, err
	}
	for i := range span {
		if span[i], err = d.uvarint(); err != nil {
			return ref, err
		} else if span[i] > math.MaxInt64 {
			return ref, fmt.Errorf("wire: block span %d of %s is out of range", span[i], ref.File)
		}
	}
	ref.Off, ref.Len = int64(span[0]), int64(span[1])
	return ref, nil
}

// Task kind bytes.
const (
	kindMapByte    byte = 0
	kindReduceByte byte = 1
)

func (e *benc) writeTask(t *Task) error {
	var kb byte
	switch t.Kind {
	case "map":
		kb = kindMapByte
	case "reduce":
		kb = kindReduceByte
	default:
		return fmt.Errorf("wire: unknown task kind %q", t.Kind)
	}
	e.str(t.Task)
	e.byte(kb)
	if err := e.writeOp(t.Op); err != nil {
		return err
	}
	e.varint(int64(t.InputIdx))
	e.writeBlockRef(t.Block)
	e.varint(int64(t.NumReducers))
	e.uvarint(uint64(len(t.Builds)))
	for i := range t.Builds {
		if err := e.writeBuild(&t.Builds[i]); err != nil {
			return err
		}
	}
	e.varint(int64(t.Partition))
	e.str(t.ShuffleID)
	e.f64(t.ByteScale)
	e.uvarint(uint64(len(t.Fetches)))
	for i := range t.Fetches {
		ref := &t.Fetches[i]
		e.str(ref.URL)
		e.str(ref.ID)
		e.varint(int64(ref.Part))
	}
	return nil
}

func (d *bdec) readTask() (*Task, error) {
	t := &Task{}
	var err error
	if t.Task, err = d.str(); err != nil {
		return nil, err
	}
	kb, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch kb {
	case kindMapByte:
		t.Kind = "map"
	case kindReduceByte:
		t.Kind = "reduce"
	default:
		return nil, fmt.Errorf("wire: unknown task kind byte %d", kb)
	}
	if t.Op, err = d.readOp(); err != nil {
		return nil, err
	}
	idx, err := d.varint()
	if err != nil {
		return nil, err
	}
	t.InputIdx = int(idx)
	if t.Block, err = d.readBlockRef(); err != nil {
		return nil, err
	}
	reducers, err := d.varint()
	if err != nil {
		return nil, err
	}
	// Workers size buffers and take moduli from these; a value no
	// controller emits is refused here, before it is used.
	if idx < 0 || reducers < 0 || reducers > maxReducers {
		return nil, fmt.Errorf("wire: task %s: input %d with %d reducers is out of range", t.Task, idx, reducers)
	}
	t.NumReducers = int(reducers)
	if t.Builds, err = readList(d, d.readBuild); err != nil {
		return nil, err
	}
	if idx, err = d.varint(); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= maxReducers {
		return nil, fmt.Errorf("wire: task %s: partition %d is out of range", t.Task, idx)
	}
	t.Partition = int(idx)
	if t.ShuffleID, err = d.str(); err != nil {
		return nil, err
	}
	if t.ByteScale, err = d.f64(); err != nil {
		return nil, err
	}
	t.Fetches, err = readList(d, func() (ref ShuffleRef, err error) {
		if ref.URL, err = d.str(); err != nil {
			return ref, err
		}
		if ref.ID, err = d.str(); err != nil {
			return ref, err
		}
		if idx, err = d.varint(); err != nil {
			return ref, err
		}
		ref.Part = int(idx)
		return ref, nil
	})
	if err != nil {
		return nil, err
	}
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
	r := &TaskResult{}
	var err error
	if r.Err, err = d.str(); err != nil {
		return nil, err
	}
	if r.CPU, err = d.f64(); err == nil && !(r.CPU >= 0 && r.CPU <= math.MaxFloat64) {
		err = fmt.Errorf("wire: CPU cost %v is out of range", r.CPU)
	}
	if err != nil {
		return nil, err
	}
	if r.Rows, err = d.readValueList(); err != nil {
		return nil, err
	}
	if r.Sel, err = d.readSel(); err != nil {
		return nil, err
	}
	r.Parts, err = readList(d, func() (ShufflePart, error) {
		n, err := d.varint()
		if err != nil {
			return ShufflePart{}, err
		}
		b, err := d.varint()
		if err == nil && (n < 0 || b < 0) {
			err = fmt.Errorf("wire: shuffle part of %d pairs in %d bytes is out of range", n, b)
		}
		return ShufflePart{Count: int(n), Bytes: b}, err
	})
	if err != nil {
		return nil, err
	}
	if r.PeerBytes, err = d.varint(); err != nil {
		return nil, err
	}
	pf, err := d.varint()
	if err == nil && (r.PeerBytes < 0 || pf < 0) {
		err = fmt.Errorf("wire: %d peer bytes in %d fetches is out of range", r.PeerBytes, pf)
	}
	if err != nil {
		return nil, err
	}
	r.PeerFetches = int(pf)
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
// string dictionary across tasks. Close the frame after use.
func EncodeTaskBatch(tasks []*Task) (*Frame, error) {
	e := newBenc()
	e.raw(magicTaskBatch)
	e.uvarint(uint64(len(tasks)))
	for _, t := range tasks {
		if err := e.writeTask(t); err != nil {
			e.release()
			return nil, err
		}
	}
	return &Frame{enc: e}, nil
}

// DecodeTaskBatch decodes a binary task batch frame.
func DecodeTaskBatch(b []byte) ([]*Task, error) {
	if !bytes.HasPrefix(b, magicTaskBatch) {
		return nil, fmt.Errorf("wire: not a task batch frame")
	}
	d := newBdec(b[len(magicTaskBatch):])
	defer d.release()
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	out := make([]*Task, n)
	for i := range out {
		if out[i], err = d.readTask(); err != nil {
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
