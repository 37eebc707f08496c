package batch

import (
	"strings"

	"dyno/internal/data"
	"dyno/internal/expr"
)

// Supported reports whether a predicate can be evaluated column-wise
// with verdicts identical to record-at-a-time evaluation. The
// supported shapes are boolean combinations (And/Or/Not) of
// comparisons whose operands are column paths or literals, plus
// constant literals in boolean position.
//
// Everything else is refused — most importantly UDF calls: Call.Eval
// charges its virtual CPU cost per invocation and can set the
// evaluation error, so batching one would have to reproduce the exact
// short-circuit invocation sequence to keep traces identical. The map
// kernels evaluate those predicates once per row, in row order, over
// the split's wrapped rows instead. Arithmetic and unknown node kinds
// (including externally defined expressions) are refused for the same
// conservative reason.
func Supported(e expr.Expr) bool {
	switch t := e.(type) {
	case *expr.Lit:
		return true
	case *expr.Cmp:
		return operandOK(t.L) && operandOK(t.R)
	case *expr.And:
		for _, term := range t.Terms {
			if !Supported(term) {
				return false
			}
		}
		return true
	case *expr.Or:
		for _, term := range t.Terms {
			if !Supported(term) {
				return false
			}
		}
		return true
	case *expr.Not:
		return Supported(t.E)
	}
	return false
}

func operandOK(e expr.Expr) bool {
	switch e.(type) {
	case *expr.Col, *expr.Lit:
		return true
	}
	return false
}

// evalPred returns the subset of sel on which e is truthy (only
// data.Bool(true) is truthy, matching Value.Truthy). Selections are
// ascending and read-only; And intersects by sequential filtering, Or
// unions disjoint passes, Not complements within sel — exactly the
// verdicts the short-circuiting Eval methods produce, which is safe to
// reorder because supported predicates are side-effect free.
func (d *Data) evalPred(e expr.Expr, sel []int32) []int32 {
	switch t := e.(type) {
	case *expr.Lit:
		if t.V.Truthy() {
			return sel
		}
		return nil
	case *expr.Cmp:
		return d.evalCmp(t, sel)
	case *expr.And:
		for _, term := range t.Terms {
			if len(sel) == 0 {
				break
			}
			sel = d.evalPred(term, sel)
		}
		return sel
	case *expr.Or:
		rest := sel
		var acc []int32
		for _, term := range t.Terms {
			if len(rest) == 0 {
				break
			}
			hit := d.evalPred(term, rest)
			acc = mergeSel(acc, hit)
			rest = diffSel(rest, hit)
		}
		return acc
	case *expr.Not:
		return diffSel(sel, d.evalPred(t.E, sel))
	}
	// Unreachable for supported predicates.
	return nil
}

// mergeSel merges two disjoint ascending selections.
func mergeSel(a, b []int32) []int32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// diffSel returns the ascending elements of a not present in b (b is
// an ascending subset of a).
func diffSel(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(b) == len(a) {
		return nil
	}
	out := make([]int32, 0, len(a)-len(b))
	j := 0
	for _, x := range a {
		if j < len(b) && b[j] == x {
			j++
			continue
		}
		out = append(out, x)
	}
	return out
}

// opHolds translates a data.Compare result into the comparison's
// verdict.
func opHolds(op expr.CmpOp, c int) bool {
	switch op {
	case expr.EQ:
		return c == 0
	case expr.NE:
		return c != 0
	case expr.LT:
		return c < 0
	case expr.LE:
		return c <= 0
	case expr.GT:
		return c > 0
	case expr.GE:
		return c >= 0
	}
	return false
}

// flipOp mirrors an operator across swapped operands: a op b == b
// flip(op) a.
func flipOp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.GT:
		return expr.LT
	case expr.LE:
		return expr.GE
	case expr.GE:
		return expr.LE
	}
	return op // EQ, NE are symmetric
}

// evalCmp evaluates one comparison over the selection. Null operands
// yield false (rows dropped), matching Cmp.Eval; cross-kind-class
// comparisons order by kind class, and numbers by data's number
// comparisons, matching data.Compare.
func (d *Data) evalCmp(t *expr.Cmp, sel []int32) []int32 {
	lc, lIsCol := t.L.(*expr.Col)
	rc, rIsCol := t.R.(*expr.Col)
	op := t.Op
	switch {
	case lIsCol && rIsCol:
		return d.cmpColCol(op, d.colLocked(lc.Path), d.colLocked(rc.Path), sel)
	case lIsCol:
		return d.cmpColLit(op, d.colLocked(lc.Path), t.R.(*expr.Lit).V, sel)
	case rIsCol:
		return d.cmpColLit(flipOp(op), d.colLocked(rc.Path), t.L.(*expr.Lit).V, sel)
	default:
		l, r := t.L.(*expr.Lit).V, t.R.(*expr.Lit).V
		if l.IsNull() || r.IsNull() || !opHolds(op, data.Compare(l, r)) {
			return nil
		}
		return sel
	}
}

// constVerdict filters sel to the non-null rows of v when keep is
// true, or drops every row: the comparison's verdict is the same for
// every non-null row (kind-class ordering).
func constVerdict(v *Vec, sel []int32, keep bool) []int32 {
	if !keep {
		return nil
	}
	if v.nulls == nil {
		return sel
	}
	out := make([]int32, 0, len(sel))
	for _, i := range sel {
		if !v.isNull(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

func (d *Data) cmpColLit(op expr.CmpOp, v *Vec, lit data.Value, sel []int32) []int32 {
	if lit.IsNull() {
		return nil
	}
	if v.kind == vecMixed {
		out := make([]int32, 0, len(sel))
		for _, i := range sel {
			x := v.vals[i]
			if x.IsNull() {
				continue
			}
			if opHolds(op, data.Compare(x, lit)) {
				out = append(out, i)
			}
		}
		return out
	}
	litClass := kindClassOf(lit.Kind())
	if litClass != v.class() {
		return constVerdict(v, sel, opHolds(op, data.CompareInt(int64(v.class()), int64(litClass))))
	}
	out := make([]int32, 0, len(sel))
	switch v.kind {
	case vecInt:
		if lit.Kind() == data.KindInt {
			li := lit.Int()
			for _, i := range sel {
				if !v.isNull(int(i)) && opHolds(op, data.CompareInt(v.ints[i], li)) {
					out = append(out, i)
				}
			}
		} else {
			lf := lit.Float()
			for _, i := range sel {
				if !v.isNull(int(i)) && opHolds(op, data.CompareIntFloat(v.ints[i], lf)) {
					out = append(out, i)
				}
			}
		}
	case vecFloat:
		if lit.Kind() == data.KindInt {
			li := lit.Int()
			for _, i := range sel {
				if !v.isNull(int(i)) && opHolds(op, -data.CompareIntFloat(li, v.floats[i])) {
					out = append(out, i)
				}
			}
		} else {
			lf := lit.Float()
			for _, i := range sel {
				if !v.isNull(int(i)) && opHolds(op, data.CompareFloat(v.floats[i], lf)) {
					out = append(out, i)
				}
			}
		}
	case vecStr:
		ls := lit.Str()
		for _, i := range sel {
			if !v.isNull(int(i)) && opHolds(op, strings.Compare(v.strs[i], ls)) {
				out = append(out, i)
			}
		}
	}
	return out
}

func (d *Data) cmpColCol(op expr.CmpOp, a, b *Vec, sel []int32) []int32 {
	if a.kind == vecMixed || b.kind == vecMixed {
		out := make([]int32, 0, len(sel))
		for _, i := range sel {
			x, y := a.value(int(i)), b.value(int(i))
			if x.IsNull() || y.IsNull() {
				continue
			}
			if opHolds(op, data.Compare(x, y)) {
				out = append(out, i)
			}
		}
		return out
	}
	bothNonNull := func(i int32) bool { return !a.isNull(int(i)) && !b.isNull(int(i)) }
	if a.class() != b.class() {
		keep := opHolds(op, data.CompareInt(int64(a.class()), int64(b.class())))
		if !keep {
			return nil
		}
		out := make([]int32, 0, len(sel))
		for _, i := range sel {
			if bothNonNull(i) {
				out = append(out, i)
			}
		}
		return out
	}
	if a.kind == vecFloat && b.kind == vecInt {
		return d.cmpColCol(flipOp(op), b, a, sel) // the mixed loop below is int-first
	}
	out := make([]int32, 0, len(sel))
	switch {
	case a.kind == vecInt && b.kind == vecInt:
		for _, i := range sel {
			if bothNonNull(i) && opHolds(op, data.CompareInt(a.ints[i], b.ints[i])) {
				out = append(out, i)
			}
		}
	case a.kind == vecStr: // b is vecStr too (same class)
		for _, i := range sel {
			if bothNonNull(i) && opHolds(op, strings.Compare(a.strs[i], b.strs[i])) {
				out = append(out, i)
			}
		}
	case a.kind == vecFloat: // b is vecFloat too
		for _, i := range sel {
			if bothNonNull(i) && opHolds(op, data.CompareFloat(a.floats[i], b.floats[i])) {
				out = append(out, i)
			}
		}
	default: // int column against double column, by exact value
		for _, i := range sel {
			if bothNonNull(i) && opHolds(op, data.CompareIntFloat(a.ints[i], b.floats[i])) {
				out = append(out, i)
			}
		}
	}
	return out
}

// kindClassOf mirrors data's kind-class ordering (null < bool <
// numbers < string < array < object), which the data package asserts
// against in its batch parity tests.
func kindClassOf(k data.Kind) int {
	switch k {
	case data.KindNull:
		return 0
	case data.KindBool:
		return 1
	case data.KindInt, data.KindDouble:
		return 2
	case data.KindString:
		return 3
	case data.KindArray:
		return 4
	case data.KindObject:
		return 5
	}
	return 6
}
