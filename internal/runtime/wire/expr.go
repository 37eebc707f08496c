package wire

import (
	"fmt"

	"dyno/internal/data"
	"dyno/internal/expr"
)

// ExprSpec is the serialized form of an uncompiled expression tree.
// Compiled nodes (accessor-bound columns, see expr.Compile) are
// refused at encode time: callers serialize the uncompiled source
// expressions, and workers interpret them — expr.Compile is documented
// to change neither results nor UDF CPU accrual, so both sides
// evaluate identically.
type ExprSpec struct {
	T    string      // col lit cmp and or not arith call
	P    string      // col: path
	V    data.Value  // lit
	Op   string      // cmp: = <> < <= > >=; arith: + - * /
	L    *ExprSpec   // cmp, arith
	R    *ExprSpec   // cmp, arith
	Xs   []*ExprSpec // and, or
	X    *ExprSpec   // not
	Name string      // call
	Args []*ExprSpec // call
}

// Key returns a string that is equal for two specs exactly when they
// describe the same expression (the empty string for nil): the spec's
// frame encoding under a fresh dictionary.
func (s *ExprSpec) Key() (string, error) {
	if s == nil {
		return "", nil
	}
	e := newBenc()
	defer e.release()
	if err := e.writeExpr(s); err != nil {
		return "", err
	}
	return string(e.buf), nil
}

// EncodeExpr serializes an uncompiled expression; nil encodes as nil.
func EncodeExpr(e expr.Expr) (*ExprSpec, error) {
	if e == nil {
		return nil, nil
	}
	switch n := e.(type) {
	case *expr.Col:
		return &ExprSpec{T: "col", P: n.Path.String()}, nil
	case *expr.Lit:
		return &ExprSpec{T: "lit", V: n.V}, nil
	case *expr.Cmp:
		l, err := EncodeExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := EncodeExpr(n.R)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "cmp", Op: n.Op.String(), L: l, R: r}, nil
	case *expr.And:
		xs, err := encodeExprs(n.Terms)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "and", Xs: xs}, nil
	case *expr.Or:
		xs, err := encodeExprs(n.Terms)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "or", Xs: xs}, nil
	case *expr.Not:
		x, err := EncodeExpr(n.E)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "not", X: x}, nil
	case *expr.Arith:
		l, err := EncodeExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := EncodeExpr(n.R)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "arith", Op: n.Op.String(), L: l, R: r}, nil
	case *expr.Call:
		args, err := encodeExprs(n.Args)
		if err != nil {
			return nil, err
		}
		return &ExprSpec{T: "call", Name: n.Name, Args: args}, nil
	default:
		return nil, fmt.Errorf("wire: unsupported expression node %T (serialize uncompiled expressions)", e)
	}
}

func encodeExprs(es []expr.Expr) ([]*ExprSpec, error) {
	out := make([]*ExprSpec, len(es))
	for i, e := range es {
		s, err := EncodeExpr(e)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// DecodeExpr rebuilds the expression tree; a nil spec decodes as nil.
func DecodeExpr(s *ExprSpec) (expr.Expr, error) {
	if s == nil {
		return nil, nil
	}
	switch s.T {
	case "col":
		p, err := data.ParsePath(s.P)
		if err != nil {
			return nil, fmt.Errorf("wire: bad column path %q: %v", s.P, err)
		}
		return &expr.Col{Path: p}, nil
	case "lit":
		return &expr.Lit{V: s.V}, nil
	case "cmp":
		op, err := parseCmpOp(s.Op)
		if err != nil {
			return nil, err
		}
		l, err := DecodeExpr(s.L)
		if err != nil {
			return nil, err
		}
		r, err := DecodeExpr(s.R)
		if err != nil {
			return nil, err
		}
		return &expr.Cmp{Op: op, L: l, R: r}, nil
	case "and":
		xs, err := decodeExprs(s.Xs)
		if err != nil {
			return nil, err
		}
		return &expr.And{Terms: xs}, nil
	case "or":
		xs, err := decodeExprs(s.Xs)
		if err != nil {
			return nil, err
		}
		return &expr.Or{Terms: xs}, nil
	case "not":
		x, err := DecodeExpr(s.X)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: x}, nil
	case "arith":
		op, err := parseArithOp(s.Op)
		if err != nil {
			return nil, err
		}
		l, err := DecodeExpr(s.L)
		if err != nil {
			return nil, err
		}
		r, err := DecodeExpr(s.R)
		if err != nil {
			return nil, err
		}
		return &expr.Arith{Op: op, L: l, R: r}, nil
	case "call":
		args, err := decodeExprs(s.Args)
		if err != nil {
			return nil, err
		}
		return &expr.Call{Name: s.Name, Args: args}, nil
	default:
		return nil, fmt.Errorf("wire: unknown expression tag %q", s.T)
	}
}

func decodeExprs(ss []*ExprSpec) ([]expr.Expr, error) {
	out := make([]expr.Expr, len(ss))
	for i, s := range ss {
		e, err := DecodeExpr(s)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func parseCmpOp(s string) (expr.CmpOp, error) {
	switch s {
	case "=":
		return expr.EQ, nil
	case "<>":
		return expr.NE, nil
	case "<":
		return expr.LT, nil
	case "<=":
		return expr.LE, nil
	case ">":
		return expr.GT, nil
	case ">=":
		return expr.GE, nil
	}
	return 0, fmt.Errorf("wire: unknown comparison operator %q", s)
}

func parseArithOp(s string) (expr.ArithOp, error) {
	switch s {
	case "+":
		return expr.Add, nil
	case "-":
		return expr.Sub, nil
	case "*":
		return expr.Mul, nil
	case "/":
		return expr.Div, nil
	}
	return 0, fmt.Errorf("wire: unknown arithmetic operator %q", s)
}
