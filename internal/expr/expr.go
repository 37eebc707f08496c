// Package expr implements the scalar expression language evaluated over
// row objects: column paths, literals, comparisons, boolean connectives,
// arithmetic, and user-defined function calls.
//
// UDFs are registered in a Registry together with a virtual CPU cost per
// invocation; evaluation accrues that cost into the Ctx so the cluster
// simulator can charge it. UDF selectivity is deliberately *not* part of
// the registration: the whole point of the paper's pilot runs is that
// selectivity is discovered from data, never declared.
package expr

import (
	"fmt"
	"strings"

	"dyno/internal/data"
)

// Ctx carries evaluation state: the UDF registry, accumulated virtual
// CPU seconds, and the first evaluation error.
type Ctx struct {
	Reg        *Registry
	CPUSeconds float64
	Err        error
}

// errf records the first evaluation error.
func (c *Ctx) errf(format string, args ...any) {
	if c.Err == nil {
		c.Err = fmt.Errorf(format, args...)
	}
}

// Expr is a scalar expression evaluated against a row object.
type Expr interface {
	Eval(ctx *Ctx, row data.Value) data.Value
	String() string
}

// Col references a nested column by path; the path head is a relation
// alias.
type Col struct {
	Path data.Path
}

// NewCol builds a column reference from a path string, panicking on a
// malformed path (paths in this package are produced by the parser,
// which validates them).
func NewCol(path string) *Col { return &Col{Path: data.MustParsePath(path)} }

// Eval resolves the column against the row.
func (c *Col) Eval(_ *Ctx, row data.Value) data.Value { return c.Path.Eval(row) }

// String returns the path in source form.
func (c *Col) String() string { return c.Path.String() }

// Lit is a literal value.
type Lit struct {
	V data.Value
}

// NewLit wraps a value as a literal expression.
func NewLit(v data.Value) *Lit { return &Lit{V: v} }

// Eval returns the literal.
func (l *Lit) Eval(_ *Ctx, _ data.Value) data.Value { return l.V }

// String renders the literal.
func (l *Lit) String() string { return l.V.String() }

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Holds translates a data.Compare result into the operator's verdict.
func (op CmpOp) Holds(c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// Flip mirrors the operator across swapped operands: a op b holds
// exactly when b op.Flip() a does.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case GT:
		return LT
	case LE:
		return GE
	case GE:
		return LE
	}
	return op // EQ, NE are symmetric
}

// Cmp compares two sub-expressions. Comparisons involving null yield
// false (SQL-ish semantics without three-valued logic).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval evaluates the comparison to a boolean.
func (c *Cmp) Eval(ctx *Ctx, row data.Value) data.Value {
	l := c.L.Eval(ctx, row)
	r := c.R.Eval(ctx, row)
	if l.IsNull() || r.IsNull() {
		return data.Bool(false)
	}
	return data.Bool(c.Op.Holds(data.Compare(l, r)))
}

// String renders the comparison.
func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L.String(), c.Op.String(), c.R.String())
}

// And is an n-ary conjunction. An empty And is true.
type And struct {
	Terms []Expr
}

// Eval short-circuits on the first false term.
func (a *And) Eval(ctx *Ctx, row data.Value) data.Value {
	for _, t := range a.Terms {
		if !t.Eval(ctx, row).Truthy() {
			return data.Bool(false)
		}
	}
	return data.Bool(true)
}

// String renders the conjunction.
func (a *And) String() string { return joinTerms(a.Terms, " AND ") }

// Or is an n-ary disjunction. An empty Or is false.
type Or struct {
	Terms []Expr
}

// Eval short-circuits on the first true term.
func (o *Or) Eval(ctx *Ctx, row data.Value) data.Value {
	for _, t := range o.Terms {
		if t.Eval(ctx, row).Truthy() {
			return data.Bool(true)
		}
	}
	return data.Bool(false)
}

// String renders the disjunction.
func (o *Or) String() string { return "(" + joinTerms(o.Terms, " OR ") + ")" }

func joinTerms(terms []Expr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, sep)
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// Eval returns the boolean negation.
func (n *Not) Eval(ctx *Ctx, row data.Value) data.Value {
	return data.Bool(!n.E.Eval(ctx, row).Truthy())
}

// String renders the negation.
func (n *Not) String() string { return "NOT (" + n.E.String() + ")" }

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the operator's spelling.
func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[op] }

// Arith applies an arithmetic operator to two numeric sub-expressions.
// Integer inputs stay integral except for division, which is always
// floating point.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval computes the arithmetic result, or null on non-numeric input.
func (a *Arith) Eval(ctx *Ctx, row data.Value) data.Value {
	l := a.L.Eval(ctx, row)
	r := a.R.Eval(ctx, row)
	if !l.IsNumeric() || !r.IsNumeric() {
		return data.Null()
	}
	if a.Op == Div {
		rf := r.Float()
		if rf == 0 {
			return data.Null()
		}
		return data.Double(l.Float() / rf)
	}
	if l.Kind() == data.KindInt && r.Kind() == data.KindInt {
		li, ri := l.Int(), r.Int()
		switch a.Op {
		case Add:
			return data.Int(li + ri)
		case Sub:
			return data.Int(li - ri)
		case Mul:
			return data.Int(li * ri)
		}
	}
	lf, rf := l.Float(), r.Float()
	switch a.Op {
	case Add:
		return data.Double(lf + rf)
	case Sub:
		return data.Double(lf - rf)
	case Mul:
		return data.Double(lf * rf)
	}
	return data.Null()
}

// String renders the operation.
func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L.String(), a.Op.String(), a.R.String())
}

// Call invokes a registered UDF.
type Call struct {
	Name string
	Args []Expr
}

// Eval looks the UDF up in the context registry, charges its CPU cost,
// and applies it. A missing registry or UDF records an error and yields
// null.
func (c *Call) Eval(ctx *Ctx, row data.Value) data.Value {
	if ctx == nil || ctx.Reg == nil {
		return data.Null()
	}
	udf, ok := ctx.Reg.lookup(c.Name)
	if !ok {
		ctx.errf("expr: unknown UDF %q", c.Name)
		return data.Null()
	}
	args := make([]data.Value, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.Eval(ctx, row)
	}
	ctx.CPUSeconds += udf.CPUCost
	return udf.Fn(args)
}

// String renders the call.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// UDF is a user-defined function with a virtual CPU cost per call. The
// optimizer never sees a selectivity for it — that is what pilot runs
// estimate.
type UDF struct {
	Name    string
	Fn      func(args []data.Value) data.Value
	CPUCost float64
}

// Registry holds the UDFs visible to a query. Registries are typically
// per-dataset so experiments can re-register UDFs with different
// parameters (e.g. the Q9' selectivity sweep).
type Registry struct{ m map[string]UDF }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]UDF)} }

// Register adds or replaces a UDF.
func (r *Registry) Register(u UDF) { r.m[u.Name] = u }

// lookup finds a UDF by name.
func (r *Registry) lookup(name string) (UDF, bool) {
	u, ok := r.m[name]
	return u, ok
}
