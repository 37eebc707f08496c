package expr

import (
	"testing"

	"dyno/internal/data"
)

func testRow() data.Value {
	return data.Object(
		data.Field{Name: "rs", Value: data.Object(
			data.Field{Name: "id", Value: data.Int(7)},
			data.Field{Name: "name", Value: data.String("Casa")},
			data.Field{Name: "rating", Value: data.Double(4.5)},
			data.Field{Name: "addr", Value: data.Array(
				data.Object(data.Field{Name: "zip", Value: data.Int(94301)}),
			)},
		)},
		data.Field{Name: "rv", Value: data.Object(
			data.Field{Name: "rsid", Value: data.Int(7)},
			data.Field{Name: "stars", Value: data.Int(5)},
		)},
	)
}

func evalBool(t *testing.T, e Expr, row data.Value) bool {
	t.Helper()
	ctx := &Ctx{Reg: NewRegistry()}
	v := e.Eval(ctx, row)
	if ctx.Err != nil {
		t.Fatalf("eval error: %v", ctx.Err)
	}
	return v.Truthy()
}

func TestColAndLit(t *testing.T) {
	row := testRow()
	if got := NewCol("rs.name").Eval(nil, row); got.Str() != "Casa" {
		t.Errorf("col = %v", got)
	}
	if got := NewCol("rs.addr[0].zip").Eval(nil, row); got.Int() != 94301 {
		t.Errorf("nested col = %v", got)
	}
	if got := NewLit(data.Int(3)).Eval(nil, row); got.Int() != 3 {
		t.Errorf("lit = %v", got)
	}
}

func TestCmpOperators(t *testing.T) {
	row := testRow()
	cases := []struct {
		op   CmpOp
		lhs  string
		rhs  data.Value
		want bool
	}{
		{EQ, "rs.id", data.Int(7), true},
		{EQ, "rs.id", data.Int(8), false},
		{NE, "rs.id", data.Int(8), true},
		{LT, "rs.rating", data.Double(5.0), true},
		{LE, "rs.rating", data.Double(4.5), true},
		{GT, "rv.stars", data.Int(4), true},
		{GE, "rv.stars", data.Int(6), false},
	}
	for _, c := range cases {
		e := &Cmp{Op: c.op, L: NewCol(c.lhs), R: NewLit(c.rhs)}
		if got := evalBool(t, e, row); got != c.want {
			t.Errorf("%s: got %v, want %v", e.String(), got, c.want)
		}
	}
}

func TestCmpNullIsFalse(t *testing.T) {
	row := testRow()
	e := &Cmp{Op: EQ, L: NewCol("rs.missing"), R: NewLit(data.Int(1))}
	if evalBool(t, e, row) {
		t.Error("comparison with null should be false")
	}
	ne := &Cmp{Op: NE, L: NewCol("rs.missing"), R: NewLit(data.Int(1))}
	if evalBool(t, ne, row) {
		t.Error("NE with null should also be false")
	}
}

func TestCmpCrossTypeNumeric(t *testing.T) {
	row := testRow()
	e := &Cmp{Op: EQ, L: NewCol("rv.stars"), R: NewLit(data.Double(5.0))}
	if !evalBool(t, e, row) {
		t.Error("5 = 5.0 should hold")
	}
}

func TestAndOrNot(t *testing.T) {
	row := testRow()
	tr := &Cmp{Op: EQ, L: NewLit(data.Int(1)), R: NewLit(data.Int(1))}
	fa := &Cmp{Op: EQ, L: NewLit(data.Int(1)), R: NewLit(data.Int(2))}
	if !evalBool(t, &And{Terms: []Expr{tr, tr}}, row) {
		t.Error("true AND true")
	}
	if evalBool(t, &And{Terms: []Expr{tr, fa}}, row) {
		t.Error("true AND false")
	}
	if !evalBool(t, &And{}, row) {
		t.Error("empty AND should be true")
	}
	if !evalBool(t, &Or{Terms: []Expr{fa, tr}}, row) {
		t.Error("false OR true")
	}
	if evalBool(t, &Or{}, row) {
		t.Error("empty OR should be false")
	}
	if evalBool(t, &Not{E: tr}, row) || !evalBool(t, &Not{E: fa}, row) {
		t.Error("NOT broken")
	}
}

func TestArith(t *testing.T) {
	row := testRow()
	cases := []struct {
		op   ArithOp
		l, r data.Value
		want data.Value
	}{
		{Add, data.Int(2), data.Int(3), data.Int(5)},
		{Sub, data.Int(2), data.Int(3), data.Int(-1)},
		{Mul, data.Int(4), data.Int(3), data.Int(12)},
		{Div, data.Int(7), data.Int(2), data.Double(3.5)},
		{Add, data.Double(1.5), data.Int(1), data.Double(2.5)},
		{Mul, data.Double(2), data.Double(3), data.Double(6)},
	}
	for _, c := range cases {
		e := &Arith{Op: c.op, L: NewLit(c.l), R: NewLit(c.r)}
		got := e.Eval(nil, row)
		if !data.Equal(got, c.want) {
			t.Errorf("%v %v %v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
	// Division by zero and non-numeric input yield null.
	if !(&Arith{Op: Div, L: NewLit(data.Int(1)), R: NewLit(data.Int(0))}).Eval(nil, row).IsNull() {
		t.Error("div by zero should be null")
	}
	if !(&Arith{Op: Add, L: NewLit(data.String("x")), R: NewLit(data.Int(1))}).Eval(nil, row).IsNull() {
		t.Error("non-numeric arithmetic should be null")
	}
}

func TestUDFCallChargesCPU(t *testing.T) {
	reg := NewRegistry()
	reg.Register(UDF{
		Name:    "sentanalysis",
		CPUCost: 0.25,
		Fn: func(args []data.Value) data.Value {
			return data.String("positive")
		},
	})
	ctx := &Ctx{Reg: reg}
	e := &Cmp{
		Op: EQ,
		L:  &Call{Name: "sentanalysis", Args: []Expr{NewCol("rv")}},
		R:  NewLit(data.String("positive")),
	}
	row := testRow()
	for i := 0; i < 4; i++ {
		if !e.Eval(ctx, row).Truthy() {
			t.Fatal("udf comparison should be true")
		}
	}
	if ctx.CPUSeconds != 1.0 {
		t.Errorf("CPUSeconds = %v, want 1.0 (4 calls × 0.25)", ctx.CPUSeconds)
	}
	if ctx.Err != nil {
		t.Errorf("unexpected err: %v", ctx.Err)
	}
}

func TestUnknownUDFRecordsError(t *testing.T) {
	ctx := &Ctx{Reg: NewRegistry()}
	e := &Call{Name: "nope"}
	if got := e.Eval(ctx, testRow()); !got.IsNull() {
		t.Error("unknown UDF should yield null")
	}
	if ctx.Err == nil {
		t.Error("unknown UDF should record an error")
	}
}

func TestCallWithNilRegistry(t *testing.T) {
	e := &Call{Name: "f"}
	if got := e.Eval(nil, testRow()); !got.IsNull() {
		t.Error("nil ctx call should yield null")
	}
}

func TestStringRendering(t *testing.T) {
	e := &And{Terms: []Expr{
		&Cmp{Op: EQ, L: NewCol("rs.id"), R: NewCol("rv.rsid")},
		&Cmp{Op: GE, L: NewCol("rv.stars"), R: NewLit(data.Int(4))},
		&Not{E: &Call{Name: "spam", Args: []Expr{NewCol("rv")}}},
	}}
	want := "rs.id = rv.rsid AND rv.stars >= 4 AND NOT (spam(rv))"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Register(UDF{Name: "a"})
	r.Register(UDF{Name: "b"})
	r.Register(UDF{Name: "a"}) // replace
	if got := len(r.m); got != 2 {
		t.Errorf("Names = %d, want 2", got)
	}
	if _, ok := r.Lookup("a"); !ok {
		t.Error("Lookup(a) failed")
	}
	if _, ok := r.Lookup("zz"); ok {
		t.Error("Lookup(zz) should fail")
	}
}

func TestOrAndNotRendering(t *testing.T) {
	e := &Or{Terms: []Expr{
		&Cmp{Op: EQ, L: NewCol("a.x"), R: NewLit(data.Int(1))},
		&Not{E: &Cmp{Op: LT, L: NewCol("a.y"), R: NewLit(data.Int(2))}},
	}}
	want := "(a.x = 1 OR NOT (a.y < 2))"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestOperatorStrings(t *testing.T) {
	ops := map[string]string{
		EQ.String(): "=", NE.String(): "<>", LT.String(): "<",
		LE.String(): "<=", GT.String(): ">", GE.String(): ">=",
	}
	for got, want := range ops {
		if got != want {
			t.Errorf("cmp op = %q, want %q", got, want)
		}
	}
	if Add.String() != "+" || Sub.String() != "-" || Mul.String() != "*" || Div.String() != "/" {
		t.Error("arith op strings broken")
	}
	if CmpOp(99).String() != "?" {
		t.Error("unknown op should render ?")
	}
}

func TestCtxErrfKeepsFirst(t *testing.T) {
	ctx := &Ctx{}
	ctx.errf("first %d", 1)
	ctx.errf("second %d", 2)
	if ctx.Err == nil || ctx.Err.Error() != "first 1" {
		t.Errorf("Err = %v", ctx.Err)
	}
}
