package wire

import (
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/physop"
)

// frameRoundTrip pushes an expression through a task frame (as an
// operator's residual) the way the controller/worker HTTP hop does.
func frameRoundTrip(e expr.Expr) (expr.Expr, error) {
	frame, err := EncodeTaskBatch([]*Task{{Task: "t", Kind: "map", Op: &physop.OpSpec{Kind: physop.Scan, Residual: e}}})
	if err != nil {
		return nil, err
	}
	defer frame.Close()
	got, err := DecodeTaskBatch(frame.Bytes())
	if err != nil {
		return nil, err
	}
	return got[0].Op.Residual, nil
}

func TestExprCodecRoundTrip(t *testing.T) {
	e := &expr.And{Terms: []expr.Expr{
		&expr.Cmp{Op: expr.LE, L: &expr.Col{Path: data.MustParsePath("l.l_quantity")}, R: &expr.Lit{V: data.Double(24)}},
		&expr.Or{Terms: []expr.Expr{
			&expr.Not{E: &expr.Cmp{Op: expr.EQ, L: &expr.Col{Path: data.MustParsePath("o.o_orderstatus")}, R: &expr.Lit{V: data.String("F")}}},
			&expr.Cmp{Op: expr.GT,
				L: &expr.Arith{Op: expr.Mul, L: &expr.Col{Path: data.MustParsePath("l.l_extendedprice")}, R: &expr.Arith{Op: expr.Sub, L: &expr.Lit{V: data.Int(1)}, R: &expr.Col{Path: data.MustParsePath("l.l_discount")}}},
				R: &expr.Lit{V: data.Double(100.5)}},
			&expr.Call{Name: "q9_keep_part", Args: []expr.Expr{&expr.Col{Path: data.MustParsePath("p.p_name")}}},
		}},
	}}
	got, err := frameRoundTrip(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != e.String() {
		t.Fatalf("expr round trip changed tree:\n  %s\n  %s", e.String(), got.String())
	}
}

func TestExprCodecRefusesCompiledNodes(t *testing.T) {
	raw := &expr.Cmp{Op: expr.EQ, L: &expr.Col{Path: data.MustParsePath("a.x")}, R: &expr.Lit{V: data.Int(1)}}
	sample := data.Object(data.Field{Name: "a", Value: data.Object(data.Field{Name: "x", Value: data.Int(1)})})
	if _, err := frameRoundTrip(expr.Compile(raw, sample)); err == nil {
		t.Fatal("expected the frame codec to refuse a compiled tree")
	}
	if _, err := ExprKey(expr.Compile(raw, sample)); err == nil {
		t.Fatal("expected ExprKey to refuse a compiled tree")
	}
}
