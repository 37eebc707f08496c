package wire

import (
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
)

// frameRoundTrip pushes an expression spec through a task frame the
// way the controller/worker HTTP hop does.
func frameRoundTrip(t *testing.T, spec *ExprSpec) *ExprSpec {
	t.Helper()
	frame, err := EncodeTaskBatch([]*Task{{Task: "t", Kind: "map", Op: &OpSpec{Kind: "scan", Residual: spec}}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	defer frame.Close()
	got, err := DecodeTaskBatch(frame.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got[0].Op.Residual
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
	spec, err := EncodeExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeExpr(frameRoundTrip(t, spec))
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
	compiled := expr.Compile(raw, sample)
	if _, err := EncodeExpr(compiled); err == nil {
		t.Fatal("expected EncodeExpr to refuse a compiled tree")
	}
}

func TestPruneCodecMatchesPruner(t *testing.T) {
	live := map[string]map[string]bool{
		"l": {"l_orderkey": true, "l_discount": true},
		"o": nil, // fully live: must be omitted, pruner keeps it whole
	}
	prune := DecodePrune(EncodePrune(live))
	row := data.Object(
		data.Field{Name: "l", Value: data.Object(
			data.Field{Name: "l_orderkey", Value: data.Int(1)},
			data.Field{Name: "l_discount", Value: data.Double(0.04)},
			data.Field{Name: "l_comment", Value: data.String("x")},
		)},
		data.Field{Name: "o", Value: data.Object(data.Field{Name: "o_comment", Value: data.String("y")})},
	)
	got := prune(row)
	want := data.Object(
		data.Field{Name: "l", Value: data.Object(
			data.Field{Name: "l_orderkey", Value: data.Int(1)},
			data.Field{Name: "l_discount", Value: data.Double(0.04)},
		)},
		data.Field{Name: "o", Value: data.Object(data.Field{Name: "o_comment", Value: data.String("y")})},
	)
	if !data.Equal(got, want) {
		t.Fatalf("prune mismatch: %s != %s", got, want)
	}
}

func TestTableProbeMatchesScanOrder(t *testing.T) {
	recs := []data.Value{
		data.Object(data.Field{Name: "k", Value: data.Int(1)}, data.Field{Name: "v", Value: data.String("a")}),
		data.Object(data.Field{Name: "k", Value: data.Int(2)}, data.Field{Name: "v", Value: data.String("b")}),
		data.Object(data.Field{Name: "k", Value: data.Int(1)}, data.Field{Name: "v", Value: data.String("c")}),
	}
	tbl, err := BuildTable(nil, "t", nil, []data.Path{data.MustParsePath("t.k")}, recs)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Probe(data.Int(1))
	if len(rows) != 2 {
		t.Fatalf("probe returned %d rows, want 2", len(rows))
	}
	if rows[0].Fields()[0].Value.Fields()[1].Value.Str() != "a" || rows[1].Fields()[0].Value.Fields()[1].Value.Str() != "c" {
		t.Fatalf("probe order not scan order: %v", rows)
	}
	if got := tbl.Probe(data.Int(3)); got != nil {
		t.Fatalf("probe of absent key returned %v", got)
	}
}
