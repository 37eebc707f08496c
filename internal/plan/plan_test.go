package plan

import (
	"strings"
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/stats"
)

func rel(alias string, card float64) *Rel {
	return &Rel{
		Name:    alias,
		Aliases: []string{alias},
		Leaf:    &Leaf{Table: alias, Alias: alias},
		Stats:   stats.TableStats{Card: card, AvgRecSize: 10},
	}
}

func TestLeafSignatureAndString(t *testing.T) {
	l := &Leaf{Table: "orders", Alias: "o"}
	if !strings.Contains(l.Signature(), "scan(orders AS o)") {
		t.Errorf("signature = %q", l.Signature())
	}
	if l.String() != "o" {
		t.Errorf("bare leaf String = %q", l.String())
	}
	l.Pred = &expr.Cmp{Op: expr.EQ, L: expr.NewCol("o.x"), R: expr.NewLit(data.Int(1))}
	if !strings.Contains(l.String(), "σ[") {
		t.Errorf("filtered leaf String = %q", l.String())
	}
}

func TestRelCoversAndString(t *testing.T) {
	r := rel("o", 10)
	if !r.Covers("o") || r.Covers("c") {
		t.Error("Covers broken")
	}
	if !r.IsBase() {
		t.Error("leaf rel is base")
	}
	inter := &Rel{Name: "t1", Aliases: []string{"o", "c"}}
	if inter.IsBase() {
		t.Error("intermediate is not base")
	}
	if got := inter.String(); got != "t1{o,c}" {
		t.Errorf("String = %q", got)
	}
}

func TestJoinBlockHelpers(t *testing.T) {
	jb := &JoinBlock{
		Rels: []*Rel{rel("b", 1), rel("a", 2)},
		JoinPreds: []expr.Expr{
			&expr.Cmp{Op: expr.EQ, L: expr.NewCol("a.k"), R: expr.NewCol("b.k")},
		},
	}
	if jb.RelFor("a") == nil || jb.RelFor("zz") != nil {
		t.Error("RelFor broken")
	}
	if !strings.Contains(jb.String(), "⋈[a.k = b.k]") {
		t.Errorf("String = %q", jb.String())
	}
}

func TestPhysicalTreeAccessors(t *testing.T) {
	a, b, c := rel("a", 100), rel("b", 10), rel("c", 5)
	inner := &Join{
		Method:  BroadcastJoin,
		Left:    &Scan{Rel: a},
		Right:   &Scan{Rel: b},
		EstCard: 100, EstBytes: 2000, CostVal: 7,
	}
	root := &Join{
		Method:  Repartition,
		Left:    inner,
		Right:   &Scan{Rel: c},
		EstCard: 50, EstBytes: 1500, CostVal: 20,
	}
	if got := root.Aliases(); len(got) != 3 || got[0] != "a" {
		t.Errorf("Aliases = %v", got)
	}
	if root.Card() != 50 || root.Bytes() != 1500 || root.Cost() != 20 {
		t.Error("accessors broken")
	}
	if s := (&Scan{Rel: a}); s.Cost() != 0 || s.Card() != 100 {
		t.Error("scan accessors broken")
	}
}

func TestJoinMethodString(t *testing.T) {
	if Repartition.String() != "⋈r" || BroadcastJoin.String() != "⋈b" {
		t.Error("method strings broken")
	}
}

func TestFormatRendersTree(t *testing.T) {
	a, b := rel("a", 100), rel("b", 10)
	j := &Join{
		Method:  BroadcastJoin,
		Left:    &Scan{Rel: a},
		Right:   &Scan{Rel: b},
		Chained: true,
		Residual: []expr.Expr{
			&expr.Call{Name: "f", Args: []expr.Expr{expr.NewCol("a.x"), expr.NewCol("b.y")}},
		},
		EstCard: 42,
	}
	out := Format(j)
	for _, want := range []string{"⋈b (chained)", "σ*[f(a.x, b.y)]", "card=42", "a  [card=100]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}
