package expr

import (
	"reflect"
	"testing"

	"dyno/internal/data"
)

func joinPred() Expr {
	return &Cmp{Op: EQ, L: NewCol("rs.id"), R: NewCol("rv.rsid")}
}

func localPred() Expr {
	return &Cmp{Op: EQ, L: NewCol("rs.addr[0].zip"), R: NewLit(data.Int(94301))}
}

func TestAliases(t *testing.T) {
	e := &And{Terms: []Expr{joinPred(), localPred(),
		&Call{Name: "checkid", Args: []Expr{NewCol("rv"), NewCol("t")}}}}
	got := SortedAliases(e)
	want := []string{"rs", "rv", "t"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("aliases = %v, want %v", got, want)
	}
}

func TestSplitConjoinRoundTrip(t *testing.T) {
	a, b, c := localPred(), joinPred(), &Not{E: localPred()}
	e := &And{Terms: []Expr{a, &And{Terms: []Expr{b, c}}}}
	got := SplitConjuncts(e)
	if len(got) != 3 {
		t.Fatalf("conjuncts = %d, want 3 (nested flattening)", len(got))
	}
	back := Conjoin(got)
	if back.String() != "rs.addr[0].zip = 94301 AND rs.id = rv.rsid AND NOT (rs.addr[0].zip = 94301)" {
		t.Errorf("conjoin = %q", back.String())
	}
	if Conjoin(nil) != nil {
		t.Error("Conjoin(nil) should be nil")
	}
	if Conjoin([]Expr{a}) != a {
		t.Error("Conjoin of one should be itself")
	}
	if SplitConjuncts(nil) != nil {
		t.Error("SplitConjuncts(nil) should be nil")
	}
}

func TestEquiJoinCols(t *testing.T) {
	l, r, ok := EquiJoinCols(joinPred())
	if !ok || l.String() != "rs.id" || r.String() != "rv.rsid" {
		t.Errorf("EquiJoinCols = %v, %v, %v", l, r, ok)
	}
	// Not equi-join: same alias, literal side, non-EQ.
	if _, _, ok := EquiJoinCols(localPred()); ok {
		t.Error("literal comparison is not an equi-join")
	}
	sameAlias := &Cmp{Op: EQ, L: NewCol("rs.a"), R: NewCol("rs.b")}
	if _, _, ok := EquiJoinCols(sameAlias); ok {
		t.Error("same-alias equality is not a join predicate")
	}
	lt := &Cmp{Op: LT, L: NewCol("rs.id"), R: NewCol("rv.rsid")}
	if _, _, ok := EquiJoinCols(lt); ok {
		t.Error("non-equality is not an equi-join")
	}
}

func TestContainsUDFAndNames(t *testing.T) {
	e := &And{Terms: []Expr{
		joinPred(),
		&Cmp{Op: EQ, L: &Call{Name: "sentanalysis", Args: []Expr{NewCol("rv")}}, R: NewLit(data.String("positive"))},
		&Call{Name: "checkid", Args: []Expr{NewCol("rv"), NewCol("t")}},
	}}
	if !ContainsUDF(e) {
		t.Error("ContainsUDF should be true")
	}
	if ContainsUDF(joinPred()) {
		t.Error("plain join pred has no UDF")
	}
}

func TestColumnPaths(t *testing.T) {
	e := &And{Terms: []Expr{joinPred(), joinPred(), localPred()}}
	got := ColumnPaths(e)
	if len(got) != 3 {
		t.Fatalf("paths = %v", got)
	}
	if got[0].String() != "rs.addr[0].zip" || got[1].String() != "rs.id" || got[2].String() != "rv.rsid" {
		t.Errorf("paths = %v", got)
	}
}

func TestSignatureOrderIndependent(t *testing.T) {
	a := &And{Terms: []Expr{localPred(), joinPred()}}
	b := &And{Terms: []Expr{joinPred(), localPred()}}
	if Signature(a) != Signature(b) {
		t.Errorf("signatures differ: %q vs %q", Signature(a), Signature(b))
	}
	if Signature(nil) != "<true>" {
		t.Errorf("Signature(nil) = %q", Signature(nil))
	}
	if Signature(a) == Signature(localPred()) {
		t.Error("different expressions should not collide")
	}
}
