package optimizer

import (
	"strings"
	"testing"

	"dyno/internal/plan"
)

// joinsOf returns all Join nodes of the tree in post-order.
func joinsOf(n plan.Node) []*plan.Join {
	j, ok := n.(*plan.Join)
	if !ok {
		return nil
	}
	return append(append(joinsOf(j.Left), joinsOf(j.Right)...), j)
}

// scansOf returns all Scan nodes of the tree in left-to-right order.
func scansOf(n plan.Node) []*plan.Scan {
	if j, ok := n.(*plan.Join); ok {
		return append(scansOf(j.Left), scansOf(j.Right)...)
	}
	return []*plan.Scan{n.(*plan.Scan)}
}

// isLeftDeep reports whether every join's right input is a scan.
func isLeftDeep(n plan.Node) bool {
	j, ok := n.(*plan.Join)
	if !ok {
		return true
	}
	_, scan := j.Right.(*plan.Scan)
	return scan && isLeftDeep(j.Left)
}

// fingerprint renders the plan's structural identity — join methods,
// chain marks, and leaf alias lists, no cardinality or cost floats —
// so plans from different optimizer arms can be byte-compared even
// when their estimate annotations were recomputed.
func fingerprint(n plan.Node) string {
	if j, ok := n.(*plan.Join); ok {
		label := j.Method.String()
		if j.Chained {
			label += "+"
		}
		return label + "(" + fingerprint(j.Left) + "," + fingerprint(j.Right) + ")"
	}
	return strings.Join(n.Aliases(), ",")
}

func TestFingerprintStructureOnly(t *testing.T) {
	a, b, c := mkRel("a", 100, 10, nil), mkRel("b", 10, 10, nil), mkRel("c", 5, 10, nil)
	tree := func(cost float64) *plan.Join {
		inner := &plan.Join{
			Method: plan.BroadcastJoin, Chained: true,
			Left: &plan.Scan{Rel: a}, Right: &plan.Scan{Rel: b},
			EstCard: cost, CostVal: cost,
		}
		return &plan.Join{
			Method: plan.Repartition,
			Left:   inner, Right: &plan.Scan{Rel: c},
			EstCard: cost, CostVal: cost,
		}
	}
	x, y := tree(1), tree(99)
	if fingerprint(x) != fingerprint(y) {
		t.Error("fingerprint must ignore estimate annotations")
	}
	if want := "⋈r(⋈b+(a,b),c)"; fingerprint(x) != want {
		t.Errorf("fingerprint = %q, want %q", fingerprint(x), want)
	}
	// Structure changes must change the fingerprint.
	z := tree(1)
	z.Method = plan.BroadcastJoin
	if fingerprint(x) == fingerprint(z) {
		t.Error("fingerprint must reflect the join method")
	}
	w := tree(1)
	w.Left.(*plan.Join).Chained = false
	if fingerprint(x) == fingerprint(w) {
		t.Error("fingerprint must reflect chain marks")
	}
}
