package optimizer

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dyno/internal/expr"
	"dyno/internal/plan"
)

// randomBlock generates a connected join block with 2-7 relations,
// random cardinalities/NDVs, a random tree of equi-join edges plus a
// few extra edges, and occasionally a residual UDF.
func randomBlock(r *rand.Rand) *plan.JoinBlock {
	n := 2 + r.Intn(6)
	b := &plan.JoinBlock{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		card := float64(1 + r.Intn(1_000_000))
		ndv := map[string]float64{}
		for c := 0; c < 2; c++ {
			ndv[fmt.Sprintf("%s.c%d", name, c)] = float64(1 + r.Intn(int(card)+1))
		}
		b.Rels = append(b.Rels, mkRel(name, card, float64(20+r.Intn(500)), ndv))
	}
	// Spanning tree to guarantee connectivity.
	for i := 1; i < n; i++ {
		j := r.Intn(i)
		b.JoinPreds = append(b.JoinPreds, eq(
			fmt.Sprintf("r%d.c%d", i, r.Intn(2)),
			fmt.Sprintf("r%d.c%d", j, r.Intn(2))))
	}
	// Extra edges.
	for k := 0; k < r.Intn(3); k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		b.JoinPreds = append(b.JoinPreds, eq(
			fmt.Sprintf("r%d.c%d", i, r.Intn(2)),
			fmt.Sprintf("r%d.c%d", j, r.Intn(2))))
	}
	if r.Intn(3) == 0 && n >= 2 {
		b.NonLocal = append(b.NonLocal, &expr.Call{Name: "f", Args: []expr.Expr{
			expr.NewCol("r0"), expr.NewCol("r1"),
		}})
	}
	return b
}

// validatePlan checks the structural invariants every plan must hold.
func validatePlan(t *testing.T, b *plan.JoinBlock, root plan.Node, cfg Config) {
	t.Helper()
	// Every relation appears exactly once.
	seen := map[string]int{}
	for _, sc := range plan.Scans(root) {
		for _, a := range sc.Rel.Aliases {
			seen[a]++
		}
	}
	for _, rel := range b.Rels {
		for _, a := range rel.Aliases {
			if seen[a] != 1 {
				t.Fatalf("alias %s appears %d times:\n%s", a, seen[a], plan.Format(root))
			}
		}
	}
	joins := plan.Joins(root)
	if len(joins) != len(b.Rels)-1 {
		t.Fatalf("joins = %d for %d relations", len(joins), len(b.Rels))
	}
	residuals := 0
	for _, j := range joins {
		if j.EstCard < 1 {
			t.Fatalf("join card %v < 1", j.EstCard)
		}
		if j.CostVal < 0 {
			t.Fatalf("negative cost %v", j.CostVal)
		}
		residuals += len(j.Residual)
		// A chained join must be a broadcast child of a broadcast
		// parent.
		if j.Chained && j.Method != plan.BroadcastJoin {
			t.Fatalf("chained non-broadcast join")
		}
		// Broadcast builds respect the (derated) memory bound on their
		// estimated size.
		if j.Method == plan.BroadcastJoin && cfg.Mmax > 0 {
			if j.Right.Bytes() > cfg.Mmax*1.0001 {
				t.Fatalf("build %v exceeds Mmax %v", j.Right.Bytes(), cfg.Mmax)
			}
		}
	}
	if residuals != len(b.NonLocal) {
		t.Fatalf("residuals attached %d times, want %d", residuals, len(b.NonLocal))
	}
}

func TestPropertyOptimizerPlansAreValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBlock(r)
		cfg := DefaultConfig(float64(1+r.Intn(4)) * 1e9 / broadcastSafety)
		res, err := Optimize(b, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		validatePlan(t, b, res.Root, cfg)
		// Determinism.
		res2, err := Optimize(b, cfg)
		if err != nil {
			return false
		}
		return plan.Format(res.Root) == plan.Format(res2.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEstimatorAgreesWithSearch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBlock(r)
		cfg := DefaultConfig(2 << 30)
		res, err := Optimize(b, cfg)
		if err != nil {
			return false
		}
		cards := map[string]float64{}
		for _, j := range plan.Joins(res.Root) {
			cards[j.String()] = j.EstCard
		}
		est := NewEstimator(b, cfg)
		if err := est.Annotate(res.Root); err != nil {
			return false
		}
		for _, j := range plan.Joins(res.Root) {
			want := cards[j.String()]
			if diff := j.EstCard - want; diff > 1e-6*want+1e-6 || diff < -1e-6*want-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
