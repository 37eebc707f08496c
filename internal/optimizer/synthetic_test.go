package optimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"dyno/internal/plan"
)

func TestSyntheticJoinBlockShapes(t *testing.T) {
	cases := []struct {
		kind  string
		n     int
		preds int
	}{
		{"chain", 5, 4},
		{"chain", 20, 19},
		{"star", 8, 7},
		{"clique", 6, 15},
	}
	for _, c := range cases {
		b, err := SyntheticJoinBlock(c.kind, c.n, 7)
		if err != nil {
			t.Fatalf("%s-%d: %v", c.kind, c.n, err)
		}
		if len(b.Rels) != c.n || len(b.JoinPreds) != c.preds {
			t.Errorf("%s-%d: got %d rels, %d preds, want %d, %d",
				c.kind, c.n, len(b.Rels), len(b.JoinPreds), c.n, c.preds)
		}
		for _, r := range b.Rels {
			if r.Stats.Card < 1 || r.Stats.AvgRecSize <= 0 || len(r.Stats.Cols) == 0 {
				t.Errorf("%s-%d: relation %s has degenerate stats %+v", c.kind, c.n, r.Name, r.Stats)
			}
		}
		// Seeded: the same seed must regenerate the same graph.
		b2, _ := SyntheticJoinBlock(c.kind, c.n, 7)
		for i := range b.Rels {
			if b.Rels[i].Stats.Card != b2.Rels[i].Stats.Card {
				t.Errorf("%s-%d: generation is not deterministic", c.kind, c.n)
				break
			}
		}
	}
	if _, err := SyntheticJoinBlock("ring", 5, 7); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := SyntheticJoinBlock("chain", 1, 7); err == nil {
		t.Error("n=1 should error")
	}
}

// reoptRound is what one simulated DYNOPT round chose: the exact cost
// and the structural fingerprint (join methods, chain marks, leaf
// coverage).
type reoptRound struct {
	cost  float64
	shape string
}

// reoptArm simulates DYNOPT's round structure purely inside the
// optimizer on one synthetic graph: each round executes the cheapest
// leaf join of the chosen plan, materializes it with perturbed
// statistics, substitutes it into the block as core.Engine does, and
// re-optimizes. The scratch arm searches every round exhaustively from
// an empty memo; the other runs one Incremental session. It returns
// every round's choice, the groups expanded over the whole run, and the
// groups expanded in re-optimization rounds (2..n-1) alone.
func reoptArm(t *testing.T, kind string, n int, seed int64, scratch bool) (rounds []reoptRound, expanded, reoptExpanded int) {
	t.Helper()
	block, err := SyntheticJoinBlock(kind, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SyntheticSlotMemory)
	optimize := NewIncremental(cfg).Optimize
	if scratch {
		optimize = func(b *plan.JoinBlock) (*Result, error) { return exhaustive(b, cfg) }
	}
	// The perturbation stream is consumed in lockstep across arms as
	// long as their plans agree, which the caller asserts they must.
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	for len(block.Rels) > 1 {
		res, err := optimize(block)
		if err != nil {
			t.Fatalf("%s-%d round %d: %v", kind, n, len(rounds)+1, err)
		}
		expanded += res.GroupsExpanded
		if len(rounds) >= 1 {
			reoptExpanded += res.GroupsExpanded
		}
		root := res.Root.(*plan.Join)
		rounds = append(rounds, reoptRound{cost: root.CostVal, shape: plan.Fingerprint(root)})
		leaf := testPickLeafJoin(root)
		rel := testMaterialize(leaf, fmt.Sprintf("t%d", len(rounds)), rng, block)
		testSubstitute(block, leaf.Aliases(), rel)
	}
	return rounds, expanded, reoptExpanded
}

// TestReoptReductionOnSyntheticGraphs is the incremental optimizer's
// acceptance gate: on every graph the from-scratch exhaustive arm and
// the memo-reusing + branch-and-bound arm must choose plans with
// identical cost and fingerprint every round, both must expand exactly
// the groups tabulated below, and the 12+-relation graphs must show at
// least a 5x reduction in groups expanded during re-optimization rounds.
// The clique stays at 10 relations and so below the reduction bar: a
// dense graph has no reuse locality (every group contains each round's
// new intermediate), so it documents the technique's limit — identical
// plans, bounded extra work — rather than a win. EXPERIMENTS.md
// tabulates these graphs' counts.
func TestReoptReductionOnSyntheticGraphs(t *testing.T) {
	graphs := []struct {
		kind string
		n    int
		// Groups expanded across all rounds, as EXPERIMENTS.md
		// tabulates them: any change to the search shows up here.
		scratch, pruned int
	}{
		{"chain", 8, 84, 27},
		{"chain", 12, 286, 87},
		{"chain", 16, 680, 149},
		{"star", 10, 1013, 98},
		{"star", 12, 4083, 222},
		{"clique", 10, 1981, 2226},
	}
	const seed = 2014
	for _, g := range graphs {
		name := fmt.Sprintf("%s-%d", g.kind, g.n)
		scratch, scratchExp, scratchReopt := reoptArm(t, g.kind, g.n, seed, true)
		pruned, prunedExp, prunedReopt := reoptArm(t, g.kind, g.n, seed, false)
		t.Logf("%s: expanded scratch %d, pruned %d; re-optimization rounds scratch %d, pruned %d",
			name, scratchExp, prunedExp, scratchReopt, prunedReopt)

		if len(scratch) != g.n-1 {
			t.Errorf("%s: %d rounds, want %d (one join materialized per round)", name, len(scratch), g.n-1)
		}
		if len(pruned) != len(scratch) {
			t.Errorf("%s: pruned arm ran %d rounds, scratch %d", name, len(pruned), len(scratch))
			continue
		}
		for i := range scratch {
			if pruned[i].cost != scratch[i].cost {
				t.Errorf("%s round %d: pruned cost %v, scratch %v", name, i+1, pruned[i].cost, scratch[i].cost)
			}
			if pruned[i].shape != scratch[i].shape {
				t.Errorf("%s round %d: pruned plan %s, scratch %s", name, i+1, pruned[i].shape, scratch[i].shape)
			}
		}
		if scratchExp != g.scratch || prunedExp != g.pruned {
			t.Errorf("%s: expanded scratch %d, pruned %d; want %d, %d",
				name, scratchExp, prunedExp, g.scratch, g.pruned)
		}
		if g.n >= 12 && scratchReopt < 5*prunedReopt {
			t.Errorf("%s: re-optimization expanded %d groups pruned vs %d scratch, want >= 5x fewer",
				name, prunedReopt, scratchReopt)
		}
	}
}
