package optimizer

import (
	"fmt"
	"testing"
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

// TestReoptRoundsOnSyntheticGraphs runs the re-optimization rounds of
// reoptRounds over the synthetic graphs: one join materialized per
// round, every round's plan the exhaustive reference's, and the groups
// both searches expand over all rounds pinned, so a change to the
// search's step order shows up here before it shows up in a golden.
func TestReoptRoundsOnSyntheticGraphs(t *testing.T) {
	graphs := []struct {
		kind                 string
		n                    int
		expanded, exhaustive int
	}{
		{"chain", 8, 52, 84},
		{"chain", 12, 247, 286},
		{"chain", 16, 454, 680},
		{"star", 10, 110, 1013},
		{"star", 12, 243, 4083},
		{"clique", 10, 2591, 1981},
	}
	const seed = 2014
	for _, g := range graphs {
		name := fmt.Sprintf("%s-%d", g.kind, g.n)
		block, err := SyntheticJoinBlock(g.kind, g.n, seed)
		if err != nil {
			t.Fatal(err)
		}
		expanded, exhaustive, ok := reoptRounds(t, name, block, DefaultConfig(SyntheticSlotMemory), seed)
		if !ok {
			t.Errorf("%s: a round diverged from the exhaustive search", name)
			continue
		}
		if expanded != g.expanded || exhaustive != g.exhaustive {
			t.Errorf("%s: expanded %d, exhaustive %d; want %d, %d", name, expanded, exhaustive, g.expanded, g.exhaustive)
		}
	}
}
