package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dyno/internal/plan"
	"dyno/internal/stats"
)

// testPickLeafJoin mirrors the engine's leaf-unit selection: the
// cheapest join with two scan inputs, ties by tree order.
func testPickLeafJoin(root plan.Node) *plan.Join {
	var best *plan.Join
	for _, j := range joinsOf(root) {
		if _, ok := j.Left.(*plan.Scan); !ok {
			continue
		}
		if _, ok := j.Right.(*plan.Scan); !ok {
			continue
		}
		if best == nil || j.CostVal < best.CostVal {
			best = j
		}
	}
	return best
}

// testMaterialize builds the intermediate relation an executed join
// leaves behind, with a deterministically perturbed cardinality (the
// statistics update is what forces re-optimization).
func testMaterialize(j *plan.Join, name string, rng *rand.Rand, block *plan.JoinBlock) *plan.Rel {
	factor := math.Exp(rng.NormFloat64() * 0.8)
	factor = math.Max(0.02, math.Min(factor, 50))
	card := math.Max(1, math.Round(j.EstCard*factor))
	covered := map[string]bool{}
	for _, a := range j.Aliases() {
		covered[a] = true
	}
	var avg float64
	cols := map[string]stats.ColStats{}
	for _, r := range block.Rels {
		in := false
		for _, a := range r.Aliases {
			if covered[a] {
				in = true
				break
			}
		}
		if !in {
			continue
		}
		avg += r.Stats.AvgRecSize
		for c, cs := range r.Stats.Cols {
			cols[c] = stats.ColStats{NDV: math.Min(cs.NDV, card)}
		}
	}
	return &plan.Rel{
		Name:    name,
		Aliases: append([]string(nil), j.Aliases()...),
		Stats:   stats.TableStats{Card: card, AvgRecSize: avg, Cols: cols},
	}
}

// testSubstitute replaces the covered relations by the materialized
// one, mirroring core.substituteRel: survivors keep order, new last.
func testSubstitute(block *plan.JoinBlock, aliases []string, rel *plan.Rel) {
	covered := map[string]bool{}
	for _, a := range aliases {
		covered[a] = true
	}
	var kept []*plan.Rel
	for _, r := range block.Rels {
		drop := false
		for _, a := range r.Aliases {
			if covered[a] {
				drop = true
				break
			}
		}
		if !drop {
			kept = append(kept, r)
		}
	}
	block.Rels = append(kept, rel)
}

// reoptRounds runs DYNOPT's round structure purely inside the
// optimizer: each round optimizes the block, executes the cheapest leaf
// join of the chosen plan, materializes it with perturbed statistics
// and substitutes it as core.Engine does. Every round's plan must match
// the exhaustive reference in cost and rendered structure (the same
// tie-breaks), and the fail-once policy must keep the round's
// expansions within 2x the exhaustive group count. It returns the
// groups both searches expanded over all rounds.
func reoptRounds(t *testing.T, name string, block *plan.JoinBlock, cfg Config, seed int64) (expanded, exhaustiveExpanded int, ok bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	for round := 1; len(block.Rels) > 1; round++ {
		fast, err := Optimize(block, cfg)
		if err != nil {
			t.Logf("%s round %d: %v", name, round, err)
			return 0, 0, false
		}
		slow, err := exhaustive(block, cfg)
		if err != nil {
			t.Logf("%s round %d: exhaustive: %v", name, round, err)
			return 0, 0, false
		}
		if fast.Root.Cost() != slow.Root.Cost() {
			t.Logf("%s round %d: cost %v != exhaustive %v", name, round, fast.Root.Cost(), slow.Root.Cost())
			return 0, 0, false
		}
		if plan.Format(fast.Root) != plan.Format(slow.Root) {
			t.Logf("%s round %d: plans diverge:\n%s\nvs\n%s",
				name, round, plan.Format(fast.Root), plan.Format(slow.Root))
			return 0, 0, false
		}
		// One bounded failure, then proven unbounded: no group is
		// expanded more than twice.
		if fast.GroupsExpanded > 2*slow.GroupsExpanded {
			t.Logf("%s round %d: expanded %d > 2x exhaustive %d", name, round, fast.GroupsExpanded, slow.GroupsExpanded)
			return 0, 0, false
		}
		expanded += fast.GroupsExpanded
		exhaustiveExpanded += slow.GroupsExpanded
		leaf := testPickLeafJoin(fast.Root)
		if leaf == nil {
			break // the root is the one join left
		}
		rel := testMaterialize(leaf, fmt.Sprintf("t%d", round), rng, block)
		testSubstitute(block, leaf.Aliases(), rel)
	}
	return expanded, exhaustiveExpanded, true
}

// TestPropertyReoptRoundsMatchExhaustive is the search's determinism
// contract under re-optimization: across randomized join graphs and
// DYNOPT-style rounds, Optimize chooses exactly the plan a fresh
// exhaustive enumeration chooses every round.
func TestPropertyReoptRoundsMatchExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		block := randomBlock(r)
		cfg := DefaultConfig(float64(1+r.Intn(4)) * 1e9 / broadcastSafety)
		_, _, ok := reoptRounds(t, fmt.Sprintf("seed %d", seed), block, cfg, seed)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
