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

// TestPropertyIncrementalMatchesExhaustive is the search's determinism
// contract: across randomized join graphs and randomized DYNOPT-style
// re-optimization rounds, the incremental session (memo reuse plus
// branch-and-bound) must choose exactly the plan (cost AND rendered
// structure, i.e. the same tie-breaks) a fresh exhaustive enumeration
// chooses every round.
func TestPropertyIncrementalMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		block := randomBlock(r)
		cfg := DefaultConfig(float64(1+r.Intn(4)) * 1e9 / broadcastSafety)
		inc := NewIncremental(cfg)
		rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
		for round := 0; len(block.Rels) > 1; round++ {
			fast, err := inc.Optimize(block)
			if err != nil {
				t.Logf("seed %d round %d: incremental: %v", seed, round, err)
				return false
			}
			slow, err := exhaustive(block, cfg)
			if err != nil {
				t.Logf("seed %d round %d: exhaustive: %v", seed, round, err)
				return false
			}
			if fast.Root.Cost() != slow.Root.Cost() {
				t.Logf("seed %d round %d: cost %v != exhaustive %v",
					seed, round, fast.Root.Cost(), slow.Root.Cost())
				return false
			}
			if plan.Format(fast.Root) != plan.Format(slow.Root) {
				t.Logf("seed %d round %d: plans diverge:\n%s\nvs\n%s",
					seed, round, plan.Format(fast.Root), plan.Format(slow.Root))
				return false
			}
			// The fail-once policy expands a group at most twice (one
			// bounded failure, then proven unbounded), so pruned work is
			// bounded by 2x the exhaustive group count even when seeds
			// mispredict.
			if fast.GroupsExpanded > 2*slow.GroupsExpanded {
				t.Logf("seed %d round %d: incremental expanded %d > 2x exhaustive %d",
					seed, round, fast.GroupsExpanded, slow.GroupsExpanded)
				return false
			}
			leaf := testPickLeafJoin(fast.Root)
			if leaf == nil {
				break // single join left and it is the root; done
			}
			rel := testMaterialize(leaf, fmt.Sprintf("t%d", round), rng, block)
			testSubstitute(block, leaf.Aliases(), rel)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
