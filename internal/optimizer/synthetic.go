package optimizer

import (
	"fmt"
	"math"
	"math/rand"

	"dyno/internal/expr"
	"dyno/internal/plan"
	"dyno/internal/stats"
)

// SyntheticSlotMemory is the simulated slot memory sizing Mmax for
// cost models over SyntheticJoinBlock graphs: large enough that
// dimension tables broadcast, small enough that fact-sized builds
// cannot.
const SyntheticSlotMemory = 1 << 30

// SyntheticJoinBlock generates a seeded synthetic join graph for
// optimizer tests and benchmarks: chain (r0–r1–…–rN linear), star
// (fact joined to N−1 dimensions), or clique (every pair joined).
// Cardinalities are log-uniform over several orders of magnitude and
// every column gets a seeded NDV, so plans are non-trivial and cost
// bounds have spread to prune against. n is capped only by the
// optimizer's own maxRelations. The graph for a given (kind, n, seed)
// is fixed: the allocation ceilings in BENCH_allocs_baseline.txt and
// the groups-expanded table in EXPERIMENTS.md describe these graphs,
// so the order of draws from the seeded source must not change.
func SyntheticJoinBlock(kind string, n int, seed int64) (*plan.JoinBlock, error) {
	if n < 2 {
		return nil, fmt.Errorf("optimizer: synthetic join block needs at least 2 relations, got %d", n)
	}
	r := rand.New(rand.NewSource(seed))
	logUniform := func(lo, hi float64) float64 {
		return math.Round(math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo))))
	}
	mk := func(alias string, card, avg float64) *plan.Rel {
		return &plan.Rel{
			Name:    alias,
			Aliases: []string{alias},
			Leaf:    &plan.Leaf{Table: alias, Alias: alias},
			Stats:   stats.TableStats{Card: card, AvgRecSize: avg, Cols: map[string]stats.ColStats{}},
		}
	}
	col := func(rel *plan.Rel, name string, ndv float64) string {
		path := rel.Name + "." + name
		rel.Stats.Cols[path] = stats.ColStats{NDV: math.Min(ndv, rel.Stats.Card)}
		return path
	}
	b := &plan.JoinBlock{}
	join := func(lc, rc string) {
		b.JoinPreds = append(b.JoinPreds,
			&expr.Cmp{Op: expr.EQ, L: expr.NewCol(lc), R: expr.NewCol(rc)})
	}
	switch kind {
	case "chain":
		for i := 0; i < n; i++ {
			b.Rels = append(b.Rels, mk(fmt.Sprintf("r%d", i), logUniform(1e3, 2e7), 20+r.Float64()*180))
		}
		for i := 0; i+1 < n; i++ {
			domain := logUniform(10, 1e6)
			join(col(b.Rels[i], "b", domain), col(b.Rels[i+1], "a", domain))
		}
	case "star":
		fact := mk("f", logUniform(1e6, 3e7), 40+r.Float64()*120)
		b.Rels = append(b.Rels, fact)
		for i := 1; i < n; i++ {
			dim := mk(fmt.Sprintf("d%d", i), logUniform(50, 1e6), 20+r.Float64()*100)
			b.Rels = append(b.Rels, dim)
			domain := math.Min(dim.Stats.Card, logUniform(10, 1e5))
			join(col(fact, fmt.Sprintf("k%d", i), domain), col(dim, "k", domain))
		}
	case "clique":
		for i := 0; i < n; i++ {
			b.Rels = append(b.Rels, mk(fmt.Sprintf("r%d", i), logUniform(1e3, 5e6), 20+r.Float64()*120))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				domain := logUniform(10, 1e5)
				join(col(b.Rels[i], fmt.Sprintf("c%d", j), domain),
					col(b.Rels[j], fmt.Sprintf("c%d", i), domain))
			}
		}
	default:
		return nil, fmt.Errorf("optimizer: unknown synthetic graph kind %q (chain, star, clique)", kind)
	}
	return b, nil
}
