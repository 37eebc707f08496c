package optimizer

import (
	"fmt"
	"testing"

	"dyno/internal/expr"
	"dyno/internal/plan"
)

// chainBlock builds an n-relation chain a0—a1—…—a(n-1).
func chainBlock(n int) *plan.JoinBlock {
	b := &plan.JoinBlock{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("a%d", i)
		b.Rels = append(b.Rels, mkRel(name, float64(1000*(i+1)), 100, map[string]float64{
			name + ".k": 1000, name + ".j": 1000,
		}))
	}
	for i := 1; i < n; i++ {
		b.JoinPreds = append(b.JoinPreds,
			eq(fmt.Sprintf("a%d.j", i-1), fmt.Sprintf("a%d.k", i)))
	}
	return b
}

func BenchmarkOptimize8WayBushy(b *testing.B) {
	block := chainBlock(8)
	cfg := DefaultConfig(2 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(block, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimize12Way(b *testing.B) {
	block := chainBlock(12)
	cfg := DefaultConfig(2 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(block, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOptimize runs one exhaustive enumeration of a synthetic join
// graph per iteration; allocs/op gates memo-table allocation churn.
func benchOptimize(b *testing.B, kind string, n int) {
	block, err := SyntheticJoinBlock(kind, n, 2014)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(SyntheticSlotMemory)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(block, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeChain12 enumerates a 12-relation chain — sparse, so
// its splits are few and bounds prune little.
func BenchmarkOptimizeChain12(b *testing.B) { benchOptimize(b, "chain", 12) }

// BenchmarkOptimizeStar10 enumerates a 10-relation star — dense in
// connected splits, so it stresses branch-and-bound pruning hardest.
func BenchmarkOptimizeStar10(b *testing.B) { benchOptimize(b, "star", 10) }

func BenchmarkExpr(b *testing.B) {
	e := eq("a0.k", "a1.k")
	_ = e
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = expr.Signature(e)
	}
}
