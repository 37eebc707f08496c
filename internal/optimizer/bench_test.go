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

func BenchmarkExpr(b *testing.B) {
	e := eq("a0.k", "a1.k")
	_ = e
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = expr.Signature(e)
	}
}
