package server

import (
	"math"
	"testing"
)

func sampleOf(values ...float64) *latencySample {
	l := &latencySample{cap: len(values)}
	for _, v := range values {
		l.add(v)
	}
	return l
}

func TestPercentileInterpolatesRank(t *testing.T) {
	// Ten samples 1..10. The old truncated rank int(p*(n-1)) reported
	// index 8 (= the exact p90) for p95; interpolation pins the
	// standard linear-interpolation values instead.
	ten := sampleOf(10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
	cases := []struct {
		p    float64
		want float64
	}{
		{0.50, 5.5},
		{0.95, 9.55},
		{0.99, 9.91},
		{0, 1},
		{1, 10},
	}
	for _, c := range cases {
		if got := ten.percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%.0f over 1..10 = %v, want %v", c.p*100, got, c.want)
		}
	}

	// 100 samples 1..100: interpolated p95 sits between ranks 95 and
	// 96, strictly above the old truncated answer (95).
	hundred := &latencySample{cap: 100}
	for i := 1; i <= 100; i++ {
		hundred.add(float64(i))
	}
	if got := hundred.percentile(0.95); math.Abs(got-95.05) > 1e-9 {
		t.Errorf("p95 over 1..100 = %v, want 95.05", got)
	}
	if got := hundred.percentile(0.50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("p50 over 1..100 = %v, want 50.5", got)
	}
}

func TestPercentileEdgeWindows(t *testing.T) {
	if got := (&latencySample{cap: 4}).percentile(0.95); got != 0 {
		t.Errorf("empty window p95 = %v, want 0", got)
	}
	one := sampleOf(42)
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		if got := one.percentile(p); got != 42 {
			t.Errorf("single-sample p%v = %v, want 42", p, got)
		}
	}
	two := sampleOf(10, 20)
	if got := two.percentile(0.95); math.Abs(got-19.5) > 1e-9 {
		t.Errorf("two-sample p95 = %v, want 19.5", got)
	}
}
