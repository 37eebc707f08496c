package main

import (
	"math"

	"dyno/internal/server"
)

// percentile is the service's own percentile (linear interpolation
// between adjacent ranks) over a copy, so the input keeps its order.
// An empty sample has no percentile; NaN makes that visible instead
// of passing for a fast run.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	return server.Percentile(append([]float64(nil), values...), p)
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// geomean is the geometric mean of positive values (TPC-H power
// style: every operation type weighs the same whatever its latency).
func geomean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		if v <= 0 {
			return math.NaN()
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

// worsening is the share of the base value by which cand is worse:
// positive means a regression in the metric's own direction.
func worsening(base, cand float64, better string) float64 {
	if base == 0 {
		if cand == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cand - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// minOf is the smallest value; NaN for none, like percentile.
func minOf(values []float64) float64 { return percentile(values, 0) }

func maxOf(values []float64) float64 { return percentile(values, 1) }

func sum(values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}
