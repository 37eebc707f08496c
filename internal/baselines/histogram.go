// Package baselines implements the paper's comparison systems (§6.1):
//
//   - RELOPT — a state-of-the-art static relational optimizer for a
//     shared-nothing DBMS: it uses detailed pre-collected base-table
//     statistics (including equi-depth histograms), estimates
//     conjunctions under the independence assumption, and assumes
//     selectivity 1 for UDFs it cannot see through. The resulting plan
//     is executed statically.
//   - BESTSTATICJAQL / BESTSTATICHIVE — the best hand-written left-deep
//     plan: all non-cartesian FROM orders are tried and the fastest is
//     kept, with join methods chosen by Jaql's static heuristic
//     (broadcast only when the base file fits in memory, §2.2.2).
package baselines

import (
	"sort"

	"dyno/internal/data"
)

// histogram is an equi-depth histogram over one column, the "more
// detailed statistics" RELOPT has access to.
type histogram struct {
	bounds []data.Value // bucket upper bounds, ascending
	depth  float64      // rows per bucket
	total  float64
}

// buildHistogram constructs an equi-depth histogram with at most
// `buckets` buckets from the observed values.
func buildHistogram(values []data.Value, buckets int) *histogram {
	buckets = max(buckets, 1)
	vals := make([]data.Value, 0, len(values))
	for _, v := range values {
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	sort.SliceStable(vals, func(a, b int) bool { return data.Compare(vals[a], vals[b]) < 0 })
	h := &histogram{total: float64(len(vals))}
	if len(vals) == 0 {
		return h
	}
	buckets = min(buckets, len(vals))
	h.depth = float64(len(vals)) / float64(buckets)
	for b := 1; b <= buckets; b++ {
		idx := min(max(int(float64(b)*h.depth)-1, 0), len(vals)-1)
		h.bounds = append(h.bounds, vals[idx])
	}
	return h
}

// fractionLE estimates the fraction of values ≤ v: the share of
// buckets whose upper bound is ≤ v (each bucket holds an equal share
// of rows).
func (h *histogram) fractionLE(v data.Value) float64 {
	if h.total == 0 || len(h.bounds) == 0 {
		return 0.5
	}
	i := sort.Search(len(h.bounds), func(i int) bool {
		return data.Compare(h.bounds[i], v) > 0
	})
	return float64(i) / float64(len(h.bounds))
}

// fractionLT estimates the fraction of values < v: the share of
// buckets whose upper bound is strictly below v.
func (h *histogram) fractionLT(v data.Value) float64 {
	if h.total == 0 || len(h.bounds) == 0 {
		return 0.5
	}
	i := sort.Search(len(h.bounds), func(i int) bool {
		return data.Compare(h.bounds[i], v) >= 0
	})
	return float64(i) / float64(len(h.bounds))
}

// fractionGE estimates the fraction of values ≥ v.
func (h *histogram) fractionGE(v data.Value) float64 { return clamp01(1 - h.fractionLT(v)) }

// fractionGT estimates the fraction of values > v.
func (h *histogram) fractionGT(v data.Value) float64 { return clamp01(1 - h.fractionLE(v)) }

func clamp01(x float64) float64 { return min(max(x, 0), 1) }
