// Package stats implements DYNO's statistics layer (§4.3, §5.4): table
// cardinality and average record size, per-attribute distinct-value
// estimates via KMV synopses, partial-statistics
// collection inside tasks, client-side merging, sample-to-table
// extrapolation, and a metastore keyed by expression signature so that
// recurring leaf expressions reuse statistics. The paper also keeps
// per-attribute min/max; they are not collected here, because no
// estimator reads them.
//
// A column is observed as one run of 64-bit value hashes with two
// readings. Tasks append row hashes, or a scan task walks its split's
// hash order into a run; the job's merge sorts the appended hashes once
// and merges every run in one k-way merge. Of the sorted distinct run,
// the k smallest are the KMV synopsis and the multiplicities are the
// frequency sketch the Chao1 extrapolation reads.
package stats

import "math"

// DefaultKMVSize is the synopsis size used by the paper (k=1024, giving
// an expected distinct-value estimation error bound of about 6%).
const DefaultKMVSize = 1024

// hashSpace is the paper's M: the size of the hash function's domain.
const hashSpace = float64(math.MaxUint64)

// clampK returns the synopsis size to use for a requested k: the
// default when unset, and never below 2, the smallest the estimator is
// defined for.
func clampK(k int) int {
	if k <= 0 {
		return DefaultKMVSize
	}
	return max(k, 2)
}

// estimate reads the k-minimum-values synopsis off a sorted run of
// distinct hashes — only the k smallest count — and returns the
// unbiased distinct-value estimate (k−1)·M / h_k from the paper [Beyer
// et al. 2007]. A run shorter than k is exact and returns its length.
// Synopses built over partitions merge losslessly (union, keep the k
// smallest), which is how per-task runs combine into a relation-wide
// one.
func estimate(run []hashCount, k int) float64 {
	if len(run) < k {
		return float64(len(run))
	}
	hk := float64(run[k-1].h)
	if hk == 0 {
		return float64(k)
	}
	return float64(k-1) * hashSpace / hk
}
