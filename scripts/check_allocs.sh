#!/usr/bin/env bash
# Benchmark allocation guard: runs the hot-path benchmarks with
# -benchmem and fails if any allocs/op exceeds its committed ceiling in
# BENCH_allocs_baseline.txt, or B/op its optional second ceiling (a
# third column). ns/op is too noisy for shared CI runners; allocs/op is
# deterministic enough to gate on, and it is exactly what the compiled
# fast path exists to keep low.
#
# Usage: scripts/check_allocs.sh [output-file]
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=BENCH_allocs_baseline.txt
out="${1:-bench_allocs.txt}"

: >"$out"
# Micro benchmarks amortize one-time init over 100 iterations; the job
# benchmarks run full map-reduce executions, so one iteration is enough
# signal and keeps the smoke fast.
go test -run='^$' -bench='^(BenchmarkHash64|BenchmarkAccessorEval|BenchmarkNormKeyEncode)$' \
    -benchtime=100x -benchmem ./internal/data | tee -a "$out"
# The shuffle sort's one allocation is its permutation; at one op a
# stray runtime allocation read as a second.
go test -run='^$' -bench='^BenchmarkSortPairsByKey$' \
    -benchtime=100x -benchmem ./internal/mapreduce | tee -a "$out"
# One cold repartition job through the repartition kernel: allocates per
# split, per task's positions and per output block, not per pair.
go test -run='^$' -bench='^BenchmarkShuffle$' \
    -benchtime=1x -benchmem ./internal/physop | tee -a "$out"
# A job's finish (Q7's widest: 1,350 partials x 56 rows x 2 columns plus
# the output file) allocates per column and per output block. A job whose
# unfiltered build side an earlier job built finds the table on its file
# and allocates no scan and no index.
go test -run='^$' -bench='^(BenchmarkJobFinish|BenchmarkWarmBroadcastJob)$' \
    -benchtime=3x -benchmem ./internal/mapreduce | tee -a "$out"
# Statistics as one run of hashes: observing appends (10,000 rows is two
# folds per column), the merge allocates per column.
go test -run='^$' -bench='^BenchmarkCollectorObserve$' \
    -benchtime=10000x -benchmem ./internal/stats | tee -a "$out"
go test -run='^$' -bench='^BenchmarkMergePartials$' \
    -benchtime=10x -benchmem ./internal/stats | tee -a "$out"
# A scan task's statistics walk its split's warm hash orders into one run
# per column, and a job merges such runs in one k-way merge per column.
go test -run='^$' -bench='^(BenchmarkObserveScan|BenchmarkMergeRuns)$' \
    -benchtime=10x -benchmem ./internal/stats | tee -a "$out"
# Join row arena: a chain task allocates per chunk, not per merged row,
# and binds a step's pre-merge check once, not per match.
go test -run='^$' -bench='^(BenchmarkProbeChain|BenchmarkProbeChainPreMerge)$' \
    -benchtime=10x -benchmem ./internal/physop | tee -a "$out"
# A broadcast build over a warm split allocates per table, not per key
# or scanned row, with unique keys or 64 rows per key.
go test -run='^$' -bench='^(BenchmarkBuildHashTable|BenchmarkBuildHashTableGrouped)$' \
    -benchtime=10x -benchmem ./internal/physop | tee -a "$out"
# Wire codec: one 4,096-row lineitem-shaped block per op. Decode
# allocates per column (a slab per object column), not per row; encode
# gathers sub-columns on the pooled encoder's stack. A scan's answer over
# such a split is its positions, not its rows. A task frame of one job's
# tasks carries and decodes its op and build list once.
go test -run='^$' -bench='^(BenchmarkEncodeBlock|BenchmarkDecodeBlock|BenchmarkScanAnswer|BenchmarkTaskFrame)$' \
    -benchtime=20x -benchmem ./internal/runtime/wire | tee -a "$out"
# Block mirror: one 16-block file (5.7 MB of frames) written per op,
# each frame on the pooled encoder and written as it is encoded. A
# broadcast of a view is built from its base's warm mirror: no mirror
# written, no block decoded, no table built.
go test -run='^$' -bench='^(BenchmarkMirrorFile|BenchmarkViewBuildHit)$' \
    -benchtime=10x -benchmem ./internal/runtime/procruntime | tee -a "$out"
# A result-cache hit through the service's HTTP handler: one memo
# lookup, one table lookup, the stored row bytes copied into the body.
go test -run='^$' -bench='^BenchmarkResultCacheHit$' \
    -benchtime=200x -benchmem ./internal/server | tee -a "$out"
# Optimizer enumeration benchmarks: memo-table churn per full Optimize.
go test -run='^$' -bench='^(BenchmarkOptimizeChain12|BenchmarkOptimizeStar10)$' \
    -benchtime=10x -benchmem ./internal/optimizer | tee -a "$out"
# Columnar batch layer: per-split (not per-row) allocation invariant.
go test -run='^$' -bench='^(BenchmarkBatchFilterProject|BenchmarkBatchHashProbe)$' \
    -benchtime=100x -benchmem ./internal/batch | tee -a "$out"

# Extract "name allocs bytes" triples (the GOMAXPROCS suffix varies by
# runner).
measured=$(awk '/allocs\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 1; i <= NF; i++) {
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "B/op") bytes = $(i-1)
    }
    print name, allocs, bytes
}' "$out")

fail=0
while read -r name ceiling bceiling; do
    [[ "$name" =~ ^#.*$ || -z "$name" ]] && continue
    read -r got gotb < <(awk -v n="$name" '$1 == n { print $2, $3 }' <<<"$measured")
    if [[ -z "$got" ]]; then
        echo "check_allocs: $name: no measurement (benchmark renamed or removed?)" >&2
        fail=1
    elif (( got > ceiling )); then
        echo "check_allocs: $name: $got allocs/op exceeds ceiling $ceiling" >&2
        fail=1
    elif [[ -n "$bceiling" ]] && (( gotb > bceiling )); then
        echo "check_allocs: $name: $gotb B/op exceeds ceiling $bceiling" >&2
        fail=1
    else
        echo "check_allocs: $name: $got allocs/op (ceiling $ceiling)${bceiling:+, $gotb B/op (ceiling $bceiling)} ok"
    fi
done <"$baseline"

exit $fail
