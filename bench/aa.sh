#!/usr/bin/env bash
# A/A check: run the full untraced benchmark twice on the same commit
# and seed, then compare every (workload, end-to-end metric) pair
# against its bound. Exits non-zero on any breach: a benchmark that
# cannot agree with itself cannot carry a claim.
#
#   bench/aa.sh            # seed 1
#   bench/aa.sh 2          # another seed: the benchmark is not tuned to one
#   bench/aa.sh 2 30       # seed 2, 30 s timed per workload
#
# Run from the repository root. Everything it writes goes under
# .bench_build/ (git-ignored).
set -euo pipefail

seed="${1:-1}"
seconds="${2:-20}"
dir=".bench_build/aa"
mkdir -p "$dir"

go build -o "$dir/bench" ./bench
for side in a b; do
	echo "== run $side (seed $seed, $seconds s per workload)" >&2
	"$dir/bench" -workload all -seed "$seed" -seconds "$seconds" -out "$dir/$side.json" >/dev/null
done
"$dir/bench" -compare "$dir/a.json,$dir/b.json"
