#!/usr/bin/env bash
# What the allocator keeps: per workload, the benchmark's peak RSS as is
# and with glibc's mmap threshold pinned, and their difference.
#
#   scripts/rss_retention.sh [--runs N] [--seed S] [--seconds T] W [W ...]
#
# Runs `benchmarks/run.sh --workload W` 2N times per workload (default
# N = 1), alternating: as is, then with MALLOC_MMAP_THRESHOLD_=131072
# exported to it. glibc's malloc raises its mmap threshold to the size of
# any freed mmapped chunk up to 32 MiB (and its trim threshold to twice
# that), so after a large buffer is freed, later allocations below that
# size come from a heap that is not handed back to the OS. Setting the
# threshold pins it at its default and turns that adjustment off.
#
# Per column it prints min, median and max of `peak_rss_mb` over the N
# runs, and `retained`, the as-is median minus the pinned median: what the
# adjustment cost, memory no cell used but the allocator kept. Which
# buffer is freed first can depend on thread timing, so a workload whose
# peak depends on the threshold can be bimodal at one seed; it then shows
# as a wide as-is spread (max - min) beside a narrow pinned one. --seed
# and --seconds are passed to every run. The script only reads the last
# stdout line of each run (its JSON result).
set -euo pipefail

cd "$(dirname "$0")/.."
usage() {
    echo "usage: scripts/rss_retention.sh [--runs N] [--seed S] [--seconds T] W [W ...]" >&2
    exit 2
}
ARGS=() WORKLOADS=() RUNS=1
while [[ $# -gt 0 ]]; do
    case "$1" in
        --runs) RUNS="${2:?}"; shift 2 ;;
        --seed | --seconds) ARGS+=("$1" "${2:?}"); shift 2 ;;
        --*) usage ;;
        *) WORKLOADS+=("$1"); shift ;;
    esac
done
[[ ${#WORKLOADS[@]} -gt 0 && "$RUNS" =~ ^[1-9][0-9]*$ ]] || usage

peak() { # peak <workload> [env assignment]: the run's peak_rss_mb
    env "${@:2}" bash benchmarks/run.sh --workload "$1" "${ARGS[@]}" 2>/dev/null | tail -n 1 |
        python3 -c 'import json, sys; print(json.load(sys.stdin)["metrics"]["peak_rss_mb"]["value"])'
}
printf '%-16s %4s  %-20s  %-20s %9s\n' workload runs 'as_is min/med/max' 'pinned min/med/max' retained
for w in "${WORKLOADS[@]}"; do
    as_is=() pinned=()
    for _ in $(seq "$RUNS"); do
        as_is+=("$(peak "$w")")
        pinned+=("$(peak "$w" MALLOC_MMAP_THRESHOLD_=131072)")
    done
    python3 - "$w" "$RUNS" "${as_is[*]}" "${pinned[*]}" <<'EOF'
import statistics, sys
w, runs = sys.argv[1], sys.argv[2]
a, p = ([float(v) for v in col.split()] for col in sys.argv[3:5])
span = lambda xs: f"{min(xs):6.1f} {statistics.median(xs):6.1f} {max(xs):6.1f}"
print(f"{w:<16} {runs:>4}  {span(a):<20}  {span(p):<20} {statistics.median(a) - statistics.median(p):9.1f}")
EOF
done
