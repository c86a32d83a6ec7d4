#!/usr/bin/env bash
# What the allocator keeps: per workload, the benchmark's peak RSS as is
# and with glibc's mmap threshold pinned, and their difference.
#
#   scripts/rss_retention.sh [--seed S] [--seconds T] W [W ...]
#
# Runs `benchmarks/run.sh --workload W` twice per workload: once as is,
# once with MALLOC_MMAP_THRESHOLD_=131072 exported to it. glibc's malloc
# raises its mmap threshold to the size of any freed mmapped chunk up to
# 32 MiB (and its trim threshold to twice that), so after a large buffer
# is freed, later allocations below that size come from a heap that is
# not handed back to the OS. Setting the threshold pins it at its default
# and turns that adjustment off. The difference of the two `peak_rss_mb`
# readings is what the adjustment cost: memory no cell used, kept by the
# allocator. --seed and --seconds are passed to both runs. The script
# only reads the last stdout line of each run (its JSON result).
set -euo pipefail

cd "$(dirname "$0")/.."
usage() {
    echo "usage: scripts/rss_retention.sh [--seed S] [--seconds T] W [W ...]" >&2
    exit 2
}
ARGS=() WORKLOADS=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed | --seconds) ARGS+=("$1" "${2:?}"); shift 2 ;;
        --*) usage ;;
        *) WORKLOADS+=("$1"); shift ;;
    esac
done
[[ ${#WORKLOADS[@]} -gt 0 ]] || usage

peak() { # peak <workload> [env assignment]: the run's peak_rss_mb
    env "${@:2}" bash benchmarks/run.sh --workload "$1" "${ARGS[@]}" 2>/dev/null | tail -n 1 |
        python3 -c 'import json, sys; print(json.load(sys.stdin)["metrics"]["peak_rss_mb"]["value"])'
}
printf '%-16s %12s %12s %12s\n' workload as_is_mb pinned_mb retained_mb
for w in "${WORKLOADS[@]}"; do
    as_is="$(peak "$w")"
    pinned="$(peak "$w" MALLOC_MMAP_THRESHOLD_=131072)"
    python3 -c 'import sys; w, a, p = sys.argv[1], float(sys.argv[2]), float(sys.argv[3]); print(f"{w:<16} {a:12.1f} {p:12.1f} {a - p:12.1f}")' \
        "$w" "$as_is" "$pinned"
done
