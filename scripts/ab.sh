#!/usr/bin/env bash
# A/B one end-to-end benchmark workload: a reference commit against the
# working tree, in alternating pairs.
#
#   scripts/ab.sh <ref> --workload W --pairs N --seed S [--seconds T] [--trace]
#
# Exports `ref` with `git archive` under target/ab/<sha>/src (as
# bytediff.sh does; no worktree), builds each side's `e2e-bench` once with
# its own target dir (target/ab/<sha>/target, target/ab/new-target), then
# runs N pairs of `e2e-bench --workload W --seed S`, alternating which side
# goes first. The reference target dir is keyed by commit because an
# export stamps every file with the commit's time: a target dir built later
# for another commit would look up to date and not be rebuilt. Each side
# writes into its own --out dir, kept between its runs as benchmarks/run.sh
# keeps benchmarks/out. Every run's last stdout line (the JSON result) is
# kept as target/ab/<stamp>/{ref,new}-<i>.json.
#
# The summary prints, per metric the runs report (all-zero ones skipped),
# each side's q1/median/q3, the ratio of medians (new / ref), the pairs
# the working tree won in the metric's better direction (BENCHMARK.json)
# and `clear` when it won >= 9 in 10 pairs and its median beats the
# reference median by more than the reference's interquartile range.
# --trace runs the traced form, which reports the per-layer metrics
# instead of the end-to-end ones.
set -euo pipefail

cd "$(dirname "$0")/.."
usage() {
    echo "usage: scripts/ab.sh <ref> --workload W --pairs N --seed S [--seconds T] [--trace]" >&2
    exit 2
}
[[ $# -ge 1 && "$1" != --* ]] || usage
REF="$1"
shift
WORKLOAD="" PAIRS="" SEED="" SECONDS_ARG=() TRACE=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) WORKLOAD="${2:?}"; shift 2 ;;
        --pairs) PAIRS="${2:?}"; shift 2 ;;
        --seed) SEED="${2:?}"; shift 2 ;;
        --seconds) SECONDS_ARG=(--seconds "${2:?}"); shift 2 ;;
        --trace) TRACE=1; shift ;;
        *) usage ;;
    esac
done
[[ -n "$WORKLOAD" && "$PAIRS" =~ ^[1-9][0-9]*$ && "$SEED" =~ ^[0-9]+$ ]] || usage

WORK="$PWD/target/ab"
SHA="$(git rev-parse --short "$REF^{commit}")"
STAMP="$(date -u +%Y%m%dT%H%M%SZ)-$WORKLOAD-s$SEED"
RUNS="$WORK/$STAMP"
REF_DIR="$WORK/$SHA"

echo "== exporting $REF ($SHA) to $REF_DIR/src" >&2
rm -rf "$REF_DIR/src"
mkdir -p "$REF_DIR/src" "$RUNS/tmp"
git archive "$REF" | tar -x -C "$REF_DIR/src"

build() { # build <source root> <target dir>
    (cd "$1/benchmarks" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet >&2)
}
echo "== building $SHA" >&2
build "$REF_DIR/src" "$REF_DIR/target"
echo "== building the working tree" >&2
build . "$WORK/new-target"

# As benchmarks/run.sh: temporaries under the run dir, library env unset.
# Both sides run from copies at paths of equal length: the length of the
# binary's path alone has moved paper_tables' peak RSS by about a megabyte.
export TMPDIR="$RUNS/tmp"
unset GOSSIPOPT_SIMD GOSSIPOPT_LOG
mkdir -p "$RUNS/bin"
cp "$REF_DIR/target/release/e2e-bench" "$RUNS/bin/ref"
cp "$WORK/new-target/release/e2e-bench" "$RUNS/bin/new"

run() { # run <side> <pair>
    "$RUNS/bin/$1" --out "$RUNS/$1" --workload "$WORKLOAD" --seed "$SEED" "${SECONDS_ARG[@]}" \
        --trace "$TRACE" 2>"$RUNS/$1-$2.stderr" | tail -n 1 >"$RUNS/$1-$2.json" ||
        echo "ab: $1 run $2 exited non-zero; see $RUNS/$1-$2.stderr" >&2
}
for ((i = 0; i < PAIRS; i++)); do
    if ((i % 2 == 0)); then order=(ref new); else order=(new ref); fi
    for side in "${order[@]}"; do
        echo "== pair $((i + 1))/$PAIRS: $side" >&2
        run "$side" "$i"
    done
done

echo "ab: $WORKLOAD seed $SEED, $PAIRS pairs, ref $REF ($SHA) vs working tree; runs in $RUNS"
python3 - "$RUNS" "$PAIRS" BENCHMARK.json <<'EOF'
import json, statistics, sys

runs, pairs, manifest = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
better = {m["name"]: m["better"] for m in manifest["end_to_end"] + manifest["per_layer"]}
load = lambda side: [json.load(open(f"{runs}/{side}-{i}.json")) for i in range(pairs)]
ref, new = load("ref"), load("new")

for side, docs in (("ref", ref), ("new", new)):
    failed = sum(d["failed"] for d in docs)
    attempted = sum(d["attempted"] for d in docs)
    wrong = sum(not d["correct"] for d in docs)
    print(f"{side}: {failed} of {attempted} operations failed, {wrong} runs incorrect")

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{'metric':<40} {'ref q1 / median / q3':>32} {'new q1 / median / q3':>32} {'new/ref':>8} {'won':>7}")
for name, direction in better.items():
    a = [d["metrics"].get(name, {}).get("value", 0.0) for d in ref]
    b = [d["metrics"].get(name, {}).get("value", 0.0) for d in new]
    if not any(a) and not any(b):
        continue
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    beats = (lambda x, y: x < y) if direction == "lower" else (lambda x, y: x > y)
    won = sum(beats(y, x) for x, y in zip(a, b))
    ratio = f"{bm / am:.3f}" if am else "-"
    clear = "  clear" if 10 * won >= 9 * pairs and beats(bm, am) and abs(bm - am) > a3 - a1 else ""
    fmt = lambda q: f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"
    print(f"{name:<40} {fmt((a1, am, a3)):>32} {fmt((b1, bm, b3)):>32} {ratio:>8} {won:>3}/{pairs:<3}{clear}")
EOF
