#!/usr/bin/env bash
# A/B end-to-end benchmark workloads: a reference commit against the
# working tree, in alternating pairs.
#
#   scripts/ab.sh <ref> --workload W [--workload W2 ...] --pairs N --seed S [--seconds T] [--trace]
#
# `--workload all` runs every workload BENCHMARK.json lists. Exports `ref`
# with `git archive` under target/ab/<sha>/src (as bytediff.sh does; no
# worktree), builds each side's `e2e-bench` once with its own target dir
# (target/ab/<sha>/target, target/ab/new-target), then, workload by
# workload, runs N pairs of `e2e-bench --workload W --seed S`, alternating
# which side goes first. The reference target dir is keyed by commit
# because an export stamps every file with the commit's time: a target dir
# built later for another commit would look up to date and not be
# rebuilt. Each side writes into its own --out dir per workload, kept
# between its runs as benchmarks/run.sh keeps benchmarks/out. Every run's
# last stdout line (the JSON result) is kept as
# target/ab/<stamp>/<workload>/{ref,new}-<i>.json.
#
# The summary prints, per workload and per metric the runs report
# (all-zero ones skipped), each side's q1/median/q3, the reference's
# interquartile range (IQR), the ratio of medians (new / ref), the pairs
# the working tree won in the metric's better direction (BENCHMARK.json)
# and one verdict, the first rule that holds:
#   `clear`       it won >= 9 in 10 pairs and its median beats the
#                 reference median by more than the reference's IQR;
#   `worse`       an end-to-end metric's median is worse than the
#                 reference median by more than that metric's `bound`
#                 (a share of the reference median);
#   `unresolved`  an end-to-end metric whose IQR on either side exceeds
#                 its `bound` times the reference median: these pairs
#                 cannot tell a change of that size from noise;
#   `flat`        anything else.
# --trace runs the traced form, which reports the per-layer metrics
# instead of the end-to-end ones.
set -euo pipefail

cd "$(dirname "$0")/.."
usage() {
    echo "usage: scripts/ab.sh <ref> --workload W|all [--workload W ...] --pairs N --seed S [--seconds T] [--trace]" >&2
    exit 2
}
[[ $# -ge 1 && "$1" != --* ]] || usage
REF="$1"
shift
WORKLOADS=() PAIRS="" SEED="" SECONDS_ARG=() TRACE=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) WORKLOADS+=("${2:?}"); shift 2 ;;
        --pairs) PAIRS="${2:?}"; shift 2 ;;
        --seed) SEED="${2:?}"; shift 2 ;;
        --seconds) SECONDS_ARG=(--seconds "${2:?}"); shift 2 ;;
        --trace) TRACE=1; shift ;;
        *) usage ;;
    esac
done
[[ ${#WORKLOADS[@]} -gt 0 && "$PAIRS" =~ ^[1-9][0-9]*$ && "$SEED" =~ ^[0-9]+$ ]] || usage
if [[ " ${WORKLOADS[*]} " == *" all "* ]]; then
    mapfile -t WORKLOADS < <(python3 -c \
        'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

WORK="$PWD/target/ab"
SHA="$(git rev-parse --short "$REF^{commit}")"
STAMP="$(date -u +%Y%m%dT%H%M%SZ)-s$SEED"
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

run() { # run <workload> <side> <pair>
    local dir="$RUNS/$1"
    "$RUNS/bin/$2" --out "$dir/$2" --workload "$1" --seed "$SEED" "${SECONDS_ARG[@]}" \
        --trace "$TRACE" 2>"$dir/$2-$3.stderr" | tail -n 1 >"$dir/$2-$3.json" ||
        echo "ab: $1 $2 run $3 exited non-zero; see $dir/$2-$3.stderr" >&2
}
for workload in "${WORKLOADS[@]}"; do
    mkdir -p "$RUNS/$workload"
    for ((i = 0; i < PAIRS; i++)); do
        if ((i % 2 == 0)); then order=(ref new); else order=(new ref); fi
        for side in "${order[@]}"; do
            echo "== $workload pair $((i + 1))/$PAIRS: $side" >&2
            run "$workload" "$side" "$i"
        done
    done
done

for workload in "${WORKLOADS[@]}"; do
    echo "ab: $workload seed $SEED, $PAIRS pairs, ref $REF ($SHA) vs working tree; runs in $RUNS/$workload"
    python3 - "$RUNS/$workload" "$PAIRS" BENCHMARK.json <<'EOF'
import json, statistics, sys

runs, pairs, manifest = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
better = {m["name"]: m["better"] for m in manifest["end_to_end"] + manifest["per_layer"]}
bound = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
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

print(f"{'metric':<40} {'ref q1 / median / q3':>32} {'ref IQR':>9} {'new q1 / median / q3':>32} {'new/ref':>8} {'won':>7}  verdict")
for name, direction in better.items():
    a = [d["metrics"].get(name, {}).get("value", 0.0) for d in ref]
    b = [d["metrics"].get(name, {}).get("value", 0.0) for d in new]
    if not any(a) and not any(b):
        continue
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    beats = (lambda x, y: x < y) if direction == "lower" else (lambda x, y: x > y)
    won = sum(beats(y, x) for x, y in zip(a, b))
    ratio = f"{bm / am:.3f}" if am else "-"
    if 10 * won >= 9 * pairs and beats(bm, am) and abs(bm - am) > a3 - a1:
        verdict = "clear"
    elif name in bound and beats(am, bm) and abs(bm - am) > bound[name] * abs(am):
        verdict = "worse"
    elif name in bound and max(a3 - a1, b3 - b1) > bound[name] * abs(am):
        verdict = "unresolved"
    else:
        verdict = "flat"
    fmt = lambda q: f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"
    print(f"{name:<40} {fmt((a1, am, a3)):>32} {a3 - a1:>9.4g} {fmt((b1, bm, b3)):>32} {ratio:>8} {won:>3}/{pairs:<3}  {verdict}")
EOF
done
