#!/usr/bin/env bash
# Run the kernel + dpso + solvers + newscast criterion benches and refresh
# (or check against) the BENCH_kernel.json baseline. The dpso bench binary
# includes the sharded `dpso-par/{cycle,event}/{10000,100000}` family
# (thread count pinned inside the bench for reproducibility); its rows sit
# under the same regression gate as everything else.
#
# Usage:
#   scripts/bench.sh [rounds]     refresh the baseline (default 5 rounds)
#   scripts/bench.sh --check      run 1 reduced-sample round and compare
#                                 against the committed baseline; fail on
#                                 any benchmark slower than NOISE_FACTOR
#                                 (default 3x) — the gross-regression gate
#                                 CI's bench-regression job runs
#   scripts/bench.sh --ab [ref] [rounds]
#                                 drift-proof A/B refresh: build the bench
#                                 binaries of `ref` (default HEAD) in a
#                                 worktree under target/ab-base, then
#                                 interleave base and working-tree rounds
#                                 in one session, so the recorded speedups
#                                 never compare numbers from different
#                                 hosts, thermal states or toolchains
#   scripts/bench.sh --threads-sweep [N]
#                                 run the `dpso-par/*` family at every
#                                 worker-thread count 1..N (default nproc)
#                                 and merge the scaling curve into
#                                 BENCH_kernel.json as a `threads_sweep`
#                                 block (baseline `results` rows untouched)
#
# Refresh mode: each round runs both bench binaries once with JSON capture;
# the baseline records, per benchmark, the best (min) and median ns/iter
# across rounds — min is the robust estimator on noisy shared machines. If
# BENCH_kernel.json already exists, its "after" numbers are carried over as
# the new "before" so successive runs track regressions, and its
# `threads_sweep` block is kept (only --threads-sweep measures it);
# otherwise only current numbers are written.
#
# A/B mode instead records `ab_before_ns_per_iter` / `ab_after_ns_per_iter`
# per row, both measured this session; `--check` prefers the ab numbers as
# its baseline when present. Every refresh also records host metadata
# (core count + the bench's pinned worker-thread config) so a baseline can
# be traced to the machine that produced it.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(kernel dpso solvers newscast)

build_benches() { # build_benches [dir]
    local dir="${1:-.}"
    for b in "${BENCHES[@]}"; do
        (cd "$dir" && cargo bench -p gossipopt_bench --bench "$b" --no-run)
    done
}

run_benches() { # run_benches <raw-file> [dir]
    local raw="$1" dir="${2:-.}"
    for b in "${BENCHES[@]}"; do
        (cd "$dir" && CRITERION_JSON="$raw" cargo bench -q -p gossipopt_bench --bench "$b")
    done
}

MODE=refresh
AB_REF=""
case "${1:-}" in
--check)
    MODE=check
    ROUNDS=1
    export CRITERION_SAMPLES="${CRITERION_SAMPLES:-8}"
    export CRITERION_WARMUP_MS="${CRITERION_WARMUP_MS:-100}"
    ;;
--ab)
    MODE=ab
    AB_REF="${2:-HEAD}"
    ROUNDS="${3:-3}"
    export CRITERION_SAMPLES="${CRITERION_SAMPLES:-20}"
    export CRITERION_WARMUP_MS="${CRITERION_WARMUP_MS:-200}"
    ;;
--threads-sweep)
    MODE=sweep
    SWEEP_MAX="${2:-$(nproc)}"
    ROUNDS=1
    export CRITERION_SAMPLES="${CRITERION_SAMPLES:-10}"
    export CRITERION_WARMUP_MS="${CRITERION_WARMUP_MS:-200}"
    ;;
*)
    ROUNDS="${1:-5}"
    export CRITERION_SAMPLES="${CRITERION_SAMPLES:-20}"
    export CRITERION_WARMUP_MS="${CRITERION_WARMUP_MS:-200}"
    ;;
esac
NOISE_FACTOR="${NOISE_FACTOR:-3.0}"

# Host metadata recorded with every refreshed baseline. The dpso-par
# worker count is pinned in crates/bench/benches/dpso.rs; read it from the
# source so the metadata cannot drift from the binary.
HOST_CORES="$(nproc)"
PAR_THREADS="$(sed -n 's/^const PAR_THREADS: usize = \([0-9]\+\);$/\1/p' crates/bench/benches/dpso.rs)"
PAR_THREADS="${PAR_THREADS:-0}"

RAW="$(mktemp "${TMPDIR:-/tmp}/gossipopt-bench.XXXXXX.jsonl")"
RAW_BASE="$(mktemp "${TMPDIR:-/tmp}/gossipopt-bench-base.XXXXXX.jsonl")"
AB_WORKTREE="target/ab-base"
cleanup() {
    rm -f "$RAW" "$RAW_BASE" "$RAW".t*
    if [[ "$MODE" == ab ]]; then
        # Remove the baseline worktree even on failure/interrupt, and
        # prune so a dead target/ab-base never blocks the next --ab run.
        git worktree remove --force "$AB_WORKTREE" 2>/dev/null || true
        git worktree prune 2>/dev/null || true
    fi
}
# INT/TERM on top of EXIT: an interrupted --ab run must not leave the
# registered worktree behind.
trap cleanup EXIT INT TERM

if [[ "$MODE" == sweep ]]; then
    echo "== building dpso bench (release)"
    cargo bench -p gossipopt_bench --bench dpso --no-run
    for t in $(seq 1 "$SWEEP_MAX"); do
        echo "== threads-sweep: dpso-par @ $t worker thread(s)"
        CRITERION_JSON="$RAW.t$t" GOSSIPOPT_BENCH_THREADS="$t" \
            cargo bench -q -p gossipopt_bench --bench dpso -- dpso-par
    done
    python3 - "$RAW" "$SWEEP_MAX" <<'EOF'
import json, sys, collections, os

raw_prefix, sweep_max = sys.argv[1], int(sys.argv[2])
if not os.path.exists("BENCH_kernel.json"):
    sys.exit("BENCH_kernel.json missing: refresh the baseline first (scripts/bench.sh)")
doc = json.load(open("BENCH_kernel.json"))

rows = []
for t in range(1, sweep_max + 1):
    per = collections.defaultdict(list)
    for line in open(f"{raw_prefix}.t{t}"):
        r = json.loads(line)
        per[r["id"]].append(r["ns_per_iter"])
    rows.append({
        "threads": t,
        "ns_per_iter": {k: round(min(v), 1) for k, v in sorted(per.items())},
    })

# The scaling curve rides alongside the baseline: --check only gates the
# `results` rows, so sweep data never makes the regression gate flaky.
doc["threads_sweep"] = {
    "note": ("dpso-par family at each worker-thread count, 1..max_threads; "
             "regenerate with scripts/bench.sh --threads-sweep N"),
    "max_threads": sweep_max,
    "criterion_samples": int(os.environ.get("CRITERION_SAMPLES", 0)),
    "rows": rows,
}
json.dump(doc, open("BENCH_kernel.json", "w"), indent=2)
open("BENCH_kernel.json", "a").write("\n")
print(f"wrote BENCH_kernel.json threads_sweep (1..{sweep_max} threads)")
EOF
    exit 0
fi

echo "== building benches (release)"
build_benches

if [[ "$MODE" == ab ]]; then
    AB_BASE_SHA="$(git rev-parse --short "$AB_REF")"
    echo "== preparing baseline worktree @ $AB_REF ($AB_BASE_SHA)"
    git worktree remove --force "$AB_WORKTREE" 2>/dev/null || true
    git worktree add --force --detach "$AB_WORKTREE" "$AB_REF"
    echo "== building baseline benches (release)"
    build_benches "$AB_WORKTREE"
fi

for round in $(seq 1 "$ROUNDS"); do
    echo "== round $round/$ROUNDS"
    if [[ "$MODE" == ab ]]; then
        # Interleave base and after within each round: slow drift (thermal
        # state, background load) hits both sides of every comparison.
        run_benches "$RAW_BASE" "$AB_WORKTREE"
    fi
    run_benches "$RAW"
done

WIRE_NET=0
WIRE_GROSS=0
if [[ "$MODE" != check ]]; then
    # Event-kernel wire-coalescing win, recorded alongside the timing
    # rows: the campaign's coalesced payload_bytes versus the sequential
    # engine's unbatched ledger (threads = 0 never coalesces, and the
    # trajectories are bit-identical, so the ledgers are comparable).
    echo "== measuring wire_event payload cut"
    cargo build --release -p gossipopt_bench --bin campaign
    WE_OUT="$(mktemp -d /tmp/gossipopt-wire.XXXXXX)"
    # The payload gate is calibrated for the coalesced path; the
    # sequential variant exists only to measure the unbatched ledger,
    # so drop the byte assert there.
    sed -e 's/^threads = .*/threads = 0/' -e '/^max_payload_bytes/d' \
        scenarios/wire_event.toml > "$WE_OUT/seq.toml"
    ./target/release/campaign scenarios/wire_event.toml --out "$WE_OUT/net" --no-store --quiet
    ./target/release/campaign "$WE_OUT/seq.toml" --out "$WE_OUT/gross" --no-store --quiet
    read -r WIRE_NET WIRE_GROSS < <(python3 -c "
import json
net = sum(c['report']['payload_bytes'] for c in json.load(open('$WE_OUT/net/wire_event.json'))['cells'])
gross = sum(c['report']['payload_bytes'] for c in json.load(open('$WE_OUT/gross/wire_event.json'))['cells'])
print(net, gross)
")
    rm -rf "$WE_OUT"
fi

if [[ "$MODE" == check ]]; then
    python3 - "$RAW" "$NOISE_FACTOR" <<'EOF'
import json, sys, collections

raw = collections.defaultdict(list)
for line in open(sys.argv[1]):
    r = json.loads(line)
    raw[r["id"]].append(r["ns_per_iter"])
factor = float(sys.argv[2])

baseline = {}
for row in json.load(open("BENCH_kernel.json")).get("results", []):
    # Prefer same-session A/B numbers: an ab refresh measured base and
    # after binaries interleaved on one host, so its "after" is the least
    # drift-prone absolute number the row has.
    baseline[row["benchmark"]] = row.get("ab_after_ns_per_iter", row["after_ns_per_iter"])

failures, missing = [], []
for key, base in sorted(baseline.items()):
    if key not in raw:
        missing.append(key)
        continue
    cur = min(raw[key])
    ratio = cur / base
    status = "FAIL" if ratio > factor else "ok"
    print(f"{status:>4}  {key:<40} baseline {base:>12.1f} ns  current {cur:>12.1f} ns  ({ratio:.2f}x)")
    if ratio > factor:
        failures.append(key)
for key in sorted(set(raw) - set(baseline)):
    print(f" new  {key:<40} (no baseline; refresh with scripts/bench.sh)")

if missing:
    # A baseline row that no longer runs means the gate silently covers
    # nothing for that family — fail; refresh the baseline deliberately.
    print(f"FAILED: {len(missing)} baseline benchmark(s) did not run "
          f"(renamed/removed? refresh with scripts/bench.sh): {', '.join(missing)}")
if failures:
    print(f"FAILED: {len(failures)} benchmark(s) regressed beyond {factor}x: {', '.join(failures)}")
if missing or failures:
    sys.exit(1)
print(f"check passed: no benchmark beyond {factor}x of baseline")
EOF
    exit 0
fi

python3 - "$RAW" "$RAW_BASE" "$MODE" "$HOST_CORES" "$PAR_THREADS" "${AB_BASE_SHA:-}" "$WIRE_NET" "$WIRE_GROSS" <<'EOF'
import json, sys, collections, statistics, os

(raw_path, base_path, mode, cores, par_threads, ab_sha, wire_net,
 wire_gross) = sys.argv[1:9]

def load(path):
    rows = collections.defaultdict(list)
    if os.path.exists(path):
        for line in open(path):
            r = json.loads(line)
            rows[r["id"]].append(r["ns_per_iter"])
    return rows

raw = load(raw_path)
base = load(base_path) if mode == "ab" else {}

previous, sweep = {}, None
if os.path.exists("BENCH_kernel.json"):
    try:
        old = json.load(open("BENCH_kernel.json"))
        for row in old.get("results", []):
            previous[row["benchmark"]] = row.get("after_ns_per_iter")
        sweep = old.get("threads_sweep")
    except (json.JSONDecodeError, KeyError):
        pass

rows = []
for key in sorted(raw):
    cur = round(min(raw[key]), 1)
    row = {
        "benchmark": key,
        "after_ns_per_iter": cur,
        "after_median_ns": round(statistics.median(raw[key]), 1),
        "rounds": len(raw[key]),
    }
    if key in base:
        # Same-session A/B pair: both binaries ran interleaved on this
        # host, so the speedup is free of cross-session drift.
        ab_before = round(min(base[key]), 1)
        row["ab_before_ns_per_iter"] = ab_before
        row["ab_after_ns_per_iter"] = cur
        row["ab_speedup"] = round(ab_before / cur, 2) if cur else None
    if previous.get(key):
        row["before_ns_per_iter"] = previous[key]
        row["speedup"] = round(previous[key] / cur, 2)
    rows.append(row)

desc = ("Criterion (in-repo shim) baseline for the kernel + dpso + solvers + "
        "newscast hot paths; regenerate with scripts/bench.sh. 'before' carries "
        "the previous baseline's numbers so successive runs track regressions; "
        "'ab_*' rows come from scripts/bench.sh --ab, which interleaves the "
        "base ref's binaries with the working tree's in one session so the "
        "recorded speedups never compare across hosts or thermal states.")
doc = {
    "description": desc,
    "generated_by": "scripts/bench.sh",
    "host": {
        "cores": int(cores),
        "dpso_par_threads": int(par_threads),
        "criterion_samples": int(os.environ.get("CRITERION_SAMPLES", 0)),
    },
    "results": rows,
}
if mode == "ab" and ab_sha:
    doc["ab_base_ref"] = ab_sha
if sweep:
    doc["threads_sweep"] = sweep
if int(wire_net):
    # scenarios/wire_event.toml payload bytes, coalesced vs the
    # uncoalesced threads = 0 ledger (same trajectories).
    doc["wire_event"] = {
        "payload_bytes": int(wire_net),
        "unbatched_payload_bytes": int(wire_gross),
        "cut": round(int(wire_gross) / int(wire_net), 2),
    }
json.dump(doc, open("BENCH_kernel.json", "w"), indent=2)
open("BENCH_kernel.json", "a").write("\n")
kind = f"A/B vs {ab_sha}" if mode == "ab" else "refresh"
print(f"wrote BENCH_kernel.json ({len(rows)} benchmarks, {kind})")
EOF
