#!/usr/bin/env bash
# End-to-end benchmark with per-layer attribution. See README.md.
#
#   benchmarks/run.sh [--seed S] [--workload W] [--seconds T] [--trace [0|1]]
#                     [--smoke] [--selfcheck] [--write-baseline FILE] [--clean]
#
# With --workload: builds (release, offline) and runs that workload in one
# process; the last line of standard output is the JSON result object.
# Without: runs all seven workloads, one process each, and prints the
# metric tables; --trace adds the traced run, --selfcheck runs everything
# twice and compares, --smoke runs ~1/20-size inputs with all checks on.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"

if [[ "${1:-}" == "--clean" ]]; then
    # Result stores are never removed while measuring (README, "Result
    # stores are left behind"); do it here, and not just before a run.
    rm -rf "$out"
    exit 0
fi

# Everything the benchmark writes stays under benchmarks/out or the cargo
# target directory, compiler temporaries included.
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp"
# The library reads these; a benchmark run uses its defaults.
unset GOSSIPOPT_SIMD GOSSIPOPT_LOG

target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/e2e-bench" --out "$out" "$@"
