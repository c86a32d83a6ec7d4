#!/usr/bin/env bash
# Byte-compare every deterministic output of the working tree against a
# reference commit — the regression oracle for refactors that must move
# no seeded trajectory (fingerprints + campaign byte-diffs).
#
#   scripts/bytediff.sh [ref]     ref defaults to HEAD~1
#
# Builds `ref` from a `git archive` export under target/bytediff/ (own
# target dir, kept between runs so the second build is incremental), builds
# the working tree, then runs on both binaries, from the working tree so
# both read the same scenario files:
#
#   * examples/fingerprint at default and --threads 1/2/3/8;
#   * every scenarios/*.toml through
#     `campaign --no-store --threads 2 --obs-out` (JSON, CSV, obs_det.json).
#     Subdirectories of scenarios/ are deliberately not run: paper_full/
#     holds CPU-hour grids, and ext/ uses grammar values a parent binary
#     may reject;
#   * `campaign report` (paper tables and curves).
#
# Outputs are compared with `diff -r`, excluding only the wall-clock files
# (obs_wall.json, and obs.prom which embeds them). Exits non-zero on the
# first differing group and prints the differing files.
set -euo pipefail

cd "$(dirname "$0")/.."
REF="${1:-HEAD~1}"
WORK="target/bytediff"
SHA="$(git rev-parse --short "$REF^{commit}")"

echo "== exporting $REF ($SHA) to $WORK/src"
rm -rf "$WORK/src" "$WORK/out"
mkdir -p "$WORK/src" "$WORK/out"
git archive "$REF" | tar -x -C "$WORK/src"

build() { # build <source dir> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release -q \
        -p gossipopt --example fingerprint -p gossipopt_bench --bin campaign)
}
echo "== building $SHA"
build "$WORK/src" "$PWD/$WORK/ref-target"
echo "== building the working tree"
build . "$PWD/target"

compare() { # compare <group>: diff the group's two output trees
    if ! diff -r -x obs_wall.json -x obs.prom "$WORK/out/ref/$1" "$WORK/out/new/$1"; then
        echo "bytediff: $1 differs from $REF ($SHA)" >&2
        exit 1
    fi
}

both() { # both <group> <binary under release/> <args...>; @OUT@ = output dir
    local group="$1" bin="$2" side root out status
    shift 2
    for side in ref new; do
        root="target"
        [[ "$side" == ref ]] && root="$WORK/ref-target"
        out="$WORK/out/$side/$group"
        mkdir -p "$out"
        status=0
        "$root/release/$bin" "${@//@OUT@/$out}" >"$out/stdout.txt" 2>/dev/null || status=$?
        echo "$status" >"$out/exit_status.txt"
    done
    compare "$group"
}

echo "== fingerprints"
both fp_default examples/fingerprint
for t in 1 2 3 8; do
    both "fp_threads_$t" examples/fingerprint --threads "$t"
done

for spec in scenarios/*.toml; do
    name="$(basename "$spec" .toml)"
    echo "== campaign $name"
    both "campaign_$name" campaign "$spec" --out @OUT@ --no-store --threads 2 \
        --obs-out @OUT@/obs --quiet
done

echo "== campaign report"
both report campaign report --out @OUT@ --no-store --threads 2 --quiet

echo "bytediff: identical to $REF ($SHA)"
