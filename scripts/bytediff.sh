#!/usr/bin/env bash
# Byte-compare every deterministic output of the working tree against a
# reference commit — the regression oracle for refactors that must move
# no seeded trajectory (fingerprints + campaign byte-diffs).
#
#   scripts/bytediff.sh [ref]     ref defaults to HEAD~1
#
# Builds `ref` from a `git archive` export under target/bytediff/<sha>/
# (own target dir, keyed by commit and kept between runs so the second
# build is incremental: an export stamps every file with the commit's time,
# so a target dir shared between commits would look up to date for an older
# one and compare the newer build), builds the working tree, then runs on
# both binaries, from the working tree so both read the same scenario
# files:
#
#   * examples/fingerprint at default and --threads 1/2/3/8;
#   * every scenarios/*.toml through
#     `campaign --no-store --threads 2 --obs-out` (JSON, CSV, obs_det.json).
#     Subdirectories of scenarios/ are deliberately not run: paper_full/
#     holds CPU-hour grids, and ext/ uses grammar values a parent binary
#     may reject;
#   * `campaign report` (paper tables and curves);
#   * a warm store across builds: the reference binary fills a store from
#     scenarios/paper_grid.toml (with --obs-out, so the obs sidecars are
#     written too), then each binary runs that campaign against its own
#     copy of the store. Both must load every cell and execute none
#     (`store: N loaded, 0 executed` on stderr), so the working tree must
#     read what the reference wrote: entries and sidecars alike.
#
# Outputs are compared with `diff -r`, excluding only the wall-clock files
# (obs_wall.json, and obs.prom which embeds them). Exits non-zero on the
# first differing group and prints the differing files.
set -euo pipefail

cd "$(dirname "$0")/.."
REF="${1:-HEAD~1}"
WORK="target/bytediff"
SHA="$(git rev-parse --short "$REF^{commit}")"
REF_DIR="$WORK/$SHA"

echo "== exporting $REF ($SHA) to $REF_DIR/src"
rm -rf "$REF_DIR/src" "$WORK/out"
mkdir -p "$REF_DIR/src" "$WORK/out"
git archive "$REF" | tar -x -C "$REF_DIR/src"

build() { # build <source dir> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release -q \
        -p gossipopt --example fingerprint -p gossipopt_bench --bin campaign)
}
echo "== building $SHA"
build "$REF_DIR/src" "$PWD/$REF_DIR/target"
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
        [[ "$side" == ref ]] && root="$REF_DIR/target"
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

echo "== warm store written by $SHA"
fill="$WORK/out/warm_fill"
"$REF_DIR/target/release/campaign" scenarios/paper_grid.toml --out "$fill" \
    --store "$fill/store" --threads 2 --obs-out "$fill/obs" --quiet 2>"$fill.err"
cells="$(sed -n 's/.*store: 0 loaded, \([0-9]*\) executed.*/\1/p' "$fill.err")"
if [[ -z "$cells" ]]; then
    echo "bytediff: the reference build did not fill a store:" >&2
    cat "$fill.err" >&2
    exit 1
fi
for side in ref new; do
    root="target"
    [[ "$side" == ref ]] && root="$REF_DIR/target"
    out="$WORK/out/$side/warm_store"
    mkdir -p "$out"
    cp -r "$fill/store" "$out/store"
    "$root/release/campaign" scenarios/paper_grid.toml --out "$out" --store "$out/store" \
        --threads 2 --obs-out "$out/obs" --quiet >"$out/stdout.txt" 2>"$WORK/out/warm_$side.err"
    if ! grep -q "store: $cells loaded, 0 executed" "$WORK/out/warm_$side.err"; then
        echo "bytediff: $side did not load all $cells stored cells:" >&2
        cat "$WORK/out/warm_$side.err" >&2
        exit 1
    fi
done
compare warm_store

echo "bytediff: identical to $REF ($SHA)"
