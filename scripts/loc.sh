#!/usr/bin/env bash
# Line counts of a change, per file: non-test and test lines before (at
# `ref`) and after (the working tree), for every changed `.rs` file and
# `Cargo.toml`, with a totals row. Prints a Markdown table.
#
#   scripts/loc.sh [ref] [path...]    ref defaults to HEAD; paths narrow
#                                     the files (e.g. crates/sim)
#
# The rule: a file under a `tests/` directory is all test lines; any other
# file is non-test except a trailing `#[cfg(test)]` module (from that
# attribute, at column 0 and followed by a `mod` line, to the end of the
# file). Every line counts, blank and comment lines included. The old side
# is read with `git show ref:path`; nothing is checked out.
set -euo pipefail

cd "$(dirname "$0")/.."
REF="${1:-HEAD}"
shift || true
if ! git rev-parse --verify -q "$REF^{commit}" >/dev/null; then
    echo "loc.sh: unknown ref $REF" >&2
    exit 2
fi

split() { # split <all_test>: "non-test test" line counts of stdin
    awk -v all_test="$1" '
        { line[NR] = $0 }
        END {
            cut = NR + 1
            for (i = NR - 1; i >= 1; i--) {
                if (line[i] == "#[cfg(test)]" && line[i + 1] ~ /^mod /) {
                    cut = i
                    break
                }
            }
            if (all_test) print 0, NR
            else print cut - 1, NR - cut + 1
        }'
}

files="$({
    git diff --name-only "$REF" -- "$@"
    git ls-files --others --exclude-standard -- "$@"
} | grep -E '(\.rs|(^|/)Cargo\.toml)$' | sort -u || true)"

echo "| file | non-test before | after | Δ | test before | after |"
echo "|---|---:|---:|---:|---:|---:|"
total=(0 0 0 0)
for f in $files; do
    all_test=0
    [[ "/$f" == */tests/* ]] && all_test=1
    before=(0 0)
    if git cat-file -e "$REF:$f" 2>/dev/null; then
        read -r -a before < <(git show "$REF:$f" | split "$all_test")
    fi
    after=(0 0)
    if [[ -f "$f" ]]; then
        read -r -a after < <(split "$all_test" <"$f")
    fi
    printf '| `%s` | %d | %d | %+d | %d | %d |\n' "$f" "${before[0]}" "${after[0]}" \
        $((after[0] - before[0])) "${before[1]}" "${after[1]}"
    total=($((total[0] + before[0])) $((total[1] + after[0])) \
        $((total[2] + before[1])) $((total[3] + after[1])))
done
printf '| **total** | %d | %d | %+d | %d | %d |\n' "${total[0]}" "${total[1]}" \
    $((total[1] - total[0])) "${total[2]}" "${total[3]}"
