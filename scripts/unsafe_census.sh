#!/usr/bin/env bash
# Ratchet on `unsafe`: count the lines that mention `unsafe` in every
# Rust source file under src/, crates/*/src and vendor/*/src, print the
# count per file and the total, and exit 1 if the total exceeds
# MAX_UNSAFE_LINES. `#![forbid(unsafe_code)]` lines are not counted.
#
# Every crate root (crates/*/src/lib.rs, crates/bench/src/bin/*.rs,
# src/lib.rs, vendor/*/src/lib.rs) must carry `#![forbid(unsafe_code)]`,
# except util's, which holds the workspace's only `unsafe`: the prefetch
# and huge-page hints of `util::mem`. A root without it fails the check.
#
# Lower MAX_UNSAFE_LINES whenever a change removes `unsafe`; raising it
# needs a stated reason in the change.
#
# Usage: scripts/unsafe_census.sh [root-dir]
set -euo pipefail

MAX_UNSAFE_LINES=3

root="${1:-.}"
total=0
while IFS= read -r -d '' file; do
    count=$(grep 'unsafe' "$file" | grep -cv '^#!\[forbid(unsafe_code)\]$' || true)
    if [ "$count" -gt 0 ]; then
        printf '%4d %s\n' "$count" "${file#"$root"/}"
        total=$((total + count))
    fi
done < <(find "$root"/src "$root"/crates/*/src "$root"/vendor/*/src -name '*.rs' -type f -print0 | sort -z)

missing=0
for file in "$root"/crates/*/src/lib.rs "$root"/crates/bench/src/bin/*.rs "$root"/src/lib.rs \
    "$root"/vendor/*/src/lib.rs; do
    [ "$file" = "$root/crates/util/src/lib.rs" ] && continue
    if ! grep -qx '#!\[forbid(unsafe_code)\]' "$file"; then
        echo "crate root ${file#"$root"/} lacks #![forbid(unsafe_code)]" >&2
        missing=$((missing + 1))
    fi
done

echo "total: $total line(s) mention unsafe (cap $MAX_UNSAFE_LINES)"
if [ "$total" -gt "$MAX_UNSAFE_LINES" ]; then
    echo "unsafe census grew past $MAX_UNSAFE_LINES; remove it or raise the cap with a reason" >&2
    exit 1
fi
if [ "$missing" -gt 0 ]; then
    exit 1
fi
