#!/usr/bin/env bash
# Ratchet on `unsafe`: count the lines that mention `unsafe` in every
# Rust source file under crates/*/src and vendor/*/src, print the count
# per file and the total, and exit 1 if the total exceeds MAX_UNSAFE_LINES.
#
# Lower MAX_UNSAFE_LINES whenever a change removes `unsafe`; raising it
# needs a stated reason in the change.
#
# Usage: scripts/unsafe_census.sh [root-dir]
set -euo pipefail

MAX_UNSAFE_LINES=20

root="${1:-.}"
total=0
while IFS= read -r -d '' file; do
    count=$(grep -c 'unsafe' "$file" || true)
    if [ "$count" -gt 0 ]; then
        printf '%4d %s\n' "$count" "${file#"$root"/}"
        total=$((total + count))
    fi
done < <(find "$root"/crates/*/src "$root"/vendor/*/src -name '*.rs' -type f -print0 | sort -z)

echo "total: $total line(s) mention unsafe (cap $MAX_UNSAFE_LINES)"
if [ "$total" -gt "$MAX_UNSAFE_LINES" ]; then
    echo "unsafe census grew past $MAX_UNSAFE_LINES; remove it or raise the cap with a reason" >&2
    exit 1
fi
