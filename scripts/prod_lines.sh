#!/usr/bin/env bash
# Count production lines in `crates/*/src`: every line of each `.rs` file
# before its first column-0 `#[cfg(test)]` (the whole file if it has
# none). Prints one line per crate and the total.
#
# Usage: scripts/prod_lines.sh [repo-root]   (default: this script's repo)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
total=0
for crate in "$root"/crates/*/; do
    name="$(basename "$crate")"
    count=0
    while IFS= read -r -d '' file; do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        count=$((count + n))
    done < <(find "$crate/src" -name '*.rs' -print0 | sort -z)
    printf '%-12s %6d\n' "$name" "$count"
    total=$((total + count))
done
printf '%-12s %6d\n' total "$total"
