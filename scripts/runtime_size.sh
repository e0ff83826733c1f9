#!/usr/bin/env sh
# Prints the size figures the ROADMAP tracks for the protocol runtime:
#
#   * non-test lines of crates/core/src/runtime — for each .rs file, the
#     lines before its first top-level (column 0) `#[cfg(test)]`, i.e. the
#     test module; the whole file when it has none. Blank and comment lines
#     count; an indented `#[cfg(test)]` item inside an impl does not end
#     the count;
#   * the number of `DsmMsg` variants (wire message kinds).
#
# Run from anywhere: `scripts/runtime_size.sh`. Informational only; it
# always exits 0 when the source tree is readable.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)

total=0
for f in "$root"/crates/core/src/runtime/*.rs; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    printf '%6d  %s\n' "$n" "${f#"$root"/}"
    total=$((total + n))
done
printf '%6d  runtime non-test lines\n' "$total"

# Variants are the lines inside `pub enum DsmMsg { ... }` that open at the
# enum's own indentation with a capitalised name.
kinds=$(awk '
    /^pub enum DsmMsg \{/ { inside = 1; next }
    inside && /^\}/ { exit }
    inside && /^    [A-Z][A-Za-z0-9]*( \{|,|\()/ { n++ }
    END { print n + 0 }
' "$root/crates/core/src/msg.rs")
printf '%6d  DsmMsg kinds\n' "$kinds"
