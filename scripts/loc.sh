#!/bin/sh
# Lines of Rust above each file's first `#[cfg(test)]`: per file, then a total.
# Usage: scripts/loc.sh [FILE|DIR]...   (default: crates/*/src)
set -eu
[ $# -gt 0 ] || set -- crates/*/src
find "$@" -name '*.rs' | xargs awk '
    FNR == 1 { live = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
    live { n[FILENAME]++; total++ }
    END { for (f in n) printf "%6d %s\n", n[f], f | "sort -k2"; close("sort -k2"); printf "%6d total\n", total }'
