#!/bin/sh
# Live lines of Rust: per file, then a total. A file's live region ends at
# the first `#[cfg(test)]` whose next line opens a `mod ... {` (a cfg(test)
# on a fn or a field is live code); a file declared only as
# `#[cfg(test)] mod name;` counts zero, whether it sits beside its parent
# (`name.rs`, `name/mod.rs`) or under it (`parent/name.rs`).
# Usage: scripts/loc.sh [FILE|DIR]...   (default: crates/*/src)
set -eu
[ $# -gt 0 ] || set -- crates/*/src
find "$@" -name '*.rs' | xargs awk '
    function dir(f) { sub(/\/[^\/]*$/, "", f); return f }
    FNR == 1 { live = 1; held = 0 }
    held {
        held = 0
        if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) live = 0
        else if (live) n[FILENAME]++
        if (match($0, /mod [A-Za-z0-9_]+;/)) {
            name = substr($0, RSTART + 4, RLENGTH - 5)
            test_only[dir(FILENAME) "/" name ".rs"] = 1
            test_only[dir(FILENAME) "/" name "/mod.rs"] = 1
            stem = FILENAME; sub(/\.rs$/, "", stem)
            test_only[stem "/" name ".rs"] = 1
        }
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
    live { n[FILENAME]++ }
    END {
        for (f in n) if (!(f in test_only)) { printf "%6d %s\n", n[f], f | "sort -k2"; total += n[f] }
        close("sort -k2"); printf "%6d total\n", total
    }'
