#!/bin/sh
# Hand mutants, kept: each tests/mutants/*.mutant file names one source
# edit and the tests that must fail under it. The script copies
# `git archive HEAD` to one fixed directory outside the repository
# ($TMPDIR/volcast-mutants, /tmp when TMPDIR is unset; its target directory
# is kept between runs), applies each mutant alone, touches the file and
# runs the named tests in release. It prints one verdict per mutant:
#
#   killed    a named test failed
#   survived  every named test passed
#   stale     the original text is not in the file exactly once
#
# and exits non-zero if any mutant survived or is stale.
#
# A mutant file holds, in this order:
#   target PATH            the file to edit, from the repository root
#   cases N                VOLCAST_PROP_CASES for its tests
#   test ARGS...           one line per `cargo test --release -q ARGS...`
#   <<<<                   then the exact original text,
#   ====                   then its replacement,
#   >>>>
# Lines starting with `#` before `<<<<` are comments.
#
# Usage: scripts/mutants.sh [tests/mutants/NAME.mutant ...]  (from the root)

set -eu

export CARGO_NET_OFFLINE=true
root=$(git rev-parse --show-toplevel)
work="${TMPDIR:-/tmp}/volcast-mutants"
[ $# -gt 0 ] || set -- "$root"/tests/mutants/*.mutant

rm -rf "$work/src"
mkdir -p "$work/src"
git -C "$root" archive HEAD | tar -x -C "$work/src"
export CARGO_TARGET_DIR="$work/target"

# field NAME FILE: the rest of the first `NAME ...` header line.
field() {
    awk -v key="$1" '$0 == "<<<<" { exit } $1 == key { sub(/^[^ ]+ /, ""); print; exit }' "$2"
}

# apply FILE TARGET: rewrites TARGET with the mutant's replacement; exits 3
# unless the original text occurs exactly once.
apply() {
    awk -v target="$2" '
        FILENAME != target {
            if ($0 == "<<<<") { part = 1; next }
            if ($0 == "====") { part = 2; next }
            if ($0 == ">>>>") { part = 0; next }
            if (part == 1) old = old (n1++ ? "\n" : "") $0
            if (part == 2) new = new (n2++ ? "\n" : "") $0
            next
        }
        { text = text (nt++ ? "\n" : "") $0 }
        END {
            at = index(text, old)
            if (old == "" || at == 0 || index(substr(text, at + 1), old) > 0) exit 3
            printf "%s%s%s\n", substr(text, 1, at - 1), new, substr(text, at + length(old)) > target
        }' "$1" "$2"
}

failed=0
for mutant in "$@"; do
    name=$(basename "$mutant" .mutant)
    target=$(field target "$mutant")
    cases=$(field cases "$mutant")
    file="$work/src/$target"
    if [ ! -f "$file" ] || ! apply "$mutant" "$file"; then
        printf '%-9s %s (%s)\n' stale "$name" "$target"
        failed=1
        continue
    fi
    touch "$file"
    verdict=survived
    killers=
    tests=$(awk '$0 == "<<<<" { exit } $1 == "test" { sub(/^test /, ""); print }' "$mutant")
    # One `cargo test` per line; word splitting of ARGS is intended.
    while IFS= read -r args; do
        # shellcheck disable=SC2086
        if ! (cd "$work/src" && VOLCAST_PROP_CASES="$cases" cargo test --release -q $args \
            > /dev/null 2>&1); then
            verdict=killed
            killers="$killers [$args]"
        fi
    done <<EOF
$tests
EOF
    git -C "$root" show "HEAD:$target" > "$file"
    touch "$file"
    printf '%-9s %s%s\n' "$verdict" "$name" "${killers:+ by$killers}"
    [ "$verdict" = killed ] || failed=1
done
exit "$failed"
