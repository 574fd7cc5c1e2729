#!/bin/sh
# The one command of the volcast benchmark (see README.md next to it).
#
#   benchmark/run.sh [--seed S] [--workload NAME] [--seconds N] [--record FILE] [--smoke]
#       builds in release, then runs each workload in its own process:
#       an untraced pass (end-to-end metrics), then a traced pass
#       (per-layer metrics, benchmark/out/trace-<workload>.json).
#       --smoke runs the self-tests and tiny sizes instead.
#   benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
#       one pass of one workload; the last stdout line is its JSON result.
#   benchmark/run.sh compare A B [--spec BENCHMARK.json]
#   benchmark/run.sh spec            prints BENCHMARK.json
#   benchmark/run.sh recorded RUNS   prints RECORDED.json from a --record file
#
# Needs cargo and coreutils only; exits non-zero on any failed check.
set -eu

export CARGO_NET_OFFLINE=true
here=$(CDPATH='' cd -- "$(dirname -- "$0")" && pwd)
cd "$here/.."
target=${CARGO_TARGET_DIR:-target}

cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/benchmark"

case "${1:-}" in
    compare | spec | recorded) exec "$bin" "$@" ;;
esac

seed=42
seconds=
only=
smoke=
trace=
record=
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --workload) only=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --record) record=$2; shift 2 ;;
        --smoke) smoke=--smoke; shift ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

run_pass() {
    # $1 workload, $2 trace flag
    "$bin" --workload "$1" --seed "$seed" --trace "$2" --out-dir benchmark/out \
        ${seconds:+--seconds "$seconds"} $smoke ${record:+--record "$record"}
}

if [ -n "$trace" ]; then
    [ -n "$only" ] || { echo "run.sh: --trace needs --workload" >&2; exit 2; }
    run_pass "$only" "$trace"
    exit
fi

if [ -n "$smoke" ]; then
    seconds=0
    cargo test --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
fi
for workload in ${only:-session_single session_layered_faulted campus server codec_ladder codec_layered}; do
    run_pass "$workload" 0
    run_pass "$workload" 1
done
