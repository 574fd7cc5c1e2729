#!/usr/bin/env sh
# Full quality gate for the volcast workspace, run with the network forced
# off. The workspace has no external dependencies, so an empty registry
# cache must be enough to pass every step (see DESIGN.md §5).
#
# Usage: scripts/verify.sh  (from the repository root)

set -eu

export CARGO_NET_OFFLINE=true

echo "==> DESIGN.md stays an architecture document (<= 30720 bytes)"
# The per-PR narrative belongs in CHANGES.md; the live-line total is
# printed beside the limit so neither number moves unnoticed.
design_bytes="$(wc -c < DESIGN.md)"
[ "$design_bytes" -le 30720 ] || {
    echo "ERROR: DESIGN.md is $design_bytes bytes (limit 30720)" >&2
    exit 1
}
echo "DESIGN.md $design_bytes bytes; live lines: $(sh scripts/loc.sh | tail -1)," \
    "codec $(sh scripts/loc.sh crates/pointcloud/src/codec | tail -1)"

echo "==> the adaptive range coder is gone, not forked"
if grep -rnE "RangeEncoder|RangeDecoder|BitModel" crates/; then
    echo "ERROR: range-coder identifiers survive under crates/" >&2
    exit 1
fi

echo "==> the pre-order wire order is gone, not forked"
# One emitter, one decoder (layered.rs): the only trace the single-stream
# layout may leave is its magics in the BadMagic test.
if grep -rn 'VOCT\|put_preorder\|fn node(' crates/*/src DESIGN.md README.md |
    grep -v 'layered.rs:.*b"VOCT"'; then
    echo "ERROR: names of the pre-order single-stream layout survive" >&2
    exit 1
fi

echo "==> the codec has one quantize kernel, not per-backend twins"
# One safe loop compiled twice (codec::simd): no backend enum, no knob to
# force a copy, no intrinsics.
if grep -rnE 'VOLCAST_NO_SIMD|with_backend|Backend::|core::arch' \
    crates/ scripts/ DESIGN.md README.md | grep -v '^scripts/verify.sh:'; then
    echo "ERROR: names of the per-backend codec kernels survive" >&2
    exit 1
fi

echo "==> the property DSL is gone, not forked"
# One runner (util::prop::run_cases): each property draws its own inputs
# from the case's Rng; no strategy combinators, macro front end or config.
if grep -rnE 'proptest!|prop_assert|ProptestConfig|prop::prelude|prop::collection|impl Strategy' \
    crates/ DESIGN.md README.md; then
    echo "ERROR: names of the proptest-compatible property DSL survive" >&2
    exit 1
fi

echo "==> the decoder takes symbols three at a time, not forked per symbol"
# One path (codec::rans): a level's masks go through DecModel::expand_level,
# a color run through DecModel::colors, both over one state step; no
# one-symbol-at-a-time twin stands beside them.
if grep -rnE 'fn (advance|mask|color)\(|ColorReader::read\b' crates/pointcloud/src/codec/; then
    echo "ERROR: the per-symbol decoder methods survive under codec/" >&2
    exit 1
fi

echo "==> the fault schedule has one layout, not forked"
# One byte of Fault bits per (frame, user) behind the FrameFaults view
# (net::faults): no per-class bit sets or their accessors, no quiet-frame
# static, no per-reader "no plan here" helper.
# (`\b`: `blockage_forecast` is a bandwidth-model input, not an accessor.)
if grep -rnE '\b(outage|blockage|loss|decode_overrun)_for\b|QUIET_FRAME|faults_at\(|FrameFaults::quiet|insert_range' \
    crates/ DESIGN.md README.md; then
    echo "ERROR: names of the per-frame fault bit sets survive" >&2
    exit 1
fi

echo "==> the sector scan, fan-out, metric store, flag parser and MAC dispatch are not forked"
# One of each: BeamSearch::full_sweep is a front over SweepEngine, par_map
# runs on par_for_each_mut, obs keeps one Store type for sinks and registry,
# every binary parses flags with volcast_util::flags, and the session holds
# its radio's MAC as a `dyn MacModel`.
if grep -rnE 'sweep_subset|LocalSink|MacDispatch|fn parse_flags|fn get_parse' crates/ src/; then
    echo "ERROR: a second copy of a one-of-each idea survives" >&2
    exit 1
fi

echo "==> the campus room epoch is one walk per AP, not forked"
# core::campus runs reconcile -> one walk per AP -> frames -> replay: groups
# are member lists reconciled in place (no double buffer, no grouping::Group),
# stations are looked up under one indexing, and admission is a method
# (RoomEpochStats::admit), not a macro over a seven-argument function.
if grep -nE 'macro_rules!|too_many_arguments|next_groups|local_of|grouping::Group' \
    crates/core/src/campus.rs; then
    echo "ERROR: names of the three-pass campus room epoch survive" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied, unsafe blocks must carry SAFETY docs)"
# The workspace's one unsafe block is volcast-pointcloud's call into the
# AVX2-compiled copy of the codec::simd kernel, made once the CPU has
# reported AVX2, and it must explain itself; all other crates forbid unsafe
# at the crate root (volcast-util's counting allocator excepted).
cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented-unsafe-blocks

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test (VOLCAST_THREADS=1)"
VOLCAST_THREADS=1 cargo test --workspace -q

echo "==> cargo test (VOLCAST_THREADS=4)"
VOLCAST_THREADS=4 cargo test --workspace -q

echo "==> cargo test (VOLCAST_TRACE=1: suite passes with tracing on)"
VOLCAST_TRACE=1 cargo test --workspace -q

echo "==> codec round-trip is allocation-free under the counting allocator"
# Own test binary: the counting global allocator is process-wide, so the
# steady-state assertion must not share a process with other tests. Run in
# release (the assertion is about the optimized frame path) and with
# tracing on — the test disables obs itself and must stay green anyway.
VOLCAST_TRACE=1 cargo test --release -q -p volcast-pointcloud --test codec_alloc

echo "==> the naive encoder referees the optimized one in release too"
# The encoder carries its bitmap across calls, all-zero only if every frame
# clears what it set; the debug_assert that checks it is compiled out here,
# so the reuse referee runs at the optimization level the benchmark ships.
cargo test --release -q -p volcast-pointcloud --test seed_reference

echo "==> warm link evaluations are allocation-free under the counting allocator"
# Same arrangement for what the session's link_rates stage runs per user
# per frame: SweepRx::prepare_paths plus both link beams.
VOLCAST_TRACE=1 cargo test --release -q -p volcast-mmwave --test link_alloc

echo "==> fault plans allocate their table once and regenerate in place"
# Same arrangement for FaultPlan: a fresh plan at the server workload's
# shape is at most two allocations, a warm regenerate none, both counted
# on the test's own thread (the harness may allocate on others).
VOLCAST_TRACE=1 cargo test --release -q -p volcast-net --test fault_alloc

echo "==> the cap-led grouping search and its rate cap, 2000 cases each"
# The planner adopts what the all-pairs referee adopts whatever the caps,
# and no unit-power beam beats SweepRx::rss_cap_dbm: the two properties the
# lazy search rests on, in release (the float programs the session runs)
# and well past the default case counts.
VOLCAST_PROP_CASES=2000 cargo test --release -q -p volcast-core --test plan_reference
VOLCAST_PROP_CASES=2000 cargo test --release -q -p volcast-mmwave --lib rss_cap_dominates

echo "==> the session frame's shortcuts and the sector sweep against the loops they replaced, 2000 cases each"
# Sector bounds with one y factor per elevation run, exact evaluations as
# independent chains, the box test before every body, and BeamSearch's
# full sweep over the engine: each against a verbatim copy of the loop it
# replaced, bit for bit, in release.
VOLCAST_PROP_CASES=2000 cargo test --release -q -p volcast-mmwave --lib -- \
    sector_bounds_match_the_per_sector_loop eval_weights_matches_the_serial_chains \
    segment_blocked_matches_the_unboxed_loop full_sweep_matches_the_per_sector_scan

echo "==> every results/<bin>.txt regenerates byte-identically"
# Each committed capture is the stdout of the bin it is named after; a
# change that moves any of them must say so by regenerating the file.
tmp_out="$(mktemp)"
tmp_obs="$(mktemp -d)"
trap 'rm -rf "$tmp_out" "$tmp_obs"' EXIT
for capture in results/*.txt; do
    bin="$(basename "$capture" .txt)"
    VOLCAST_THREADS=1 cargo run -q --release -p volcast-bench --bin "$bin" > "$tmp_out"
    diff "$capture" "$tmp_out"
done

echo "==> fig2a is the same at four workers"
VOLCAST_THREADS=4 cargo run -q --release -p volcast-bench --bin fig2a > "$tmp_out"
diff results/fig2a.txt "$tmp_out"

echo "==> fig2a obs snapshot matches the committed copy at both thread counts"
# With tracing on, fig2a dumps its deterministic metrics snapshot; it must
# be byte-identical to results/obs_fig2a.json regardless of the worker
# count (VOLCAST_OBS_DIR redirects the dump so the committed file is the
# untouched reference).
VOLCAST_TRACE=1 VOLCAST_OBS_DIR="$tmp_obs" VOLCAST_THREADS=1 \
    cargo run -q --release -p volcast-bench --bin fig2a > /dev/null
diff results/obs_fig2a.json "$tmp_obs/obs_fig2a.json"
VOLCAST_TRACE=1 VOLCAST_OBS_DIR="$tmp_obs" VOLCAST_THREADS=4 \
    cargo run -q --release -p volcast-bench --bin fig2a > /dev/null
diff results/obs_fig2a.json "$tmp_obs/obs_fig2a.json"

echo "==> fault-scenario matrix is deterministic across thread counts"
# The fault-injection gate: every scenario's SessionOutcome FNV and obs
# snapshot must match the committed references at 1 and 4 workers — in
# both delivery modes (single-stream ladder and layered base +
# enhancements + XOR-parity FEC; the layered rows carry pinned hashes).
sh scripts/fault_matrix.sh

echo "==> wire-format fuzz smoke (1000 seeded mutations, no panics)"
# The server-facing robustness gate: random bit flips, splats,
# truncations, and duplications over a valid stream must never panic the
# parser, and a payload served as valid must hash to its checksum.
cargo test --release -q -p volcast-net --test wire fuzz_smoke_random_mutations_never_panic

echo "==> server bench is byte-identical at VOLCAST_THREADS=1 and 8, hash pinned"
# The session server at its full default scale (1200 offered clients,
# admission cap 1024, 120 frames; runs in well under a second). stdout
# carries only deterministic metrics and the outcome hash, so a plain
# diff is the thread-invariance witness; the hash keeps both from
# drifting together. It covers the stream's chunk sizes, so it moves when
# the codec's bytes do and only then (last: PR 24, a legacy chunk became a
# one-layer VLY3 frame, whose header is 11 bytes longer).
tmp_srv1="$(mktemp)"
tmp_srv8="$(mktemp)"
VOLCAST_THREADS=1 cargo run -q --release -p volcast-bench --bin server > "$tmp_srv1" 2> /dev/null
VOLCAST_THREADS=8 cargo run -q --release -p volcast-bench --bin server > "$tmp_srv8" 2> /dev/null
diff "$tmp_srv1" "$tmp_srv8"
grep -q "outcome hash 0x9b7d9c4a847fa3ff" "$tmp_srv1" || {
    echo "ERROR: server outcome hash drifted (expected 0x9b7d9c4a847fa3ff):" >&2
    tail -1 "$tmp_srv1" >&2
    exit 1
}
rm -f "$tmp_srv1" "$tmp_srv8"

echo "==> campus smoke is byte-identical at VOLCAST_THREADS=1 and 8, hash pinned"
# A fast campus configuration (500 users, 8 APs, 30 frames; ~50 ms) with
# the outcome hash pinned: the room-epoch hot path — epoch-invariant RSS
# caching, plan-skeleton reuse, the flattened simulator core — cannot
# drift without failing this diff. The bin writes no file.
tmp_cmp1="$(mktemp)"
tmp_cmp8="$(mktemp)"
VOLCAST_THREADS=1 cargo run -q --release -p volcast-bench --bin campus -- \
    --users 500 --aps 8 --frames 30 > "$tmp_cmp1" 2> /dev/null
VOLCAST_THREADS=8 cargo run -q --release -p volcast-bench --bin campus -- \
    --users 500 --aps 8 --frames 30 > "$tmp_cmp8" 2> /dev/null
diff "$tmp_cmp1" "$tmp_cmp8"
grep -q "outcome hash 0x671fa175dde52bf0" "$tmp_cmp1" || {
    echo "ERROR: campus smoke outcome hash drifted (expected 0x671fa175dde52bf0):" >&2
    tail -1 "$tmp_cmp1" >&2
    exit 1
}
rm -f "$tmp_cmp1" "$tmp_cmp8"

echo "==> benchmark smoke (builds benchmark/ against crates/*, self-tests, tiny sizes)"
# benchmark/ is its own workspace, so nothing above compiles it: an API
# drift in crates/* would otherwise surface only when the pipeline runs
# the benchmark. Every pass also checks its outputs (thread invariance,
# tracing changes nothing, conservation) and exits non-zero on a failure.
sh benchmark/run.sh --smoke > /dev/null

echo "==> benchmark workloads at full size: outcome hashes pinned"
# One untraced pass each at the sizes the benchmark measures. The codec
# pair covers the wire layout end to end (one-layer frames at the ladder's
# bottom and top rungs, three-layer frames through encode, parity, repair
# and decode): a byte of either cannot move without failing here. The simulator
# trio covers the float programs of the frame path (both sessions, the
# campus epoch loop): a moved ULP in the mmWave layer fails here. The
# server row covers both of its stream kinds under every fault class, and
# through their chunk sizes the codec's bytes too. Last moved by PR 24:
# codec_ladder and server only, every single stream 11 header bytes longer
# as a one-layer VLY3 frame; codec_layered must not have moved with them.
# PR 25 (the encoder's front half, bytes unchanged) moved no pin.
# Replacing the AVX2 / NEON intrinsics with one quantize kernel compiled
# twice moved none either, nor did porting the property suites from the
# proptest-compatible DSL to run_cases (and sharing the wire head parser).
# Decoding three rANS symbols per window moved none: the bytes are the same.
# Storing a fault plan as one byte per (frame, user) moved none: every draw,
# draw order and stream id is the same (crates/net/tests/fault_reference.rs).
# Locating receivers per frame and steering and sweeping them on first
# design, sweep bounds per elevation run, chained exact evaluations, the
# box test before every body and the bit-box occlusion walk moved none:
# every float keeps its operands and its order.
# Keeping one copy each of the sector scan, the thread fan-out, the metric
# store, the flag parser and the MAC dispatch moved none: the same methods
# compute the same floats, and results stay positional.
# Restructuring the campus room epoch (groups reconciled in place, one walk
# per AP, admission as a method) moved none: every float keeps its operands
# and its order.
for pin in codec_ladder:0x97b4ac0961eaafb1 codec_layered:0xb00dbeed38dc616e \
    session_single:0x338effbe7f8a1bb5 session_layered_faulted:0x3f96d14ae75d2245 \
    campus:0x22ab495ca9fac58d server:0xa52a4b03a0514405; do
    workload="${pin%%:*}"
    want="${pin##*:}"
    pass="$(sh benchmark/run.sh --workload "$workload" --seed 42 --seconds 1 --trace 0 2>&1)"
    case "$pass" in
        *"outcome_hash $want"*) ;;
        *)
            echo "ERROR: $workload outcome hash drifted (expected $want):" >&2
            echo "$pass" | grep outcome_hash >&2
            exit 1
            ;;
    esac
done

echo "verify: all checks passed"
