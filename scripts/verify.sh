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

echo "==> the bound sweep and the element-sum sweep are gone, not forked"
# One exact table per receiver (mmwave::sweep): every codebook is a
# Codebook::dft of its own array, whose sectors and custom beams are priced
# in closed form like the link beams; SweepEngine::new refuses any other.
# No codebook of arbitrary weights (`from_parts`) may come back to be swept
# by element sums, nor the engine's empty-kernel branches, and no bounds,
# pruning, exact-evaluation cache or their counters survive.
if grep -rnE 'sectors_pruned|sector_evals|flush_counts|from_parts|sin_x\.is_empty' \
    crates/ DESIGN.md README.md; then
    echo "ERROR: names of the bound-pruned or element-sum sector sweep survive" >&2
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

echo "==> the airtime replay has one front end, not forked"
# One event loop (Simulator::replay_into) over a PlanLog: the campus and the
# session log their plans, and run_into is only the plans front the
# benchmark calls, logging into SimScratch. No per-frame outcome type, no
# trait over two plan representations, no pool of multicast member vectors
# beside the log.
if grep -rnE 'FrameOutcome|trait Frames|impl Frames|item_pool' crates/ DESIGN.md README.md; then
    echo "ERROR: a second front end of the airtime replay survives" >&2
    exit 1
fi

echo "==> the per-user arena vectors are gone, not forked"
# One UserFrame row per user per frame (core::session): each stage writes
# its fields of the row, so none of the per-user vectors the rows replaced
# may come back as an arena field (`name: Vec<`) or an arena read (`a.name`).
arena_vecs='blocked_now|beam_outage|extra_prefetch|wasted_tx|rss|member_unit|needed_fraction'
arena_vecs="$arena_vecs|qualities|fec_rungs|effective_quality|unserved|needed_bytes"
arena_vecs="$arena_vecs|outage_pending|fec_protected|base_item_idx|retransmitted"
if grep -nE "\ba\.($arena_vecs)\b|\b($arena_vecs): Vec<" crates/core/src/session.rs; then
    echo "ERROR: per-user arena vectors survive beside the UserFrame rows" >&2
    exit 1
fi

echo "==> the session memo keys member sets by their bits, not forked"
# GroupBeams' memo is one flat key arena of member-set bits, cleared each
# frame; no map keyed by an owned member vector, nor a key copied per
# design, may come back beside it in the live code (above the first
# `#[cfg(test)]`; the tests record the sets they see).
if sed '/^#\[cfg(test)\]$/q' crates/core/src/session.rs |
    grep -nE 'HashMap<Vec<usize>|members\.to_vec\(\)'; then
    echo "ERROR: a member-vector-keyed memo survives in the session" >&2
    exit 1
fi

echo "==> one direction program for every located receiver, not forked"
# PlanarArray::cosines reads (u, v, element) off the array-local unit vector;
# SweepRx::locate, reference.rs's oracle and the pipeline referee all call
# it. No spherical round trip (azimuth and elevation, then their sines and
# cosines) may come back on those paths, above each file's first
# `#[cfg(test)]`: the spherical-locate referee in sweep.rs's tests keeps the
# old program verbatim and is exempt.
if grep -rn 'local_direction' crates/; then
    echo "ERROR: PlanarArray::local_direction survives beside PlanarArray::cosines" >&2
    exit 1
fi
for f in crates/mmwave/src/sweep.rs crates/mmwave/src/reference.rs crates/core/src/session/referee.rs; do
    if sed '/^#\[cfg(test)\]$/q' "$f" |
        grep -nE 'Spherical::from_vector|azimuth\.sin_cos|elevation\.sin_cos'; then
        echo "ERROR: $f locates paths through a spherical direction program" >&2
        exit 1
    fi
done

echo "==> custom beams are priced from terms, not from weight vectors"
# SweepEngine::design prices a custom beam from its terms and the sweep's
# kernels, and the campus prices its leakage at a victim the same way
# (SweepEngine::beam_dbm): neither may build a weight vector or sum
# elements. Above multi_ap.rs's first `#[cfg(test)]`, and inside design.
if sed '/^#\[cfg(test)\]$/q' crates/core/src/multi_ap.rs | grep -nE 'eval_weights|combine_into' ||
    sed -n '/^    pub fn design(/,/^    }$/p' crates/mmwave/src/sweep.rs | grep -nE 'eval_weights|combine_into'; then
    echo "ERROR: a custom beam is built or summed element by element on a live path" >&2
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
# per frame (SweepRx::locate plus both link beams), a designed member's
# sweep and best sector, and an element-sum price (its steering rows).
VOLCAST_TRACE=1 cargo test --release -q -p volcast-mmwave --test link_alloc

echo "==> DFT codebooks build no weights, warm custom designs allocate nothing"
# Same arrangement: Codebook::default_for plus SweepEngine::new is four
# allocations (no sector weight vector), and a warm design that prices a
# custom beam from its terms, and its leakage at a receiver, none.
VOLCAST_TRACE=1 cargo test --release -q -p volcast-mmwave --test design_alloc

echo "==> a session run allocates the same at F and 2F frames"
# Same arrangement for StreamingSession::run over periodic inputs, every
# player, delivery mode, mitigation mode and radio, with and without
# faults: its storage is sized at set-up, so the frame loop allocates
# nothing (counted on the test's own thread).
VOLCAST_TRACE=1 cargo test --release -q -p volcast-core --test session_alloc

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

echo "==> the occlusion certificate against the walk-only reference maps, 2000 cases"
# rank_maps.rs keeps the pre-rank visibility pass, which decides every
# occluded cell by nine DDA walks; compute_into decides most of them from
# the target's eye-side neighbours instead and must agree bit for bit, in
# release and well past the default case count.
VOLCAST_PROP_CASES=2000 cargo test --release -q -p volcast-viewport --test rank_maps

echo "==> the session frame's shortcuts and the sector sweep against the loops they replaced"
# The box test before every body against a verbatim copy of the loop it
# replaced, bit for bit;
# the sector table, its x kernel run over blocks of sectors, against the
# per-sector loop and every kernel lane against the serial recurrence, bit
# for bit; BeamSearch's full sweep against the oracle's exhaustive scan bit
# for bit and the per-sector element sums within the closed-form bound; in
# release.
VOLCAST_PROP_CASES=2000 cargo test --release -q -p volcast-mmwave --lib -- \
    segment_blocked_matches_the_unboxed_loop full_sweep_matches_the_per_sector_scan \
    sweep_table_matches_the_scalar_loop lanes_match_the_scalar_recurrence
# Custom beams priced from their terms and the receiver's kernels, against
# combine_weights_multi and element sums as they priced them before, within
# the closed-form bounds (1e-13 * N per path on |w^T a|^2, 1e-11 dB on RSS
# within 40 dB of the cap), at 20000 cases.
VOLCAST_PROP_CASES=20000 cargo test --release -q -p volcast-mmwave --lib \
    closed_form_custom_beam_matches_element_sums_within_bounds

echo "==> the closed-form codebook responses against element sums, 2000 cases"
# DFT sectors and conjugate link beams are priced as a product of two
# Chebyshev kernels (PlanarArray::chebyshev_u); reference.rs bounds them by
# element sums over the shipped rows and the per-element loop (1e-13 * N
# per path on |w^T a|^2, 1e-11 dB on RSS, -inf exactly together), in release.
VOLCAST_PROP_CASES=2000 cargo test --release -q -p volcast-mmwave --lib \
    closed_form_responses_match_the_element_sums_within_bounds

echo "==> the closed-form locate against the spherical program, 20000 cases"
# SweepRx::locate reads u, v and the element pattern off the array-local unit
# vector; sweep.rs keeps the asin/atan2 program it replaced and bounds per
# path u, v, path_mw and |w^T a|^2, and the receiver's RSS, within bounds
# scaled by 1/cos(el), over random array orientations and receivers behind,
# above and at the array, in release.
VOLCAST_PROP_CASES=20000 cargo test --release -q -p volcast-mmwave --lib \
    closed_form_locate_matches_the_spherical_program_within_bounds

echo "==> steering rows against the per-element loop, 2000 cases"
# Rows are products of per-axis phasors, no longer bit-identical to the
# per-element program; reference.rs keeps that loop and bounds the rows by
# it (1e-14 per element, 1e-12 absolute on |w^T a|^2), in release.
VOLCAST_PROP_CASES=2000 cargo test --release -q -p volcast-mmwave --lib \
    steering_rows_match_the_per_element_loop_within_bounds

echo "==> the session frame loop against the pipeline referee, 200 cases at 1 and 4 threads"
# core/src/session/referee.rs: a naive single-stream, fault-free frame
# loop (exhaustive beams, all-pairs grouping, BTreeMap visibility) that
# every frame's rates, decisions, groups and plan, and the outcome, must
# match bit for bit.
for threads in 1 4; do
    VOLCAST_THREADS=$threads VOLCAST_PROP_CASES=200 cargo test --release -q -p volcast-core --lib \
        the_session_frame_loop_matches_the_pipeline_referee
done

echo "==> a reused campus coordinator against a fresh one, 2000 cases"
# EpochCoordinator keeps the receivers of users who stood still, matched by
# position bits and permuted in place, under engines that compare equal:
# after every call of a random sequence (moves, drop-outs, duplicates,
# empty calls, engine swaps) it must read out what a fresh one does, bit
# for bit, in release.
VOLCAST_PROP_CASES=2000 cargo test --release -q -p volcast-core --lib \
    a_reused_coordinator_matches_a_fresh_one

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
# caching, the retained plan log, the flattened simulator core — cannot
# drift without failing this diff. The bin writes no file. Keeping the
# receivers of users who stood still and stopping a design's custom-beam
# pricing at its first losing member moved no pin. Closed-form codebook
# responses moved it, 0x671fa175dde52bf0 -> 0x56ba4f75d4dedf10, with every
# printed stat identical. What a campus re-pin moved is told field by field,
# in ULP, by the snapshot report (volcast_util::pins, which backs
# campus_roaming.rs's golden rows with results/pins/campus_golden/), pasted
# into CHANGES.md with the re-pin.
tmp_cmp1="$(mktemp)"
tmp_cmp8="$(mktemp)"
VOLCAST_THREADS=1 cargo run -q --release -p volcast-bench --bin campus -- \
    --users 500 --aps 8 --frames 30 > "$tmp_cmp1" 2> /dev/null
VOLCAST_THREADS=8 cargo run -q --release -p volcast-bench --bin campus -- \
    --users 500 --aps 8 --frames 30 > "$tmp_cmp8" 2> /dev/null
diff "$tmp_cmp1" "$tmp_cmp8"
grep -q "outcome hash 0x56ba4f75d4dedf10" "$tmp_cmp1" || {
    echo "ERROR: campus smoke outcome hash drifted (expected 0x56ba4f75d4dedf10):" >&2
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
# Keeping the campus receivers of users who stood still (a receiver is a
# pure function of engine and position) and stopping a design's custom-beam
# pricing at the first member it cannot beat moved none.
# PR 36 (steering rows from separable per-axis phasors) moved both session
# pins, and only through `customized_beam_fraction`: where every member's
# best sector is the common sector, the custom beam is that sector again,
# and custom-versus-default is decided by a margin of ~1e-14 dB that the
# new rows round the other way (7 and 6 of the 50 sessions; every other
# field, multicast rate included, is bit-identical). campus did not move.
# The rows are refereed within bounds by reference.rs's per-element loop.
# The tie rule (SweepEngine::design keeps the default beam when every
# member's own best sector is the common one) moved both session pins
# again, through `customized_beam_fraction` alone: those ties now always
# keep the default (2,076 -> 2,044 and 1,220 -> 1,198 customized designs
# in one traced pass each); campus did not move.
# DFT sectors and link beams in closed form (custom beams summed in mW)
# moved campus alone, 0x22ab495ca9fac58d -> 0xfecfa15c95533c00; its field
# report is in CHANGES.md (PR 37), as is every later campus re-pin's.
# reference.rs bounds the kernel by element sums
# (closed_form_responses_match_the_element_sums_within_bounds).
# Running the sweep's x kernel over blocks of eight sectors moved no pin:
# every lane runs the serial recurrence's operations in its order.
# Locating paths in closed form (u, v and the element pattern off the
# array-local unit vector) moved none of these six either; it moved five
# campus golden rows, reported in CHANGES.md (PR 42).
# Pricing custom beams from sector kernels moved none of these six, nor
# the campus smoke hash; only the campus's interference margin moved, in
# thirteen golden rows and the rect-grid pin (CHANGES.md, PR 43).
# Pricing a layered frame, and the ABR's layered target, at the ladder's
# layered share (the codec's held layers over the High single stream:
# 0.410 / 0.913 / 1.238 at Low / Medium / High) moved
# session_layered_faulted alone, 0x8a432810abffb801 -> 0xf4bc0a113c2d4e29:
# on_time_share 0.9727 -> 0.9687, mean_quality 1.1373 -> 1.1120 at seed
# 42; session_single did not move.
for pin in codec_ladder:0x97b4ac0961eaafb1 codec_layered:0xb00dbeed38dc616e \
    session_single:0x8ba5c8e0f1e35ba5 session_layered_faulted:0xf4bc0a113c2d4e29 \
    campus:0xfecfa15c95533c00 server:0xa52a4b03a0514405; do
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
