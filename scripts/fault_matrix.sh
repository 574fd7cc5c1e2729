#!/usr/bin/env sh
# Fault-scenario determinism gate: runs the fault matrix (`--bin faults`)
# at VOLCAST_THREADS=1 and =4 and asserts the outputs — the FNV-1a hashes
# of every scenario's SessionOutcome plus the headline stats — are byte
# for byte identical to each other AND to the committed reference in
# results/faults.txt. The matrix covers both delivery modes: the
# single-stream ladder AND the layered (base + enhancements + XOR-parity
# FEC) rerun of every scenario, so layered scheduling divergence across
# worker counts fails this gate too. With tracing on, the per-scenario
# deterministic obs snapshots (fault activations, ladder reactions,
# retransmits, FEC recoveries) must also match
# results/obs_faults_<scenario>.json at both thread counts.
#
# Usage: scripts/fault_matrix.sh  (from the repository root)

set -eu

export CARGO_NET_OFFLINE=true

tmp_out="$(mktemp)"
tmp_obs="$(mktemp -d)"
trap 'rm -rf "$tmp_out" "$tmp_obs"' EXIT

echo "==> fault matrix reproduces byte-identically at both thread counts"
VOLCAST_THREADS=1 cargo run -q --release -p volcast-bench --bin faults > "$tmp_out"
diff results/faults.txt "$tmp_out"
VOLCAST_THREADS=4 cargo run -q --release -p volcast-bench --bin faults > "$tmp_out"
diff results/faults.txt "$tmp_out"

echo "==> layered-delivery fault scenarios present with pinned outcomes"
# Two sentinel layered scenarios (a loss burst absorbed by the FEC rung
# and the all-faults-combined run) must appear with their pinned hashes:
# catches a regeneration of results/faults.txt that silently dropped or
# drifted the layered half of the matrix.
grep -q "Layered delivery + proactive FEC" results/faults.txt
grep -q "^loss             0x97234fb2bfda3dac" "$tmp_out"
grep -q "^combined         0xe4da584a46870ab7" "$tmp_out"

echo "==> per-scenario obs snapshots match the committed copies"
VOLCAST_TRACE=1 VOLCAST_OBS_DIR="$tmp_obs" VOLCAST_THREADS=1 \
    cargo run -q --release -p volcast-bench --bin faults > /dev/null
for f in results/obs_faults_*.json; do
    diff "$f" "$tmp_obs/$(basename "$f")"
done
VOLCAST_TRACE=1 VOLCAST_OBS_DIR="$tmp_obs" VOLCAST_THREADS=4 \
    cargo run -q --release -p volcast-bench --bin faults > /dev/null
for f in results/obs_faults_*.json; do
    diff "$f" "$tmp_obs/$(basename "$f")"
done

echo "fault matrix: all checks passed"
