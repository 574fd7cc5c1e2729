//! Session-server benchmark (DESIGN.md §4, "Server"): thousands of simulated
//! clients streaming the wire-format container.
//!
//! Builds a real stream — synthetic-body frames, octree-encoded as one
//! GOP batch, wrapped in the `volcast-net::wire` container — then drives
//! it through `volcast_core::SessionServer`: admission control over the
//! offered load, per-client send queues with backpressure, viewport-trace
//! replay as per-client link quality, and deterministic network faults
//! (mid-chunk disconnects, reorder-free loss, AP stalls, decode
//! overruns). Reports p50/p99 frame-delivery latency.
//!
//! Everything printed to **stdout** is deterministic and byte-identical
//! at `VOLCAST_THREADS=1` and `=8` (or any other worker count) — the
//! outcome hash is the witness `scripts/verify.sh` diffs. Wall-clock
//! numbers go to **stderr** only; the ratcheted throughput number is the
//! `server` workload of `benchmark/`.
//!
//! Flags (all optional):
//!
//! ```text
//! cargo run --release -p volcast-bench --bin server -- \
//!     [--clients N] [--cap N] [--frames N] [--points N] [--seed N] \
//!     [--base-rate BYTES_PER_TICK] [--faults SPEC]
//! ```
//!
//! `--faults ''` disables the default fault spec.

use std::time::Instant;
use volcast_core::{ServerParams, SessionServer};
use volcast_net::{FaultConfig, StreamWriter};
use volcast_pointcloud::codec::{CodecConfig, GopEncoder};
use volcast_pointcloud::synthetic::SyntheticBody;
use volcast_util::flags::Flags;
use volcast_viewport::UserStudy;

/// Default fault spec: enough churn to exercise reconnects, loss
/// re-sends, stalls, and decode deferrals on every run.
const DEFAULT_FAULTS: &str = "seed=11,outage=0.01:3,loss=0.02,stall=0.005:2,decode=0.01";

const USAGE: &str = "usage: server [--clients N] [--cap N] [--frames N] [--points N] [--seed N] \
                     [--base-rate BYTES_PER_TICK] [--faults SPEC]";

fn main() {
    let flags = Flags::from_env(USAGE);
    let clients = flags.value("--clients", 1_200usize);
    let cap = flags.value("--cap", 1_024usize);
    let frames = flags.value("--frames", 120usize);
    let points = flags.value("--points", 4_000usize);
    let seed = flags.value("--seed", 42u64);
    let base_rate = flags.value("--base-rate", 2_048u32);
    let fault_spec = flags.get("--faults").unwrap_or(DEFAULT_FAULTS).trim();
    let faults = if fault_spec.is_empty() {
        FaultConfig::default()
    } else {
        FaultConfig::from_spec(fault_spec).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    };

    println!(
        "Server: {clients} clients (cap {cap}), {frames} frames x {points} points, \
         base rate {base_rate} B/tick, seed {seed}"
    );
    println!(
        "faults: {}\n",
        if fault_spec.is_empty() {
            "off"
        } else {
            fault_spec
        }
    );

    // Encode the stream content: one GOP batch of synthetic-body frames,
    // wrapped into the wire container.
    let t0 = Instant::now();
    let cfg = CodecConfig::default();
    let body = SyntheticBody::default();
    let clouds: Vec<_> = (0..frames).map(|f| body.frame(f as u64, points)).collect();
    let mut gop = GopEncoder::new();
    gop.encode_gop_into(&clouds, &cfg);
    let mut writer = StreamWriter::new(cfg.depth as u8, cfg.color_bits as u8, frames as u32);
    let mut payload_bytes = 0u64;
    for f in 0..frames {
        let data = gop.frame_data(f);
        payload_bytes += data.len() as u64;
        writer.push_frame(data);
    }
    let stream = writer.finish();
    let encode_s = t0.elapsed().as_secs_f64();
    println!(
        "stream: {} frames, {} payload bytes ({} on the wire)",
        frames,
        payload_bytes,
        stream.len()
    );

    // Load generator: every client replays a viewport trace.
    let traces = UserStudy::generate_with(seed, frames, clients.div_ceil(2), clients / 2).traces;

    let params = ServerParams {
        clients,
        admit_cap: cap,
        base_bytes_per_tick: base_rate,
        seed,
        faults,
        ..ServerParams::default()
    };
    let server = SessionServer::new(params, stream, traces).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    let t1 = Instant::now();
    let out = server.run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let run_s = t1.elapsed().as_secs_f64();

    // Deterministic summary (the thread-invariance contract is on stdout).
    println!("  admitted            {:>10}", out.admitted);
    println!("  rejected            {:>10}", out.rejected);
    println!("  delivered frames    {:>10}", out.delivered_frames);
    println!("  dropped (backpress) {:>10}", out.dropped_frames);
    println!("  undelivered         {:>10}", out.undelivered_frames);
    println!("  never queued        {:>10}", out.never_queued_frames);
    println!("  reconnects          {:>10}", out.reconnects);
    println!("  bytes sent          {:>10}", out.bytes_sent);
    println!("  p50 latency         {:>10} ms", out.p50_latency_ms);
    println!("  p99 latency         {:>10} ms", out.p99_latency_ms);
    println!("  mean latency        {:>10.3} ms", out.mean_latency_ms);
    println!("\noutcome hash 0x{:016x}", out.outcome_hash);

    // Wall-clock throughput: stderr only (never stdout).
    let client_frames_per_sec = (out.admitted * frames) as f64 / run_s;
    eprintln!(
        "encoded in {encode_s:.2} s, served in {run_s:.2} s \
         ({client_frames_per_sec:.0} client-frames/sec)"
    );
    volcast_bench::dump_obs("server");
}
