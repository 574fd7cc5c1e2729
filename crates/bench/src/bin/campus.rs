//! Campus-scale multi-AP roaming benchmark (DESIGN.md §4, "Campus").
//!
//! Runs the sharded campus simulation — a grid of two-AP rooms advanced
//! in parallel per epoch, with roaming users handing off between rooms at
//! epoch barriers — at the headline 10,000-user / 100-AP / 300-frame
//! scale, and reports simulation throughput (users/sec), per-AP airtime,
//! and handoff counts.
//!
//! Everything printed to **stdout** is deterministic: the configuration,
//! the aggregate `CampusOutcome` metrics, and the FNV-1a hash of its
//! serialized form are byte-identical at `VOLCAST_THREADS=1` and `=8` (or
//! any other worker count). Wall-clock throughput goes to **stderr** only;
//! the ratcheted throughput number is the `campus` workload of
//! `benchmark/`.
//!
//! Flags (all optional):
//!
//! ```text
//! cargo run --release -p volcast-bench --bin campus -- \
//!     [--users N] [--aps N] [--frames N] [--epoch N] [--seed N] \
//!     [--faults SPEC]
//! ```
//!
//! `--aps` must be even (two per room); the room grid is chosen as the
//! most square factorization of `aps / 2`. `--faults ''` disables the
//! default fault spec.

use std::time::Instant;
use volcast_core::campus::{Campus, CampusParams};
use volcast_net::FaultConfig;
use volcast_util::flags::Flags;
use volcast_util::hash::fnv1a;
use volcast_util::json::ToJson;

/// Default fault spec: light outage/loss churn so campus-sized (>64-user)
/// fault plans are exercised on every run.
const DEFAULT_FAULTS: &str = "seed=5,outage=0.01:5,loss=0.02,stall=0.005:3";

const USAGE: &str = "usage: campus [--users N] [--aps N] [--frames N] [--epoch N] [--seed N] \
                     [--faults SPEC]";

/// The most square `(w, h)` with `w * h = rooms` and `w >= h`.
fn squarest_grid(rooms: usize) -> (usize, usize) {
    let mut h = (rooms as f64).sqrt() as usize;
    while h > 1 && !rooms.is_multiple_of(h) {
        h -= 1;
    }
    (rooms / h.max(1), h.max(1))
}

fn main() {
    let flags = Flags::from_env(USAGE);
    let users = flags.value("--users", 10_000usize);
    let aps = flags.value("--aps", 100usize);
    let frames = flags.value("--frames", 300usize);
    let epoch_frames = flags.value("--epoch", 10usize);
    let seed = flags.value("--seed", 42u64);
    let fault_spec = flags.get("--faults").unwrap_or(DEFAULT_FAULTS).trim();
    if !aps.is_multiple_of(2) || aps == 0 {
        eprintln!("error: --aps must be a positive even number (two APs per room)");
        std::process::exit(2);
    }
    let (grid_w, grid_h) = squarest_grid(aps / 2);
    let faults = if fault_spec.is_empty() {
        None
    } else {
        Some(FaultConfig::from_spec(fault_spec).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }))
    };

    let params = CampusParams {
        grid_w,
        grid_h,
        users,
        frames,
        epoch_frames,
        seed,
        faults,
        ..CampusParams::default()
    };
    println!(
        "Campus: {users} users, {aps} APs ({grid_w}x{grid_h} rooms), {frames} frames, \
         epoch {epoch_frames}, seed {seed}"
    );
    println!(
        "faults: {}\n",
        if fault_spec.is_empty() {
            "off"
        } else {
            fault_spec
        }
    );

    let t0 = Instant::now();
    let campus = Campus::new(params).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let out = campus.run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let run_s = t1.elapsed().as_secs_f64();

    // Deterministic summary (the thread-invariance contract is on stdout).
    let airtime_mean = volcast_bench::mean(&out.per_ap_airtime_s);
    let airtime_max = out.per_ap_airtime_s.iter().cloned().fold(0.0f64, f64::max);
    println!("  handoffs            {:>10}", out.handoffs);
    println!("  reassociations      {:>10}", out.reassociations);
    println!("  regroup exclusions  {:>10}", out.regroup_exclusions);
    println!("  fault user-frames   {:>10}", out.fault_user_frames);
    println!("  scheduled u-frames  {:>10}", out.scheduled_user_frames);
    println!("  delivered ratio     {:>10.4}", out.delivered_ratio);
    println!("  on-time ratio       {:>10.4}", out.on_time_ratio);
    println!("  mean quality scale  {:>10.4}", out.mean_quality_scale);
    println!("  unreachable u-frames{:>10}", out.unreachable_user_frames);
    println!("  mean group size     {:>10.3}", out.mean_group_size);
    println!(
        "  multicast bytes     {:>9.1}%",
        out.multicast_byte_fraction * 100.0
    );
    println!(
        "  per-AP airtime      {:>10.3} s mean, {:.3} s max",
        airtime_mean, airtime_max
    );
    println!("  over-budget items   {:>10}", out.over_budget_items);
    println!(
        "  interference margin {:>10.1} dB",
        out.min_interference_margin_db
    );
    let hash = fnv1a(out.to_json().to_json_string().as_bytes());
    println!("\noutcome hash 0x{hash:016x}");

    // Wall-clock throughput: stderr only (never stdout).
    let user_frames_per_sec = (users * frames) as f64 / run_s;
    let users_per_sec = users as f64 / run_s;
    eprintln!(
        "built in {build_s:.2} s, ran in {run_s:.2} s \
         ({users_per_sec:.0} users/sec, {user_frames_per_sec:.0} user-frames/sec)"
    );
    volcast_bench::dump_obs("campus");
}
