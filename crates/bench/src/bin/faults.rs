//! Fault-scenario matrix: deterministic fault injection, end to end.
//!
//! Runs a fixed matrix of fault scenarios (outage bursts, blockage storms,
//! AP stalls, transmission loss, decode overruns, a scripted blackout, and
//! all of them combined) through the full Volcast session engine and
//! prints, per scenario, the FNV-1a hash of the serialized
//! `SessionOutcome` plus the headline degradation stats. The hash rows
//! are the determinism contract: `scripts/fault_matrix.sh` re-runs the
//! matrix at `VOLCAST_THREADS=1` and `=4` and diffs the outputs byte for
//! byte, so any fault-path divergence across worker counts fails CI.
//!
//! Under `VOLCAST_TRACE=1` each scenario also dumps its deterministic obs
//! snapshot to `results/obs_faults_<name>.json` (fault activations, ladder
//! reactions, retransmits), auditable the same way.
//!
//! Run: `cargo run --release -p volcast-bench --bin faults`

use volcast_core::session::quick_session_with_device;
use volcast_core::{DeliveryMode, PlayerKind};
use volcast_net::FaultConfig;
use volcast_pointcloud::VideoSequence;
use volcast_util::hash::fnv1a;
use volcast_util::json::ToJson;
use volcast_util::obs;
use volcast_viewport::DeviceClass;

/// The scenario matrix: name + fault spec (empty = fault-free baseline).
const SCENARIOS: &[(&str, &str)] = &[
    ("baseline", ""),
    ("outage_burst", "seed=11,outage=0.04:6"),
    ("blockage_storm", "seed=12,blockage=0.10:4"),
    ("ap_stall", "seed=13,stall=0.10:3"),
    ("loss", "seed=14,loss=0.08"),
    ("decode", "seed=15,decode=0.06"),
    ("blackout", "seed=16,blackout=16:8"),
    (
        "combined",
        "seed=17,outage=0.02:4,blockage=0.05:3,stall=0.02:2,loss=0.04,decode=0.03,blackout=30:6",
    ),
];

const USERS: usize = 4;
const FRAMES: usize = 48;

fn main() {
    println!(
        "Fault-scenario matrix: {USERS} phone users, {FRAMES} frames, adaptive quality, Volcast"
    );
    println!("(hash = FNV-1a of the serialized SessionOutcome; thread-count invariant)\n");
    println!(
        "{:<16} {:>18} | {:>6} {:>6} | {:>6} {:>7} {:>7}",
        "scenario", "outcome-fnv", "fault", "recov", "fps", "stall%", "quality"
    );
    println!("{}", "-".repeat(78));

    // All 16 sessions stream the same content: they share its cell manifest.
    let video = VideoSequence::default();
    let mut legacy: Vec<(f64, f64)> = Vec::new(); // (stall_ratio, quality) per scenario
    for &(name, spec) in SCENARIOS {
        obs::reset();
        let cfg = FaultConfig::from_spec(spec).unwrap_or_else(|e| panic!("scenario {name}: {e}"));
        let mut s =
            quick_session_with_device(PlayerKind::Volcast, USERS, FRAMES, 42, DeviceClass::Phone);
        s.params.analysis_points = 8_000;
        s.video = video.clone();
        if !cfg.is_quiet() {
            s.params.faults = Some(cfg);
        }
        let out = s
            .run()
            .unwrap_or_else(|e| panic!("scenario {name} failed: {e}"));
        let hash = fnv1a(out.to_json().to_json_string().as_bytes());
        println!(
            "{:<16} 0x{:016x} | {:>6} {:>6} | {:>6.1} {:>6.1}% {:>7.2}",
            name,
            hash,
            out.fault_user_frames,
            out.recovered_user_frames,
            out.qoe.mean_fps(),
            out.qoe.mean_stall_ratio() * 100.0,
            out.qoe.mean_quality_score(),
        );
        legacy.push((out.qoe.mean_stall_ratio(), out.qoe.mean_quality_score()));
        volcast_bench::dump_obs(&format!("faults_{name}"));
    }

    // The same matrix under layered delivery: multicast base + unicast
    // enhancements + the proactive XOR-parity FEC rung of the degradation
    // ladder. The Δstall column is the headline claim — parity absorbing
    // single erasures before the budgeted-retransmit rung should cut the
    // stall-rate in most faulted scenarios.
    println!("\nLayered delivery + proactive FEC (same scenarios; deltas vs single-stream):\n");
    println!(
        "{:<16} {:>18} | {:>6} {:>6} | {:>6} {:>7} {:>7} | {:>8} {:>6}",
        "scenario", "outcome-fnv", "fault", "recov", "fps", "stall%", "quality", "dstall%", "dqual"
    );
    println!("{}", "-".repeat(95));

    for (i, &(name, spec)) in SCENARIOS.iter().enumerate() {
        obs::reset();
        let cfg = FaultConfig::from_spec(spec).unwrap_or_else(|e| panic!("scenario {name}: {e}"));
        let mut s =
            quick_session_with_device(PlayerKind::Volcast, USERS, FRAMES, 42, DeviceClass::Phone);
        s.params.analysis_points = 8_000;
        s.video = video.clone();
        s.params.delivery = DeliveryMode::Layered;
        if !cfg.is_quiet() {
            s.params.faults = Some(cfg);
        }
        let out = s
            .run()
            .unwrap_or_else(|e| panic!("layered scenario {name} failed: {e}"));
        let hash = fnv1a(out.to_json().to_json_string().as_bytes());
        let (stall0, qual0) = legacy[i];
        println!(
            "{:<16} 0x{:016x} | {:>6} {:>6} | {:>6.1} {:>6.1}% {:>7.2} | {:>+7.1}% {:>+6.2}",
            name,
            hash,
            out.fault_user_frames,
            out.recovered_user_frames,
            out.qoe.mean_fps(),
            out.qoe.mean_stall_ratio() * 100.0,
            out.qoe.mean_quality_score(),
            (out.qoe.mean_stall_ratio() - stall0) * 100.0,
            out.qoe.mean_quality_score() - qual0,
        );
        volcast_bench::dump_obs(&format!("faults_layered_{name}"));
    }

    println!("\nEvery faulted scenario must complete without panics; the blackout");
    println!("window degrades (stalls, quality clamps) and recovers once it ends.");
}
