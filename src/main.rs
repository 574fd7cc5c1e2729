//! `volcast` command-line interface.
//!
//! Thin front end over the library for running sessions and generating
//! trace studies without writing Rust:
//!
//! ```text
//! volcast session --player volcast --users 4 --frames 120 --device phone
//! volcast study --seed 42 --frames 300 --out study.json
//! volcast info
//! ```

use std::process::ExitCode;
use volcast::core::session::validate_traces;
use volcast::core::session::DeliveryMode;
use volcast::core::{quick_session_with_device, AbrPolicy, MitigationMode, PlayerKind};
use volcast::net::FaultConfig;
use volcast::pointcloud::QualityLevel;
use volcast::viewport::{save_study, DeviceClass, UserStudy};
use volcast_util::flags::Flags;

/// Each subcommand's usage line: the flags it names are the flags it takes.
const SESSION_USAGE: &str =
    "volcast session [--player vanilla|vivo|volcast] [--users N] [--frames N]
                  [--device phone|headset] [--quality low|medium|high|auto]
                  [--abr buffer|throughput|crosslayer]
                  [--delivery single|layered]
                  [--mitigation reactive|proactive] [--seed N]
                  [--faults SPEC]";
const STUDY_USAGE: &str = "volcast study   [--seed N] [--frames N] [--phones N] [--headsets N]
                  --out FILE.json";
const INFO_USAGE: &str = "volcast info";

fn usage() -> String {
    format!(
        "volcast — multi-user volumetric video streaming simulator (HotNets'21)

USAGE:
  {SESSION_USAGE}
  {STUDY_USAGE}
  {INFO_USAGE}

Fault injection: --faults (or the VOLCAST_FAULTS env var) takes a spec like
  seed=7,outage=0.02:6,loss=0.03,blackout=30:10
The full grammar (every class, defaults, error behaviour) is documented on
the `volcast_net::faults` module (`cargo doc --open`).

Run the paper's experiments with `cargo run -p volcast-bench --bin <name>`
(table1, fig2a, fig2b, fig3b, fig3d, fig3e, ext_*, faults, campus)."
    )
}

fn cmd_session(flags: Flags) -> Result<(), String> {
    let player = match flags.get("--player").unwrap_or("volcast") {
        "vanilla" => PlayerKind::Vanilla,
        "vivo" => PlayerKind::Vivo,
        "volcast" => PlayerKind::Volcast,
        other => return Err(format!("unknown player '{other}'")),
    };
    let device = match flags.get("--device").unwrap_or("headset") {
        "phone" => DeviceClass::Phone,
        "headset" => DeviceClass::Headset,
        other => return Err(format!("unknown device '{other}'")),
    };
    let quality = match flags.get("--quality").unwrap_or("auto") {
        "low" => Some(QualityLevel::Low),
        "medium" => Some(QualityLevel::Medium),
        "high" => Some(QualityLevel::High),
        "auto" => None,
        other => return Err(format!("unknown quality '{other}'")),
    };
    let abr = match flags.get("--abr").unwrap_or("crosslayer") {
        "buffer" => AbrPolicy::BufferOnly,
        "throughput" => AbrPolicy::ThroughputOnly,
        "crosslayer" => AbrPolicy::CrossLayer,
        other => return Err(format!("unknown abr '{other}'")),
    };
    // Layered delivery: multicast base layer + per-user unicast
    // enhancements + the proactive XOR-parity FEC rung (DESIGN.md §4).
    let delivery = match flags.get("--delivery").unwrap_or("single") {
        "single" => DeliveryMode::Single,
        "layered" => DeliveryMode::Layered,
        other => return Err(format!("unknown delivery '{other}'")),
    };
    let mitigation = match flags.get("--mitigation").unwrap_or("proactive") {
        "reactive" => MitigationMode::Reactive,
        "proactive" => MitigationMode::Proactive,
        other => return Err(format!("unknown mitigation '{other}'")),
    };
    let users: usize = flags.try_value("--users", 3)?;
    let frames: usize = flags.try_value("--frames", 90)?;
    let seed: u64 = flags.try_value("--seed", 42)?;
    // --faults wins over the VOLCAST_FAULTS environment variable.
    let fault_spec = flags
        .get("--faults")
        .map(str::to_string)
        .or_else(|| std::env::var("VOLCAST_FAULTS").ok());
    let faults = match fault_spec {
        Some(spec) if !spec.trim().is_empty() => {
            Some(FaultConfig::from_spec(&spec).map_err(|e| e.to_string())?)
        }
        _ => None,
    };

    let mut session = quick_session_with_device(player, users, frames, seed, device);
    session.params.fixed_quality = quality;
    session.params.abr = abr;
    session.params.delivery = delivery;
    session.params.mitigation = mitigation;
    session.params.faults = faults;
    let out = session.run().map_err(|e| e.to_string())?;

    println!(
        "{} | {} {:?} users, {} frames, seed {}",
        player.label(),
        users,
        device,
        frames,
        seed
    );
    println!("  mean FPS          {:>8.1}", out.qoe.mean_fps());
    println!("  stall ratio       {:>8.3}", out.qoe.mean_stall_ratio());
    println!(
        "  mean quality      {:>8.2}  (0=Low .. 2=High)",
        out.qoe.mean_quality_score()
    );
    println!("  fairness (FPS)    {:>8.3}", out.qoe.fps_fairness());
    println!(
        "  frame airtime     {:>8.2} ms",
        out.mean_frame_time_s * 1e3
    );
    println!(
        "  multicast bytes   {:>7.0}%",
        out.multicast_byte_fraction * 100.0
    );
    println!("  mean group size   {:>8.2}", out.mean_group_size);
    println!("  blocked frames    {:>8}", out.blocked_user_frames);
    println!("  pred. error       {:>8.3} m", out.mean_prediction_error_m);
    if out.fault_user_frames > 0 {
        println!(
            "  faults absorbed   {:>5}/{:<5} (recovered/injected user-frames)",
            out.recovered_user_frames, out.fault_user_frames
        );
    }
    Ok(())
}

fn cmd_study(flags: Flags) -> Result<(), String> {
    let seed: u64 = flags.try_value("--seed", 42)?;
    let frames: usize = flags.try_value("--frames", 300)?;
    let phones: usize = flags.try_value("--phones", 16)?;
    let headsets: usize = flags.try_value("--headsets", 16)?;
    let out = flags
        .get("--out")
        .ok_or_else(|| "--out FILE.json is required".to_string())?;
    let study = UserStudy::generate_with(seed, frames, phones, headsets);
    // A study no session could replay is refused, not written.
    validate_traces(&study.traces).map_err(|e| e.to_string())?;
    save_study(&study, out).map_err(|e| e.to_string())?;
    println!("wrote {} users x {} frames to {}", study.len(), frames, out);
    Ok(())
}

fn cmd_info() {
    println!("volcast {}", env!("CARGO_PKG_VERSION"));
    println!("{}", env!("CARGO_PKG_DESCRIPTION"));
    println!();
    println!("calibration anchors:");
    println!("  802.11ac 1-user rate   374 Mbps   (paper Table 1)");
    println!("  802.11ad 1-user rate   1270 Mbps  (paper Table 1)");
    println!("  -68 dBm               385 Mbps   (DMG MCS1; paper §4.2)");
    println!("  beam re-search         5-20 ms    (paper §4.1)");
    println!("  quality ladder         330K/430K/550K pts, 235-364 Mbps");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = |usage| Flags::parse(&args[1..], usage);
    let result = match args.first().map(String::as_str) {
        Some("session") => flags(SESSION_USAGE).and_then(cmd_session),
        Some("study") => flags(STUDY_USAGE).and_then(cmd_study),
        Some("info") => flags(INFO_USAGE).map(|_| cmd_info()),
        Some("--help") | Some("-h") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
