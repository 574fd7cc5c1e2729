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

use std::collections::HashMap;
use std::process::ExitCode;
use volcast::core::session::DeliveryMode;
use volcast::core::{quick_session_with_device, AbrPolicy, MitigationMode, PlayerKind};
use volcast::net::FaultConfig;
use volcast::pointcloud::QualityLevel;
use volcast::viewport::{save_study, DeviceClass, UserStudy};

fn usage() -> &'static str {
    "volcast — multi-user volumetric video streaming simulator (HotNets'21)

USAGE:
  volcast session [--player vanilla|vivo|volcast] [--users N] [--frames N]
                  [--device phone|headset] [--quality low|medium|high|auto]
                  [--abr buffer|throughput|crosslayer]
                  [--delivery single|layered]
                  [--mitigation reactive|proactive] [--seed N]
                  [--faults SPEC]
  volcast study   [--seed N] [--frames N] [--phones N] [--headsets N]
                  --out FILE.json
  volcast info

Fault injection: --faults (or the VOLCAST_FAULTS env var) takes a spec like
  seed=7,outage=0.02:6,loss=0.03,blackout=30:10
The full grammar (every class, defaults, error behaviour) is documented on
the `volcast_net::faults` module (`cargo doc --open`).

Run the paper's experiments with `cargo run -p volcast-bench --bin <name>`
(table1, fig2a, fig2b, fig3b, fig3d, fig3e, ext_*, faults, campus)."
}

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn get_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{key}: '{v}'")),
    }
}

fn cmd_session(flags: HashMap<String, String>) -> Result<(), String> {
    let player = match flags.get("player").map(String::as_str).unwrap_or("volcast") {
        "vanilla" => PlayerKind::Vanilla,
        "vivo" => PlayerKind::Vivo,
        "volcast" => PlayerKind::Volcast,
        other => return Err(format!("unknown player '{other}'")),
    };
    let device = match flags.get("device").map(String::as_str).unwrap_or("headset") {
        "phone" => DeviceClass::Phone,
        "headset" => DeviceClass::Headset,
        other => return Err(format!("unknown device '{other}'")),
    };
    let quality = match flags.get("quality").map(String::as_str).unwrap_or("auto") {
        "low" => Some(QualityLevel::Low),
        "medium" => Some(QualityLevel::Medium),
        "high" => Some(QualityLevel::High),
        "auto" => None,
        other => return Err(format!("unknown quality '{other}'")),
    };
    let abr = match flags.get("abr").map(String::as_str).unwrap_or("crosslayer") {
        "buffer" => AbrPolicy::BufferOnly,
        "throughput" => AbrPolicy::ThroughputOnly,
        "crosslayer" => AbrPolicy::CrossLayer,
        other => return Err(format!("unknown abr '{other}'")),
    };
    // Layered delivery: multicast base layer + per-user unicast
    // enhancements + the proactive XOR-parity FEC rung (DESIGN.md §4).
    let delivery = match flags
        .get("delivery")
        .map(String::as_str)
        .unwrap_or("single")
    {
        "single" => DeliveryMode::Single,
        "layered" => DeliveryMode::Layered,
        other => return Err(format!("unknown delivery '{other}'")),
    };
    let mitigation = match flags
        .get("mitigation")
        .map(String::as_str)
        .unwrap_or("proactive")
    {
        "reactive" => MitigationMode::Reactive,
        "proactive" => MitigationMode::Proactive,
        other => return Err(format!("unknown mitigation '{other}'")),
    };
    let users: usize = get_parse(&flags, "users", 3)?;
    let frames: usize = get_parse(&flags, "frames", 90)?;
    let seed: u64 = get_parse(&flags, "seed", 42)?;
    // --faults wins over the VOLCAST_FAULTS environment variable.
    let fault_spec = flags
        .get("faults")
        .cloned()
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

fn cmd_study(flags: HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = get_parse(&flags, "seed", 42)?;
    let frames: usize = get_parse(&flags, "frames", 300)?;
    let phones: usize = get_parse(&flags, "phones", 16)?;
    let headsets: usize = get_parse(&flags, "headsets", 16)?;
    let out = flags
        .get("out")
        .ok_or_else(|| "--out FILE.json is required".to_string())?;
    let study = UserStudy::generate_with(seed, frames, phones, headsets);
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
    let result = match args.first().map(String::as_str) {
        Some("session") => parse_flags(&args[1..]).and_then(cmd_session),
        Some("study") => parse_flags(&args[1..]).and_then(cmd_study),
        Some("info") => {
            cmd_info();
            Ok(())
        }
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
