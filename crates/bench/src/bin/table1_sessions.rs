//! Table 1 reproduced through *end-to-end sessions* (the analytic model is
//! `--bin table1`). Every row runs the full per-frame pipeline — traces,
//! visibility, scheduling, MAC, buffers, decoder — on the session engine,
//! for both networks:
//!
//! - `ac`: [`RadioKind::Wifi5`], log-distance 5 GHz channel + VHT MCS +
//!   contention MAC,
//! - `ad`: [`RadioKind::MmWave`], beams + DMG MCS + service-period MAC.
//!
//! Body blockage is disabled to match the paper's unobstructed measurement
//! setup (seated users, clear LoS).
//!
//! Run: `cargo run --release -p volcast-bench --bin table1_sessions`

use volcast_core::session::quick_session_with_device;
use volcast_core::{PlayerKind, RadioKind};
use volcast_pointcloud::{QualityLevel, VideoSequence};
use volcast_viewport::DeviceClass;

fn fps(
    video: &VideoSequence,
    radio: RadioKind,
    player: PlayerKind,
    users: usize,
    quality: QualityLevel,
) -> f64 {
    let mut s = quick_session_with_device(player, users, 60, 42, DeviceClass::Phone);
    s.video = video.clone();
    s.params.radio = radio;
    s.params.fixed_quality = Some(quality);
    s.params.analysis_points = 8_000;
    s.params.body_blockage = false;
    s.run().unwrap().qoe.mean_fps()
}

fn main() {
    println!("Table 1 via end-to-end sessions (max achievable FPS, cap 30)\n");
    println!(
        "{:<4} {:>5} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "net", "users", "V-330K", "V-430K", "V-550K", "ViVo330", "ViVo430", "ViVo550"
    );
    println!("{}", "-".repeat(70));

    let mut rows: Vec<(&str, RadioKind, usize)> = Vec::new();
    for n in 1..=3usize {
        rows.push(("ac", RadioKind::Wifi5, n));
    }
    for n in 1..=7usize {
        rows.push(("ad", RadioKind::MmWave, n));
    }

    // Every cell of the table streams the same content: one cell manifest.
    let video = VideoSequence::default();
    for (net, radio, n) in rows {
        let cell = |player: PlayerKind, q: QualityLevel| fps(&video, radio, player, n, q);
        println!(
            "{:<4} {:>5} | {:>7.1} {:>7.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1}",
            net,
            n,
            cell(PlayerKind::Vanilla, QualityLevel::Low),
            cell(PlayerKind::Vanilla, QualityLevel::Medium),
            cell(PlayerKind::Vanilla, QualityLevel::High),
            cell(PlayerKind::Vivo, QualityLevel::Low),
            cell(PlayerKind::Vivo, QualityLevel::Medium),
            cell(PlayerKind::Vivo, QualityLevel::High),
        );
    }
    println!("\nCross-check against `--bin table1` (analytic) and the paper:");
    println!("same 30-FPS crossovers, with session effects (buffers, per-frame");
    println!("scheduling) smoothing the sub-30 rows.");
    volcast_bench::dump_obs("table1_sessions");
}
