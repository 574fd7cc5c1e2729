//! Extension A: full-system user scaling.
//!
//! The paper's Table 1 asks "how many users can we serve at 30 FPS?"
//! for vanilla and ViVo. This experiment answers the follow-on question
//! the research agenda poses: how far does the *full* volcast system
//! (visibility culling + similarity multicast + custom beams + cross-layer
//! adaptation) stretch the same network? End-to-end sessions, high
//! quality, 2..=10 users.
//!
//! Run: `cargo run --release -p volcast-bench --bin ext_scaling`

use volcast_core::session::quick_session_with_device;
use volcast_core::PlayerKind;
use volcast_pointcloud::{QualityLevel, VideoSequence};
use volcast_viewport::DeviceClass;

fn main() {
    println!("Ext A: end-to-end user scaling at fixed High quality (550K pts)\n");
    println!(
        "{:<6} {:<18} {:>9} {:>12} {:>12} {:>12}",
        "users", "player", "mean FPS", "stall ratio", "frame ms", "mcast bytes"
    );
    println!("{}", "-".repeat(74));
    // Every (users, player) configuration is an independent seeded
    // session; replicate them across threads and print rows in config
    // order (nested parallel regions inside a session run serially).
    let sizes = [2usize, 3, 4, 5, 6, 8, 10];
    let players = [PlayerKind::Vanilla, PlayerKind::Vivo, PlayerKind::Volcast];
    let configs: Vec<(usize, PlayerKind)> = sizes
        .iter()
        .flat_map(|&n| players.iter().map(move |&p| (n, p)))
        .collect();
    // They all stream the same content, so they share its cell manifest.
    let video = VideoSequence::default();
    let rows: Vec<String> = volcast_util::par::par_map(&configs, |&(n, player)| {
        // Classroom scenario: phone viewers clustered in a frontal
        // arc — the paper's motivating multi-user case, where viewport
        // overlap (and thus multicast opportunity) is highest.
        let mut s = quick_session_with_device(player, n, 90, 42, DeviceClass::Phone);
        s.params.fixed_quality = Some(QualityLevel::High);
        s.params.analysis_points = 10_000;
        s.video = video.clone();
        let out = s.run().unwrap();
        format!(
            "{:<6} {:<18} {:>9.1} {:>12.3} {:>12.2} {:>11.0}%",
            n,
            player.label(),
            out.qoe.mean_fps(),
            out.qoe.mean_stall_ratio(),
            out.mean_frame_time_s * 1e3,
            out.multicast_byte_fraction * 100.0
        )
    });
    for (i, row) in rows.iter().enumerate() {
        println!("{row}");
        if (i + 1) % players.len() == 0 {
            println!();
        }
    }
    println!("expected shape: volcast sustains 30 FPS for more users than ViVo,");
    println!("which beats vanilla; multicast fraction grows with co-viewing users.");
    volcast_bench::dump_obs("ext_scaling");
}
