//! Extension B: component ablation of the volcast system.
//!
//! DESIGN.md calls out four design choices; this bench removes them one at
//! a time on the same 6-user High-quality workload:
//!
//! 1. full system (grouping + custom beams + cross-layer ABR + proactive
//!    mitigation),
//! 2. default beams only (no multi-lobe customization),
//! 3. buffer-only ABR (no cross-layer prediction),
//! 4. reactive blockage handling (no prediction-driven proactivity),
//! 5. no multicast at all (= multi-user ViVo).
//!
//! Run: `cargo run --release -p volcast-bench --bin ext_ablation`

use volcast_core::session::quick_session;
use volcast_core::{AbrPolicy, MitigationMode, PlayerKind};
use volcast_pointcloud::VideoSequence;

fn main() {
    let n = 8usize;
    let frames = 120usize;
    println!("Ext B: ablation, {n} headset users, adaptive quality, {frames} frames\n");
    println!(
        "{:<34} {:>9} {:>9} {:>9} {:>11}",
        "variant", "mean FPS", "stalls", "quality", "mcast bytes"
    );
    println!("{}", "-".repeat(76));

    // Every variant streams the same content: one cell manifest.
    let video = VideoSequence::default();
    let run = |label: &str,
               player: PlayerKind,
               custom_beams: bool,
               abr: AbrPolicy,
               mitigation: MitigationMode| {
        let mut s = quick_session(player, n, frames, 42);
        s.params.custom_beams = custom_beams;
        s.params.abr = abr;
        s.params.mitigation = mitigation;
        s.params.analysis_points = 10_000;
        s.video = video.clone();
        let out = s.run().unwrap();
        println!(
            "{:<34} {:>9.1} {:>9.3} {:>9.2} {:>10.0}%",
            label,
            out.qoe.mean_fps(),
            out.qoe.mean_stall_ratio(),
            out.qoe.mean_quality_score(),
            out.multicast_byte_fraction * 100.0
        );
    };

    run(
        "full volcast",
        PlayerKind::Volcast,
        true,
        AbrPolicy::CrossLayer,
        MitigationMode::Proactive,
    );
    run(
        "- custom beams (default sectors)",
        PlayerKind::Volcast,
        false,
        AbrPolicy::CrossLayer,
        MitigationMode::Proactive,
    );
    run(
        "- cross-layer ABR (buffer-only)",
        PlayerKind::Volcast,
        true,
        AbrPolicy::BufferOnly,
        MitigationMode::Proactive,
    );
    run(
        "- proactive mitigation (reactive)",
        PlayerKind::Volcast,
        true,
        AbrPolicy::CrossLayer,
        MitigationMode::Reactive,
    );
    run(
        "- multicast entirely (ViVo)",
        PlayerKind::Vivo,
        false,
        AbrPolicy::CrossLayer,
        MitigationMode::Proactive,
    );

    println!("\nexpected shape: each removal costs FPS and/or quality; losing");
    println!("multicast entirely costs the most at this user count.");
    volcast_bench::dump_obs("ext_ablation");
}
