//! Extension D: proactive vs reactive blockage mitigation.
//!
//! The paper (§4.1) argues that prediction-driven proactive beam adaptation
//! avoids the 5-20 ms reactive re-search and its stalls. Persistent
//! crowd self-blockage is unfixable by any beam policy, so this experiment
//! isolates *transient* blockage — an ambient person repeatedly walking
//! across the AP-to-viewer paths — and compares:
//!
//! - no blockage (upper bound),
//! - reactive: one stale-beam frame + full sector sweep per onset,
//! - proactive: prefetch before onset + pre-steered reflected-path beam.
//!
//! Run: `cargo run --release -p volcast-bench --bin ext_blockage`

use volcast_core::session::quick_session_with_device;
use volcast_core::{MitigationMode, PlayerKind};
use volcast_geom::{Pose, Vec3};
use volcast_pointcloud::{QualityLevel, VideoSequence};
use volcast_viewport::{DeviceClass, Trace};

/// A person pacing along the x axis at `z`, crossing every viewer's LoS.
fn walker(frames: usize, z: f64, speed_mps: f64) -> Trace {
    let rate = 30.0;
    let span = 3.0; // walks x in [-3, 3]
    let poses = (0..frames)
        .map(|f| {
            let t = f as f64 / rate;
            // Triangle wave in [-span, span].
            let phase = (t * speed_mps / (2.0 * span)).fract();
            let x = if phase < 0.5 {
                -span + 4.0 * span * phase
            } else {
                3.0 * span - 4.0 * span * phase
            };
            Pose::new(Vec3::new(x, 1.7, z), Default::default())
        })
        .collect();
    Trace {
        user_id: usize::MAX,
        device: DeviceClass::Headset,
        rate_hz: rate,
        poses,
    }
}

fn main() {
    let frames = 300usize;
    println!("Ext D: transient blockage, 3 phone viewers + 1 crossing walker, Medium quality\n");
    println!(
        "{:<26} {:>9} {:>12} {:>12} {:>11}",
        "variant", "mean FPS", "stall ratio", "stall s/user", "blk-frames"
    );
    println!("{}", "-".repeat(74));

    // Every variant streams the same content: one cell manifest.
    let video = VideoSequence::default();
    let run = |label: &str, mitigation: MitigationMode, with_walker: bool| {
        let mut s =
            quick_session_with_device(PlayerKind::Volcast, 3, frames, 42, DeviceClass::Phone);
        s.params.mitigation = mitigation;
        s.params.fixed_quality = Some(QualityLevel::Medium);
        s.params.analysis_points = 10_000;
        s.video = video.clone();
        if with_walker {
            // Crossing between the viewer arc (z ~ 1-2) and the AP wall.
            s.walkers.push(walker(frames, 2.0, 1.2));
        }
        let out = s.run().unwrap();
        let stall_per_user: f64 =
            out.qoe.users.iter().map(|u| u.stall_time_s).sum::<f64>() / out.qoe.users.len() as f64;
        println!(
            "{:<26} {:>9.1} {:>12.3} {:>12.3} {:>11}",
            label,
            out.qoe.mean_fps(),
            out.qoe.mean_stall_ratio(),
            stall_per_user,
            out.blocked_user_frames
        );
    };

    run("no walker (upper bound)", MitigationMode::Proactive, false);
    run("reactive re-search", MitigationMode::Reactive, true);
    run("proactive (prediction)", MitigationMode::Proactive, true);

    println!("\nexpected shape: reactive pays a stale-beam frame and a full sweep");
    println!("at every crossing onset; proactive prefetch + pre-steered reflected");
    println!("beams close most of the gap to the no-walker bound.");
    volcast_bench::dump_obs("ext_blockage");
}
