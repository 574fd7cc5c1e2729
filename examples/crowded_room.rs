//! Crowded room: blockage forecasting and proactive mitigation in action.
//!
//! Three phone viewers watch the subject while another person paces across
//! the room. The example prints which links the forecaster predicts will be
//! blocked (and when), then compares end-to-end session QoE under reactive
//! vs proactive mitigation.
//!
//! Run: `cargo run --release --example crowded_room`

use volcast::core::{quick_session_with_device, BlockageMitigator, MitigationMode, PlayerKind};
use volcast::geom::{Pose, Vec3};
use volcast::pointcloud::QualityLevel;
use volcast::viewport::{BlockageForecaster, DeviceClass, JointPredictor, Trace};

fn walker(frames: usize) -> Trace {
    let poses = (0..frames)
        .map(|f| {
            let t = f as f64 / 30.0;
            let phase = (t * 1.2 / 12.0).fract();
            let x = if phase < 0.5 {
                -3.0 + 12.0 * phase
            } else {
                9.0 - 12.0 * phase
            };
            Pose::new(Vec3::new(x, 1.7, 2.0), Default::default())
        })
        .collect();
    Trace {
        user_id: usize::MAX,
        device: DeviceClass::Headset,
        rate_hz: 30.0,
        poses,
    }
}

fn main() {
    let frames = 240usize;
    let users = 3usize;

    // --- 1. forecast demo: who gets blocked, and when ------------------
    let session =
        quick_session_with_device(PlayerKind::Volcast, users, frames, 42, DeviceClass::Phone);
    let forecaster = BlockageForecaster::new(session.channel.array.position);
    let mitigator = BlockageMitigator::new(MitigationMode::Proactive);
    let w = walker(frames);
    let mut joint = JointPredictor::new(users, 15, Default::default());

    println!("Blockage forecast timeline (proactive horizon = 10 frames):");
    // One report per victim per crossing (15-frame cooldown).
    let mut last_report = vec![-100i64; users];
    let mut actions = Vec::new();
    for f in 0..frames {
        let poses: Vec<Pose> = (0..users).map(|u| session.traces[u].pose(f)).collect();
        joint.observe_frame(&poses);
        // Forecast over the next 10 frames; the walker is extrapolated
        // from its trace (its motion is linear).
        let series: Vec<Vec<Pose>> = (0..=10)
            .map(|h| {
                let mut frame_poses = Vec::new();
                if h == 0 || !joint.predict_frame_into(h, &mut frame_poses) {
                    frame_poses.clone_from(&poses);
                }
                frame_poses.push(w.pose((f + h).min(frames - 1)));
                frame_poses
            })
            .collect();
        let events: Vec<_> = forecaster
            .forecast(&series)
            .into_iter()
            .filter(|e| e.blocker == users) // walker-caused only
            .collect();
        for e in &events {
            if e.onset_frames > 0 && f as i64 - last_report[e.victim] > 15 {
                mitigator.plan_into(&[*e], &mut actions);
                println!(
                    "  frame {f:>3}: user {} will be blocked in {} frames -> prefetch {} frames, pre-steer beam ({:.1} ms switch)",
                    e.victim,
                    e.onset_frames,
                    actions[0].prefetch_frames,
                    actions[0].beam_outage_s * 1e3
                );
                last_report[e.victim] = f as i64;
            }
        }
    }

    // --- 2. end-to-end comparison ---------------------------------------
    println!("\nEnd-to-end effect (3 viewers + walker, Medium quality):");
    println!(
        "{:<26} {:>9} {:>12} {:>12}",
        "mitigation", "mean FPS", "stall ratio", "blk-frames"
    );
    for (label, mode) in [
        ("reactive re-search", MitigationMode::Reactive),
        ("proactive (prediction)", MitigationMode::Proactive),
    ] {
        let mut s =
            quick_session_with_device(PlayerKind::Volcast, users, frames, 42, DeviceClass::Phone);
        s.params.mitigation = mode;
        s.params.fixed_quality = Some(QualityLevel::Medium);
        s.params.analysis_points = 10_000;
        s.walkers.push(walker(frames));
        let out = s.run().unwrap();
        println!(
            "{:<26} {:>9.1} {:>12.3} {:>12}",
            label,
            out.qoe.mean_fps(),
            out.qoe.mean_stall_ratio(),
            out.blocked_user_frames
        );
    }
}
