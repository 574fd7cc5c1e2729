//! Extension F: sensitivity of the full system to its two key knobs.
//!
//! 1. **Cell size** (25/50/100 cm): finer cells cull more precisely but
//!    lower inter-user IoU (Fig. 2b) and multiply per-cell overheads;
//!    coarser cells overlap more but fetch more waste.
//! 2. **Viewport prediction**: planning on predicted poses (the deployable
//!    system) vs oracle current poses (upper bound), across horizons.
//!
//! Run: `cargo run --release -p volcast-bench --bin ext_sensitivity`

use volcast_core::session::quick_session_with_device;
use volcast_core::PlayerKind;
use volcast_pointcloud::{QualityLevel, VideoSequence};
use volcast_viewport::DeviceClass;

fn main() {
    let users = 6usize;
    let frames = 90usize;

    println!("Ext F1: cell-size sensitivity ({users} phone users, High quality)\n");
    println!(
        "{:<10} {:>9} {:>12} {:>12} {:>12}",
        "cell size", "mean FPS", "stall ratio", "mcast bytes", "frame ms"
    );
    println!("{}", "-".repeat(60));
    // Each cell size is an independent seeded session; run them across
    // threads and print rows in config order. All seven sessions stream
    // the same content, so they share its cell manifest (one entry per
    // frame and grid).
    let video = VideoSequence::default();
    let cells = [0.25f64, 0.5, 1.0];
    let cell_rows: Vec<String> = volcast_util::par::par_map(&cells, |&cell| {
        let mut s =
            quick_session_with_device(PlayerKind::Volcast, users, frames, 42, DeviceClass::Phone);
        s.params.config.cell_size = cell;
        s.params.fixed_quality = Some(QualityLevel::High);
        s.params.analysis_points = 10_000;
        s.video = video.clone();
        let out = s.run().unwrap();
        format!(
            "{:<10} {:>9.1} {:>12.3} {:>11.0}% {:>12.2}",
            format!("{} cm", (cell * 100.0) as u32),
            out.qoe.mean_fps(),
            out.qoe.mean_stall_ratio(),
            out.multicast_byte_fraction * 100.0,
            out.mean_frame_time_s * 1e3,
        )
    });
    for row in &cell_rows {
        println!("{row}");
    }

    println!("\nExt F2: prediction sensitivity (same workload)\n");
    println!(
        "{:<26} {:>9} {:>12} {:>14}",
        "planning poses", "mean FPS", "stall ratio", "pred err (m)"
    );
    println!("{}", "-".repeat(64));
    let settings = [
        ("oracle (current poses)", false, 10usize),
        ("predicted, horizon 5", true, 5),
        ("predicted, horizon 10", true, 10),
        ("predicted, horizon 20", true, 20),
    ];
    let pred_rows: Vec<String> =
        volcast_util::par::par_map(&settings, |&(label, use_prediction, horizon)| {
            let mut s = quick_session_with_device(
                PlayerKind::Volcast,
                users,
                frames,
                42,
                DeviceClass::Phone,
            );
            s.params.use_prediction = use_prediction;
            s.params.config.prediction_horizon = horizon;
            s.params.fixed_quality = Some(QualityLevel::High);
            s.params.analysis_points = 10_000;
            s.video = video.clone();
            let out = s.run().unwrap();
            format!(
                "{:<26} {:>9.1} {:>12.3} {:>14.3}",
                label,
                out.qoe.mean_fps(),
                out.qoe.mean_stall_ratio(),
                out.mean_prediction_error_m,
            )
        });
    for row in &pred_rows {
        println!("{row}");
    }

    println!("\nexpected shape: 50 cm cells balance overlap against precision;");
    println!("longer horizons cost prediction accuracy but the system degrades");
    println!("gracefully (visibility maps absorb centimeter-level pose error).");
    volcast_bench::dump_obs("ext_sensitivity");
}
