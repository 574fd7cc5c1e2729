//! Table 1: performance of multi-user volumetric video streaming with the
//! vanilla and multi-user-ViVo systems over 802.11ac and 802.11ad.
//!
//! For each network, user count and quality version, reports the per-user
//! data rate and the maximum achievable frame rate (capped at 30 FPS) for
//! both players. The ViVo rows apply the measured mean visibility fraction
//! (viewport + distance + occlusion culling) from the synthetic user study.
//!
//! Run: `cargo run --release -p volcast-bench --bin table1`

use volcast_bench::Context;
use volcast_core::max_sustainable_fps;
use volcast_net::{AcMac, AdMac, MacModel};
use volcast_pointcloud::{CellGrid, DecodeModel, Ladder, QualityLevel, SyntheticBody};
use volcast_viewport::{VisibilityComputer, VisibilityOptions};

/// Measures the mean fraction of the frame's points a ViVo player fetches
/// (LOD-weighted), averaged over users and sampled frames.
fn vivo_visibility_fraction(ctx: &Context) -> f64 {
    let body = SyntheticBody::default();
    let grid = CellGrid::new(0.5);
    let mut total = 0.0;
    let mut count = 0usize;
    for f in (0..ctx.frames).step_by(30) {
        let cloud = body.frame(f as u64, 20_000);
        let partition = grid.partition(&cloud);
        let points: Vec<f64> = partition.iter().map(|c| c.point_count as f64).collect();
        let total_points: f64 = points.iter().sum();
        for trace in &ctx.study.traces {
            let vc = VisibilityComputer::new(VisibilityOptions {
                intrinsics: trace.device.intrinsics(),
                ..VisibilityOptions::vivo()
            });
            let map = vc.compute(&trace.pose(f), &grid, &partition);
            total += map.required_bytes(&points) / total_points;
            count += 1;
        }
    }
    total / count as f64
}

fn main() {
    let ctx = Context::standard(42, 240);
    let decode = DecodeModel::default();
    let vivo_fraction = vivo_visibility_fraction(&ctx);
    println!("Measured ViVo visibility fraction: {vivo_fraction:.3}\n");

    println!("Table 1: Performance of multi-user volumetric video streaming with");
    println!("vanilla and multi-user ViVo systems (max achievable FPS, cap 30).\n");
    println!(
        "{:<4} {:>5} {:>10} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "net", "users", "rate Mbps", "V-330K", "V-430K", "V-550K", "ViVo330", "ViVo430", "ViVo550"
    );
    println!("{}", "-".repeat(88));

    let ac = AcMac::default();
    let ad = AdMac::default();
    // PHY anchors: VHT80 2SS MCS9 for ac; DMG MCS9 for well-placed ad users.
    let ac_phy = 866.7;
    let ad_phy = 2502.5;

    let mut rows: Vec<(&str, usize, f64)> = Vec::new();
    for n in 1..=3usize {
        rows.push(("ac", n, ac.per_user_rate_mbps(ac_phy, n)));
    }
    for n in 1..=7usize {
        rows.push(("ad", n, ad.per_user_rate_mbps(ad_phy, n)));
    }

    for (net, n, rate) in rows {
        let fps = |q: QualityLevel, fraction: f64| -> f64 {
            let quality = Ladder::paper().quality(q);
            max_sustainable_fps(
                rate,
                quality.full_frame_bytes() * fraction,
                quality.points_per_frame,
                &decode,
                30.0,
            )
        };
        println!(
            "{:<4} {:>5} {:>10.0} | {:>7.1} {:>7.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1}",
            net,
            n,
            rate,
            fps(QualityLevel::Low, 1.0),
            fps(QualityLevel::Medium, 1.0),
            fps(QualityLevel::High, 1.0),
            fps(QualityLevel::Low, vivo_fraction),
            fps(QualityLevel::Medium, vivo_fraction),
            fps(QualityLevel::High, vivo_fraction),
        );
    }

    println!();
    println!("Paper anchors: ac/1 user = 374 Mbps & 30 FPS everywhere;");
    println!("ad/1 user = 1270 Mbps; vanilla ad supports 3 users at 30 FPS (550K),");
    println!("ViVo stretches that to ~5; at 7 users vanilla high ~11 FPS, ViVo ~17.");
    volcast_bench::dump_obs("table1");
}
