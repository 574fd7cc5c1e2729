//! Extension E: multi-AP coordination (§5 open challenge).
//!
//! Two APs on opposite walls serve disjoint multicast groups concurrently
//! (mmWave directionality permits the spatial reuse). This experiment
//! compares one AP vs two coordinated APs on the same user population:
//! per-AP group common RSS, interference margins, and the aggregate
//! multicast capacity implied by the min-member MCS.
//!
//! Run: `cargo run --release -p volcast-bench --bin ext_multiap`

use volcast_bench::{mean, Context};
use volcast_geom::Vec3;
use volcast_mmwave::{
    Channel, Codebook, McsTable, MultiLobeDesigner, PlanarArray, Room, SweepEngine,
};
use volcast_pointcloud::{CellGrid, SyntheticBody};
use volcast_viewport::{VisibilityComputer, VisibilityOptions};

fn main() {
    let frames = 200usize;
    let ctx = Context::standard(42, frames);
    let mcs = McsTable::dmg();

    // Second AP on the opposite wall.
    let room = Room::default();
    let pos2 = Vec3::new(0.0, 2.6, -room.depth / 2.0 + 0.1);
    let channel2 = Channel::new(
        room,
        PlanarArray::airfide(pos2, Vec3::new(0.0, 1.3, 0.0) - pos2),
    );
    let codebook2 = Codebook::default_for(&channel2.array);

    let engines = [
        SweepEngine::new(&ctx.channel, &ctx.codebook),
        SweepEngine::new(&channel2, &codebook2),
    ];
    let mut coord = volcast_core::EpochCoordinator::new();

    let body = SyntheticBody::default();
    let grid = CellGrid::new(0.5);
    let users: Vec<usize> = (0..8).collect();

    let mut single_rates = Vec::new();
    let mut dual_rates = Vec::new();
    let mut margins = Vec::new();
    for f in (0..frames).step_by(20) {
        let positions: Vec<Vec3> = users
            .iter()
            .map(|&u| ctx.study.traces[u].pose(f).position)
            .collect();
        let cloud = body.frame(f as u64, 15_000);
        let partition = grid.partition(&cloud);
        let maps: Vec<_> = users
            .iter()
            .map(|&u| {
                let trace = &ctx.study.traces[u];
                let vc = VisibilityComputer::new(VisibilityOptions {
                    intrinsics: trace.device.intrinsics(),
                    occlusion: false,
                    distance: false,
                    ..VisibilityOptions::default()
                });
                vc.compute(&trace.pose(f), &grid, &partition)
            })
            .collect();

        // Single AP: one multicast group of everyone.
        let d1 = MultiLobeDesigner::new(&ctx.channel, &ctx.codebook);
        let one = d1.design(&positions, &[]);
        single_rates.push(mcs.phy_rate_mbps(one.common_rss_dbm()));

        // Two APs: coordinator splits users, each AP multicasts its group;
        // both transmit concurrently (spatial reuse).
        coord.assign_similar(&engines, &positions, &maps, 0.4);
        let aggregate: f64 = (0..engines.len())
            .filter_map(|ap| coord.ap_common_rss_dbm(ap))
            .map(|r| mcs.phy_rate_mbps(r))
            .sum();
        dual_rates.push(aggregate);
        margins.push(coord.min_interference_margin_db);
    }

    println!("Ext E: multi-AP coordination, 8 users, multicast common-MCS capacity\n");
    println!(
        "single AP (1 group of 8):  mean multicast PHY rate {:>8.0} Mbps",
        mean(&single_rates)
    );
    println!(
        "two APs (split groups):    mean aggregate PHY rate {:>8.0} Mbps",
        mean(&dual_rates)
    );
    println!(
        "speedup: {:.2}x   min inter-AP interference margin: {:.1} dB",
        mean(&dual_rates) / mean(&single_rates).max(1.0),
        margins.iter().copied().fold(f64::INFINITY, f64::min)
    );
    println!("\nexpected shape: two coordinated APs more than double the 8-user");
    println!("multicast capacity (smaller groups -> higher common MCS, plus");
    println!("concurrent service periods), with comfortably positive margins.");
    volcast_bench::dump_obs("ext_multiap");
}
