//! Property tests for the grouping planner and QoE accounting.

use volcast_core::{GroupPlan, GroupPlanner, GroupingInputs, SystemConfig, UserQoe};
use volcast_pointcloud::{CellId, CellInfo, QualityLevel};
use volcast_util::prop::run_cases_n;
use volcast_util::rng::Rng;
use volcast_viewport::VisibilityMap;

/// Random visibility maps over a small universe of cells: each user sees
/// each cell with probability 1/2.
fn arb_maps(rng: &mut Rng, users: usize, cells: usize) -> Vec<VisibilityMap> {
    (0..users)
        .map(|_| {
            let seen = (0..cells).filter(|_| rng.gen()).map(|rank| (rank, 1.0));
            VisibilityMap::from_ranks(cells, seen)
        })
        .collect()
}

fn arb_rates(rng: &mut Rng, users: usize) -> Vec<f64> {
    (0..users).map(|_| rng.gen_range(100.0..3000.0)).collect()
}

fn universe(cells: i32) -> (Vec<CellInfo>, Vec<f64>) {
    let partition: Vec<CellInfo> = (0..cells)
        .map(|x| CellInfo {
            id: CellId::new(x, 0, 0),
            point_count: 50,
        })
        .collect();
    let sizes = vec![80_000.0; cells as usize];
    (partition, sizes)
}

/// Plans `maps` over an 8-cell universe at one multicast rate for every set.
fn plan_frame(maps: &[VisibilityMap], rates: &[f64], mc_rate: f64) -> GroupPlan {
    let (partition, sizes) = universe(8);
    GroupPlanner::new(SystemConfig::default()).plan(&GroupingInputs {
        maps,
        partition: &partition,
        cell_sizes: &sizes,
        unicast_rate_mbps: rates,
        multicast_rate_mbps: &|_| mc_rate,
    })
}

#[test]
fn groups_partition_the_users() {
    run_cases_n("groups_partition_the_users", 48, |rng| {
        let (maps, rates) = (arb_maps(rng, 5, 8), arb_rates(rng, 5));
        let plan = plan_frame(&maps, &rates, rng.gen_range(100.0..3000.0));
        // Every user appears in exactly one group.
        let mut seen = vec![0usize; 5];
        for g in &plan.groups {
            for &u in &g.members {
                seen[u] += 1;
            }
            // Member lists are sorted and non-empty.
            assert!(!g.members.is_empty());
            assert!(g.members.windows(2).all(|w| w[0] < w[1]));
            assert!((0.0..=1.0).contains(&g.iou));
        }
        assert!(seen.iter().all(|&c| c == 1), "user in {seen:?} groups");
    });
}

#[test]
fn plan_never_worse_than_all_unicast() {
    run_cases_n("plan_never_worse_than_all_unicast", 48, |rng| {
        let (maps, rates) = (arb_maps(rng, 4, 8), arb_rates(rng, 4));
        let plan = plan_frame(&maps, &rates, rng.gen_range(100.0..3000.0));
        // All-unicast baseline time.
        let (_, sizes) = universe(8);
        let unicast_time: f64 = maps
            .iter()
            .zip(&rates)
            .map(|(m, &r)| m.required_bytes(&sizes) * 8.0 / (r * 1e6))
            .sum();
        let planned = plan.estimated_time_s;
        assert!(
            planned <= unicast_time + 1e-12,
            "plan {planned} worse than unicast {unicast_time}"
        );
    });
}

#[test]
fn higher_multicast_rate_never_slows_the_plan() {
    run_cases_n("higher_multicast_rate_never_slows_the_plan", 48, |rng| {
        let maps = arb_maps(rng, 4, 8);
        let (rate_lo, bump) = (rng.gen_range(100.0..1000.0), rng.gen_range(1.0..3.0));
        let time_at = |mc_rate| plan_frame(&maps, &[1500.0; 4], mc_rate).estimated_time_s;
        assert!(time_at(rate_lo * bump) <= time_at(rate_lo) + 1e-12);
    });
}

#[test]
fn qoe_accounting_is_consistent() {
    run_cases_n("qoe_accounting_is_consistent", 48, |rng| {
        let n = rng.gen_range(1..100usize);
        let outcomes: Vec<(bool, f64)> = (0..n)
            .map(|_| (rng.gen(), rng.gen_range(0.0..0.1)))
            .collect();
        let mut q = UserQoe::default();
        for &(on_time, stall) in &outcomes {
            q.record_frame(on_time, stall, QualityLevel::Medium);
        }
        assert_eq!(q.frames(), outcomes.len());
        let stalled = outcomes.iter().filter(|&&(ok, _)| !ok).count();
        assert_eq!(q.frames_stalled, stalled);
        assert!((0.0..=1.0).contains(&q.stall_ratio()));
        // Stall time only accumulates on stalled frames.
        let stalls = outcomes.iter().filter(|&&(ok, _)| !ok);
        let expect: f64 = stalls.map(|&(_, s)| s).sum();
        assert!((q.stall_time_s - expect).abs() < 1e-9);
        assert_eq!(q.quality_switches, 0);
    });
}
