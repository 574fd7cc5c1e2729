//! Property tests for the grouping planner and QoE accounting.

use volcast_core::{GroupPlanner, GroupingInputs, SystemConfig, UserQoe};
use volcast_pointcloud::{CellId, CellInfo, QualityLevel};
use volcast_util::prop::prelude::*;
use volcast_viewport::VisibilityMap;

/// Random visibility maps over a small universe of cells.
fn arb_maps(users: usize, cells: i32) -> impl Strategy<Value = Vec<VisibilityMap>> {
    prop::collection::vec(
        prop::collection::vec(any::<bool>(), cells as usize),
        users..=users,
    )
    .prop_map(move |rows| {
        rows.into_iter()
            .map(|row| {
                let seen = row.iter().enumerate().filter(|(_, &vis)| vis);
                VisibilityMap::from_ranks(row.len(), seen.map(|(rank, _)| (rank, 1.0)))
            })
            .collect()
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn groups_partition_the_users(maps in arb_maps(5, 8),
                                  rates in prop::collection::vec(100.0f64..3000.0, 5),
                                  mc_rate in 100.0f64..3000.0) {
        let (partition, sizes) = universe(8);
        let mc = move |_: &[usize]| mc_rate;
        let plan = GroupPlanner::new(SystemConfig::default()).plan(&GroupingInputs {
            maps: &maps,
            partition: &partition,
            cell_sizes: &sizes,
            unicast_rate_mbps: &rates,
            multicast_rate_mbps: &mc,
        });
        // Every user appears in exactly one group.
        let mut seen = vec![0usize; 5];
        for g in &plan.groups {
            for &u in &g.members {
                seen[u] += 1;
            }
            // Member lists are sorted and non-empty.
            prop_assert!(!g.members.is_empty());
            prop_assert!(g.members.windows(2).all(|w| w[0] < w[1]));
            prop_assert!((0.0..=1.0).contains(&g.iou));
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "user in {seen:?} groups");
    }

    #[test]
    fn plan_never_worse_than_all_unicast(maps in arb_maps(4, 8),
                                         rates in prop::collection::vec(100.0f64..3000.0, 4),
                                         mc_rate in 100.0f64..3000.0) {
        let (partition, sizes) = universe(8);
        let mc = move |_: &[usize]| mc_rate;
        let planner = GroupPlanner::new(SystemConfig::default());
        let plan = planner.plan(&GroupingInputs {
            maps: &maps,
            partition: &partition,
            cell_sizes: &sizes,
            unicast_rate_mbps: &rates,
            multicast_rate_mbps: &mc,
        });
        // All-unicast baseline time.
        let unicast_time: f64 = maps
            .iter()
            .zip(&rates)
            .map(|(m, &r)| m.required_bytes(&sizes) * 8.0 / (r * 1e6))
            .sum();
        prop_assert!(
            plan.estimated_time_s <= unicast_time + 1e-12,
            "plan {} worse than unicast {}",
            plan.estimated_time_s,
            unicast_time
        );
    }

    #[test]
    fn higher_multicast_rate_never_slows_the_plan(maps in arb_maps(4, 8),
                                                  rate_lo in 100.0f64..1000.0,
                                                  bump in 1.0f64..3.0) {
        let (partition, sizes) = universe(8);
        let rates = vec![1500.0; 4];
        let planner = GroupPlanner::new(SystemConfig::default());
        let time_at = |mc_rate: f64| {
            let mc = move |_: &[usize]| mc_rate;
            planner
                .plan(&GroupingInputs {
                    maps: &maps,
                    partition: &partition,
                    cell_sizes: &sizes,
                    unicast_rate_mbps: &rates,
                    multicast_rate_mbps: &mc,
                })
                .estimated_time_s
        };
        prop_assert!(time_at(rate_lo * bump) <= time_at(rate_lo) + 1e-12);
    }

    #[test]
    fn qoe_accounting_is_consistent(outcomes in prop::collection::vec((any::<bool>(), 0.0f64..0.1), 1..100)) {
        let mut q = UserQoe::default();
        for &(on_time, stall) in &outcomes {
            q.record_frame(on_time, stall, QualityLevel::Medium);
        }
        prop_assert_eq!(q.frames(), outcomes.len());
        let stalled = outcomes.iter().filter(|&&(ok, _)| !ok).count();
        prop_assert_eq!(q.frames_stalled, stalled);
        prop_assert!((0.0..=1.0).contains(&q.stall_ratio()));
        // Stall time only accumulates on stalled frames.
        let expect: f64 = outcomes.iter().filter(|&&(ok, _)| !ok).map(|&(_, s)| s).sum();
        prop_assert!((q.stall_time_s - expect).abs() < 1e-9);
        prop_assert_eq!(q.quality_switches, 0);
    }
}
