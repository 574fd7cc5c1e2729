//! Multicast grouping with viewport similarity (§4.2).
//!
//! The paper estimates the transmission time of a frame to a user group `k`
//! as
//!
//! ```text
//! T_m(k) = S_m(k)/r_m + Σ_{i in k} (S_i - S_m(k)) / r_i
//! ```
//!
//! where `S_m(k)` is the size of the group's overlapped cells, `r_m` the
//! multicast rate (minimum member MCS under the group's beam), and
//! `S_i`/`r_i` each member's total requested bytes and unicast rate. Groups
//! are chosen among users with high viewport similarity subject to
//! `T_m(k) ≤ 1/F`.
//!
//! [`GroupPlanner`] implements a greedy agglomerative search: start with
//! singletons and repeatedly adopt the merge of two sufficiently similar
//! groups that lowers the estimated total frame time the most, until no
//! merge lowers it. `r_m` costs a beam design, so the search is led by an
//! upper bound on it and asks for the real rate only of a merge that can
//! win ([`GroupPlanner::plan_capped`]).

use crate::config::SystemConfig;
use std::borrow::Cow;
use volcast_pointcloud::CellInfo;
use volcast_viewport::VisibilityMap;

/// A multicast group in a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Member user ids, sorted.
    pub members: Vec<usize>,
    /// Overlapped-cell payload `S_m` in bytes (0 for singletons, whose
    /// whole payload rides unicast).
    pub multicast_bytes: f64,
    /// Multicast PHY rate `r_m` (Mbps) under the group's beam.
    pub multicast_rate_mbps: f64,
    /// Group viewport similarity (IoU of member maps).
    pub iou: f64,
}

impl Group {
    /// An unpriced group over `members` — pricing (`multicast_bytes`,
    /// `multicast_rate_mbps`, `iou`) is zeroed until a planner fills it
    /// in. The planner starts its search from such singletons, and the
    /// session re-admits the members it severs as them.
    pub fn unpriced(members: Vec<usize>) -> Group {
        Group {
            members,
            multicast_bytes: 0.0,
            multicast_rate_mbps: 0.0,
            iou: 0.0,
        }
    }
}

/// Everything the planner needs for one frame.
pub struct GroupingInputs<'a> {
    /// Per-user visibility maps over `partition`, indexed by user id.
    pub maps: &'a [VisibilityMap],
    /// The frame's cell partition, ascending by cell id (as
    /// `CellGrid::partition` and `VideoSequence::cell_counts` return it):
    /// the cells the maps rank and `cell_sizes` price.
    pub partition: &'a [CellInfo],
    /// Per-cell compressed sizes (bytes), same order as `partition`.
    pub cell_sizes: &'a [f64],
    /// Per-user unicast PHY rate `r_i` in Mbps.
    pub unicast_rate_mbps: &'a [f64],
    /// Multicast PHY rate for an arbitrary member set (min-MCS under the
    /// group's designed beam). Called only for groups of 2+.
    pub multicast_rate_mbps: &'a dyn Fn(&[usize]) -> f64,
}

/// The planner's output for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPlan {
    /// Final groups (singletons included).
    pub groups: Vec<Group>,
    /// Estimated total frame transmission time `Σ T_m(k)` in seconds.
    pub estimated_time_s: f64,
    /// Whether the plan meets `estimated_time_s ≤ 1/F`.
    pub feasible: bool,
}

/// Greedy similarity-driven group search.
///
/// ```
/// use volcast_core::{GroupPlanner, GroupingInputs, SystemConfig};
/// use volcast_pointcloud::{CellId, CellInfo};
/// use volcast_viewport::VisibilityMap;
///
/// // Two users with 3 of 4 cells in common, by rank in a 5-cell partition.
/// let partition: Vec<CellInfo> = (0..5)
///     .map(|x| CellInfo { id: CellId::new(x, 0, 0), point_count: 10 })
///     .collect();
/// let sizes = vec![50_000.0; 5];
/// let maps = [
///     VisibilityMap::from_ranks(5, (0..4).map(|rank| (rank, 1.0))),
///     VisibilityMap::from_ranks(5, (1..5).map(|rank| (rank, 1.0))),
/// ];
///
/// let plan = GroupPlanner::new(SystemConfig::default()).plan(&GroupingInputs {
///     maps: &maps,
///     partition: &partition,
///     cell_sizes: &sizes,
///     unicast_rate_mbps: &[2000.0, 2000.0],
///     multicast_rate_mbps: &|_| 1500.0,
/// });
/// assert_eq!(plan.groups.len(), 1); // merged: multicast the shared cells
/// assert!(plan.feasible);
/// ```
#[derive(Debug, Clone)]
pub struct GroupPlanner {
    /// System configuration (frame rate, merge threshold).
    pub config: SystemConfig,
}

impl GroupPlanner {
    /// Creates a planner.
    pub fn new(config: SystemConfig) -> Self {
        GroupPlanner { config }
    }

    /// The paper's `T_m(k)` for one group: multicast time for the
    /// overlapped payload plus the members' residual unicast times.
    /// Singleton groups degenerate to plain unicast `S_i / r_i`. Returns
    /// infinity when a needed rate is zero (outage).
    pub fn group_time_s(group: &Group, member_bytes: &[f64], unicast_rate: &[f64]) -> f64 {
        let mut t = 0.0;
        if group.members.len() >= 2 && group.multicast_bytes > 0.0 {
            if group.multicast_rate_mbps <= 0.0 {
                return f64::INFINITY;
            }
            t += group.multicast_bytes * 8.0 / (group.multicast_rate_mbps * 1e6);
        }
        for &u in &group.members {
            // Residual unicast bytes `S_i - S_m` (never negative).
            let residual = (member_bytes[u] - group.multicast_bytes).max(0.0);
            if residual <= 0.0 {
                continue;
            }
            let r = unicast_rate[u];
            if r <= 0.0 {
                return f64::INFINITY;
            }
            t += residual * 8.0 / (r * 1e6);
        }
        t
    }

    /// Builds the group plan for one frame: [`GroupPlanner::plan_capped`]
    /// with nothing known about any rate (every cap `+∞`).
    pub fn plan(&self, inputs: &GroupingInputs<'_>) -> GroupPlan {
        self.plan_capped(inputs, &|_| f64::INFINITY)
    }

    /// Builds the group plan for one frame, asking for a member set's
    /// multicast rate only when its merge can win.
    ///
    /// `rate_cap_mbps(members)` must be an upper bound on
    /// `inputs.multicast_rate_mbps(members)` (asserted on every answer). A
    /// candidate merge is first priced at its cap — a lower bound on its
    /// `T_m`, since every float operation between a rate and a plan time is
    /// monotone. Each round walks the stored times as the eager search
    /// would; when the winner is still a bound, that one set's rate is
    /// asked for, its exact time stored, and the walk repeated. Only an
    /// exact winner is adopted. It beats every candidate before it in the
    /// walk strictly and every one after it weakly *at their bounds*, hence
    /// at their exact times too: each round adopts the merge the eager
    /// search adopts, whatever the caps, and the rate callback is asked at
    /// most once per member set.
    pub fn plan_capped(
        &self,
        inputs: &GroupingInputs<'_>,
        rate_cap_mbps: &dyn Fn(&[usize]) -> f64,
    ) -> GroupPlan {
        let (maps, sizes, rates) = (inputs.maps, inputs.cell_sizes, inputs.unicast_rate_mbps);
        assert_eq!(maps.len(), rates.len(), "rates must cover all users");
        debug_assert_eq!(inputs.partition.len(), sizes.len());
        debug_assert!(maps.iter().all(|m| m.cells() == sizes.len()));

        // Per-user total requested bytes S_i.
        let member_bytes: Vec<f64> = maps.iter().map(|m| m.required_bytes(sizes)).collect();
        let time_of = |g: &Group| Self::group_time_s(g, &member_bytes, rates);

        // Start from singletons. `views` (each group's merged map; a
        // singleton's stays the caller's until its first merge) and `times`
        // run parallel to `groups`.
        let mut groups: Vec<Group> = (0..maps.len())
            .map(|u| Group {
                iou: 1.0,
                ..Group::unpriced(vec![u])
            })
            .collect();
        let mut views: Vec<Cow<'_, VisibilityMap>> = maps.iter().map(Cow::Borrowed).collect();
        let mut times: Vec<f64> = groups.iter().map(time_of).collect();

        // Two groups merged, priced at the merged set's rate cap; `None`
        // when they fail the similarity gate, share nothing or cannot have
        // a multicast rate.
        let score = |a: &Group, va: &VisibilityMap, b: &Group, vb: &VisibilityMap| {
            let iou = volcast_viewport::iou(va, vb);
            if iou < self.config.min_merge_iou {
                return None;
            }
            let multicast_bytes = va.shared_bytes(vb, sizes);
            if multicast_bytes <= 0.0 {
                return None;
            }
            let mut members = [a.members.as_slice(), &b.members].concat();
            members.sort_unstable();
            let cap = rate_cap_mbps(&members);
            if cap <= 0.0 {
                return None;
            }
            let group = Group {
                members,
                multicast_bytes,
                multicast_rate_mbps: cap,
                iou,
            };
            let time = time_of(&group);
            Some(Candidate {
                group,
                time,
                exact: false,
            })
        };
        // The pair-score table: `table[i][j - i - 1]` scores groups
        // `i < j`. A score depends on its two groups only, so it lives until
        // one of them is merged away. Rows are filled and walked in `(i, j)`
        // order: the first-best selection below depends on it.
        let mut table: Vec<Vec<Option<Candidate>>> = (0..groups.len())
            .map(|i| {
                let row = (i + 1)..groups.len();
                row.map(|j| score(&groups[i], &views[i], &groups[j], &views[j]))
                    .collect()
            })
            .collect();

        loop {
            let current_time: f64 = times.iter().sum();
            let mut best: Option<(usize, usize, f64)> = None;
            for (i, row) in table.iter().enumerate() {
                for (j, scored) in (i + 1..).zip(row) {
                    let Some(Candidate { time, .. }) = scored else {
                        continue;
                    };
                    // The hypothetical plan's time: the groups left
                    // unmerged, in index order, then the candidate — summed
                    // left to right, the order a materialized trial plan
                    // would use.
                    let others = times.iter().enumerate().filter(|&(k, _)| k != i && k != j);
                    let t: f64 = others.map(|(_, &t)| t).chain([*time]).sum();
                    if t < current_time && best.is_none_or(|(_, _, best_t)| t < best_t) {
                        best = Some((i, j, t));
                    }
                }
            }
            let Some((i, j, _)) = best else { break };

            let slot = &mut table[i][j - i - 1];
            let picked = slot.as_mut().expect("best is scored");
            if !picked.exact {
                // The winner at its bound: find out what it really costs,
                // and walk again.
                let cap = picked.group.multicast_rate_mbps;
                let rate = (inputs.multicast_rate_mbps)(&picked.group.members);
                assert!(rate <= cap, "multicast rate {rate} above its cap {cap}");
                if rate <= 0.0 {
                    *slot = None;
                } else {
                    picked.group.multicast_rate_mbps = rate;
                    picked.time = time_of(&picked.group);
                    picked.exact = true;
                }
                continue;
            }

            let Candidate {
                group: merged,
                time: merged_time,
                ..
            } = slot.take().expect("best is scored");
            let view_j = views.remove(j);
            let mut view = views.remove(i).into_owned();
            view.merge(&view_j);
            // Survivors keep their places and their scores against each
            // other; `j` goes first so `i` stays valid.
            for gone in [j, i] {
                groups.remove(gone);
                times.remove(gone);
                table.remove(gone);
                for (k, row) in table.iter_mut().enumerate().take(gone) {
                    row.remove(gone - k - 1);
                }
            }
            // The merged group goes last: a new column, and an empty row.
            for (k, row) in table.iter_mut().enumerate() {
                row.push(score(&groups[k], &views[k], &merged, &view));
            }
            table.push(Vec::new());
            groups.push(merged);
            views.push(Cow::Owned(view));
            times.push(merged_time);
        }

        groups.sort_by(|a, b| a.members.cmp(&b.members));
        let estimated_time_s: f64 = groups.iter().map(time_of).sum();
        let feasible = estimated_time_s <= self.config.frame_interval_s();
        GroupPlan {
            groups,
            estimated_time_s,
            feasible,
        }
    }
}

/// A candidate merge in the planner's pair-score table.
struct Candidate {
    /// The merged group; its `multicast_rate_mbps` is the member set's rate
    /// cap until `exact`.
    group: Group,
    /// `T_m` of `group` at that rate: a lower bound until `exact`.
    time: f64,
    /// Whether the rate is the designed beam's, not the cap.
    exact: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_pointcloud::CellId;

    #[test]
    fn unpriced_group_is_zeroed_and_reusable() {
        let g = Group::unpriced(vec![3, 7]);
        assert_eq!(g.members, [3, 7]);
        assert_eq!(g.multicast_bytes, 0.0);
        assert_eq!(g.multicast_rate_mbps, 0.0);
        assert_eq!(g.iou, 0.0);
    }

    #[test]
    fn residuals_are_clamped_at_zero() {
        // Member 2 needs less than the shared payload: no negative time.
        let g = Group {
            multicast_bytes: 40.0,
            multicast_rate_mbps: 8.0,
            ..Group::unpriced(vec![0, 2])
        };
        let t = GroupPlanner::group_time_s(&g, &[100.0, 0.0, 30.0], &[8.0, 8.0, 8.0]);
        assert_eq!(t, 40.0 * 8.0 / 8e6 + 60.0 * 8.0 / 8e6);
    }

    /// A full-density map over `partition_of(12)`.
    fn map_of(ranks: &[usize]) -> VisibilityMap {
        VisibilityMap::from_ranks(12, ranks.iter().map(|&r| (r, 1.0)))
    }

    fn partition_of(n: i32) -> (Vec<CellInfo>, Vec<f64>) {
        let cells: Vec<CellInfo> = (0..n)
            .map(|x| CellInfo {
                id: CellId::new(x, 0, 0),
                point_count: 100,
            })
            .collect();
        let sizes = vec![100_000.0; n as usize]; // 100 KB per cell
        (cells, sizes)
    }

    /// Planner fixture: identical unicast rates, multicast rate a fixed
    /// fraction of unicast.
    fn plan_with(maps: &[VisibilityMap], unicast: f64, multicast: f64, min_iou: f64) -> GroupPlan {
        let (partition, sizes) = partition_of(12);
        let rates = vec![unicast; maps.len()];
        let mc = move |_: &[usize]| multicast;
        let planner = GroupPlanner::new(SystemConfig {
            min_merge_iou: min_iou,
            ..SystemConfig::default()
        });
        planner.plan(&GroupingInputs {
            maps,
            partition: &partition,
            cell_sizes: &sizes,
            unicast_rate_mbps: &rates,
            multicast_rate_mbps: &mc,
        })
    }

    #[test]
    fn identical_viewports_form_one_group() {
        let maps = vec![map_of(&[0, 1, 2, 3]); 3];
        let plan = plan_with(&maps, 1000.0, 800.0, 0.25);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].members, vec![0, 1, 2]);
        assert!((plan.groups[0].iou - 1.0).abs() < 1e-12);
        // All bytes ride multicast; no residuals.
        assert!(plan.groups[0].multicast_bytes > 0.0);
    }

    #[test]
    fn disjoint_viewports_stay_unicast() {
        let maps = vec![map_of(&[0, 1]), map_of(&[5, 6]), map_of(&[9, 10])];
        let plan = plan_with(&maps, 1000.0, 800.0, 0.25);
        assert_eq!(plan.groups.len(), 3);
        for g in &plan.groups {
            assert_eq!(g.members.len(), 1);
            assert_eq!(g.multicast_bytes, 0.0);
        }
    }

    #[test]
    fn merging_reduces_estimated_time() {
        let maps = vec![map_of(&[0, 1, 2, 3]), map_of(&[0, 1, 2, 4])];
        // Compare against the all-unicast time by setting the threshold so
        // high no merge happens.
        let unicast_plan = plan_with(&maps, 1000.0, 900.0, 1.1);
        let merged_plan = plan_with(&maps, 1000.0, 900.0, 0.25);
        assert_eq!(unicast_plan.groups.len(), 2);
        assert_eq!(merged_plan.groups.len(), 1);
        assert!(merged_plan.estimated_time_s < unicast_plan.estimated_time_s);
    }

    #[test]
    fn low_multicast_rate_blocks_merge() {
        // Multicast so slow that sharing loses: planner must keep unicast.
        let maps = vec![map_of(&[0, 1, 2, 3]), map_of(&[0, 1, 2, 4])];
        let plan = plan_with(&maps, 1000.0, 100.0, 0.25);
        assert_eq!(plan.groups.len(), 2, "slow multicast must not be used");
    }

    #[test]
    fn similarity_threshold_gates_merges() {
        // IoU = 1/7 between the maps; threshold 0.25 blocks the merge even
        // though rates would favor it.
        let maps = vec![map_of(&[0, 1, 2, 3]), map_of(&[3, 5, 6, 7])];
        let plan = plan_with(&maps, 1000.0, 999.0, 0.25);
        assert_eq!(plan.groups.len(), 2);
    }

    #[test]
    fn time_model_matches_formula() {
        let maps = vec![map_of(&[0, 1, 2, 3]), map_of(&[0, 1, 2, 4])];
        let plan = plan_with(&maps, 1000.0, 800.0, 0.25);
        assert_eq!(plan.groups.len(), 1);
        let g = &plan.groups[0];
        // S_m = 3 cells x 100 KB; S_i = 4 cells each; residual 100 KB each.
        let s_m = 300_000.0;
        let expect = s_m * 8.0 / (800.0 * 1e6) + 2.0 * (100_000.0 * 8.0 / (1000.0 * 1e6));
        assert!((g.multicast_bytes - s_m).abs() < 1e-6);
        assert!(
            (plan.estimated_time_s - expect).abs() < 1e-9,
            "{} vs {}",
            plan.estimated_time_s,
            expect
        );
    }

    #[test]
    fn feasibility_against_frame_interval() {
        let maps = vec![map_of(&[0, 1, 2, 3]); 2];
        // Generous rates: feasible.
        assert!(plan_with(&maps, 2000.0, 1600.0, 0.25).feasible);
        // Starved rates: 400 KB multicast at 1 Mbps = 3.2 s >> 33 ms.
        assert!(!plan_with(&maps, 1.0, 1.0, 0.25).feasible);
    }

    #[test]
    fn outage_user_makes_plan_infeasible() {
        let maps = vec![map_of(&[0, 1]), map_of(&[5, 6])];
        let (partition, sizes) = partition_of(12);
        let rates = vec![1000.0, 0.0]; // user 1 in outage
        let mc = |_: &[usize]| 800.0;
        let planner = GroupPlanner::new(SystemConfig::default());
        let plan = planner.plan(&GroupingInputs {
            maps: &maps,
            partition: &partition,
            cell_sizes: &sizes,
            unicast_rate_mbps: &rates,
            multicast_rate_mbps: &mc,
        });
        assert!(plan.estimated_time_s.is_infinite());
        assert!(!plan.feasible);
    }

    #[test]
    fn three_way_merge_forms_when_beneficial() {
        let maps = vec![
            map_of(&[0, 1, 2, 3, 4]),
            map_of(&[0, 1, 2, 3, 5]),
            map_of(&[0, 1, 2, 3, 6]),
        ];
        let plan = plan_with(&maps, 1000.0, 900.0, 0.25);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].members, vec![0, 1, 2]);
        // Group IoU: |{0,1,2,3}| / |{0..6}| = 4/7.
        assert!((plan.groups[0].iou - 4.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_user_set() {
        let plan = plan_with(&[], 1000.0, 800.0, 0.25);
        assert!(plan.groups.is_empty());
        assert_eq!(plan.estimated_time_s, 0.0);
        assert!(plan.feasible);
    }
}
