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
//! win ([`GroupPlanner::search`]), in storage kept between calls
//! ([`GroupSearch`]).

use crate::config::SystemConfig;
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupPlan {
    /// Final groups (singletons included).
    pub groups: Vec<Group>,
    /// Estimated total frame transmission time `Σ T_m(k)` in seconds.
    pub estimated_time_s: f64,
    /// Whether the plan meets `estimated_time_s ≤ 1/F`.
    pub feasible: bool,
}

/// What [`GroupPlanner::search`] keeps between calls, in flat storage: a
/// search over no more users than before allocates nothing once its maps'
/// partition length has been seen. The output is [`GroupSearch::plan`].
#[derive(Debug, Default)]
pub struct GroupSearch {
    pub(crate) plan: GroupPlan,
    /// Member vectors for `plan` (its own come back each search), and a
    /// member-set buffer.
    pub(crate) spare: Vec<Vec<usize>>,
    pub(crate) buf: Vec<usize>,
    /// Per user, the requested bytes `S_i`.
    member_bytes: Vec<f64>,
    /// Per slot, a live group (slot `u` starts as user `u`; a merge keeps
    /// the first group's slot), its sorted members at
    /// `members[slot * users..]`; `order` lists the live slots in place
    /// order.
    slots: Vec<Slot>,
    members: Vec<usize>,
    order: Vec<usize>,
    /// Merged groups' maps: `⌈users / 2⌉` hold all of them (a merged group
    /// has two members or more), `free` indexes the unused ones.
    views: Vec<VisibilityMap>,
    free: Vec<usize>,
    /// Pair scores: `table[a * users + b]` scores slots `a < b`.
    table: Vec<Option<Candidate>>,
    users: usize,
}

/// A live group: its size, its map (`None`: its one user's), and its price.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    len: usize,
    view: Option<usize>,
    multicast_bytes: f64,
    multicast_rate_mbps: f64,
    iou: f64,
    time: f64,
}

impl GroupSearch {
    /// The last search's plan.
    pub fn plan(&self) -> &GroupPlan {
        &self.plan
    }

    /// Slot `s`'s members.
    fn members(&self, s: usize) -> &[usize] {
        &self.members[s * self.users..][..self.slots[s].len]
    }

    /// Slot `s`'s map.
    fn view<'a>(&'a self, maps: &'a [VisibilityMap], s: usize) -> &'a VisibilityMap {
        match self.slots[s].view {
            Some(v) => &self.views[v],
            None => &maps[self.members(s)[0]],
        }
    }

    /// The members of slots `a` and `b` together, sorted, into `buf`.
    fn union(&mut self, a: usize, b: usize) {
        let n = self.users;
        let (la, lb) = (self.slots[a].len, self.slots[b].len);
        self.buf.clear();
        self.buf.extend_from_slice(&self.members[a * n..][..la]);
        self.buf.extend_from_slice(&self.members[b * n..][..lb]);
        self.buf.sort_unstable();
    }

    /// Index of the unordered slot pair `{a, b}` in `table`.
    fn pair(&self, a: usize, b: usize) -> usize {
        a.min(b) * self.users + a.max(b)
    }
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
        let (bytes, rate) = (group.multicast_bytes, group.multicast_rate_mbps);
        time_s(&group.members, bytes, rate, member_bytes, unicast_rate)
    }

    /// Builds the group plan for one frame: [`GroupPlanner::search`] in
    /// fresh storage, with nothing known about any rate (every cap `+∞`).
    pub fn plan(&self, inputs: &GroupingInputs<'_>) -> GroupPlan {
        let mut search = GroupSearch::default();
        self.search(inputs, &|_| f64::INFINITY, &mut search);
        search.plan
    }

    /// Builds the group plan for one frame into `s` ([`GroupSearch::plan`]),
    /// asking for a member set's multicast rate only when its merge can
    /// win.
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
    pub fn search(
        &self,
        inputs: &GroupingInputs<'_>,
        rate_cap_mbps: &dyn Fn(&[usize]) -> f64,
        s: &mut GroupSearch,
    ) {
        let (maps, sizes, rates) = (inputs.maps, inputs.cell_sizes, inputs.unicast_rate_mbps);
        assert_eq!(maps.len(), rates.len(), "rates must cover all users");
        debug_assert_eq!(inputs.partition.len(), sizes.len());
        debug_assert!(maps.iter().all(|m| m.cells() == sizes.len()));
        // Storage for `n` users and this partition; last plan's vectors
        // back to the pool. Then the singletons, in user order.
        let n = maps.len();
        s.users = n;
        (s.spare).extend(s.plan.groups.drain(..).map(|g| g.members));
        s.plan.groups.reserve(n);
        while s.spare.len() < n {
            s.spare.push(Vec::with_capacity(n));
        }
        s.buf.reserve(n);
        s.members.resize(s.members.len().max(n * n), 0);
        s.table.resize(s.table.len().max(n * n), None);
        s.views
            .resize_with(s.views.len().max(n.div_ceil(2)), Default::default);
        for view in &mut s.views {
            view.refill(sizes.len(), []);
        }
        s.free.clear();
        s.free.extend((0..n.div_ceil(2)).rev());
        s.member_bytes.clear();
        s.member_bytes
            .extend(maps.iter().map(|m| m.required_bytes(sizes)));
        s.slots.resize(n, Slot::default());
        s.order.clear();
        for u in 0..n {
            s.members[u * n] = u;
            let time = time_s(&[u], 0.0, 0.0, &s.member_bytes, rates);
            s.slots[u] = Slot {
                len: 1,
                iou: 1.0,
                time,
                ..Slot::default()
            };
            s.order.push(u);
        }

        // Slots `a` and `b` merged, priced at the merged set's rate cap;
        // `None` when they fail the similarity gate, share nothing or
        // cannot have a multicast rate.
        let score = |s: &mut GroupSearch, a: usize, b: usize| {
            let (va, vb) = (s.view(maps, a), s.view(maps, b));
            let iou = volcast_viewport::iou(va, vb);
            if iou < self.config.min_merge_iou {
                return None;
            }
            let multicast_bytes = va.shared_bytes(vb, sizes);
            if multicast_bytes <= 0.0 {
                return None;
            }
            s.union(a, b);
            let cap = rate_cap_mbps(&s.buf);
            if cap <= 0.0 {
                return None;
            }
            let time = time_s(&s.buf, multicast_bytes, cap, &s.member_bytes, rates);
            Some(Candidate {
                multicast_bytes,
                rate: cap,
                iou,
                time,
                exact: false,
            })
        };
        // Every pair of singletons, filled in `(i, j)` order. A score
        // depends on its two groups only, so it lives until one of them is
        // merged away.
        for a in 0..n {
            for b in a + 1..n {
                let cell = s.pair(a, b);
                s.table[cell] = score(s, a, b);
            }
        }

        loop {
            // Walked in `(i, j)` order of the groups' places: the
            // first-best selection depends on it.
            let times = |s: &GroupSearch, k: usize| s.slots[s.order[k]].time;
            let current_time: f64 = (0..s.order.len()).map(|k| times(s, k)).sum();
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..s.order.len() {
                for j in i + 1..s.order.len() {
                    let Some(Candidate { time, .. }) = s.table[s.pair(s.order[i], s.order[j])]
                    else {
                        continue;
                    };
                    // The hypothetical plan's time: the groups left
                    // unmerged, in place order, then the candidate —
                    // summed left to right, the order a materialized
                    // trial plan would use.
                    let others = (0..s.order.len()).filter(|&k| k != i && k != j);
                    let t: f64 = others.map(|k| times(s, k)).chain([time]).sum();
                    if t < current_time && best.is_none_or(|(_, _, best_t)| t < best_t) {
                        best = Some((i, j, t));
                    }
                }
            }
            let Some((i, j, _)) = best else { break };
            let (a, b) = (s.order[i], s.order[j]);
            let cell = s.pair(a, b);

            let picked = s.table[cell].expect("best is scored");
            if !picked.exact {
                // The winner at its bound: find out what it really costs,
                // and walk again.
                s.union(a, b);
                let rate = (inputs.multicast_rate_mbps)(&s.buf);
                let cap = picked.rate;
                assert!(rate <= cap, "multicast rate {rate} above its cap {cap}");
                s.table[cell] = (rate > 0.0).then(|| Candidate {
                    rate,
                    time: time_s(&s.buf, picked.multicast_bytes, rate, &s.member_bytes, rates),
                    exact: true,
                    ..picked
                });
                continue;
            }

            // The merged group takes slot `a` and goes last in place order.
            let view = s.slots[a].view.unwrap_or_else(|| {
                let view = s.free.pop().expect("a free map for every merged group");
                let user = s.members(a)[0];
                s.views[view].clone_from(&maps[user]);
                view
            });
            if let Some(gone) = s.slots[b].view {
                let (lo, hi) = s.views.split_at_mut(view.max(gone));
                let (dst, src) = match view < gone {
                    true => (&mut lo[view], &hi[0]),
                    false => (&mut hi[0], &lo[gone]),
                };
                dst.merge(src);
                s.free.push(gone);
            } else {
                let user = s.members(b)[0];
                s.views[view].merge(&maps[user]);
            }
            s.union(a, b);
            s.members[a * n..][..s.buf.len()].copy_from_slice(&s.buf);
            s.slots[a] = Slot {
                len: s.buf.len(),
                view: Some(view),
                multicast_bytes: picked.multicast_bytes,
                multicast_rate_mbps: picked.rate,
                iou: picked.iou,
                time: picked.time,
            };
            s.order.remove(j);
            s.order.remove(i);
            // Survivors keep their scores against each other; the merged
            // group is scored against each of them, in place order.
            for k in 0..s.order.len() {
                let other = s.order[k];
                let cell = s.pair(other, a);
                s.table[cell] = score(s, other, a);
            }
            s.order.push(a);
        }

        for k in 0..s.order.len() {
            let slot = s.slots[s.order[k]];
            let mut members = s.spare.pop().unwrap_or_default();
            members.clear();
            members.extend_from_slice(s.members(s.order[k]));
            s.plan.groups.push(Group {
                members,
                multicast_bytes: slot.multicast_bytes,
                multicast_rate_mbps: slot.multicast_rate_mbps,
                iou: slot.iou,
            });
        }
        let plan = &mut s.plan;
        plan.groups
            .sort_unstable_by(|x, y| x.members.cmp(&y.members));
        let time_of = |g: &Group| Self::group_time_s(g, &s.member_bytes, rates);
        plan.estimated_time_s = plan.groups.iter().map(time_of).sum();
        plan.feasible = plan.estimated_time_s <= self.config.frame_interval_s();
    }
}

/// `T_m(k)` of a group of `members` sharing `multicast_bytes` at
/// `multicast_rate` ([`GroupPlanner::group_time_s`]).
fn time_s(
    members: &[usize],
    multicast_bytes: f64,
    multicast_rate: f64,
    member_bytes: &[f64],
    unicast_rate: &[f64],
) -> f64 {
    let mut t = 0.0;
    if members.len() >= 2 && multicast_bytes > 0.0 {
        if multicast_rate <= 0.0 {
            return f64::INFINITY;
        }
        t += multicast_bytes * 8.0 / (multicast_rate * 1e6);
    }
    for &u in members {
        // Residual unicast bytes `S_i - S_m` (never negative).
        let residual = (member_bytes[u] - multicast_bytes).max(0.0);
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

/// A candidate merge in the search's pair-score table.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    multicast_bytes: f64,
    /// The member set's rate cap until `exact`, then its designed rate.
    rate: f64,
    iou: f64,
    /// `T_m` at that rate: a lower bound until `exact`.
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
