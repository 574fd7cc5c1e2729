//! Referee for the incremental, cap-led grouping search: `GroupPlanner`
//! keeps a pair-score table across merge rounds and asks for a member
//! set's multicast rate only when its merge can win at its rate cap;
//! [`plan_reference`] re-scores every pair of groups every round, rates
//! and all. They must return the same plan, bit for bit, on anything —
//! outages, member sets with no multicast rate, inputs so tied that only
//! the `(i, j)` walk order decides, and caps of any slack — and the
//! capped search replays every case through one reused `GroupSearch`, so
//! state a search leaves behind fails the next case bit for bit.

use std::cell::RefCell;
use std::collections::HashMap;
use volcast_core::{Group, GroupPlan, GroupPlanner, GroupSearch, GroupingInputs, SystemConfig};
use volcast_pointcloud::{CellId, CellInfo};
use volcast_util::par;
use volcast_util::prop::run_cases_n;
use volcast_util::rng::Rng;
use volcast_viewport::{group_iou, overlap_bytes, VisibilityMap};

/// `GroupPlanner::plan` as it stood before the pair-score table (PR 15),
/// verbatim but for the `partition` argument the byte accounting dropped:
/// all candidate pairs rebuilt and re-scored from the members' maps every
/// merge round.
fn plan_reference(config: &SystemConfig, inputs: &GroupingInputs<'_>) -> GroupPlan {
    let n = inputs.maps.len();
    assert_eq!(
        n,
        inputs.unicast_rate_mbps.len(),
        "rates must cover all users"
    );

    // Per-user total requested bytes S_i.
    let member_bytes: Vec<f64> = inputs
        .maps
        .iter()
        .map(|m| m.required_bytes(inputs.cell_sizes))
        .collect();

    // Start from singletons.
    let mut groups: Vec<Group> = (0..n)
        .map(|u| Group {
            members: vec![u],
            multicast_bytes: 0.0,
            multicast_rate_mbps: 0.0,
            iou: 1.0,
        })
        .collect();

    // Greedy merging. Each round scores the pure similarity/overlap of
    // every candidate pair in parallel (maps, partition and sizes are
    // Sync), then walks the candidates serially — the multicast-rate
    // callback is a plain `&dyn Fn` (typically memoized through a
    // RefCell, so not Sync) and the first-best selection must follow
    // the original (i, j) order for determinism.
    let all_maps = inputs.maps;
    let min_iou = config.min_merge_iou;
    let time_of =
        |g: &Group| GroupPlanner::group_time_s(g, &member_bytes, inputs.unicast_rate_mbps);
    let mut times: Vec<f64> = Vec::with_capacity(n);
    loop {
        // Every current group's time, computed once per round instead
        // of once per candidate.
        times.clear();
        times.extend(groups.iter().map(time_of));
        let current_time: f64 = times.iter().sum();

        let pairs: Vec<(usize, usize)> = (0..groups.len())
            .flat_map(|i| ((i + 1)..groups.len()).map(move |j| (i, j)))
            .collect();
        let groups_ref = &groups;
        // (members, iou, S_m) per pair; S_m is 0 when the pair fails
        // the similarity gate (the serial pass skips it either way).
        let scored: Vec<(Vec<usize>, f64, f64)> = par::par_map(&pairs, |&(i, j)| {
            let mut members: Vec<usize> = groups_ref[i]
                .members
                .iter()
                .chain(&groups_ref[j].members)
                .copied()
                .collect();
            members.sort_unstable();
            let maps: Vec<&VisibilityMap> = members.iter().map(|&u| &all_maps[u]).collect();
            let iou = group_iou(&maps);
            let s_m = if iou < min_iou {
                0.0
            } else {
                overlap_bytes(&maps, inputs.cell_sizes)
            };
            (members, iou, s_m)
        });

        let mut best: Option<(usize, usize, Group, f64)> = None;
        for (&(i, j), (members, iou, s_m)) in pairs.iter().zip(scored) {
            if iou < min_iou || s_m <= 0.0 {
                continue;
            }
            let r_m = (inputs.multicast_rate_mbps)(&members);
            if r_m <= 0.0 {
                continue;
            }
            let candidate = Group {
                members,
                multicast_bytes: s_m,
                multicast_rate_mbps: r_m,
                iou,
            };
            // The hypothetical plan's time: the groups left unmerged,
            // in index order, then the candidate — summed left to
            // right, the order a materialized trial plan would use.
            let t: f64 = times
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i && k != j)
                .map(|(_, &t)| t)
                .chain(std::iter::once(time_of(&candidate)))
                .sum();
            if t < current_time {
                match &best {
                    Some((_, _, _, bt)) if *bt <= t => {}
                    _ => best = Some((i, j, candidate, t)),
                }
            }
        }

        match best {
            Some((i, j, merged, _)) => {
                // Remove j first (higher index) to keep i valid.
                groups.remove(j);
                groups.remove(i);
                groups.push(merged);
            }
            None => break,
        }
    }

    groups.sort_by(|a, b| a.members.cmp(&b.members));
    let estimated_time_s: f64 = groups.iter().map(time_of).sum();
    let feasible = estimated_time_s <= config.frame_interval_s();
    GroupPlan {
        groups,
        estimated_time_s,
        feasible,
    }
}

/// Random maps over `cells` cells; LODs from a short list, so equal
/// payloads (and so tied candidate times) are common.
fn arb_maps(rng: &mut Rng, users: usize, cells: usize) -> Vec<VisibilityMap> {
    let density = rng.gen_range(0.1..1.0);
    (0..users)
        .map(|_| {
            let seen: Vec<(usize, f64)> = (0..cells)
                .filter_map(|rank| {
                    let lod = [0.45, 0.7, 1.0][rng.gen_range(0..3usize)];
                    rng.gen_bool(density).then_some((rank, lod))
                })
                .collect();
            VisibilityMap::from_ranks(cells, seen)
        })
        .collect()
}

/// Member set -> well-mixed bits, for rates and caps that are functions of
/// the set.
fn mix_of(salt: u64, members: &[usize]) -> u64 {
    members.iter().fold(salt, |h, &u| {
        (h ^ u as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23)
    })
}

/// One random frame for the planner: outages, free cells, member sets with
/// no multicast rate, and — a quarter of the time — inputs so tied that
/// only the `(i, j)` walk order decides.
struct Case {
    maps: Vec<VisibilityMap>,
    partition: Vec<CellInfo>,
    cell_sizes: Vec<f64>,
    unicast: Vec<f64>,
    config: SystemConfig,
    tied: bool,
    salt: u64,
}

impl Case {
    fn arb(rng: &mut Rng) -> Case {
        let users = rng.gen_range(0..13usize);
        let cells = rng.gen_range(1..48usize);
        let tied = rng.gen_bool(0.25);
        let maps = if tied {
            // Everyone sees the same cells at the same rates: every
            // candidate of a round costs the same.
            let one = arb_maps(rng, 1, cells).remove(0);
            vec![one; users]
        } else {
            arb_maps(rng, users, cells)
        };
        let unicast: Vec<f64> = (0..users)
            .map(|_| match rng.gen_range(0..32u32) {
                _ if tied => 1200.0,
                // Outage: the plan's time is infinite, no merge can lower it.
                0 => 0.0,
                _ => rng.gen_range(50.0..2000.0),
            })
            .collect();
        let partition: Vec<CellInfo> = (0..cells as i32)
            .map(|x| CellInfo {
                id: CellId::new(x, 0, 0),
                point_count: 10,
            })
            .collect();
        // A free cell now and then: a pair can overlap and still share
        // zero bytes.
        let cell_sizes: Vec<f64> = (0..cells)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => 0.0,
                _ if tied => 60_000.0,
                _ => rng.gen_range(1_000.0..120_000.0),
            })
            .collect();
        let config = SystemConfig {
            min_merge_iou: [0.0, 0.25, 0.6][rng.gen_range(0..3usize)],
            ..SystemConfig::default()
        };
        Case {
            maps,
            partition,
            cell_sizes,
            unicast,
            config,
            tied,
            salt: rng.next_u64(),
        }
    }

    /// The multicast rate is a function of the member set: no rate at all
    /// for about one set in five, otherwise one of a few values.
    fn rate_of(&self, members: &[usize]) -> f64 {
        match mix_of(self.salt, members) % 5 {
            0 => 0.0,
            _ if self.tied => 900.0,
            k => 500.0 * k as f64,
        }
    }

    fn inputs<'a>(&'a self, rate: &'a dyn Fn(&[usize]) -> f64) -> GroupingInputs<'a> {
        GroupingInputs {
            maps: &self.maps,
            partition: &self.partition,
            cell_sizes: &self.cell_sizes,
            unicast_rate_mbps: &self.unicast,
            multicast_rate_mbps: rate,
        }
    }

    /// Runs `search` with a counting rate callback and holds its plan to
    /// the referee's, bit for bit. Returns how many member sets each of the
    /// two asked about.
    fn check(&self, search: impl FnOnce(&GroupingInputs<'_>) -> GroupPlan) -> (usize, usize) {
        let count_into = |asked: &RefCell<HashMap<Vec<usize>, usize>>, members: &[usize]| {
            *asked.borrow_mut().entry(members.to_vec()).or_default() += 1;
            self.rate_of(members)
        };
        let (asked, eager) = (RefCell::default(), RefCell::default());
        let plan = search(&self.inputs(&|members| count_into(&asked, members)));
        let expect = plan_reference(
            &self.config,
            &self.inputs(&|members| count_into(&eager, members)),
        );

        assert_eq!(plan.groups.len(), expect.groups.len());
        for (g, e) in plan.groups.iter().zip(&expect.groups) {
            assert_eq!(g.members, e.members);
            assert_eq!(g.multicast_bytes.to_bits(), e.multicast_bytes.to_bits());
            assert_eq!(g.iou.to_bits(), e.iou.to_bits());
            assert_eq!(g.multicast_rate_mbps, e.multicast_rate_mbps);
        }
        assert_eq!(
            plan.estimated_time_s.to_bits(),
            expect.estimated_time_s.to_bits()
        );
        assert_eq!(plan.feasible, expect.feasible);
        // One question per distinct member set, however many rounds ran,
        // and never about a set the all-pairs search would not price.
        let (asked, eager) = (asked.into_inner(), eager.into_inner());
        assert!(asked.values().all(|&times| times == 1), "{asked:?}");
        assert!(asked.keys().all(|set| eager.contains_key(set)));
        (asked.len(), eager.len())
    }
}

#[test]
fn plan_equals_plan_reference() {
    run_cases_n("plan_equals_plan_reference", 256, |rng| {
        let case = Case::arb(rng);
        case.check(|inputs| GroupPlanner::new(case.config).plan(inputs));
    });
}

/// The search led by rate caps adopts what the eager search adopts,
/// whatever the caps: exactly the rate (so every bound is already the
/// truth, and ties are everywhere), up to 4x loose, `+inf`, zero on a set
/// with no rate (never asked about) or positive on one (asked, dropped) —
/// one regime per case, or all of them mixed by member set. Every case runs
/// in the storage the last one left, over user and cell counts that shrink
/// and grow in turn.
#[test]
fn search_equals_plan_reference() {
    let (mut asked, mut eager) = (0, 0);
    let mut reused = GroupSearch::default();
    run_cases_n("search_equals_plan_reference", 512, |rng| {
        let case = Case::arb(rng);
        let cap_salt = rng.next_u64();
        let regime = rng.gen_range(0..4u64);
        let cap_of = |members: &[usize]| {
            let (rate, mix) = (case.rate_of(members), mix_of(cap_salt, members));
            let slack = 1.0 + 3.0 * (mix >> 11) as f64 / (1u64 << 53) as f64;
            match if regime == 3 { mix % 3 } else { regime } {
                0 => rate,
                1 if rate > 0.0 => rate * slack,
                1 => [0.0, 700.0][(mix >> 3) as usize % 2],
                _ => f64::INFINITY,
            }
        };
        let (a, e) = case.check(|inputs| {
            GroupPlanner::new(case.config).search(inputs, &cap_of, &mut reused);
            reused.plan().clone()
        });
        asked += a;
        eager += e;
    });
    // And it is led by them: most sets the eager search prices, it never
    // asks about.
    assert!(2 * asked < eager, "asked about {asked} of {eager} sets");
}
