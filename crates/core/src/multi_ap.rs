//! Multi-AP coordination (§5 open challenge, realized).
//!
//! With multiple mmWave APs in the room, directionality allows concurrent
//! transmissions: each AP serves a different multicast group with spatial
//! reuse. The coordinator assigns users to APs balancing (a) link quality
//! (each user goes to an AP that can reach them well) and (b) viewport
//! similarity (keeping similar viewers on the same AP preserves multicast
//! gain), then checks inter-AP interference for the chosen beams.
// Fixed-size index loops (angle dims, octree children, AP slots) read
// clearer than iterator chains in this module.
#![allow(clippy::needless_range_loop)]

use volcast_geom::Vec3;
use volcast_mmwave::{BeamDesign, Channel, Codebook, MultiLobeDesigner, SweepEngine, SweepRx};
use volcast_viewport::{iou, VisibilityMap};

/// Assignment of users to APs.
#[derive(Debug, Clone, PartialEq)]
pub struct ApAssignment {
    /// `assignment[user] = ap index`.
    pub user_ap: Vec<usize>,
    /// Best-sector RSS (dBm) of each user at its assigned AP — the link
    /// budget the per-user unicast leg sees before group-beam design.
    pub user_rss_dbm: Vec<f64>,
    /// Estimated common RSS (dBm) per AP for its assigned users (designed
    /// group beam); `None` for idle APs.
    pub ap_common_rss_dbm: Vec<Option<f64>>,
    /// Worst-case inter-AP interference margin in dB: desired common RSS
    /// minus the strongest cross-AP leakage at any victim user. Positive
    /// and large = clean spatial reuse.
    pub min_interference_margin_db: f64,
}

/// Multi-AP coordinator.
pub struct MultiApCoordinator<'a> {
    /// One channel per AP (each owns its array geometry; rooms must match).
    pub channels: Vec<&'a Channel>,
    /// One codebook per AP.
    pub codebooks: Vec<&'a Codebook>,
    /// Weight of viewport similarity vs link quality in the assignment
    /// score (0 = pure RSS, 1 = pure similarity).
    pub similarity_weight: f64,
}

impl<'a> MultiApCoordinator<'a> {
    /// Creates a coordinator over APs.
    pub fn new(channels: Vec<&'a Channel>, codebooks: Vec<&'a Codebook>) -> Self {
        assert_eq!(channels.len(), codebooks.len());
        assert!(!channels.is_empty());
        MultiApCoordinator {
            channels,
            codebooks,
            similarity_weight: 0.4,
        }
    }

    /// Assigns users to APs.
    ///
    /// Greedy: seed each AP with its best-served unassigned user, then
    /// attach every remaining user to the AP maximizing
    /// `(1-w)·rss_norm + w·mean-IoU-with-AP's-users`.
    pub fn assign(&self, positions: &[Vec3], maps: &[VisibilityMap]) -> ApAssignment {
        let n_users = positions.len();
        let n_aps = self.channels.len();
        assert_eq!(n_users, maps.len());
        let mut user_ap = vec![usize::MAX; n_users];
        let designers: Vec<MultiLobeDesigner<'_>> = (0..n_aps)
            .map(|a| MultiLobeDesigner::new(self.channels[a], self.codebooks[a]))
            .collect();
        if n_users == 0 {
            return self.finalize(&designers, positions, user_ap, Vec::new());
        }

        // Per (ap, user) best-sector RSS.
        let rss: Vec<Vec<f64>> = designers
            .iter()
            .map(|designer| {
                (0..n_users)
                    .map(|u| {
                        let (_, r) = designer.best_common_sector(&[positions[u]], &[]);
                        r[0]
                    })
                    .collect()
            })
            .collect();

        // Normalize RSS into [0,1] for scoring.
        let (lo, hi) = rss
            .iter()
            .flatten()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
                (lo.min(r), hi.max(r))
            });
        let span = (hi - lo).max(1e-9);
        let rss_norm = |a: usize, u: usize| (rss[a][u] - lo) / span;

        // Seed: the first AP takes its strongest user; each further AP is
        // seeded with the unassigned user most *dissimilar* (in viewport)
        // to the existing seeds, weighted against link quality. Seeding
        // with dissimilar users lets the similarity term keep matching
        // viewers together instead of splitting them arbitrarily.
        let w = self.similarity_weight;
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_aps];
        let mut seeds: Vec<usize> = Vec::new();
        for a in 0..n_aps {
            let candidate = (0..n_users)
                .filter(|&u| user_ap[u] == usize::MAX)
                .max_by(|&x, &y| {
                    let score = |u: usize| {
                        let dissim = if seeds.is_empty() {
                            0.5
                        } else {
                            1.0 - seeds.iter().map(|&s| iou(&maps[u], &maps[s])).sum::<f64>()
                                / seeds.len() as f64
                        };
                        (1.0 - w) * rss_norm(a, u) + w * dissim
                    };
                    score(x).partial_cmp(&score(y)).unwrap()
                });
            if let Some(u) = candidate {
                user_ap[u] = a;
                members[a].push(u);
                seeds.push(u);
            }
        }
        // Attach the rest.
        for u in 0..n_users {
            if user_ap[u] != usize::MAX {
                continue;
            }
            let best_ap = (0..n_aps)
                .max_by(|&x, &y| {
                    let score = |a: usize| {
                        let sim = if members[a].is_empty() {
                            0.5
                        } else {
                            members[a]
                                .iter()
                                .map(|&m| iou(&maps[u], &maps[m]))
                                .sum::<f64>()
                                / members[a].len() as f64
                        };
                        (1.0 - w) * rss_norm(a, u) + w * sim
                    };
                    score(x).partial_cmp(&score(y)).unwrap()
                })
                .unwrap();
            user_ap[u] = best_ap;
            members[best_ap].push(u);
        }
        let user_rss_dbm = (0..n_users).map(|u| rss[user_ap[u]][u]).collect();
        self.finalize(&designers, positions, user_ap, user_rss_dbm)
    }

    fn finalize(
        &self,
        designers: &[MultiLobeDesigner<'_>],
        positions: &[Vec3],
        user_ap: Vec<usize>,
        user_rss_dbm: Vec<f64>,
    ) -> ApAssignment {
        let n_aps = self.channels.len();
        let mut ap_common_rss_dbm = vec![None; n_aps];
        let mut beams = Vec::with_capacity(n_aps);
        for a in 0..n_aps {
            let users: Vec<Vec3> = user_ap
                .iter()
                .enumerate()
                .filter(|&(_, &ap)| ap == a)
                .map(|(u, _)| positions[u])
                .collect();
            if users.is_empty() {
                beams.push(None);
                continue;
            }
            let beam = designers[a].design(&users, &[]);
            ap_common_rss_dbm[a] = Some(beam.common_rss_dbm());
            beams.push(Some((beam, users)));
        }

        // Interference margin: for every victim user, desired signal minus
        // the strongest leakage from other APs' beams.
        let mut min_margin = f64::INFINITY;
        for a in 0..n_aps {
            let Some((beam_a, users_a)) = &beams[a] else {
                continue;
            };
            for (idx, &victim) in users_a.iter().enumerate() {
                let desired = beam_a.member_rss_dbm[idx];
                for b in 0..n_aps {
                    if a == b {
                        continue;
                    }
                    if let Some((beam_b, _)) = &beams[b] {
                        let leak = self.channels[b].rss_dbm(&beam_b.weights, victim, &[]);
                        min_margin = min_margin.min(desired - leak);
                    }
                }
            }
        }
        if !min_margin.is_finite() {
            min_margin = f64::INFINITY;
        }
        ApAssignment {
            user_ap,
            user_rss_dbm,
            ap_common_rss_dbm,
            min_interference_margin_db: min_margin,
        }
    }
}

/// Scratch-backed re-association engine for the campus hot path.
///
/// Produces results bit-identical to [`MultiApCoordinator::assign`] with
/// `similarity_weight = 0.0` and empty visibility maps (the campus
/// configuration: roamers carry no shared subject, so the score reduces
/// to normalized RSS), but evaluates sectors through the pruned
/// [`SweepEngine`] and reuses every buffer across calls — steady-state
/// calls allocate nothing.
#[derive(Debug, Default)]
pub struct EpochCoordinator {
    /// `assignment[user] = ap index` (the [`ApAssignment::user_ap`] analogue).
    pub user_ap: Vec<usize>,
    /// Best-sector RSS (dBm) of each user at its assigned AP.
    pub user_rss_dbm: Vec<f64>,
    /// Worst-case inter-AP interference margin in dB.
    pub min_interference_margin_db: f64,
    /// Prepared receivers, AP-major: `rxs[a * n_users + u]`.
    rxs: Vec<SweepRx>,
    /// Best-sector RSS matrix, AP-major flattened.
    rss: Vec<f64>,
    /// Per-AP member lists (local user indices, ascending).
    ap_users: Vec<Vec<usize>>,
    /// Per-AP designed beams (meaningful where `ap_users[a]` is non-empty).
    beams: Vec<BeamDesign>,
}

impl EpochCoordinator {
    /// Creates an empty coordinator; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-derives the full assignment for one epoch: per-(AP, user) RSS,
    /// greedy pure-RSS association, per-AP group-beam design, and the
    /// inter-AP interference margin.
    ///
    /// `engines[a]` must wrap the same `(channel, codebook)` pair as AP
    /// `a`; results are bit-identical to
    /// `MultiApCoordinator { similarity_weight: 0.0, .. }.assign(positions,
    /// &vec![VisibilityMap::new(); n])`.
    pub fn assign(&mut self, engines: &[SweepEngine<'_>], positions: &[Vec3]) {
        let n_aps = engines.len();
        let n_users = positions.len();
        if self.ap_users.len() < n_aps {
            self.ap_users.resize_with(n_aps, Vec::new);
            self.beams.resize_with(n_aps, BeamDesign::default);
        }
        let need = n_aps * n_users;
        if self.rxs.len() < need {
            self.rxs.resize_with(need, SweepRx::default);
        }
        self.rss.clear();
        self.user_ap.clear();
        self.user_ap.resize(n_users, usize::MAX);
        self.user_rss_dbm.clear();
        self.min_interference_margin_db = f64::INFINITY;
        if n_users == 0 {
            return;
        }

        // Per (ap, user) best-sector RSS via the pruned sweep; the fold
        // order below matches the original a-major flatten exactly.
        for (a, engine) in engines.iter().enumerate() {
            for (u, &pos) in positions.iter().enumerate() {
                let rx = &mut self.rxs[a * n_users + u];
                rx.prepare(engine, pos, &[]);
                let (_, r) = engine.best_sector(rx);
                self.rss.push(r);
            }
        }
        let (lo, hi) = self
            .rss
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
                (lo.min(r), hi.max(r))
            });
        let span = (hi - lo).max(1e-9);
        // With w = 0 the assignment score `(1-w)·rss_norm + w·sim`
        // collapses to rss_norm exactly (sim is finite, `0.0 * sim`
        // contributes a signed zero that never flips a comparison), so
        // seeding and attachment reduce to normalized-RSS argmaxes. The
        // `Iterator::max_by` being replicated keeps the LAST maximal
        // element on ties: replace unless the candidate compares Less.
        let rss_norm = |rss: &[f64], a: usize, u: usize| (rss[a * n_users + u] - lo) / span;
        for a in 0..n_aps {
            let mut best: Option<(usize, f64)> = None;
            for u in 0..n_users {
                if self.user_ap[u] != usize::MAX {
                    continue;
                }
                let score = rss_norm(&self.rss, a, u);
                best = match best {
                    Some((bu, bs))
                        if score.partial_cmp(&bs).unwrap() == std::cmp::Ordering::Less =>
                    {
                        Some((bu, bs))
                    }
                    _ => Some((u, score)),
                };
            }
            if let Some((u, _)) = best {
                self.user_ap[u] = a;
            }
        }
        for u in 0..n_users {
            if self.user_ap[u] != usize::MAX {
                continue;
            }
            let mut best = (0usize, rss_norm(&self.rss, 0, u));
            for a in 1..n_aps {
                let score = rss_norm(&self.rss, a, u);
                if score.partial_cmp(&best.1).unwrap() != std::cmp::Ordering::Less {
                    best = (a, score);
                }
            }
            self.user_ap[u] = best.0;
        }
        for u in 0..n_users {
            self.user_rss_dbm
                .push(self.rss[self.user_ap[u] * n_users + u]);
        }

        // --- Finalize: per-AP group beams + interference margin. ---
        for list in self.ap_users.iter_mut() {
            list.clear();
        }
        for (u, &a) in self.user_ap.iter().enumerate() {
            self.ap_users[a].push(u);
        }
        for (a, engine) in engines.iter().enumerate() {
            let members = &self.ap_users[a];
            if members.is_empty() {
                continue; // idle AP
            }
            let row = &mut self.rxs[a * n_users..(a + 1) * n_users];
            engine.design(row, members, &mut self.beams[a]);
        }

        // Interference margin, in the original loop order: victim APs
        // ascending, members ascending, aggressor APs ascending. Leakage
        // re-uses the already-prepared receivers — a memoized sector eval
        // for default beams, a direct weight eval for custom ones.
        let mut min_margin = f64::INFINITY;
        for a in 0..n_aps {
            for idx in 0..self.ap_users[a].len() {
                let victim = self.ap_users[a][idx];
                let desired = self.beams[a].member_rss_dbm[idx];
                for (b, engine) in engines.iter().enumerate() {
                    if a == b || self.ap_users[b].is_empty() {
                        continue;
                    }
                    let rx = &mut self.rxs[b * n_users + victim];
                    let beam = &self.beams[b];
                    let leak = if beam.customized {
                        rx.eval_weights(&beam.weights)
                    } else {
                        rx.eval_sector(engine, beam.sector)
                    };
                    min_margin = min_margin.min(desired - leak);
                }
            }
        }
        if !min_margin.is_finite() {
            min_margin = f64::INFINITY;
        }
        self.min_interference_margin_db = min_margin;
        // The association sweeps and leakage evals above ran outside any
        // design: book their tallies once per epoch.
        SweepEngine::flush_counts(&mut self.rxs[..need]);
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(ApAssignment {
    user_ap,
    user_rss_dbm,
    ap_common_rss_dbm,
    min_interference_margin_db
});

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_geom::Vec3;
    use volcast_mmwave::{PlanarArray, Room};
    use volcast_pointcloud::CellId;

    fn two_ap_setup() -> (Channel, Channel) {
        let room = Room::default();
        // APs on opposite walls.
        let ap1 = PlanarArray::airfide(
            Vec3::new(0.0, 2.6, room.depth / 2.0 - 0.1),
            Vec3::new(0.0, 1.3, 0.0) - Vec3::new(0.0, 2.6, room.depth / 2.0 - 0.1),
        );
        let ap2 = PlanarArray::airfide(
            Vec3::new(0.0, 2.6, -room.depth / 2.0 + 0.1),
            Vec3::new(0.0, 1.3, 0.0) - Vec3::new(0.0, 2.6, -room.depth / 2.0 + 0.1),
        );
        (Channel::new(room, ap1), Channel::new(room, ap2))
    }

    fn map_of(ids: &[i32]) -> VisibilityMap {
        let mut m = VisibilityMap::new();
        for &x in ids {
            m.cells.insert(CellId::new(x, 0, 0), 1.0);
        }
        m
    }

    #[test]
    fn users_go_to_nearer_ap() {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let mut coord = MultiApCoordinator::new(vec![&c1, &c2], vec![&cb1, &cb2]);
        coord.similarity_weight = 0.0; // pure link quality
                                       // Two users near the +z wall (AP1), two near -z (AP2).
        let positions = vec![
            Vec3::new(-1.0, 1.5, 2.5),
            Vec3::new(1.0, 1.5, 2.5),
            Vec3::new(-1.0, 1.5, -2.5),
            Vec3::new(1.0, 1.5, -2.5),
        ];
        let maps = vec![map_of(&[0]); 4];
        let a = coord.assign(&positions, &maps);
        assert_eq!(a.user_ap[0], a.user_ap[1]);
        assert_eq!(a.user_ap[2], a.user_ap[3]);
        assert_ne!(a.user_ap[0], a.user_ap[2]);
        assert_eq!(a.user_rss_dbm.len(), 4);
        assert!(a.user_rss_dbm.iter().all(|r| r.is_finite() && *r < 0.0));
    }

    #[test]
    fn similarity_pulls_matching_viewports_together() {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let mut coord = MultiApCoordinator::new(vec![&c1, &c2], vec![&cb1, &cb2]);
        coord.similarity_weight = 0.95;
        // All users equidistant-ish from both APs (midline), pairs by map.
        let positions = vec![
            Vec3::new(-2.0, 1.5, 0.0),
            Vec3::new(2.0, 1.5, 0.0),
            Vec3::new(-2.0, 1.5, 0.2),
            Vec3::new(2.0, 1.5, 0.2),
        ];
        let maps = vec![
            map_of(&[0, 1]),
            map_of(&[5, 6]),
            map_of(&[0, 1]),
            map_of(&[5, 6]),
        ];
        let a = coord.assign(&positions, &maps);
        // Users 0 and 2 (identical maps) must share an AP, likewise 1 & 3.
        assert_eq!(a.user_ap[0], a.user_ap[2]);
        assert_eq!(a.user_ap[1], a.user_ap[3]);
    }

    #[test]
    fn opposite_wall_aps_have_positive_margin() {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let coord = MultiApCoordinator::new(vec![&c1, &c2], vec![&cb1, &cb2]);
        let positions = vec![Vec3::new(0.0, 1.5, 2.0), Vec3::new(0.0, 1.5, -2.0)];
        let maps = vec![map_of(&[0]), map_of(&[9])];
        let a = coord.assign(&positions, &maps);
        assert!(
            a.min_interference_margin_db > 0.0,
            "margin {} dB",
            a.min_interference_margin_db
        );
        assert!(a.ap_common_rss_dbm.iter().all(|r| r.is_some()));
    }

    #[test]
    fn empty_user_list() {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let coord = MultiApCoordinator::new(vec![&c1, &c2], vec![&cb1, &cb2]);
        let a = coord.assign(&[], &[]);
        assert!(a.user_ap.is_empty());
        assert_eq!(a.min_interference_margin_db, f64::INFINITY);
    }

    #[test]
    fn epoch_coordinator_matches_pure_rss_assign() {
        use volcast_util::rng::Rng;
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let mut coord = MultiApCoordinator::new(vec![&c1, &c2], vec![&cb1, &cb2]);
        coord.similarity_weight = 0.0;
        let engines = [SweepEngine::new(&c1, &cb1), SweepEngine::new(&c2, &cb2)];
        let mut epoch = EpochCoordinator::new();
        let room = Room::default();
        let mut rng = Rng::seed_from_u64(0xE90C);
        // Reuse one EpochCoordinator across all cases — also exercises
        // the buffer-reuse path (shrinking and growing populations).
        for &n in &[1usize, 2, 5, 16, 3, 40, 0, 7] {
            let positions: Vec<Vec3> = (0..n)
                .map(|_| {
                    Vec3::new(
                        (rng.gen_range(0.0..1.0) - 0.5) * (room.width - 0.4),
                        0.8 + rng.gen_range(0.0..1.0) * 1.2,
                        (rng.gen_range(0.0..1.0) - 0.5) * (room.depth - 0.4),
                    )
                })
                .collect();
            let maps = vec![VisibilityMap::new(); n];
            let want = coord.assign(&positions, &maps);
            epoch.assign(&engines, &positions);
            assert_eq!(epoch.user_ap, want.user_ap, "n={n}");
            assert_eq!(epoch.user_rss_dbm.len(), want.user_rss_dbm.len());
            for (got, exp) in epoch.user_rss_dbm.iter().zip(&want.user_rss_dbm) {
                assert_eq!(got.to_bits(), exp.to_bits(), "n={n}");
            }
            assert_eq!(
                epoch.min_interference_margin_db.to_bits(),
                want.min_interference_margin_db.to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn single_ap_has_no_interference() {
        let (c1, _) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let coord = MultiApCoordinator::new(vec![&c1], vec![&cb1]);
        let positions = vec![Vec3::new(0.0, 1.5, 0.0), Vec3::new(1.0, 1.5, 0.0)];
        let maps = vec![map_of(&[0]), map_of(&[0])];
        let a = coord.assign(&positions, &maps);
        assert!(a.user_ap.iter().all(|&ap| ap == 0));
        assert_eq!(a.min_interference_margin_db, f64::INFINITY);
    }
}
