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
use volcast_mmwave::{BeamDesign, SweepEngine, SweepRx};
use volcast_viewport::{iou, VisibilityMap};

/// Scratch-backed AP-association engine: per-(AP, user) best-sector RSS
/// through the pruned [`SweepEngine`], a greedy assignment scored
/// `(1-w)·rss_norm + w·viewport-similarity`, per-AP group-beam design and
/// the inter-AP interference margin. Every buffer is reused across calls —
/// steady-state calls allocate nothing.
#[derive(Debug, Default)]
pub struct EpochCoordinator {
    /// `assignment[user] = ap index`.
    pub user_ap: Vec<usize>,
    /// Best-sector RSS (dBm) of each user at its assigned AP — the link
    /// budget the per-user unicast leg sees before group-beam design.
    pub user_rss_dbm: Vec<f64>,
    /// Worst-case inter-AP interference margin in dB: desired common RSS
    /// minus the strongest cross-AP leakage at any victim user. Positive
    /// and large = clean spatial reuse.
    pub min_interference_margin_db: f64,
    /// Prepared receivers, AP-major: `rxs[a * n_users + u]`.
    rxs: Vec<SweepRx>,
    /// Best-sector RSS matrix, AP-major flattened.
    rss: Vec<f64>,
    /// Per-AP member lists (local user indices): in attachment order
    /// while the assignment runs, ascending from beam design on.
    ap_users: Vec<Vec<usize>>,
    /// The users that seeded an AP so far, in AP order.
    seeds: Vec<usize>,
    /// Per-AP designed beams (meaningful where `ap_users[a]` is non-empty).
    beams: Vec<BeamDesign>,
}

impl EpochCoordinator {
    /// Creates an empty coordinator; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pure link-quality association (`similarity_weight = 0`): what the
    /// campus runs, whose roamers carry no shared subject to be similar
    /// about. See [`assign_similar`](Self::assign_similar).
    pub fn assign(&mut self, engines: &[SweepEngine<'_>], positions: &[Vec3]) {
        self.assign_similar(engines, positions, &[], 0.0);
    }

    /// Re-derives the full assignment for one epoch.
    ///
    /// Greedy: the first AP is seeded with its strongest user and each
    /// further AP with the unassigned user most *dissimilar* (in viewport)
    /// to the existing seeds, weighted against link quality — seeding with
    /// dissimilar users lets the similarity term keep matching viewers
    /// together instead of splitting them arbitrarily. Every remaining
    /// user then attaches to the AP maximizing
    /// `(1-w)·rss_norm + w·mean-IoU-with-AP's-users`, `w` being
    /// `similarity_weight` (0 = pure RSS, 1 = pure similarity). At
    /// `w == 0` the similarity term cannot move a comparison, so it is not
    /// computed and `maps` is not read.
    ///
    /// `engines[a]` wraps AP `a`'s `(channel, codebook)` pair.
    pub fn assign_similar(
        &mut self,
        engines: &[SweepEngine<'_>],
        positions: &[Vec3],
        maps: &[VisibilityMap],
        similarity_weight: f64,
    ) {
        let n_aps = engines.len();
        let n_users = positions.len();
        let w = similarity_weight;
        assert!(w == 0.0 || maps.len() == n_users);
        if self.ap_users.len() < n_aps {
            self.ap_users.resize_with(n_aps, Vec::new);
            self.beams.resize_with(n_aps, BeamDesign::default);
        }
        let need = n_aps * n_users;
        if self.rxs.len() < need {
            self.rxs.resize_with(need, SweepRx::default);
        }
        for list in self.ap_users.iter_mut() {
            list.clear();
        }
        self.seeds.clear();
        self.rss.clear();
        self.user_ap.clear();
        self.user_ap.resize(n_users, usize::MAX);
        self.user_rss_dbm.clear();
        self.min_interference_margin_db = f64::INFINITY;
        if n_users == 0 {
            return;
        }

        // Per (ap, user) best-sector RSS via the pruned sweep, normalized
        // into [0,1] for scoring.
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
        let rss = &self.rss;
        // User `u`'s score at AP `a` against the users already there (or,
        // when seeding, *dis*similarity to the earlier seeds); with nobody
        // to compare to, similarity is the neutral 0.5.
        let score = |a: usize, u: usize, others: &[usize], dissimilar: bool| {
            let rss_norm = (rss[a * n_users + u] - lo) / span;
            if w == 0.0 {
                return rss_norm;
            }
            let sim = if others.is_empty() {
                0.5
            } else {
                let mean = others.iter().map(|&m| iou(&maps[u], &maps[m])).sum::<f64>()
                    / others.len() as f64;
                if dissimilar {
                    1.0 - mean
                } else {
                    mean
                }
            };
            (1.0 - w) * rss_norm + w * sim
        };
        // Both argmaxes keep the LAST maximal element on ties: replace
        // unless the candidate compares Less.
        for a in 0..n_aps {
            let mut best: Option<(usize, f64)> = None;
            for u in 0..n_users {
                if self.user_ap[u] != usize::MAX {
                    continue;
                }
                let s = score(a, u, &self.seeds, true);
                if best.is_none_or(|(_, bs)| s.partial_cmp(&bs).unwrap().is_ge()) {
                    best = Some((u, s));
                }
            }
            if let Some((u, _)) = best {
                self.user_ap[u] = a;
                self.ap_users[a].push(u);
                self.seeds.push(u);
            }
        }
        for u in 0..n_users {
            if self.user_ap[u] != usize::MAX {
                continue;
            }
            let mut best = (0usize, score(0, u, &self.ap_users[0], false));
            for a in 1..n_aps {
                let s = score(a, u, &self.ap_users[a], false);
                if s.partial_cmp(&best.1).unwrap().is_ge() {
                    best = (a, s);
                }
            }
            self.user_ap[u] = best.0;
            self.ap_users[best.0].push(u);
        }
        for u in 0..n_users {
            self.user_rss_dbm
                .push(self.rss[self.user_ap[u] * n_users + u]);
        }

        // --- Finalize: per-AP group beams + interference margin. ---
        for (a, engine) in engines.iter().enumerate() {
            let members = &mut self.ap_users[a];
            if members.is_empty() {
                continue; // idle AP
            }
            members.sort_unstable();
            let row = &mut self.rxs[a * n_users..(a + 1) * n_users];
            engine.design(row, members, &mut self.beams[a]);
        }

        // Interference margin: for every victim user, desired signal minus
        // the strongest leakage from other APs' beams (victim APs
        // ascending, members ascending, aggressor APs ascending). Leakage
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

    /// Common RSS (dBm) of AP `ap`'s designed group beam over its assigned
    /// users; `None` for an idle AP.
    pub fn ap_common_rss_dbm(&self, ap: usize) -> Option<f64> {
        let idle = self.ap_users.get(ap).is_none_or(|users| users.is_empty());
        (!idle).then(|| self.beams[ap].common_rss_dbm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_mmwave::{Channel, Codebook, PlanarArray, Room};

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

    /// A full-density map over a 10-cell partition.
    fn map_of(ranks: &[usize]) -> VisibilityMap {
        VisibilityMap::from_ranks(10, ranks.iter().map(|&r| (r, 1.0)))
    }

    /// Runs one assignment over the two opposite-wall APs (or only the
    /// first when `single`).
    fn assigned(
        positions: &[Vec3],
        maps: &[VisibilityMap],
        similarity_weight: f64,
        single: bool,
    ) -> EpochCoordinator {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let engines = [SweepEngine::new(&c1, &cb1), SweepEngine::new(&c2, &cb2)];
        let mut coord = EpochCoordinator::new();
        let engines = if single { &engines[..1] } else { &engines[..] };
        coord.assign_similar(engines, positions, maps, similarity_weight);
        coord
    }

    #[test]
    fn users_go_to_nearer_ap() {
        // Two users near the +z wall (AP1), two near -z (AP2).
        let positions = [
            Vec3::new(-1.0, 1.5, 2.5),
            Vec3::new(1.0, 1.5, 2.5),
            Vec3::new(-1.0, 1.5, -2.5),
            Vec3::new(1.0, 1.5, -2.5),
        ];
        // Pure link quality: the maps are not even read.
        let a = assigned(&positions, &[], 0.0, false);
        assert_eq!(a.user_ap[0], a.user_ap[1]);
        assert_eq!(a.user_ap[2], a.user_ap[3]);
        assert_ne!(a.user_ap[0], a.user_ap[2]);
        assert_eq!(a.user_rss_dbm.len(), 4);
        assert!(a.user_rss_dbm.iter().all(|r| r.is_finite() && *r < 0.0));
    }

    #[test]
    fn similarity_pulls_matching_viewports_together() {
        // All users equidistant-ish from both APs (midline), pairs by map.
        let positions = [
            Vec3::new(-2.0, 1.5, 0.0),
            Vec3::new(2.0, 1.5, 0.0),
            Vec3::new(-2.0, 1.5, 0.2),
            Vec3::new(2.0, 1.5, 0.2),
        ];
        let maps = [
            map_of(&[0, 1]),
            map_of(&[5, 6]),
            map_of(&[0, 1]),
            map_of(&[5, 6]),
        ];
        let a = assigned(&positions, &maps, 0.95, false);
        // Users 0 and 2 (identical maps) must share an AP, likewise 1 & 3.
        assert_eq!(a.user_ap[0], a.user_ap[2]);
        assert_eq!(a.user_ap[1], a.user_ap[3]);
    }

    #[test]
    fn opposite_wall_aps_have_positive_margin() {
        let positions = [Vec3::new(0.0, 1.5, 2.0), Vec3::new(0.0, 1.5, -2.0)];
        let maps = [map_of(&[0]), map_of(&[9])];
        let a = assigned(&positions, &maps, 0.4, false);
        assert!(
            a.min_interference_margin_db > 0.0,
            "margin {} dB",
            a.min_interference_margin_db
        );
        assert!((0..2).all(|ap| a.ap_common_rss_dbm(ap).is_some()));
    }

    #[test]
    fn empty_user_list() {
        let mut a = assigned(&[Vec3::new(0.0, 1.5, 2.0)], &[map_of(&[0])], 0.4, false);
        assert_eq!(a.ap_common_rss_dbm(0).is_some(), a.user_ap[0] == 0);
        // Re-running the same coordinator over nobody leaves no stale state.
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        a.assign(
            &[SweepEngine::new(&c1, &cb1), SweepEngine::new(&c2, &cb2)],
            &[],
        );
        assert!(a.user_ap.is_empty());
        assert_eq!(a.min_interference_margin_db, f64::INFINITY);
        assert!((0..3).all(|ap| a.ap_common_rss_dbm(ap).is_none()));
    }

    #[test]
    fn single_ap_has_no_interference() {
        let positions = [Vec3::new(0.0, 1.5, 0.0), Vec3::new(1.0, 1.5, 0.0)];
        let maps = [map_of(&[0]), map_of(&[0])];
        let a = assigned(&positions, &maps, 0.4, true);
        assert!(a.user_ap.iter().all(|&ap| ap == 0));
        assert_eq!(a.min_interference_margin_db, f64::INFINITY);
    }
}
