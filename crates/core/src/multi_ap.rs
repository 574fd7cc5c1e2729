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
use volcast_mmwave::{BeamDesign, Channel, Codebook, SweepEngine, SweepRx};
use volcast_util::obs;
use volcast_viewport::{iou, VisibilityMap};

/// Scratch-backed AP-association engine: per-(AP, user) best-sector RSS
/// through the [`SweepEngine`], a greedy assignment scored
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
    /// Prepared receivers, one row per AP: `rxs[a][u]` is user `u`'s at AP
    /// `a`. Rows grow to the largest user count seen.
    rxs: Vec<Vec<SweepRx>>,
    /// The last call's `(channel, codebook)` per AP and positions per user:
    /// what the receivers in `rxs[a][..prev_pos.len()]` were prepared for.
    engines_seen: Vec<(Channel, Codebook)>,
    prev_pos: Vec<Vec3>,
    /// [`Self::keep_receivers`] scratch: `prev_pos` slots sorted by position
    /// bits, each slot's destination, and whether each user kept receivers.
    by_pos: Vec<usize>,
    dest: Vec<usize>,
    kept: Vec<bool>,
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
    ///
    /// # Panics
    ///
    /// If `engines` is empty, or if `similarity_weight` is non-zero and
    /// `maps` is not one per user.
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
        assert!(n_aps > 0, "EpochCoordinator needs at least one AP engine");
        assert!(w == 0.0 || maps.len() == n_users);
        if self.ap_users.len() < n_aps {
            self.ap_users.resize_with(n_aps, Vec::new);
            self.beams.resize_with(n_aps, BeamDesign::default);
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

        // Per (ap, user) best-sector RSS via the sweep, normalized
        // into [0,1] for scoring.
        self.keep_receivers(engines, positions);
        for (a, engine) in engines.iter().enumerate() {
            for (u, &pos) in positions.iter().enumerate() {
                let rx = &mut self.rxs[a][u];
                if !self.kept[u] {
                    rx.prepare(engine, pos, &[]);
                }
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
            engine.design(&mut self.rxs[a], members, &mut self.beams[a]);
        }

        // Interference margin: for every victim user, desired signal minus
        // the strongest leakage from other APs' beams (victim APs
        // ascending, members ascending, aggressor APs ascending). Leakage
        // re-uses the victim's already-prepared receiver at the aggressor:
        // its swept table for a default beam, its kernels under the custom
        // beam's terms for a custom one.
        let mut min_margin = f64::INFINITY;
        for a in 0..n_aps {
            for idx in 0..self.ap_users[a].len() {
                let victim = self.ap_users[a][idx];
                let desired = self.beams[a].member_rss_dbm[idx];
                for b in 0..n_aps {
                    if a == b || self.ap_users[b].is_empty() {
                        continue;
                    }
                    let leak = engines[b].beam_dbm(&mut self.rxs[b][victim], &self.beams[b]);
                    min_margin = min_margin.min(desired - leak);
                }
            }
        }
        if !min_margin.is_finite() {
            min_margin = f64::INFINITY;
        }
        self.min_interference_margin_db = min_margin;
    }

    /// Moves, in place in every row, the receivers of each user standing bit
    /// for bit where one stood last call (the first such slot unclaimed) to
    /// its slot and marks it `kept`: a receiver is a pure function of engine
    /// and position, so an unequal engine forgets them all.
    fn keep_receivers(&mut self, engines: &[SweepEngine<'_>], positions: &[Vec3]) {
        let seen = self.engines_seen.iter().map(|(c, b)| (c, b));
        if !seen.eq(engines.iter().map(|e| (e.channel(), e.codebook()))) {
            let clone = |e: &SweepEngine| (e.channel().clone(), e.codebook().clone());
            self.engines_seen = engines.iter().map(clone).collect();
            self.prev_pos.clear();
        }
        let n_rows = self.rxs.len().max(engines.len());
        self.rxs.resize_with(n_rows, Vec::new);
        let width = self.rxs[0].len().max(positions.len());
        for row in &mut self.rxs {
            row.resize_with(width, SweepRx::default);
        }
        let key = |p: Vec3| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits());
        let prev = &self.prev_pos;
        let (by_pos, dest, kept) = (&mut self.by_pos, &mut self.dest, &mut self.kept);
        by_pos.clear();
        by_pos.extend(0..prev.len());
        by_pos.sort_unstable_by_key(|&o| (key(prev[o]), o));
        dest.clear();
        dest.resize(width, usize::MAX);
        kept.clear();
        kept.resize(width, false);
        for (u, &p) in positions.iter().enumerate() {
            let first = by_pos.partition_point(|&o| key(prev[o]) < key(p));
            let mut spot = (by_pos[first..].iter()).take_while(|&&o| key(prev[o]) == key(p));
            if let Some(&o) = spot.find(|&&o| dest[o] == usize::MAX) {
                (dest[o], kept[u]) = (u, true);
            }
        }
        // Unclaimed slots pair with unkept users in order; apply by cycles.
        let mut free = (0..width).filter(|&u| !kept[u]);
        for d in dest.iter_mut().filter(|d| **d == usize::MAX) {
            *d = free.next().unwrap();
        }
        for i in 0..width {
            while dest[i] != i {
                let j = dest[i];
                self.rxs.iter_mut().for_each(|row| row.swap(i, j));
                dest.swap(i, j);
            }
        }
        let n_kept = kept.iter().filter(|&&k| k).count();
        obs::add("multi_ap.receivers_kept", (n_kept * engines.len()) as u64);
        self.prev_pos.clear();
        self.prev_pos.extend_from_slice(positions);
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
    use volcast_mmwave::{PlanarArray, Room};
    use volcast_util::prop::run_cases_n;
    use volcast_util::rng::Rng;

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

    /// The interference margin against element sums: each AP's group beam
    /// redesigned by `MultiLobeDesigner` (the same decision, with its
    /// weights), priced at every victim of the other AP through
    /// `Channel::rss_dbm`; within 1e-9 dB of the coordinator's, which
    /// prices custom beams at victims from their terms.
    #[test]
    fn the_interference_margin_matches_element_sums_at_each_victim() {
        let (c1, c2) = two_ap_setup();
        let channels = [c1, c2];
        let codebooks = channels.each_ref().map(|c| Codebook::default_for(&c.array));
        let engines = [0, 1].map(|a| SweepEngine::new(&channels[a], &codebooks[a]));
        let mut coord = EpochCoordinator::new();
        let mut custom = 0;
        let name = "the_interference_margin_matches_element_sums_at_each_victim";
        run_cases_n(name, 64, |rng| {
            let positions: Vec<Vec3> = (0..rng.gen_range(2..9usize))
                .map(|_| {
                    let at = |rng: &mut Rng, half: f64| rng.gen_range(-half..half);
                    Vec3::new(at(rng, 2.8), 1.0 + at(rng, 0.6).abs(), at(rng, 2.8))
                })
                .collect();
            coord.assign(&engines, &positions);
            let mut want = f64::INFINITY;
            for a in 0..2 {
                let b = 1 - a;
                let members: Vec<Vec3> =
                    (coord.ap_users[b].iter()).map(|&u| positions[u]).collect();
                if members.is_empty() {
                    continue;
                }
                let designer = volcast_mmwave::MultiLobeDesigner::new(&channels[b], &codebooks[b]);
                let beam = designer.design(&members, &[]);
                assert_eq!(beam.customized, coord.beams[b].customized);
                custom += beam.customized as usize;
                for (i, &victim) in coord.ap_users[a].iter().enumerate() {
                    let leak = channels[b].rss_dbm(&beam.weights, positions[victim], &[]);
                    want = want.min(coord.beams[a].member_rss_dbm[i] - leak);
                }
            }
            let got = coord.min_interference_margin_db;
            let want = if want.is_finite() {
                want
            } else {
                f64::INFINITY
            };
            assert!(
                got == want || (got - want).abs() <= 1e-9,
                "{got} dB against {want} at {positions:?}"
            );
        });
        assert!(custom > 0, "no aggressor beam was custom");
    }

    #[test]
    #[should_panic(expected = "needs at least one AP")]
    fn no_aps_is_refused_by_name() {
        EpochCoordinator::new().assign(&[], &[Vec3::new(0.0, 1.5, 0.0)]);
    }

    /// Everything a call leaves readable, as bits.
    type Readout = (Vec<usize>, Vec<u64>, u64, Vec<Option<u64>>);

    fn readout(c: &EpochCoordinator) -> Readout {
        (
            c.user_ap.clone(),
            c.user_rss_dbm.iter().map(|r| r.to_bits()).collect(),
            c.min_interference_margin_db.to_bits(),
            (0..3)
                .map(|a| c.ap_common_rss_dbm(a).map(f64::to_bits))
                .collect(),
        )
    }

    fn random_position(rng: &mut Rng) -> Vec3 {
        let room = Room::default();
        Vec3::new(
            (rng.gen_range(0.0..1.0) - 0.5) * room.width * 0.9,
            0.5 + rng.gen_range(0.0..1.5),
            (rng.gen_range(0.0..1.0) - 0.5) * room.depth * 0.9,
        )
    }

    /// The next call's users, drawn from the last call's: most stand still
    /// (bit for bit), some move (sometimes along one axis only), drop out,
    /// are duplicated or are joined by a newcomer; the survivors are
    /// shuffled so kept receivers change slots, and now and then nobody is
    /// left.
    fn next_positions(rng: &mut Rng, prev: &[Vec3]) -> Vec<Vec3> {
        if rng.gen_range(0..12u32) == 0 {
            return Vec::new();
        }
        let mut next = Vec::new();
        for &p in prev {
            match rng.gen_range(0..12u32) {
                0..=5 => next.push(p),
                6 => next.push(random_position(rng)),
                7 => {
                    let q = random_position(rng);
                    next.push(match rng.gen_range(0..3u32) {
                        0 => Vec3::new(q.x, p.y, p.z),
                        1 => Vec3::new(p.x, q.y, p.z),
                        _ => Vec3::new(p.x, p.y, q.z),
                    });
                }
                8 => {}
                9 => next.extend([p, p]),
                _ => next.extend([p, random_position(rng)]),
            }
        }
        if next.is_empty() || rng.gen_bool(0.2) {
            next.push(random_position(rng));
        }
        for i in (1..next.len()).rev() {
            next.swap(i, rng.gen_range(0..=i));
        }
        next
    }

    /// A coordinator reused across calls — whatever receivers it keeps from
    /// earlier ones — reads out exactly what a fresh one does, through
    /// moves, drop-outs, duplicates, empty calls and engine swaps.
    #[test]
    fn a_reused_coordinator_matches_a_fresh_one() {
        let (c1, c2) = two_ap_setup();
        let depth = Room::default().depth;
        let moved = PlanarArray::airfide(
            Vec3::new(1.5, 2.6, -depth / 2.0 + 0.1),
            Vec3::new(-1.5, -1.3, depth / 2.0 - 0.1),
        );
        let c3 = Channel::new(c2.room, moved);
        let (cb1, cb2) = (
            Codebook::default_for(&c1.array),
            Codebook::default_for(&c2.array),
        );
        let coarse = Codebook::dft(&c1.array, 8, 2, 60f64.to_radians(), 30f64.to_radians());
        let cb3 = Codebook::default_for(&c3.array);
        let pairs = [
            [SweepEngine::new(&c1, &cb1), SweepEngine::new(&c2, &cb2)],
            [SweepEngine::new(&c1, &coarse), SweepEngine::new(&c3, &cb3)],
        ];
        run_cases_n("a_reused_coordinator_matches_a_fresh_one", 256, |rng| {
            let mut coord = EpochCoordinator::new();
            let first = rng.gen_range(0..8usize);
            let mut positions: Vec<Vec3> = (0..first).map(|_| random_position(rng)).collect();
            let mut other = false;
            for call in 0..rng.gen_range(4..=8usize) {
                if call > 0 {
                    positions = next_positions(rng, &positions);
                }
                // About every third call swaps the second pair in; the
                // call after swaps it back.
                other = !other && rng.gen_range(0..3u32) == 0;
                let pair = &pairs[other as usize];
                let engines = if rng.gen_range(0..8u32) == 0 {
                    &pair[..1]
                } else {
                    &pair[..]
                };
                let maps: Vec<VisibilityMap> = (positions.iter())
                    .map(|_| map_of(&[rng.gen_range(0..4usize), rng.gen_range(3..10usize)]))
                    .collect();
                let similar = rng.gen_bool(0.5);
                let run = |c: &mut EpochCoordinator| {
                    if similar {
                        c.assign_similar(engines, &positions, &maps, 0.4);
                    } else {
                        c.assign(engines, &positions);
                    }
                };
                let mut fresh = EpochCoordinator::new();
                run(&mut coord);
                run(&mut fresh);
                let ctx = format!(
                    "call {call}: {} users, {} APs",
                    positions.len(),
                    engines.len()
                );
                assert_eq!(readout(&coord), readout(&fresh), "{ctx}");
            }
        });
    }
}
