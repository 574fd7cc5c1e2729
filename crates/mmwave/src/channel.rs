//! Geometric 60 GHz indoor channel: LoS + image-method reflections +
//! human blockage.
//!
//! This is the Remcom Wireless InSite substitute (`DESIGN.md` §2): for a
//! rectangular room we enumerate the line-of-sight path and the first-order
//! specular reflections off the four walls and the ceiling (floor
//! reflections at 60 GHz are usually carpet-absorbed; included optionally).
//! Every path carries free-space loss, oxygen absorption, a per-reflection
//! loss, and a body-blockage penalty if any blocker cylinder intersects it.
//! RSS for a beam is the non-coherent power sum over paths weighted by the
//! beam's gain toward each path's departure direction.

use crate::array::{AntennaWeights, PlanarArray};
use crate::calib;
use crate::sweep::SweepRx;
use volcast_geom::{Ray, Vec3};

/// A rectangular room: `x in [-w/2, w/2]`, `y in [0, h]`, `z in [-d/2, d/2]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Room {
    /// Width (x extent) in meters.
    pub width: f64,
    /// Height (y extent) in meters.
    pub height: f64,
    /// Depth (z extent) in meters.
    pub depth: f64,
    /// Include the floor reflection (off by default: carpet absorbs).
    pub floor_reflection: bool,
}

impl Default for Room {
    /// An 8 x 3 x 8 m lab/classroom.
    fn default() -> Self {
        Room {
            width: 8.0,
            height: 3.0,
            depth: 8.0,
            floor_reflection: false,
        }
    }
}

/// A standing human blocker: vertical cylinder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blocker {
    /// Cylinder center (x, z); y ignored.
    pub center: Vec3,
    /// Radius in meters.
    pub radius: f64,
    /// Height in meters (from the floor).
    pub height: f64,
}

impl Blocker {
    /// A typical standing person at `center` (head position or body center).
    pub fn person(center: Vec3) -> Self {
        Blocker {
            center,
            radius: 0.25,
            height: 1.8,
        }
    }
}

/// One propagation path from the AP to a receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// First hop target from the TX: the receiver itself (LoS) or the
    /// specular reflection point on a surface.
    pub via: Vec3,
    /// Total path length in meters.
    pub length: f64,
    /// Fixed extra loss (reflection), dB.
    pub extra_loss_db: f64,
    /// `true` for the direct path.
    pub is_los: bool,
}

/// The channel: a room plus the AP's planar array.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Room geometry.
    pub room: Room,
    /// AP antenna array (position + orientation included).
    pub array: PlanarArray,
}

impl Channel {
    /// Creates a channel with the array mounted in the room.
    pub fn new(room: Room, array: PlanarArray) -> Self {
        Channel { room, array }
    }

    /// The default experimental setup: 8 x 3 x 8 m room, 8x4 array mounted
    /// high on the +z wall, tilted slightly down toward the room center.
    pub fn default_setup() -> Self {
        let room = Room::default();
        let pos = Vec3::new(0.0, 2.6, room.depth / 2.0 - 0.1);
        let facing = Vec3::new(0.0, 1.3, 0.0) - pos; // toward room center
        Channel::new(room, PlanarArray::airfide(pos, facing))
    }

    /// Enumerates propagation paths from the AP to `rx`: LoS plus
    /// first-order reflections via the image method.
    pub fn paths(&self, rx: Vec3) -> Vec<Path> {
        let mut out = Vec::with_capacity(6);
        self.paths_into(rx, &mut out);
        out
    }

    /// The most paths [`Channel::paths_into`] finds: line of sight, four
    /// walls and the ceiling, and the floor when it reflects.
    pub fn max_paths(&self) -> usize {
        6 + self.room.floor_reflection as usize
    }

    /// [`Channel::paths`] into a caller-owned buffer (cleared first) — the
    /// single enumeration program behind every prepared receiver.
    pub fn paths_into(&self, rx: Vec3, out: &mut Vec<Path>) {
        out.clear();
        let tx = self.array.position;
        out.push(Path {
            via: rx,
            length: tx.distance(rx),
            extra_loss_db: 0.0,
            is_los: true,
        });

        let (hw, hd) = (self.room.width / 2.0, self.room.depth / 2.0);
        // (axis, plane coordinate) for each reflecting surface.
        let surfaces = [
            (0usize, -hw),
            (0, hw),
            (2, -hd),
            (2, hd),
            (1, self.room.height),
        ];
        let floor = self.room.floor_reflection.then_some((1usize, 0.0));
        for (axis, plane) in surfaces.into_iter().chain(floor) {
            if let Some(p) = self.reflection_path(tx, rx, axis, plane) {
                out.push(p);
            }
        }
        debug_assert!(out.len() <= self.max_paths());
    }

    /// Image-method reflection off the plane `coord[axis] = plane`.
    fn reflection_path(&self, tx: Vec3, rx: Vec3, axis: usize, plane: f64) -> Option<Path> {
        // Mirror the receiver across the plane.
        let mut img = rx;
        match axis {
            0 => img.x = 2.0 * plane - rx.x,
            1 => img.y = 2.0 * plane - rx.y,
            _ => img.z = 2.0 * plane - rx.z,
        }
        let total = tx.distance(img);
        if total < 1e-9 {
            return None;
        }
        // Reflection point: where TX->image crosses the plane.
        let dir = (img - tx) / total;
        let denom = dir[axis];
        if denom.abs() < 1e-9 {
            return None;
        }
        let t = (plane - tx[axis]) / denom;
        if t <= 0.0 || t >= total {
            return None; // reflection point not between TX and image
        }
        let via = tx + dir * t;
        // The bounce point must lie on the actual wall area.
        if !self.contains_on_surface(via) {
            return None;
        }
        Some(Path {
            via,
            length: total,
            extra_loss_db: calib::REFLECTION_LOSS_DB,
            is_los: false,
        })
    }

    fn contains_on_surface(&self, p: Vec3) -> bool {
        let (hw, hd) = (self.room.width / 2.0, self.room.depth / 2.0);
        let eps = 1e-6;
        p.x >= -hw - eps
            && p.x <= hw + eps
            && p.y >= -eps
            && p.y <= self.room.height + eps
            && p.z >= -hd - eps
            && p.z <= hd + eps
    }

    /// `true` when any blocker cylinder interrupts the segment `a -> b`.
    ///
    /// A blocker whose cylinder axis stands (horizontally) on the segment's
    /// receiving endpoint `b` is treated as the receiver's own body and
    /// ignored — their device is above their shoulders, not behind their
    /// torso. This lets callers pass the full room population without
    /// manually excluding each receiver.
    ///
    /// A body whose circle, widened by 1 mm, misses the segment's xz
    /// bounding box is skipped before the guard's square root and the
    /// quadratic: in exact arithmetic it can neither stand on `b` nor be
    /// hit strictly inside the segment, and 1 mm dwarfs any rounding of
    /// either test.
    fn segment_blocked(&self, a: Vec3, b: Vec3, blockers: &[Blocker]) -> bool {
        let (x_lo, x_hi) = (a.x.min(b.x), a.x.max(b.x));
        let (z_lo, z_hi) = (a.z.min(b.z), a.z.max(b.z));
        let mut near = (blockers.iter())
            .filter(|bl| {
                let r = bl.radius + 1e-3;
                let (x, z) = (bl.center.x, bl.center.z);
                x + r >= x_lo && x - r <= x_hi && z + r >= z_lo && z - r <= z_hi
            })
            .peekable();
        if near.peek().is_none() {
            return false;
        }
        let Some(ray) = Ray::between(a, b) else {
            return false;
        };
        let dist = a.distance(b);
        near.any(|bl| {
            // Own-body exclusion: axis within the cylinder radius of the
            // receiving endpoint.
            let horiz = ((bl.center.x - b.x).powi(2) + (bl.center.z - b.z).powi(2)).sqrt();
            if horiz <= bl.radius + 1e-6 {
                return false;
            }
            match ray.intersect_vertical_cylinder(
                bl.center.x,
                bl.center.z,
                bl.radius,
                0.0,
                bl.height,
            ) {
                Some(t) => t > 1e-6 && t < dist - bl.radius.min(dist * 0.5),
                None => false,
            }
        })
    }

    /// A one-shot located receiver at `rx`: the allocating front the
    /// `rss_*` conveniences below share. Frame loops keep a [`SweepRx`] of
    /// their own and re-locate it in place instead.
    fn link_rx(&self, rx: Vec3, blockers: &[Blocker]) -> SweepRx {
        let mut link = SweepRx::new();
        link.locate(self, rx, blockers);
        link
    }

    /// Received signal strength (dBm) at `rx` for transmit beam `weights`,
    /// with the given blockers. Non-coherent power sum over paths.
    pub fn rss_dbm(&self, weights: &AntennaWeights, rx: Vec3, blockers: &[Blocker]) -> f64 {
        self.link_rx(rx, blockers).eval_weights(&weights.w)
    }

    /// Total loss in dB of one enumerated path toward `rx` — propagation,
    /// reflection, implementation, and (if any blocker cylinder interrupts
    /// a leg) body blockage. The single loss program behind every RSS
    /// evaluation.
    pub fn path_loss_db(&self, path: &Path, rx: Vec3, blockers: &[Blocker]) -> f64 {
        let mut loss_db = calib::fspl_db(path.length)
            + calib::O2_ABSORPTION_DB_PER_M * path.length
            + path.extra_loss_db
            + calib::IMPLEMENTATION_LOSS_DB;
        // Blockage: check both legs of the path.
        let blocked = if path.is_los {
            self.segment_blocked(self.array.position, rx, blockers)
        } else {
            self.segment_blocked(self.array.position, path.via, blockers)
                || self.segment_blocked(path.via, rx, blockers)
        };
        if blocked {
            loss_db += calib::BODY_BLOCKAGE_DB;
        }
        loss_db
    }

    /// RSS using the best dedicated (conjugate) beam toward `rx`: see
    /// [`SweepRx::rss_dedicated_beam`].
    pub fn rss_dedicated_beam(&self, rx: Vec3, blockers: &[Blocker]) -> f64 {
        self.link_rx(rx, blockers).rss_dedicated_beam()
    }

    /// RSS with the best beam over *all* propagation paths: see
    /// [`SweepRx::rss_best_beam`].
    pub fn rss_best_beam(&self, rx: Vec3, blockers: &[Blocker]) -> f64 {
        self.link_rx(rx, blockers).rss_best_beam()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Channel {
        Channel::default_setup()
    }

    /// The unit-power conjugate beam toward world direction `dir`.
    fn beam_toward(ch: &Channel, dir: Vec3) -> AntennaWeights {
        let (u, v, _) = ch.array.cosines(dir).unwrap();
        let mut w = Vec::new();
        ch.array.steering_uv_into(u, v, &mut w);
        crate::array::conj_normalize(&mut w);
        AntennaWeights { w }
    }

    #[test]
    fn paths_include_los_and_reflections() {
        let ch = setup();
        let paths = ch.paths(Vec3::new(1.0, 1.5, 0.0));
        assert!(paths[0].is_los);
        // 4 walls + ceiling = up to 5 reflections; at least 3 must be
        // geometrically valid from this interior point.
        assert!(paths.len() >= 4, "only {} paths", paths.len());
        for p in &paths[1..] {
            assert!(!p.is_los);
            assert!(p.length > paths[0].length, "reflection shorter than LoS");
            assert_eq!(p.extra_loss_db, calib::REFLECTION_LOSS_DB);
        }
    }

    #[test]
    fn aligned_user_has_strong_rss() {
        let ch = setup();
        let user = Vec3::new(0.0, 1.6, 0.0); // room center, ~4 m
        let rss = ch.rss_dedicated_beam(user, &[]);
        assert!(
            (-68.0..=-45.0).contains(&rss),
            "calibration anchor violated: {rss} dBm at room center"
        );
    }

    #[test]
    fn rss_decreases_with_distance() {
        let ch = setup();
        let near = ch.rss_dedicated_beam(Vec3::new(0.0, 1.6, 2.0), &[]);
        let far = ch.rss_dedicated_beam(Vec3::new(0.0, 1.6, -3.0), &[]);
        assert!(near > far, "near {near} <= far {far}");
    }

    #[test]
    fn misaligned_beam_much_weaker() {
        let ch = setup();
        let user_a = Vec3::new(-2.5, 1.6, 0.0);
        let user_b = Vec3::new(2.5, 1.6, 0.0);
        let beam_a = beam_toward(&ch, user_a - ch.array.position);
        let rss_at_a = ch.rss_dbm(&beam_a, user_a, &[]);
        let rss_at_b = ch.rss_dbm(&beam_a, user_b, &[]);
        assert!(
            rss_at_a > rss_at_b + 8.0,
            "beam at A: {rss_at_a} dBm at A vs {rss_at_b} dBm at B"
        );
    }

    #[test]
    fn blockage_attenuates_but_does_not_kill() {
        let ch = setup();
        let user = Vec3::new(0.0, 1.2, -2.0);
        // Blocker standing on the LoS close to the user: the ray from the
        // AP (y=2.6, z=3.9) descends below 1.8 m only near the user.
        let blocker = Blocker::person(Vec3::new(0.0, 0.0, -1.0));
        let clear = ch.rss_dedicated_beam(user, &[]);
        let blocked = ch.rss_dedicated_beam(user, &[blocker]);
        assert!(blocked < clear - 5.0, "clear {clear} blocked {blocked}");
        // Reflections keep the link alive (paper §5).
        assert!(blocked > clear - calib::BODY_BLOCKAGE_DB - 10.0);
        assert!(blocked.is_finite());
    }

    #[test]
    fn off_los_blocker_is_harmless() {
        let ch = setup();
        let user = Vec3::new(0.0, 1.2, -2.0);
        let bystander = Blocker::person(Vec3::new(3.0, 0.0, -1.0));
        let clear = ch.rss_dedicated_beam(user, &[]);
        let with = ch.rss_dedicated_beam(user, &[bystander]);
        assert!((clear - with).abs() < 1.0);
    }

    #[test]
    fn reflection_points_lie_on_walls() {
        let ch = setup();
        let paths = ch.paths(Vec3::new(2.0, 1.0, -1.0));
        let (hw, hd) = (ch.room.width / 2.0, ch.room.depth / 2.0);
        for p in paths.iter().filter(|p| !p.is_los) {
            let on_wall = (p.via.x.abs() - hw).abs() < 1e-6
                || (p.via.z.abs() - hd).abs() < 1e-6
                || (p.via.y - ch.room.height).abs() < 1e-6
                || p.via.y.abs() < 1e-6;
            assert!(on_wall, "bounce point {} not on a surface", p.via);
        }
    }

    #[test]
    fn floor_reflection_toggle() {
        let mut ch = setup();
        let rx = Vec3::new(1.0, 1.5, 0.0);
        let without = ch.paths(rx).len();
        ch.room.floor_reflection = true;
        let with = ch.paths(rx).len();
        assert_eq!(with, without + 1);
    }

    #[test]
    fn reference_rx_matches_direct_rss_exactly() {
        let ch = setup();
        let rx = Vec3::new(-1.7, 1.4, -2.2);
        let blockers = [
            Blocker::person(Vec3::new(-1.0, 0.0, -0.5)),
            Blocker::person(Vec3::new(2.0, 0.0, 1.0)),
        ];
        let prepared = crate::reference::prepare_rx(&ch, rx, &blockers);
        for dir in [
            Vec3::new(0.1, -0.4, -1.0),
            rx - ch.array.position,
            Vec3::new(-1.0, 0.0, -0.2),
        ] {
            let beam = beam_toward(&ch, dir);
            // Bit-for-bit: the oracle and the live receiver agree.
            assert_eq!(prepared.rss_dbm(&beam), ch.rss_dbm(&beam, rx, &blockers));
        }
    }

    #[test]
    fn rss_is_deterministic() {
        let ch = setup();
        let u = Vec3::new(1.3, 1.5, -0.7);
        assert_eq!(ch.rss_dedicated_beam(u, &[]), ch.rss_dedicated_beam(u, &[]));
    }

    /// `segment_blocked` with every body through the guard and the
    /// quadratic, verbatim.
    fn unboxed_segment_blocked(a: Vec3, b: Vec3, blockers: &[Blocker]) -> bool {
        let Some(ray) = Ray::between(a, b) else {
            return false;
        };
        let dist = a.distance(b);
        blockers.iter().any(|bl| {
            let horiz = ((bl.center.x - b.x).powi(2) + (bl.center.z - b.z).powi(2)).sqrt();
            if horiz <= bl.radius + 1e-6 {
                return false;
            }
            match ray.intersect_vertical_cylinder(
                bl.center.x,
                bl.center.z,
                bl.radius,
                0.0,
                bl.height,
            ) {
                Some(t) => t > 1e-6 && t < dist - bl.radius.min(dist * 0.5),
                None => false,
            }
        })
    }

    /// Blockage verdicts, body by body, against the unboxed loop: random,
    /// vertical and zero-length legs; bodies at random, centred on either
    /// endpoint, and tangent to the leg's line to within 1e-9 m down to an
    /// ULP (on axis-aligned legs, where the leg is its box's edge).
    #[test]
    fn segment_blocked_matches_the_unboxed_loop() {
        use volcast_util::prop::run_cases_n;
        use volcast_util::rng::Rng;
        let ch = setup();
        let point = |rng: &mut Rng| {
            Vec3::new(
                rng.gen_range(-4.0..4.0),
                rng.gen_range(0.0..3.0),
                rng.gen_range(-4.0..4.0),
            )
        };
        let (mut blocked, mut tangent_blocked) = (0usize, 0usize);
        run_cases_n("segment_blocked_matches_the_unboxed_loop", 256, |rng| {
            for _ in 0..8 {
                let a = point(rng);
                let mut b = match rng.gen_range(0..6u32) {
                    0 => Vec3::new(a.x, rng.gen_range(0.0..3.0), a.z),
                    1 => a,
                    2 => Vec3::new(rng.gen_range(-4.0..4.0), rng.gen_range(0.0..3.0), a.z),
                    3 => Vec3::new(a.x, rng.gen_range(0.0..3.0), rng.gen_range(-4.0..4.0)),
                    _ => point(rng),
                };
                if rng.gen_bool(0.1) {
                    b = a.lerp(b, rng.gen_range(0.0..0.01));
                }
                let body = |center: Vec3, rng: &mut Rng| Blocker {
                    center: Vec3::new(center.x, 0.0, center.z),
                    radius: rng.gen_range(0.02..0.6),
                    height: rng.gen_range(0.1..3.0),
                };
                let mut bodies = vec![body(a, rng), body(b, rng)];
                for _ in 0..rng.gen_range(0..6usize) {
                    let c = point(rng);
                    bodies.push(body(c, rng));
                }
                // Tangent to the leg's xz line, at a point a little before,
                // along or a little past it.
                let (dx, dz) = (b.x - a.x, b.z - a.z);
                let len = (dx * dx + dz * dz).sqrt();
                if len > 0.0 {
                    for _ in 0..4 {
                        let s = rng.gen_range(-0.1..1.1);
                        let side = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                        let gap = 10f64.powf(-rng.gen_range(9.0f64..17.0));
                        let gap = if rng.gen_bool(0.5) { gap } else { -gap };
                        let mut bl = body(a, rng);
                        let off = side * (bl.radius + gap) / len;
                        bl.center.x = a.x + s * dx - off * dz;
                        bl.center.z = a.z + s * dz + off * dx;
                        bodies.push(bl);
                    }
                }
                for (i, bl) in bodies.iter().enumerate() {
                    let one = std::slice::from_ref(bl);
                    let want = unboxed_segment_blocked(a, b, one);
                    assert_eq!(
                        ch.segment_blocked(a, b, one),
                        want,
                        "{a:?} -> {b:?}, {bl:?}"
                    );
                    blocked += want as usize;
                    tangent_blocked += (want && i >= bodies.len() - 4 && len > 0.0) as usize;
                }
                let want = unboxed_segment_blocked(a, b, &bodies);
                assert_eq!(ch.segment_blocked(a, b, &bodies), want);
            }
        });
        assert!(
            blocked > 100 && tangent_blocked > 10,
            "{blocked}, {tangent_blocked}"
        );
    }
}

#[cfg(test)]
mod reflected_beam_tests {
    use super::*;

    #[test]
    fn reflected_beam_rescues_blocked_link() {
        let ch = Channel::default_setup();
        // A user near a side wall: the short side-wall bounce departs the
        // AP at a very different angle from the (blocked) LoS, so
        // re-steering buys real dB. (For users on the room axis the LoS
        // beam already covers the back-wall bounce and the gain is small.)
        let user = Vec3::new(-3.0, 1.5, 0.5);
        let ap = ch.array.position;
        let dir = (user - ap).normalized_or(Vec3::FORWARD);
        let bp = user - dir * 0.8;
        let blocker = Blocker::person(Vec3::new(bp.x, 0.0, bp.z));
        let los_blocked = ch.rss_dedicated_beam(user, &[blocker]);
        let best_blocked = ch.rss_best_beam(user, &[blocker]);
        assert!(
            best_blocked > los_blocked + 3.0,
            "best {best_blocked} vs los {los_blocked}"
        );
    }

    #[test]
    fn best_beam_equals_los_beam_when_clear() {
        let ch = Channel::default_setup();
        let user = Vec3::new(0.5, 1.5, 0.0);
        let los = ch.rss_dedicated_beam(user, &[]);
        let best = ch.rss_best_beam(user, &[]);
        assert!(best >= los - 1e-9);
        assert!(
            best < los + 3.0,
            "clear link should prefer LoS: {best} vs {los}"
        );
    }
}
