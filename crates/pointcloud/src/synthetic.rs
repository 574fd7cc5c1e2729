//! Synthetic volumetric video: a parametric animated humanoid.
//!
//! Substitutes for the 8i "soldier" dynamic voxelized point cloud (see
//! `DESIGN.md` §2). The body is a union of capsules/ellipsoids posed by a
//! walk-cycle skeleton; each frame is produced by surface-sampling the
//! primitives with a seeded PRNG, so a given `(seed, frame, target_points)`
//! triple always yields the same cloud.
//!
//! What matters for the reproduced experiments is that the synthetic body
//! matches the 8i content in the statistics the system observes:
//! human-sized bounding box (~0.5 x 1.8 x 0.4 m), surface-distributed points,
//! an exact target point count, and temporal coherence across frames.

use crate::point::{Point, PointCloud};
use volcast_geom::Vec3;
use volcast_util::rng::Rng;

/// A capsule: segment from `a` to `b` with radius `r`.
#[derive(Debug, Clone, Copy)]
struct Capsule {
    a: Vec3,
    b: Vec3,
    r: f64,
    /// Base color of this body part.
    color: [u8; 3],
}

impl Capsule {
    /// Lateral surface area (approximate: cylinder part + sphere caps).
    fn area(&self) -> f64 {
        let h = (self.b - self.a).norm();
        2.0 * std::f64::consts::PI * self.r * h + 4.0 * std::f64::consts::PI * self.r * self.r
    }

    /// Samples one point uniformly-ish on the capsule surface.
    fn sample(&self, rng: &mut Rng) -> Vec3 {
        let h = (self.b - self.a).norm();
        let axis = (self.b - self.a).normalized_or(Vec3::Y);
        // Build an orthonormal frame around the axis.
        let helper = if axis.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
        let u = axis.cross(helper).normalized_or(Vec3::X);
        let v = axis.cross(u);

        let cyl_area = 2.0 * std::f64::consts::PI * self.r * h;
        let cap_area = 4.0 * std::f64::consts::PI * self.r * self.r;
        if rng.gen::<f64>() * (cyl_area + cap_area) < cyl_area {
            // Cylinder side.
            let t = rng.gen::<f64>();
            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
            self.a + axis * (t * h) + (u * theta.cos() + v * theta.sin()) * self.r
        } else {
            // Spherical cap (either end).
            let dir = loop {
                let d = Vec3::new(
                    rng.gen::<f64>() * 2.0 - 1.0,
                    rng.gen::<f64>() * 2.0 - 1.0,
                    rng.gen::<f64>() * 2.0 - 1.0,
                );
                let n = d.norm();
                if n > 1e-6 && n <= 1.0 {
                    break d / n;
                }
            };
            let center = if dir.dot(axis) >= 0.0 { self.b } else { self.a };
            center + dir * self.r
        }
    }
}

/// Parametric animated humanoid producing frames of surface-sampled points.
///
/// The skeleton performs a walk-in-place cycle with a slow body turn, so
/// consecutive frames overlap heavily (temporal coherence) while the overall
/// silhouette sweeps through the room over a few hundred frames — the same
/// qualitative behaviour as the 8i soldier sequence.
#[derive(Debug, Clone)]
pub struct SyntheticBody {
    /// Base seed; combined with the frame index for deterministic frames.
    pub seed: u64,
    /// Frames per second of the animation clock.
    pub fps: f64,
    /// World-space position of the body center (feet on the ground).
    pub origin: Vec3,
    /// Walk-cycle frequency in Hz.
    pub gait_hz: f64,
    /// Body turn rate in radians/second (slow rotation in place).
    pub turn_rate: f64,
}

impl Default for SyntheticBody {
    fn default() -> Self {
        SyntheticBody {
            seed: 0x8150_1DE5,
            fps: 30.0,
            origin: Vec3::ZERO,
            gait_hz: 1.4,
            turn_rate: 0.1,
        }
    }
}

impl SyntheticBody {
    /// Creates a body with the default proportions at `origin`.
    pub fn new(seed: u64, origin: Vec3) -> Self {
        SyntheticBody {
            seed,
            origin,
            ..Default::default()
        }
    }

    /// The skeleton posed at time `t` seconds. The body is always exactly
    /// these 10 primitives, so the pose needs no heap allocation.
    fn capsules_at(&self, t: f64) -> [Capsule; 10] {
        let phase = std::f64::consts::TAU * self.gait_hz * t;
        let turn = self.turn_rate * t;
        let (s, c) = turn.sin_cos();
        // Rotate a local-space point about Y and translate to origin.
        let place = |p: Vec3| -> Vec3 {
            Vec3::new(p.x * c + p.z * s, p.y, -p.x * s + p.z * c) + self.origin
        };

        let swing = 0.35 * phase.sin(); // leg swing angle (rad)
        let arm_swing = 0.30 * (phase + std::f64::consts::PI).sin();
        let bob = 0.02 * (2.0 * phase).cos(); // vertical bob

        let hip_y = 0.95 + bob;
        let shoulder_y = 1.50 + bob;
        let head_y = 1.70 + bob;

        let skin = [224, 172, 105];
        let shirt = [60, 90, 140];
        let pants = [50, 50, 60];

        let leg = |side: f64, swing: f64| -> [Capsule; 2] {
            let hip = Vec3::new(side * 0.10, hip_y, 0.0);
            let knee = hip + Vec3::new(0.0, -0.45, 0.0) + Vec3::new(0.0, 0.0, -0.45 * swing.sin());
            let foot = knee
                + Vec3::new(0.0, -0.45, 0.0)
                + Vec3::new(0.0, 0.0, -0.2 * swing.sin().max(0.0));
            [
                Capsule {
                    a: place(hip),
                    b: place(knee),
                    r: 0.075,
                    color: pants,
                },
                Capsule {
                    a: place(knee),
                    b: place(foot),
                    r: 0.06,
                    color: pants,
                },
            ]
        };
        let arm = |side: f64, swing: f64| -> [Capsule; 2] {
            let shoulder = Vec3::new(side * 0.20, shoulder_y, 0.0);
            let elbow = shoulder + Vec3::new(side * 0.02, -0.28, -0.28 * swing.sin());
            let hand = elbow + Vec3::new(0.0, -0.26, -0.1 * swing.sin());
            [
                Capsule {
                    a: place(shoulder),
                    b: place(elbow),
                    r: 0.05,
                    color: shirt,
                },
                Capsule {
                    a: place(elbow),
                    b: place(hand),
                    r: 0.04,
                    color: skin,
                },
            ]
        };

        let torso = Capsule {
            a: place(Vec3::new(0.0, hip_y, 0.0)),
            b: place(Vec3::new(0.0, shoulder_y, 0.0)),
            r: 0.16,
            color: shirt,
        };
        let head = Capsule {
            a: place(Vec3::new(0.0, head_y, 0.0)),
            b: place(Vec3::new(0.0, head_y + 0.12, 0.0)),
            r: 0.11,
            color: skin,
        };
        let [lr0, lr1] = leg(1.0, swing);
        let [ll0, ll1] = leg(-1.0, -swing);
        let [ar0, ar1] = arm(1.0, arm_swing);
        let [al0, al1] = arm(-1.0, -arm_swing);
        [torso, head, lr0, lr1, ll0, ll1, ar0, ar1, al0, al1]
    }

    /// Generates frame `frame_idx` with exactly `target_points` points.
    pub fn frame(&self, frame_idx: u64, target_points: usize) -> PointCloud {
        let mut out = PointCloud::new();
        self.frame_into(frame_idx, target_points, &mut out);
        out
    }

    /// Generates frame `frame_idx` into `out` (cleared first), reusing its
    /// allocation. Identical points to [`SyntheticBody::frame`]; a warmed
    /// `out` makes per-frame generation allocation-free.
    pub fn frame_into(&self, frame_idx: u64, target_points: usize, out: &mut PointCloud) {
        let points = &mut out.points;
        points.clear();
        points.reserve(target_points);
        self.emit_frame(frame_idx, target_points, |pos, col| {
            points.push(Point::new(pos, col));
        });
    }

    /// Shared frame sampler: allocates points to capsules proportionally to
    /// surface area (remainder to the last capsule) and hands each sampled
    /// point to `emit`. The frame generator and the cell manifest's counters
    /// both route through here so they draw the identical PRNG sequence.
    pub(crate) fn emit_frame(
        &self,
        frame_idx: u64,
        target_points: usize,
        mut emit: impl FnMut([f32; 3], [u8; 3]),
    ) {
        let t = frame_idx as f64 / self.fps;
        let caps = self.capsules_at(t);
        let total_area: f64 = caps.iter().map(|c| c.area()).sum();
        let mut rng = Rng::seed_from_u64(self.seed ^ frame_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let mut allocated = 0usize;
        for (i, cap) in caps.iter().enumerate() {
            let share = if i + 1 == caps.len() {
                target_points - allocated
            } else {
                ((cap.area() / total_area) * target_points as f64).floor() as usize
            };
            allocated += share;
            for _ in 0..share {
                let p = cap.sample(&mut rng);
                // Slight color noise for texture.
                let jitter = rng.gen_range(-12i16..=12);
                let col = [
                    (cap.color[0] as i16 + jitter).clamp(0, 255) as u8,
                    (cap.color[1] as i16 + jitter).clamp(0, 255) as u8,
                    (cap.color[2] as i16 + jitter).clamp(0, 255) as u8,
                ];
                emit([p.x as f32, p.y as f32, p.z as f32], col);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_has_exact_point_count() {
        let body = SyntheticBody::default();
        for &n in &[1_000usize, 10_000, 33_000] {
            assert_eq!(body.frame(0, n).len(), n);
        }
    }

    #[test]
    fn frames_are_deterministic() {
        let body = SyntheticBody::default();
        let a = body.frame(7, 5_000);
        let b = body.frame(7, 5_000);
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn frame_into_reuse_matches_fresh_frames() {
        let body = SyntheticBody::default();
        let mut reused = PointCloud::new();
        for frame in [0u64, 3, 9, 4] {
            body.frame_into(frame, 2_000, &mut reused);
            assert_eq!(reused.points, body.frame(frame, 2_000).points);
        }
    }

    #[test]
    fn different_frames_differ() {
        let body = SyntheticBody::default();
        let a = body.frame(0, 5_000);
        let b = body.frame(15, 5_000);
        assert_ne!(a.points, b.points);
    }

    #[test]
    fn bounds_are_human_sized() {
        let body = SyntheticBody::default();
        let b = body.frame(0, 20_000).bounds();
        let e = b.extent();
        // Roughly: ~0.5-1m wide, ~1.9m tall, <1m deep.
        assert!(e.y > 1.6 && e.y < 2.2, "height {}", e.y);
        assert!(e.x > 0.3 && e.x < 1.2, "width {}", e.x);
        assert!(e.z > 0.1 && e.z < 1.2, "depth {}", e.z);
        // Feet on the ground.
        assert!(b.min.y > -0.2 && b.min.y < 0.2);
    }

    #[test]
    fn temporal_coherence_between_adjacent_frames() {
        let body = SyntheticBody::default();
        let a = body.frame(0, 5_000).bounds();
        let b = body.frame(1, 5_000).bounds();
        // Adjacent frame bounding boxes overlap almost entirely.
        let inter_volume = {
            let lo = a.min.max(b.min);
            let hi = a.max.min(b.max);
            let e = (hi - lo).max(Vec3::ZERO);
            e.x * e.y * e.z
        };
        assert!(inter_volume / a.volume() > 0.8);
    }

    #[test]
    fn body_turns_over_time() {
        let body = SyntheticBody {
            turn_rate: 0.5,
            ..Default::default()
        };
        // After ~6 s (180 frames) the body turned by ~3 rad: the points
        // distribution around the vertical axis must have shifted.
        let a = body.frame(0, 5_000);
        let b = body.frame(180, 5_000);
        let mean_z_a: f64 = a.points.iter().map(|p| p.pos[2] as f64).sum::<f64>() / 5_000.0;
        let mean_z_b: f64 = b.points.iter().map(|p| p.pos[2] as f64).sum::<f64>() / 5_000.0;
        // Not a strong assertion, but turning changes the z spread of arms.
        let var = |c: &PointCloud, m: f64| {
            c.points
                .iter()
                .map(|p| (p.pos[2] as f64 - m).powi(2))
                .sum::<f64>()
        };
        let _ = (mean_z_a, mean_z_b);
        assert!(var(&a, mean_z_a) > 0.0 && var(&b, mean_z_b) > 0.0);
    }

    #[test]
    fn origin_offset_moves_body() {
        let at_origin = SyntheticBody::new(1, Vec3::ZERO).frame(0, 2_000);
        let moved = SyntheticBody::new(1, Vec3::new(3.0, 0.0, -2.0)).frame(0, 2_000);
        let c0 = at_origin.centroid().unwrap();
        let c1 = moved.centroid().unwrap();
        assert!((c1 - c0 - Vec3::new(3.0, 0.0, -2.0)).norm() < 0.05);
    }
}
