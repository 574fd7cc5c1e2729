//! Rays and primitive intersection tests used by occlusion culling and the
//! mmWave line-of-sight/blockage checks.

use crate::{Aabb, Vec3};

/// A half-line: `origin + t * direction` for `t >= 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Start point.
    pub origin: Vec3,
    /// Unit direction.
    pub direction: Vec3,
}

impl Ray {
    /// Builds a ray; the direction is normalized (`None` for zero dir).
    pub fn new(origin: Vec3, direction: Vec3) -> Option<Ray> {
        direction.normalized().map(|d| Ray {
            origin,
            direction: d,
        })
    }

    /// Ray from `a` toward `b` (None when coincident).
    pub fn between(a: Vec3, b: Vec3) -> Option<Ray> {
        Ray::new(a, b - a)
    }

    /// Point at parameter `t`.
    pub fn at(&self, t: f64) -> Vec3 {
        self.origin + self.direction * t
    }

    /// Slab test against an AABB. Returns the entry parameter `t >= 0`
    /// when the ray hits the box.
    pub fn intersect_aabb(&self, b: &Aabb) -> Option<f64> {
        if b.is_empty() {
            return None;
        }
        let mut tmin = 0.0f64;
        let mut tmax = f64::INFINITY;
        for i in 0..3 {
            let o = self.origin[i];
            let d = self.direction[i];
            let (lo, hi) = (b.min[i], b.max[i]);
            if d.abs() < 1e-12 {
                if o < lo || o > hi {
                    return None;
                }
            } else {
                let inv = 1.0 / d;
                let (mut t0, mut t1) = ((lo - o) * inv, (hi - o) * inv);
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                tmin = tmin.max(t0);
                tmax = tmax.min(t1);
                if tmin > tmax {
                    return None;
                }
            }
        }
        Some(tmin)
    }

    /// Intersection with an infinite vertical cylinder (axis parallel to
    /// `+Y`) of radius `r` centered at `(cx, _, cz)`, clipped to the height
    /// interval `[y0, y1]`. This is the human-blocker model used by the
    /// mmWave blockage simulation.
    ///
    /// Returns the first hit parameter `t >= 0`, if any.
    pub fn intersect_vertical_cylinder(
        &self,
        cx: f64,
        cz: f64,
        r: f64,
        y0: f64,
        y1: f64,
    ) -> Option<f64> {
        // Project onto XZ plane.
        let ox = self.origin.x - cx;
        let oz = self.origin.z - cz;
        let dx = self.direction.x;
        let dz = self.direction.z;
        let a = dx * dx + dz * dz;
        let hit_in_height = |t: f64| -> bool {
            let y = self.origin.y + self.direction.y * t;
            (y0..=y1).contains(&y)
        };
        if a < 1e-12 {
            // Ray is vertical: inside circle?
            if ox * ox + oz * oz <= r * r {
                // Find where it enters the height range.
                let dy = self.direction.y;
                if dy.abs() < 1e-12 {
                    return if (y0..=y1).contains(&self.origin.y) {
                        Some(0.0)
                    } else {
                        None
                    };
                }
                let t0 = (y0 - self.origin.y) / dy;
                let t1 = (y1 - self.origin.y) / dy;
                let (t0, t1) = (t0.min(t1), t0.max(t1));
                if t1 < 0.0 {
                    return None;
                }
                return Some(t0.max(0.0));
            }
            return None;
        }
        let b = 2.0 * (ox * dx + oz * dz);
        let c = ox * ox + oz * oz - r * r;
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return None;
        }
        let sq = disc.sqrt();
        let t_in = (-b - sq) / (2.0 * a);
        let t_out = (-b + sq) / (2.0 * a);
        if t_out < 0.0 {
            return None;
        }
        // Walk candidate parameters: entry (or 0 if starting inside).
        let start = t_in.max(0.0);
        if hit_in_height(start) {
            return Some(start);
        }
        // The ray may dip into the height interval between start and exit.
        // Sample where y crosses the slab bounds.
        let dy = self.direction.y;
        if dy.abs() > 1e-12 {
            for bound in [y0, y1] {
                let t = (bound - self.origin.y) / dy;
                if t >= start && t <= t_out && hit_in_height(t) {
                    return Some(t);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, -3.0)).unwrap();
        assert!((r.direction.norm() - 1.0).abs() < 1e-12);
        assert!(Ray::new(Vec3::ZERO, Vec3::ZERO).is_none());
    }

    #[test]
    fn aabb_hit_and_miss() {
        let r = Ray::new(Vec3::ZERO, Vec3::FORWARD).unwrap();
        let hit = Aabb::from_center_half_extent(Vec3::new(0.0, 0.0, -5.0), Vec3::splat(1.0));
        let miss = Aabb::from_center_half_extent(Vec3::new(3.0, 0.0, -5.0), Vec3::splat(1.0));
        let behind = Aabb::from_center_half_extent(Vec3::new(0.0, 0.0, 5.0), Vec3::splat(1.0));
        let t = r.intersect_aabb(&hit).unwrap();
        assert!((t - 4.0).abs() < 1e-12);
        assert!(r.intersect_aabb(&miss).is_none());
        assert!(r.intersect_aabb(&behind).is_none());
    }

    #[test]
    fn aabb_from_inside_hits_at_zero() {
        let r = Ray::new(Vec3::ZERO, Vec3::X).unwrap();
        let b = Aabb::from_center_half_extent(Vec3::ZERO, Vec3::splat(1.0));
        assert_eq!(r.intersect_aabb(&b), Some(0.0));
    }

    #[test]
    fn aabb_axis_parallel_miss() {
        // Ray along X at y=5 misses a unit box at origin.
        let r = Ray::new(Vec3::new(-10.0, 5.0, 0.0), Vec3::X).unwrap();
        let b = Aabb::from_center_half_extent(Vec3::ZERO, Vec3::splat(1.0));
        assert!(r.intersect_aabb(&b).is_none());
    }

    #[test]
    fn cylinder_blockage_geometry() {
        // AP at (0, 2.5, 0), user at (0, 1.2, -6); blocker standing at
        // (0, _, -3) with radius 0.25 and height 1.8 blocks the path.
        let ap = Vec3::new(0.0, 2.5, 0.0);
        let user = Vec3::new(0.0, 1.2, -6.0);
        let r = Ray::between(ap, user).unwrap();
        let t = r.intersect_vertical_cylinder(0.0, -3.0, 0.25, 0.0, 1.8);
        assert!(t.is_some());
        let t = t.unwrap();
        let dist = ap.distance(user);
        assert!(t > 0.0 && t < dist);
    }

    #[test]
    fn cylinder_too_short_does_not_block() {
        // Same geometry but the blocker is only 1 m tall; the LoS passes
        // overhead at ~1.85 m at z=-3.
        let ap = Vec3::new(0.0, 2.5, 0.0);
        let user = Vec3::new(0.0, 1.2, -6.0);
        let r = Ray::between(ap, user).unwrap();
        assert!(r
            .intersect_vertical_cylinder(0.0, -3.0, 0.25, 0.0, 1.0)
            .is_none());
    }

    #[test]
    fn cylinder_offset_to_side_misses() {
        let r = Ray::new(Vec3::ZERO, Vec3::FORWARD).unwrap();
        assert!(r
            .intersect_vertical_cylinder(1.0, -3.0, 0.25, -1.0, 1.0)
            .is_none());
        assert!(r
            .intersect_vertical_cylinder(0.0, -3.0, 0.25, -1.0, 1.0)
            .is_some());
    }

    #[test]
    fn vertical_ray_inside_cylinder() {
        let r = Ray::new(Vec3::new(0.0, 5.0, 0.0), -Vec3::Y).unwrap();
        let t = r
            .intersect_vertical_cylinder(0.0, 0.0, 1.0, 0.0, 2.0)
            .unwrap();
        assert!((t - 3.0).abs() < 1e-12); // enters slab at y=2 -> t=3
        let r_out = Ray::new(Vec3::new(5.0, 5.0, 0.0), -Vec3::Y).unwrap();
        assert!(r_out
            .intersect_vertical_cylinder(0.0, 0.0, 1.0, 0.0, 2.0)
            .is_none());
    }
}
