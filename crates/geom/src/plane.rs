//! Oriented planes for frustum culling.

use crate::{Aabb, Vec3};

/// A plane in Hessian normal form: points `p` with `n . p + d = 0`.
///
/// The normal points toward the *positive* half-space; frustum planes are
/// oriented so the interior of the frustum is positive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plane {
    /// Unit normal.
    pub normal: Vec3,
    /// Offset: signed distance from the origin to the plane along `-normal`.
    pub d: f64,
}

impl Plane {
    /// Builds a plane from a (not necessarily unit) normal and a point on
    /// the plane. Falls back to `+Y`/0 for a zero normal.
    pub fn from_normal_point(normal: Vec3, point: Vec3) -> Self {
        let n = normal.normalized_or(Vec3::Y);
        Plane {
            normal: n,
            d: -n.dot(point),
        }
    }

    /// Signed distance from `p` to the plane (positive on the normal side).
    #[inline]
    pub fn signed_distance(&self, p: Vec3) -> f64 {
        self.normal.dot(p) + self.d
    }

    /// `true` when `p` is on the positive side or on the plane.
    #[inline]
    pub fn is_inside(&self, p: Vec3) -> bool {
        self.signed_distance(p) >= 0.0
    }

    /// `true` when any part of the box touches the positive half-space.
    ///
    /// Uses the standard "most positive vertex" trick: project the box's
    /// half-extent onto the absolute normal.
    pub fn aabb_on_positive_side(&self, b: &Aabb) -> bool {
        if b.is_empty() {
            return false;
        }
        let c = b.center();
        let h = b.half_extent();
        let r = h.x * self.normal.x.abs() + h.y * self.normal.y.abs() + h.z * self.normal.z.abs();
        self.signed_distance(c) >= -r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_distance_and_sides() {
        // Ground plane y = 0, normal up.
        let p = Plane::from_normal_point(Vec3::Y, Vec3::ZERO);
        assert!((p.signed_distance(Vec3::new(0.0, 3.0, 0.0)) - 3.0).abs() < 1e-12);
        assert!((p.signed_distance(Vec3::new(5.0, -2.0, 1.0)) + 2.0).abs() < 1e-12);
        assert!(p.is_inside(Vec3::new(1.0, 0.0, 1.0)));
        assert!(!p.is_inside(Vec3::new(0.0, -0.001, 0.0)));
    }

    #[test]
    fn non_unit_normal_is_normalized() {
        let p = Plane::from_normal_point(Vec3::Y * 10.0, Vec3::new(0.0, 2.0, 0.0));
        assert!((p.signed_distance(Vec3::new(0.0, 5.0, 0.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn aabb_side_tests() {
        let p = Plane::from_normal_point(Vec3::Y, Vec3::ZERO);
        let above = Aabb::new(Vec3::new(0.0, 1.0, 0.0), Vec3::new(1.0, 2.0, 1.0));
        let below = Aabb::new(Vec3::new(0.0, -2.0, 0.0), Vec3::new(1.0, -1.0, 1.0));
        let straddle = Aabb::new(Vec3::new(0.0, -1.0, 0.0), Vec3::new(1.0, 1.0, 1.0));
        assert!(p.aabb_on_positive_side(&above));
        assert!(!p.aabb_on_positive_side(&below));
        assert!(p.aabb_on_positive_side(&straddle));
        assert!(!p.aabb_on_positive_side(&Aabb::empty()));
    }

    #[test]
    fn oblique_plane_aabb() {
        let n = Vec3::new(1.0, 1.0, 0.0);
        let p = Plane::from_normal_point(n, Vec3::ZERO);
        let touching = Aabb::new(Vec3::new(-2.0, 0.0, 0.0), Vec3::new(-0.1, 1.0, 1.0));
        assert!(p.aabb_on_positive_side(&touching)); // corner crosses plane
        let far = Aabb::new(Vec3::new(-5.0, -5.0, 0.0), Vec3::new(-4.0, -4.0, 1.0));
        assert!(!p.aabb_on_positive_side(&far));
    }
}
