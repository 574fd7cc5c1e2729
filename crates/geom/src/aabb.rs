//! Axis-aligned bounding boxes.

use crate::Vec3;

/// An axis-aligned bounding box, the shape of every point-cloud cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Builds a box from its two extreme corners (components are sorted, so
    /// argument order does not matter).
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// The empty box: `union` identity, contains nothing.
    pub fn empty() -> Self {
        Aabb {
            min: Vec3::splat(f64::INFINITY),
            max: Vec3::splat(f64::NEG_INFINITY),
        }
    }

    /// A box centered at `c` with half-extent `h` in each axis.
    pub fn from_center_half_extent(c: Vec3, h: Vec3) -> Self {
        Aabb {
            min: c - h,
            max: c + h,
        }
    }

    /// `true` when the box contains no volume (any min > max).
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Geometric center.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Full extent (max - min).
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Half of the extent.
    pub fn half_extent(&self) -> Vec3 {
        self.extent() * 0.5
    }

    /// Volume in cubic meters; zero for the empty box.
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            let e = self.extent();
            e.x * e.y * e.z
        }
    }

    /// `true` when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// `true` when the boxes overlap (sharing a face counts).
    pub fn intersects(&self, o: &Aabb) -> bool {
        !self.is_empty()
            && !o.is_empty()
            && self.min.x <= o.max.x
            && self.max.x >= o.min.x
            && self.min.y <= o.max.y
            && self.max.y >= o.min.y
            && self.min.z <= o.max.z
            && self.max.z >= o.min.z
    }

    /// Smallest box containing both operands.
    pub fn union(&self, o: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(o.min),
            max: self.max.max(o.max),
        }
    }

    /// Grows the box (if needed) to contain `p`.
    pub fn expand_to(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Builds the tightest box around an iterator of points. Returns the
    /// empty box for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(pts: I) -> Aabb {
        let mut b = Aabb::empty();
        for p in pts {
            b.expand_to(p);
        }
        b
    }

    /// The eight corner points (undefined content for the empty box).
    pub fn corners(&self) -> [Vec3; 8] {
        let (lo, hi) = (self.min, self.max);
        [
            Vec3::new(lo.x, lo.y, lo.z),
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(hi.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
            Vec3::new(hi.x, lo.y, hi.z),
            Vec3::new(lo.x, hi.y, hi.z),
            Vec3::new(hi.x, hi.y, hi.z),
        ]
    }

    /// The point inside the box closest to `p` (clamping).
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
            p.z.clamp(self.min.z, self.max.z),
        )
    }

    /// Euclidean distance from `p` to the box (0 when inside).
    pub fn distance_to_point(&self, p: Vec3) -> f64 {
        self.closest_point(p).distance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_corners() {
        let b = Aabb::new(Vec3::new(1.0, -1.0, 5.0), Vec3::new(0.0, 2.0, 3.0));
        assert_eq!(b.min, Vec3::new(0.0, -1.0, 3.0));
        assert_eq!(b.max, Vec3::new(1.0, 2.0, 5.0));
    }

    #[test]
    fn empty_box_properties() {
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        assert!(!e.contains(Vec3::ZERO));
        assert!(!e.intersects(&Aabb::new(Vec3::ZERO, Vec3::splat(1.0))));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        assert_eq!(Aabb::empty().union(&b), b);
        assert_eq!(b.union(&Aabb::empty()), b);
    }

    #[test]
    fn center_extent_volume() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.extent(), Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(b.volume(), 48.0);
    }

    #[test]
    fn containment() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(b.contains(Vec3::ZERO)); // boundary included
        assert!(b.contains(Vec3::splat(1.0)));
        assert!(!b.contains(Vec3::new(1.1, 0.5, 0.5)));
    }

    #[test]
    fn intersection_cases() {
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5));
        let c = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let d = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0)); // face contact
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.intersects(&d));
    }

    #[test]
    fn from_points_builds_tight_box() {
        let pts = [
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(-1.0, 5.0, 0.0),
            Vec3::new(0.0, 0.0, 10.0),
        ];
        let b = Aabb::from_points(pts);
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 5.0, 10.0));
        assert!(pts.iter().all(|&p| b.contains(p)));
    }

    #[test]
    fn corners_are_contained() {
        let b = Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(3.0, 4.0, 5.0));
        for c in b.corners() {
            assert!(b.contains(c));
        }
    }

    #[test]
    fn point_distance() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert_eq!(b.distance_to_point(Vec3::splat(0.5)), 0.0);
        assert!((b.distance_to_point(Vec3::new(2.0, 0.5, 0.5)) - 1.0).abs() < 1e-12);
        let d = b.distance_to_point(Vec3::new(2.0, 2.0, 0.5));
        assert!((d - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn center_half_extent_round_trip() {
        let b = Aabb::from_center_half_extent(Vec3::new(1.0, 2.0, 3.0), Vec3::splat(0.5));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.half_extent(), Vec3::splat(0.5));
    }
}
