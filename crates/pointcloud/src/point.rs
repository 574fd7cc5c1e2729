//! Points and point clouds.

use volcast_geom::{Aabb, Vec3};

/// A single colored point.
///
/// Positions are `f32` (sub-millimeter precision over room scale) because a
/// frame holds hundreds of thousands of points and memory bandwidth matters;
/// all analytical math upstream uses `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Position in meters.
    pub pos: [f32; 3],
    /// RGB color.
    pub color: [u8; 3],
}

impl Point {
    /// Creates a point.
    pub fn new(pos: [f32; 3], color: [u8; 3]) -> Self {
        Point { pos, color }
    }

    /// Position as a `Vec3`.
    pub fn position(&self) -> Vec3 {
        Vec3::new(self.pos[0] as f64, self.pos[1] as f64, self.pos[2] as f64)
    }
}

/// One frame of volumetric content: an unordered set of colored points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointCloud {
    /// The points.
    pub points: Vec<Point>,
}

impl PointCloud {
    /// An empty cloud.
    pub fn new() -> Self {
        PointCloud { points: Vec::new() }
    }

    /// Builds from a vector of points.
    pub fn from_points(points: Vec<Point>) -> Self {
        PointCloud { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the cloud has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Tight axis-aligned bounds of the cloud (empty box when no points).
    pub fn bounds(&self) -> Aabb {
        // Fold in f32 with four independent accumulators (min/max are
        // associative and commutative on NaN-free data, so the regrouping
        // is exact), then widen once: f32 -> f64 is exact and monotone, so
        // the result is bit-identical to folding widened points one by one.
        if self.points.is_empty() {
            return Aabb::empty();
        }
        let mut lo = [[f32::INFINITY; 3]; 4];
        let mut hi = [[f32::NEG_INFINITY; 3]; 4];
        let mut chunks = self.points.chunks_exact(4);
        for chunk in &mut chunks {
            for (lane, p) in chunk.iter().enumerate() {
                for c in 0..3 {
                    lo[lane][c] = lo[lane][c].min(p.pos[c]);
                    hi[lane][c] = hi[lane][c].max(p.pos[c]);
                }
            }
        }
        for p in chunks.remainder() {
            for c in 0..3 {
                lo[0][c] = lo[0][c].min(p.pos[c]);
                hi[0][c] = hi[0][c].max(p.pos[c]);
            }
        }
        for lane in 1..4 {
            for c in 0..3 {
                lo[0][c] = lo[0][c].min(lo[lane][c]);
                hi[0][c] = hi[0][c].max(hi[lane][c]);
            }
        }
        Aabb {
            min: Vec3::new(lo[0][0] as f64, lo[0][1] as f64, lo[0][2] as f64),
            max: Vec3::new(hi[0][0] as f64, hi[0][1] as f64, hi[0][2] as f64),
        }
    }

    /// Centroid of the points; `None` for the empty cloud.
    pub fn centroid(&self) -> Option<Vec3> {
        if self.points.is_empty() {
            return None;
        }
        let sum = self
            .points
            .iter()
            .fold(Vec3::ZERO, |acc, p| acc + p.position());
        Some(sum / self.points.len() as f64)
    }

    /// Deterministically subsamples the cloud to at most `target` points,
    /// taking every k-th point (stride sampling preserves spatial
    /// uniformity for interleaved generators).
    pub fn subsample(&self, target: usize) -> PointCloud {
        if target == 0 {
            return PointCloud::new();
        }
        if self.points.len() <= target {
            return self.clone();
        }
        let stride = self.points.len() as f64 / target as f64;
        let mut pts = Vec::with_capacity(target);
        let mut idx = 0.0f64;
        while pts.len() < target {
            let i = idx as usize;
            if i >= self.points.len() {
                break;
            }
            pts.push(self.points[i]);
            idx += stride;
        }
        PointCloud::from_points(pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize) -> PointCloud {
        PointCloud::from_points(
            (0..n)
                .map(|i| Point::new([i as f32, 0.0, 0.0], [i as u8, 0, 0]))
                .collect(),
        )
    }

    #[test]
    fn len_and_empty() {
        assert!(PointCloud::new().is_empty());
        assert_eq!(cloud(5).len(), 5);
        assert!(!cloud(1).is_empty());
    }

    #[test]
    fn bounds_are_tight() {
        let c = cloud(3); // x in {0, 1, 2}
        let b = c.bounds();
        assert_eq!(b.min, Vec3::new(0.0, 0.0, 0.0));
        assert_eq!(b.max, Vec3::new(2.0, 0.0, 0.0));
        assert!(PointCloud::new().bounds().is_empty());
    }

    #[test]
    fn centroid() {
        let c = cloud(3);
        assert_eq!(c.centroid(), Some(Vec3::new(1.0, 0.0, 0.0)));
        assert_eq!(PointCloud::new().centroid(), None);
    }

    #[test]
    fn subsample_counts() {
        let c = cloud(100);
        assert_eq!(c.subsample(10).len(), 10);
        assert_eq!(c.subsample(100).len(), 100);
        assert_eq!(c.subsample(1000).len(), 100); // no upsampling
        assert_eq!(c.subsample(0).len(), 0);
        assert_eq!(c.subsample(1).len(), 1);
    }

    #[test]
    fn subsample_spreads_across_input() {
        let c = cloud(100);
        let s = c.subsample(10);
        // Stride sampling: first point is index 0, last is near the end.
        assert_eq!(s.points[0].pos[0], 0.0);
        assert!(s.points[9].pos[0] >= 80.0);
    }

    #[test]
    fn point_position_conversion() {
        let p = Point::new([1.5, -2.0, 0.25], [1, 2, 3]);
        assert_eq!(p.position(), Vec3::new(1.5, -2.0, 0.25));
    }
}
