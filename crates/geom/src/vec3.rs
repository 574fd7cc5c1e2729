//! Double-precision 3-vector.

use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 3-dimensional vector of `f64` components.
///
/// Used throughout volcast for positions (meters), directions and velocities.
/// The coordinate convention is right-handed with `+Y` up, `-Z` forward
/// (OpenGL-style), matching the frustum and pose math in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (right).
    pub x: f64,
    /// Y component (up).
    pub y: f64,
    /// Z component (backward; `-Z` is the forward viewing direction).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +X.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +Y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along +Z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };
    /// The conventional forward viewing direction (`-Z`).
    pub const FORWARD: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: -1.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (cheaper than [`Vec3::norm`]).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance between two points.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Returns the unit vector in this direction.
    ///
    /// Returns `None` when the vector is (numerically) zero, so callers are
    /// forced to handle the degenerate case instead of propagating NaN.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < crate::EPS {
            None
        } else {
            Some(self / n)
        }
    }

    /// Like [`Vec3::normalized`] but falls back to `fallback` for the zero
    /// vector. Useful when a deterministic direction is needed regardless.
    #[inline]
    pub fn normalized_or(self, fallback: Vec3) -> Vec3 {
        self.normalized().unwrap_or(fallback)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Largest component.
    #[inline]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Angle in radians between two vectors, in `[0, pi]`.
    ///
    /// Returns 0 when either vector is zero.
    pub fn angle_between(self, other: Vec3) -> f64 {
        let d = self.norm() * other.norm();
        if d < crate::EPS {
            return 0.0;
        }
        (self.dot(other) / d).clamp(-1.0, 1.0).acos()
    }

    /// `true` when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl std::fmt::Display for Vec3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.4}, {:.4}, {:.4})", self.x, self.y, self.z)
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(Vec3 { x, y, z });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert!(approx_eq(a.dot(b), 32.0, 1e-12));
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
        // Cross product is perpendicular to both operands.
        let c = a.cross(b);
        assert!(approx_eq(c.dot(a), 0.0, 1e-12));
        assert!(approx_eq(c.dot(b), 0.0, 1e-12));
    }

    #[test]
    fn norms_and_distances() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!(approx_eq(v.norm(), 5.0, 1e-12));
        assert!(approx_eq(v.norm_sq(), 25.0, 1e-12));
        assert!(approx_eq(Vec3::ZERO.distance(v), 5.0, 1e-12));
    }

    #[test]
    fn normalization() {
        let v = Vec3::new(0.0, 0.0, 10.0);
        assert_eq!(v.normalized(), Some(Vec3::Z));
        assert_eq!(Vec3::ZERO.normalized(), None);
        assert_eq!(Vec3::ZERO.normalized_or(Vec3::X), Vec3::X);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 8.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 4.0));
    }

    #[test]
    fn angle_between_axes() {
        assert!(approx_eq(
            Vec3::X.angle_between(Vec3::Y),
            std::f64::consts::FRAC_PI_2,
            1e-12
        ));
        assert!(approx_eq(Vec3::X.angle_between(Vec3::X), 0.0, 1e-9));
        assert!(approx_eq(
            Vec3::X.angle_between(-Vec3::X),
            std::f64::consts::PI,
            1e-12
        ));
        assert_eq!(Vec3::ZERO.angle_between(Vec3::X), 0.0);
    }

    #[test]
    fn componentwise_helpers() {
        let a = Vec3::new(1.0, 5.0, -3.0);
        let b = Vec3::new(2.0, 4.0, -6.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, -6.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, -3.0));
        assert_eq!(a.abs(), Vec3::new(1.0, 5.0, 3.0));
        assert_eq!(a.max_component(), 5.0);
    }

    #[test]
    fn indexing() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[1], 8.0);
        assert_eq!(v[2], 9.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }
}
