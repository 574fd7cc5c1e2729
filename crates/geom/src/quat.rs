//! Unit quaternions for 3D orientation.

use crate::{Mat3, Vec3};
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk`, used (normalized) to represent rotation.
///
/// Rotation composition follows the convention `(a * b)` = "apply `b`
/// first, then `a`" when rotating vectors with [`Quat::rotate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// `i` component.
    pub x: f64,
    /// `j` component.
    pub y: f64,
    /// `k` component.
    pub z: f64,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from raw components (not normalized).
    #[inline]
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Self {
        Quat { w, x, y, z }
    }

    /// Rotation of `angle` radians about the (normalized) `axis`.
    ///
    /// A zero axis yields the identity rotation.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        match axis.normalized() {
            None => Quat::IDENTITY,
            Some(a) => {
                let (s, c) = (angle * 0.5).sin_cos();
                Quat::new(c, a.x * s, a.y * s, a.z * s)
            }
        }
    }

    /// Builds an orientation from intrinsic Tait-Bryan angles, applied in
    /// yaw (about +Y), then pitch (about +X), then roll (about -Z) order.
    ///
    /// This matches the head-tracking convention used by the 6DoF viewport
    /// traces: yaw turns the head left/right, pitch nods up/down, roll tilts.
    pub fn from_yaw_pitch_roll(yaw: f64, pitch: f64, roll: f64) -> Self {
        let qy = Quat::from_axis_angle(Vec3::Y, yaw);
        let qp = Quat::from_axis_angle(Vec3::X, pitch);
        let qr = Quat::from_axis_angle(Vec3::FORWARD, roll);
        qy * qp * qr
    }

    /// Extracts (yaw, pitch, roll) angles inverting
    /// [`Quat::from_yaw_pitch_roll`].
    ///
    /// Pitch is returned in `[-pi/2, pi/2]`; at the gimbal-lock poles roll is
    /// folded into yaw (roll is reported as 0).
    pub fn to_yaw_pitch_roll(self) -> (f64, f64, f64) {
        // Forward direction after rotation determines yaw/pitch.
        let f = self.rotate(Vec3::FORWARD);
        let pitch = f.y.clamp(-1.0, 1.0).asin();
        let (yaw, roll);
        if f.x.abs() < 1e-9 && f.z.abs() < 1e-9 {
            // Looking straight up/down: yaw from the rotated up vector.
            let u = self.rotate(Vec3::Y);
            yaw = if pitch > 0.0 {
                u.x.atan2(u.z)
            } else {
                (-u.x).atan2(-u.z)
            };
            roll = 0.0;
        } else {
            yaw = (-f.x).atan2(-f.z);
            // Undo yaw+pitch; what remains about the forward axis is roll.
            let undo = (Quat::from_axis_angle(Vec3::Y, yaw)
                * Quat::from_axis_angle(Vec3::X, pitch))
            .conjugate();
            let r = undo * self;
            let u = r.rotate(Vec3::Y);
            roll = u.x.atan2(u.y);
        }
        (yaw, pitch, roll)
    }

    /// Quaternion norm.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the normalized (unit) quaternion, or identity if degenerate.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        if n < crate::EPS {
            Quat::IDENTITY
        } else {
            Quat::new(self.w / n, self.x / n, self.y / n, self.z / n)
        }
    }

    /// The conjugate (inverse rotation for unit quaternions).
    #[inline]
    pub fn conjugate(self) -> Quat {
        Quat::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Rotates a vector by this (unit) quaternion.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2*q_vec x (q_vec x v + w*v)  (standard optimized form)
        let qv = Vec3::new(self.x, self.y, self.z);
        let t = qv.cross(v) * 2.0;
        v + t * self.w + qv.cross(t)
    }

    /// Spherical linear interpolation between unit quaternions.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`. Takes the shortest arc.
    pub fn slerp(self, other: Quat, t: f64) -> Quat {
        let mut b = other;
        let mut cos = self.dot(b);
        // Take the shorter path around the 4-sphere.
        if cos < 0.0 {
            b = Quat::new(-b.w, -b.x, -b.y, -b.z);
            cos = -cos;
        }
        if cos > 0.9995 {
            // Nearly parallel: fall back to normalized lerp.
            return Quat::new(
                self.w + (b.w - self.w) * t,
                self.x + (b.x - self.x) * t,
                self.y + (b.y - self.y) * t,
                self.z + (b.z - self.z) * t,
            )
            .normalized();
        }
        let theta = cos.clamp(-1.0, 1.0).acos();
        let sin = theta.sin();
        let wa = ((1.0 - t) * theta).sin() / sin;
        let wb = (t * theta).sin() / sin;
        Quat::new(
            self.w * wa + b.w * wb,
            self.x * wa + b.x * wb,
            self.y * wa + b.y * wb,
            self.z * wa + b.z * wb,
        )
        .normalized()
    }

    /// 4D dot product.
    #[inline]
    pub fn dot(self, o: Quat) -> f64 {
        self.w * o.w + self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// The rotation angle in radians (in `[0, pi]`) this quaternion applies.
    pub fn angle(self) -> f64 {
        2.0 * self.w.abs().clamp(0.0, 1.0).acos()
    }

    /// Angular distance in radians between two orientations, in `[0, pi]`.
    pub fn angle_to(self, other: Quat) -> f64 {
        (self.conjugate() * other).angle()
    }

    /// Builds an orientation whose `-Z` axis points along `dir` with `+Y`
    /// kept as close to `up` as possible (a "look-at" rotation).
    pub fn look_at(dir: Vec3, up: Vec3) -> Quat {
        let f = dir.normalized_or(Vec3::FORWARD); // forward = -Z
        let back = -f;
        let right = up.cross(back).normalized_or(Vec3::X);
        let true_up = back.cross(right);
        // Columns of the rotation matrix are the rotated basis vectors.
        let m = Mat3::new([
            [right.x, true_up.x, back.x],
            [right.y, true_up.y, back.y],
            [right.z, true_up.z, back.z],
        ]);
        m.to_quat()
    }

    /// `true` when every component is finite.
    pub fn is_finite(self) -> bool {
        self.w.is_finite() && self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Mul for Quat {
    type Output = Quat;
    fn mul(self, r: Quat) -> Quat {
        Quat::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(Quat { w, x, y, z });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    fn assert_vec_eq(a: Vec3, b: Vec3, tol: f64) {
        assert!((a - b).norm() < tol, "{a} != {b}");
    }

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_eq(Quat::IDENTITY.rotate(v), v, 1e-12);
    }

    #[test]
    fn axis_angle_quarter_turns() {
        let q = Quat::from_axis_angle(Vec3::Y, FRAC_PI_2);
        // +90° yaw about Y sends -Z (forward) to -X.
        assert_vec_eq(q.rotate(Vec3::FORWARD), -Vec3::X, 1e-12);
        let q = Quat::from_axis_angle(Vec3::X, FRAC_PI_2);
        assert_vec_eq(q.rotate(Vec3::Y), Vec3::Z, 1e-12);
    }

    #[test]
    fn zero_axis_gives_identity() {
        assert_eq!(Quat::from_axis_angle(Vec3::ZERO, 1.0), Quat::IDENTITY);
    }

    #[test]
    fn composition_order() {
        // (a * b).rotate == a.rotate(b.rotate(v))
        let a = Quat::from_axis_angle(Vec3::Y, 0.7);
        let b = Quat::from_axis_angle(Vec3::X, -0.3);
        let v = Vec3::new(0.2, -1.0, 2.0);
        assert_vec_eq((a * b).rotate(v), a.rotate(b.rotate(v)), 1e-12);
    }

    #[test]
    fn conjugate_inverts() {
        let q = Quat::from_yaw_pitch_roll(0.5, -0.2, 0.9);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_eq(q.conjugate().rotate(q.rotate(v)), v, 1e-12);
    }

    #[test]
    fn yaw_pitch_roll_round_trip() {
        for &(y, p, r) in &[
            (0.0, 0.0, 0.0),
            (0.5, 0.2, -0.3),
            (-2.0, 1.0, 0.7),
            (3.0, -1.4, -1.0),
            (FRAC_PI_4, FRAC_PI_4, FRAC_PI_4),
        ] {
            let q = Quat::from_yaw_pitch_roll(y, p, r);
            let (y2, p2, r2) = q.to_yaw_pitch_roll();
            let q2 = Quat::from_yaw_pitch_roll(y2, p2, r2);
            // Compare as rotations (quaternion double cover).
            assert!(q.angle_to(q2) < 1e-6, "({y},{p},{r}) -> ({y2},{p2},{r2})");
        }
    }

    #[test]
    fn yaw_rotates_forward_in_horizontal_plane() {
        let q = Quat::from_yaw_pitch_roll(FRAC_PI_2, 0.0, 0.0);
        // Yaw +90° turns the view from -Z toward -X.
        assert_vec_eq(q.rotate(Vec3::FORWARD), -Vec3::X, 1e-12);
    }

    #[test]
    fn slerp_endpoints_and_angle_midpoint() {
        let a = Quat::IDENTITY;
        let b = Quat::from_axis_angle(Vec3::Y, FRAC_PI_2);
        assert!(a.slerp(b, 0.0).angle_to(a) < 1e-9);
        assert!(a.slerp(b, 1.0).angle_to(b) < 1e-9);
        let mid = a.slerp(b, 0.5);
        assert!(approx_eq(mid.angle_to(a), FRAC_PI_4, 1e-9));
        assert!(approx_eq(mid.angle_to(b), FRAC_PI_4, 1e-9));
    }

    #[test]
    fn slerp_takes_short_arc() {
        let a = Quat::from_axis_angle(Vec3::Y, 0.1);
        let b = Quat::from_axis_angle(Vec3::Y, 0.2);
        // Negated quaternion is the same rotation; slerp must not detour.
        let b_neg = Quat::new(-b.w, -b.x, -b.y, -b.z);
        let m = a.slerp(b_neg, 0.5);
        assert!(m.angle_to(a) < 0.06);
    }

    #[test]
    fn angle_metrics() {
        let q = Quat::from_axis_angle(Vec3::Y, 1.0);
        assert!(approx_eq(q.angle(), 1.0, 1e-12));
        let r = Quat::from_axis_angle(Vec3::Y, 1.5);
        assert!(approx_eq(q.angle_to(r), 0.5, 1e-9));
        assert!(approx_eq(Quat::IDENTITY.angle(), 0.0, 1e-9));
        let half = Quat::from_axis_angle(Vec3::X, PI);
        assert!(approx_eq(half.angle(), PI, 1e-9));
    }

    #[test]
    fn look_at_points_forward() {
        let dir = Vec3::new(1.0, 0.5, -2.0);
        let q = Quat::look_at(dir, Vec3::Y);
        assert_vec_eq(q.rotate(Vec3::FORWARD), dir.normalized().unwrap(), 1e-9);
        // Up stays in the plane spanned by dir and world up (no roll).
        let up = q.rotate(Vec3::Y);
        assert!(up.dot(Vec3::Y) > 0.0);
    }

    #[test]
    fn normalized_handles_degenerate() {
        assert_eq!(Quat::new(0.0, 0.0, 0.0, 0.0).normalized(), Quat::IDENTITY);
        let q = Quat::new(2.0, 0.0, 0.0, 0.0).normalized();
        assert!(approx_eq(q.norm(), 1.0, 1e-12));
    }
}
