//! 6DoF rigid poses and their vector parameterization.
// Fixed-size index loops (angle dims, octree children, AP slots) read
// clearer than iterator chains in this module.
#![allow(clippy::needless_range_loop)]

use crate::{Quat, Vec3};

/// A 6DoF pose: translation (meters) plus orientation.
///
/// This is the unit of state for every viewer in volcast: a volumetric-video
/// viewport is fully determined by a `Pose` and the camera intrinsics
/// (see [`crate::Frustum`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Position of the viewer in world coordinates (meters).
    pub position: Vec3,
    /// Orientation of the viewer (unit quaternion). `-Z` is the view axis.
    pub orientation: Quat,
}

impl Pose {
    /// Creates a pose from position and orientation.
    pub fn new(position: Vec3, orientation: Quat) -> Self {
        Pose {
            position,
            orientation,
        }
    }

    /// A pose at `position` looking at `target` with `+Y` up.
    pub fn looking_at(position: Vec3, target: Vec3) -> Self {
        Pose {
            position,
            orientation: Quat::look_at(target - position, Vec3::Y),
        }
    }

    /// The forward (view) direction, i.e. the rotated `-Z` axis.
    pub fn forward(&self) -> Vec3 {
        self.orientation.rotate(Vec3::FORWARD)
    }

    /// The up direction (rotated `+Y`).
    pub fn up(&self) -> Vec3 {
        self.orientation.rotate(Vec3::Y)
    }

    /// The right direction (rotated `+X`).
    pub fn right(&self) -> Vec3 {
        self.orientation.rotate(Vec3::X)
    }

    /// Converts to the 6-component vector `[x, y, z, yaw, pitch, roll]`
    /// used by the viewport predictors.
    pub fn to_sixdof(&self) -> SixDof {
        let (yaw, pitch, roll) = self.orientation.to_yaw_pitch_roll();
        SixDof {
            v: [
                self.position.x,
                self.position.y,
                self.position.z,
                yaw,
                pitch,
                roll,
            ],
        }
    }

    /// Reconstructs a pose from a [`SixDof`] vector.
    pub fn from_sixdof(s: SixDof) -> Pose {
        Pose {
            position: Vec3::new(s.v[0], s.v[1], s.v[2]),
            orientation: Quat::from_yaw_pitch_roll(s.v[3], s.v[4], s.v[5]),
        }
    }

    /// `true` when position and orientation are finite.
    pub fn is_finite(&self) -> bool {
        self.position.is_finite() && self.orientation.is_finite()
    }
}

/// A pose flattened to the `[x, y, z, yaw, pitch, roll]` parameterization.
///
/// The viewport predictors (linear regression, MLP) operate on these six
/// scalars per sample, exactly as ViVo and related systems do.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SixDof {
    /// `[x, y, z, yaw, pitch, roll]` (meters, meters, meters, rad, rad, rad).
    pub v: [f64; 6],
}

impl SixDof {
    /// Builds from raw components.
    pub fn new(v: [f64; 6]) -> Self {
        SixDof { v }
    }

    /// Component-wise difference with angular components wrapped to
    /// `(-pi, pi]` so prediction errors near the wrap point stay small.
    pub fn wrapped_sub(&self, other: &SixDof) -> SixDof {
        let mut out = [0.0; 6];
        for i in 0..3 {
            out[i] = self.v[i] - other.v[i];
        }
        for i in 3..6 {
            out[i] = crate::normalize_angle(self.v[i] - other.v[i]);
        }
        SixDof { v: out }
    }

    /// Euclidean norm of the translational part (meters).
    pub fn translation_norm(&self) -> f64 {
        (self.v[0] * self.v[0] + self.v[1] * self.v[1] + self.v[2] * self.v[2]).sqrt()
    }

    /// Euclidean norm of the rotational part (radians).
    pub fn rotation_norm(&self) -> f64 {
        (self.v[3] * self.v[3] + self.v[4] * self.v[4] + self.v[5] * self.v[5]).sqrt()
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(Pose {
    position,
    orientation
});

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_eq(a: Vec3, b: Vec3, tol: f64) {
        assert!((a - b).norm() < tol, "{a} != {b}");
    }

    #[test]
    fn default_pose_looks_down_negative_z() {
        let p = Pose::default();
        assert_vec_eq(p.forward(), Vec3::FORWARD, 1e-12);
        assert_vec_eq(p.up(), Vec3::Y, 1e-12);
        assert_vec_eq(p.right(), Vec3::X, 1e-12);
    }

    #[test]
    fn looking_at_faces_target() {
        let p = Pose::looking_at(Vec3::new(0.0, 1.6, 3.0), Vec3::new(0.0, 1.0, 0.0));
        let want = (Vec3::new(0.0, 1.0, 0.0) - Vec3::new(0.0, 1.6, 3.0))
            .normalized()
            .unwrap();
        assert_vec_eq(p.forward(), want, 1e-9);
    }

    #[test]
    fn sixdof_round_trip() {
        let p = Pose::new(
            Vec3::new(0.5, 1.6, -2.0),
            Quat::from_yaw_pitch_roll(1.2, -0.4, 0.3),
        );
        let p2 = Pose::from_sixdof(p.to_sixdof());
        assert_vec_eq(p2.position, p.position, 1e-12);
        assert!(p.orientation.angle_to(p2.orientation) < 1e-6);
    }

    #[test]
    fn wrapped_angle_arithmetic() {
        let a = SixDof::new([0.0, 0.0, 0.0, 3.1, 0.0, 0.0]);
        let b = SixDof::new([0.0, 0.0, 0.0, -3.1, 0.0, 0.0]);
        // Wrapped difference crosses the +-pi boundary: |diff| is small.
        let d = a.wrapped_sub(&b);
        assert!(d.v[3].abs() < 0.1, "wrapped diff {}", d.v[3]);
    }

    #[test]
    fn sixdof_norms() {
        let s = SixDof::new([3.0, 0.0, 4.0, 0.6, 0.8, 0.0]);
        assert!((s.translation_norm() - 5.0).abs() < 1e-12);
        assert!((s.rotation_norm() - 1.0).abs() < 1e-12);
    }
}
