//! 3x3 matrices (row-major) for rotations and small linear algebra.

use crate::{Quat, Vec3};
use std::ops::Mul;

/// A row-major 3x3 matrix of `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix: `m[r][c]`.
    pub m: [[f64; 3]; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::IDENTITY
    }
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Builds a matrix from rows.
    #[inline]
    pub const fn new(m: [[f64; 3]; 3]) -> Self {
        Mat3 { m }
    }

    /// Row `r` as a vector.
    #[inline]
    pub fn row(&self, r: usize) -> Vec3 {
        Vec3::new(self.m[r][0], self.m[r][1], self.m[r][2])
    }

    /// Column `c` as a vector.
    #[inline]
    pub fn col(&self, c: usize) -> Vec3 {
        Vec3::new(self.m[0][c], self.m[1][c], self.m[2][c])
    }

    /// Converts an orthonormal rotation matrix to a quaternion.
    pub fn to_quat(&self) -> Quat {
        let m = &self.m;
        let trace = m[0][0] + m[1][1] + m[2][2];
        let q = if trace > 0.0 {
            let s = (trace + 1.0).sqrt() * 2.0;
            Quat::new(
                0.25 * s,
                (m[2][1] - m[1][2]) / s,
                (m[0][2] - m[2][0]) / s,
                (m[1][0] - m[0][1]) / s,
            )
        } else if m[0][0] > m[1][1] && m[0][0] > m[2][2] {
            let s = (1.0 + m[0][0] - m[1][1] - m[2][2]).sqrt() * 2.0;
            Quat::new(
                (m[2][1] - m[1][2]) / s,
                0.25 * s,
                (m[0][1] + m[1][0]) / s,
                (m[0][2] + m[2][0]) / s,
            )
        } else if m[1][1] > m[2][2] {
            let s = (1.0 + m[1][1] - m[0][0] - m[2][2]).sqrt() * 2.0;
            Quat::new(
                (m[0][2] - m[2][0]) / s,
                (m[0][1] + m[1][0]) / s,
                0.25 * s,
                (m[1][2] + m[2][1]) / s,
            )
        } else {
            let s = (1.0 + m[2][2] - m[0][0] - m[1][1]).sqrt() * 2.0;
            Quat::new(
                (m[1][0] - m[0][1]) / s,
                (m[0][2] + m[2][0]) / s,
                (m[1][2] + m[2][1]) / s,
                0.25 * s,
            )
        };
        q.normalized()
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, r: Mat3) -> Mat3 {
        let mut out = [[0.0; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.row(i).dot(r.col(j));
            }
        }
        Mat3::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rotation matrix of `q`: its columns are the rotated basis.
    fn rotation(q: Quat) -> Mat3 {
        let (x, y, z) = (q.rotate(Vec3::X), q.rotate(Vec3::Y), q.rotate(Vec3::Z));
        Mat3::new([[x.x, y.x, z.x], [x.y, y.y, z.y], [x.z, y.z, z.z]])
    }

    #[test]
    fn identity_multiplication() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::IDENTITY * v, v);
        let m = Mat3::new([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]);
        assert_eq!(Mat3::IDENTITY * m, m);
        assert_eq!(m * Mat3::IDENTITY, m);
    }

    #[test]
    fn quat_round_trip_through_matrix() {
        let q = Quat::from_yaw_pitch_roll(0.3, -0.7, 1.1);
        let m = rotation(q);
        let v = Vec3::new(-0.5, 2.0, 0.25);
        assert!((m * v - q.rotate(v)).norm() < 1e-12);
        assert!(q.angle_to(m.to_quat()) < 1e-9);
    }

    #[test]
    fn to_quat_covers_all_branches() {
        // Rotations by pi around each axis exercise the non-trace branches.
        for axis in [Vec3::X, Vec3::Y, Vec3::Z] {
            let q = Quat::from_axis_angle(axis, std::f64::consts::PI);
            let q2 = rotation(q).to_quat();
            assert!(q.angle_to(q2) < 1e-9, "axis {axis}");
        }
    }
}
