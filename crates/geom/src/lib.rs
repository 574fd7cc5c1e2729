//! 3D math substrate for the volcast workspace.
//!
//! This crate provides the geometric and numeric primitives every other
//! volcast crate builds on:
//!
//! - [`Vec3`] / [`Mat3`] / [`Quat`]: double-precision linear algebra,
//! - [`Pose`]: a 6DoF rigid pose (translation + orientation) with the
//!   yaw/pitch/roll decomposition the viewport-prediction literature uses,
//! - [`Aabb`] / [`Plane`] / [`Frustum`]: the culling primitives used to
//!   compute cell visibility maps,
//! - [`Complex`]: complex arithmetic for phased-array antenna weights,
//! - [`Spherical`]: azimuth/elevation direction handling for beams.
//!
//! Everything here is deterministic, allocation-free and `f64`-based: the
//! simulator above it must produce bit-identical results for a fixed seed.
//!
//! ```
//! use volcast_geom::{Quat, Vec3};
//!
//! // Rotating the x axis a quarter turn about z gives the y axis.
//! let q = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), std::f64::consts::FRAC_PI_2);
//! let v = q.rotate(Vec3::new(1.0, 0.0, 0.0));
//! assert!((v - Vec3::new(0.0, 1.0, 0.0)).norm() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aabb;
mod angle;
mod complex;
mod frustum;
mod mat3;
mod plane;
mod pose;
mod quat;
mod ray;
mod spherical;
mod vec3;

pub use aabb::Aabb;
pub use angle::{angular_distance, deg_to_rad, normalize_angle, rad_to_deg};
pub use complex::Complex;
pub use frustum::{CameraIntrinsics, Frustum};
pub use mat3::Mat3;
pub use plane::Plane;
pub use pose::{Pose, SixDof};
pub use quat::Quat;
pub use ray::Ray;
pub use spherical::Spherical;
pub use vec3::Vec3;

/// Convenience epsilon for geometric comparisons (meters / radians scale).
pub const EPS: f64 = 1e-9;

/// Returns `true` when two floats are equal within `tol`.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}
