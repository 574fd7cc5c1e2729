//! Azimuth/elevation direction handling for beam geometry.

use crate::Vec3;

/// A direction in spherical coordinates relative to an antenna array.
///
/// Convention (matching the planar-array math in `volcast-mmwave`):
/// - `azimuth`: angle in the horizontal (XZ) plane, 0 along `-Z`
///   (array boresight), positive toward `+X`, in `(-pi, pi]`.
/// - `elevation`: angle above the horizontal plane, in `[-pi/2, pi/2]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spherical {
    /// Azimuth in radians.
    pub azimuth: f64,
    /// Elevation in radians.
    pub elevation: f64,
}

impl Spherical {
    /// Creates a direction from azimuth/elevation radians.
    pub fn new(azimuth: f64, elevation: f64) -> Self {
        Spherical { azimuth, elevation }
    }

    /// Converts to a unit vector. Boresight maps to `-Z`.
    pub fn to_unit_vector(self) -> Vec3 {
        let (sa, ca) = self.azimuth.sin_cos();
        let (se, ce) = self.elevation.sin_cos();
        Vec3::new(ce * sa, se, -ce * ca)
    }

    /// Builds from a (non-zero) direction vector.
    pub fn from_vector(v: Vec3) -> Option<Spherical> {
        let u = v.normalized()?;
        let elevation = u.y.clamp(-1.0, 1.0).asin();
        let azimuth = u.x.atan2(-u.z);
        Some(Spherical { azimuth, elevation })
    }

    /// Great-circle angular distance to another direction, in `[0, pi]`.
    pub fn angle_to(self, other: Spherical) -> f64 {
        self.to_unit_vector().angle_between(other.to_unit_vector())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    #[test]
    fn boresight_is_minus_z() {
        let v = Spherical::new(0.0, 0.0).to_unit_vector();
        assert!((v - Vec3::FORWARD).norm() < 1e-12);
    }

    #[test]
    fn cardinal_directions() {
        let east = Spherical::new(FRAC_PI_2, 0.0).to_unit_vector();
        assert!((east - Vec3::X).norm() < 1e-12);
        let up = Spherical::new(0.0, FRAC_PI_2).to_unit_vector();
        assert!((up - Vec3::Y).norm() < 1e-12);
    }

    #[test]
    fn round_trip() {
        for &(az, el) in &[
            (0.0, 0.0),
            (0.5, 0.3),
            (-1.2, -0.7),
            (2.9, 1.0),
            (FRAC_PI_4, -FRAC_PI_4),
        ] {
            let s = Spherical::new(az, el);
            let s2 = Spherical::from_vector(s.to_unit_vector()).unwrap();
            assert!(approx_eq(s2.azimuth, az, 1e-9), "az {az}");
            assert!(approx_eq(s2.elevation, el, 1e-9), "el {el}");
        }
    }

    #[test]
    fn from_zero_vector_is_none() {
        assert!(Spherical::from_vector(Vec3::ZERO).is_none());
    }

    #[test]
    fn unit_vectors_have_unit_norm() {
        for az in [-3.0, -1.0, 0.0, 1.0, 3.0] {
            for el in [-1.5, -0.5, 0.0, 0.5, 1.5] {
                let v = Spherical::new(az, el).to_unit_vector();
                assert!(approx_eq(v.norm(), 1.0, 1e-12));
            }
        }
    }

    #[test]
    fn angular_distance() {
        let a = Spherical::new(0.0, 0.0);
        let b = Spherical::new(FRAC_PI_2, 0.0);
        assert!(approx_eq(a.angle_to(b), FRAC_PI_2, 1e-12));
        assert!(approx_eq(a.angle_to(a), 0.0, 1e-6));
    }
}
