//! View frusta and frustum culling.
//!
//! Volumetric streaming systems in the ViVo family determine cell visibility
//! by frustum-culling the spatial cells of the point cloud against each
//! user's viewport. This module implements the classic six-plane test.

use crate::{Aabb, Plane, Pose, Vec3};

/// A view frustum built from a 6DoF pose and pinhole-camera intrinsics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frustum {
    /// The six bounding planes, normals pointing inward:
    /// near, far, left, right, bottom, top.
    pub planes: [Plane; 6],
    /// Apex (camera position), kept for distance queries.
    pub origin: Vec3,
    /// Unit view direction.
    pub direction: Vec3,
}

/// Camera intrinsics for frustum construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraIntrinsics {
    /// Vertical field of view in radians.
    pub fov_y: f64,
    /// Width / height aspect ratio.
    pub aspect: f64,
    /// Near clip distance (meters).
    pub near: f64,
    /// Far clip distance (meters).
    pub far: f64,
}

impl Default for CameraIntrinsics {
    /// Defaults modeled after a mixed-reality headset viewport
    /// (~60 degrees vertical FoV, 16:9, 10 cm to 20 m).
    fn default() -> Self {
        CameraIntrinsics {
            fov_y: 60f64.to_radians(),
            aspect: 16.0 / 9.0,
            near: 0.1,
            far: 20.0,
        }
    }
}

impl Frustum {
    /// Builds the frustum for a viewer `pose` with the given intrinsics.
    pub fn from_pose(pose: &Pose, intr: &CameraIntrinsics) -> Frustum {
        let o = pose.position;
        let f = pose.forward();
        let u = pose.up();
        let r = pose.right();

        let half_v = (intr.fov_y * 0.5).tan();
        let half_h = half_v * intr.aspect;

        // Inward-pointing normals.
        let near = Plane::from_normal_point(f, o + f * intr.near);
        let far = Plane::from_normal_point(-f, o + f * intr.far);
        // Side planes pass through the apex. Each is spanned by one edge
        // direction and the perpendicular camera axis; cross-product order
        // is chosen so the normal points into the frustum interior.
        let left = Plane::from_normal_point((f - r * half_h).cross(u), o);
        let right = Plane::from_normal_point(u.cross(f + r * half_h), o);
        let bottom = Plane::from_normal_point(r.cross(f - u * half_v), o);
        let top = Plane::from_normal_point((f + u * half_v).cross(r), o);

        Frustum {
            planes: [near, far, left, right, bottom, top],
            origin: o,
            direction: f,
        }
    }

    /// `true` when the point is inside (or on the boundary of) the frustum.
    pub fn contains_point(&self, p: Vec3) -> bool {
        self.planes.iter().all(|pl| pl.is_inside(p))
    }

    /// Conservative frustum-AABB test: `false` guarantees the box is
    /// invisible; `true` means it *may* intersect (standard p-vertex test,
    /// may report rare false positives near edges, never false negatives).
    pub fn intersects_aabb(&self, b: &Aabb) -> bool {
        self.planes.iter().all(|pl| pl.aabb_on_positive_side(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quat;

    fn default_frustum() -> Frustum {
        // Viewer at origin looking down -Z.
        Frustum::from_pose(&Pose::default(), &CameraIntrinsics::default())
    }

    #[test]
    fn contains_point_ahead() {
        let f = default_frustum();
        assert!(f.contains_point(Vec3::new(0.0, 0.0, -5.0)));
        assert!(f.contains_point(Vec3::new(0.5, 0.5, -5.0)));
    }

    #[test]
    fn rejects_point_behind() {
        let f = default_frustum();
        assert!(!f.contains_point(Vec3::new(0.0, 0.0, 5.0)));
    }

    #[test]
    fn rejects_point_too_near_or_far() {
        let f = default_frustum();
        assert!(!f.contains_point(Vec3::new(0.0, 0.0, -0.05))); // in front of near plane
        assert!(!f.contains_point(Vec3::new(0.0, 0.0, -25.0))); // beyond far plane
    }

    #[test]
    fn rejects_point_outside_fov() {
        let f = default_frustum();
        // At z=-1 the vertical half-extent is tan(30 deg) ~ 0.577.
        assert!(f.contains_point(Vec3::new(0.0, 0.5, -1.0)));
        assert!(!f.contains_point(Vec3::new(0.0, 0.7, -1.0)));
        // Horizontal half-extent ~ 0.577 * 16/9 ~ 1.026.
        assert!(f.contains_point(Vec3::new(1.0, 0.0, -1.0)));
        assert!(!f.contains_point(Vec3::new(1.2, 0.0, -1.0)));
    }

    #[test]
    fn aabb_visibility() {
        let f = default_frustum();
        let visible = Aabb::from_center_half_extent(Vec3::new(0.0, 0.0, -5.0), Vec3::splat(0.5));
        let behind = Aabb::from_center_half_extent(Vec3::new(0.0, 0.0, 5.0), Vec3::splat(0.5));
        let side = Aabb::from_center_half_extent(Vec3::new(15.0, 0.0, -5.0), Vec3::splat(0.5));
        assert!(f.intersects_aabb(&visible));
        assert!(!f.intersects_aabb(&behind));
        assert!(!f.intersects_aabb(&side));
    }

    #[test]
    fn aabb_straddling_boundary_is_visible() {
        let f = default_frustum();
        // Box centered outside the top plane but large enough to cross it.
        let straddle = Aabb::from_center_half_extent(Vec3::new(0.0, 0.8, -1.0), Vec3::splat(0.5));
        assert!(f.intersects_aabb(&straddle));
    }

    #[test]
    fn rotated_frustum_tracks_view() {
        // Look along +X instead (-Z rotated by -90 deg about Y).
        let pose = Pose::new(
            Vec3::ZERO,
            Quat::from_axis_angle(Vec3::Y, -std::f64::consts::FRAC_PI_2),
        );
        let f = Frustum::from_pose(&pose, &CameraIntrinsics::default());
        assert!(f.contains_point(Vec3::new(5.0, 0.0, 0.0)));
        assert!(!f.contains_point(Vec3::new(-5.0, 0.0, 0.0)));
        assert!(!f.contains_point(Vec3::new(0.0, 0.0, -5.0)));
    }

    #[test]
    fn translated_frustum() {
        let pose = Pose::new(Vec3::new(0.0, 0.0, 10.0), Quat::IDENTITY);
        let f = Frustum::from_pose(&pose, &CameraIntrinsics::default());
        assert!(f.contains_point(Vec3::new(0.0, 0.0, 5.0)));
        assert!(!f.contains_point(Vec3::new(0.0, 0.0, 15.0)));
    }

    #[test]
    fn frustum_direction_and_origin() {
        let pose = Pose::looking_at(Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO);
        let f = Frustum::from_pose(&pose, &CameraIntrinsics::default());
        assert_eq!(f.origin, Vec3::new(1.0, 2.0, 3.0));
        assert!((f.direction.norm() - 1.0).abs() < 1e-9);
    }
}
