//! Property-based tests for the geometric invariants every higher layer
//! relies on.

use volcast_geom::{
    normalize_angle, Aabb, CameraIntrinsics, Complex, Frustum, Pose, Quat, Ray, Spherical, Vec3,
};
use volcast_util::prop::prelude::*;

fn finite_f64(range: f64) -> impl Strategy<Value = f64> {
    -range..range
}

fn arb_vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (finite_f64(range), finite_f64(range), finite_f64(range))
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_quat() -> impl Strategy<Value = Quat> {
    (finite_f64(3.1), -1.5f64..1.5, finite_f64(3.1))
        .prop_map(|(y, p, r)| Quat::from_yaw_pitch_roll(y, p, r))
}

proptest! {
    #[test]
    fn vec_add_commutes(a in arb_vec3(1e6), b in arb_vec3(1e6)) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn vec_dot_bilinear(a in arb_vec3(1e3), b in arb_vec3(1e3), s in finite_f64(1e3)) {
        let lhs = (a * s).dot(b);
        let rhs = a.dot(b) * s;
        prop_assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + lhs.abs().max(rhs.abs())));
    }

    #[test]
    fn cross_orthogonal(a in arb_vec3(1e3), b in arb_vec3(1e3)) {
        let c = a.cross(b);
        let scale = a.norm() * b.norm();
        prop_assert!(c.dot(a).abs() <= 1e-6 * (1.0 + scale * a.norm()));
        prop_assert!(c.dot(b).abs() <= 1e-6 * (1.0 + scale * b.norm()));
    }

    #[test]
    fn normalized_has_unit_norm(a in arb_vec3(1e6)) {
        if let Some(n) = a.normalized() {
            prop_assert!((n.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn quat_rotation_preserves_norm(q in arb_quat(), v in arb_vec3(1e3)) {
        let r = q.rotate(v);
        prop_assert!((r.norm() - v.norm()).abs() <= 1e-9 * (1.0 + v.norm()));
    }

    #[test]
    fn quat_rotation_preserves_dot(q in arb_quat(), a in arb_vec3(1e2), b in arb_vec3(1e2)) {
        let d0 = a.dot(b);
        let d1 = q.rotate(a).dot(q.rotate(b));
        prop_assert!((d0 - d1).abs() <= 1e-7 * (1.0 + d0.abs()));
    }

    #[test]
    fn quat_conjugate_is_inverse(q in arb_quat(), v in arb_vec3(1e3)) {
        let back = q.conjugate().rotate(q.rotate(v));
        prop_assert!((back - v).norm() <= 1e-8 * (1.0 + v.norm()));
    }

    #[test]
    fn yaw_pitch_roll_round_trip(q in arb_quat()) {
        let (y, p, r) = q.to_yaw_pitch_roll();
        let q2 = Quat::from_yaw_pitch_roll(y, p, r);
        prop_assert!(q.angle_to(q2) < 1e-6);
    }

    #[test]
    fn sixdof_round_trip(pos in arb_vec3(50.0), q in arb_quat()) {
        let pose = Pose::new(pos, q);
        let pose2 = Pose::from_sixdof(pose.to_sixdof());
        prop_assert!((pose2.position - pose.position).norm() < 1e-9);
        prop_assert!(pose.orientation.angle_to(pose2.orientation) < 1e-6);
    }

    #[test]
    fn normalize_angle_in_range(a in finite_f64(1e4)) {
        let n = normalize_angle(a);
        prop_assert!(n > -std::f64::consts::PI - 1e-12 && n <= std::f64::consts::PI + 1e-12);
        // Same angle modulo 2*pi.
        let diff = (a - n) / (2.0 * std::f64::consts::PI);
        prop_assert!((diff - diff.round()).abs() < 1e-6);
    }

    #[test]
    fn aabb_union_contains_both(a in arb_vec3(100.0), b in arb_vec3(100.0),
                                c in arb_vec3(100.0), d in arb_vec3(100.0)) {
        let b1 = Aabb::new(a, b);
        let b2 = Aabb::new(c, d);
        let u = b1.union(&b2);
        for corner in b1.corners().into_iter().chain(b2.corners()) {
            prop_assert!(u.contains(corner));
        }
    }

    #[test]
    fn aabb_contains_implies_intersects(a in arb_vec3(100.0), b in arb_vec3(100.0), p in arb_vec3(100.0)) {
        let bx = Aabb::new(a, b);
        if bx.contains(p) {
            let tiny = Aabb::from_center_half_extent(p, Vec3::splat(1e-6));
            prop_assert!(bx.intersects(&tiny));
        }
    }

    #[test]
    fn frustum_point_inside_implies_aabb_visible(
        pos in arb_vec3(10.0), q in arb_quat(), p in arb_vec3(30.0),
    ) {
        let pose = Pose::new(pos, q);
        let f = Frustum::from_pose(&pose, &CameraIntrinsics::default());
        if f.contains_point(p) {
            // Any box containing a visible point must be classified visible.
            let bx = Aabb::from_center_half_extent(p, Vec3::splat(0.25));
            prop_assert!(f.intersects_aabb(&bx));
        }
    }

    #[test]
    fn complex_mul_matches_polar(r1 in 0.01f64..10.0, t1 in finite_f64(3.0),
                                 r2 in 0.01f64..10.0, t2 in finite_f64(3.0)) {
        let a = Complex::from_polar(r1, t1);
        let b = Complex::from_polar(r2, t2);
        let p = a * b;
        prop_assert!((p.abs() - r1 * r2).abs() < 1e-9 * (1.0 + r1 * r2));
        let want = normalize_angle(t1 + t2);
        prop_assert!(normalize_angle(p.arg() - want).abs() < 1e-9);
    }

    #[test]
    fn spherical_round_trip(az in finite_f64(3.1), el in -1.5f64..1.5) {
        let s = Spherical::new(az, el);
        let s2 = Spherical::from_vector(s.to_unit_vector()).unwrap();
        prop_assert!(normalize_angle(s2.azimuth - az).abs() < 1e-8);
        prop_assert!((s2.elevation - el).abs() < 1e-8);
    }

    #[test]
    fn ray_aabb_hit_point_on_box(o in arb_vec3(20.0), d in arb_vec3(1.0), a in arb_vec3(10.0), b in arb_vec3(10.0)) {
        if let Some(ray) = Ray::new(o, d) {
            let bx = Aabb::new(a, b);
            if let Some(t) = ray.intersect_aabb(&bx) {
                let hit = ray.at(t);
                // The hit point is on (or within epsilon of) the box.
                prop_assert!(bx.distance_to_point(hit) < 1e-6);
            }
        }
    }

    #[test]
    fn slerp_angle_monotone(q in arb_quat(), t in 0.0f64..1.0) {
        let from = Quat::IDENTITY;
        let m = from.slerp(q, t);
        let total = from.angle_to(q);
        let part = from.angle_to(m);
        prop_assert!(part <= total + 1e-6);
    }
}
