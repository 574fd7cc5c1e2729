//! Property-based tests for the geometric invariants every higher layer
//! relies on.

use volcast_geom::{
    normalize_angle, Aabb, CameraIntrinsics, Complex, Frustum, Pose, Quat, Ray, Spherical, Vec3,
};
use volcast_util::prop::run_cases;
use volcast_util::rng::Rng;

fn finite_f64(rng: &mut Rng, range: f64) -> f64 {
    rng.gen_range(-range..range)
}

fn arb_vec3(rng: &mut Rng, range: f64) -> Vec3 {
    let [x, y, z] = [0; 3].map(|_| finite_f64(rng, range));
    Vec3::new(x, y, z)
}

fn arb_quat(rng: &mut Rng) -> Quat {
    let (yaw, pitch) = (finite_f64(rng, 3.1), rng.gen_range(-1.5..1.5));
    Quat::from_yaw_pitch_roll(yaw, pitch, finite_f64(rng, 3.1))
}

#[test]
fn vec_add_commutes() {
    run_cases("vec_add_commutes", |rng| {
        let (a, b) = (arb_vec3(rng, 1e6), arb_vec3(rng, 1e6));
        assert_eq!(a + b, b + a);
    });
}

#[test]
fn vec_dot_bilinear() {
    run_cases("vec_dot_bilinear", |rng| {
        let (a, b, s) = (arb_vec3(rng, 1e3), arb_vec3(rng, 1e3), finite_f64(rng, 1e3));
        let lhs = (a * s).dot(b);
        let rhs = a.dot(b) * s;
        assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + lhs.abs().max(rhs.abs())));
    });
}

#[test]
fn cross_orthogonal() {
    run_cases("cross_orthogonal", |rng| {
        let (a, b) = (arb_vec3(rng, 1e3), arb_vec3(rng, 1e3));
        let c = a.cross(b);
        let scale = a.norm() * b.norm();
        assert!(c.dot(a).abs() <= 1e-6 * (1.0 + scale * a.norm()));
        assert!(c.dot(b).abs() <= 1e-6 * (1.0 + scale * b.norm()));
    });
}

#[test]
fn normalized_has_unit_norm() {
    run_cases("normalized_has_unit_norm", |rng| {
        if let Some(n) = arb_vec3(rng, 1e6).normalized() {
            assert!((n.norm() - 1.0).abs() < 1e-9);
        }
    });
}

#[test]
fn quat_rotation_preserves_norm() {
    run_cases("quat_rotation_preserves_norm", |rng| {
        let (q, v) = (arb_quat(rng), arb_vec3(rng, 1e3));
        let r = q.rotate(v);
        assert!((r.norm() - v.norm()).abs() <= 1e-9 * (1.0 + v.norm()));
    });
}

#[test]
fn quat_rotation_preserves_dot() {
    run_cases("quat_rotation_preserves_dot", |rng| {
        let (q, a, b) = (arb_quat(rng), arb_vec3(rng, 1e2), arb_vec3(rng, 1e2));
        let d0 = a.dot(b);
        let d1 = q.rotate(a).dot(q.rotate(b));
        assert!((d0 - d1).abs() <= 1e-7 * (1.0 + d0.abs()));
    });
}

#[test]
fn quat_conjugate_is_inverse() {
    run_cases("quat_conjugate_is_inverse", |rng| {
        let (q, v) = (arb_quat(rng), arb_vec3(rng, 1e3));
        let back = q.conjugate().rotate(q.rotate(v));
        assert!((back - v).norm() <= 1e-8 * (1.0 + v.norm()));
    });
}

#[test]
fn yaw_pitch_roll_round_trip() {
    run_cases("yaw_pitch_roll_round_trip", |rng| {
        let q = arb_quat(rng);
        let (y, p, r) = q.to_yaw_pitch_roll();
        let q2 = Quat::from_yaw_pitch_roll(y, p, r);
        assert!(q.angle_to(q2) < 1e-6);
    });
}

#[test]
fn sixdof_round_trip() {
    run_cases("sixdof_round_trip", |rng| {
        let (pos, q) = (arb_vec3(rng, 50.0), arb_quat(rng));
        let pose = Pose::new(pos, q);
        let pose2 = Pose::from_sixdof(pose.to_sixdof());
        assert!((pose2.position - pose.position).norm() < 1e-9);
        assert!(pose.orientation.angle_to(pose2.orientation) < 1e-6);
    });
}

#[test]
fn normalize_angle_in_range() {
    run_cases("normalize_angle_in_range", |rng| {
        let a = finite_f64(rng, 1e4);
        let n = normalize_angle(a);
        assert!(n > -std::f64::consts::PI - 1e-12 && n <= std::f64::consts::PI + 1e-12);
        // Same angle modulo 2*pi.
        let diff = (a - n) / (2.0 * std::f64::consts::PI);
        assert!((diff - diff.round()).abs() < 1e-6);
    });
}

#[test]
fn aabb_union_contains_both() {
    run_cases("aabb_union_contains_both", |rng| {
        let b1 = Aabb::new(arb_vec3(rng, 100.0), arb_vec3(rng, 100.0));
        let b2 = Aabb::new(arb_vec3(rng, 100.0), arb_vec3(rng, 100.0));
        let u = b1.union(&b2);
        for corner in b1.corners().into_iter().chain(b2.corners()) {
            assert!(u.contains(corner));
        }
    });
}

#[test]
fn aabb_contains_implies_intersects() {
    run_cases("aabb_contains_implies_intersects", |rng| {
        let bx = Aabb::new(arb_vec3(rng, 100.0), arb_vec3(rng, 100.0));
        let p = arb_vec3(rng, 100.0);
        if bx.contains(p) {
            let tiny = Aabb::from_center_half_extent(p, Vec3::splat(1e-6));
            assert!(bx.intersects(&tiny));
        }
    });
}

#[test]
fn frustum_point_inside_implies_aabb_visible() {
    run_cases("frustum_point_inside_implies_aabb_visible", |rng| {
        let pose = Pose::new(arb_vec3(rng, 10.0), arb_quat(rng));
        let p = arb_vec3(rng, 30.0);
        let f = Frustum::from_pose(&pose, &CameraIntrinsics::default());
        if f.contains_point(p) {
            // Any box containing a visible point must be classified visible.
            let bx = Aabb::from_center_half_extent(p, Vec3::splat(0.25));
            assert!(f.intersects_aabb(&bx));
        }
    });
}

#[test]
fn complex_mul_matches_polar() {
    run_cases("complex_mul_matches_polar", |rng| {
        let (r1, t1) = (rng.gen_range(0.01..10.0), finite_f64(rng, 3.0));
        let (r2, t2) = (rng.gen_range(0.01..10.0), finite_f64(rng, 3.0));
        let a = Complex::from_polar(r1, t1);
        let b = Complex::from_polar(r2, t2);
        let p = a * b;
        assert!((p.abs() - r1 * r2).abs() < 1e-9 * (1.0 + r1 * r2));
        let want = normalize_angle(t1 + t2);
        assert!(normalize_angle(p.arg() - want).abs() < 1e-9);
    });
}

#[test]
fn spherical_round_trip() {
    run_cases("spherical_round_trip", |rng| {
        let (az, el) = (finite_f64(rng, 3.1), rng.gen_range(-1.5..1.5));
        let s = Spherical::new(az, el);
        let s2 = Spherical::from_vector(s.to_unit_vector()).unwrap();
        assert!(normalize_angle(s2.azimuth - az).abs() < 1e-8);
        assert!((s2.elevation - el).abs() < 1e-8);
    });
}

#[test]
fn ray_aabb_hit_point_on_box() {
    run_cases("ray_aabb_hit_point_on_box", |rng| {
        let (o, d) = (arb_vec3(rng, 20.0), arb_vec3(rng, 1.0));
        let bx = Aabb::new(arb_vec3(rng, 10.0), arb_vec3(rng, 10.0));
        if let Some(ray) = Ray::new(o, d) {
            if let Some(t) = ray.intersect_aabb(&bx) {
                let hit = ray.at(t);
                // The hit point is on (or within epsilon of) the box.
                assert!(bx.distance_to_point(hit) < 1e-6);
            }
        }
    });
}

#[test]
fn slerp_angle_monotone() {
    run_cases("slerp_angle_monotone", |rng| {
        let (q, t) = (arb_quat(rng), rng.gen_range(0.0..1.0));
        let from = Quat::IDENTITY;
        let m = from.slerp(q, t);
        let total = from.angle_to(q);
        let part = from.angle_to(m);
        assert!(part <= total + 1e-6);
    });
}
