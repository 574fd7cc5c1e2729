//! Joint multi-user viewport prediction (§4.1 of the paper).
//!
//! Naively combining per-user predictors ignores that co-located users
//! interact: a user walking toward another will slow down or divert, and a
//! user standing in front of another occludes their viewport, which in turn
//! changes where the occluded user moves. [`JointPredictor`] wraps one
//! per-user base predictor and applies two interaction corrections:
//!
//! 1. **Proximity damping** — when two users' predicted positions come
//!    within a comfort radius, their predicted translational motion is
//!    damped toward their current positions (people do not walk through
//!    each other).
//! 2. **Occlusion awareness** — when another user's body is predicted to
//!    stand between a viewer and the subject, the viewer's predicted yaw is
//!    biased to peek around the blocker (the behaviour observed in AR
//!    group-viewing).

use crate::predict::{LinearPredictor, Predictor};
use volcast_geom::{normalize_angle, Pose, SixDof, Vec3};

/// Configuration for the interaction corrections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointConfig {
    /// Personal-space radius in meters; predictions closer than this are
    /// damped.
    pub comfort_radius: f64,
    /// Fraction of predicted displacement kept when a conflict is detected.
    pub damping: f64,
    /// Body radius used for viewer-viewer occlusion tests (meters).
    pub body_radius: f64,
    /// Yaw bias applied to peek around a predicted occluder (radians).
    pub peek_bias: f64,
    /// Subject position (what everyone is watching).
    pub subject: Vec3,
}

impl Default for JointConfig {
    fn default() -> Self {
        JointConfig {
            comfort_radius: 0.7,
            damping: 0.35,
            body_radius: 0.25,
            peek_bias: 0.2,
            subject: Vec3::new(0.0, 1.1, 0.0),
        }
    }
}

/// Joint multi-user predictor: a per-user [`LinearPredictor`] plus
/// interaction corrections across users.
#[derive(Debug, Clone)]
pub struct JointPredictor {
    /// Per-user base predictors.
    bases: Vec<LinearPredictor>,
    /// Latest observed pose per user.
    last: Vec<Option<SixDof>>,
    /// Correction configuration.
    pub config: JointConfig,
    /// Reused working buffers of [`JointPredictor::predict_frame_into`]
    /// (predictions and current poses).
    scratch_preds: Vec<SixDof>,
    scratch_current: Vec<SixDof>,
}

impl JointPredictor {
    /// Creates a joint predictor for `users` users with the given history
    /// window for each per-user base predictor.
    pub fn new(users: usize, window: usize, config: JointConfig) -> Self {
        JointPredictor {
            bases: (0..users).map(|_| LinearPredictor::new(window)).collect(),
            last: vec![None; users],
            config,
            scratch_preds: Vec::new(),
            scratch_current: Vec::new(),
        }
    }

    /// Observes one frame of poses, one entry per user.
    pub fn observe_frame(&mut self, poses: &[Pose]) {
        assert_eq!(poses.len(), self.bases.len(), "pose count != user count");
        for (u, pose) in poses.iter().enumerate() {
            let s = pose.to_sixdof();
            self.bases[u].observe(s);
            self.last[u] = Some(s);
        }
    }

    /// Predicts every user's pose `horizon` frames ahead, with interaction
    /// corrections: fills `out` (cleared first) and returns `false` until
    /// all users have enough history. Working buffers live in the
    /// predictor, so a steady-state prediction loop allocates nothing.
    pub fn predict_frame_into(&mut self, horizon: usize, out: &mut Vec<Pose>) -> bool {
        out.clear();
        let JointPredictor {
            bases,
            last,
            config,
            scratch_preds: preds,
            scratch_current: current,
        } = self;
        preds.clear();
        current.clear();
        for b in bases.iter() {
            match b.predict(horizon) {
                Some(s) => preds.push(s),
                None => return false,
            }
        }
        // A user with no observed pose yet means "not enough history" —
        // report a miss like the base-predictor path above, never panic.
        for l in last.iter() {
            match l {
                Some(s) => current.push(*s),
                None => return false,
            }
        }

        // 1. Proximity damping: pull conflicting predictions back toward
        //    the users' current positions.
        let n = preds.len();
        let pos = |s: &SixDof| Vec3::new(s.v[0], s.v[1], s.v[2]);
        for i in 0..n {
            for j in (i + 1)..n {
                let pi = pos(&preds[i]);
                let pj = pos(&preds[j]);
                // Compare horizontal distance only; heads at different
                // heights still collide bodily.
                let horiz = ((pi.x - pj.x).powi(2) + (pi.z - pj.z).powi(2)).sqrt();
                if horiz < config.comfort_radius {
                    for (idx, cur) in [(i, current[i]), (j, current[j])] {
                        for d in 0..3 {
                            let displaced = preds[idx].v[d] - cur.v[d];
                            preds[idx].v[d] = cur.v[d] + displaced * config.damping;
                        }
                    }
                }
            }
        }

        // 2. Occlusion peek bias: if user j's predicted body blocks user
        //    i's line to the subject, bias i's yaw to the side that clears
        //    the blocker faster.
        for i in 0..n {
            let pi = pos(&preds[i]);
            let to_subject = config.subject - pi;
            let dist = to_subject.norm();
            if dist < 1e-6 {
                continue;
            }
            let dir = to_subject / dist;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let pj = pos(&preds[j]);
                let rel = pj - pi;
                let along = rel.dot(dir);
                if along <= 0.0 || along >= dist {
                    continue; // blocker not between viewer and subject
                }
                let closest = pi + dir * along;
                let lateral = Vec3::new(pj.x - closest.x, 0.0, pj.z - closest.z);
                if lateral.norm() < config.body_radius {
                    // Peek toward the side the blocker is NOT on.
                    let side = dir.cross(Vec3::Y);
                    let sign = if lateral.dot(side) >= 0.0 { -1.0 } else { 1.0 };
                    preds[i].v[3] = normalize_angle(preds[i].v[3] + sign * config.peek_bias);
                }
            }
        }

        out.extend(preds.iter().copied().map(Pose::from_sixdof));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_geom::Quat;

    fn pose_at(x: f64, z: f64) -> Pose {
        Pose::new(Vec3::new(x, 1.6, z), Quat::IDENTITY)
    }

    fn predict(jp: &mut JointPredictor, horizon: usize) -> Option<Vec<Pose>> {
        let mut out = Vec::new();
        jp.predict_frame_into(horizon, &mut out).then_some(out)
    }

    /// The per-user base predictions, without interaction corrections.
    fn naive(jp: &JointPredictor, horizon: usize) -> Option<Vec<Pose>> {
        jp.bases
            .iter()
            .map(|b| b.predict(horizon).map(Pose::from_sixdof))
            .collect()
    }

    /// Two users walking straight at each other.
    fn feed_collision_course(jp: &mut JointPredictor, frames: usize) {
        for f in 0..frames {
            let t = f as f64 * 0.02;
            jp.observe_frame(&[pose_at(-1.0 + t, 0.0), pose_at(1.0 - t, 0.0)]);
        }
    }

    #[test]
    fn needs_history_from_all_users() {
        let mut jp = JointPredictor::new(2, 10, JointConfig::default());
        assert!(predict(&mut jp, 1).is_none());
    }

    #[test]
    fn proximity_damping_reduces_closing_speed() {
        let mut jp = JointPredictor::new(2, 10, JointConfig::default());
        feed_collision_course(&mut jp, 40); // users at x = -0.22 / 0.22, closing
        let horizon = 15;
        let naive = naive(&jp, horizon).unwrap();
        let joint = predict(&mut jp, horizon).unwrap();
        let gap = |ps: &[Pose]| (ps[0].position - ps[1].position).norm();
        // Naive extrapolation predicts users nearly on top of each other;
        // the joint prediction keeps them further apart.
        assert!(
            gap(&joint) > gap(&naive),
            "joint gap {} <= naive gap {}",
            gap(&joint),
            gap(&naive)
        );
    }

    #[test]
    fn distant_users_are_unaffected() {
        let mut jp = JointPredictor::new(2, 10, JointConfig::default());
        for f in 0..30 {
            let t = f as f64 * 0.01;
            jp.observe_frame(&[pose_at(-3.0 + t, -3.0), pose_at(3.0, 3.0)]);
        }
        let naive = naive(&jp, 5).unwrap();
        let joint = predict(&mut jp, 5).unwrap();
        for (a, b) in naive.iter().zip(&joint) {
            assert!((a.position - b.position).norm() < 1e-9);
        }
    }

    #[test]
    fn occluder_biases_view_yaw() {
        let cfg = JointConfig {
            subject: Vec3::new(0.0, 1.1, 0.0),
            ..Default::default()
        };
        let mut jp = JointPredictor::new(2, 10, cfg);
        // User 0 stands at z=3 looking at subject; user 1 stands directly
        // on the line at z=1.5, stationary.
        for _ in 0..20 {
            jp.observe_frame(&[
                Pose::looking_at(Vec3::new(0.0, 1.6, 3.0), cfg.subject),
                Pose::looking_at(Vec3::new(0.0, 1.6, 1.5), cfg.subject),
            ]);
        }
        let naive = naive(&jp, 5).unwrap();
        let joint = predict(&mut jp, 5).unwrap();
        let (ny, _, _) = naive[0].orientation.to_yaw_pitch_roll();
        let (jy, _, _) = joint[0].orientation.to_yaw_pitch_roll();
        assert!(
            normalize_angle(jy - ny).abs() > 0.1,
            "expected peek bias, naive {ny} joint {jy}"
        );
    }

    #[test]
    fn observe_frame_panics_on_wrong_user_count() {
        let mut jp = JointPredictor::new(2, 5, JointConfig::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            jp.observe_frame(&[pose_at(0.0, 0.0)]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn missing_last_pose_returns_none_instead_of_panicking() {
        let mut jp = JointPredictor::new(2, 10, JointConfig::default());
        feed_collision_course(&mut jp, 40);
        assert!(predict(&mut jp, 5).is_some());
        // A user whose latest pose is missing (e.g. state restored from a
        // partial snapshot) must surface as "no prediction yet", not a
        // panic in the correction pass.
        jp.last[0] = None;
        assert!(predict(&mut jp, 5).is_none());
    }
}
