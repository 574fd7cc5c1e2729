//! Viewport-prediction-driven mmWave blockage forecasting (§4.1).
//!
//! Human bodies attenuate 60 GHz links by tens of dB; re-searching beams
//! after a surprise blockage costs 5-20 ms and stalls video. The paper's
//! proposal: the AP already predicts every user's viewport — use the same
//! predictions to forecast *which user will block which link, and when*,
//! then act proactively (prefetch, switch to a reflected beam).
//!
//! [`BlockageForecaster`] takes predicted user positions over a horizon and
//! tests every AP→user line of sight against every *other* user's predicted
//! body cylinder.

use volcast_geom::{Pose, Ray, Vec3};

/// A forecast blockage of one user's link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockageEvent {
    /// The user whose AP link is blocked.
    pub victim: usize,
    /// The user whose body blocks the link.
    pub blocker: usize,
    /// Frames from now until the blockage begins (0 = already blocked).
    pub onset_frames: usize,
}

/// Forecasts human-body blockages from predicted poses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockageForecaster {
    /// AP (antenna) position.
    pub ap: Vec3,
    /// Body cylinder radius in meters.
    pub body_radius: f64,
    /// Body height in meters (cylinder spans the floor to this height).
    pub body_height: f64,
    /// Height of the floor under the users (cylinder base).
    pub floor_y: f64,
}

impl BlockageForecaster {
    /// Creates a forecaster for an AP mounted at `ap`.
    pub fn new(ap: Vec3) -> Self {
        BlockageForecaster {
            ap,
            body_radius: 0.25,
            body_height: 1.8,
            floor_y: 0.0,
        }
    }

    /// `true` when the straight path from the AP to `victim_head` passes
    /// through the body cylinder of a user standing at `blocker_head`.
    ///
    /// `blocker_head` is the blocker's *head* position; the body cylinder
    /// is centered under it.
    pub fn is_blocked(&self, victim_head: Vec3, blocker_head: Vec3) -> bool {
        let Some(ray) = Ray::between(self.ap, victim_head) else {
            return false;
        };
        let dist = self.ap.distance(victim_head);
        match ray.intersect_vertical_cylinder(
            blocker_head.x,
            blocker_head.z,
            self.body_radius,
            self.floor_y,
            self.floor_y + self.body_height,
        ) {
            // The hit must lie strictly between AP and victim; hits at the
            // victim's own position (when testing self) don't count.
            Some(t) => t > 1e-9 && t < dist - self.body_radius,
            None => false,
        }
    }

    /// Scans a per-frame series of predicted poses (`predictions[f][u]` =
    /// user `u` at future frame `f`) and returns the first forecast
    /// blockage event per (victim, blocker) pair, sorted by onset.
    pub fn forecast(&self, predictions: &[Vec<Pose>]) -> Vec<BlockageEvent> {
        let mut events: Vec<BlockageEvent> = Vec::new();
        let mut seen: Vec<(usize, usize)> = Vec::new();
        for (f, frame) in predictions.iter().enumerate() {
            for (victim, vp) in frame.iter().enumerate() {
                for (blocker, bp) in frame.iter().enumerate() {
                    if victim == blocker || seen.contains(&(victim, blocker)) {
                        continue;
                    }
                    if self.is_blocked(vp.position, bp.position) {
                        events.push(BlockageEvent {
                            victim,
                            blocker,
                            onset_frames: f,
                        });
                        seen.push((victim, blocker));
                    }
                }
            }
        }
        events.sort_by_key(|e| (e.onset_frames, e.victim, e.blocker));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_geom::Quat;

    fn pose_at(x: f64, y: f64, z: f64) -> Pose {
        Pose::new(Vec3::new(x, y, z), Quat::IDENTITY)
    }

    fn forecaster() -> BlockageForecaster {
        // Ceiling-corner AP, typical WLAN deployment.
        BlockageForecaster::new(Vec3::new(0.0, 2.6, 4.0))
    }

    #[test]
    fn direct_blocker_is_detected() {
        let f = forecaster();
        // Victim at z=-2; blocker standing midway on the LoS.
        let victim = Vec3::new(0.0, 1.6, -2.0);
        // LoS from (0,2.6,4) to (0,1.6,-2): at z=1, y ~ 2.1 -> blocked by a
        // 1.8 m body standing there.
        let blocker_near_victim = Vec3::new(0.0, 1.7, -1.0);
        assert!(f.is_blocked(victim, blocker_near_victim));
    }

    #[test]
    fn offset_blocker_is_not_detected() {
        let f = forecaster();
        let victim = Vec3::new(0.0, 1.6, -2.0);
        let blocker = Vec3::new(1.5, 1.7, 1.0); // well off the LoS
        assert!(!f.is_blocked(victim, blocker));
    }

    #[test]
    fn blocker_behind_victim_does_not_block() {
        let f = forecaster();
        let victim = Vec3::new(0.0, 1.6, 0.0);
        let blocker = Vec3::new(0.0, 1.7, -2.0); // beyond the victim
        assert!(!f.is_blocked(victim, blocker));
    }

    #[test]
    fn tall_ap_clears_midway_blocker() {
        // With the AP high above, the LoS passes over a short blocker when
        // the blocker stands close to the AP side.
        let mut f = forecaster();
        f.body_height = 1.2; // children / seated users
        let victim = Vec3::new(0.0, 1.2, -2.0);
        let blocker = Vec3::new(0.0, 1.0, 2.5); // near AP, LoS is ~2.2 m high there
        assert!(!f.is_blocked(victim, blocker));
    }

    #[test]
    fn forecast_reports_onset_frame() {
        let f = forecaster();
        // Victim fixed; blocker walks across the LoS, crossing at frame 2.
        let victim = pose_at(0.0, 1.6, -2.0);
        let frames = vec![
            vec![victim, pose_at(2.0, 1.7, -1.0)],
            vec![victim, pose_at(1.0, 1.7, -1.0)],
            vec![victim, pose_at(0.0, 1.7, -1.0)], // on the line
            vec![victim, pose_at(-1.0, 1.7, -1.0)],
        ];
        let events = f.forecast(&frames);
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            BlockageEvent {
                victim: 0,
                blocker: 1,
                onset_frames: 2
            }
        );
    }

    #[test]
    fn forecast_deduplicates_pairs() {
        let f = forecaster();
        let victim = pose_at(0.0, 1.6, -2.0);
        let blocker = pose_at(0.0, 1.7, -1.0);
        let frames = vec![vec![victim, blocker]; 5];
        let events = f.forecast(&frames);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].onset_frames, 0);
    }

    #[test]
    fn self_blockage_is_not_reported() {
        let f = forecaster();
        assert!(f.forecast(&[vec![pose_at(0.0, 1.6, -2.0)]]).is_empty());
    }
}
