//! System-wide configuration.

/// Per-frame airtime admission budget, in frame intervals. A burst (or a
/// frame's plan plus a retransmit) slower than this can never catch up —
/// the client buffer is shallower than the backlog it creates — while
/// sub-30-FPS operation (1-3 intervals, the paper's 10-25 FPS rows) still
/// fits. Shared by the session's admission control and bounded retransmit
/// and by the campus' per-AP clamp.
pub(crate) const AIRTIME_BUDGET_INTERVALS: f64 = 3.0;

/// Configuration shared by the streaming pipeline components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Target display frame rate (the paper caps at 30 FPS).
    pub target_fps: f64,
    /// Cell edge length for the spatial partition (meters).
    pub cell_size: f64,
    /// Viewport-prediction horizon in frames.
    pub prediction_horizon: usize,
    /// History window for the per-user linear predictors.
    pub predictor_window: usize,
    /// Minimum pairwise IoU for two groups to be considered for merging.
    pub min_merge_iou: f64,
    /// Client playback buffer capacity in frames. Kept small on purpose:
    /// content is viewport-dependent, so frames prefetched more than a few
    /// prediction horizons ahead would render the wrong cells
    /// (motion-to-photon constraint of viewport-adaptive streaming).
    pub buffer_capacity_frames: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            target_fps: 30.0,
            cell_size: 0.5,
            prediction_horizon: 10,
            predictor_window: 15,
            min_merge_iou: 0.25,
            buffer_capacity_frames: 3,
        }
    }
}

impl SystemConfig {
    /// The frame interval in seconds (`1/F` in the paper's constraint).
    pub fn frame_interval_s(&self) -> f64 {
        1.0 / self.target_fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SystemConfig::default();
        assert_eq!(c.target_fps, 30.0);
        assert!((c.frame_interval_s() - 1.0 / 30.0).abs() < 1e-12);
        assert!(c.cell_size > 0.0);
        assert!(c.prediction_horizon > 0);
        assert!((0.0..=1.0).contains(&c.min_merge_iou));
    }
}
