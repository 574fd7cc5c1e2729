//! Client decode-throughput model.
//!
//! The paper's client laptops (i7, 4 cores @ 2.8 GHz) decode Draco at up to
//! 550K points/frame at 30 FPS — that density was chosen *because* it is the
//! ceiling. We model the decoder as a fixed points/second budget (plus a
//! small per-frame overhead), which reproduces exactly that ceiling without
//! depending on this machine's speed.

/// Decode-rate model: points/second budget with per-frame fixed cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeModel {
    /// Sustained decode throughput in points per second.
    pub points_per_sec: f64,
    /// Fixed per-frame overhead in seconds (dispatch, container parsing).
    pub per_frame_overhead_s: f64,
}

impl Default for DecodeModel {
    /// Calibrated so 550K points/frame decodes at exactly 30 FPS:
    /// `550_000 * 30 = 16.5M` points/s with a small overhead folded in.
    fn default() -> Self {
        DecodeModel {
            points_per_sec: 16.83e6,
            per_frame_overhead_s: 0.65e-3,
        }
    }
}

impl DecodeModel {
    /// Time to decode one frame of `points` points, in seconds.
    pub fn frame_decode_time(&self, points: usize) -> f64 {
        self.per_frame_overhead_s + points as f64 / self.points_per_sec
    }

    /// Maximum sustainable decode frame rate for frames of `points` points.
    pub fn max_fps(&self, points: usize) -> f64 {
        1.0 / self.frame_decode_time(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_at_550k_is_30fps() {
        let m = DecodeModel::default();
        let fps = m.max_fps(550_000);
        assert!((30.0..32.0).contains(&fps), "550K decodes at {fps} FPS");
    }

    #[test]
    fn lower_density_decodes_faster() {
        let m = DecodeModel::default();
        assert!(m.max_fps(330_000) > m.max_fps(430_000));
        assert!(m.max_fps(430_000) > m.max_fps(550_000));
        assert!(m.max_fps(330_000) > 40.0);
    }

    #[test]
    fn much_higher_density_cannot_sustain_30fps() {
        let m = DecodeModel::default();
        assert!(m.max_fps(1_100_000) < 16.0);
    }

    #[test]
    fn decode_time_monotone_in_points() {
        let m = DecodeModel::default();
        assert!(m.frame_decode_time(0) > 0.0); // overhead only
        assert!(m.frame_decode_time(200_000) < m.frame_decode_time(400_000));
    }
}
