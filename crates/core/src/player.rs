//! The three player systems compared in the paper.
//!
//! - **Vanilla**: fetches the entire point cloud every frame.
//! - **ViVo (multi-user)**: fetches only visibility-culled cells (viewport
//!   + distance + occlusion optimizations), each user over unicast.
//! - **Volcast**: ViVo's visibility savings *plus* multicast of overlapped
//!   cells with customized beams and cross-layer adaptation — the paper's
//!   system.
//!
//! [`max_sustainable_fps`] is the Table 1 metric: the maximum achievable
//! frame rate given a per-user network rate, the per-frame payload, and the
//! client decode ceiling, capped at the display rate.

use volcast_pointcloud::DecodeModel;

/// Which player a user runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlayerKind {
    /// Full-frame fetching.
    Vanilla,
    /// Visibility-aware unicast (multi-user ViVo).
    Vivo,
    /// Visibility-aware multicast with custom beams (this paper).
    Volcast,
}

impl PlayerKind {
    /// Display label used by the bench harness tables.
    pub fn label(self) -> &'static str {
        match self {
            PlayerKind::Vanilla => "Vanilla",
            PlayerKind::Vivo => "Multi-user ViVo",
            PlayerKind::Volcast => "volcast",
        }
    }
}

/// The Table 1 metric: maximum achievable FPS for one user.
///
/// Three ceilings apply: the network (per-user rate over per-frame bytes),
/// the client decoder (points/second), and the display cap (30 FPS).
pub fn max_sustainable_fps(
    per_user_rate_mbps: f64,
    frame_bytes: f64,
    frame_points: usize,
    decode: &DecodeModel,
    display_cap_fps: f64,
) -> f64 {
    let network_fps = if frame_bytes <= 0.0 {
        f64::INFINITY
    } else {
        per_user_rate_mbps * 1e6 / (frame_bytes * 8.0)
    };
    let decode_fps = decode.max_fps(frame_points);
    network_fps.min(decode_fps).min(display_cap_fps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_cap_applies() {
        let d = DecodeModel::default();
        // Huge bandwidth, small frames: capped at 30.
        let fps = max_sustainable_fps(10_000.0, 100_000.0, 100_000, &d, 30.0);
        assert_eq!(fps, 30.0);
    }

    #[test]
    fn network_limits_fps() {
        let d = DecodeModel::default();
        // 100 Mbps, 1 MB frames -> 12.5 FPS.
        let fps = max_sustainable_fps(100.0, 1e6, 100_000, &d, 30.0);
        assert!((fps - 12.5).abs() < 1e-9);
    }

    #[test]
    fn decoder_limits_fps() {
        let d = DecodeModel::default();
        // Plenty of bandwidth but 1.1M points/frame: decoder-bound < 16.
        let fps = max_sustainable_fps(10_000.0, 1e6, 1_100_000, &d, 30.0);
        assert!(fps < 16.0);
    }

    #[test]
    fn zero_bytes_is_display_capped() {
        let d = DecodeModel::default();
        let fps = max_sustainable_fps(100.0, 0.0, 10_000, &d, 30.0);
        assert_eq!(fps, 30.0);
    }

    #[test]
    fn labels() {
        assert_eq!(PlayerKind::Vanilla.label(), "Vanilla");
        assert_eq!(PlayerKind::Vivo.label(), "Multi-user ViVo");
        assert_eq!(PlayerKind::Volcast.label(), "volcast");
    }
}
