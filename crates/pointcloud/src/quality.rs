//! The three-version quality ladder from the paper's experimental setup.
//!
//! The paper encodes the soldier sequence at three point densities — 330K,
//! 430K and 550K points/frame — whose compressed bitrates range from 235 to
//! 364 Mbps. [`Quality`] captures those calibration anchors so the network
//! experiments can compute frame sizes without generating geometry.
//!
//! [`Ladder`] is the canonical QualityLevel → octree-depth / bytes / layers
//! mapping shared by a video's frame pricing (single-stream and layered),
//! the codec's layered configuration, the rate adapter, the server's layer
//! count, and the campus simulation's sustainable-load clamp.

/// One of the paper's three quality versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QualityLevel {
    /// 330K points/frame.
    Low,
    /// 430K points/frame.
    Medium,
    /// 550K points/frame (double the highest density used in ViVo; the
    /// highest density Draco-decodable at 30 FPS on the client laptops).
    High,
}

impl QualityLevel {
    /// All levels, lowest first.
    pub const ALL: [QualityLevel; 3] =
        [QualityLevel::Low, QualityLevel::Medium, QualityLevel::High];

    /// Human-readable label matching the paper's table ("330K points").
    pub fn label(self) -> &'static str {
        match self {
            QualityLevel::Low => "330K points",
            QualityLevel::Medium => "430K points",
            QualityLevel::High => "550K points",
        }
    }

    /// The next level down, or `None` at the bottom.
    pub fn lower(self) -> Option<QualityLevel> {
        match self {
            QualityLevel::Low => None,
            QualityLevel::Medium => Some(QualityLevel::Low),
            QualityLevel::High => Some(QualityLevel::Medium),
        }
    }

    /// The next level up, or `None` at the top.
    pub fn higher(self) -> Option<QualityLevel> {
        match self {
            QualityLevel::Low => Some(QualityLevel::Medium),
            QualityLevel::Medium => Some(QualityLevel::High),
            QualityLevel::High => None,
        }
    }
}

/// Calibrated per-level streaming parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Level identifier.
    pub level: QualityLevel,
    /// Target points per frame.
    pub points_per_frame: usize,
    /// Calibrated compressed full-frame bitrate in Mbps at 30 FPS
    /// (paper: 235-364 Mbps across the ladder).
    pub full_frame_mbps: f64,
    /// What the layers a receiver holds at this level cost — the base plus
    /// [`Ladder::enhancement_layers`] enhancements, cut from one encode of
    /// the top level's cloud — as a share of the *top* level's single
    /// stream. One anchor, so the base and each enhancement keep the
    /// codec's split. Measured on the shipped codec; `content_pins.rs`
    /// re-derives it.
    pub layered_share: f64,
}

/// Paper-calibrated anchors for a level (the source of truth behind
/// [`Ladder`]). Bitrates interpolate the paper's 235-364 Mbps range across
/// the ladder proportionally to point count. Layered shares are the codec's
/// at the ladder's densities over eight, eight animation frames, seeds 42
/// and 7 (which agree within 0.001). The two disagree below the top: the
/// paper prices Low at 0.65 of High, the codec's own Low stream is 0.33 of
/// its High one and the layered base 0.41.
fn anchor(level: QualityLevel) -> Quality {
    match level {
        QualityLevel::Low => Quality {
            level,
            points_per_frame: 330_000,
            full_frame_mbps: 235.0,
            layered_share: 0.410,
        },
        QualityLevel::Medium => Quality {
            level,
            points_per_frame: 430_000,
            full_frame_mbps: 294.0,
            layered_share: 0.913,
        },
        QualityLevel::High => Quality {
            level,
            points_per_frame: 550_000,
            full_frame_mbps: 364.0,
            layered_share: 1.238,
        },
    }
}

/// Index of a level in low-to-high ladder order.
fn idx(level: QualityLevel) -> usize {
    match level {
        QualityLevel::Low => 0,
        QualityLevel::Medium => 1,
        QualityLevel::High => 2,
    }
}

impl Quality {
    /// Compressed size of one full frame in bytes at 30 FPS.
    pub fn full_frame_bytes(&self) -> f64 {
        self.full_frame_mbps * 1e6 / 8.0 / 30.0
    }

    /// Compressed bytes per point implied by the calibration.
    pub fn bytes_per_point(&self) -> f64 {
        self.full_frame_bytes() / self.points_per_frame as f64
    }

    /// Single-stream bytes per point of a cloud sampled at
    /// `analysis_points` points, rescaled to this level's full density:
    /// what a cell of the analysis cloud costs per point it holds.
    pub fn bytes_per_analysis_point(&self, analysis_points: usize) -> f64 {
        self.points_per_frame as f64 / analysis_points as f64 * self.bytes_per_point()
    }
}

/// The canonical QualityLevel → octree-depth / bytes mapping.
///
/// One shared type answers every "what does quality level X mean" question
/// in the workspace:
///
/// - **codec**: the octree depth each level quantizes to (the layered
///   encoder's cumulative layer depths are exactly [`Ladder::depths`]),
/// - **rate adaptation**: the best level a budget affords in a delivery
///   mode ([`Ladder::best_within`]),
///   distress clamping ([`Ladder::step_down`]) and the level ↔
///   enhancement-layer-count correspondence of layered delivery
///   ([`Ladder::enhancement_layers`]; a delivery decision is one level),
/// - **pricing**: a frame's bitrate and bytes per analysis point in either
///   delivery mode ([`Ladder::mbps`], [`Ladder::bytes_per_analysis_point`];
///   layered frames are the top level's times [`Quality::layered_share`]),
/// - **campus planning**: the sustainable-load clamp
///   ([`Ladder::sustainable_scale`]) and the nominal planning frame size
///   ([`Ladder::PLANNING_FRAME_BYTES`]).
///
/// | Level  | Points | Mbps | Octree depth | Enhancement layers held | Layered share | Layered Mbps |
/// |--------|--------|------|--------------|-------------------------|---------------|--------------|
/// | Low    | 330K   | 235  | 8            | 0 (base only)           | 0.410         | 149.2        |
/// | Medium | 430K   | 294  | 9            | 1                       | 0.913         | 332.3        |
/// | High   | 550K   | 364  | 10           | 2                       | 1.238         | 450.6        |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    /// The three calibrated levels, lowest first.
    levels: [Quality; 3],
    /// Cumulative octree depth per level (strictly increasing): the depth
    /// the layered codec refines to once a receiver holds the base layer
    /// plus that level's enhancement layers.
    depths: [u32; 3],
}

impl Default for Ladder {
    fn default() -> Self {
        Ladder::paper()
    }
}

impl Ladder {
    /// The nominal full-quality planning frame size used by capacity
    /// planning (campus admission): 300 Mbps at 30 FPS. Deliberately a
    /// round planning number, not a ladder anchor — admission headroom is
    /// computed against it, then the clamp scales real traffic.
    pub const PLANNING_FRAME_BYTES: f64 = 300.0e6 / 8.0 / 30.0;

    /// The paper-calibrated ladder: 330K/430K/550K points at octree depths
    /// 8/9/10 (the paper's depth-10 soldier at ~2 mm voxels, with each
    /// coarser level halving the spatial resolution).
    pub fn paper() -> Ladder {
        Ladder {
            levels: [
                anchor(QualityLevel::Low),
                anchor(QualityLevel::Medium),
                anchor(QualityLevel::High),
            ],
            depths: [8, 9, 10],
        }
    }

    /// A level's calibrated streaming parameters.
    pub fn quality(&self, level: QualityLevel) -> Quality {
        self.levels[idx(level)]
    }

    /// A level's octree quantization depth.
    pub fn depth(&self, level: QualityLevel) -> u32 {
        self.depths[idx(level)]
    }

    /// Cumulative octree depths, lowest level first (the layered codec's
    /// layer boundaries: base at `depths()[0]`, each enhancement refining
    /// to the next entry).
    pub fn depths(&self) -> [u32; 3] {
        self.depths
    }

    /// Number of enhancement layers a receiver must hold on top of the
    /// base layer to render this level (0 for Low).
    pub fn enhancement_layers(&self, level: QualityLevel) -> usize {
        idx(level)
    }

    /// Bitrate in Mbps of a frame at `level`: its single stream's, or
    /// (`layered`) the layers held for it, the top level's single stream
    /// times [`Quality::layered_share`].
    pub fn mbps(&self, level: QualityLevel, layered: bool) -> f64 {
        match layered {
            false => self.quality(level).full_frame_mbps,
            true => self.levels[2].full_frame_mbps * self.quality(level).layered_share,
        }
    }

    /// Bytes per analysis point of a frame at `level`, priced as
    /// [`Ladder::mbps`] prices it.
    pub fn bytes_per_analysis_point(
        &self,
        level: QualityLevel,
        layered: bool,
        analysis_points: usize,
    ) -> f64 {
        match layered {
            false => self
                .quality(level)
                .bytes_per_analysis_point(analysis_points),
            true => {
                self.levels[2].bytes_per_analysis_point(analysis_points)
                    * self.quality(level).layered_share
            }
        }
    }

    /// The highest level whose frame ([`Ladder::mbps`]) fits within
    /// `budget_mbps`, or `None` when even Low does not fit.
    pub fn best_within(&self, budget_mbps: f64, layered: bool) -> Option<QualityLevel> {
        (QualityLevel::ALL.into_iter().rev())
            .find(|&level| self.mbps(level, layered) <= budget_mbps)
    }

    /// Steps `level` down the ladder `steps` times, saturating at Low.
    pub fn step_down(&self, level: QualityLevel, steps: u32) -> QualityLevel {
        let mut level = level;
        for _ in 0..steps {
            match level.lower() {
                Some(l) => level = l,
                None => break,
            }
        }
        level
    }

    /// The campus sustainable-load clamp: given one station's per-frame
    /// airtime demand `demand_s` against a frame interval `interval_s`,
    /// the quality scale (1.0 = full quality) that makes the demand fit.
    /// Infinite demand (unreachable station) clamps to full quality — the
    /// caller gates on reachability separately.
    pub fn sustainable_scale(interval_s: f64, demand_s: f64) -> f64 {
        if demand_s > interval_s && demand_s.is_finite() {
            interval_s / demand_s
        } else {
            1.0
        }
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_enum!(QualityLevel { Low, Medium, High });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone() {
        let l = Ladder::paper();
        assert!(
            l.quality(QualityLevel::Low).points_per_frame
                < l.quality(QualityLevel::Medium).points_per_frame
        );
        assert!(
            l.quality(QualityLevel::Medium).points_per_frame
                < l.quality(QualityLevel::High).points_per_frame
        );
        assert!(
            l.quality(QualityLevel::Low).full_frame_mbps
                < l.quality(QualityLevel::High).full_frame_mbps
        );
    }

    #[test]
    fn paper_anchor_bitrates() {
        let l = Ladder::paper();
        assert_eq!(l.quality(QualityLevel::Low).full_frame_mbps, 235.0);
        assert_eq!(l.quality(QualityLevel::High).full_frame_mbps, 364.0);
        assert_eq!(l.quality(QualityLevel::High).points_per_frame, 550_000);
    }

    #[test]
    fn frame_bytes_match_bitrate() {
        let q = Ladder::paper().quality(QualityLevel::High);
        // 364 Mbps at 30 FPS ~ 1.52 MB/frame.
        let mb = q.full_frame_bytes() / 1e6;
        assert!((mb - 1.516).abs() < 0.01, "{mb}");
        // Bytes per point ~ 2.7.
        assert!((q.bytes_per_point() - 2.76).abs() < 0.1);
    }

    #[test]
    fn level_ordering_helpers() {
        assert_eq!(QualityLevel::Low.lower(), None);
        assert_eq!(QualityLevel::Low.higher(), Some(QualityLevel::Medium));
        assert_eq!(QualityLevel::High.higher(), None);
        assert_eq!(QualityLevel::High.lower(), Some(QualityLevel::Medium));
        assert!(QualityLevel::Low < QualityLevel::High);
    }

    #[test]
    fn best_within_budget() {
        let l = Ladder::paper();
        assert_eq!(l.best_within(400.0, false), Some(QualityLevel::High));
        assert_eq!(l.best_within(300.0, false), Some(QualityLevel::Medium));
        assert_eq!(l.best_within(240.0, false), Some(QualityLevel::Low));
        assert_eq!(l.best_within(100.0, false), None);
        // Layered: 149.2 / 332.3 / 450.6 Mbps.
        assert_eq!(l.best_within(400.0, true), Some(QualityLevel::Medium));
        assert_eq!(l.best_within(300.0, true), Some(QualityLevel::Low));
        assert_eq!(l.best_within(140.0, true), None);
    }

    #[test]
    fn ladder_depths_and_layers_correspond() {
        let l = Ladder::paper();
        assert_eq!(l.depths(), [8, 9, 10]);
        assert_eq!(l.depth(QualityLevel::Low), 8);
        assert_eq!(l.depth(QualityLevel::High), 10);
        assert_eq!(l.enhancement_layers(QualityLevel::Low), 0);
        assert_eq!(l.enhancement_layers(QualityLevel::High), 2);
    }

    #[test]
    fn step_down_saturates() {
        let l = Ladder::paper();
        assert_eq!(l.step_down(QualityLevel::High, 0), QualityLevel::High);
        assert_eq!(l.step_down(QualityLevel::High, 1), QualityLevel::Medium);
        assert_eq!(l.step_down(QualityLevel::High, 2), QualityLevel::Low);
        assert_eq!(l.step_down(QualityLevel::High, 99), QualityLevel::Low);
        assert_eq!(l.step_down(QualityLevel::Low, 1), QualityLevel::Low);
    }

    #[test]
    fn sustainable_scale_clamps_only_overload() {
        // Fits: identity.
        assert_eq!(Ladder::sustainable_scale(1.0 / 30.0, 0.01), 1.0);
        // Overload: scale = interval / demand.
        let s = Ladder::sustainable_scale(1.0 / 30.0, 1.0 / 15.0);
        assert!((s - 0.5).abs() < 1e-12);
        // Unreachable (infinite demand): the caller's reachability gate
        // owns that case; the clamp stays at full quality.
        assert_eq!(Ladder::sustainable_scale(1.0 / 30.0, f64::INFINITY), 1.0);
    }

    #[test]
    fn labels() {
        assert_eq!(QualityLevel::High.label(), "550K points");
        assert_eq!(QualityLevel::ALL.len(), 3);
    }
}
