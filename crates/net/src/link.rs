//! Per-user link state tracking.
//!
//! The cross-layer rate adaptation (paper §4.3) combines PHY indicators —
//! RSS trend, blockage — with application indicators. [`LinkState`] is the
//! PHY half: it tracks RSS with an EWMA, estimates the short-term trend,
//! and flags outages.

/// EWMA-tracked link quality for one station.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkState {
    /// Smoothed RSS (dBm); `None` until the first sample.
    ewma_rss: Option<f64>,
    /// Previous smoothed value (for the trend).
    prev_ewma: Option<f64>,
    /// EWMA weight of the newest sample.
    pub alpha: f64,
    /// Consecutive samples below the outage threshold.
    outage_run: usize,
    /// RSS below which a sample counts toward an outage (dBm).
    pub outage_threshold_dbm: f64,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            ewma_rss: None,
            prev_ewma: None,
            alpha: 0.3,
            outage_run: 0,
            // Below DMG MCS1 sensitivity: the link cannot carry data.
            outage_threshold_dbm: -68.0,
        }
    }
}

impl LinkState {
    /// A fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the tracker to its pristine state while keeping the tuned
    /// `alpha` / threshold knobs — the reuse idiom for pooled per-user
    /// trackers that are re-bound to a new link at an epoch boundary.
    pub fn reset(&mut self) {
        self.ewma_rss = None;
        self.prev_ewma = None;
        self.outage_run = 0;
    }

    /// Feeds one RSS sample (dBm).
    pub fn observe(&mut self, rss_dbm: f64) {
        self.prev_ewma = self.ewma_rss;
        self.ewma_rss = Some(match self.ewma_rss {
            None => rss_dbm,
            Some(prev) => prev * (1.0 - self.alpha) + rss_dbm * self.alpha,
        });
        if rss_dbm < self.outage_threshold_dbm {
            self.outage_run += 1;
        } else {
            self.outage_run = 0;
        }
    }

    /// Smoothed RSS; `None` before the first sample.
    pub fn rss_dbm(&self) -> Option<f64> {
        self.ewma_rss
    }

    /// Short-term RSS trend in dB per sample (positive = improving).
    pub fn trend_db(&self) -> f64 {
        match (self.prev_ewma, self.ewma_rss) {
            (Some(p), Some(c)) => c - p,
            _ => 0.0,
        }
    }

    /// `true` after `k` consecutive below-threshold samples.
    pub fn in_outage(&self, k: usize) -> bool {
        self.outage_run >= k.max(1)
    }

    /// Predicts RSS `horizon` samples ahead by linear extrapolation of the
    /// EWMA trend, floored to physical plausibility.
    pub fn predicted_rss_dbm(&self, horizon: usize) -> Option<f64> {
        self.ewma_rss
            .map(|r| (r + self.trend_db() * horizon as f64).clamp(-100.0, -20.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut l = LinkState::new();
        assert_eq!(l.rss_dbm(), None);
        l.observe(-55.0);
        assert_eq!(l.rss_dbm(), Some(-55.0));
        assert_eq!(l.trend_db(), 0.0);
    }

    #[test]
    fn reset_restores_pristine_tracking_but_keeps_knobs() {
        let mut l = LinkState {
            alpha: 0.5,
            outage_threshold_dbm: -60.0,
            ..LinkState::new()
        };
        l.observe(-70.0);
        l.observe(-72.0);
        assert!(l.in_outage(2));
        l.reset();
        assert_eq!(l.rss_dbm(), None);
        assert_eq!(l.trend_db(), 0.0);
        assert!(!l.in_outage(1));
        assert_eq!(l.alpha, 0.5);
        assert_eq!(l.outage_threshold_dbm, -60.0);
    }

    #[test]
    fn ewma_smooths_jumps() {
        let mut l = LinkState::new();
        l.observe(-55.0);
        l.observe(-65.0);
        let r = l.rss_dbm().unwrap();
        assert!(r > -65.0 && r < -55.0, "{r}");
        // alpha = 0.3 -> -58.
        assert!((r + 58.0).abs() < 1e-9);
    }

    #[test]
    fn trend_tracks_direction() {
        let mut l = LinkState::new();
        for rss in [-60.0, -59.0, -58.0, -57.0] {
            l.observe(rss);
        }
        assert!(l.trend_db() > 0.0);
        let mut d = LinkState::new();
        for rss in [-55.0, -58.0, -61.0] {
            d.observe(rss);
        }
        assert!(d.trend_db() < 0.0);
    }

    #[test]
    fn outage_detection_needs_consecutive_samples() {
        let mut l = LinkState::new();
        l.observe(-70.0);
        assert!(!l.in_outage(2));
        l.observe(-72.0);
        assert!(l.in_outage(2));
        l.observe(-60.0); // recovery resets the run
        assert!(!l.in_outage(1));
    }

    #[test]
    fn prediction_extrapolates_trend() {
        let mut l = LinkState::new();
        for rss in [-60.0, -62.0, -64.0] {
            l.observe(rss);
        }
        let now = l.rss_dbm().unwrap();
        let future = l.predicted_rss_dbm(5).unwrap();
        assert!(future < now, "worsening trend must predict lower RSS");
        // Clamped to plausibility.
        let mut deep = LinkState::new();
        deep.observe(-99.0);
        deep.observe(-99.5);
        assert!(deep.predicted_rss_dbm(100).unwrap() >= -100.0);
    }

    #[test]
    fn prediction_none_before_samples() {
        assert_eq!(LinkState::new().predicted_rss_dbm(3), None);
    }

    #[test]
    fn zero_samples_is_fully_quiescent() {
        let l = LinkState::new();
        assert_eq!(l.rss_dbm(), None);
        assert_eq!(l.trend_db(), 0.0);
        // No samples -> no outage, whatever the window (including the
        // degenerate k = 0, which in_outage clamps to 1).
        assert!(!l.in_outage(0));
        assert!(!l.in_outage(1));
        assert!(!l.in_outage(100));
        assert_eq!(l.predicted_rss_dbm(0), None);
    }

    #[test]
    fn single_sample_has_flat_trend_and_flat_prediction() {
        let mut l = LinkState::new();
        l.observe(-50.0);
        // One sample cannot define a trend; prediction at any horizon is
        // the sample itself.
        assert_eq!(l.trend_db(), 0.0);
        assert_eq!(l.predicted_rss_dbm(0), Some(-50.0));
        assert_eq!(l.predicted_rss_dbm(50), Some(-50.0));
        // A single below-threshold sample: outage with window 1 (and the
        // clamped window 0), not with larger windows.
        let mut deep = LinkState::new();
        deep.observe(-90.0);
        assert!(deep.in_outage(1));
        assert!(deep.in_outage(0));
        assert!(!deep.in_outage(2));
    }

    #[test]
    fn monotone_trend_saturates_at_the_clamp() {
        // A relentless downward trend extrapolates through the floor; the
        // prediction must saturate at -100 dBm, not run off to -inf.
        let mut down = LinkState::new();
        for i in 0..20 {
            down.observe(-60.0 - 2.0 * i as f64);
        }
        assert!(down.trend_db() < 0.0);
        assert_eq!(down.predicted_rss_dbm(1_000), Some(-100.0));
        // And symmetrically upward: saturates at -20 dBm.
        let mut up = LinkState::new();
        for i in 0..20 {
            up.observe(-80.0 + 2.0 * i as f64);
        }
        assert!(up.trend_db() > 0.0);
        assert_eq!(up.predicted_rss_dbm(1_000), Some(-20.0));
        // The clamp applies to the prediction only, never the tracker.
        assert!(down.rss_dbm().unwrap() < -60.0);
    }
}
