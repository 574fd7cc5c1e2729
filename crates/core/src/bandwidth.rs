//! Cross-layer bandwidth prediction (§4.3).
//!
//! Pure application-layer estimators (throughput EWMA, buffer occupancy)
//! react *after* the mmWave link has already collapsed; pure PHY
//! estimators miss MAC/contention effects. The paper's proposal blends
//! both: PHY-layer indicators (RSS trend, forecast blockage) *scale* the
//! application-layer throughput history, so a predicted blockage cuts the
//! estimate before the first late frame.

use volcast_net::LinkState;

/// Application + PHY inputs for one user's prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossLayerInputs {
    /// Most recent measured application throughput (Mbps).
    pub measured_throughput_mbps: f64,
    /// Client buffer level in frames.
    pub buffer_frames: f64,
    /// Whether a blockage of this user's link is forecast within the
    /// prediction horizon.
    pub blockage_forecast: bool,
    /// PHY rate (Mbps) the link's *predicted* RSS supports.
    pub predicted_phy_rate_mbps: f64,
    /// PHY rate (Mbps) the link's *current* RSS supports.
    pub current_phy_rate_mbps: f64,
}

/// Per-user cross-layer bandwidth predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthPredictor {
    /// EWMA weight of the newest throughput sample.
    pub alpha: f64,
    /// Multiplicative discount applied when a blockage is forecast
    /// (residual capacity through reflections; cf. 20-30 dB body loss
    /// leaving reflected paths).
    pub blockage_discount: f64,
    /// Smoothed application-layer throughput (Mbps).
    ewma_mbps: Option<f64>,
    /// The PHY tracker (RSS EWMA + trend).
    pub link: LinkState,
}

impl Default for BandwidthPredictor {
    fn default() -> Self {
        BandwidthPredictor {
            alpha: 0.25,
            blockage_discount: 0.35,
            ewma_mbps: None,
            link: LinkState::new(),
        }
    }
}

impl BandwidthPredictor {
    /// A fresh predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one application-layer throughput sample (Mbps) and the
    /// concurrent PHY RSS sample (dBm).
    pub fn observe(&mut self, throughput_mbps: f64, rss_dbm: f64) {
        self.ewma_mbps = Some(match self.ewma_mbps {
            None => throughput_mbps,
            Some(prev) => prev * (1.0 - self.alpha) + throughput_mbps * self.alpha,
        });
        self.link.observe(rss_dbm);
    }

    /// Cross-layer bandwidth prediction (Mbps).
    ///
    /// Base: the application-layer EWMA (or, cold-start, the current PHY
    /// rate). PHY correction: scale by the ratio of predicted to current
    /// PHY rate (captures an RSS trend the app layer hasn't felt yet).
    /// Blockage correction: multiply by `blockage_discount` when a body is
    /// forecast to cross the link.
    pub fn predict_mbps(&self, inputs: &CrossLayerInputs) -> f64 {
        let base = self.ewma_mbps.unwrap_or(inputs.current_phy_rate_mbps * 0.5);
        let phy_scale = if inputs.current_phy_rate_mbps > 0.0 {
            (inputs.predicted_phy_rate_mbps / inputs.current_phy_rate_mbps).clamp(0.1, 2.0)
        } else if inputs.predicted_phy_rate_mbps > 0.0 {
            // Link recovering from outage: trust the PHY prediction.
            return inputs.predicted_phy_rate_mbps * 0.5;
        } else {
            0.0
        };
        let blockage_scale = if inputs.blockage_forecast {
            self.blockage_discount
        } else {
            1.0
        };
        (base * phy_scale * blockage_scale).max(0.0)
    }

    /// Application-layer-only baseline prediction (throughput EWMA), for
    /// the cross-layer ablation.
    pub fn predict_app_only_mbps(&self, inputs: &CrossLayerInputs) -> f64 {
        self.ewma_mbps.unwrap_or(inputs.current_phy_rate_mbps * 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(current: f64, predicted: f64, blockage: bool) -> CrossLayerInputs {
        CrossLayerInputs {
            measured_throughput_mbps: 0.0,
            buffer_frames: 5.0,
            blockage_forecast: blockage,
            predicted_phy_rate_mbps: predicted,
            current_phy_rate_mbps: current,
        }
    }

    fn warmed() -> BandwidthPredictor {
        let mut p = BandwidthPredictor::new();
        for _ in 0..20 {
            p.observe(1000.0, -55.0);
        }
        p
    }

    #[test]
    fn cold_start_uses_phy_rate() {
        let p = BandwidthPredictor::new();
        let est = p.predict_mbps(&inputs(2000.0, 2000.0, false));
        assert!((est - 1000.0).abs() < 1e-9); // half the PHY rate
    }

    #[test]
    fn steady_state_tracks_app_throughput() {
        let p = warmed();
        let est = p.predict_mbps(&inputs(2502.5, 2502.5, false));
        assert!((est - 1000.0).abs() < 1.0);
    }

    #[test]
    fn phy_degradation_cuts_estimate_before_app_layer_notices() {
        let p = warmed();
        // RSS trend says the PHY rate will halve.
        let est = p.predict_mbps(&inputs(2502.5, 1251.25, false));
        assert!((est - 500.0).abs() < 1.0, "{est}");
        // App-only baseline is oblivious.
        let naive = p.predict_app_only_mbps(&inputs(2502.5, 1251.25, false));
        assert!((naive - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn blockage_forecast_discounts() {
        let p = warmed();
        let clear = p.predict_mbps(&inputs(2502.5, 2502.5, false));
        let blocked = p.predict_mbps(&inputs(2502.5, 2502.5, true));
        assert!((blocked - clear * 0.35).abs() < 1e-6);
    }

    #[test]
    fn outage_with_recovery_prediction() {
        let p = warmed();
        // Current rate 0 (outage) but prediction says the link comes back.
        let est = p.predict_mbps(&inputs(0.0, 385.0, false));
        assert!((est - 192.5).abs() < 1e-9);
        // Total outage with no recovery: 0.
        assert_eq!(p.predict_mbps(&inputs(0.0, 0.0, false)), 0.0);
    }

    #[test]
    fn phy_scale_is_clamped() {
        let p = warmed();
        // Prediction 100x current must not produce a 100x estimate.
        let est = p.predict_mbps(&inputs(100.0, 10_000.0, false));
        assert!(est <= 2000.0 + 1e-9);
        // Collapse clamps at 10%.
        let est = p.predict_mbps(&inputs(1000.0, 1.0, false));
        assert!((est - 100.0).abs() < 1e-6);
    }

    #[test]
    fn ewma_adapts() {
        let mut p = warmed();
        for _ in 0..40 {
            p.observe(200.0, -60.0);
        }
        let est = p.predict_mbps(&inputs(2502.5, 2502.5, false));
        assert!(est < 250.0, "{est}");
    }
}
