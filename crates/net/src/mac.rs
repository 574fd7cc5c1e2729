//! Calibrated MAC airtime models for the two networks of Table 1.
//!
//! Both models turn PHY rates into goodput and airtime. Their constants are
//! fitted to the paper's measured per-user data-rate column (Table 1):
//!
//! - **802.11ad** (`AdMac`): service-period TDMA under a beacon interval.
//!   Anchors: 1 user ≈ 1270 Mbps TCP; 7 users ≈ 144 Mbps/user (aggregate
//!   ≈ 1008 Mbps). Efficiency loss per extra user models SP guard times,
//!   beam-tracking BRP frames, and per-STA scheduling overhead.
//! - **802.11ac** (`AcMac`): EDCA contention. Anchors: 1 user ≈ 374 Mbps;
//!   3 users ≈ 112 Mbps/user (aggregate ≈ 336 Mbps), the gentle aggregate
//!   decline coming from contention collisions.

/// Common MAC-model interface used by the streaming scheduler.
pub trait MacModel {
    /// Goodput (application-layer Mbps) of a single transmission running at
    /// `phy_mbps`, when `n_active` stations share the medium.
    fn goodput_mbps(&self, phy_mbps: f64, n_active: usize) -> f64;

    /// Airtime (seconds) to deliver `bytes` at `phy_mbps` with `n_active`
    /// stations sharing the medium.
    fn airtime_s(&self, bytes: f64, phy_mbps: f64, n_active: usize) -> f64 {
        self.airtime_from_goodput_s(bytes, self.goodput_mbps(phy_mbps, n_active))
    }

    /// The [`MacModel::airtime_s`] tail over an already-computed goodput,
    /// for callers that hoist `goodput_mbps` out of per-item loops —
    /// goodput depends only on `(phy_mbps, n_active)`, both invariant
    /// across a scheduling epoch. Bit-identical to `airtime_s` when fed
    /// `goodput_mbps(phy_mbps, n_active)`.
    fn airtime_from_goodput_s(&self, bytes: f64, goodput_mbps: f64) -> f64 {
        if goodput_mbps <= 0.0 {
            f64::INFINITY
        } else {
            bytes * 8.0 / (goodput_mbps * 1e6)
        }
    }

    /// Fair-share per-user rate: the aggregate goodput of `n` stations at
    /// `phy_mbps` each, split evenly.
    fn per_user_rate_mbps(&self, phy_mbps: f64, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.goodput_mbps(phy_mbps, n) / n as f64
        }
    }
}

/// 802.11ad DMG service-period MAC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdMac {
    /// PHY-to-MAC efficiency for a single flow (aggregation, ACKs, TCP).
    pub base_efficiency: f64,
    /// Fraction of the beacon interval consumed by the beacon header
    /// interval (BTI/A-BFT/ATI).
    pub bhi_fraction: f64,
    /// Extra overhead fraction per additional station (SP guards, beam
    /// tracking/BRP, scheduling).
    pub per_sta_overhead: f64,
}

impl Default for AdMac {
    fn default() -> Self {
        AdMac {
            base_efficiency: 0.55,
            bhi_fraction: 0.08,
            per_sta_overhead: 0.035,
        }
    }
}

impl MacModel for AdMac {
    fn goodput_mbps(&self, phy_mbps: f64, n_active: usize) -> f64 {
        if n_active == 0 {
            return 0.0;
        }
        let airtime_share =
            (1.0 - self.bhi_fraction - self.per_sta_overhead * (n_active as f64 - 1.0)).max(0.05);
        phy_mbps * self.base_efficiency * airtime_share
    }
}

/// 802.11ac EDCA contention MAC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcMac {
    /// PHY-to-MAC efficiency for a single flow.
    pub base_efficiency: f64,
    /// Aggregate-efficiency loss per additional contender (collisions,
    /// backoff).
    pub contention_overhead: f64,
}

impl Default for AcMac {
    fn default() -> Self {
        AcMac {
            base_efficiency: 0.431,
            contention_overhead: 0.05,
        }
    }
}

impl MacModel for AcMac {
    fn goodput_mbps(&self, phy_mbps: f64, n_active: usize) -> f64 {
        if n_active == 0 {
            return 0.0;
        }
        let share = (1.0 - self.contention_overhead * (n_active as f64 - 1.0)).max(0.05);
        phy_mbps * self.base_efficiency * share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's measured per-user rates (Table 1, "Per user data rate").
    const PAPER_AD: [(usize, f64); 7] = [
        (1, 1270.0),
        (2, 575.0),
        (3, 382.0),
        (4, 298.0),
        (5, 231.0),
        (6, 175.0),
        (7, 144.0),
    ];
    const PAPER_AC: [(usize, f64); 3] = [(1, 374.0), (2, 180.0), (3, 112.0)];

    #[test]
    fn ad_calibration_tracks_table1() {
        // All users near the room center run at DMG MCS 9 (2502.5 Mbps).
        let mac = AdMac::default();
        let phy = 2502.5;
        for (n, paper) in PAPER_AD {
            let ours = mac.per_user_rate_mbps(phy, n);
            let err = (ours - paper).abs() / paper;
            assert!(
                err < 0.12,
                "ad {n} users: model {ours:.0} vs paper {paper} ({:.0}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn ac_calibration_tracks_table1() {
        // VHT80 2SS MCS9 = 866.7 Mbps PHY.
        let mac = AcMac::default();
        let phy = 866.7;
        for (n, paper) in PAPER_AC {
            let ours = mac.per_user_rate_mbps(phy, n);
            let err = (ours - paper).abs() / paper;
            assert!(
                err < 0.12,
                "ac {n} users: model {ours:.0} vs paper {paper} ({:.0}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn goodput_monotone_in_phy_rate() {
        let mac = AdMac::default();
        assert!(mac.goodput_mbps(4620.0, 3) > mac.goodput_mbps(2502.5, 3));
        let ac = AcMac::default();
        assert!(ac.goodput_mbps(866.7, 2) > ac.goodput_mbps(433.3, 2));
    }

    #[test]
    fn aggregate_declines_with_users() {
        let mac = AdMac::default();
        let phy = 2502.5;
        let mut prev = f64::INFINITY;
        for n in 1..=8 {
            let agg = mac.goodput_mbps(phy, n);
            assert!(agg < prev, "aggregate should decline at n={n}");
            prev = agg;
        }
    }

    #[test]
    fn airtime_matches_goodput() {
        let mac = AdMac::default();
        let bytes = 1_000_000.0; // 1 MB
        let t = mac.airtime_s(bytes, 2502.5, 1);
        let rate = mac.goodput_mbps(2502.5, 1);
        assert!((t - bytes * 8.0 / (rate * 1e6)).abs() < 1e-12);
        // Outage -> infinite airtime.
        assert!(mac.airtime_s(bytes, 0.0, 1).is_infinite());
    }

    #[test]
    fn zero_users_zero_goodput() {
        assert_eq!(AdMac::default().goodput_mbps(2502.5, 0), 0.0);
        assert_eq!(AcMac::default().goodput_mbps(866.7, 0), 0.0);
        assert_eq!(AdMac::default().per_user_rate_mbps(2502.5, 0), 0.0);
        assert_eq!(AcMac::default().per_user_rate_mbps(866.7, 0), 0.0);
    }

    #[test]
    fn overhead_floor_prevents_negative_capacity() {
        let mac = AdMac::default();
        // Absurd user count: capacity floors at 5% airtime, stays positive.
        assert!(mac.goodput_mbps(2502.5, 100) > 0.0);
    }
}
