//! 5 GHz (802.11ac) channel model for the baseline network of Table 1.
//!
//! Unlike the 60 GHz substrate, 5 GHz links are quasi-omnidirectional and
//! penetrate bodies with only a few dB of loss, so the model is a classic
//! log-distance path loss with a small body-shadowing term — no beams, no
//! codebooks. Multicast over 802.11ac is famously unattractive: without
//! GCR, group-addressed frames go out at a fixed legacy basic rate, which
//! is why the paper's multicast design targets mmWave in the first place.

/// Log-distance path-loss channel at 5 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wifi5Channel {
    /// Transmit power + antenna gains, dBm.
    pub tx_power_dbm: f64,
    /// Path loss at the 1 m reference distance, dB (FSPL at 5.25 GHz ≈ 47).
    pub ref_loss_db: f64,
    /// Path-loss exponent (indoor LoS-ish: 2.2-3.0).
    pub exponent: f64,
    /// Extra loss when a human body shadows the link, dB (5 GHz bodies are
    /// nearly transparent compared to 60 GHz).
    pub body_shadow_db: f64,
    /// Legacy basic rate used for group-addressed (multicast) frames, Mbps.
    pub multicast_basic_rate_mbps: f64,
}

impl Default for Wifi5Channel {
    /// Calibrated so room-scale links run at VHT80 2SS MCS9 (the 866.7 Mbps
    /// PHY anchor behind the paper's 374 Mbps single-user TCP measurement).
    fn default() -> Self {
        Wifi5Channel {
            tx_power_dbm: 20.0,
            ref_loss_db: 47.0,
            exponent: 2.6,
            body_shadow_db: 4.0,
            multicast_basic_rate_mbps: 24.0,
        }
    }
}

impl Wifi5Channel {
    /// RSS (dBm) at `distance_m`, with `bodies_in_path` humans shadowing.
    pub fn rss_dbm(&self, distance_m: f64, bodies_in_path: usize) -> f64 {
        let d = distance_m.max(0.5);
        self.tx_power_dbm
            - self.ref_loss_db
            - 10.0 * self.exponent * d.log10()
            - self.body_shadow_db * bodies_in_path as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::AcMac;
    use crate::mac::MacModel;

    #[test]
    fn room_scale_links_reach_top_mcs() {
        // VHT80 2SS MCS9 needs about -57 dBm (see volcast-mmwave's table).
        let ch = Wifi5Channel::default();
        for d in [2.0, 4.0, 6.0, 8.0] {
            let rss = ch.rss_dbm(d, 0);
            assert!(rss > -57.0, "RSS {rss} at {d} m below MCS9 sensitivity");
        }
    }

    #[test]
    fn rss_decreases_with_distance_and_bodies() {
        let ch = Wifi5Channel::default();
        assert!(ch.rss_dbm(2.0, 0) > ch.rss_dbm(6.0, 0));
        assert!(ch.rss_dbm(4.0, 0) > ch.rss_dbm(4.0, 2));
        // Two bodies cost 8 dB, not a 60 GHz-style outage.
        assert!(ch.rss_dbm(4.0, 0) - ch.rss_dbm(4.0, 2) < 10.0);
    }

    #[test]
    fn min_distance_clamp() {
        let ch = Wifi5Channel::default();
        assert_eq!(ch.rss_dbm(0.0, 0), ch.rss_dbm(0.5, 0));
    }

    #[test]
    fn calibration_single_user_throughput() {
        // MCS9 PHY 866.7 through the AcMac: ~374 Mbps (paper anchor).
        let mac = AcMac::default();
        let tput = mac.goodput_mbps(866.7, 1);
        assert!((tput - 374.0).abs() < 5.0, "{tput}");
    }

    #[test]
    fn multicast_basic_rate_is_legacy_slow() {
        let ch = Wifi5Channel::default();
        assert!(ch.multicast_basic_rate_mbps < 60.0);
    }
}
