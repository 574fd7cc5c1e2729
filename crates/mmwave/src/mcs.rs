//! Modulation-and-coding-scheme tables: RSS -> PHY rate.
//!
//! Two tables are modeled:
//!
//! - **DMG (802.11ad single-carrier)**: MCS 1-12, PHY rates 385-4620 Mbps,
//!   receiver sensitivities per the standard's Table 21-3 (approximately).
//!   The paper's anchor: *"RSS of -68 dBm ... can provide approximately
//!   384 Mbps"* — exactly DMG MCS 1 (385 Mbps at -68 dBm sensitivity).
//! - **VHT (802.11ac, 80 MHz, 2 spatial streams)**: used by the 802.11ac
//!   baseline rows of Table 1.
//!
//! A multicast group's rate is the minimum MCS across members (the paper's
//! `r^m` constraint).

/// One MCS level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McsEntry {
    /// MCS index (per the respective standard).
    pub index: u8,
    /// PHY data rate in Mbps.
    pub phy_mbps: f64,
    /// Minimum RSS (dBm) required to sustain this MCS.
    pub min_rss_dbm: f64,
}

/// An ordered MCS table (ascending rate).
#[derive(Debug, Clone, PartialEq)]
pub struct McsTable {
    /// Entries sorted by ascending `phy_mbps`.
    pub entries: Vec<McsEntry>,
}

impl McsTable {
    /// The 802.11ad DMG table: control-PHY MCS 0 (27.5 Mbps, the always-
    /// decodable fallback that keeps deeply-faded links alive) plus the
    /// single-carrier MCS 1-12.
    pub fn dmg() -> McsTable {
        let raw: [(u8, f64, f64); 13] = [
            (0, 27.5, -78.0),
            (1, 385.0, -68.0),
            (2, 770.0, -66.0),
            (3, 962.5, -65.0),
            (4, 1155.0, -64.0),
            (5, 1251.25, -62.0),
            (6, 1540.0, -61.0),
            (7, 1925.0, -59.0),
            (8, 2310.0, -58.0),
            (9, 2502.5, -56.0),
            (10, 3080.0, -55.0),
            (11, 3850.0, -54.0),
            (12, 4620.0, -53.0),
        ];
        McsTable {
            entries: raw
                .iter()
                .map(|&(index, phy_mbps, min_rss_dbm)| McsEntry {
                    index,
                    phy_mbps,
                    min_rss_dbm,
                })
                .collect(),
        }
    }

    /// The 802.11ac VHT table at 80 MHz, 2 spatial streams, short guard
    /// interval (MCS 0-9), with typical receiver sensitivities. MCS9 at
    /// 866.7 Mbps PHY is the anchor behind the paper's 374 Mbps
    /// single-user TCP measurement.
    pub fn vht80_2ss() -> McsTable {
        let raw: [(u8, f64, f64); 10] = [
            (0, 65.0, -82.0),
            (1, 130.0, -79.0),
            (2, 195.0, -77.0),
            (3, 260.0, -74.0),
            (4, 390.0, -70.0),
            (5, 520.0, -66.0),
            (6, 585.0, -65.0),
            (7, 650.0, -64.0),
            (8, 780.0, -59.0),
            (9, 866.7, -57.0),
        ];
        McsTable {
            entries: raw
                .iter()
                .map(|&(index, phy_mbps, min_rss_dbm)| McsEntry {
                    index,
                    phy_mbps,
                    min_rss_dbm,
                })
                .collect(),
        }
    }

    /// Highest entry sustainable at `rss_dbm`; `None` when even the lowest
    /// MCS does not close (link outage).
    pub fn best_for_rss(&self, rss_dbm: f64) -> Option<McsEntry> {
        self.entries
            .iter()
            .rev()
            .find(|e| rss_dbm >= e.min_rss_dbm)
            .copied()
    }

    /// PHY rate at `rss_dbm` in Mbps (0 on outage).
    pub fn phy_rate_mbps(&self, rss_dbm: f64) -> f64 {
        self.best_for_rss(rss_dbm).map_or(0.0, |e| e.phy_mbps)
    }

    /// The multicast rate for a group: the PHY rate at the *lowest* member
    /// RSS (reliable multicast must be decodable by every member). An empty
    /// group yields 0.
    pub fn multicast_rate_mbps(&self, member_rss_dbm: &[f64]) -> f64 {
        match member_rss_dbm.iter().copied().reduce(f64::min) {
            Some(min_rss) => self.phy_rate_mbps(min_rss),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_minus68_gives_385() {
        let t = McsTable::dmg();
        let e = t.best_for_rss(-68.0).unwrap();
        assert_eq!(e.index, 1);
        assert_eq!(e.phy_mbps, 385.0);
        // Slightly below: only the control-PHY trickle remains.
        assert_eq!(t.best_for_rss(-68.5).unwrap().index, 0);
        assert_eq!(t.phy_rate_mbps(-70.0), 27.5);
        // Below even MCS 0: outage.
        assert!(t.best_for_rss(-80.0).is_none());
    }

    #[test]
    fn tables_are_monotone() {
        for t in [McsTable::dmg(), McsTable::vht80_2ss()] {
            for w in t.entries.windows(2) {
                assert!(w[0].phy_mbps < w[1].phy_mbps);
                assert!(w[0].min_rss_dbm <= w[1].min_rss_dbm);
            }
        }
    }

    #[test]
    fn stronger_rss_never_lowers_rate() {
        let t = McsTable::dmg();
        let mut prev = 0.0;
        let mut rss = -82.0;
        while rss < -40.0 {
            let r = t.phy_rate_mbps(rss);
            assert!(r >= prev, "rate dropped at {rss}");
            prev = r;
            rss += 0.25;
        }
        assert_eq!(prev, 4620.0);
    }

    #[test]
    fn multicast_rate_is_min_member() {
        let t = McsTable::dmg();
        // -55 alone: 3080; -62 alone: 1251.25; group: limited by -62.
        assert_eq!(t.phy_rate_mbps(-55.0), 3080.0);
        assert_eq!(t.multicast_rate_mbps(&[-55.0, -62.0]), 1251.25);
        // Any member in outage kills the multicast.
        assert_eq!(t.multicast_rate_mbps(&[-55.0, -85.0]), 0.0);
        // Degenerate: empty group (defensive: 0).
        assert_eq!(t.multicast_rate_mbps(&[]), 0.0);
    }

    #[test]
    fn vht_baseline_table() {
        let t = McsTable::vht80_2ss();
        assert_eq!(t.phy_rate_mbps(-50.0), 866.7);
        assert_eq!(t.phy_rate_mbps(-72.0), 260.0);
        assert_eq!(t.phy_rate_mbps(-90.0), 0.0);
    }
}
