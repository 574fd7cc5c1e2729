//! Calibration constants, each documented against its paper anchor.
//!
//! The absolute numbers of a simulated channel are only meaningful relative
//! to a calibration; these constants are fitted once so that the simulated
//! distributions land in the ranges the paper measured, and never touched
//! by individual experiments.

/// Carrier frequency (Hz): 60 GHz, 802.11ad channel 2-ish.
pub const CARRIER_HZ: f64 = 60.48e9;

/// Carrier wavelength in meters.
pub const WAVELENGTH_M: f64 = 299_792_458.0 / CARRIER_HZ;

/// Transmit power in dBm (conducted, before array gain). Commercial
/// 802.11ad APs are EIRP-limited; with the 8x4 array's ~15 dB gain this
/// stays within the 40 dBm EIRP regulatory cap.
pub const TX_POWER_DBM: f64 = 10.0;

/// Fitted implementation-loss offset (dB) folded into every link budget:
/// cable/feed losses, polarization mismatch, imperfect element patterns.
///
/// Anchor: with the default room and 8x4 array, a dedicated beam to a user
/// at the room center measures about -58 dBm, and single users anywhere in
/// the walkable area stay above -68 dBm for ~96% of positions (Fig. 3b's
/// single-user curve).
pub const IMPLEMENTATION_LOSS_DB: f64 = 3.0;

/// Receiver antenna gain (dBi). Clients use a quasi-omni receive pattern
/// during data reception in our model.
pub const RX_GAIN_DBI: f64 = 0.0;

/// Oxygen absorption at 60 GHz, dB per meter (~16 dB/km).
pub const O2_ABSORPTION_DB_PER_M: f64 = 0.016;

/// Extra loss for one wall/ceiling reflection (dB). Indoor 60 GHz
/// first-order reflections typically arrive 8-15 dB below LoS.
pub const REFLECTION_LOSS_DB: f64 = 10.0;

/// Human-body blockage attenuation (dB). Measurements at 60 GHz report
/// 20-35 dB through-torso loss; blockage rarely zeroes the link because
/// reflected paths survive (paper §5: "blockage does not always cause link
/// outage") — with this fade the surviving wall reflections dominate a
/// blocked link's budget.
pub const BODY_BLOCKAGE_DB: f64 = 30.0;

/// Converts dBm to milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts milliwatts to dBm. Returns `f64::NEG_INFINITY` for 0.
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    if mw <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * mw.log10()
    }
}

/// Free-space path loss in dB at distance `d` meters for [`CARRIER_HZ`].
pub fn fspl_db(d: f64) -> f64 {
    let d = d.max(0.01);
    20.0 * d.log10() + 20.0 * CARRIER_HZ.log10() - 147.55
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_is_5mm_ish() {
        assert!((WAVELENGTH_M - 0.004958).abs() < 1e-4, "{WAVELENGTH_M}");
    }

    #[test]
    fn fspl_reference_points() {
        // Standard result: ~68 dB at 1 m, 60 GHz.
        assert!((fspl_db(1.0) - 68.0).abs() < 0.5, "{}", fspl_db(1.0));
        // +6 dB per doubling.
        assert!((fspl_db(2.0) - fspl_db(1.0) - 6.02).abs() < 0.01);
        // Guard against d = 0.
        assert!(fspl_db(0.0).is_finite());
    }

    #[test]
    fn dbm_conversions() {
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(10.0) - 10.0).abs() < 1e-9);
        assert!((mw_to_dbm(1.0) - 0.0).abs() < 1e-12);
        assert!((mw_to_dbm(dbm_to_mw(-57.3)) + 57.3).abs() < 1e-9);
        assert_eq!(mw_to_dbm(0.0), f64::NEG_INFINITY);
    }
}
