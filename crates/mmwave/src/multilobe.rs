//! Customized multi-lobe beam synthesis (§4.2 of the paper).
//!
//! Default single-lobe sectors cannot give high RSS to two spread-out
//! multicast members at once. The paper's design: combine the antenna
//! weight vectors of the individual users' beams, weighting each by the
//! *other* user's RSS so the weaker user gets the larger share of transmit
//! power, under a total-power constraint:
//!
//! ```text
//! w = (Δ2·w1 + Δ1·w2) / (Δ1 + Δ2)        (then power-normalized)
//! ```
//!
//! Only RSS values are needed — not full CSI — because the users have
//! independent receive chains (paper §4.2). The k-user generalization
//! weights each user's beam by the inverse of their RSS share.

use crate::array::AntennaWeights;
use crate::channel::{Blocker, Channel};
use crate::codebook::Codebook;
use crate::sweep::{BeamDesign, SweepEngine, SweepRx};
use volcast_geom::Vec3;

/// The paper's two-user combination: `w = (Δ2·w1 + Δ1·w2)/(Δ1+Δ2)`,
/// normalized to unit transmit power. `rss1`/`rss2` are linear powers
/// (milliwatts), not dB.
pub fn combine_weights(
    w1: &AntennaWeights,
    rss1_mw: f64,
    w2: &AntennaWeights,
    rss2_mw: f64,
) -> AntennaWeights {
    combine_weights_multi(&[(w1.clone(), rss1_mw), (w2.clone(), rss2_mw)])
}

/// k-user generalization: coefficient of user i's beam is proportional to
/// `1/Δ_i` (weaker users get more power), normalized to unit total power.
///
/// For k = 2 this reduces exactly to the paper's formula up to the common
/// scale removed by normalization:
/// `c1 : c2 = 1/Δ1 : 1/Δ2 = Δ2 : Δ1`.
pub fn combine_weights_multi(beams: &[(AntennaWeights, f64)]) -> AntennaWeights {
    assert!(!beams.is_empty(), "need at least one beam");
    let n = beams[0].0.len();
    let mut acc = AntennaWeights {
        w: vec![volcast_geom::Complex::ZERO; n],
    };
    for (w, rss_mw) in beams {
        assert_eq!(w.len(), n, "mismatched element counts");
        let coeff = 1.0 / rss_mw.max(1e-15);
        for (a, b) in acc.w.iter_mut().zip(&w.w) {
            *a += b.scale(coeff);
        }
    }
    acc.normalized()
}

/// Designs the transmit beam for a multicast group: either the best common
/// default sector, or a customized multi-lobe beam — whichever provides the
/// higher common (minimum) RSS. The paper notes that when all users already
/// share a strong default sector, the default beam should be used directly.
///
/// This is the allocating convenience front of [`SweepEngine`]: every call
/// prepares its members from scratch and returns owned results. Callers
/// that design many groups over the same receivers (the session's frame
/// loop, the campus) hold [`SweepRx`] slots and call the engine directly.
///
/// ```
/// use volcast_mmwave::{Channel, Codebook, MultiLobeDesigner};
/// use volcast_geom::Vec3;
///
/// let channel = Channel::default_setup();
/// let codebook = Codebook::default_for(&channel.array);
/// let designer = MultiLobeDesigner::new(&channel, &codebook);
/// // Users on opposite sides of the room: no single sector covers both.
/// let beam = designer.design(
///     &[Vec3::new(-2.5, 1.5, 0.0), Vec3::new(2.5, 1.5, 0.0)], &[]);
/// assert!(beam.customized);
/// assert!(beam.common_rss_dbm() > -68.0); // multicast-capable
/// ```
#[derive(Debug, Clone)]
pub struct MultiLobeDesigner<'a> {
    engine: SweepEngine<'a>,
}

/// The outcome of a group beam design.
#[derive(Debug, Clone)]
pub struct GroupBeam {
    /// Weights to transmit with.
    pub weights: AntennaWeights,
    /// Per-member RSS (dBm) under those weights.
    pub member_rss_dbm: Vec<f64>,
    /// Whether the custom multi-lobe beam beat the default codebook.
    pub customized: bool,
}

impl GroupBeam {
    /// The group's common RSS: the minimum across members.
    pub fn common_rss_dbm(&self) -> f64 {
        self.member_rss_dbm
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

impl<'a> MultiLobeDesigner<'a> {
    /// Creates a designer over a channel and codebook.
    pub fn new(channel: &'a Channel, codebook: &'a Codebook) -> Self {
        MultiLobeDesigner {
            engine: SweepEngine::new(channel, codebook),
        }
    }

    /// Freshly prepared receivers for `members`, plus their index list.
    fn prepare(&self, members: &[Vec3], blockers: &[Blocker]) -> (Vec<SweepRx>, Vec<usize>) {
        let rxs = members
            .iter()
            .map(|&m| {
                let mut rx = SweepRx::new();
                rx.prepare(&self.engine, m, blockers);
                rx
            })
            .collect();
        (rxs, (0..members.len()).collect())
    }

    /// Best *default-codebook* sector for the group: maximizes the minimum
    /// member RSS. Returns (weights index, per-member RSS).
    pub fn best_common_sector(&self, members: &[Vec3], blockers: &[Blocker]) -> (usize, Vec<f64>) {
        let (mut rxs, idx) = self.prepare(members, blockers);
        let (mut tmp, mut rss) = (Vec::new(), Vec::new());
        let sector = self.engine.best_joint(&mut rxs, &idx, &mut tmp, &mut rss);
        (sector, rss)
    }

    /// Full group beam design: returns whichever of (best common default
    /// sector, customized multi-lobe beam) yields the higher common RSS,
    /// with its weights — the one design that builds them.
    pub fn design(&self, members: &[Vec3], blockers: &[Blocker]) -> GroupBeam {
        let (mut rxs, idx) = self.prepare(members, blockers);
        let mut design = BeamDesign::default();
        self.engine.design(&mut rxs, &idx, &mut design);
        GroupBeam {
            weights: if design.customized {
                let mut w = Vec::new();
                self.engine.combine_into(&design.terms, &mut w);
                AntennaWeights { w }
            } else {
                self.engine.codebook().sectors()[design.sector].clone()
            },
            member_rss_dbm: design.member_rss_dbm,
            customized: design.customized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::PlanarArray;
    use volcast_geom::{Complex, Spherical};

    fn setup() -> (Channel, Codebook) {
        let ch = Channel::default_setup();
        let cb = Codebook::default_for(&ch.array);
        (ch, cb)
    }

    #[test]
    fn combined_weights_have_unit_power() {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let w1 = array.beam_toward(Spherical::new(-0.5, 0.0));
        let w2 = array.beam_toward(Spherical::new(0.5, 0.0));
        let c = combine_weights(&w1, 1e-6, &w2, 2e-6);
        assert!((c.power() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_user_formula_matches_paper() {
        // Manual check: with Δ1 = 1, Δ2 = 3 the coefficients must be in
        // ratio Δ2 : Δ1 = 3 : 1 before normalization.
        let w1 = AntennaWeights {
            w: vec![Complex::new(1.0, 0.0), Complex::ZERO],
        };
        let w2 = AntennaWeights {
            w: vec![Complex::ZERO, Complex::new(1.0, 0.0)],
        };
        let c = combine_weights(&w1, 1.0, &w2, 3.0);
        let ratio = c.w[0].abs() / c.w[1].abs();
        assert!((ratio - 3.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn weaker_user_gets_more_power() {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let dir1 = Spherical::new(-0.6, 0.0);
        let dir2 = Spherical::new(0.6, 0.0);
        let w1 = array.beam_toward(dir1);
        let w2 = array.beam_toward(dir2);
        // User 1 is much weaker (RSS 10x lower).
        let c = combine_weights(&w1, 0.1e-6, &w2, 1e-6);
        let g1 = array.gain(&c, dir1);
        let g2 = array.gain(&c, dir2);
        assert!(
            g1 > g2,
            "weak user's lobe {g1} should exceed strong user's {g2}"
        );
    }

    #[test]
    fn two_lobes_beat_single_sector_for_spread_users() {
        let (ch, cb) = setup();
        // Users on opposite sides of the room: far apart in azimuth.
        let users = [Vec3::new(-2.5, 1.5, 0.0), Vec3::new(2.5, 1.5, 0.0)];
        let d = MultiLobeDesigner::new(&ch, &cb);
        let (_, default_rss) = d.best_common_sector(&users, &[]);
        let default_min = default_rss.iter().copied().fold(f64::INFINITY, f64::min);
        let beam = d.design(&users, &[]);
        assert!(beam.customized);
        let custom_min = beam.common_rss_dbm();
        assert!(
            custom_min > default_min + 3.0,
            "custom {custom_min} dBm vs default {default_min} dBm"
        );
    }

    #[test]
    fn design_prefers_default_for_colocated_users() {
        let (ch, cb) = setup();
        // Two users standing shoulder to shoulder: one sector covers both.
        let users = [Vec3::new(0.0, 1.5, 0.0), Vec3::new(0.25, 1.5, 0.0)];
        let d = MultiLobeDesigner::new(&ch, &cb);
        let beam = d.design(&users, &[]);
        // Common RSS must be strong either way; and for such users the
        // default sector is typically already optimal.
        assert!(beam.common_rss_dbm() > -60.0);
    }

    #[test]
    fn design_customizes_for_spread_users() {
        let (ch, cb) = setup();
        let users = [Vec3::new(-2.5, 1.5, 0.0), Vec3::new(2.5, 1.5, 0.0)];
        let d = MultiLobeDesigner::new(&ch, &cb);
        let beam = d.design(&users, &[]);
        assert!(
            beam.customized,
            "spread users should trigger the custom beam"
        );
        assert_eq!(beam.member_rss_dbm.len(), 2);
    }

    #[test]
    fn single_user_design_uses_codebook() {
        let (ch, cb) = setup();
        let d = MultiLobeDesigner::new(&ch, &cb);
        let beam = d.design(&[Vec3::new(1.0, 1.5, 0.0)], &[]);
        assert!(!beam.customized);
        assert_eq!(beam.member_rss_dbm.len(), 1);
    }

    #[test]
    fn design_never_worse_than_default() {
        let (ch, cb) = setup();
        let d = MultiLobeDesigner::new(&ch, &cb);
        for users in [
            vec![Vec3::new(-1.0, 1.5, 1.0), Vec3::new(2.0, 1.3, -2.0)],
            vec![
                Vec3::new(-2.0, 1.5, 0.0),
                Vec3::new(0.0, 1.5, -2.0),
                Vec3::new(2.0, 1.5, 0.0),
            ],
        ] {
            let (_, default_rss) = d.best_common_sector(&users, &[]);
            let default_min = default_rss.iter().copied().fold(f64::INFINITY, f64::min);
            let beam = d.design(&users, &[]);
            assert!(beam.common_rss_dbm() >= default_min - 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn empty_group_panics() {
        let (ch, cb) = setup();
        let d = MultiLobeDesigner::new(&ch, &cb);
        let _ = d.design(&[], &[]);
    }
}
