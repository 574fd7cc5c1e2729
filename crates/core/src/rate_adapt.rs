//! Multi-user video rate adaptation (§4.3) and the unified delivery
//! policy.
//!
//! Three ABR policies are implemented; the cross-layer one is the paper's:
//!
//! - [`AbrPolicy::BufferOnly`]: BBA-style — quality from buffer occupancy
//!   alone (the classic client-side baseline),
//! - [`AbrPolicy::ThroughputOnly`]: quality from the throughput EWMA,
//! - [`AbrPolicy::CrossLayer`]: quality from the cross-layer bandwidth
//!   prediction. The paper's *reactions* to a forecast dip (prefetch,
//!   proactive beam switch, regroup) are realised where they act:
//!   [`crate::BlockageMitigator`] and the session's outage severing.
//!
//! Callers do not sequence ABR choice, distress clamping, and FEC rungs by
//! hand: [`RateAdapter::plan_delivery`] folds all three into one
//! [`DeliveryDecision`] — the quality level the user receives, and the
//! proactive XOR-parity [`FecRung`] the degradation ladder selects from the
//! user's distress level *before* falling back to budgeted retransmits. A
//! layered receiver's layers at that level are the ladder's
//! ([`Ladder::enhancement_layers`]), not the decision's.

use crate::bandwidth::{BandwidthPredictor, CrossLayerInputs};
use volcast_pointcloud::{Ladder, QualityLevel};

/// Which adaptation policy a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbrPolicy {
    /// Buffer-occupancy thresholds only.
    BufferOnly,
    /// Throughput-EWMA only.
    ThroughputOnly,
    /// The paper's cross-layer scheme.
    CrossLayer,
}

/// One user's standing in the delivery group when a frame is planned — the
/// inputs [`RateAdapter::plan_delivery`] folds into a decision.
#[derive(Debug, Clone, Copy)]
pub struct GroupState<'a> {
    /// The user being planned for.
    pub user: usize,
    /// Cross-layer observations for this user.
    pub inputs: &'a CrossLayerInputs,
    /// Fraction of network time this user's content can use (e.g. `1/n`
    /// under fair unicast, more under multicast savings).
    pub share: f64,
    /// Fraction of the full frame the user actually fetches after
    /// visibility culling.
    pub needed_fraction: f64,
    /// Whether the session delivers layered (progressive) frames: base
    /// layer multicast to the whole group, enhancements unicast per user.
    /// The ABR then prices a level at the layers held for it.
    pub layered: bool,
    /// Pinned quality (sessions running with `fixed_quality`): skips the
    /// ABR policy but still passes through distress clamping.
    pub fixed: Option<QualityLevel>,
}

/// A user's accumulated fault pressure (consecutive faulted frames tracked
/// by the session — outages, losses, stalls), driving the degradation
/// ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Distress {
    /// The distress level; 0 = fault-free.
    pub level: u32,
}

/// Where [`Distress::raise`] saturates: past it the ladder has no further
/// rung to engage, and a recovered link relaxes back to calm in six frames.
const DISTRESS_CAP: u32 = 6;

impl Distress {
    /// A fault-free user.
    pub fn calm() -> Distress {
        Distress { level: 0 }
    }

    /// Wraps a session-tracked distress level.
    pub fn new(level: u32) -> Distress {
        Distress { level }
    }

    /// A fault cost this user something: `steps` is 2 for a hard hit (an
    /// outage, an unrepaired loss, a stall) and 1 for one the FEC rung
    /// absorbed. Saturates at 6.
    pub fn raise(&mut self, steps: u32) {
        self.level = (self.level + steps).min(DISTRESS_CAP);
    }

    /// A clean frame: the link earns back one level, down to calm.
    pub fn relax(&mut self) {
        self.level = self.level.saturating_sub(1);
    }
}

/// Proactive XOR-parity FEC overhead rung (see `volcast_net::fec`): how
/// much parity rides with a distressed user's payload so single chunk
/// erasures repair locally instead of consuming retransmit airtime. Rungs
/// order by overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FecRung {
    /// No parity: the link is clean.
    Off,
    /// One parity chunk per 4 payload chunks (25% overhead).
    Quarter,
    /// One parity chunk per 2 payload chunks (50% overhead).
    Half,
}

impl FecRung {
    /// Parity bytes as a fraction of payload bytes.
    pub fn overhead(&self) -> f64 {
        match self {
            FecRung::Off => 0.0,
            FecRung::Quarter => 0.25,
            FecRung::Half => 0.5,
        }
    }
}

/// The unified per-user delivery decision: what quality to deliver and how
/// much proactive parity to spend.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryDecision {
    /// The level the user receives when everything planned arrives, after
    /// distress clamping: a single stream at this level, or the base plus
    /// this level's [`Ladder::enhancement_layers`].
    pub quality: QualityLevel,
    /// Proactive-FEC rung for this user's bursts.
    pub fec: FecRung,
    /// The ABR target *before* distress clamping — callers compare it with
    /// `quality` to count degradation clamps.
    pub target_quality: QualityLevel,
}

/// The rate adapter: one instance per session, holding per-user predictors.
#[derive(Debug, Clone)]
pub struct RateAdapter {
    /// Active policy.
    pub policy: AbrPolicy,
    /// The canonical quality ladder decisions are made against.
    pub ladder: Ladder,
    /// Per-user cross-layer predictors.
    pub predictors: Vec<BandwidthPredictor>,
    /// Safety margin: use only this fraction of predicted bandwidth.
    pub safety: f64,
    /// Buffer level (frames) below which BufferOnly drops to Low.
    pub buffer_low: f64,
    /// Buffer level above which BufferOnly dares High.
    pub buffer_high: f64,
}

impl RateAdapter {
    /// Creates an adapter for `users` users.
    pub fn new(policy: AbrPolicy, users: usize) -> Self {
        RateAdapter {
            policy,
            ladder: Ladder::paper(),
            predictors: (0..users).map(|_| BandwidthPredictor::new()).collect(),
            safety: 0.85,
            buffer_low: 3.0,
            buffer_high: 7.0,
        }
    }

    /// Feeds one user's measurements after a frame.
    pub fn observe(&mut self, user: usize, throughput_mbps: f64, rss_dbm: f64) {
        self.predictors[user].observe(throughput_mbps, rss_dbm);
    }

    /// Plans one user's delivery for the next frame: folds the ABR policy
    /// (or the session's pinned quality), the distress-driven degradation
    /// clamp, and the proactive-FEC rung into one [`DeliveryDecision`].
    ///
    /// Single-stream (`layered: false`) decisions never spend parity.
    /// Layered ones engage it as soon as the user shows distress — one rung
    /// *before* the ladder's budgeted-retransmit step, so single erasures
    /// stop costing retransmit airtime.
    pub fn plan_delivery(&self, group: &GroupState<'_>, distress: &Distress) -> DeliveryDecision {
        let target = group.fixed.unwrap_or_else(|| self.target_quality(group));
        let fec = match (group.layered, distress.level) {
            (false, _) | (true, 0) => FecRung::Off,
            (true, 1..=3) => FecRung::Quarter,
            (true, _) => FecRung::Half,
        };
        DeliveryDecision {
            quality: self.degrade(target, distress.level),
            fec,
            target_quality: target,
        }
    }

    /// The ABR rung: picks the target quality for one user.
    fn target_quality(&self, group: &GroupState<'_>) -> QualityLevel {
        let GroupState {
            user,
            inputs,
            share,
            needed_fraction,
            layered,
            ..
        } = *group;
        let predictor = &self.predictors[user];
        match self.policy {
            AbrPolicy::BufferOnly => {
                if inputs.buffer_frames < self.buffer_low {
                    QualityLevel::Low
                } else if inputs.buffer_frames >= self.buffer_high {
                    QualityLevel::High
                } else {
                    QualityLevel::Medium
                }
            }
            AbrPolicy::ThroughputOnly => {
                let budget = predictor.predict_app_only_mbps(inputs) * self.safety * share
                    / needed_fraction.max(0.05);
                self.ladder
                    .best_within(budget, layered)
                    .unwrap_or(QualityLevel::Low)
            }
            AbrPolicy::CrossLayer => {
                let budget = predictor.predict_mbps(inputs) * self.safety * share
                    / needed_fraction.max(0.05);
                self.ladder
                    .best_within(budget, layered)
                    .unwrap_or(QualityLevel::Low)
            }
        }
    }

    /// The graceful-degradation rung of the ladder: clamps a decided
    /// quality by the user's *distress* level. Light distress steps one
    /// level down; sustained distress pins the bottom of the ladder until
    /// the link proves itself again. Zero distress is the identity, so
    /// fault-free sessions are untouched.
    fn degrade(&self, quality: QualityLevel, distress: u32) -> QualityLevel {
        match distress {
            0..=1 => quality,
            2..=3 => self.ladder.step_down(quality, 1),
            _ => QualityLevel::Low,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(buffer: f64, current: f64, predicted: f64, blockage: bool) -> CrossLayerInputs {
        CrossLayerInputs {
            measured_throughput_mbps: 0.0,
            buffer_frames: buffer,
            blockage_forecast: blockage,
            predicted_phy_rate_mbps: predicted,
            current_phy_rate_mbps: current,
        }
    }

    fn warmed(policy: AbrPolicy, mbps: f64) -> RateAdapter {
        let mut a = RateAdapter::new(policy, 2);
        for _ in 0..20 {
            a.observe(0, mbps, -55.0);
            a.observe(1, mbps, -55.0);
        }
        a
    }

    /// Legacy plan for `user` with unit share and no culling.
    fn plan(
        a: &RateAdapter,
        user: usize,
        i: &CrossLayerInputs,
        share: f64,
        needed: f64,
    ) -> DeliveryDecision {
        a.plan_delivery(
            &GroupState {
                user,
                inputs: i,
                share,
                needed_fraction: needed,
                layered: false,
                fixed: None,
            },
            &Distress::calm(),
        )
    }

    #[test]
    fn buffer_only_thresholds() {
        let a = warmed(AbrPolicy::BufferOnly, 1000.0);
        let i = |b| inputs(b, 2000.0, 2000.0, false);
        assert_eq!(plan(&a, 0, &i(1.0), 1.0, 1.0).quality, QualityLevel::Low);
        assert_eq!(plan(&a, 0, &i(5.0), 1.0, 1.0).quality, QualityLevel::Medium);
        assert_eq!(plan(&a, 0, &i(9.0), 1.0, 1.0).quality, QualityLevel::High);
    }

    #[test]
    fn throughput_only_scales_with_bandwidth() {
        // 1000 Mbps x 0.85 = 850 budget -> High (364) easily at share 1.
        let a = warmed(AbrPolicy::ThroughputOnly, 1000.0);
        let i = inputs(5.0, 1000.0, 1000.0, false);
        assert_eq!(plan(&a, 0, &i, 1.0, 1.0).quality, QualityLevel::High);
        // share 1/4 -> 212 budget -> even Low (235) fails -> clamps Low.
        assert_eq!(plan(&a, 0, &i, 0.25, 1.0).quality, QualityLevel::Low);
        // Visibility culling (needed_fraction 0.7) stretches the budget to
        // ~304 Mbps -> Medium (294) fits, High (364) does not.
        assert_eq!(plan(&a, 0, &i, 0.25, 0.7).quality, QualityLevel::Medium);
        // Aggressive culling (0.5) fits even High: budget 425 > 364.
        assert_eq!(plan(&a, 0, &i, 0.25, 0.5).quality, QualityLevel::High);
    }

    #[test]
    fn cross_layer_downgrades_on_predicted_dip() {
        let a = warmed(AbrPolicy::CrossLayer, 1000.0);
        let stable = plan(&a, 0, &inputs(5.0, 2502.5, 2502.5, false), 1.0, 1.0);
        assert_eq!(stable.quality, QualityLevel::High);
        // Forecast collapse to 1/5 -> budget 170 -> Low.
        let dip = plan(&a, 0, &inputs(5.0, 2502.5, 500.5, false), 1.0, 1.0);
        assert_eq!(dip.quality, QualityLevel::Low);
        // Throughput-only would have stayed High.
        let naive = warmed(AbrPolicy::ThroughputOnly, 1000.0);
        let naive = plan(&naive, 0, &inputs(5.0, 2502.5, 500.5, false), 1.0, 1.0);
        assert_eq!(naive.quality, QualityLevel::High);
    }

    #[test]
    fn distress_saturates_and_matches_the_ladder_arithmetic() {
        let mut d = Distress::calm();
        d.relax();
        assert_eq!(d, Distress::calm());
        for expected in [2, 4, 6, 6] {
            d.raise(2);
            assert_eq!(d.level, expected);
        }
        d.relax();
        d.raise(1);
        d.raise(1);
        assert_eq!(d.level, 6);
        // The session (hard hit +2 / clean frame -1) and the server (also
        // +1 for a loss its parity absorbed) step through the same
        // arithmetic: `min(level + k, 6)` up, saturating `- 1` down.
        let (mut d, mut level) = (Distress::calm(), 0u32);
        for event in [2, 2, 0, 1, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2] {
            if event == 0 {
                d.relax();
                level = level.saturating_sub(1);
            } else {
                d.raise(event);
                level = (level + event).min(6);
            }
            assert_eq!(d, Distress::new(level));
        }
    }

    #[test]
    fn distress_clamps_fixed_and_adaptive_targets() {
        let a = warmed(AbrPolicy::CrossLayer, 1000.0);
        let i = inputs(5.0, 2502.5, 2502.5, false);
        let at = |fixed: Option<QualityLevel>, level: u32| {
            a.plan_delivery(
                &GroupState {
                    user: 0,
                    inputs: &i,
                    share: 1.0,
                    needed_fraction: 1.0,
                    layered: false,
                    fixed,
                },
                &Distress::new(level),
            )
        };
        // Zero / light distress: identity.
        assert_eq!(at(Some(QualityLevel::High), 0).quality, QualityLevel::High);
        assert_eq!(at(Some(QualityLevel::Low), 1).quality, QualityLevel::Low);
        // Moderate distress: one step down (saturating at the bottom).
        assert_eq!(
            at(Some(QualityLevel::High), 2).quality,
            QualityLevel::Medium
        );
        assert_eq!(at(Some(QualityLevel::Medium), 3).quality, QualityLevel::Low);
        assert_eq!(at(Some(QualityLevel::Low), 2).quality, QualityLevel::Low);
        // Sustained distress: the bottom of the ladder.
        assert_eq!(at(Some(QualityLevel::High), 4).quality, QualityLevel::Low);
        assert_eq!(at(Some(QualityLevel::High), 100).quality, QualityLevel::Low);
        // The pre-clamp target is preserved for clamp accounting, and the
        // adaptive path clamps identically.
        assert_eq!(
            at(Some(QualityLevel::High), 4).target_quality,
            QualityLevel::High
        );
        let adaptive = at(None, 2);
        assert_eq!(adaptive.target_quality, QualityLevel::High);
        assert_eq!(adaptive.quality, QualityLevel::Medium);
    }

    #[test]
    fn layered_plans_split_base_and_enhancements() {
        let a = warmed(AbrPolicy::CrossLayer, 1000.0);
        let i = inputs(5.0, 2502.5, 2502.5, false);
        let at = |level: u32| {
            a.plan_delivery(
                &GroupState {
                    user: 0,
                    inputs: &i,
                    share: 1.0,
                    needed_fraction: 1.0,
                    layered: true,
                    fixed: None,
                },
                &Distress::new(level),
            )
        };
        let layers = |d: &DeliveryDecision| a.ladder.enhancement_layers(d.quality);
        // Clean link, High target: the base + 2 enhancements, no parity.
        let clean = at(0);
        assert_eq!(clean.quality, QualityLevel::High);
        assert_eq!(layers(&clean), 2);
        assert_eq!(clean.fec, FecRung::Off);
        // Light distress: parity engages BEFORE quality falls (level 1 is
        // below the quality-clamp threshold).
        let light = at(1);
        assert_eq!(light.quality, QualityLevel::High);
        assert_eq!(light.fec, FecRung::Quarter);
        // Moderate distress: one level down AND parity.
        let moderate = at(2);
        assert_eq!(moderate.quality, QualityLevel::Medium);
        assert_eq!(layers(&moderate), 1);
        assert_eq!(moderate.fec, FecRung::Quarter);
        // Sustained distress: base only, heavy parity.
        let heavy = at(5);
        assert_eq!(heavy.quality, QualityLevel::Low);
        assert_eq!(layers(&heavy), 0);
        assert_eq!(heavy.fec, FecRung::Half);
    }

    /// A layered target is priced at the layers it holds (149.2 / 332.3 /
    /// 450.6 Mbps), a single-stream one at its own stream (235 / 294 / 364).
    #[test]
    fn a_layered_target_is_priced_at_the_layers_it_holds() {
        let a = warmed(AbrPolicy::ThroughputOnly, 1000.0);
        let i = inputs(5.0, 1000.0, 1000.0, false);
        let at = |needed: f64, layered: bool| {
            let group = GroupState {
                user: 0,
                inputs: &i,
                share: 0.25,
                needed_fraction: needed,
                layered,
                fixed: None,
            };
            a.plan_delivery(&group, &Distress::calm()).quality
        };
        // Budgets 425, ~304 and 212.5 Mbps.
        assert_eq!(at(0.5, false), QualityLevel::High);
        assert_eq!(at(0.5, true), QualityLevel::Medium);
        assert_eq!(at(0.7, false), QualityLevel::Medium);
        assert_eq!(at(0.7, true), QualityLevel::Low);
        assert_eq!(at(1.0, false), QualityLevel::Low);
        assert_eq!(at(1.0, true), QualityLevel::Low);
    }

    #[test]
    fn fec_rung_overheads() {
        assert_eq!(FecRung::Off.overhead(), 0.0);
        assert_eq!(FecRung::Quarter.overhead(), 0.25);
        assert_eq!(FecRung::Half.overhead(), 0.5);
    }
}
