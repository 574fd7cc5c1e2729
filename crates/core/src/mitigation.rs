//! Proactive blockage mitigation (§4.1).
//!
//! Reactive systems notice a blockage when the link collapses, then pay a
//! 5-20 ms beam re-search while frames stall. The paper's scheme uses the
//! multi-user viewport prediction to see the blockage coming and act
//! first: prefetch frames for the soon-to-be-blocked user and steer their
//! beam to a reflected path *before* the body arrives.
//!
//! [`BlockageMitigator`] models both modes; sessions charge the resulting
//! beam-outage time into their frame schedules.

use volcast_mmwave::BeamSearch;
use volcast_viewport::BlockageEvent;

/// Reactive vs proactive operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationMode {
    /// Wait for the outage, then full beam re-search.
    Reactive,
    /// Act on forecast events: prefetch + pre-steered reflected beam.
    Proactive,
}

/// What the mitigator asks the session to do for one event.
///
/// The *rate* consequence of a blockage is physical (the channel model
/// attenuates the blocked paths and the session re-steers to the best
/// surviving path); the mitigator only decides *when the switch happens*
/// and what it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationAction {
    /// The user whose link is (or will be) blocked.
    pub user: usize,
    /// Frames until the blockage onset (0 = already blocked).
    pub onset_frames: usize,
    /// Frames of content to prefetch before the blockage onset.
    pub prefetch_frames: usize,
    /// Beam-switch latency charged to this user's schedule, seconds.
    pub beam_outage_s: f64,
}

/// Blockage mitigation engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockageMitigator {
    /// Operating mode.
    pub mode: MitigationMode,
    /// Beam search timing model.
    pub beam_search: BeamSearch,
    /// Codebook size (for the full-sweep cost in reactive mode).
    pub codebook_sectors: usize,
    /// Frames of prefetch issued per proactive event.
    pub prefetch_frames: usize,
}

impl BlockageMitigator {
    /// Creates a mitigator with the default 48-sector codebook timing.
    pub fn new(mode: MitigationMode) -> Self {
        BlockageMitigator {
            mode,
            beam_search: BeamSearch::default(),
            codebook_sectors: 48,
            prefetch_frames: 8,
        }
    }

    /// The beam outage charged when a blockage arrives.
    ///
    /// Reactive: a full sweep *after* the outage is noticed (plus one frame
    /// interval of detection delay modeled by the caller). Proactive: a
    /// narrow partial sweep performed *before* onset, off the critical
    /// path; only a small switch cost lands on the schedule.
    pub fn beam_outage_s(&self) -> f64 {
        match self.mode {
            MitigationMode::Reactive => {
                self.beam_search.overhead_s
                    + self.beam_search.per_sector_s * self.codebook_sectors as f64
            }
            MitigationMode::Proactive => {
                // The partial sweep ran ahead of time; switching to the
                // prepared beam costs one overhead unit.
                self.beam_search.overhead_s
            }
        }
    }

    /// Turns forecast events into actions. In reactive mode only events
    /// with `onset_frames == 0` (already happening) produce actions — a
    /// reactive system cannot act on the future.
    ///
    /// `out` is cleared and refilled; per-frame callers (the session hot
    /// path) reuse one buffer across frames so steady-state planning does
    /// not touch the allocator.
    pub fn plan_into(&self, events: &[BlockageEvent], out: &mut Vec<MitigationAction>) {
        out.clear();
        out.extend(
            events
                .iter()
                .filter(|e| match self.mode {
                    MitigationMode::Reactive => e.onset_frames == 0,
                    MitigationMode::Proactive => true,
                })
                .map(|e| MitigationAction {
                    user: e.victim,
                    onset_frames: e.onset_frames,
                    prefetch_frames: match self.mode {
                        MitigationMode::Reactive => 0,
                        MitigationMode::Proactive => self.prefetch_frames,
                    },
                    beam_outage_s: self.beam_outage_s(),
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(victim: usize, onset: usize) -> BlockageEvent {
        BlockageEvent {
            victim,
            blocker: 9,
            onset_frames: onset,
        }
    }

    #[test]
    fn reactive_outage_is_full_sweep() {
        let m = BlockageMitigator::new(MitigationMode::Reactive);
        let t = m.beam_outage_s();
        assert!((0.005..0.020).contains(&t), "reactive outage {t}");
    }

    #[test]
    fn proactive_outage_is_much_smaller() {
        let r = BlockageMitigator::new(MitigationMode::Reactive);
        let p = BlockageMitigator::new(MitigationMode::Proactive);
        assert!(p.beam_outage_s() < r.beam_outage_s() / 4.0);
    }

    fn plan(m: &BlockageMitigator, events: &[BlockageEvent]) -> Vec<MitigationAction> {
        let mut out = Vec::new();
        m.plan_into(events, &mut out);
        out
    }

    #[test]
    fn reactive_ignores_future_events() {
        let m = BlockageMitigator::new(MitigationMode::Reactive);
        let actions = plan(&m, &[event(0, 5), event(1, 0)]);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].user, 1);
        assert_eq!(actions[0].prefetch_frames, 0);
    }

    #[test]
    fn proactive_acts_on_forecasts_with_prefetch() {
        let m = BlockageMitigator::new(MitigationMode::Proactive);
        let actions = plan(&m, &[event(0, 5), event(1, 0)]);
        assert_eq!(actions.len(), 2);
        assert!(actions.iter().all(|a| a.prefetch_frames == 8));
        // Onsets pass through from the events.
        let onsets: Vec<usize> = actions.iter().map(|a| a.onset_frames).collect();
        assert!(onsets.contains(&5) && onsets.contains(&0));
    }

    #[test]
    fn proactive_switch_cost_beats_reactive() {
        let r = BlockageMitigator::new(MitigationMode::Reactive);
        let p = BlockageMitigator::new(MitigationMode::Proactive);
        let ra = plan(&r, &[event(0, 0)])[0];
        let pa = plan(&p, &[event(0, 0)])[0];
        assert!(pa.beam_outage_s < ra.beam_outage_s);
    }

    #[test]
    fn no_events_no_actions() {
        let m = BlockageMitigator::new(MitigationMode::Proactive);
        assert!(plan(&m, &[]).is_empty());
    }

    #[test]
    fn plan_into_clears_stale_entries() {
        let events = [event(0, 5), event(1, 0), event(2, 3)];
        let mut out = Vec::new();
        for mode in [MitigationMode::Reactive, MitigationMode::Proactive] {
            let m = BlockageMitigator::new(mode);
            // Pre-poison the buffer: plan_into must clear leftovers.
            out.push(MitigationAction {
                user: 99,
                onset_frames: 99,
                prefetch_frames: 99,
                beam_outage_s: 9.9,
            });
            m.plan_into(&events, &mut out);
            assert!(out.iter().all(|a| a.user < 3), "{mode:?}: stale entry kept");
        }
    }
}
