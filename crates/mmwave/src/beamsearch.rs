//! Sector-level beam search and its latency model.
//!
//! 802.11ad finds beams with a sector-level sweep (SLS): the initiator
//! transmits a short SSW frame on every sector and the responder reports
//! the best. After a blockage breaks the current beam, re-initiating this
//! search costs 5-20 ms (paper §4.1) — long enough to stall 30 FPS video,
//! which is exactly why the paper wants prediction-driven *proactive* beam
//! adaptation instead.

use crate::channel::{Blocker, Channel};
use crate::codebook::Codebook;
use volcast_geom::Vec3;
use volcast_util::obs;

/// Result of one sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepResult {
    /// Index of the best sector in the codebook.
    pub sector: usize,
    /// RSS (dBm) achieved on that sector.
    pub rss_dbm: f64,
    /// Time the sweep took, in seconds.
    pub duration_s: f64,
}

/// Sector sweep engine with a timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamSearch {
    /// Time per SSW frame (per sector probed), seconds. ~15 us airtime plus
    /// turnaround; commercial sweeps land in the hundreds of microseconds
    /// per sector once MAC overhead is included.
    pub per_sector_s: f64,
    /// Fixed setup/feedback overhead per sweep, seconds.
    pub overhead_s: f64,
}

impl Default for BeamSearch {
    /// Calibrated so a full 48-sector sweep costs ~12 ms and a focused
    /// partial sweep a few ms — inside the paper's 5-20 ms window.
    fn default() -> Self {
        BeamSearch {
            per_sector_s: 230e-6,
            overhead_s: 1.2e-3,
        }
    }
}

impl BeamSearch {
    /// Full sweep: probe every sector, return the best for `user`.
    pub fn full_sweep(
        &self,
        channel: &Channel,
        codebook: &Codebook,
        user: Vec3,
        blockers: &[Blocker],
    ) -> SweepResult {
        self.sweep_subset(
            channel,
            codebook,
            user,
            blockers,
            &Vec::from_iter(0..codebook.len()),
        )
    }

    /// Partial sweep over an explicit subset of sector indices (used for
    /// proactive re-steering where prediction narrows the candidates).
    pub fn sweep_subset(
        &self,
        channel: &Channel,
        codebook: &Codebook,
        user: Vec3,
        blockers: &[Blocker],
        sectors: &[usize],
    ) -> SweepResult {
        assert!(!sectors.is_empty(), "cannot sweep zero sectors");
        obs::inc("mmwave.beamsearch.sweeps");
        obs::add("mmwave.beamsearch.sectors_probed", sectors.len() as u64);
        let mut best = SweepResult {
            sector: sectors[0],
            rss_dbm: f64::NEG_INFINITY,
            duration_s: self.overhead_s + self.per_sector_s * sectors.len() as f64,
        };
        for &i in sectors {
            let rss = channel.rss_dbm(&codebook.sectors()[i], user, blockers);
            if rss > best.rss_dbm {
                best.sector = i;
                best.rss_dbm = rss;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Channel, Codebook, BeamSearch) {
        let ch = Channel::default_setup();
        let cb = Codebook::default_for(&ch.array);
        (ch, cb, BeamSearch::default())
    }

    #[test]
    fn full_sweep_duration_in_paper_window() {
        let (ch, cb, bs) = setup();
        let r = bs.full_sweep(&ch, &cb, Vec3::new(0.0, 1.5, 0.0), &[]);
        assert!(
            (0.005..=0.020).contains(&r.duration_s),
            "full sweep {} s outside 5-20 ms",
            r.duration_s
        );
    }

    #[test]
    fn partial_sweep_is_faster() {
        let (ch, cb, bs) = setup();
        let user = Vec3::new(1.0, 1.5, -1.0);
        let full = bs.full_sweep(&ch, &cb, user, &[]);
        let subset: Vec<usize> = (0..8).collect();
        let partial = bs.sweep_subset(&ch, &cb, user, &[], &subset);
        assert!(partial.duration_s < full.duration_s / 2.0);
        assert!(partial.rss_dbm <= full.rss_dbm);
    }

    #[test]
    fn sweep_finds_strong_sector() {
        let (ch, cb, bs) = setup();
        let user = Vec3::new(-1.5, 1.4, 0.5);
        let r = bs.full_sweep(&ch, &cb, user, &[]);
        let dedicated = ch.rss_dedicated_beam(user, &[]);
        assert!(
            r.rss_dbm > dedicated - 4.0,
            "sweep {} vs dedicated {}",
            r.rss_dbm,
            dedicated
        );
    }

    #[test]
    fn blockage_changes_best_sector_or_rss() {
        let (ch, cb, bs) = setup();
        let user = Vec3::new(0.0, 1.2, -2.0);
        let clear = bs.full_sweep(&ch, &cb, user, &[]);
        let blocker = crate::channel::Blocker::person(Vec3::new(0.0, 0.0, -1.0));
        let blocked = bs.full_sweep(&ch, &cb, user, &[blocker]);
        assert!(blocked.rss_dbm < clear.rss_dbm);
    }

    #[test]
    #[should_panic]
    fn empty_subset_panics() {
        let (ch, cb, bs) = setup();
        let _ = bs.sweep_subset(&ch, &cb, Vec3::ZERO, &[], &[]);
    }
}
