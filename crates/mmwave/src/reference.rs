//! Slow, obvious group-beam design: the test oracle for
//! [`SweepEngine`](crate::SweepEngine).
//!
//! Every sector of the codebook is evaluated against every member through
//! [`Channel::prepare_rx`] — no bounds, no pruning, no caches, no reused
//! buffers — and the first-best argmax is taken serially. This is the only
//! exhaustive scan in the tree; it is compiled for tests only.

use crate::array::AntennaWeights;
use crate::calib;
use crate::channel::{Blocker, Channel, PreparedRx};
use crate::codebook::Codebook;
use crate::multilobe::{combine_weights_multi, GroupBeam};
use volcast_geom::Vec3;

fn prepare(channel: &Channel, members: &[Vec3], blockers: &[Blocker]) -> Vec<PreparedRx> {
    members
        .iter()
        .map(|&m| channel.prepare_rx(m, blockers))
        .collect()
}

fn min_of(rss: &[f64]) -> f64 {
    rss.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First sector (strict `>`) maximizing the minimum member RSS, with that
/// sector's per-member RSS.
fn scan(codebook: &Codebook, prepared: &[PreparedRx]) -> (usize, Vec<f64>) {
    let mut best_idx = 0usize;
    let mut best_min = f64::NEG_INFINITY;
    let mut best_rss = vec![f64::NEG_INFINITY; prepared.len()];
    for (i, sector) in codebook.sectors.iter().enumerate() {
        let rss: Vec<f64> = prepared.iter().map(|p| p.rss_dbm(sector)).collect();
        let min = min_of(&rss);
        if min > best_min {
            best_min = min;
            best_idx = i;
            best_rss = rss;
        }
    }
    (best_idx, best_rss)
}

/// Exhaustive [`MultiLobeDesigner::best_common_sector`](crate::MultiLobeDesigner::best_common_sector).
pub(crate) fn best_common_sector(
    channel: &Channel,
    codebook: &Codebook,
    members: &[Vec3],
    blockers: &[Blocker],
) -> (usize, Vec<f64>) {
    scan(codebook, &prepare(channel, members, blockers))
}

fn combine(codebook: &Codebook, prepared: &[PreparedRx]) -> AntennaWeights {
    let per_user: Vec<(AntennaWeights, f64)> = prepared
        .iter()
        .map(|p| {
            let (idx, rss) = scan(codebook, std::slice::from_ref(p));
            (codebook.sectors[idx].clone(), calib::dbm_to_mw(rss[0]))
        })
        .collect();
    combine_weights_multi(&per_user)
}

/// Exhaustive [`SweepEngine::combine_into`](crate::SweepEngine::combine_into).
pub(crate) fn custom_beam(
    channel: &Channel,
    codebook: &Codebook,
    members: &[Vec3],
    blockers: &[Blocker],
) -> AntennaWeights {
    combine(codebook, &prepare(channel, members, blockers))
}

/// Exhaustive [`MultiLobeDesigner::design`](crate::MultiLobeDesigner::design).
pub(crate) fn design(
    channel: &Channel,
    codebook: &Codebook,
    members: &[Vec3],
    blockers: &[Blocker],
) -> GroupBeam {
    let prepared = prepare(channel, members, blockers);
    let (idx, default_rss) = scan(codebook, &prepared);
    if members.len() >= 2 {
        let custom = combine(codebook, &prepared);
        let custom_rss: Vec<f64> = prepared.iter().map(|p| p.rss_dbm(&custom)).collect();
        if min_of(&custom_rss) > min_of(&default_rss) {
            return GroupBeam {
                weights: custom,
                member_rss_dbm: custom_rss,
                customized: true,
            };
        }
    }
    GroupBeam {
        weights: codebook.sectors[idx].clone(),
        member_rss_dbm: default_rss,
        customized: false,
    }
}
