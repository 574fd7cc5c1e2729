//! Referee for `FaultPlan`: the schedule generator written as a plain loop
//! over ordered sets, checked against the optimised plan for every
//! `(frame, user, class)` of random configurations.
//!
//! `reference` is the generator as it stood when a plan was one membership
//! mask per class per frame, with two changes: the masks are
//! `Vec<BTreeSet<usize>>` (one set per frame) plus a `Vec<bool>` of AP
//! stalls, so the referee pins no container API of the crate under test,
//! and the seed-stream ids are re-declared here. Every draw, every draw
//! order and every stream id is the contract: a plan that differs from this
//! one in any bit moves every seeded fault experiment.

use std::collections::BTreeSet;
use volcast_net::{Fault, FaultConfig, FaultPlan};
use volcast_util::prop::run_cases;
use volcast_util::rng::Rng;

/// Seed-stream bases: class `c`, user `u` draws from stream `c + u`.
const STREAM_OUTAGE: u64 = 0x0100;
const STREAM_BLOCKAGE: u64 = 0x0200;
const STREAM_AP_STALL: u64 = 0x0300;
const STREAM_LOSS: u64 = 0x0400;
const STREAM_DECODE: u64 = 0x0500;

/// The four per-user classes, in the order `Reference::sets` holds them.
const CLASSES: [Fault; 4] = [
    Fault::Outage,
    Fault::Blockage,
    Fault::Loss,
    Fault::DecodeOverrun,
];

/// One schedule: per class, per frame, the users it hits; per frame,
/// whether the AP stalls.
#[derive(Debug, Clone, PartialEq)]
struct Reference {
    sets: [Vec<BTreeSet<usize>>; 4],
    ap_stall: Vec<bool>,
}

fn reference(config: FaultConfig, frames: usize, n_users: usize) -> Reference {
    let mut sets: [Vec<BTreeSet<usize>>; 4] = Default::default();
    for class in sets.iter_mut() {
        class.resize_with(frames, BTreeSet::new);
    }
    let [outage, blockage, loss, decode] = &mut sets;

    // Episodic per-user classes: walk each user's own stream once.
    let episodes = |masks: &mut Vec<BTreeSet<usize>>, stream_base: u64, rate: f64, len: usize| {
        if rate <= 0.0 {
            return;
        }
        for u in 0..n_users {
            let mut rng = Rng::for_stream(config.seed, stream_base + u as u64);
            let mut remaining = 0usize;
            for mask in masks.iter_mut() {
                if remaining == 0 && rng.gen_bool(rate) {
                    remaining = len;
                }
                if remaining > 0 {
                    mask.insert(u);
                    remaining -= 1;
                }
            }
        }
    };
    episodes(
        outage,
        STREAM_OUTAGE,
        config.outage_rate,
        config.outage_frames,
    );
    episodes(
        blockage,
        STREAM_BLOCKAGE,
        config.blockage_rate,
        config.blockage_frames,
    );
    episodes(loss, STREAM_LOSS, config.loss_rate, 1);
    episodes(decode, STREAM_DECODE, config.decode_overrun_rate, 1);

    // AP stalls: one global stream.
    let mut ap_stall = vec![false; frames];
    if config.ap_stall_rate > 0.0 {
        let mut rng = Rng::for_stream(config.seed, STREAM_AP_STALL);
        let mut remaining = 0usize;
        for stall in ap_stall.iter_mut() {
            if remaining == 0 && rng.gen_bool(config.ap_stall_rate) {
                remaining = config.ap_stall_frames;
            }
            if remaining > 0 {
                *stall = true;
                remaining -= 1;
            }
        }
    }

    // Scripted blackout window: a total outage for every user.
    if config.blackout_frames > 0 && n_users > 0 {
        let end = config.blackout_start.saturating_add(config.blackout_frames);
        for mask in outage
            .iter_mut()
            .take(end.min(frames))
            .skip(config.blackout_start)
        {
            mask.extend(0..n_users);
        }
    }
    Reference { sets, ap_stall }
}

/// A random configuration: each class off or at one of four rates with a
/// length of 1–8 frames, and a blackout that is absent, inside the
/// schedule, running past its end, or starting beyond it.
fn draw_config(rng: &mut Rng, frames: usize) -> FaultConfig {
    let mut rate = || match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => 1e-3,
        2 => 0.05,
        3 => 0.3,
        _ => 1.0,
    };
    let (outage_rate, blockage_rate, ap_stall_rate) = (rate(), rate(), rate());
    let (loss_rate, decode_overrun_rate) = (rate(), rate());
    let (blackout_start, blackout_frames) = match rng.gen_range(0..4u32) {
        0 => (0, 0),
        1 => {
            let start = rng.gen_range(0..frames.max(1));
            (start, rng.gen_range(1..=(frames - start).max(1)))
        }
        2 => (
            rng.gen_range(0..frames.max(1)),
            frames + rng.gen_range(1..20usize),
        ),
        _ => (
            frames + rng.gen_range(0..20usize),
            rng.gen_range(1..20usize),
        ),
    };
    FaultConfig {
        seed: rng.gen(),
        outage_rate,
        outage_frames: rng.gen_range(1..=8),
        blockage_rate,
        blockage_frames: rng.gen_range(1..=8),
        ap_stall_rate,
        ap_stall_frames: rng.gen_range(1..=8),
        loss_rate,
        decode_overrun_rate,
        blackout_start,
        blackout_frames,
    }
}

/// 0–200 frames and 0–150 users, the word and row edges drawn on purpose.
fn draw_domain(rng: &mut Rng) -> (usize, usize) {
    let frames = match rng.gen_range(0..4u32) {
        0 => [0, 1, 63, 64, 65, 200][rng.gen_range(0..6usize)],
        _ => rng.gen_range(0..=200),
    };
    let users = match rng.gen_range(0..3u32) {
        0 => [0, 1, 63, 64, 65, 150][rng.gen_range(0..6usize)],
        _ => rng.gen_range(0..=150),
    };
    (frames, users)
}

/// The plan agrees with the referee on every `(frame, user, class)`, on
/// every stall flag, on each frame's counts and quietness — and answers
/// "quiet" past the schedule and "no" past the population.
fn assert_matches(plan: &FaultPlan, want: &Reference, frames: usize, users: usize) {
    for f in 0..frames + 3 {
        let at = plan.at(f);
        let stall = want.ap_stall.get(f).copied().unwrap_or(false);
        assert_eq!(at.ap_stall, stall, "stall at frame {f}");
        let mut quiet = !stall;
        for (class, sets) in CLASSES.iter().zip(&want.sets) {
            let hit = sets.get(f);
            for u in 0..users + 2 {
                let expect = hit.is_some_and(|s| s.contains(&u));
                assert_eq!(at.has(u, *class), expect, "{class:?} frame {f} user {u}");
            }
            let count = hit.map_or(0, BTreeSet::len);
            assert_eq!(at.count(*class), count, "{class:?} count at frame {f}");
            quiet &= count == 0;
        }
        assert_eq!(at.is_quiet(), quiet, "quietness of frame {f}");
        if f >= frames {
            assert!(at.is_quiet(), "frame {f} is past the schedule");
        }
    }
}

#[test]
fn generated_plans_match_the_reference_bit_for_bit() {
    run_cases("generated_plans_match_the_reference_bit_for_bit", |rng| {
        let (frames, users) = draw_domain(rng);
        let cfg = draw_config(rng, frames);
        let plan = FaultPlan::generate(cfg, frames, users).unwrap();
        let want = reference(cfg, frames, users);
        assert_matches(&plan, &want, frames, users);
        let quiet =
            want.ap_stall.iter().all(|&s| !s) && want.sets.iter().flatten().all(BTreeSet::is_empty);
        assert_eq!(plan.is_quiet(), quiet);
    });
}

#[test]
fn a_regenerated_plan_equals_a_fresh_one_on_every_domain() {
    run_cases(
        "a_regenerated_plan_equals_a_fresh_one_on_every_domain",
        |rng| {
            // One plan walked through a random sequence of domains, shrinking
            // and growing: no stale frame, row or bit may survive a step.
            let (frames, users) = draw_domain(rng);
            let mut plan = FaultPlan::generate(draw_config(rng, frames), frames, users).unwrap();
            for _ in 0..5 {
                let (frames, users) = draw_domain(rng);
                let cfg = draw_config(rng, frames);
                plan.regenerate(cfg, frames, users).unwrap();
                assert_eq!(plan, FaultPlan::generate(cfg, frames, users).unwrap());
                assert_matches(&plan, &reference(cfg, frames, users), frames, users);
            }
        },
    );
}
