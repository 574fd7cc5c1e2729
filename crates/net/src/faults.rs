//! Deterministic fault injection.
//!
//! The paper's premise is that mmWave links are *fragile*: bodies cross the
//! LoS, users walk, APs hiccup — and the cross-layer design has to absorb
//! all of it (§3.3 proactive blockage mitigation, §3.4 rate adaptation).
//! The channel model produces *organic* blockage from user geometry, but
//! organic faults cannot be dialed up, pinned to a frame, or repeated
//! across configurations. This module provides the missing stressor: a
//! seeded, deterministic [`FaultPlan`] that schedules fault events over a
//! session's frames, independent of thread count and identical on every
//! platform.
//!
//! Five fault classes are modeled:
//!
//! - **link outage bursts** — a user's PHY collapses completely for a few
//!   consecutive frames (deep fade, hand over the module),
//! - **blockage episodes** — a phantom body parks on a user's LoS for a
//!   few frames (injected at the *channel* level: the session drops a
//!   synthetic blocker onto the path, and the channel model attenuates and
//!   re-steers exactly as it would for a real body),
//! - **AP stalls** — the AP transmits nothing for a stretch of frames
//!   (firmware hiccup, channel-access loss, restart),
//! - **transmission-item loss** — a scheduled burst transmits (airtime is
//!   burned) but a receiver never gets it (corrupted MPDUs past the MAC's
//!   retry budget),
//! - **decode-deadline overruns** — a client misses its decode slot even
//!   though bytes arrived on time (thermal throttling, background work).
//!
//! Schedules are materialized once at generation time into one table of
//! one byte per `(frame, user)`, frame-major, whose bits are the four
//! per-user classes ([`Fault`]), plus one AP-stall flag per frame. A
//! frame's faults are a [`FrameFaults`] view of its row, so every query
//! in the hot loop is an indexed bit test, the schedule cannot drift with
//! evaluation order, and a plan is two allocations at any population
//! size. Each fault class and user draws from its own [`Rng::for_stream`]
//! stream, so enabling one class never perturbs another's schedule, and a
//! user's schedule does not depend on how many users share the plan.
//!
//! ```
//! use volcast_net::{FaultConfig, FaultPlan};
//!
//! let cfg = FaultConfig::from_spec("seed=7,outage=0.1:4,loss=0.2").unwrap();
//! let plan = FaultPlan::generate(cfg, 60, 4).unwrap();
//! let again = FaultPlan::generate(cfg, 60, 4).unwrap();
//! assert_eq!(plan, again); // same seed + config => same schedule, always
//! ```
//!
//! # The `--faults` spec grammar
//!
//! Fault schedules are configured from a compact one-line spec — the
//! argument of the CLI's `--faults` flag and of the `VOLCAST_FAULTS`
//! environment variable, parsed by [`FaultConfig::from_spec`]:
//!
//! ```text
//! spec     := part ("," part)*
//! part     := "seed=" u64
//!           | "outage="   rate [":" frames]     # episodic, default 6 frames
//!           | "blockage=" rate [":" frames]     # episodic, default 4 frames
//!           | "stall="    rate [":" frames]     # episodic, default 3 frames
//!           | "loss="     rate                  # single-frame events
//!           | "decode="   rate                  # single-frame events
//!           | "blackout=" start ":" frames      # scripted all-user outage
//! rate     := f64 in [0, 1]                    # per-frame onset probability
//! frames   := usize >= 1                       # episode length
//! ```
//!
//! Whitespace around parts is ignored; the empty spec is the quiet
//! configuration. Unknown keys, duplicate keys, malformed numbers,
//! out-of-range rates, and zero-length episodes are hard errors — a typo
//! cannot silently disable a stress scenario:
//!
//! ```
//! use volcast_net::FaultConfig;
//!
//! let cfg = FaultConfig::from_spec(
//!     "seed=7,outage=0.02:6,blockage=0.05:4,stall=0.01:3,loss=0.03,decode=0.02,blackout=30:10",
//! )
//! .unwrap();
//! assert_eq!(cfg.seed, 7);
//! assert_eq!((cfg.outage_rate, cfg.outage_frames), (0.02, 6));
//! assert_eq!((cfg.blackout_start, cfg.blackout_frames), (30, 10));
//!
//! // Episode lengths are optional and default per class.
//! assert_eq!(FaultConfig::from_spec("outage=0.1").unwrap().outage_frames, 6);
//!
//! // Malformed specs fail loudly instead of running an unstressed session.
//! assert!(FaultConfig::from_spec("outage=1.5").is_err()); // rate out of [0, 1]
//! assert!(FaultConfig::from_spec("nosuch=1").is_err()); // unknown key
//! assert!(FaultConfig::from_spec("loss=0.5:3").is_err()); // loss takes no duration
//! assert!(FaultConfig::from_spec("loss=0.5,loss=0.1").is_err()); // duplicate key
//! ```

use crate::error::NetError;
use volcast_util::obs;
use volcast_util::rng::Rng;

/// Configuration for one deterministic fault schedule.
///
/// Rates are per-frame onset probabilities in `[0, 1]`; `*_frames` fields
/// are episode lengths in frames (how long an onset lasts). `loss_rate`
/// and `decode_overrun_rate` describe single-frame events and carry no
/// duration. The `blackout_*` window is a *scripted* (non-random) 100%
/// outage for every user — the reproducible worst case the degradation
/// ladder must survive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault schedule (independent of the content seed).
    pub seed: u64,
    /// Per-frame, per-user probability that a link-outage burst starts.
    pub outage_rate: f64,
    /// Length of a link-outage burst, frames.
    pub outage_frames: usize,
    /// Per-frame, per-user probability that a blockage episode starts.
    pub blockage_rate: f64,
    /// Length of a blockage episode, frames.
    pub blockage_frames: usize,
    /// Per-frame probability that an AP stall starts.
    pub ap_stall_rate: f64,
    /// Length of an AP stall, frames.
    pub ap_stall_frames: usize,
    /// Per-frame, per-user probability that the user's scheduled items are
    /// transmitted but lost (airtime burned, nothing received).
    pub loss_rate: f64,
    /// Per-frame, per-user probability of a decode-deadline overrun.
    pub decode_overrun_rate: f64,
    /// First frame of the scripted all-user outage window (with
    /// `blackout_frames > 0`).
    pub blackout_start: usize,
    /// Length of the scripted all-user outage window; 0 disables it.
    pub blackout_frames: usize,
}

impl Default for FaultConfig {
    /// [`FaultConfig::QUIET`].
    fn default() -> Self {
        FaultConfig::QUIET
    }
}

impl FaultConfig {
    /// A quiet plan: every rate zero, episode lengths at their defaults so
    /// that turning a single rate on gives sensible bursts.
    pub const QUIET: FaultConfig = FaultConfig {
        seed: 0,
        outage_rate: 0.0,
        outage_frames: 6,
        blockage_rate: 0.0,
        blockage_frames: 4,
        ap_stall_rate: 0.0,
        ap_stall_frames: 3,
        loss_rate: 0.0,
        decode_overrun_rate: 0.0,
        blackout_start: 0,
        blackout_frames: 0,
    };

    /// `true` when no fault class is active (the generated plan is empty).
    pub fn is_quiet(&self) -> bool {
        self.outage_rate == 0.0
            && self.blockage_rate == 0.0
            && self.ap_stall_rate == 0.0
            && self.loss_rate == 0.0
            && self.decode_overrun_rate == 0.0
            && self.blackout_frames == 0
    }

    /// Validates ranges: rates in `[0, 1]` and finite, episode lengths at
    /// least 1 for any class with a nonzero rate.
    pub fn validate(&self) -> Result<(), NetError> {
        let rates = [
            ("outage", self.outage_rate, self.outage_frames),
            ("blockage", self.blockage_rate, self.blockage_frames),
            ("stall", self.ap_stall_rate, self.ap_stall_frames),
            ("loss", self.loss_rate, 1),
            ("decode", self.decode_overrun_rate, 1),
        ];
        for (name, rate, frames) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(NetError::InvalidFaultConfig(format!(
                    "{name} rate {rate} outside [0, 1]"
                )));
            }
            if rate > 0.0 && frames == 0 {
                return Err(NetError::InvalidFaultConfig(format!(
                    "{name} rate {rate} with zero-length episodes"
                )));
            }
        }
        Ok(())
    }

    /// Parses a compact `key=value` spec, the `VOLCAST_FAULTS` syntax:
    ///
    /// ```text
    /// seed=7,outage=0.02:6,blockage=0.05:4,stall=0.01:3,loss=0.03,decode=0.02,blackout=30:10
    /// ```
    ///
    /// Episodic classes take `rate:frames` (frames optional, defaulting per
    /// class); `loss`/`decode` take a bare rate; `blackout` takes
    /// `start:frames`. Unknown keys, duplicate keys, and malformed numbers
    /// are errors, so a typo cannot silently disable a stress scenario.
    pub fn from_spec(spec: &str) -> Result<FaultConfig, NetError> {
        let bad = |msg: String| NetError::InvalidFaultSpec(msg);
        let mut cfg = FaultConfig::default();
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(format!("expected key=value, got '{part}'")))?;
            // Duplicate keys are a hard error: silently letting the last
            // occurrence win would turn `outage=0.5,outage=0.0` into an
            // unstressed run that *looks* stressed in the logs.
            if seen.contains(&key) {
                return Err(bad(format!("duplicate key '{key}'")));
            }
            seen.push(key);
            let (head, tail) = match value.split_once(':') {
                Some((h, t)) => (h, Some(t)),
                None => (value, None),
            };
            let rate = |s: &str| -> Result<f64, NetError> {
                s.parse::<f64>()
                    .map_err(|_| bad(format!("bad number '{s}' for '{key}'")))
            };
            let count = |s: &str| -> Result<usize, NetError> {
                s.parse::<usize>()
                    .map_err(|_| bad(format!("bad count '{s}' for '{key}'")))
            };
            match key {
                "seed" => {
                    if tail.is_some() {
                        return Err(bad(format!("'{key}' takes a single integer")));
                    }
                    cfg.seed = value
                        .parse::<u64>()
                        .map_err(|_| bad(format!("bad seed '{value}'")))?;
                }
                "outage" => {
                    cfg.outage_rate = rate(head)?;
                    if let Some(t) = tail {
                        cfg.outage_frames = count(t)?;
                    }
                }
                "blockage" => {
                    cfg.blockage_rate = rate(head)?;
                    if let Some(t) = tail {
                        cfg.blockage_frames = count(t)?;
                    }
                }
                "stall" => {
                    cfg.ap_stall_rate = rate(head)?;
                    if let Some(t) = tail {
                        cfg.ap_stall_frames = count(t)?;
                    }
                }
                "loss" => {
                    if tail.is_some() {
                        return Err(bad("'loss' takes a bare rate".into()));
                    }
                    cfg.loss_rate = rate(head)?;
                }
                "decode" => {
                    if tail.is_some() {
                        return Err(bad("'decode' takes a bare rate".into()));
                    }
                    cfg.decode_overrun_rate = rate(head)?;
                }
                "blackout" => {
                    cfg.blackout_start = count(head)?;
                    cfg.blackout_frames =
                        count(tail.ok_or_else(|| bad("'blackout' takes start:frames".into()))?)?;
                }
                other => return Err(bad(format!("unknown key '{other}'"))),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// One injected per-user fault class: a bit of a plan's per-`(frame,
/// user)` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Fault {
    /// The user's link is in a total outage.
    Outage = 1,
    /// A phantom body stands on the user's LoS.
    Blockage = 2,
    /// The user's transmitted items are lost.
    Loss = 4,
    /// The user's decoder misses its deadline.
    DecodeOverrun = 8,
}

/// The faults active during one frame: a view of the plan's row for the
/// frame (one byte of [`Fault`] bits per user) plus the global AP-stall
/// flag. The default value is the quiet frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameFaults<'a> {
    users: &'a [u8],
    /// The AP transmits nothing this frame.
    pub ap_stall: bool,
}

impl FrameFaults<'_> {
    /// `true` when `fault` hits `user` this frame (never for a user past
    /// the plan's population).
    pub fn has(&self, user: usize, fault: Fault) -> bool {
        self.users.get(user).is_some_and(|&b| b & fault as u8 != 0)
    }

    /// How many users `fault` hits this frame.
    pub fn count(&self, fault: Fault) -> usize {
        self.users.iter().filter(|&&b| b & fault as u8 != 0).count()
    }

    /// `true` when nothing is injected this frame.
    pub fn is_quiet(&self) -> bool {
        !self.ap_stall && self.users.iter().all(|&b| b == 0)
    }
}

/// Seed-stream ids (see [`Rng::for_stream`]): each per-user class and user
/// owns stream `base + user`, so schedules are stable under any evaluation
/// order and any thread count.
const STREAMS: [(Fault, u64); 4] = [
    (Fault::Outage, 0x0100),
    (Fault::Blockage, 0x0200),
    (Fault::Loss, 0x0400),
    (Fault::DecodeOverrun, 0x0500),
];
/// The AP-stall stream, one for the whole plan.
const STREAM_AP_STALL: u64 = 0x0300;

/// A materialized fault schedule: one byte of [`Fault`] bits per `(frame,
/// user)`, frame-major, and one AP-stall flag per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The configuration the plan was generated from.
    pub config: FaultConfig,
    users: usize,
    table: Vec<u8>,
    ap_stall: Vec<bool>,
}

impl Default for FaultPlan {
    /// Same as [`FaultPlan::quiet`].
    fn default() -> FaultPlan {
        FaultPlan::quiet()
    }
}

/// Walks one seed stream's episodes over `frames` frames: while no episode
/// runs, each frame draws an onset with probability `rate`, and an onset
/// marks that frame and the `len - 1` after it. Returns the onsets.
fn episodes(
    mut rng: Rng,
    rate: f64,
    len: usize,
    frames: usize,
    mut mark: impl FnMut(usize),
) -> u64 {
    let (mut events, mut remaining) = (0u64, 0usize);
    for f in 0..frames {
        if remaining == 0 && rng.gen_bool(rate) {
            remaining = len;
            events += 1;
        }
        if remaining > 0 {
            mark(f);
            remaining -= 1;
        }
    }
    events
}

impl FaultPlan {
    /// An empty plan: no faults, any frame queries return the quiet frame.
    pub const fn quiet() -> FaultPlan {
        FaultPlan {
            config: FaultConfig::QUIET,
            users: 0,
            table: Vec::new(),
            ap_stall: Vec::new(),
        }
    }

    /// Generates the schedule for `frames` frames and `n_users` users.
    ///
    /// Deterministic in `(config, frames, n_users)`: per-class, per-user
    /// seed streams are drawn serially at generation time, never in the
    /// hot loop. Errors on invalid configs and on a `frames x n_users`
    /// table that does not fit a `usize`.
    pub fn generate(
        config: FaultConfig,
        frames: usize,
        n_users: usize,
    ) -> Result<FaultPlan, NetError> {
        let mut plan = FaultPlan::quiet();
        plan.regenerate(config, frames, n_users)?;
        Ok(plan)
    }

    /// Regenerates the schedule in place for a new `(config, frames,
    /// n_users)` domain. Produces exactly the schedule
    /// [`FaultPlan::generate`] would, but reuses the table — regeneration
    /// onto a domain no larger than one the plan held allocates nothing.
    pub fn regenerate(
        &mut self,
        config: FaultConfig,
        frames: usize,
        n_users: usize,
    ) -> Result<(), NetError> {
        config.validate()?;
        let cells = frames.checked_mul(n_users).ok_or_else(|| {
            NetError::InvalidFaultConfig(format!("{frames} frames x {n_users} users overflow"))
        })?;
        self.config = config;
        self.users = n_users;
        self.table.clear();
        self.table.resize(cells, 0);
        self.ap_stall.clear();
        self.ap_stall.resize(frames, false);
        let (table, seed) = (&mut self.table, config.seed);

        // Per-user classes, as `(rate, episode length)` in `STREAMS` order:
        // walk each user's own stream once.
        let episodic = [
            (config.outage_rate, config.outage_frames),
            (config.blockage_rate, config.blockage_frames),
            (config.loss_rate, 1),
            (config.decode_overrun_rate, 1),
        ];
        let mut events = [0u64; 4];
        for (((fault, stream), (rate, len)), events) in
            STREAMS.into_iter().zip(episodic).zip(&mut events)
        {
            if rate > 0.0 {
                for u in 0..n_users {
                    let rng = Rng::for_stream(seed, stream + u as u64);
                    let mark = |f: usize| table[f * n_users + u] |= fault as u8;
                    *events += episodes(rng, rate, len, frames, mark);
                }
            }
        }

        // AP stalls: one global stream.
        let mut stall_events = 0;
        if config.ap_stall_rate > 0.0 {
            let (rng, stalls) = (Rng::for_stream(seed, STREAM_AP_STALL), &mut self.ap_stall);
            let (rate, len) = (config.ap_stall_rate, config.ap_stall_frames);
            stall_events = episodes(rng, rate, len, frames, |f| stalls[f] = true);
        }

        // Scripted blackout window: a total outage for every user.
        if config.blackout_frames > 0 {
            let end = config.blackout_start.saturating_add(config.blackout_frames);
            let window = config.blackout_start.min(frames)..end.min(frames);
            for cell in &mut table[window.start * n_users..window.end * n_users] {
                *cell |= Fault::Outage as u8;
            }
        }

        if obs::enabled() {
            let [outage, blockage, loss, decode] = events;
            obs::add("faults.plan.outage_episodes", outage);
            obs::add("faults.plan.blockage_episodes", blockage);
            obs::add("faults.plan.ap_stalls", stall_events);
            obs::add("faults.plan.loss_frames", loss);
            obs::add("faults.plan.decode_overruns", decode);
        }
        Ok(())
    }

    /// The faults active at `frame` (the quiet frame beyond the schedule).
    pub fn at(&self, frame: usize) -> FrameFaults<'_> {
        match self.ap_stall.get(frame) {
            Some(&ap_stall) => FrameFaults {
                users: &self.table[frame * self.users..(frame + 1) * self.users],
                ap_stall,
            },
            None => FrameFaults::default(),
        }
    }

    /// `true` when the schedule injects nothing at all.
    pub fn is_quiet(&self) -> bool {
        self.table.iter().all(|&b| b == 0) && !self.ap_stall.contains(&true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stress() -> FaultConfig {
        FaultConfig::from_spec(
            "seed=9,outage=0.1:4,blockage=0.2:3,stall=0.05:2,loss=0.2,decode=0.1",
        )
        .unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(stress(), 120, 5).unwrap();
        let b = FaultPlan::generate(stress(), 120, 5).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_quiet(), "stress config injected nothing");
    }

    #[test]
    fn regenerate_matches_generate_across_domains() {
        // One plan regenerated across shifting (seed, frames, users)
        // domains must equal a fresh generation each time — including
        // shrinking, where stale frames and set bits must not leak.
        let mut plan = FaultPlan::generate(stress(), 120, 5).unwrap();
        for (seed, frames, users) in [(11u64, 60, 9), (12, 200, 3), (11, 10, 1), (13, 120, 5)] {
            let cfg = FaultConfig { seed, ..stress() };
            plan.regenerate(cfg, frames, users).unwrap();
            let fresh = FaultPlan::generate(cfg, frames, users).unwrap();
            assert_eq!(plan, fresh, "domain ({seed}, {frames}, {users})");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut other = stress();
        other.seed = 10;
        let a = FaultPlan::generate(stress(), 120, 5).unwrap();
        let b = FaultPlan::generate(other, 120, 5).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn classes_have_independent_streams() {
        // Turning loss on must not move the outage schedule.
        let mut with_loss = FaultConfig {
            outage_rate: 0.1,
            ..FaultConfig::default()
        };
        let without = FaultPlan::generate(with_loss, 200, 4).unwrap();
        with_loss.loss_rate = 0.5;
        let with = FaultPlan::generate(with_loss, 200, 4).unwrap();
        for f in 0..200 {
            for u in 0..4 {
                let (a, b) = (without.at(f), with.at(f));
                assert_eq!(
                    a.has(u, Fault::Outage),
                    b.has(u, Fault::Outage),
                    "frame {f}"
                );
            }
        }
    }

    #[test]
    fn outage_bursts_last_their_configured_length() {
        let cfg = FaultConfig {
            outage_rate: 0.05,
            outage_frames: 4,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(cfg, 400, 1).unwrap();
        // Every run of set bits has length >= 4 (back-to-back episodes may
        // concatenate to longer runs, never shorter).
        let mut run = 0usize;
        let mut runs = Vec::new();
        for f in 0..=400 {
            if f < 400 && plan.at(f).has(0, Fault::Outage) {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        assert!(!runs.is_empty(), "no bursts generated");
        assert!(runs.iter().all(|&r| r >= 4), "short burst in {runs:?}");
    }

    #[test]
    fn blackout_window_hits_every_user() {
        let cfg = FaultConfig {
            blackout_start: 10,
            blackout_frames: 5,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(cfg, 30, 3).unwrap();
        for f in 0..30 {
            let expect = (10..15).contains(&f);
            for u in 0..3 {
                assert_eq!(
                    plan.at(f).has(u, Fault::Outage),
                    expect,
                    "frame {f} user {u}"
                );
            }
        }
        // Recovery: nothing after the window.
        assert!(plan.at(20).is_quiet());
    }

    #[test]
    fn quiet_plan_and_out_of_range_queries() {
        let plan = FaultPlan::quiet();
        assert!(plan.is_quiet());
        assert!(plan.at(1_000).is_quiet());
        let generated = FaultPlan::generate(FaultConfig::default(), 50, 4).unwrap();
        assert!(generated.is_quiet());
        assert!(generated.at(999).is_quiet());
    }

    #[test]
    fn an_oversized_table_is_an_error_not_a_wrap() {
        let mut plan = FaultPlan::generate(stress(), 10, 3).unwrap();
        let before = plan.clone();
        for (frames, users) in [(usize::MAX, 2), (2, usize::MAX), (1 << 40, 1 << 40)] {
            let err = plan.regenerate(stress(), frames, users);
            assert!(matches!(err, Err(NetError::InvalidFaultConfig(_))));
        }
        assert_eq!(plan, before, "a refused domain leaves the plan as it was");
    }

    #[test]
    fn spec_parsing_round_trips() {
        let cfg = FaultConfig::from_spec(
            "seed=7, outage=0.02:6, blockage=0.05:4, stall=0.01:3, loss=0.03, decode=0.02, blackout=30:10",
        )
        .unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.outage_rate, 0.02);
        assert_eq!(cfg.outage_frames, 6);
        assert_eq!(cfg.blockage_rate, 0.05);
        assert_eq!(cfg.blockage_frames, 4);
        assert_eq!(cfg.ap_stall_rate, 0.01);
        assert_eq!(cfg.ap_stall_frames, 3);
        assert_eq!(cfg.loss_rate, 0.03);
        assert_eq!(cfg.decode_overrun_rate, 0.02);
        assert_eq!(cfg.blackout_start, 30);
        assert_eq!(cfg.blackout_frames, 10);
        assert!(FaultConfig::from_spec("").unwrap().is_quiet());
    }

    #[test]
    fn spec_errors_are_loud() {
        for bad in [
            "outage",       // no '='
            "outage=x",     // bad number
            "outage=0.5:x", // bad count
            "nosuch=1",     // unknown key
            "loss=0.5:3",   // loss takes no duration
            "decode=0.1:2", // decode takes no duration
            "blackout=5",   // blackout needs start:frames
            "seed=1:2",     // seed takes a single integer
            "outage=1.5",   // rate out of range
            "outage=-0.1",  // rate out of range
            "outage=inf",   // non-finite rate
            "outage=NaN",   // non-finite rate
            "outage=0.5:0", // zero-length episodes
            // Duplicate keys must fail loudly, not last-write-win: the
            // second value would silently decide the whole stress run.
            "outage=0.5,outage=0.1",
            "seed=1,seed=2",
            "loss=0.1, loss=0.1", // even identical duplicates are errors
        ] {
            assert!(
                matches!(
                    FaultConfig::from_spec(bad),
                    Err(NetError::InvalidFaultSpec(_)) | Err(NetError::InvalidFaultConfig(_))
                ),
                "spec '{bad}' should fail"
            );
        }
    }

    #[test]
    fn large_populations_are_supported() {
        // A campus-scale population generates, the blackout window covers
        // every user, and the schedule for the first 64 users is unchanged
        // by the extra population (each user owns its own RNG stream).
        let cfg = FaultConfig {
            outage_rate: 0.1,
            outage_frames: 2,
            blackout_start: 0,
            blackout_frames: 1,
            ..FaultConfig::default()
        };
        let big = FaultPlan::generate(cfg, 40, 500).unwrap();
        assert!(
            big.at(0).has(499, Fault::Outage),
            "blackout must hit user 499"
        );
        assert!(
            !big.at(0).has(500, Fault::Outage),
            "user 500 does not exist"
        );
        let small = FaultPlan::generate(cfg, 40, 64).unwrap();
        for f in 0..40 {
            for u in 0..64 {
                assert_eq!(
                    small.at(f).has(u, Fault::Outage),
                    big.at(f).has(u, Fault::Outage),
                    "frame {f} user {u}: schedule must not depend on population"
                );
            }
        }
    }
}
