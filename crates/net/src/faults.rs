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
//! Schedules are materialized once at generation time into per-frame
//! per-user bit sets ([`FrameFaults`], backed by the growable
//! [`BitSet`]), so queries in the hot loop
//! are word-indexed bit tests and the schedule cannot drift with
//! evaluation order. Each fault class and user draws from its own
//! [`Rng::for_stream`] stream, so enabling one class never perturbs
//! another's schedule, and plans scale to campus-sized populations —
//! there is no fixed user ceiling.
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
use volcast_util::bitset::BitSet;
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
    /// A quiet plan: every rate zero, episode lengths at their defaults so
    /// that turning a single rate on gives sensible bursts.
    fn default() -> Self {
        FaultConfig {
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
        }
    }
}

impl FaultConfig {
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

/// The faults active during one frame: per-user bit sets plus the global
/// AP-stall flag. The default value is the quiet frame. Membership sets
/// are growable [`BitSet`]s, so a frame scales to any population size.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameFaults {
    /// Users whose link is in a total outage this frame.
    pub outage: BitSet,
    /// Users with an injected blockage on their LoS this frame.
    pub blockage: BitSet,
    /// Users whose transmitted items are lost this frame.
    pub loss: BitSet,
    /// Users whose decoder misses its deadline this frame.
    pub decode_overrun: BitSet,
    /// The AP transmits nothing this frame.
    pub ap_stall: bool,
}

/// The quiet frame, shared by out-of-schedule and fault-free queries.
/// (`BitSet::new` is `const`, so this allocates nothing.)
static QUIET_FRAME: FrameFaults = FrameFaults {
    outage: BitSet::new(),
    blockage: BitSet::new(),
    loss: BitSet::new(),
    decode_overrun: BitSet::new(),
    ap_stall: false,
};

impl FrameFaults {
    /// A `'static` reference to the quiet frame — the allocation-free
    /// answer for queries beyond a plan's schedule or without any plan.
    pub fn quiet() -> &'static FrameFaults {
        &QUIET_FRAME
    }

    /// `true` when nothing is injected this frame.
    pub fn is_quiet(&self) -> bool {
        self.outage.is_empty()
            && self.blockage.is_empty()
            && self.loss.is_empty()
            && self.decode_overrun.is_empty()
            && !self.ap_stall
    }

    /// Link outage for `user` this frame.
    pub fn outage_for(&self, user: usize) -> bool {
        self.outage.contains(user)
    }

    /// Injected blockage for `user` this frame.
    pub fn blockage_for(&self, user: usize) -> bool {
        self.blockage.contains(user)
    }

    /// Transmission loss for `user` this frame.
    pub fn loss_for(&self, user: usize) -> bool {
        self.loss.contains(user)
    }

    /// Decode-deadline overrun for `user` this frame.
    pub fn decode_overrun_for(&self, user: usize) -> bool {
        self.decode_overrun.contains(user)
    }
}

/// Seed-stream ids for the fault classes (see [`Rng::for_stream`]): each
/// class and user owns stream `CLASS_BASE + user`, so schedules are stable
/// under any evaluation order and any thread count.
const STREAM_OUTAGE: u64 = 0x0100;
const STREAM_BLOCKAGE: u64 = 0x0200;
const STREAM_AP_STALL: u64 = 0x0300;
const STREAM_LOSS: u64 = 0x0400;
const STREAM_DECODE: u64 = 0x0500;

/// A materialized fault schedule: one [`FrameFaults`] per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The configuration the plan was generated from.
    pub config: FaultConfig,
    frames: Vec<FrameFaults>,
}

impl Default for FaultPlan {
    /// Same as [`FaultPlan::quiet`].
    fn default() -> FaultPlan {
        FaultPlan::quiet()
    }
}

impl FaultPlan {
    /// An empty plan: no faults, any frame queries return the quiet frame.
    pub fn quiet() -> FaultPlan {
        FaultPlan {
            config: FaultConfig::default(),
            frames: Vec::new(),
        }
    }

    /// Generates the schedule for `frames` frames and `n_users` users.
    ///
    /// Deterministic in `(config, frames, n_users)`: per-class, per-user
    /// seed streams are drawn serially at generation time, never in the
    /// hot loop. Errors on invalid configs. Populations of any size are
    /// supported — membership sets grow with `n_users`, and for 64 or
    /// fewer users the schedule is bit-identical to the plans generated by
    /// the historical fixed-width `u64` masks (the per-class, per-user RNG
    /// streams are consumed in the same order).
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
    /// [`FaultPlan::generate`] would, but reuses the frame vector and the
    /// per-frame bit-set words — steady-state regeneration over domains of
    /// similar size allocates nothing.
    pub fn regenerate(
        &mut self,
        config: FaultConfig,
        frames: usize,
        n_users: usize,
    ) -> Result<(), NetError> {
        config.validate()?;
        self.config = config;
        self.frames.truncate(frames);
        for mask in self.frames.iter_mut() {
            mask.outage.clear();
            mask.blockage.clear();
            mask.loss.clear();
            mask.decode_overrun.clear();
            mask.ap_stall = false;
        }
        self.frames.resize_with(frames, FrameFaults::default);
        let masks = &mut self.frames;

        // Episodic per-user classes: walk each user's own stream once.
        let mut episodes =
            |stream_base: u64, rate: f64, len: usize, pick: fn(&mut FrameFaults) -> &mut BitSet| {
                if rate <= 0.0 {
                    return 0u64;
                }
                let mut events = 0u64;
                for u in 0..n_users {
                    let mut rng = Rng::for_stream(config.seed, stream_base + u as u64);
                    let mut remaining = 0usize;
                    for mask in masks.iter_mut() {
                        if remaining == 0 && rng.gen_bool(rate) {
                            remaining = len;
                            events += 1;
                        }
                        if remaining > 0 {
                            pick(mask).insert(u);
                            remaining -= 1;
                        }
                    }
                }
                events
            };
        let outage_events = episodes(
            STREAM_OUTAGE,
            config.outage_rate,
            config.outage_frames,
            |m| &mut m.outage,
        );
        let blockage_events = episodes(
            STREAM_BLOCKAGE,
            config.blockage_rate,
            config.blockage_frames,
            |m| &mut m.blockage,
        );
        let loss_events = episodes(STREAM_LOSS, config.loss_rate, 1, |m| &mut m.loss);
        let decode_events = episodes(STREAM_DECODE, config.decode_overrun_rate, 1, |m| {
            &mut m.decode_overrun
        });

        // AP stalls: one global stream.
        let mut stall_events = 0u64;
        if config.ap_stall_rate > 0.0 {
            let mut rng = Rng::for_stream(config.seed, STREAM_AP_STALL);
            let mut remaining = 0usize;
            for mask in masks.iter_mut() {
                if remaining == 0 && rng.gen_bool(config.ap_stall_rate) {
                    remaining = config.ap_stall_frames;
                    stall_events += 1;
                }
                if remaining > 0 {
                    mask.ap_stall = true;
                    remaining -= 1;
                }
            }
        }

        // Scripted blackout window: a total outage for every user.
        if config.blackout_frames > 0 && n_users > 0 {
            let end = config.blackout_start.saturating_add(config.blackout_frames);
            for mask in masks
                .iter_mut()
                .take(end.min(frames))
                .skip(config.blackout_start)
            {
                mask.outage.insert_range(0..n_users);
            }
        }

        if obs::enabled() {
            obs::add("faults.plan.outage_episodes", outage_events);
            obs::add("faults.plan.blockage_episodes", blockage_events);
            obs::add("faults.plan.ap_stalls", stall_events);
            obs::add("faults.plan.loss_frames", loss_events);
            obs::add("faults.plan.decode_overruns", decode_events);
        }
        Ok(())
    }

    /// The faults active at `frame` (the quiet frame beyond the schedule).
    pub fn at(&self, frame: usize) -> &FrameFaults {
        self.frames.get(frame).unwrap_or(FrameFaults::quiet())
    }

    /// `true` when the schedule injects nothing at all.
    pub fn is_quiet(&self) -> bool {
        self.frames.iter().all(FrameFaults::is_quiet)
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
            assert_eq!(without.at(f).outage, with.at(f).outage, "frame {f}");
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
            if f < 400 && plan.at(f).outage_for(0) {
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
                assert_eq!(plan.at(f).outage_for(u), expect, "frame {f} user {u}");
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
        // The historical u64 masks capped plans at 64 users; the growable
        // BitSet removes the ceiling. A campus-scale population generates,
        // the blackout window covers every user, and the schedule for the
        // first 64 users is unchanged by the extra population (each user
        // owns its own RNG stream).
        let cfg = FaultConfig {
            outage_rate: 0.1,
            outage_frames: 2,
            blackout_start: 0,
            blackout_frames: 1,
            ..FaultConfig::default()
        };
        let big = FaultPlan::generate(cfg, 40, 500).unwrap();
        assert!(big.at(0).outage_for(499), "blackout must hit user 499");
        assert!(!big.at(0).outage_for(500), "user 500 does not exist");
        let small = FaultPlan::generate(cfg, 40, 64).unwrap();
        for f in 0..40 {
            for u in 0..64 {
                assert_eq!(
                    small.at(f).outage_for(u),
                    big.at(f).outage_for(u),
                    "frame {f} user {u}: schedule must not depend on population"
                );
            }
        }
    }
}
