//! End-to-end multi-user streaming sessions.
//!
//! [`StreamingSession::run`] drives the paper's cross-layer loop over the
//! simulated substrates, one named stage after another per frame:
//!
//! 1. **observe** user poses (from traces) into the joint multi-user
//!    predictor, and the bodies that can block a link,
//! 2. **forecast** poses one horizon ahead and who is body-blocked, and
//!    mitigate each blockage onset (proactive mode pre-steers to the best
//!    surviving path and prefetches; reactive mode serves one stale frame
//!    and pays a full sweep),
//! 3. **link rates**: the serving beam's RSS and unicast PHY rate per user,
//! 4. **visibility** maps per user over the frame's cell partition,
//! 5. **decide** quality and FEC rung per user (buffer-only /
//!    throughput-only / cross-layer ABR under the distress clamp),
//! 6. **plan**: group users by viewport similarity (`T_m(k)` model), design
//!    the group beams, and schedule multicast + unicast bursts — as
//!    single-stream payloads or base + enhancement layers,
//! 7. **recover**: bounded retransmit of lost bursts, AP-stall handling,
//! 8. **replay** the plan on the 802.11ad/ac MAC model,
//! 9. **playout and adapt**: client buffers, decode time, stalls, QoE,
//!    distress, and the ABR's throughput feedback.
//!
//! The same pipeline runs the two baselines: **vanilla** (full frames,
//! unicast) and **multi-user ViVo** (visibility-culled, unicast), so every
//! comparison in the bench harness shares one code path.

use crate::bandwidth::CrossLayerInputs;
use crate::config::{SystemConfig, AIRTIME_BUDGET_INTERVALS};
use crate::error::VolcastError;
use crate::grouping::{Group, GroupPlanner, GroupSearch, GroupingInputs};
use crate::mitigation::{BlockageMitigator, MitigationAction, MitigationMode};
use crate::player::PlayerKind;
use crate::qoe::QoeReport;
use crate::rate_adapt::{AbrPolicy, Distress, FecRung, GroupState, RateAdapter};
use std::cell::RefCell;
use std::sync::Arc;
use volcast_geom::{Pose, Vec3};
use volcast_mmwave::{BeamDesign, Blocker, Channel, Codebook, McsTable, SweepEngine, SweepRx};
use volcast_net::{
    AcMac, AdMac, BacklogPolicy, Fault, FaultConfig, FaultPlan, FrameFaults, MacModel, PlanLog,
    PlanTiming, SimScratch, SimTime, Simulator, TxItem, Wifi5Channel,
};
use volcast_pointcloud::{CellGrid, CellInfo, DecodeModel, QualityLevel, VideoSequence};
use volcast_util::obs;
use volcast_viewport::{
    BlockageEvent, BlockageForecaster, DeviceClass, JointPredictor, Occluders, Trace,
    TraceGenerator, VisibilityComputer, VisibilityMap, VisibilityOptions,
};

/// Which radio the session runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioKind {
    /// 802.11ad at 60 GHz: directional beams, body blockage, multicast at
    /// the group's common MCS under a designed beam (the paper's system).
    MmWave,
    /// 802.11ac at 5 GHz: quasi-omni, mild body shadowing, group-addressed
    /// frames at a slow legacy basic rate (the Table 1 baseline network).
    Wifi5,
}

/// How frame payloads are laid onto the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// One single-stream payload per user (the pre-layered pipeline).
    Single,
    /// Layered progressive delivery: the octree base layer is multicast to
    /// the whole group at the ladder's floor quality, enhancement layers
    /// are unicast per user within the airtime budget, and distressed
    /// users' bursts carry proactive XOR parity (see `volcast_net::fec`).
    /// A user whose enhancements miss the deadline renders the base
    /// instead of stalling. Takes effect for the volcast player; the
    /// vanilla/ViVo baselines have no layered bitstream and ignore it.
    Layered,
}

/// Frame-scoped multicast beam state of a mmWave Volcast session: every
/// user's receiver is located once per frame (enough for its rate cap) and
/// swept only when a design first needs it, and every distinct
/// member set is designed at most once per frame — and only when the
/// grouping search, led by `rate_caps`, finds its merge can win; the
/// scheduler afterwards reads the winners' `customized` bit from the same
/// memo.
struct GroupBeams<'a> {
    engine: SweepEngine<'a>,
    mcs: &'a McsTable,
    /// `false` (ablation): groups ride the best common default sector.
    custom_beams: bool,
    /// One receiver slot per user, re-located in place every frame.
    rxs: Vec<SweepRx>,
    /// Per user, the PHY rate at [`SweepRx::rss_cap_dbm`]: no group beam,
    /// designed or default, serves a set faster than its slowest member's.
    rate_caps: Vec<f64>,
    /// The frame's designed member sets, each `words` words of one bit per
    /// user, and their (multicast PHY rate in Mbps, customized); reserved
    /// for every set a search can score (fewer than `users²`) plus the
    /// severed ones, cleared every frame.
    memo_keys: Vec<u64>,
    memo: Vec<(f64, bool)>,
    words: usize,
    design: BeamDesign,
    /// Joint-sweep scratch of the `!custom_beams` path.
    tmp: Vec<f64>,
}

impl<'a> GroupBeams<'a> {
    fn new(engine: SweepEngine<'a>, mcs: &'a McsTable, custom_beams: bool, users: usize) -> Self {
        let channel = engine.channel();
        let sectors = engine.codebook().len();
        let rx = || SweepRx::with_capacity(channel.max_paths(), sectors);
        let (words, sets) = (users.div_ceil(64).max(1), users * users + users);
        GroupBeams {
            rxs: (0..users).map(|_| rx()).collect(),
            engine,
            mcs,
            custom_beams,
            rate_caps: Vec::with_capacity(users),
            memo_keys: Vec::with_capacity(sets * words),
            memo: Vec::with_capacity(sets),
            words,
            design: BeamDesign::with_capacity(users, sectors),
            tmp: Vec::with_capacity(sectors),
        }
    }

    /// Starts a frame: locates user `u`'s receiver at `positions[u]`
    /// against *all* bodies, group members included (joining a group does
    /// not move anyone's body), takes its rate cap, and forgets last frame's
    /// designs. The channel's endpoint guard drops each receiver's own
    /// cylinder from the legs that end at them — but not from a
    /// reflection's first leg, which a receiver standing between the AP and
    /// the bounce point shadows with their own body here (`link_rates`
    /// filters it out). Books the `path_cache_misses` a full prepare would.
    fn begin_frame(&mut self, positions: impl Iterator<Item = Vec3>, bodies: &[Blocker]) {
        self.rate_caps.clear();
        let channel = self.engine.channel();
        for (rx, pos) in self.rxs.iter_mut().zip(positions) {
            obs::inc("mmwave.designer.path_cache_misses");
            rx.locate(channel, pos, bodies);
            self.rate_caps
                .push(self.mcs.phy_rate_mbps(rx.rss_cap_dbm()));
        }
        self.memo_keys.clear();
        self.memo.clear();
    }

    /// An upper bound on `group(members).0` that designs nothing: the MCS
    /// table is monotone in RSS and a multicast rate is its weakest
    /// member's.
    fn rate_cap(&self, members: &[usize]) -> f64 {
        let caps = members.iter().map(|&u| self.rate_caps[u]);
        caps.fold(f64::INFINITY, f64::min)
    }

    /// `(multicast rate, customized)` of a member set under its group
    /// beam, designed on the first request of the frame — which first
    /// sweeps any member no earlier design has.
    fn group(&mut self, members: &[usize]) -> (f64, bool) {
        if let Some(e) = self.designed(members) {
            return self.memo[e];
        }
        for &u in members {
            let rx = &mut self.rxs[u];
            if !rx.is_swept() {
                rx.sweep(&self.engine);
            }
        }
        let design = &mut self.design;
        if self.custom_beams {
            self.engine.design(&mut self.rxs, members, design);
        } else {
            design.customized = false;
            let rss = &mut design.member_rss_dbm;
            design.sector = self
                .engine
                .best_joint(&mut self.rxs, members, &mut self.tmp, rss);
        }
        let entry = (
            self.mcs.multicast_rate_mbps(&design.member_rss_dbm),
            design.customized,
        );
        self.memo_keys
            .extend((0..self.words).map(|w| Self::key(members, w)));
        self.memo.push(entry);
        entry
    }

    /// Word `w` of the key of `members`.
    fn key(members: &[usize], w: usize) -> u64 {
        let bits = members.iter().filter(|&&u| u / 64 == w);
        bits.fold(0, |key, &u| key | 1 << (u % 64))
    }

    /// Where the memo holds `members`, if it does.
    fn designed(&self, members: &[usize]) -> Option<usize> {
        let mut keys = self.memo_keys.chunks_exact(self.words);
        keys.position(|key| (0..self.words).all(|w| key[w] == Self::key(members, w)))
    }
}

/// Session parameters.
#[derive(Debug, Clone)]
pub struct SessionParams {
    /// Shared system configuration.
    pub config: SystemConfig,
    /// Which player the users run.
    pub player: PlayerKind,
    /// Rate-adaptation policy.
    pub abr: AbrPolicy,
    /// Blockage-mitigation mode.
    pub mitigation: MitigationMode,
    /// Fixed quality (bypasses ABR) or `None` for adaptive.
    pub fixed_quality: Option<QualityLevel>,
    /// Number of frames to run.
    pub frames: usize,
    /// Point density used for visibility/cell analysis. Cell byte sizes
    /// are rescaled to the chosen quality's full density, so this only
    /// trades analysis resolution for speed.
    pub analysis_points: usize,
    /// Use customized multi-lobe beams for multicast (ablation knob).
    pub custom_beams: bool,
    /// Plan on predicted poses (`true`, the paper's design) or oracle
    /// current poses (`false`, upper bound).
    pub use_prediction: bool,
    /// Whether other users' bodies block mmWave links.
    pub body_blockage: bool,
    /// The radio technology (mmWave 802.11ad or baseline 802.11ac).
    pub radio: RadioKind,
    /// Deterministic fault injection, or `None` for a fault-free run.
    pub faults: Option<FaultConfig>,
    /// Single-stream or layered progressive delivery.
    pub delivery: DeliveryMode,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            config: SystemConfig::default(),
            player: PlayerKind::Volcast,
            abr: AbrPolicy::CrossLayer,
            mitigation: MitigationMode::Proactive,
            fixed_quality: None,
            frames: 90,
            analysis_points: 15_000,
            custom_beams: true,
            use_prediction: true,
            body_blockage: true,
            radio: RadioKind::MmWave,
            faults: None,
            delivery: DeliveryMode::Single,
        }
    }
}

impl SessionParams {
    /// Validates the parameters, surfacing what used to be deep-loop
    /// panics (or silent nonsense) as errors: a session needs at least one
    /// frame, a positive frame interval, a nonzero analysis density, a
    /// positive finite cell size, a predictor window of at least two
    /// samples, a similarity gate that can compare, and a well-formed fault
    /// configuration.
    pub fn validate(&self) -> Result<(), VolcastError> {
        if self.frames == 0 {
            return Err(VolcastError::InvalidParams("frames must be >= 1".into()));
        }
        if self.analysis_points == 0 {
            return Err(VolcastError::InvalidParams(
                "analysis_points must be >= 1".into(),
            ));
        }
        let interval = self.config.frame_interval_s();
        if !(interval > 0.0 && interval.is_finite()) {
            return Err(VolcastError::InvalidParams(format!(
                "frame interval {interval} s (target_fps {}) must be positive and finite",
                self.config.target_fps
            )));
        }
        let cell_size = self.config.cell_size;
        if !(cell_size > 0.0 && cell_size.is_finite()) {
            return Err(VolcastError::InvalidParams(format!(
                "cell_size {cell_size} m must be positive and finite"
            )));
        }
        let window = self.config.predictor_window;
        if window < 2 {
            // A line through fewer than two samples has no slope.
            return Err(VolcastError::InvalidParams(format!(
                "predictor_window {window} must hold at least 2 samples"
            )));
        }
        if self.config.min_merge_iou.is_nan() {
            // `iou < NaN` is never true: the gate would silently be off.
            return Err(VolcastError::InvalidParams(
                "min_merge_iou must be a number".into(),
            ));
        }
        if let Some(cfg) = &self.faults {
            cfg.validate()?;
        }
        Ok(())
    }
}

/// Aggregated outcome of a session run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Per-user and aggregate QoE.
    pub qoe: QoeReport,
    /// Mean per-frame transmission time (seconds).
    pub mean_frame_time_s: f64,
    /// Fraction of delivered bytes that rode multicast.
    pub multicast_byte_fraction: f64,
    /// Mean multicast group size (1.0 = pure unicast).
    pub mean_group_size: f64,
    /// Fraction of multicast transmissions using customized beams.
    pub customized_beam_fraction: f64,
    /// Count of frames during which some user's link was body-blocked.
    pub blocked_user_frames: usize,
    /// Mean viewport-prediction translation error (meters), when
    /// prediction was active.
    pub mean_prediction_error_m: f64,
    /// Network-only pipelined view: fraction of (user, frame) payloads that
    /// completed within their frame slot when the per-frame plans run
    /// back-to-back through the event-driven simulator with live (drop)
    /// semantics. Ignores client buffers/decode — it isolates how much the
    /// *schedule itself* fits the medium.
    pub pipelined_on_time_ratio: f64,
    /// Count of (user, frame) pairs hit by an injected fault (outage,
    /// blockage, loss, decode overrun, or an AP stall covering everyone).
    /// 0 for fault-free runs.
    pub fault_user_frames: usize,
    /// Of [`fault_user_frames`](Self::fault_user_frames), how many still
    /// rendered on time — absorbed by the degradation ladder (buffer
    /// playback, retransmit, quality fall-down) rather than stalling.
    pub recovered_user_frames: usize,
}

/// The end-to-end session.
pub struct StreamingSession {
    /// Parameters.
    pub params: SessionParams,
    /// Per-user 6DoF traces (all the same length >= `params.frames`).
    pub traces: Vec<Trace>,
    /// The video content.
    pub video: VideoSequence,
    /// The mmWave channel (room + AP array).
    pub channel: Channel,
    /// The default sector codebook.
    pub codebook: Codebook,
    /// 802.11ad MAC model.
    pub mac: AdMac,
    /// 802.11ac MAC model (used when `params.radio` is `Wifi5`).
    pub ac_mac: AcMac,
    /// 5 GHz channel (used when `params.radio` is `Wifi5`).
    pub wifi5: Wifi5Channel,
    /// DMG MCS table.
    pub mcs: McsTable,
    /// VHT MCS table for the 802.11ac baseline.
    pub vht: McsTable,
    /// Client decode model.
    pub decode: DecodeModel,
    /// Ambient (non-viewer) people walking through the room: pure blockers.
    /// Their motion comes from traces; walker motion is near-linear, so the
    /// proactive mitigator is modeled as forecasting their crossings
    /// accurately (prefetch + pre-steered beam land at the onset).
    pub walkers: Vec<Trace>,
}

impl StreamingSession {
    /// Builds a session with default substrates.
    pub fn new(params: SessionParams, traces: Vec<Trace>) -> Self {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        StreamingSession {
            params,
            traces,
            video: VideoSequence::default(),
            channel,
            codebook,
            mac: AdMac::default(),
            ac_mac: AcMac::default(),
            wifi5: Wifi5Channel::default(),
            mcs: McsTable::dmg(),
            vht: McsTable::vht80_2ss(),
            decode: DecodeModel::default(),
            walkers: Vec::new(),
        }
    }

    /// Runs the session, returning aggregate QoE and system statistics.
    ///
    /// Errors — instead of panicking deep in the frame loop — on invalid
    /// [`SessionParams`] (see [`SessionParams::validate`]), degenerate
    /// traces (no users, an empty trace, a non-finite pose), or an
    /// out-of-range fault configuration.
    pub fn run(&mut self) -> Result<SessionOutcome, VolcastError> {
        self.run_with(|_, _, _| {})
    }

    /// [`run`](Self::run), showing `played` every frame's arena once it has
    /// played out: the one frame loop, each stage in a span in the frame's.
    fn run_with(
        &self,
        mut played: impl FnMut(&Pipeline<'_>, FrameFaults<'_>, &Arena),
    ) -> Result<SessionOutcome, VolcastError> {
        let fault_plan = self.checked_fault_plan()?;
        let p = Pipeline::new(self, &fault_plan);
        let mut a = Arena::new(&p);
        for f in 0..self.params.frames {
            let _frame_span = obs::span("session.frame");
            obs::inc("session.frames");
            let faults = p.frame_faults(f);
            staged("session.observe", || p.observe(f, &mut a));
            staged("session.forecast", || p.forecast(f, faults, &mut a));
            staged("session.link_rates", || p.link_rates(faults, &mut a));
            staged("session.visibility", || p.visibility(f, &mut a));
            staged("session.decide", || p.decide(&mut a));
            staged("session.plan", || p.plan(faults, &mut a));
            staged("session.recover", || p.recover(faults, &mut a));
            staged("session.replay", || p.replay(&mut a));
            staged("session.playout", || p.playout(faults, &mut a));
            played(&p, faults, &a);
        }
        p.finish(a)
    }

    /// Validates parameters and traces, then materializes the fault
    /// schedule: one shared, immutable plan consulted by the frame loop
    /// and the pipelined replay.
    fn checked_fault_plan(&self) -> Result<FaultPlan, VolcastError> {
        self.params.validate()?;
        validate_traces(&self.traces)?;
        for (w, trace) in self.walkers.iter().enumerate() {
            check_trace("walker", w, trace)?;
        }
        match &self.params.faults {
            Some(cfg) => FaultPlan::generate(*cfg, self.params.frames, self.traces.len())
                .map_err(VolcastError::Net),
            None => Ok(FaultPlan::quiet()),
        }
    }
}

/// Whether `traces` can drive a session: at least one user, and every
/// trace non-empty with finite poses.
pub fn validate_traces(traces: &[Trace]) -> Result<(), VolcastError> {
    if traces.is_empty() {
        return Err(VolcastError::InvalidTraces("no user traces".into()));
    }
    for (u, trace) in traces.iter().enumerate() {
        check_trace("user", u, trace)?;
    }
    Ok(())
}

/// Refuses an empty trace, and one with a non-finite position or
/// orientation component (a study's `null` loads as NaN), naming the
/// trace and the sample: such a pose reaches every stage as NaN.
fn check_trace(who: &str, i: usize, trace: &Trace) -> Result<(), VolcastError> {
    if trace.is_empty() {
        return Err(VolcastError::InvalidTraces(format!(
            "{who} {i} has an empty trace"
        )));
    }
    match trace.poses.iter().position(|pose| !pose.is_finite()) {
        Some(s) => Err(VolcastError::InvalidTraces(format!(
            "{who} {i} has a non-finite pose at sample {s}"
        ))),
        None => Ok(()),
    }
}

/// Runs one stage of the frame loop under its own span, inside the frame's:
/// the ledger's answer to "which stage is the frame's time in".
fn staged<T>(name: &'static str, stage: impl FnOnce() -> T) -> T {
    let _stage_span = obs::span(name);
    stage()
}

/// Everything a run owns that changes: the state carried from frame to
/// frame, the frame's rows and the scratch each stage hands to the next,
/// and the outcome tallies. Allocated once; the per-frame vectors are
/// cleared (never freed) every frame, so the steady-state loop does not
/// churn the allocator.
struct Arena {
    // --- carried across frames ---
    joint: JointPredictor,
    adapter: RateAdapter,
    qoe: QoeReport,
    /// Client buffer depth in frames (starts with a 2-frame startup buffer).
    buffers: Vec<f64>,
    /// Last frame's `UserFrame::blocked` (copied after `decide`).
    blocked_prev: Vec<bool>,
    /// Degradation-ladder state (see DESIGN.md): per-user distress drives
    /// the quality fall-down, the FEC rung and the enhancement watermark.
    distress: Vec<Distress>,
    /// Every frame's plan, for the pipelined replay; the frame's own is
    /// the last.
    log: PlanLog,
    /// One row per user, reset when the frame starts.
    rows: Vec<UserFrame>,
    // --- observe ---
    poses: Vec<Pose>,
    walker_pos: Vec<Vec3>,
    /// Bodies that block links. Layout: users first, then walkers.
    all_blockers: Vec<Blocker>,
    // --- forecast ---
    planning_poses: Vec<Pose>,
    blockage_events: Vec<BlockageEvent>,
    mitigation_actions: Vec<MitigationAction>,
    // --- link rates ---
    /// The one receiver every link evaluation (serving beams here, the
    /// reactive stale-beam probe in `plan`) re-locates in place, with the
    /// blocker list it runs on.
    link_rx: SweepRx,
    link_blockers: Vec<Blocker>,
    /// Per user: a vector, because `GroupingInputs` reads it as a slice.
    unicast_phy: Vec<f64>,
    // --- visibility ---
    /// The frame's entry of the video's cell manifest (shared, not owned).
    partition: Arc<[CellInfo]>,
    /// The partition's occluders, indexed once for every user's map.
    occluders: Occluders,
    /// One map per user, refilled in place.
    maps: Vec<VisibilityMap>,
    /// Analysis-density size of every partition cell.
    unit_sizes: Vec<f64>,
    /// `unit_sizes` at the quality the planner prices the frame at.
    cell_sizes: Vec<f64>,
    // --- plan ---
    /// The grouping search's storage; its plan's groups are the frame's.
    search: GroupSearch,
    // --- replay ---
    timing: PlanTiming,

    tally: Tally,
}

/// What happened to one user in one frame. Each stage writes the fields
/// under its name; later stages, the tallies and the pipeline referee read
/// them.
#[derive(Clone, Copy, Debug, PartialEq)]
struct UserFrame {
    // --- forecast ---
    /// LoS blocked right now, by a body or an injected episode.
    blocked: bool,
    beam_outage: f64,
    extra_prefetch: usize,
    /// Reactive mode: the burst goes out on the stale beam and is lost.
    wasted_tx: bool,
    // --- link rates ---
    rss: f64,
    // --- visibility ---
    /// Analysis-density bytes the user's viewport needs.
    member_unit: f64,
    needed_fraction: f64,
    // --- decide ---
    quality: QualityLevel,
    fec_rung: FecRung,
    // --- plan ---
    /// Index into the frame's `groups` (the unicast baselines form none).
    group: Option<usize>,
    /// Quality delivered: pulled down to the group's, or to the base.
    effective_quality: QualityLevel,
    unserved: bool,
    needed_bytes: f64,
    /// Beam-switch outage not yet charged to one of the user's bursts.
    outage_pending: f64,
    /// Some scheduled burst carries parity: a single loss repairs locally.
    fec_protected: bool,
    /// The plan item holding the user's base layer (layered arm only).
    base_item: Option<usize>,
    // --- recover ---
    retransmitted: bool,
    // --- replay ---
    /// Some item of the frame's plan reached the user.
    addressed: bool,
    // --- playout ---
    /// An injected fault hit the user: one of theirs, or an AP stall.
    faulted: bool,
    outcome: Outcome,
}

impl Default for UserFrame {
    fn default() -> Self {
        UserFrame {
            blocked: false,
            beam_outage: 0.0,
            extra_prefetch: 0,
            wasted_tx: false,
            rss: 0.0,
            member_unit: 0.0,
            needed_fraction: 0.0,
            quality: QualityLevel::Low,
            fec_rung: FecRung::Off,
            group: None,
            effective_quality: QualityLevel::Low,
            unserved: false,
            needed_bytes: 0.0, // zero-need users are trivially served
            outage_pending: 0.0,
            fec_protected: false,
            base_item: None,
            retransmitted: false,
            addressed: false,
            faulted: false,
            outcome: Outcome::InSlot,
        }
    }
}

/// Running sums behind the [`SessionOutcome`] aggregates; per-user counts fold rows.
#[derive(Default)]
struct Tally {
    total_bytes: f64,
    multicast_bytes: f64,
    frame_time_sum: f64,
    group_size_sum: f64,
    group_count: usize,
    multicast_groups: usize,
    customized_groups: usize,
    blocked_user_frames: usize,
    pred_err_sum: f64,
    pred_err_count: usize,
    fault_user_frames: usize,
    recovered_user_frames: usize,
    addressed_user_frames: usize,
}

impl Arena {
    /// Everything a run of `p` needs, sized from its user and frame counts.
    fn new(p: &Pipeline<'_>) -> Arena {
        let (n, frames) = (p.n, p.s.params.frames);
        let mut qoe = QoeReport::new(n);
        for user in &mut qoe.users {
            user.qualities.reserve(frames);
        }
        // A frame's plan has per user at most a reactive probe, a retransmit
        // and two unicast legs, plus fewer multicasts than users.
        let (per_frame, bodies) = (5 * n, n + p.s.walkers.len());
        Arena {
            joint: JointPredictor::new(n, p.cfg.predictor_window, Default::default()),
            adapter: RateAdapter::new(p.s.params.abr, n),
            qoe,
            buffers: vec![2.0; n],
            blocked_prev: vec![false; n],
            distress: vec![Distress::calm(); n],
            log: PlanLog::with_capacity(frames, per_frame, per_frame),
            rows: vec![UserFrame::default(); n],
            poses: Vec::with_capacity(n),
            walker_pos: Vec::with_capacity(p.s.walkers.len()),
            all_blockers: Vec::with_capacity(bodies),
            planning_poses: Vec::with_capacity(n),
            blockage_events: Vec::with_capacity(n),
            mitigation_actions: Vec::with_capacity(n),
            link_rx: SweepRx::with_capacity(p.s.channel.max_paths(), 0),
            link_blockers: Vec::with_capacity(bodies),
            unicast_phy: Vec::with_capacity(n),
            partition: Arc::from(Vec::new()),
            occluders: Occluders::default(),
            maps: vec![VisibilityMap::default(); n],
            unit_sizes: Vec::new(),
            cell_sizes: Vec::new(),
            search: GroupSearch::default(),
            timing: PlanTiming {
                item_completion_s: Vec::with_capacity(per_frame),
                user_completion_s: Vec::with_capacity(n),
                total_s: 0.0,
            },
            tally: Tally::default(),
        }
    }

    /// The frame's plan (the log's last frame): items with receivers.
    fn plan(&self) -> impl ExactSizeIterator<Item = (&TxItem, &[usize])> + Clone {
        self.log.frame(self.log.frames() - 1)
    }
}

/// `classify`'s five branches: how a frame meets the client's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// Ready within its slot: the spare airtime prefetches ahead.
    InSlot,
    /// Late, and the buffer covers the deficit.
    Absorbed,
    /// Late past what the buffer holds: a stall for the remainder.
    Stalled,
    /// Never arrives, and a buffered frame plays instead.
    FromBuffer,
    /// Never arrives, and the buffer is empty: a stall of a whole interval.
    Starved,
}

impl Outcome {
    fn on_time(self) -> bool {
        matches!(self, Self::InSlot | Self::Absorbed | Self::FromBuffer)
    }
}

/// How one delivery candidate plays out against the client buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Playout {
    outcome: Outcome,
    stall_s: f64,
    /// The buffer's next value, in frames.
    buffer: f64,
}

/// Playout bookkeeping for a frame that is ready `t_eff` seconds into its
/// slot (infinite: it never arrives) at a client holding `buf` frames.
fn classify(t_eff: f64, buf: f64, interval: f64, buf_cap: f64) -> Playout {
    let deficit = (t_eff - interval) / interval; // frames
    let (outcome, stall_s, buffer) = if !t_eff.is_finite() && buf >= 1.0 {
        (Outcome::FromBuffer, 0.0, buf - 1.0)
    } else if !t_eff.is_finite() {
        (Outcome::Starved, interval, 0.0)
    } else if t_eff <= interval {
        let spare = (interval - t_eff) / interval;
        (Outcome::InSlot, 0.0, (buf + spare).min(buf_cap))
    } else if buf >= deficit {
        (Outcome::Absorbed, 0.0, buf - deficit)
    } else {
        (Outcome::Stalled, (deficit - buf) * interval, 0.0)
    };
    Playout {
        outcome,
        stall_s,
        buffer,
    }
}

/// Graceful degradation, rung 3: multicast re-planning. A member in an
/// injected outage cannot receive the group's burst — drop them from their
/// group so the multicast item doesn't (falsely) mark them complete, and
/// carry them on as zero-priced singletons whose unicast leg the admission
/// control defers while the outage lasts. The surviving members'
/// shared-byte figure is kept (the overlap of a subset is a superset — the
/// planner's price is a safe underestimate of the sharing). Groups stay a
/// partition of the users, in canonical (member-sorted) order.
fn sever_outaged(search: &mut GroupSearch, outaged: impl Fn(usize) -> bool) {
    let (groups, severed) = (&mut search.plan.groups, &mut search.buf);
    severed.clear();
    for g in groups.iter_mut() {
        if g.members.iter().any(|&u| outaged(u)) {
            severed.extend(g.members.iter().filter(|&&u| outaged(u)));
            g.members.retain(|&u| !outaged(u));
            obs::inc("session.degrade.regrouped_groups");
        }
    }
    if severed.is_empty() {
        return;
    }
    // Emptied groups sort first; their vectors carry the severed users.
    groups.sort_unstable_by(|a, b| a.members.cmp(&b.members));
    let emptied = groups.iter().take_while(|g| g.members.is_empty()).count();
    search
        .spare
        .extend(groups.drain(..emptied).map(|g| g.members));
    severed.sort_unstable();
    for &u in severed.iter() {
        let mut members = search.spare.pop().unwrap_or_default();
        members.clear();
        members.push(u);
        groups.push(Group::unpriced(members));
    }
    groups.sort_unstable_by(|a, b| a.members.cmp(&b.members));
}

/// A plan-stage arm: lays one planner group onto the medium.
type GroupArm<'a> = fn(&Pipeline<'a>, &Group, QualityLevel, &mut Arena);

/// What a run reads but never changes: the session's substrates plus
/// everything derived once from its parameters. Its methods are the
/// stages of the frame loop, in the order [`StreamingSession::run`] calls
/// them.
struct Pipeline<'a> {
    s: &'a StreamingSession,
    n: usize,
    cfg: SystemConfig,
    interval: f64,
    /// Admission control: the scheduler never admits a burst whose airtime
    /// alone exceeds this (see `config::AIRTIME_BUDGET_INTERVALS`);
    /// deeply faded MCS0-trickle bursts are deferred instead of poisoning
    /// every other user's frame.
    airtime_budget_s: f64,
    /// The session radio's MAC.
    mac: &'a dyn MacModel,
    is_wifi5: bool,
    mcs_table: &'a McsTable,
    fault_plan: &'a FaultPlan,
    /// The degradation ladder only engages on faulted runs, so fault-free
    /// sessions behave bit-identically to a build without it.
    have_faults: bool,
    /// Layered progressive delivery needs the layered bitstream and the
    /// multicast scheduler: volcast-player sessions only. Read where the
    /// plan is built; everything downstream reads what the plan produced.
    layered: bool,
    /// Layered streams buffer twice as deep: a prefetched base frame is
    /// quality-invariant (the enhancement decision is made at play time,
    /// not fetch time), so progressive delivery can hold twice the
    /// single-stream motion-to-photon window without the quality-switch
    /// waste that caps single-stream prefetch — the SVC deep-buffer
    /// argument, and the mechanism by which the FEC ladder's goodput
    /// savings convert into stall headroom.
    buf_cap: f64,
    grid: CellGrid,
    planner: GroupPlanner,
    mitigator: BlockageMitigator,
    forecaster: BlockageForecaster,
    /// Multicast beams exist only where the scheduler forms groups over a
    /// beam-steered radio.
    group_beams: Option<RefCell<GroupBeams<'a>>>,
}

impl<'a> Pipeline<'a> {
    fn new(s: &'a StreamingSession, fault_plan: &'a FaultPlan) -> Self {
        let n = s.traces.len();
        let cfg = s.params.config;
        let interval = cfg.frame_interval_s();
        let is_wifi5 = s.params.radio == RadioKind::Wifi5;
        let volcast = matches!(s.params.player, PlayerKind::Volcast);
        let layered = s.params.delivery == DeliveryMode::Layered && volcast;
        let buffer_capacity = cfg.buffer_capacity_frames as f64;
        Pipeline {
            s,
            n,
            cfg,
            interval,
            airtime_budget_s: AIRTIME_BUDGET_INTERVALS * interval,
            mac: if is_wifi5 { &s.ac_mac } else { &s.mac },
            is_wifi5,
            mcs_table: if is_wifi5 { &s.vht } else { &s.mcs },
            fault_plan,
            have_faults: !fault_plan.is_quiet(),
            layered,
            buf_cap: if layered {
                2.0 * buffer_capacity
            } else {
                buffer_capacity
            },
            grid: CellGrid::new(cfg.cell_size),
            planner: GroupPlanner::new(cfg),
            mitigator: BlockageMitigator::new(s.params.mitigation),
            forecaster: BlockageForecaster::new(s.channel.array.position),
            group_beams: (volcast && !is_wifi5).then(|| {
                RefCell::new(GroupBeams::new(
                    SweepEngine::new(&s.channel, &s.codebook),
                    &s.mcs,
                    s.params.custom_beams,
                    n,
                ))
            }),
        }
    }

    /// The faults injected this frame (the quiet frame on fault-free runs).
    fn frame_faults(&self, f: usize) -> FrameFaults<'a> {
        let faults = self.fault_plan.at(f);
        if obs::enabled() && !faults.is_quiet() {
            for (name, fault) in [
                ("session.faults.outage_user_frames", Fault::Outage),
                ("session.faults.blockage_user_frames", Fault::Blockage),
                ("session.faults.loss_user_frames", Fault::Loss),
                ("session.faults.decode_overruns", Fault::DecodeOverrun),
            ] {
                obs::add(name, faults.count(fault) as u64);
            }
            if faults.ap_stall {
                obs::inc("session.faults.ap_stall_frames");
            }
        }
        faults
    }

    /// Stage 1 — observe: blank rows, current poses into the joint
    /// predictor, and the bodies (users, walkers) that can block a link.
    fn observe(&self, f: usize, a: &mut Arena) {
        a.rows.fill(UserFrame::default());
        a.poses.clear();
        a.poses.extend(self.s.traces.iter().map(|t| t.pose(f)));
        a.joint.observe_frame(&a.poses);
        a.walker_pos.clear();
        a.walker_pos
            .extend(self.s.walkers.iter().map(|w| w.pose(f).position));
        a.all_blockers.clear();
        if self.s.params.body_blockage {
            a.all_blockers.extend(
                a.poses
                    .iter()
                    .map(|p| p.position)
                    .chain(a.walker_pos.iter().copied())
                    .map(Blocker::person),
            );
        }
    }

    /// Stage 2 — forecast and mitigate: planning poses one horizon ahead
    /// (or, as fallback, the observed ones), who is body-blocked right
    /// now, and what the mitigation mode does about each onset.
    fn forecast(&self, f: usize, faults: FrameFaults<'_>, a: &mut Arena) {
        let horizon = self.cfg.prediction_horizon;
        let have_prediction = self.s.params.use_prediction
            && a.joint.predict_frame_into(horizon, &mut a.planning_poses);
        if !have_prediction {
            a.planning_poses.clear();
            a.planning_poses.extend_from_slice(&a.poses);
        } else if horizon < self.s.params.frames - f {
            for (p, trace) in a.planning_poses.iter().zip(&self.s.traces) {
                a.tally.pred_err_sum += (p.position - trace.pose(f + horizon).position).norm();
                a.tally.pred_err_count += 1;
            }
        }

        // Which users' LoS is blocked *right now* by another body
        // (co-viewers or ambient walkers) — or by an injected blockage
        // episode: a phantom body parked on the LoS. It enters both the
        // mitigation logic (here) and the channel itself (`link_rates`
        // drops a blocker onto the path), so the whole proactive /
        // reactive machinery reacts exactly as for an organic body.
        let (poses, walkers) = (&a.poses, &a.walker_pos);
        for (u, row) in a.rows.iter_mut().enumerate() {
            let blocked_by = |body: Vec3| self.forecaster.is_blocked(poses[u].position, body);
            row.blocked = self.s.params.body_blockage
                && ((0..self.n).any(|v| v != u && blocked_by(poses[v].position))
                    || walkers.iter().any(|&w| blocked_by(w)))
                || faults.has(u, Fault::Blockage);
        }
        let blocked_count = a.rows.iter().filter(|r| r.blocked).count();
        a.tally.blocked_user_frames += blocked_count;
        obs::add("session.blocked_user_frames", blocked_count as u64);

        // Mitigation: charge a beam-switch outage on the clear->blocked
        // transition, sized by the mode (full reactive sweep vs the small
        // proactive switch). Proactive mode also prefetched ahead of the
        // onset; model that as a buffer bonus at the transition.
        a.blockage_events.clear();
        if !self.is_wifi5 {
            // No beams at 5 GHz: nothing to switch or waste.
            let onsets = (0..self.n).filter(|&u| a.rows[u].blocked && !a.blocked_prev[u]);
            a.blockage_events.extend(onsets.map(|u| BlockageEvent {
                victim: u,
                blocker: usize::MAX, // unattributed (organic or injected)
                onset_frames: 0,
            }));
        }
        self.mitigator
            .plan_into(&a.blockage_events, &mut a.mitigation_actions);
        for act in &a.mitigation_actions {
            a.rows[act.user].beam_outage = act.beam_outage_s;
            match self.s.params.mitigation {
                MitigationMode::Proactive => {
                    a.rows[act.user].extra_prefetch = act.prefetch_frames;
                    obs::add("session.prefetch_frames", act.prefetch_frames as u64);
                }
                MitigationMode::Reactive => {
                    a.rows[act.user].wasted_tx = true;
                    obs::inc("session.wasted_tx");
                }
            }
        }
    }

    /// Stage 3 — link rates: the serving beam's RSS and unicast PHY rate
    /// per user. Proactive users are already on the best surviving path;
    /// reactive users spend the first blocked frame on the stale LoS beam
    /// before re-searching.
    fn link_rates(&self, faults: FrameFaults<'_>, a: &mut Arena) {
        let (s, ap) = (self.s, self.s.channel.array.position);
        a.unicast_phy.clear();
        for (u, (pose, row)) in a.poses.iter().zip(&mut a.rows).enumerate() {
            let pos = pose.position;
            let injected_blockage = faults.has(u, Fault::Blockage);
            // Everyone's body but the user's own. The channel's endpoint
            // guard alone is not enough: it spares the leg that ends at the
            // receiver, not a reflection's first leg passing over them.
            let others = a.all_blockers.iter().enumerate().filter(|&(i, _)| i != u);
            let rss = if self.is_wifi5 {
                // Log-distance 5 GHz link; bodies shadow mildly.
                let shadows = others
                    .filter(|(_, b)| self.forecaster.is_blocked(pos, b.center))
                    .count();
                s.wifi5
                    .rss_dbm(ap.distance(pos), shadows + injected_blockage as usize)
            } else {
                a.link_blockers.clear();
                a.link_blockers.extend(others.map(|(_, b)| *b));
                if injected_blockage {
                    // The phantom body stands mid-path between the AP and
                    // the user: guaranteed LoS intersection.
                    a.link_blockers.push(Blocker::person(ap.lerp(pos, 0.5)));
                }
                a.link_rx.locate(&s.channel, pos, &a.link_blockers);
                let searched = match s.params.mitigation {
                    MitigationMode::Proactive => true,
                    MitigationMode::Reactive => a.blocked_prev[u],
                };
                if row.blocked && searched {
                    a.link_rx.rss_best_beam()
                } else {
                    a.link_rx.rss_dedicated_beam()
                }
            };
            // Injected link outage: the PHY collapses outright, below every
            // MCS sensitivity. Downstream this zeroes the user's rate, so
            // admission control defers their bursts and the degradation
            // ladder (buffer playback, regrouping) takes over.
            let outage = faults.has(u, Fault::Outage);
            row.rss = if outage { -100.0 } else { rss };
            a.unicast_phy.push(self.mcs_table.phy_rate_mbps(row.rss));
        }
    }

    /// Stage 4 — visibility: the frame's cell partition (read from the
    /// video's manifest: content is cut into cells ahead of streaming, not
    /// in the frame loop), every user's visibility map over it (at the
    /// planning pose), and the byte needs they imply at analysis density.
    fn visibility(&self, f: usize, a: &mut Arena) {
        let s = self.s;
        a.partition = s
            .video
            .cell_counts(f as u64, s.params.analysis_points, &self.grid);
        // One frustum + occlusion pass per user over the whole partition,
        // against one index of its occluders.
        let (grid, partition) = (&self.grid, &a.partition);
        let vanilla = matches!(s.params.player, PlayerKind::Vanilla);
        if !vanilla {
            let min_points = VisibilityOptions::vivo().occluder_min_points;
            a.occluders.build(partition, min_points);
        }
        for (u, (pose, map)) in a.planning_poses.iter().zip(&mut a.maps).enumerate() {
            let options = match vanilla {
                true => VisibilityOptions::vanilla(),
                false => VisibilityOptions {
                    intrinsics: s.traces[u].device.intrinsics(),
                    ..VisibilityOptions::vivo()
                },
            };
            let computer = VisibilityComputer::new(options);
            computer.compute_into(pose, grid, partition, &a.occluders, map);
        }

        a.unit_sizes.clear();
        a.unit_sizes
            .extend(a.partition.iter().map(|c| c.point_count as f64));
        let total_points: f64 = a.unit_sizes.iter().sum();
        let culls = !vanilla && total_points > 0.0;
        for (row, map) in a.rows.iter_mut().zip(&a.maps) {
            let unit = map.required_bytes(&a.unit_sizes);
            row.member_unit = unit;
            row.needed_fraction = if culls { unit / total_points } else { 1.0 };
        }
    }

    /// Stage 5 — decide: one unified delivery decision per user — the ABR
    /// target (or the session's pinned quality), the degradation ladder's
    /// rung-1 quality clamp, and (layered) the proactive-FEC rung, all from
    /// [`RateAdapter::plan_delivery`].
    /// Fault-free runs have zero distress everywhere, so the clamp is the
    /// identity.
    fn decide(&self, a: &mut Arena) {
        for (u, row) in a.rows.iter_mut().enumerate() {
            let inputs = CrossLayerInputs {
                measured_throughput_mbps: 0.0,
                buffer_frames: a.buffers[u],
                blockage_forecast: match self.s.params.mitigation {
                    MitigationMode::Proactive => row.blocked,
                    // Reactive ABRs only see the collapse after it has
                    // already cost them a frame.
                    MitigationMode::Reactive => a.blocked_prev[u],
                },
                predicted_phy_rate_mbps: a.adapter.predictors[u]
                    .link
                    .predicted_rss_dbm(self.cfg.prediction_horizon)
                    .map_or(a.unicast_phy[u], |r| self.mcs_table.phy_rate_mbps(r)),
                current_phy_rate_mbps: a.unicast_phy[u],
            };
            let decision = a.adapter.plan_delivery(
                &GroupState {
                    user: u,
                    inputs: &inputs,
                    share: 1.0 / self.n as f64,
                    needed_fraction: row.needed_fraction,
                    layered: self.layered,
                    fixed: self.s.params.fixed_quality,
                },
                &a.distress[u],
            );
            row.quality = decision.quality;
            row.fec_rung = decision.fec;
            if self.have_faults && row.quality != decision.target_quality {
                obs::inc("session.degrade.quality_clamps");
            }
            a.blocked_prev[u] = row.blocked; // the decision above read it last
        }
    }

    /// Bytes per analysis-density point at quality `level`, the one price:
    /// the ladder's, in this session's delivery mode.
    fn scale_for(&self, level: QualityLevel) -> f64 {
        let ladder = &self.s.video.ladder;
        ladder.bytes_per_analysis_point(level, self.layered, self.s.params.analysis_points)
    }

    /// The user's whole visible payload at their decided quality.
    fn own_bytes(&self, row: &UserFrame) -> f64 {
        row.member_unit * self.scale_for(row.quality)
    }

    fn admit(&self, bytes: f64, phy_mbps: f64) -> bool {
        phy_mbps > 0.0 && self.mac.airtime_s(bytes, phy_mbps, self.n) <= self.airtime_budget_s
    }

    /// `(multicast rate, customized beam)` of a member set.
    fn group_beam(&self, members: &[usize]) -> (f64, bool) {
        match &self.group_beams {
            Some(beams) => beams.borrow_mut().group(members),
            // Group-addressed frames at the legacy basic rate — why ac
            // multicast doesn't pay off — on a radio with no beams to
            // customize.
            None => (self.s.wifi5.multicast_basic_rate_mbps, false),
        }
    }

    /// An upper bound on `group_beam(members).0`, for the planner to search
    /// by; on 5 GHz the constant basic rate is its own cap.
    fn group_rate_cap(&self, members: &[usize]) -> f64 {
        match &self.group_beams {
            Some(beams) => beams.borrow().rate_cap(members),
            None => self.s.wifi5.multicast_basic_rate_mbps,
        }
    }

    /// Schedules a unicast burst of `bytes` (plus parity at the user's FEC
    /// rung) for `u` if it passes admission, returning its plan index. The
    /// user's pending beam-switch outage is charged to the first burst
    /// only.
    fn push_unicast_leg(&self, a: &mut Arena, u: usize, bytes: f64) -> Option<usize> {
        let parity = bytes * a.rows[u].fec_rung.overhead();
        if !self.admit(bytes + parity, a.unicast_phy[u]) {
            return None;
        }
        let mut item = TxItem::unicast(u, bytes, a.unicast_phy[u]).with_parity(parity);
        item.beam_switch_s = std::mem::take(&mut a.rows[u].outage_pending);
        a.rows[u].fec_protected |= parity > 0.0;
        Some(a.log.push(item, &[u]))
    }

    /// Schedules group `g`'s shared payload as one multicast burst,
    /// returning its plan index.
    fn push_multicast(&self, a: &mut Arena, g: &Group, bytes: f64, parity: f64) -> usize {
        a.tally.multicast_groups += 1;
        a.tally.customized_groups += self.group_beam(&g.members).1 as usize;
        // Logged with its members in the log's arena, not its own vector.
        let item = TxItem::multicast(Vec::new(), bytes, g.multicast_rate_mbps).with_parity(parity);
        a.tally.multicast_bytes += bytes;
        obs::add("session.multicast_bytes", bytes.max(0.0) as u64);
        obs::record("session.group_size", g.members.len() as u64);
        a.log.push(item, &g.members)
    }

    /// Stage 6 — plan: the frame's transmission plan. Baseline players
    /// unicast every user's payload; volcast groups users by viewport
    /// similarity, multicasts what each group shares and unicasts the
    /// rest — as one single-stream payload per user or as base +
    /// enhancement layers, the only place the delivery mode matters.
    fn plan(&self, faults: FrameFaults<'_>, a: &mut Arena) {
        a.log.begin_frame();
        for row in &mut a.rows {
            row.effective_quality = row.quality;
            row.outage_pending = row.beam_outage;
        }

        // Lost reactive bursts: transmitted at the pre-blockage rate
        // (stale beam, clear-channel MCS) but never received. They are
        // queued first — the AP doesn't yet know the link is dead.
        for u in (0..self.n).filter(|&u| a.rows[u].wasted_tx) {
            a.link_rx.locate(&self.s.channel, a.poses[u].position, &[]);
            let clear_rss = a.link_rx.rss_dedicated_beam();
            let stale_phy = self.mcs_table.phy_rate_mbps(clear_rss);
            // Conservative: the AP aborts after ~a quarter of the frame's
            // worth of unacknowledged MPDUs.
            let probe_bytes = stale_phy * 1e6 / 8.0 * (self.interval * 0.25);
            if self.admit(probe_bytes, stale_phy) {
                a.log.push(TxItem::unicast(u, probe_bytes, stale_phy), &[u]);
            }
        }

        if !matches!(self.s.params.player, PlayerKind::Volcast) {
            // Vanilla fetches full frames, ViVo the visible cells; both
            // unicast. A burst admission rejects (outage, too slow) is
            // deferred and the user goes unserved.
            for u in 0..self.n {
                let row = &a.rows[u];
                let needed = match self.s.params.player {
                    PlayerKind::Vanilla => self.s.video.quality(row.quality).full_frame_bytes(),
                    _ => self.own_bytes(row),
                };
                a.rows[u].needed_bytes = needed;
                a.rows[u].unserved = self.push_unicast_leg(a, u, needed).is_none() && needed > 0.0;
            }
            return;
        }

        if let Some(beams) = &self.group_beams {
            beams
                .borrow_mut()
                .begin_frame(a.planning_poses.iter().map(|p| p.position), &a.all_blockers);
        }
        // The planner prices cells at one quality for everyone: layered
        // delivery multicasts the base, so at the ladder's floor;
        // single-stream at the lowest quality any user decided (each
        // formed group is then re-priced at its own members' minimum).
        let (plan_quality, arm): (QualityLevel, GroupArm<'a>) = if self.layered {
            (QualityLevel::Low, Self::layered_group)
        } else {
            let lowest = a.rows.iter().map(|r| r.quality).min();
            (lowest.unwrap_or(QualityLevel::Low), Self::single_group)
        };
        let scale = self.scale_for(plan_quality);
        a.cell_sizes.clear();
        a.cell_sizes.extend(a.unit_sizes.iter().map(|s| s * scale));
        // The planner calls both serially, for groups of 2+, and the rate
        // (a beam design) only for a set whose merge can win at its cap.
        let group_rate = |members: &[usize]| self.group_beam(members).0;
        let inputs = GroupingInputs {
            maps: &a.maps,
            partition: &a.partition,
            cell_sizes: &a.cell_sizes,
            unicast_rate_mbps: &a.unicast_phy,
            multicast_rate_mbps: &group_rate,
        };
        let rate_cap = |members: &[usize]| self.group_rate_cap(members);
        self.planner.search(&inputs, &rate_cap, &mut a.search);
        sever_outaged(&mut a.search, |u| faults.has(u, Fault::Outage));
        // Lent out while the arms write the rest of the arena.
        let groups = std::mem::take(&mut a.search.plan.groups);
        for (i, g) in groups.iter().enumerate() {
            for &u in &g.members {
                a.rows[u].group = Some(i);
            }
            arm(self, g, plan_quality, a);
        }
        a.search.plan.groups = groups;
    }

    /// Single-stream arm: the group multicasts its shared cells at the
    /// members' minimum quality (they must be decodable by all), each
    /// member's residual rides unicast at their own quality.
    fn single_group(&self, g: &Group, plan_quality: QualityLevel, a: &mut Arena) {
        let group_q = (g.members.iter().map(|&u| a.rows[u].quality).min()).unwrap_or(plan_quality);
        let overlap_unit = g.multicast_bytes / self.scale_for(plan_quality).max(1e-12);
        let shared_bytes = overlap_unit * self.scale_for(group_q);

        // The planner priced this group at the global minimum quality;
        // re-check the merge at the group's actual quality and against
        // admission — if the repriced multicast no longer beats plain
        // unicast (or cannot fit a slot), dissolve it.
        let beneficial =
            g.members.len() >= 2 && g.multicast_bytes > 0.0 && g.multicast_rate_mbps > 0.0 && {
                // `S/r` of a unicast leg to `u` (the `T_m(k)` model's
                // terms); an unreachable member makes plain unicast
                // infinitely slow but adds nothing to the merged plan.
                let air = |u: usize, bytes: f64, unreachable: f64| match a.unicast_phy[u] {
                    phy if phy > 0.0 => bytes / phy,
                    _ => unreachable,
                };
                let residual = |u: usize| (self.own_bytes(&a.rows[u]) - shared_bytes).max(0.0);
                let merged_t = shared_bytes / g.multicast_rate_mbps
                    + (g.members.iter().map(|&u| air(u, residual(u), 0.0))).sum::<f64>();
                let unicast_t = (g.members.iter())
                    .map(|&u| air(u, self.own_bytes(&a.rows[u]), f64::INFINITY))
                    .sum::<f64>();
                merged_t <= unicast_t
            };
        let group_active = beneficial && self.admit(shared_bytes, g.multicast_rate_mbps);
        if group_active {
            self.push_multicast(a, g, shared_bytes, 0.0);
        }
        for &u in &g.members {
            let row = &mut a.rows[u];
            if group_active {
                row.effective_quality = row.effective_quality.min(group_q);
            }
            let own_bytes = self.own_bytes(row);
            let shared = if group_active { shared_bytes } else { 0.0 };
            row.needed_bytes = own_bytes;
            // A residual of zero is fully covered by the multicast. One
            // that cannot complete this slot is not sent at all: no
            // airtime burned on a partial delivery they cannot render.
            let residual = (own_bytes - shared).max(0.0);
            if residual > 0.0 && self.push_unicast_leg(a, u, residual).is_none() {
                a.rows[u].unserved = true;
            }
        }
    }

    /// Layered arm: the base layer rides the group's multicast (the planner
    /// priced the cells at the base level, so its shared bytes are the
    /// base's) at the members' highest FEC rung; each member's unshared base
    /// and its enhancements ride unicast. Every byte is `scale_for`'s.
    fn layered_group(&self, g: &Group, base_quality: QualityLevel, a: &mut Arena) {
        let base_scale = self.scale_for(base_quality);
        let rungs = g.members.iter().map(|&u| a.rows[u].fec_rung);
        let base_fec = rungs.max().unwrap_or(FecRung::Off);
        let shared_base = g.multicast_bytes;
        let base_parity = shared_base * base_fec.overhead();
        let group_active = g.members.len() >= 2
            && shared_base > 0.0
            && g.multicast_rate_mbps > 0.0
            && self.admit(shared_base + base_parity, g.multicast_rate_mbps);
        let base_idx = group_active.then(|| {
            obs::add(
                "session.layered.base_multicast_bytes",
                shared_base.max(0.0) as u64,
            );
            self.push_multicast(a, g, shared_base, base_parity)
        });
        for &u in &g.members {
            let row = &mut a.rows[u];
            let own_full = self.own_bytes(row);
            row.needed_bytes = own_full;
            if a.unicast_phy[u] <= 0.0 {
                row.unserved = own_full > 0.0;
                continue;
            }
            let base_own = row.member_unit * base_scale;
            let base_shared = if group_active {
                shared_base.min(base_own)
            } else {
                0.0
            };
            row.base_item = base_idx;
            row.fec_protected |= group_active && base_parity > 0.0;
            // Unshared remainder of the base, unicast.
            let base_rest = (base_own - base_shared).max(0.0);
            if base_rest > 0.0 {
                match self.push_unicast_leg(a, u, base_rest) {
                    Some(i) => a.rows[u].base_item = a.rows[u].base_item.or(Some(i)),
                    None if group_active => {
                        // The shared slice still renders a coarse frame —
                        // degrade, don't drop.
                        a.rows[u].effective_quality = base_quality;
                        a.rows[u].needed_bytes = base_shared;
                        obs::inc("session.layered.enhancements_deferred");
                        continue;
                    }
                    None => {
                        a.rows[u].unserved = true;
                        continue;
                    }
                }
            }
            let enh_bytes = (own_full - base_own).max(0.0);
            if enh_bytes <= 0.0 {
                continue; // base-only target: done
            }
            // Enhancements are optional upgrades: they ride only when the
            // client holds enough buffer that a slipped enhancement can
            // never stall playout — and distress deepens the required
            // reserve, so a user coming out of a fault window streams
            // cheap base-only frames (whose spare airtime refills the
            // buffer fastest) until a cushion for the next window is in
            // place. Cold-started clients join at base quality immediately
            // and upgrade once buffered — progressive delivery's fast-join
            // story.
            let reserve =
                (1.0 + f64::from(a.distress[u].level)).max(self.cfg.buffer_capacity_frames as f64);
            if a.buffers[u] < reserve || self.push_unicast_leg(a, u, enh_bytes).is_none() {
                // The base still renders, so the user degrades instead of
                // going unserved.
                a.rows[u].effective_quality = base_quality;
                a.rows[u].needed_bytes = base_own;
                obs::inc("session.layered.enhancements_deferred");
            } else {
                obs::inc("session.layered.enhancement_items");
            }
        }
    }

    /// Stage 7 — recover: what the plan does about this frame's injected
    /// loss and AP stall.
    fn recover(&self, faults: FrameFaults<'_>, a: &mut Arena) {
        // Graceful degradation, rung 2: bounded retransmit. A user whose
        // scheduled delivery will be lost (corrupted past the MAC's retry
        // budget) gets exactly one re-send, paid for with a backoff
        // surcharge and admitted only while the whole frame still fits the
        // airtime budget. Beyond the budget, the loss stands and the
        // buffer absorbs it instead.
        if faults.count(Fault::Loss) > 0 && !faults.ap_stall {
            let backoff_s = 0.1 * self.interval;
            let airtime = |i: &TxItem| self.mac.airtime_s(i.wire_bytes(), i.phy_mbps, self.n);
            for u in 0..self.n {
                let row = &a.rows[u];
                if !faults.has(u, Fault::Loss)
                    || faults.has(u, Fault::Outage)
                    || row.unserved
                    || row.needed_bytes <= 0.0
                {
                    continue;
                }
                if row.fec_protected {
                    // The FEC rung already paid for this loss up front:
                    // the parity riding with the user's bursts rebuilds
                    // the lost chunk locally — no retransmit airtime, no
                    // backoff.
                    obs::inc("session.degrade.fec_recoveries");
                    continue;
                }
                let resend = TxItem::unicast(u, row.needed_bytes, a.unicast_phy[u]);
                let frame_air: f64 = a.plan().map(|(i, _)| i.beam_switch_s + airtime(i)).sum();
                let retx_air = airtime(&resend);
                if frame_air.is_finite()
                    && retx_air.is_finite()
                    && frame_air + backoff_s + retx_air <= self.airtime_budget_s
                {
                    let resend = TxItem {
                        beam_switch_s: backoff_s, // MAC backoff before the re-send
                        ..resend
                    };
                    a.log.push(resend, &[u]);
                    a.rows[u].retransmitted = true;
                    obs::inc("session.degrade.retransmits");
                } else {
                    obs::inc("session.degrade.retransmits_deferred");
                }
            }
        }
        // Injected AP stall: the AP transmits nothing this frame. Clear
        // the plan (no airtime is burned: no base layer to fall back on,
        // no parity) and mark every user with pending payload unserved,
        // so they play from buffer — stall recovery without a panic,
        // never a wedged queue.
        if faults.ap_stall {
            a.log.clear_last();
            for row in &mut a.rows {
                row.base_item = None;
                row.fec_protected = false;
                row.unserved = row.needed_bytes > 0.0;
            }
        }
    }

    /// Stage 8 — replay: the plan's airtime on the MAC model, who it
    /// reached, and the frame's share of the outcome tallies.
    fn replay(&self, a: &mut Arena) {
        let frame = a.log.frame(a.log.frames() - 1);
        a.timing.execute_into(frame, self.mac, self.n, self.n);
        let timing = &a.timing;
        for (row, done) in a.rows.iter_mut().zip(&timing.user_completion_s) {
            row.addressed = done.is_some();
        }
        let total_bytes: f64 = a.plan().map(|(i, _)| i.bytes).sum();
        if obs::enabled() {
            obs::add("session.scheduled_items", a.plan().len() as u64);
            obs::add("session.planned_bytes", total_bytes.max(0.0) as u64);
            obs::add(
                "session.unserved_user_frames",
                a.rows.iter().filter(|r| r.unserved).count() as u64,
            );
            if timing.total_s.is_finite() {
                obs::record("session.frame_airtime_us", (timing.total_s * 1e6) as u64);
            }
        }
        a.tally.total_bytes += total_bytes;
        a.tally.frame_time_sum += if timing.total_s.is_finite() {
            timing.total_s
        } else {
            self.interval * 4.0 // charge a saturated slot for outage frames
        };
        for g in &a.search.plan.groups {
            a.tally.group_size_sum += g.members.len() as f64;
            a.tally.group_count += 1;
        }
        if !matches!(self.s.params.player, PlayerKind::Volcast) {
            a.tally.group_size_sum += self.n as f64; // n singleton groups
            a.tally.group_count += self.n;
        }
    }

    /// Client decode time of a frame at quality `q`. A decode overrun
    /// (thermal throttling, background work) makes the client miss its
    /// slot: charge at least a slot and a half.
    fn decode_time(&self, q: QualityLevel, overrun: bool) -> f64 {
        let points = self.s.video.quality(q).points_per_frame;
        let t = self.s.decode.frame_decode_time(points);
        if overrun {
            t.max(1.5 * self.interval)
        } else {
            t
        }
    }

    /// Stage 9 — playout and adapt: every user's frame against their
    /// buffer (on time, stalled, or rendered from the base layer), the
    /// distress ladder's bookkeeping and the ABR's throughput feedback;
    /// then the rows join the per-user counts.
    fn playout(&self, faults: FrameFaults<'_>, a: &mut Arena) {
        for u in 0..self.n {
            // An injected loss without a successful retransmit means the
            // airtime was burned but nothing decodable arrived — unless
            // the burst carried proactive parity: a single erasure then
            // rebuilds locally and the frame completes.
            let row = &a.rows[u];
            let lost = faults.has(u, Fault::Loss) && !row.retransmitted && !row.fec_protected;
            self.render(u, lost, faults.has(u, Fault::DecodeOverrun), a);
            if self.have_faults {
                self.roll_distress(u, lost, faults, a);
            }
            self.feed_adapter(u, a);
        }
        for row in &a.rows {
            a.tally.addressed_user_frames += row.addressed as usize;
            a.tally.fault_user_frames += row.faulted as usize;
            a.tally.recovered_user_frames += (row.faulted && row.outcome.on_time()) as usize;
        }
    }

    /// Plays user `u`'s frame out of the buffer and records it.
    fn render(&self, u: usize, lost: bool, overrun: bool, a: &mut Arena) {
        // Proactive mitigation prefetched ahead of the onset using earlier
        // frames' spare airtime (the paper: "prefetch the content and
        // schedule the future cells in the current time slot"). The
        // blockage reserve may exceed the normal motion-to-photon buffer
        // cap: during a forecast outage the client accepts staler
        // predicted-viewport cells over a stall. Half the pushed frames
        // are credited (the other half render with out-of-date viewports
        // and are wasted).
        let (row, timing) = (&mut a.rows[u], &a.timing);
        let reserve = row.extra_prefetch as f64 * 0.5;
        let buf = (a.buffers[u] + reserve).min(self.buf_cap + reserve);

        let broken = row.unserved || row.wasted_tx || lost;
        let delivery = if row.needed_bytes <= 0.0 {
            0.0 // nothing visible: trivially delivered
        } else if broken {
            f64::INFINITY
        } else {
            timing.user_completion_s[u].unwrap_or(f64::INFINITY)
        };
        let play = |t_eff: f64| classify(t_eff, buf, self.interval, self.buf_cap);
        let mut rendered_q = row.effective_quality;
        let mut out = play(delivery.max(self.decode_time(rendered_q, overrun)));
        // Partial render: when the full layer stack misses its slot, fall
        // back to the base layer — a coarse frame on time beats a stall.
        // (A lost or wasted burst took the base down with it; those
        // cannot fall back.)
        let can_fall_back =
            !out.outcome.on_time() && row.needed_bytes > 0.0 && !lost && !row.wasted_tx;
        if let Some(i) = row.base_item.filter(|_| can_fall_back) {
            let base_q = QualityLevel::Low;
            let base = play(timing.item_completion_s[i].max(self.decode_time(base_q, overrun)));
            if base.outcome.on_time() || base.stall_s < out.stall_s {
                out = base;
                rendered_q = base_q;
                if base.outcome.on_time() {
                    obs::inc("session.layered.partial_renders");
                }
            }
        }
        row.outcome = out.outcome;
        a.buffers[u] = out.buffer;
        let on_time = out.outcome.on_time();
        a.qoe.users[u].record_frame(on_time, out.stall_s, rendered_q);
        if obs::enabled() {
            if !on_time {
                obs::inc("session.stalls");
                obs::record("session.stall_us", (out.stall_s * 1e6) as u64);
            }
            obs::gauge("session.buffer_frames_peak", a.buffers[u]);
        }
    }

    /// Ladder bookkeeping: mark the user's row if a fault hit them, and
    /// roll the per-user distress that drives next frame's delivery
    /// decision.
    fn roll_distress(&self, u: usize, lost: bool, faults: FrameFaults<'_>, a: &mut Arena) {
        let row = &mut a.rows[u];
        row.faulted = faults.ap_stall
            || faults.has(u, Fault::Outage)
            || faults.has(u, Fault::Blockage)
            || faults.has(u, Fault::Loss)
            || faults.has(u, Fault::DecodeOverrun);
        // Hard faults raise distress even when absorbed (the link has not
        // proven itself); soft ones only when they actually cost a stall.
        let hard = faults.ap_stall || faults.has(u, Fault::Outage) || lost;
        if hard || (row.faulted && !row.outcome.on_time()) {
            a.distress[u].raise(2);
        } else {
            a.distress[u].relax();
        }
        if obs::enabled() {
            obs::gauge("session.degrade.distress_peak", a.distress[u].level as f64);
        }
    }

    /// Feeds the adapter's cross-layer predictor with this user's
    /// *delivery rate* (bytes over the airtime actually spent on their
    /// items), the quantity an ABR can measure.
    fn feed_adapter(&self, u: usize, a: &mut Arena) {
        // Layered delivery feeds the ABR the unicast path only: the
        // multicast base is server-scheduled (not an ABR-controlled flow)
        // and rides the group's slowest common beam, so blending it in
        // would anchor every member's throughput estimate to the group
        // floor and starve the enhancement budget.
        let unicast_only = self.layered;
        let (user_bytes, user_airtime): (f64, f64) = (a.plan())
            .filter(|(_, to)| to.contains(&u) && (!unicast_only || to.len() == 1))
            .map(|(i, _)| {
                let airtime = self.mac.airtime_s(i.wire_bytes(), i.phy_mbps, self.n);
                (i.bytes, airtime)
            })
            .fold((0.0, 0.0), |(b, t), (ib, it)| (b + ib, t + it));
        let tput = if user_airtime > 0.0 && user_airtime.is_finite() {
            user_bytes * 8.0 / (user_airtime * 1e6)
        } else {
            0.0
        };
        let row = &a.rows[u];
        if user_airtime <= 0.0 && row.base_item.is_some() {
            // Base-only frame: the unicast path was idle, not slow. Track
            // the RSS trend but keep the throughput EWMA.
            a.adapter.predictors[u].link.observe(row.rss);
        } else {
            a.adapter.observe(u, tput, row.rss);
        }
    }

    /// Closes the run: the pipelined network-only replay (see
    /// [`SessionOutcome::pipelined_on_time_ratio`]) under the same fault
    /// schedule the frame loop saw, and the aggregate outcome.
    fn finish(&self, mut a: Arena) -> Result<SessionOutcome, VolcastError> {
        let frames = self.s.params.frames;
        a.qoe.duration_s = frames as f64 * self.interval;
        let deadline = SimTime::from_secs(self.interval);
        let sim = Simulator::new(self.mac, self.n, self.n, deadline, BacklogPolicy::Drop)
            .map_err(VolcastError::Net)?
            .with_faults(self.fault_plan);
        // The whole log in one replay; a user the frame's plan did not
        // address is never on time.
        let mut completion = Vec::new();
        sim.replay_into(&a.log, &mut SimScratch::default(), &mut completion);
        let users_on_time = |(f, done): (usize, &[Option<SimTime>])| {
            let due = sim.frame_start(f) + deadline;
            done.iter().filter(|t| t.is_some_and(|t| t <= due)).count()
        };
        let on_time: usize = completion
            .chunks(self.n)
            .enumerate()
            .map(users_on_time)
            .sum();
        let ratio = |num: f64, den: f64, empty: f64| if den > 0.0 { num / den } else { empty };
        let t = &a.tally;
        Ok(SessionOutcome {
            qoe: a.qoe,
            mean_frame_time_s: t.frame_time_sum / frames.max(1) as f64,
            multicast_byte_fraction: ratio(t.multicast_bytes, t.total_bytes, 0.0),
            mean_group_size: ratio(t.group_size_sum, t.group_count as f64, 1.0),
            customized_beam_fraction: ratio(
                t.customized_groups as f64,
                t.multicast_groups as f64,
                0.0,
            ),
            blocked_user_frames: t.blocked_user_frames,
            mean_prediction_error_m: ratio(t.pred_err_sum, t.pred_err_count as f64, 0.0),
            pipelined_on_time_ratio: ratio(on_time as f64, t.addressed_user_frames as f64, 1.0),
            fault_user_frames: t.fault_user_frames,
            recovered_user_frames: t.recovered_user_frames,
        })
    }
}

/// Helper: a session over `n` synthetic headset users.
pub fn quick_session(
    player: PlayerKind,
    n_users: usize,
    frames: usize,
    seed: u64,
) -> StreamingSession {
    quick_session_with_device(player, n_users, frames, seed, DeviceClass::Headset)
}

/// Helper: a session over `n` synthetic users of a given device class
/// (phone users cluster in a frontal arc — the paper's classroom case —
/// and show far higher viewport overlap than roaming headset users).
pub fn quick_session_with_device(
    player: PlayerKind,
    n_users: usize,
    frames: usize,
    seed: u64,
    device: DeviceClass,
) -> StreamingSession {
    let gen = TraceGenerator::new(seed, device);
    let traces: Vec<Trace> = (0..n_users).map(|u| gen.generate(u, frames)).collect();
    StreamingSession::new(
        SessionParams {
            player,
            frames,
            ..Default::default()
        },
        traces,
    )
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(SessionOutcome {
    qoe,
    mean_frame_time_s,
    multicast_byte_fraction,
    mean_group_size,
    customized_beam_fraction,
    blocked_user_frames,
    mean_prediction_error_m,
    pipelined_on_time_ratio,
    fault_user_frames,
    recovered_user_frames
});

#[cfg(test)]
mod referee;

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_net::TxKind;

    fn small(player: PlayerKind, users: usize) -> SessionOutcome {
        let mut s = quick_session(player, users, 30, 7);
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        s.run().unwrap()
    }

    /// `link_rates` must drop the user's own body by index, not leave it
    /// to the channel's endpoint guard: a user between the AP and the back
    /// wall stands under that bounce's *first* leg, which ends at the wall,
    /// not at them — the guard keeps their cylinder there, the filter does
    /// not, and the two disagree by a blocked reflection.
    #[test]
    fn link_rates_filters_the_users_own_body() {
        let pos = Vec3::new(0.0, 1.5, -3.5);
        let mut s = quick_session(PlayerKind::Vivo, 1, 1, 7);
        s.traces[0].poses = vec![Pose::looking_at(pos, Vec3::new(0.0, 1.2, 0.0))];
        let fault_plan = s.checked_fault_plan().unwrap();
        let p = Pipeline::new(&s, &fault_plan);
        let mut a = Arena::new(&p);
        let faults = p.frame_faults(0);
        p.observe(0, &mut a);
        p.forecast(0, faults, &mut a);
        p.link_rates(faults, &mut a);
        assert_eq!(a.all_blockers, [Blocker::person(pos)]);
        let filtered = s.channel.rss_dedicated_beam(pos, &[]);
        let guarded = s.channel.rss_dedicated_beam(pos, &a.all_blockers);
        assert!(
            guarded < filtered,
            "the endpoint guard alone: {guarded} vs {filtered}"
        );
        assert_eq!(a.rows[0].rss.to_bits(), filtered.to_bits());
    }

    #[test]
    fn session_runs_and_reports() {
        let out = small(PlayerKind::Volcast, 2);
        assert_eq!(out.qoe.users.len(), 2);
        assert_eq!(out.qoe.users[0].frames(), 30);
        assert!(out.mean_frame_time_s > 0.0);
        assert!(out.qoe.duration_s > 0.9);
    }

    #[test]
    fn vivo_fetches_less_than_vanilla() {
        let vanilla = small(PlayerKind::Vanilla, 2);
        let vivo = small(PlayerKind::Vivo, 2);
        assert!(
            vivo.mean_frame_time_s < vanilla.mean_frame_time_s,
            "vivo {} >= vanilla {}",
            vivo.mean_frame_time_s,
            vanilla.mean_frame_time_s
        );
    }

    #[test]
    fn volcast_uses_multicast_for_phone_users() {
        // Phone users cluster: plenty of viewport overlap to multicast.
        let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 30, 7, DeviceClass::Phone);
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        let out = s.run().unwrap();
        assert!(
            out.multicast_byte_fraction > 0.2,
            "multicast fraction {}",
            out.multicast_byte_fraction
        );
        assert!(out.mean_group_size > 1.0);
    }

    #[test]
    fn unicast_players_never_multicast() {
        for p in [PlayerKind::Vanilla, PlayerKind::Vivo] {
            let out = small(p, 2);
            assert_eq!(out.multicast_byte_fraction, 0.0);
            assert!((out.mean_group_size - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small(PlayerKind::Volcast, 2);
        let b = small(PlayerKind::Volcast, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn prediction_error_is_tracked() {
        let out = small(PlayerKind::Volcast, 2);
        assert!(out.mean_prediction_error_m >= 0.0);
        assert!(
            out.mean_prediction_error_m < 1.0,
            "{}",
            out.mean_prediction_error_m
        );
    }

    #[test]
    fn wifi5_radio_runs_and_behaves() {
        // ViVo ac 2-user Low sits exactly at the paper's 30 FPS row...
        let mut s = quick_session(PlayerKind::Vivo, 2, 30, 7);
        s.params.radio = RadioKind::Wifi5;
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        let vivo = s.run().unwrap();
        assert_eq!(vivo.qoe.users.len(), 2);
        assert!(vivo.qoe.mean_fps() > 25.0, "{}", vivo.qoe.mean_fps());
        // ...while vanilla at Medium cannot sustain it (paper: 17.4 FPS).
        let mut s = quick_session(PlayerKind::Vanilla, 2, 30, 7);
        s.params.radio = RadioKind::Wifi5;
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Medium);
        let vanilla = s.run().unwrap();
        assert!(
            vanilla.qoe.mean_fps() < 27.0 && vanilla.qoe.mean_fps() > 8.0,
            "vanilla ac/2/Medium fps {}",
            vanilla.qoe.mean_fps()
        );
    }

    #[test]
    fn wifi5_multicast_is_unattractive() {
        // volcast-over-ac: legacy-rate multicast should (almost) never win,
        // so the grouping planner keeps everything unicast.
        let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 30, 42, DeviceClass::Phone);
        s.params.radio = RadioKind::Wifi5;
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        let out = s.run().unwrap();
        assert!(
            out.multicast_byte_fraction < 0.05,
            "legacy-rate multicast used: {}",
            out.multicast_byte_fraction
        );
    }

    #[test]
    fn disabling_blockage_removes_blocked_frames() {
        let mut s = quick_session(PlayerKind::Volcast, 3, 30, 7);
        s.params.analysis_points = 4_000;
        s.params.body_blockage = false;
        s.params.fixed_quality = Some(QualityLevel::Low);
        let out = s.run().unwrap();
        assert_eq!(out.blocked_user_frames, 0);
    }

    #[test]
    fn pipelined_ratio_is_sane() {
        let out = small(PlayerKind::Volcast, 2);
        assert!((0.0..=1.0).contains(&out.pipelined_on_time_ratio));
        // Two Low-quality users: the schedule fits comfortably.
        assert!(
            out.pipelined_on_time_ratio > 0.8,
            "{}",
            out.pipelined_on_time_ratio
        );
    }

    #[test]
    fn adaptive_quality_reacts_to_capacity() {
        // 2 users: plenty of capacity -> quality should not be stuck at the
        // bottom of the ladder.
        let mut s = quick_session(PlayerKind::Vivo, 2, 40, 11);
        s.params.analysis_points = 4_000;
        let out = s.run().unwrap();
        assert!(
            out.qoe.mean_quality_score() > 0.5,
            "quality stuck low: {}",
            out.qoe.mean_quality_score()
        );
    }

    fn layered_session(faults: Option<FaultConfig>) -> StreamingSession {
        let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 30, 7, DeviceClass::Phone);
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Medium);
        s.params.delivery = DeliveryMode::Layered;
        s.params.faults = faults;
        s
    }

    #[test]
    fn layered_delivery_runs_and_multicasts_the_base() {
        let out = layered_session(None).run().unwrap();
        assert_eq!(out.qoe.users.len(), 3);
        assert_eq!(out.qoe.users[0].frames(), 30);
        // The base layer rides multicast for clustered phone users.
        assert!(
            out.multicast_byte_fraction > 0.1,
            "base multicast fraction {}",
            out.multicast_byte_fraction
        );
        // Enhancements lift users above the base on a clean channel.
        assert!(
            out.qoe.mean_quality_score() > 0.3,
            "stuck at base: {}",
            out.qoe.mean_quality_score()
        );
    }

    #[test]
    fn layered_delivery_is_deterministic() {
        let a = layered_session(None).run().unwrap();
        let b = layered_session(None).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn layered_fec_absorbs_losses_better_than_retransmit_alone() {
        let faults = FaultConfig {
            seed: 5,
            loss_rate: 0.25,
            ..Default::default()
        };
        let layered = layered_session(Some(faults)).run().unwrap();
        let mut legacy = layered_session(Some(faults));
        legacy.params.delivery = DeliveryMode::Single;
        let legacy = legacy.run().unwrap();
        // Same fault schedule: the parity rung must not recover fewer
        // fault hits than the retransmit-only ladder, and must not stall
        // more.
        assert!(
            layered.recovered_user_frames >= legacy.recovered_user_frames,
            "layered recovered {} < legacy {}",
            layered.recovered_user_frames,
            legacy.recovered_user_frames
        );
        assert!(
            layered.qoe.mean_stall_ratio() <= legacy.qoe.mean_stall_ratio() + 1e-12,
            "layered stalls {} > legacy {}",
            layered.qoe.mean_stall_ratio(),
            legacy.qoe.mean_stall_ratio()
        );
    }

    /// A layered user-frame is priced by the ladder alone: at each level,
    /// the bytes of a user who holds it are `member_unit` times the top
    /// level's single-stream scale times the level's share, and at the top
    /// never below the single stream.
    #[test]
    fn a_layered_frame_costs_the_ladders_share_at_every_level() {
        for level in QualityLevel::ALL {
            let mut s = layered_session(None);
            s.params.fixed_quality = Some(level);
            let top = s.video.quality(QualityLevel::High);
            let scale = top.bytes_per_analysis_point(s.params.analysis_points);
            let share = s.video.quality(level).layered_share;
            let mut priced = 0;
            drive(&s, |_, _, a| {
                for row in a.rows.iter().filter(|r| r.effective_quality == level) {
                    assert_eq!(
                        row.needed_bytes,
                        row.member_unit * (scale * share),
                        "{level:?}"
                    );
                    if level == QualityLevel::High {
                        assert!(row.needed_bytes >= row.member_unit * scale);
                    }
                    priced += usize::from(row.needed_bytes > 0.0);
                }
            });
            assert!(priced > 0, "{level:?}: nobody held the level");
        }
    }

    /// `s.run()`, showing `played` every frame's arena once it has played
    /// out (the frame's plan is then the log's last frame).
    pub(super) fn drive(
        s: &StreamingSession,
        played: impl FnMut(&Pipeline<'_>, FrameFaults<'_>, &Arena),
    ) -> SessionOutcome {
        s.run_with(played).unwrap()
    }

    fn stormy() -> FaultConfig {
        FaultConfig {
            seed: 9,
            outage_rate: 0.08,
            outage_frames: 3,
            loss_rate: 0.2,
            decode_overrun_rate: 0.1,
            ap_stall_rate: 0.03,
            ap_stall_frames: 2,
            ..Default::default()
        }
    }

    /// The post-plan stages read `base_item` and `fec_protected`, not the
    /// delivery mode: sound only while the single-stream arm never sets
    /// either — under every fault class, all frames, all users.
    #[test]
    fn single_stream_plans_carry_no_base_item_and_no_parity() {
        let mut s = layered_session(Some(stormy()));
        s.params.delivery = DeliveryMode::Single;
        let mut frames = 0;
        let driven = drive(&s, |_, _, a| {
            frames += 1;
            assert!(a.rows.iter().all(|r| r.base_item.is_none()));
            assert!(a.rows.iter().all(|r| !r.fec_protected));
            assert!(a.plan().all(|(i, _)| i.parity_bytes == 0.0));
        });
        assert_eq!(frames, 30);
        // Inspecting the frames changes nothing `run` computes.
        assert_eq!(driven, s.run().unwrap());

        // The layered arm does set both (so the asserts above can fail).
        let (mut based, mut protected) = (false, false);
        let layered = layered_session(Some(stormy()));
        let driven = drive(&layered, |_, _, a| {
            based |= a.rows.iter().any(|r| r.base_item.is_some());
            protected |= a.rows.iter().any(|r| r.fec_protected);
        });
        assert!(based && protected);
        assert_eq!(driven, layered_session(Some(stormy())).run().unwrap());
    }

    /// Whatever the faults, each frame's groups are a partition of the
    /// users in canonical order, and nobody in an outage shares a group.
    #[test]
    fn planned_groups_partition_the_users_under_outages() {
        let mut outaged_frames = 0;
        for delivery in [DeliveryMode::Single, DeliveryMode::Layered] {
            let mut s = layered_session(Some(stormy()));
            s.params.delivery = delivery;
            drive(&s, |_, faults, a| {
                let groups = &a.search.plan.groups;
                let members: Vec<usize> = groups.iter().flat_map(|g| g.members.clone()).collect();
                let mut sorted = members.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, [0, 1, 2], "groups {groups:?}");
                assert!(groups.windows(2).all(|w| w[0].members < w[1].members));
                for g in groups.iter().filter(|g| g.members.len() > 1) {
                    assert!(!g.members.iter().any(|&u| faults.has(u, Fault::Outage)));
                }
                outaged_frames += (faults.count(Fault::Outage) > 0) as usize;
            });
        }
        assert!(outaged_frames > 0, "the fault schedule injected no outage");
    }

    /// A frame designs exactly the member sets its grouping search asks
    /// about, each once. Replaying the search on the arena's inputs names
    /// them (the replay itself is served from the memo); were the scheduler
    /// to design a set of its own — to read a winner's `customized` bit,
    /// say — the memo would be larger than the replay's list.
    #[test]
    fn a_frame_designs_what_its_search_asks_and_nothing_else() {
        // Four phones, where groups form, and four phones beside two
        // headsets, where some users are in no designed set.
        let mut undesigned = 0;
        for (delivery, custom_beams, mixed) in [
            (DeliveryMode::Single, true, false),
            (DeliveryMode::Layered, true, false),
            (DeliveryMode::Single, false, false),
            (DeliveryMode::Single, true, true),
        ] {
            let mut s = if mixed {
                let traces = volcast_viewport::UserStudy::generate_with(42, 12, 4, 2).traces;
                let params = SessionParams {
                    frames: 12,
                    ..Default::default()
                };
                StreamingSession::new(params, traces)
            } else {
                quick_session_with_device(PlayerKind::Volcast, 4, 12, 42, DeviceClass::Phone)
            };
            s.params.analysis_points = 4_000;
            s.params.delivery = delivery;
            s.params.custom_beams = custom_beams;
            let (mut designed, mut multicasts, mut candidates) = (0, 0, 0);
            drive(&s, |p, _, a| {
                let beams = p.group_beams.as_ref().unwrap();
                let asked = RefCell::new(Vec::new());
                let rate = |members: &[usize]| {
                    asked.borrow_mut().push(members.to_vec());
                    assert!(beams.borrow().designed(members).is_some());
                    p.group_beam(members).0
                };
                let capped = RefCell::new(0);
                let cap = |members: &[usize]| {
                    *capped.borrow_mut() += 1;
                    p.group_rate_cap(members)
                };
                let inputs = GroupingInputs {
                    maps: &a.maps,
                    partition: &a.partition,
                    cell_sizes: &a.cell_sizes,
                    unicast_rate_mbps: &a.unicast_phy,
                    multicast_rate_mbps: &rate,
                };
                let mut replay = GroupSearch::default();
                p.planner.search(&inputs, &cap, &mut replay);
                assert_eq!(replay.plan.groups, a.search.plan.groups);
                let mut asked = asked.into_inner();
                asked.sort();
                let beams = beams.borrow();
                let users = 0..a.maps.len();
                let mut memoized: Vec<Vec<usize>> = (beams.memo_keys.iter())
                    .map(|&key| users.clone().filter(|&u| key >> u & 1 == 1).collect())
                    .collect();
                memoized.sort();
                assert_eq!(asked, memoized);
                for (item, members) in a.plan() {
                    if let TxKind::Multicast { .. } = item.kind {
                        assert!(beams.designed(members).is_some());
                        multicasts += 1;
                    }
                }
                designed += beams.memo.len();
                candidates += capped.into_inner();
                // A receiver is swept exactly when a design touched it.
                for (u, rx) in beams.rxs.iter().enumerate() {
                    let touched = memoized.iter().any(|m| m.contains(&u));
                    assert_eq!(rx.is_swept(), touched, "user {u}");
                    undesigned += !touched as usize;
                }
            });
            // Designs happen, and not every candidate the eager search
            // would have designed (each one capped) is; among the phones,
            // groups form.
            assert!(
                designed > 0 && designed < candidates,
                "{designed} of {candidates}"
            );
            assert!(multicasts > 0 || mixed, "{delivery:?}");
        }
        assert!(undesigned > 0, "every user was designed every frame");
    }

    /// Staging changes no design: over random sessions, at every frame,
    /// random member sets get the same `(rate, customized)` and the same
    /// member RSS bits from receivers located per frame and swept on first
    /// design as from receivers fully prepared up front —
    /// with custom beams and without.
    #[test]
    fn staged_receivers_design_what_prepared_ones_do() {
        use volcast_util::prop::run_cases_n;
        run_cases_n("staged_receivers_design_what_prepared_ones_do", 6, |rng| {
            let users = rng.gen_range(2..7usize);
            let seed = rng.gen_range(0..1000u64);
            let mut s =
                quick_session_with_device(PlayerKind::Volcast, users, 8, seed, DeviceClass::Phone);
            s.params.analysis_points = 4_000;
            let (channel, codebook, mcs) = (&s.channel, &s.codebook, &s.mcs);
            let beams =
                |custom| GroupBeams::new(SweepEngine::new(channel, codebook), mcs, custom, users);
            let mut sets = Vec::new();
            drive(&s, |_, _, a| {
                let positions = || a.planning_poses.iter().map(|p| p.position);
                for custom in [true, false] {
                    let (mut staged, mut eager) = (beams(custom), beams(custom));
                    staged.begin_frame(positions(), &a.all_blockers);
                    eager.begin_frame(positions(), &a.all_blockers);
                    for (rx, pos) in eager.rxs.iter_mut().zip(positions()) {
                        rx.locate(channel, pos, &a.all_blockers);
                        rx.sweep(&eager.engine);
                    }
                    assert_eq!(staged.rate_caps, eager.rate_caps);
                    sets.clear();
                    for _ in 0..8 {
                        let mut set: Vec<usize> =
                            (0..users).filter(|_| rng.gen_bool(0.5)).collect();
                        if set.is_empty() {
                            set.push(rng.gen_range(0..users));
                        }
                        sets.push(set);
                    }
                    for set in &sets {
                        let (got, want) = (staged.group(set), eager.group(set));
                        assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
                        let bits = |b: &GroupBeams| {
                            let rss = b.design.member_rss_dbm.iter();
                            rss.map(|r| r.to_bits()).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&staged), bits(&eager), "{set:?}");
                    }
                }
            });
        });
    }

    #[test]
    fn sever_outaged_regroups_into_a_canonical_partition() {
        let group = |members: &[usize], bytes: f64| Group {
            members: members.to_vec(),
            multicast_bytes: bytes,
            multicast_rate_mbps: 1000.0,
            iou: 0.5,
        };
        let planned = vec![
            group(&[0, 3, 4], 9e4),
            group(&[1, 2], 5e4),
            group(&[5], 0.0),
        ];
        // No outage: untouched.
        let mut search = GroupSearch::default();
        search.plan.groups = planned.clone();
        sever_outaged(&mut search, |_| false);
        assert_eq!(search.plan.groups, planned);

        // Users 1, 2 (a whole group) and 3 (one of three) go dark.
        sever_outaged(&mut search, |u| [1, 2, 3].contains(&u));
        let groups = &search.plan.groups;
        let members: Vec<&[usize]> = groups.iter().map(|g| &g.members[..]).collect();
        assert_eq!(members, [&[0, 4][..], &[1], &[2], &[3], &[5]]);
        // Survivors keep the planner's price; the severed ride alone at
        // zero price.
        assert_eq!(groups[0], group(&[0, 4], 9e4));
        for g in &groups[1..4] {
            assert_eq!(*g, Group::unpriced(g.members.clone()));
        }
        assert_eq!(groups[4], planned[2]);
    }

    #[test]
    fn classify_covers_the_five_playout_outcomes() {
        use Outcome::*;
        let (interval, cap) = (0.04, 3.0);
        let play = |t_eff: f64, buf: f64| classify(t_eff, buf, interval, cap);
        let out = |outcome, stall_s, buffer| Playout {
            outcome,
            stall_s,
            buffer,
        };
        // Undeliverable: a buffered frame plays instead; an empty buffer
        // stalls a whole interval.
        assert_eq!(play(f64::INFINITY, 1.5), out(FromBuffer, 0.0, 0.5));
        assert_eq!(play(f64::INFINITY, 0.9), out(Starved, interval, 0.0));
        // Early: the spare airtime prefetches ahead, up to the cap.
        assert_eq!(play(0.01, 1.0), out(InSlot, 0.0, 1.75));
        assert_eq!(play(0.01, 2.5), out(InSlot, 0.0, cap));
        assert_eq!(play(interval, 1.0), out(InSlot, 0.0, 1.0));
        // Late by half a frame: absorbed by a deep enough buffer...
        let absorbed = play(0.06, 2.0);
        assert!(absorbed.outcome == Absorbed && absorbed.stall_s == 0.0);
        assert!((absorbed.buffer - 1.5).abs() < 1e-12);
        // ...and a stall for the uncovered remainder otherwise.
        let stalled = play(0.06, 0.25);
        assert!(stalled.outcome == Stalled && stalled.buffer == 0.0);
        assert!((stalled.stall_s - 0.25 * interval).abs() < 1e-12);
        // Three of the five play on time.
        let on_time = [InSlot, Absorbed, Stalled, FromBuffer, Starved].map(Outcome::on_time);
        assert_eq!(on_time, [true, true, false, true, false]);
    }

    /// Every played user-frame's row carries one playout outcome, and the
    /// rows add up to what the outcome reports: over stormy sessions in
    /// both delivery modes, each user's on-time and stalled rows are their
    /// QoE's frame counts, the rows a fault hit (and the on-time ones among
    /// them) are the fault and recovered counts, and a row is addressed
    /// exactly when some item of its frame's plan reaches the user.
    #[test]
    fn the_rows_add_up_to_the_outcome() {
        let faults_of = [
            Fault::Outage,
            Fault::Blockage,
            Fault::Loss,
            Fault::DecodeOverrun,
        ];
        for delivery in [DeliveryMode::Single, DeliveryMode::Layered] {
            let mut s = layered_session(Some(stormy()));
            s.params.delivery = delivery;
            let n = s.traces.len();
            let (mut on_time, mut stalled) = (vec![0; n], vec![0; n]);
            let (mut hit, mut recovered) = (0, 0);
            let out = drive(&s, |_, faults, a| {
                assert_eq!(a.rows.len(), n);
                for (u, row) in a.rows.iter().enumerate() {
                    let played = row.outcome.on_time();
                    on_time[u] += played as usize;
                    stalled[u] += !played as usize;
                    let faulted = faults.ap_stall || faults_of.iter().any(|&f| faults.has(u, f));
                    assert_eq!(row.faulted, faulted, "user {u}");
                    hit += faulted as usize;
                    recovered += (faulted && played) as usize;
                    let reached = a.plan().any(|(_, to)| to.contains(&u));
                    assert_eq!(row.addressed, reached, "user {u}");
                }
            });
            for (u, q) in out.qoe.users.iter().enumerate() {
                assert_eq!(
                    (q.frames_on_time, q.frames_stalled),
                    (on_time[u], stalled[u])
                );
            }
            assert_eq!(out.fault_user_frames, hit, "{delivery:?}");
            assert_eq!(out.recovered_user_frames, recovered, "{delivery:?}");
            // Not vacuous: faults hit, some absorbed and some not.
            assert!(0 < recovered && recovered < hit, "{recovered} of {hit}");
        }
    }

    /// A horizon past the session's end predicts poses the run never
    /// scores: no overflow, no prediction error counted.
    #[test]
    fn a_horizon_past_the_session_runs_unscored() {
        let mut s = quick_session(PlayerKind::Volcast, 2, 12, 7);
        s.params.analysis_points = 4_000;
        s.params.config.prediction_horizon = usize::MAX;
        let out = s.run().unwrap();
        assert_eq!(out.mean_prediction_error_m, 0.0);
        assert_eq!(out.qoe.users[0].frames(), 12);
    }

    #[test]
    fn layered_knob_is_inert_for_baseline_players() {
        for p in [PlayerKind::Vanilla, PlayerKind::Vivo] {
            let single = small(p, 2);
            let mut s = quick_session(p, 2, 30, 7);
            s.params.analysis_points = 4_000;
            s.params.fixed_quality = Some(QualityLevel::Low);
            s.params.delivery = DeliveryMode::Layered;
            assert_eq!(s.run().unwrap(), single);
        }
    }
}
