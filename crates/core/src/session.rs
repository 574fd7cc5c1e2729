//! End-to-end multi-user streaming sessions.
//!
//! [`StreamingSession`] drives the full per-frame pipeline of the paper's
//! system over the simulated substrates:
//!
//! 1. observe user poses (from traces) into the joint multi-user predictor
//!    and the per-user link trackers,
//! 2. predict poses one horizon ahead; forecast body blockages from the
//!    predicted multi-user geometry and steer beams accordingly (proactive
//!    mode pre-steers to the best surviving path; reactive mode serves one
//!    stale frame and pays a full sweep),
//! 3. build per-user visibility maps over the frame's cell partition,
//! 4. adapt quality per user (buffer-only / throughput-only / cross-layer),
//! 5. group users by viewport similarity (`T_m(k)` model) and design the
//!    group beams (default sectors or customized multi-lobe),
//! 6. schedule multicast + residual unicast bursts and execute them on the
//!    802.11ad MAC model,
//! 7. account client buffers, decode time, stalls, and QoE.
//!
//! The same pipeline runs the two baselines: **vanilla** (full frames,
//! unicast) and **multi-user ViVo** (visibility-culled, unicast), so every
//! comparison in the bench harness shares one code path.

use crate::bandwidth::CrossLayerInputs;
use crate::config::SystemConfig;
use crate::error::VolcastError;
use crate::grouping::{Group, GroupPlanner, GroupingInputs};
use crate::mitigation::{BlockageMitigator, MitigationAction, MitigationMode};
use crate::player::PlayerKind;
use crate::qoe::QoeReport;
use crate::rate_adapt::{AbrPolicy, Distress, FecRung, GroupState, RateAdapter};
use std::cell::RefCell;
use std::collections::HashMap;
use volcast_geom::Vec3;
use volcast_mmwave::{BeamDesign, Blocker, Channel, Codebook, McsTable, SweepEngine, SweepRx};
use volcast_net::{
    AcMac, AdMac, BacklogPolicy, FaultConfig, FaultPlan, MacModel, SimTime, Simulator,
    TransmissionPlan, TxItem, Wifi5Channel,
};
use volcast_pointcloud::{CellGrid, DecodeModel, QualityLevel, VideoSequence};
use volcast_util::{obs, par};
use volcast_viewport::{
    size_index, BlockageEvent, BlockageForecaster, DeviceClass, JointPredictor, Trace,
    TraceGenerator, VisibilityComputer, VisibilityOptions,
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

/// `MacModel` dispatch over the session's radio.
enum MacDispatch<'a> {
    Ad(&'a AdMac),
    Ac(&'a AcMac),
}

impl MacModel for MacDispatch<'_> {
    fn goodput_mbps(&self, phy_mbps: f64, n_active: usize) -> f64 {
        match self {
            MacDispatch::Ad(m) => m.goodput_mbps(phy_mbps, n_active),
            MacDispatch::Ac(m) => m.goodput_mbps(phy_mbps, n_active),
        }
    }
}

/// Frame-scoped multicast beam state of a mmWave Volcast session: every
/// user's receiver is prepared once per frame, and every distinct member
/// set is designed at most once per frame — the grouping search probes the
/// same candidate sets repeatedly, and the scheduler afterwards reads the
/// winners' `customized` bit from the same memo.
struct GroupBeams<'a> {
    engine: SweepEngine<'a>,
    mcs: &'a McsTable,
    /// `false` (ablation): groups ride the best common default sector.
    custom_beams: bool,
    /// One receiver slot per user, re-prepared in place every frame.
    rxs: Vec<SweepRx>,
    /// Sorted member set -> (multicast PHY rate in Mbps, customized);
    /// cleared, not reallocated, every frame.
    memo: HashMap<Vec<usize>, (f64, bool)>,
    design: BeamDesign,
    /// Joint-sweep scratch of the `!custom_beams` path.
    tmp: Vec<f64>,
}

impl<'a> GroupBeams<'a> {
    fn new(engine: SweepEngine<'a>, mcs: &'a McsTable, custom_beams: bool, users: usize) -> Self {
        GroupBeams {
            engine,
            mcs,
            custom_beams,
            rxs: (0..users).map(|_| SweepRx::new()).collect(),
            memo: HashMap::new(),
            design: BeamDesign::default(),
            tmp: Vec::new(),
        }
    }

    /// Starts a frame: prepares user `u`'s receiver at `positions[u]`
    /// against *all* bodies, group members included (joining a group does
    /// not move anyone's body; each receiver's own cylinder is dropped by
    /// the channel's endpoint guard), and forgets last frame's designs.
    fn begin_frame(&mut self, positions: impl Iterator<Item = Vec3>, bodies: &[Blocker]) {
        for (rx, pos) in self.rxs.iter_mut().zip(positions) {
            rx.prepare(&self.engine, pos, bodies);
        }
        self.memo.clear();
    }

    /// `(multicast rate, customized)` of a member set under its group
    /// beam, designed on the first request of the frame.
    fn group(&mut self, members: &[usize]) -> (f64, bool) {
        if let Some(&known) = self.memo.get(members) {
            return known;
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
            SweepEngine::flush_counts(&mut self.rxs);
        }
        let entry = (
            self.mcs.multicast_rate_mbps(&design.member_rss_dbm),
            design.customized,
        );
        self.memo.insert(members.to_vec(), entry);
        entry
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
    /// Also octree-encode each GOP of analysis frames (batched, parallel).
    /// Measurement-only: codec counters land in `volcast_util::obs` when
    /// tracing is on, and the session outcome is unchanged.
    pub encode_gop: bool,
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
            encode_gop: false,
        }
    }
}

impl SessionParams {
    /// Validates the parameters, surfacing what used to be deep-loop
    /// panics (or silent nonsense) as errors: a session needs at least one
    /// frame, a positive frame interval, a nonzero analysis density, and a
    /// well-formed fault configuration.
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
    /// traces (no users, an empty trace), or an out-of-range fault
    /// configuration.
    pub fn run(&mut self) -> Result<SessionOutcome, VolcastError> {
        self.params.validate()?;
        if self.traces.is_empty() {
            return Err(VolcastError::InvalidTraces("no user traces".into()));
        }
        if let Some(u) = self.traces.iter().position(|t| t.is_empty()) {
            return Err(VolcastError::InvalidTraces(format!(
                "user {u} has an empty trace"
            )));
        }
        if let Some(w) = self.walkers.iter().position(|t| t.is_empty()) {
            return Err(VolcastError::InvalidTraces(format!(
                "walker {w} has an empty trace"
            )));
        }
        let n = self.traces.len();
        // The fault schedule is materialized up front: one shared, immutable
        // plan consulted by the frame loop and the pipelined replay.
        let fault_plan = match &self.params.faults {
            Some(cfg) => {
                FaultPlan::generate(*cfg, self.params.frames, n).map_err(VolcastError::Net)?
            }
            None => FaultPlan::quiet(),
        };
        // The degradation ladder only engages on faulted runs, so fault-free
        // sessions behave bit-identically to a build without this module.
        let have_faults = !fault_plan.is_quiet();
        let mac: MacDispatch<'_> = match self.params.radio {
            RadioKind::MmWave => MacDispatch::Ad(&self.mac),
            RadioKind::Wifi5 => MacDispatch::Ac(&self.ac_mac),
        };
        let is_wifi5 = self.params.radio == RadioKind::Wifi5;
        // Layered progressive delivery needs the layered bitstream and the
        // multicast scheduler: volcast-player sessions only.
        let layered = self.params.delivery == DeliveryMode::Layered
            && matches!(self.params.player, PlayerKind::Volcast);
        let cfg = self.params.config;
        let interval = cfg.frame_interval_s();
        let grid = CellGrid::new(cfg.cell_size);
        let planner = GroupPlanner::new(cfg);
        // Multicast beams exist only where the scheduler forms groups over
        // a beam-steered radio.
        let group_beams =
            (matches!(self.params.player, PlayerKind::Volcast) && !is_wifi5).then(|| {
                RefCell::new(GroupBeams::new(
                    SweepEngine::new(&self.channel, &self.codebook),
                    &self.mcs,
                    self.params.custom_beams,
                    n,
                ))
            });
        let mitigator = BlockageMitigator::new(self.params.mitigation);
        let forecaster = BlockageForecaster::new(self.channel.array.position);
        let mut joint = JointPredictor::new(n, cfg.predictor_window, Default::default());
        let mut adapter = RateAdapter::new(self.params.abr, n);
        let mut qoe = QoeReport::new(n);
        let mut buffers = vec![2.0f64; n]; // frames of startup buffer
        let mut blocked_prev = vec![false; n];

        // Double-buffered / reusable per-frame state: allocated once here,
        // cleared (never freed) every frame, so the steady-state loop does
        // not churn the allocator. `blocked_prev`/`blocked_now` swap roles
        // at the end of each frame's quality decisions.
        let mut poses: Vec<volcast_geom::Pose> = Vec::with_capacity(n);
        let mut planning_poses: Vec<volcast_geom::Pose> = Vec::with_capacity(n);
        let mut walker_pos: Vec<volcast_geom::Vec3> = Vec::with_capacity(self.walkers.len());
        let mut all_blockers: Vec<Blocker> = Vec::new();
        let mut blocked_now: Vec<bool> = Vec::with_capacity(n);
        let mut beam_outage = vec![0.0f64; n];
        let mut extra_prefetch = vec![0usize; n];
        let mut wasted_tx = vec![false; n];
        let mut unicast_phy: Vec<f64> = Vec::with_capacity(n);
        let mut unit_sizes: Vec<f64> = Vec::new();
        let mut needed_fraction: Vec<f64> = Vec::with_capacity(n);
        let mut qualities: Vec<QualityLevel> = Vec::with_capacity(n);
        let mut effective_quality: Vec<QualityLevel> = Vec::with_capacity(n);
        let mut unserved = vec![false; n];
        let mut needed_bytes = vec![0.0f64; n];
        let mut outage_pending: Vec<f64> = Vec::with_capacity(n);
        let mut analysis_cloud = volcast_pointcloud::PointCloud::new();
        // Analysis clouds are produced a GOP (one second of frames) at a
        // time: each slot generates its frame independently, so the batch
        // sweeps across the `par` workers while staying byte-identical to
        // the old per-frame generation at any thread count. With
        // `encode_gop` set the same sweep also octree-encodes every frame
        // (codec stats go to `obs`; outcomes are unaffected).
        let gop_len = (cfg.target_fps.round() as usize).max(1);
        let mut gop = volcast_pointcloud::codec::GopEncoder::new();
        let gop_cfg = volcast_pointcloud::codec::CodecConfig::default();
        // Degradation-ladder state (see DESIGN.md §11): per-user distress
        // counters drive the quality fall-down, `retransmitted` marks users
        // whose lost payload was re-sent within the frame's airtime budget.
        let mut distress = vec![0u32; n];
        let mut retransmitted = vec![false; n];
        // Layered-delivery state: per-user FEC rung from the delivery
        // decision, whether any of the user's scheduled bursts carries
        // parity (such users repair a single loss locally and never need
        // the retransmit rung) and which plan item holds their base layer
        // (for base-only partial rendering).
        let mut fec_rungs: Vec<FecRung> = Vec::with_capacity(n);
        let mut fec_protected = vec![false; n];
        let mut base_item_idx: Vec<Option<usize>> = vec![None; n];
        // Blockage-mitigation scratch: onset events and planned actions,
        // reused across frames.
        let mut blockage_events: Vec<BlockageEvent> = Vec::with_capacity(n);
        let mut mitigation_actions: Vec<MitigationAction> = Vec::with_capacity(n);
        let mut fault_user_frames = 0usize;
        let mut recovered_user_frames = 0usize;

        let mut total_bytes = 0.0f64;
        let mut multicast_bytes = 0.0f64;
        let mut frame_time_sum = 0.0f64;
        let mut group_size_sum = 0.0f64;
        let mut group_count = 0usize;
        let mut multicast_groups = 0usize;
        let mut customized_groups = 0usize;
        let mut blocked_user_frames = 0usize;
        let mut pred_err_sum = 0.0f64;
        let mut pred_err_count = 0usize;
        let mut all_plans: Vec<TransmissionPlan> = Vec::with_capacity(self.params.frames);

        for f in 0..self.params.frames {
            let _frame_span = obs::span("session.frame");
            obs::inc("session.frames");
            let fault_now = fault_plan.at(f);
            if have_faults && obs::enabled() && !fault_now.is_quiet() {
                obs::add(
                    "session.faults.outage_user_frames",
                    fault_now.outage.count() as u64,
                );
                obs::add(
                    "session.faults.blockage_user_frames",
                    fault_now.blockage.count() as u64,
                );
                obs::add(
                    "session.faults.loss_user_frames",
                    fault_now.loss.count() as u64,
                );
                obs::add(
                    "session.faults.decode_overruns",
                    fault_now.decode_overrun.count() as u64,
                );
                if fault_now.ap_stall {
                    obs::inc("session.faults.ap_stall_frames");
                }
            }
            // --- 1. observe current poses ------------------------------
            poses.clear();
            poses.extend((0..n).map(|u| self.traces[u].pose(f)));
            joint.observe_frame(&poses);

            // Bodies of the *other* users and of ambient walkers block
            // each link. Blocker list layout: users first, then walkers.
            walker_pos.clear();
            walker_pos.extend(self.walkers.iter().map(|w| w.pose(f).position));
            all_blockers.clear();
            if self.params.body_blockage {
                all_blockers.extend(
                    poses
                        .iter()
                        .map(|p| Blocker::person(p.position))
                        .chain(walker_pos.iter().map(|&p| Blocker::person(p))),
                );
            }
            let blockers_excl = |u: usize| -> Vec<Blocker> {
                all_blockers
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != u)
                    .map(|(_, b)| *b)
                    .collect()
            };

            // --- 2. prediction + blockage handling ----------------------
            // Planning poses double-buffer: either this frame's joint
            // prediction or (fallback) a copy of the observed poses, built
            // in place — the old per-frame `poses.clone()` is gone.
            let have_prediction = self.params.use_prediction
                && joint.predict_frame_into(cfg.prediction_horizon, &mut planning_poses);
            if have_prediction {
                let future = f + cfg.prediction_horizon;
                if future < self.params.frames {
                    for (u, p) in planning_poses.iter().enumerate() {
                        let truth = self.traces[u].pose(future);
                        pred_err_sum += (p.position - truth.position).norm();
                        pred_err_count += 1;
                    }
                }
            } else {
                planning_poses.clear();
                planning_poses.extend_from_slice(&poses);
            }

            // Which users' LoS is blocked *right now* by another body
            // (co-viewers or ambient walkers).
            blocked_now.clear();
            blocked_now.extend((0..n).map(|u| {
                self.params.body_blockage
                    && ((0..n).any(|v| {
                        v != u && forecaster.is_blocked(poses[u].position, poses[v].position)
                    }) || walker_pos
                        .iter()
                        .any(|&w| forecaster.is_blocked(poses[u].position, w)))
            }));
            // Injected blockage episodes: a phantom body parks on the
            // user's LoS. It enters both the mitigation logic (via
            // `blocked_now`) and the channel itself (the rss closure below
            // drops a blocker onto the path), so the whole proactive /
            // reactive machinery reacts exactly as for an organic body.
            if have_faults && !fault_now.blockage.is_empty() {
                for (u, b) in blocked_now.iter_mut().enumerate() {
                    *b |= fault_now.blockage_for(u);
                }
            }
            let blocked_count = blocked_now.iter().filter(|&&b| b).count();
            blocked_user_frames += blocked_count;
            obs::add("session.blocked_user_frames", blocked_count as u64);

            // Mitigation: charge a beam-switch outage on the clear->blocked
            // transition, sized by the mode (full reactive sweep vs the
            // small proactive switch). Proactive mode also prefetched ahead
            // of the onset; model that as a buffer bonus at the transition.
            beam_outage.fill(0.0);
            extra_prefetch.fill(0);
            // Reactive systems detect a blockage by failing: the victim's
            // burst goes out on the stale beam at the old MCS and is lost,
            // wasting that airtime before the re-search even starts.
            wasted_tx.fill(false);
            blockage_events.clear();
            if !is_wifi5 {
                // No beams at 5 GHz: nothing to switch or waste.
                blockage_events.extend((0..n).filter(|&u| blocked_now[u] && !blocked_prev[u]).map(
                    |u| BlockageEvent {
                        victim: u,
                        blocker: usize::MAX, // unattributed (organic or injected)
                        onset_frames: 0,
                    },
                ));
            }
            mitigator.plan_into(&blockage_events, &mut mitigation_actions);
            for a in &mitigation_actions {
                beam_outage[a.user] = a.beam_outage_s;
                match self.params.mitigation {
                    MitigationMode::Proactive => {
                        extra_prefetch[a.user] = a.prefetch_frames;
                        obs::add("session.prefetch_frames", a.prefetch_frames as u64);
                    }
                    MitigationMode::Reactive => {
                        wasted_tx[a.user] = true;
                        obs::inc("session.wasted_tx");
                    }
                }
            }

            // The serving beam's RSS per user. Proactive users are already
            // on the best surviving path; reactive users spend the first
            // blocked frame on the stale LoS beam before re-searching.
            // Links are independent given the frame's poses and blockers,
            // so they are evaluated in parallel (input order preserved).
            let rss: Vec<f64> = par::par_map_indexed(&poses, |u, _| {
                {
                    let injected_blockage = have_faults && fault_now.blockage_for(u);
                    if is_wifi5 {
                        // Log-distance 5 GHz link; bodies shadow mildly.
                        let d = self.channel.array.position.distance(poses[u].position);
                        let shadows = if self.params.body_blockage {
                            all_blockers
                                .iter()
                                .enumerate()
                                .filter(|&(i, b)| {
                                    i != u && forecaster.is_blocked(poses[u].position, b.center)
                                })
                                .count()
                        } else {
                            0
                        } + injected_blockage as usize;
                        return self.wifi5.rss_dbm(d, shadows);
                    }
                    let mut bl = blockers_excl(u);
                    if injected_blockage {
                        // The phantom body stands mid-path between the AP
                        // and the user: guaranteed LoS intersection.
                        bl.push(Blocker::person(
                            self.channel.array.position.lerp(poses[u].position, 0.5),
                        ));
                    }
                    if blocked_now[u] {
                        match self.params.mitigation {
                            MitigationMode::Proactive => {
                                self.channel.rss_best_beam(poses[u].position, &bl)
                            }
                            MitigationMode::Reactive => {
                                if blocked_prev[u] {
                                    self.channel.rss_best_beam(poses[u].position, &bl)
                                } else {
                                    self.channel.rss_dedicated_beam(poses[u].position, &bl)
                                }
                            }
                        }
                    } else {
                        self.channel.rss_dedicated_beam(poses[u].position, &bl)
                    }
                }
            });
            // Injected link outage: the PHY collapses outright, below every
            // MCS sensitivity. Downstream this zeroes the user's rate, so
            // admission control defers their bursts and the degradation
            // ladder (buffer playback, regrouping) takes over.
            let rss: Vec<f64> = if have_faults && !fault_now.outage.is_empty() {
                rss.iter()
                    .enumerate()
                    .map(|(u, &r)| if fault_now.outage_for(u) { -100.0 } else { r })
                    .collect()
            } else {
                rss
            };
            let mcs_table = if is_wifi5 { &self.vht } else { &self.mcs };
            unicast_phy.clear();
            unicast_phy.extend(rss.iter().map(|&r| mcs_table.phy_rate_mbps(r)));

            // --- 3. visibility maps ------------------------------------
            if f % gop_len == 0 {
                let len = gop_len.min(self.params.frames - f);
                if self.params.encode_gop {
                    gop.encode_video_gop_into(
                        &self.video,
                        f as u64,
                        len,
                        self.params.analysis_points,
                        &gop_cfg,
                    );
                } else {
                    gop.generate_gop(&self.video, f as u64, len, self.params.analysis_points);
                }
            }
            gop.frame_points(f % gop_len)
                .to_cloud_into(&mut analysis_cloud);
            let partition = grid.partition(&analysis_cloud);
            // Per-user maps are independent; the fan-out is the frame
            // step's biggest cost at scale (one frustum + occlusion pass
            // per user over the whole partition).
            let maps: Vec<_> = par::par_map_indexed(&planning_poses, |u, pose| {
                let options = match self.params.player {
                    PlayerKind::Vanilla => VisibilityOptions::vanilla(),
                    _ => VisibilityOptions {
                        intrinsics: self.traces[u].device.intrinsics(),
                        ..VisibilityOptions::vivo()
                    },
                };
                VisibilityComputer::new(options).compute(pose, &grid, &partition)
            });

            // --- 4. quality decisions ----------------------------------
            // Unit (analysis-density) sizes: one per partition cell, plus
            // the id-keyed index shared by every per-user byte query below.
            unit_sizes.clear();
            unit_sizes.extend(partition.iter().map(|c| c.point_count as f64));
            let unit_index = size_index(&partition, &unit_sizes);
            let total_points: f64 = unit_sizes.iter().sum();
            needed_fraction.clear();
            needed_fraction.extend((0..n).map(|u| match self.params.player {
                PlayerKind::Vanilla => 1.0,
                _ => {
                    if total_points <= 0.0 {
                        1.0
                    } else {
                        maps[u].required_bytes_indexed(&unit_index) / total_points
                    }
                }
            }));

            // One unified delivery decision per user: the ABR target (or
            // the session's pinned quality), the degradation ladder's
            // rung-1 quality clamp, and — for layered delivery — the
            // enhancement-layer count and proactive-FEC rung, all from
            // [`RateAdapter::plan_delivery`]. Fault-free runs have zero
            // distress everywhere, so the clamp is the identity.
            qualities.clear();
            fec_rungs.clear();
            for u in 0..n {
                let inputs = CrossLayerInputs {
                    measured_throughput_mbps: 0.0,
                    buffer_frames: buffers[u],
                    blockage_forecast: match self.params.mitigation {
                        MitigationMode::Proactive => blocked_now[u],
                        // Reactive ABRs only see the collapse after
                        // it has already cost them a frame.
                        MitigationMode::Reactive => blocked_prev[u],
                    },
                    predicted_phy_rate_mbps: adapter.predictors[u]
                        .link
                        .predicted_rss_dbm(cfg.prediction_horizon)
                        .map_or(unicast_phy[u], |r| mcs_table.phy_rate_mbps(r)),
                    current_phy_rate_mbps: unicast_phy[u],
                };
                let decision = adapter.plan_delivery(
                    &GroupState {
                        user: u,
                        inputs: &inputs,
                        share: 1.0 / n as f64,
                        needed_fraction: needed_fraction[u],
                        layered,
                        fixed: self.params.fixed_quality,
                    },
                    &Distress::new(distress[u]),
                );
                let delivered = decision.quality();
                if have_faults && delivered != decision.target_quality {
                    obs::inc("session.degrade.quality_clamps");
                }
                qualities.push(delivered);
                fec_rungs.push(decision.fec);
            }
            // Quality decisions were the last reader of both blockage
            // buffers; roll them forward (this frame's `blocked_now`
            // becomes next frame's `blocked_prev`) without cloning.
            std::mem::swap(&mut blocked_prev, &mut blocked_now);

            // --- 5. per-user byte requirements --------------------------
            let scale_for = |q: QualityLevel| -> f64 {
                let quality = self.video.quality(q);
                quality.points_per_frame as f64 / self.params.analysis_points as f64
                    * quality.bytes_per_point()
            };
            // Grouping plans with cell sizes at the lowest active quality;
            // each formed group is then re-priced at its own members'
            // minimum quality (shared cells must be decodable by all
            // members), and residuals at each member's own quality.
            let planning_quality = qualities.iter().copied().min().unwrap_or(QualityLevel::Low);
            // Effective per-user quality actually delivered this frame
            // (grouped volcast users may be pulled down to group quality).
            effective_quality.clear();
            effective_quality.extend_from_slice(&qualities);
            // Users the scheduler could not serve this frame (outage).
            unserved.fill(false);
            // Zero-need users are trivially served.
            needed_bytes.fill(0.0);
            // Layered bookkeeping: which plan item carries each user's
            // base layer, and who is parity-protected this frame.
            fec_protected.fill(false);
            base_item_idx.fill(None);

            // --- 6. plan: groups + beams --------------------------------
            // Admission control: the scheduler never admits a burst whose
            // airtime alone exceeds a few frame intervals — a frame that
            // slow can never catch up (the buffer is shallower than the
            // backlog it creates) and would only starve the service
            // period. Sub-30-FPS operation (bursts of 1-3 intervals, the
            // paper's 10-25 FPS rows) is still admitted; deeply faded
            // MCS0-trickle bursts (>10 intervals) are deferred instead of
            // poisoning every other user's frame.
            let admit = |bytes: f64, phy: f64| -> bool {
                phy > 0.0 && mac.airtime_s(bytes, phy, n) <= 3.0 * interval
            };
            let mut plan = TransmissionPlan::new();
            // Lost reactive bursts: transmitted at the pre-blockage rate
            // (stale beam, clear-channel MCS) but never received. They are
            // queued first — the AP doesn't yet know the link is dead.
            for u in 0..n {
                if wasted_tx[u] {
                    let clear_rss = self.channel.rss_dedicated_beam(poses[u].position, &[]);
                    let stale_phy = mcs_table.phy_rate_mbps(clear_rss);
                    // Conservative: the AP aborts after ~a quarter of the
                    // frame's worth of unacknowledged MPDUs.
                    let probe_bytes = stale_phy * 1e6 / 8.0 * (interval * 0.25);
                    if admit(probe_bytes, stale_phy) {
                        plan.items.push(TxItem::unicast(u, probe_bytes, stale_phy));
                    }
                }
            }
            let mut groups_this_frame: Vec<Group> = Vec::new();
            match self.params.player {
                PlayerKind::Vanilla => {
                    for u in 0..n {
                        let q = self.video.quality(qualities[u]);
                        needed_bytes[u] = q.full_frame_bytes();
                        if !admit(needed_bytes[u], unicast_phy[u]) {
                            unserved[u] = true; // outage/too slow: defer
                            continue;
                        }
                        let mut item = TxItem::unicast(u, needed_bytes[u], unicast_phy[u]);
                        item.beam_switch_s = beam_outage[u];
                        plan.items.push(item);
                    }
                }
                PlayerKind::Vivo => {
                    for u in 0..n {
                        needed_bytes[u] =
                            maps[u].required_bytes_indexed(&unit_index) * scale_for(qualities[u]);
                        if !admit(needed_bytes[u], unicast_phy[u]) {
                            unserved[u] = needed_bytes[u] > 0.0;
                            continue;
                        }
                        let mut item = TxItem::unicast(u, needed_bytes[u], unicast_phy[u]);
                        item.beam_switch_s = beam_outage[u];
                        plan.items.push(item);
                    }
                }
                PlayerKind::Volcast => {
                    if let Some(beams) = &group_beams {
                        beams
                            .borrow_mut()
                            .begin_frame(planning_poses.iter().map(|p| p.position), &all_blockers);
                    }
                    // `(multicast rate, customized beam)` of a member set.
                    let group_beam = |members: &[usize]| -> (f64, bool) {
                        match &group_beams {
                            Some(beams) => beams.borrow_mut().group(members),
                            // Group-addressed frames at the legacy basic
                            // rate — why ac multicast doesn't pay off —
                            // on a radio with no beams to customize.
                            None => (self.wifi5.multicast_basic_rate_mbps, false),
                        }
                    };
                    // The planner calls this serially, for groups of 2+.
                    let group_rate = |members: &[usize]| group_beam(members).0;
                    // Unit (analysis-density) byte needs per member.
                    let member_unit: Vec<f64> = maps
                        .iter()
                        .map(|m| m.required_bytes_indexed(&unit_index))
                        .collect();
                    outage_pending.clear();
                    outage_pending.extend_from_slice(&beam_outage);
                    if layered {
                        // --- layered progressive delivery ---------------
                        // The base layer rides the similarity-driven
                        // multicast groups of §4.2, priced at the ladder's
                        // floor quality: the planner forms groups under the
                        // T_m transmission-time model with base-scale cell
                        // sizes, each group multicasts its members' shared
                        // cells once over the best common beam, and the
                        // unshared remainder of every member's base plus
                        // any enhancement layers ride unicast, admitted per
                        // RSS/airtime budget. Distressed users' bursts
                        // carry proactive XOR parity so a single lost
                        // chunk repairs locally instead of costing the
                        // retransmit rung its airtime.
                        let base_scale = scale_for(QualityLevel::Low);
                        let cell_sizes: Vec<f64> =
                            unit_sizes.iter().map(|s| s * base_scale).collect();
                        let mut gp = planner.plan(&GroupingInputs {
                            maps: &maps,
                            partition: &partition,
                            cell_sizes: &cell_sizes,
                            unicast_rate_mbps: &unicast_phy,
                            multicast_rate_mbps: &group_rate,
                        });
                        // Rung 3 (multicast re-planning) applies unchanged:
                        // outaged members are severed from their groups and
                        // carried as singletons — see the single-stream arm
                        // below for the rationale.
                        if have_faults && !fault_now.outage.is_empty() {
                            let mut severed: Vec<usize> = Vec::new();
                            for g in &mut gp.groups {
                                if g.members.iter().any(|&u| fault_now.outage_for(u)) {
                                    severed.extend(
                                        g.members.iter().filter(|&&u| fault_now.outage_for(u)),
                                    );
                                    g.members.retain(|&u| !fault_now.outage_for(u));
                                    obs::inc("session.degrade.regrouped_groups");
                                }
                            }
                            gp.groups.retain(|g| !g.members.is_empty());
                            severed.sort_unstable();
                            for u in severed {
                                gp.groups.push(Group {
                                    members: vec![u],
                                    multicast_bytes: 0.0,
                                    multicast_rate_mbps: 0.0,
                                    iou: 0.0,
                                });
                            }
                            gp.groups.sort_by(|a, b| a.members.cmp(&b.members));
                        }
                        for g in &gp.groups {
                            // The shared base rides at the members' highest
                            // FEC rung: one lost reception anywhere in the
                            // group repairs locally.
                            let base_fec = g.members.iter().map(|&u| fec_rungs[u]).fold(
                                FecRung::Off,
                                |a, b| {
                                    if b.overhead() > a.overhead() {
                                        b
                                    } else {
                                        a
                                    }
                                },
                            );
                            // The planner priced this group at base scale,
                            // so its shared-byte figure IS the multicast
                            // base payload — no repricing needed.
                            let shared_base = g.multicast_bytes;
                            let base_parity = shared_base * base_fec.overhead();
                            let group_active = g.members.len() >= 2
                                && shared_base > 0.0
                                && g.multicast_rate_mbps > 0.0
                                && admit(shared_base + base_parity, g.multicast_rate_mbps);
                            let mut base_idx = None;
                            if group_active {
                                multicast_groups += 1;
                                customized_groups += group_beam(&g.members).1 as usize;
                                plan.items.push(
                                    TxItem::multicast(
                                        g.members.clone(),
                                        shared_base,
                                        g.multicast_rate_mbps,
                                    )
                                    .with_parity(base_parity),
                                );
                                base_idx = Some(plan.items.len() - 1);
                                multicast_bytes += shared_base;
                                obs::add("session.multicast_bytes", shared_base.max(0.0) as u64);
                                obs::add(
                                    "session.layered.base_multicast_bytes",
                                    shared_base.max(0.0) as u64,
                                );
                                obs::record("session.group_size", g.members.len() as u64);
                            }
                            for &u in &g.members {
                                let own_full = member_unit[u] * scale_for(qualities[u]);
                                needed_bytes[u] = own_full;
                                if unicast_phy[u] <= 0.0 {
                                    unserved[u] = own_full > 0.0;
                                    continue;
                                }
                                let base_own = member_unit[u] * base_scale;
                                let base_shared = if group_active {
                                    shared_base.min(base_own)
                                } else {
                                    0.0
                                };
                                if group_active {
                                    base_item_idx[u] = base_idx;
                                    if base_parity > 0.0 {
                                        fec_protected[u] = true;
                                    }
                                }
                                // Unshared remainder of the base, unicast.
                                let base_rest = (base_own - base_shared).max(0.0);
                                if base_rest > 0.0 {
                                    let parity = base_rest * fec_rungs[u].overhead();
                                    if admit(base_rest + parity, unicast_phy[u]) {
                                        let mut item =
                                            TxItem::unicast(u, base_rest, unicast_phy[u])
                                                .with_parity(parity);
                                        item.beam_switch_s = outage_pending[u];
                                        outage_pending[u] = 0.0;
                                        plan.items.push(item);
                                        if base_item_idx[u].is_none() {
                                            base_item_idx[u] = Some(plan.items.len() - 1);
                                        }
                                        if parity > 0.0 {
                                            fec_protected[u] = true;
                                        }
                                    } else if group_active {
                                        // The shared slice still renders a
                                        // coarse frame — degrade, don't drop.
                                        effective_quality[u] = QualityLevel::Low;
                                        needed_bytes[u] = base_shared;
                                        obs::inc("session.layered.enhancements_deferred");
                                        continue;
                                    } else {
                                        unserved[u] = true;
                                        continue;
                                    }
                                }
                                let enh_bytes = (own_full - base_own).max(0.0);
                                if enh_bytes <= 0.0 {
                                    continue; // base-only target: done
                                }
                                let parity = enh_bytes * fec_rungs[u].overhead();
                                // Enhancements are optional upgrades: they
                                // ride only when the client holds enough
                                // buffer that a slipped enhancement can
                                // never stall playout — and distress
                                // deepens the required reserve, so a user
                                // coming out of a fault window streams
                                // cheap base-only frames (whose spare
                                // airtime refills the buffer fastest)
                                // until a cushion for the next window is
                                // in place. Cold-started clients join at
                                // base quality immediately and upgrade
                                // once buffered — progressive delivery's
                                // fast-join story.
                                let reserve = (1.0 + f64::from(distress[u]))
                                    .max(cfg.buffer_capacity_frames as f64);
                                if !admit(enh_bytes + parity, unicast_phy[u])
                                    || buffers[u] < reserve
                                {
                                    // The base still renders, so the user
                                    // degrades instead of going unserved.
                                    effective_quality[u] = QualityLevel::Low;
                                    needed_bytes[u] = base_own;
                                    obs::inc("session.layered.enhancements_deferred");
                                    continue;
                                }
                                let mut item = TxItem::unicast(u, enh_bytes, unicast_phy[u])
                                    .with_parity(parity);
                                item.beam_switch_s = outage_pending[u];
                                outage_pending[u] = 0.0;
                                plan.items.push(item);
                                if parity > 0.0 {
                                    fec_protected[u] = true;
                                }
                                obs::inc("session.layered.enhancement_items");
                            }
                        }
                        groups_this_frame = gp.groups;
                    } else {
                        let cell_sizes: Vec<f64> = unit_sizes
                            .iter()
                            .map(|s| s * scale_for(planning_quality))
                            .collect();
                        let mut gp = planner.plan(&GroupingInputs {
                            maps: &maps,
                            partition: &partition,
                            cell_sizes: &cell_sizes,
                            unicast_rate_mbps: &unicast_phy,
                            multicast_rate_mbps: &group_rate,
                        });
                        // Graceful degradation, rung 3: multicast re-planning.
                        // A member in an injected outage cannot receive the
                        // group's burst — drop them from their group so the
                        // multicast item doesn't (falsely) mark them complete,
                        // and carry them on as singletons whose unicast leg the
                        // admission control defers while the outage lasts. The
                        // surviving members' shared-byte figure is kept (the
                        // overlap of a subset is a superset — the planner's
                        // price is a safe underestimate of the sharing), and
                        // the `beneficial` re-check below still applies.
                        if have_faults && !fault_now.outage.is_empty() {
                            let mut severed: Vec<usize> = Vec::new();
                            for g in &mut gp.groups {
                                if g.members.iter().any(|&u| fault_now.outage_for(u)) {
                                    severed.extend(
                                        g.members.iter().filter(|&&u| fault_now.outage_for(u)),
                                    );
                                    g.members.retain(|&u| !fault_now.outage_for(u));
                                    obs::inc("session.degrade.regrouped_groups");
                                }
                            }
                            gp.groups.retain(|g| !g.members.is_empty());
                            severed.sort_unstable();
                            for u in severed {
                                gp.groups.push(Group {
                                    members: vec![u],
                                    multicast_bytes: 0.0,
                                    multicast_rate_mbps: 0.0,
                                    iou: 0.0,
                                });
                            }
                            gp.groups.sort_by(|a, b| a.members.cmp(&b.members));
                        }
                        for g in &gp.groups {
                            // Shared cells are encoded at the group's minimum
                            // member quality; singletons keep their own.
                            let group_q = g
                                .members
                                .iter()
                                .map(|&u| qualities[u])
                                .min()
                                .unwrap_or(planning_quality);
                            let overlap_unit =
                                g.multicast_bytes / scale_for(planning_quality).max(1e-12);
                            let shared_bytes = overlap_unit * scale_for(group_q);

                            // The planner priced this group at the global
                            // minimum quality; re-check the merge at the
                            // group's actual quality and against admission —
                            // if the repriced multicast no longer beats plain
                            // unicast (or cannot fit a slot), dissolve it.
                            let beneficial = g.members.len() >= 2
                                && g.multicast_bytes > 0.0
                                && g.multicast_rate_mbps > 0.0
                                && {
                                    let merged_t = shared_bytes / g.multicast_rate_mbps
                                        + g.members
                                            .iter()
                                            .map(|&u| {
                                                let own = member_unit[u] * scale_for(qualities[u]);
                                                let residual = (own - shared_bytes).max(0.0);
                                                if unicast_phy[u] > 0.0 {
                                                    residual / unicast_phy[u]
                                                } else {
                                                    0.0
                                                }
                                            })
                                            .sum::<f64>();
                                    let unicast_t = g
                                        .members
                                        .iter()
                                        .map(|&u| {
                                            let own = member_unit[u] * scale_for(qualities[u]);
                                            if unicast_phy[u] > 0.0 {
                                                own / unicast_phy[u]
                                            } else {
                                                f64::INFINITY
                                            }
                                        })
                                        .sum::<f64>();
                                    merged_t <= unicast_t
                                };
                            let group_active =
                                beneficial && admit(shared_bytes, g.multicast_rate_mbps);

                            if group_active {
                                multicast_groups += 1;
                                customized_groups += group_beam(&g.members).1 as usize;
                                plan.items.push(TxItem::multicast(
                                    g.members.clone(),
                                    shared_bytes,
                                    g.multicast_rate_mbps,
                                ));
                                multicast_bytes += shared_bytes;
                                obs::add("session.multicast_bytes", shared_bytes.max(0.0) as u64);
                                obs::record("session.group_size", g.members.len() as u64);
                            }

                            for &u in &g.members {
                                if group_active {
                                    effective_quality[u] = effective_quality[u].min(group_q);
                                }
                                let own_bytes = member_unit[u] * scale_for(qualities[u]);
                                let shared = if group_active { shared_bytes } else { 0.0 };
                                let residual = (own_bytes - shared).max(0.0);
                                needed_bytes[u] = own_bytes;
                                if residual <= 0.0 {
                                    continue; // fully covered by the multicast
                                }
                                if !admit(residual, unicast_phy[u]) {
                                    // The user's frame cannot complete this
                                    // slot; don't burn airtime on a partial
                                    // delivery they cannot render.
                                    unserved[u] = true;
                                    continue;
                                }
                                let mut item = TxItem::unicast(u, residual, unicast_phy[u]);
                                item.beam_switch_s = outage_pending[u];
                                outage_pending[u] = 0.0; // charge once
                                plan.items.push(item);
                            }
                        }
                        groups_this_frame = gp.groups;
                    }
                }
            }

            // --- 7. execute + account ----------------------------------
            // Graceful degradation, rung 2: bounded retransmit. A user
            // whose scheduled delivery will be lost (corrupted past the
            // MAC's retry budget) gets exactly one re-send, paid for with a
            // backoff surcharge and admitted only while the whole frame
            // still fits the 3x-interval airtime window. Beyond the
            // budget, the loss stands and the buffer absorbs it instead.
            retransmitted.fill(false);
            if have_faults && !fault_now.loss.is_empty() && !fault_now.ap_stall {
                let backoff_s = 0.1 * interval;
                for u in 0..n {
                    if !fault_now.loss_for(u)
                        || fault_now.outage_for(u)
                        || unserved[u]
                        || needed_bytes[u] <= 0.0
                    {
                        continue;
                    }
                    if fec_protected[u] {
                        // The FEC rung already paid for this loss up
                        // front: the parity riding with the user's bursts
                        // rebuilds the lost chunk locally — no retransmit
                        // airtime, no backoff.
                        obs::inc("session.degrade.fec_recoveries");
                        continue;
                    }
                    let frame_air: f64 = plan
                        .items
                        .iter()
                        .map(|i| i.beam_switch_s + mac.airtime_s(i.wire_bytes(), i.phy_mbps, n))
                        .sum();
                    let retx_air = mac.airtime_s(needed_bytes[u], unicast_phy[u], n);
                    if frame_air.is_finite()
                        && retx_air.is_finite()
                        && frame_air + backoff_s + retx_air <= 3.0 * interval
                    {
                        let mut item = TxItem::unicast(u, needed_bytes[u], unicast_phy[u]);
                        item.beam_switch_s = backoff_s; // MAC backoff before the re-send
                        plan.items.push(item);
                        retransmitted[u] = true;
                        obs::inc("session.degrade.retransmits");
                    } else {
                        obs::inc("session.degrade.retransmits_deferred");
                    }
                }
            }
            // Injected AP stall: the AP transmits nothing this frame.
            // Clear the plan (no airtime is burned) and mark every user
            // with pending payload unserved, so they play from buffer —
            // stall recovery without a panic, never a wedged queue.
            if have_faults && fault_now.ap_stall {
                plan.items.clear();
                // Nothing flew: no base layer to fall back on, no parity.
                base_item_idx.fill(None);
                fec_protected.fill(false);
                for u in 0..n {
                    unserved[u] = needed_bytes[u] > 0.0;
                }
            }
            let timing = plan.execute(&mac, n, n);
            if obs::enabled() {
                obs::add("session.scheduled_items", plan.items.len() as u64);
                obs::add("session.planned_bytes", plan.total_bytes().max(0.0) as u64);
                obs::add(
                    "session.unserved_user_frames",
                    unserved.iter().filter(|&&b| b).count() as u64,
                );
                if timing.total_s.is_finite() {
                    obs::record("session.frame_airtime_us", (timing.total_s * 1e6) as u64);
                }
            }
            total_bytes += plan.total_bytes();
            frame_time_sum += if timing.total_s.is_finite() {
                timing.total_s
            } else {
                interval * 4.0 // charge a saturated slot for outage frames
            };
            for g in &groups_this_frame {
                group_size_sum += g.members.len() as f64;
                group_count += 1;
            }
            if !matches!(self.params.player, PlayerKind::Volcast) {
                group_size_sum += n as f64; // n singleton groups
                group_count += n;
            }

            // Layered streams buffer deeper: a prefetched base frame is
            // quality-invariant (the enhancement decision is made at play
            // time, not fetch time), so progressive delivery can hold twice
            // the single-stream motion-to-photon window without the
            // quality-switch waste that caps single-stream prefetch — the
            // SVC deep-buffer argument, and the mechanism by which the FEC
            // ladder's goodput savings convert into stall headroom.
            let buf_cap = if layered {
                2.0 * cfg.buffer_capacity_frames as f64
            } else {
                cfg.buffer_capacity_frames as f64
            };
            for u in 0..n {
                let q_u = effective_quality[u];
                // Proactive mitigation prefetched ahead of the onset using
                // earlier frames' spare airtime (the paper: "prefetch the
                // content and schedule the future cells in the current
                // time slot"). The blockage reserve may exceed the normal
                // motion-to-photon buffer cap: during a forecast outage
                // the client accepts staler predicted-viewport cells over
                // a stall. Half the pushed frames are credited (the other
                // half render with out-of-date viewports and are wasted).
                let reserve = extra_prefetch[u] as f64 * 0.5;
                buffers[u] = (buffers[u] + reserve).min(buf_cap + reserve);

                // An injected loss without a successful retransmit means the
                // airtime was burned but nothing decodable arrived — unless
                // the burst carried proactive parity: a single erasure then
                // rebuilds locally and the frame completes.
                let lost =
                    have_faults && fault_now.loss_for(u) && !retransmitted[u] && !fec_protected[u];
                let delivery = if needed_bytes[u] <= 0.0 {
                    0.0 // nothing visible: trivially delivered
                } else if unserved[u] || wasted_tx[u] || lost {
                    f64::INFINITY
                } else {
                    timing.user_completion_s[u].unwrap_or(f64::INFINITY)
                };
                let mut decode_t = self
                    .decode
                    .frame_decode_time(self.video.quality(q_u).points_per_frame);
                if have_faults && fault_now.decode_overrun_for(u) {
                    // The client misses its decode slot (thermal throttling,
                    // background work): charge at least a slot and a half.
                    decode_t = decode_t.max(1.5 * interval);
                }
                let t_eff = delivery.max(decode_t);

                // Playout bookkeeping for one delivery candidate: on-time
                // flag, stall seconds, and the buffer's next value.
                let classify = |t_eff: f64, buf: f64| -> (bool, f64, f64) {
                    if !t_eff.is_finite() {
                        // Undeliverable frame: play from buffer if possible.
                        if buf >= 1.0 {
                            (true, 0.0, buf - 1.0)
                        } else {
                            (false, interval, 0.0)
                        }
                    } else if t_eff <= interval {
                        // Spare airtime prefetches ahead.
                        let spare = (interval - t_eff) / interval;
                        (true, 0.0, (buf + spare).min(buf_cap))
                    } else {
                        let deficit = (t_eff - interval) / interval; // frames
                        if buf >= deficit {
                            (true, 0.0, buf - deficit)
                        } else {
                            (false, (deficit - buf) * interval, 0.0)
                        }
                    }
                };
                let (mut on_time, mut stall_s, mut next_buf) = classify(t_eff, buffers[u]);
                let mut rendered_q = q_u;
                // Layered partial render: when the full layer stack misses
                // its slot, fall back to the base layer — a coarse frame on
                // time beats a stall. (A lost or wasted burst took the base
                // down with it; those cannot fall back.)
                if layered && !on_time && needed_bytes[u] > 0.0 && !lost && !wasted_tx[u] {
                    if let Some(i) = base_item_idx[u] {
                        let mut base_decode = self.decode.frame_decode_time(
                            self.video.quality(QualityLevel::Low).points_per_frame,
                        );
                        if have_faults && fault_now.decode_overrun_for(u) {
                            base_decode = base_decode.max(1.5 * interval);
                        }
                        let t_base = timing.item_completion_s[i].max(base_decode);
                        let (b_on, b_stall, b_buf) = classify(t_base, buffers[u]);
                        if b_on || b_stall < stall_s {
                            on_time = b_on;
                            stall_s = b_stall;
                            next_buf = b_buf;
                            rendered_q = QualityLevel::Low;
                            if b_on {
                                obs::inc("session.layered.partial_renders");
                            }
                        }
                    }
                }
                buffers[u] = next_buf;
                qoe.users[u].record_frame(on_time, stall_s, rendered_q);
                if obs::enabled() {
                    if !on_time {
                        obs::inc("session.stalls");
                        obs::record("session.stall_us", (stall_s * 1e6) as u64);
                    }
                    obs::gauge("session.buffer_frames_peak", buffers[u]);
                }

                // Ladder bookkeeping: count fault hits and how many the
                // degradation machinery absorbed, and roll the per-user
                // distress counter that drives next frame's quality clamp.
                if have_faults {
                    let hit = fault_now.ap_stall
                        || fault_now.outage_for(u)
                        || fault_now.blockage_for(u)
                        || fault_now.loss_for(u)
                        || fault_now.decode_overrun_for(u);
                    if hit {
                        fault_user_frames += 1;
                        if on_time {
                            recovered_user_frames += 1;
                        }
                    }
                    // Hard faults raise distress even when absorbed (the
                    // link has not proven itself); soft ones only when they
                    // actually cost a stall.
                    let hard = fault_now.ap_stall || fault_now.outage_for(u) || lost;
                    distress[u] = if hard || (hit && !on_time) {
                        (distress[u] + 2).min(6)
                    } else {
                        distress[u].saturating_sub(1)
                    };
                    if obs::enabled() {
                        obs::gauge("session.degrade.distress_peak", distress[u] as f64);
                    }
                }

                // Feed the adapter's cross-layer predictor with this user's
                // *delivery rate* (bytes over the airtime actually spent on
                // their items), the quantity an ABR can measure. Layered
                // delivery measures the unicast path only: the multicast
                // base is server-scheduled (not an ABR-controlled flow) and
                // rides the group's slowest common beam, so blending it in
                // would anchor every member's throughput estimate to the
                // group floor and starve the enhancement budget.
                let (user_bytes, user_airtime): (f64, f64) = plan
                    .items
                    .iter()
                    .filter(|i| {
                        i.receivers().contains(&u) && (!layered || i.receivers().len() == 1)
                    })
                    .map(|i| (i.bytes, mac.airtime_s(i.wire_bytes(), i.phy_mbps, n)))
                    .fold((0.0, 0.0), |(b, t), (ib, it)| (b + ib, t + it));
                let tput = if user_airtime > 0.0 && user_airtime.is_finite() {
                    user_bytes * 8.0 / (user_airtime * 1e6)
                } else {
                    0.0
                };
                if layered && user_airtime <= 0.0 && base_item_idx[u].is_some() {
                    // Base-only frame: the unicast path was idle, not slow.
                    // Track the RSS trend but keep the throughput EWMA.
                    adapter.predictors[u].link.observe(rss[u]);
                } else {
                    adapter.observe(u, tput, rss[u]);
                }
            }
            // The plan's last reader was the accounting loop above; hand it
            // to the replay log by move instead of the former clone.
            all_plans.push(plan);
        }

        qoe.duration_s = self.params.frames as f64 * interval;

        // Pipelined network-only replay (see SessionOutcome docs), under
        // the same fault schedule the frame loop saw.
        let sim = Simulator::new(
            &mac,
            n,
            n,
            SimTime::from_secs(interval),
            BacklogPolicy::Drop,
        )
        .map_err(VolcastError::Net)?
        .with_faults(&fault_plan);
        let outcomes_ed = sim.run(&all_plans);
        let deadline = SimTime::from_secs(interval);
        let mut on_time = 0usize;
        let mut addressed = 0usize;
        for (f, o) in outcomes_ed.iter().enumerate() {
            for u in 0..n {
                // Only count users the frame's plan actually addressed.
                if all_plans[f]
                    .items
                    .iter()
                    .any(|i| i.receivers().contains(&u))
                {
                    addressed += 1;
                    if o.on_time(u, deadline) {
                        on_time += 1;
                    }
                }
            }
        }
        let pipelined_on_time_ratio = if addressed > 0 {
            on_time as f64 / addressed as f64
        } else {
            1.0
        };

        Ok(SessionOutcome {
            qoe,
            mean_frame_time_s: frame_time_sum / self.params.frames.max(1) as f64,
            multicast_byte_fraction: if total_bytes > 0.0 {
                multicast_bytes / total_bytes
            } else {
                0.0
            },
            mean_group_size: if group_count > 0 {
                group_size_sum / group_count as f64
            } else {
                1.0
            },
            customized_beam_fraction: if multicast_groups > 0 {
                customized_groups as f64 / multicast_groups as f64
            } else {
                0.0
            },
            blocked_user_frames,
            mean_prediction_error_m: if pred_err_count > 0 {
                pred_err_sum / pred_err_count as f64
            } else {
                0.0
            },
            pipelined_on_time_ratio,
            fault_user_frames,
            recovered_user_frames,
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
volcast_util::impl_json_enum!(RadioKind { MmWave, Wifi5 });
volcast_util::impl_json_enum!(DeliveryMode { Single, Layered });
volcast_util::impl_json_struct!(SessionParams {
    config,
    player,
    abr,
    mitigation,
    fixed_quality,
    frames,
    analysis_points,
    custom_beams,
    use_prediction,
    body_blockage,
    radio,
    faults,
    delivery,
    encode_gop
});
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
mod tests {
    use super::*;

    fn small(player: PlayerKind, users: usize) -> SessionOutcome {
        let mut s = quick_session(player, users, 30, 7);
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        s.run().unwrap()
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
