//! `session_single` and `session_layered_faulted`: one step builds and
//! runs one `StreamingSession` (the paper's system) over traces generated
//! in set-up. Both workloads share users, traces and step seeds; they
//! differ in delivery mode and faults only.

use super::{debug_hash, distinct, net_probes, steps, Digest};
use crate::harness::{step_seed, Metrics, RoundSummary, RunConfig, TracedRound, Workload};
use crate::trace::Recorder;
use std::cell::RefCell;
use std::collections::HashMap;
use volcast_core::session::DeliveryMode;
use volcast_core::{
    AbrPolicy, BandwidthPredictor, BlockageMitigator, CrossLayerInputs, Distress, GroupPlanner,
    GroupState, GroupingInputs, MitigationMode, PlayerKind, RateAdapter, SessionOutcome,
    SessionParams, StreamingSession, SystemConfig,
};
use volcast_geom::{Pose, Vec3};
use volcast_mmwave::{BeamSearch, Blocker, Channel, Codebook, McsTable, MultiLobeDesigner};
use volcast_net::FaultConfig;
use volcast_pointcloud::{CellGrid, VideoSequence};
use volcast_viewport::{
    iou, BlockageEvent, BlockageForecaster, JointPredictor, Trace, UserStudy, VisibilityComputer,
    VisibilityOptions,
};

/// Faults of `session_layered_faulted`; the step seed is appended. The
/// scripted blackout sits inside the shortened session.
const FAULT_SPEC: &str = "outage=0.02:4,blockage=0.05:3,stall=0.02:2,loss=0.04,decode=0.03";

/// Distinct sessions in a round, two steps each: twice the other
/// workloads' count, because sessions differ in cost by a quarter from one
/// set of traces to the next, and fewer of them would let the draw of a
/// seed move the percentiles more than the host does.
const DISTINCT_SESSIONS: usize = 2 * super::DISTINCT_INPUTS;

/// Everything a round needs, generated from the run seed.
pub struct Inputs {
    params: SessionParams,
    video: VideoSequence,
    /// Per distinct session: the users' traces and the fault schedule.
    sessions: Vec<(Vec<Trace>, Option<FaultConfig>)>,
    /// Steps in a round; step `i` runs session `i % sessions.len()`.
    steps: usize,
    phones: usize,
    headsets: usize,
    seed: u64,
}

impl Inputs {
    pub fn build(cfg: &RunConfig, layered_faulted: bool) -> Result<Inputs, String> {
        // 3 phone + 3 headset users give real multicast groups (an
        // all-headset room degenerates to groups of one); 5 frames keep a
        // 100-step round to a seventh of the run's time cap.
        let (phones, headsets, frames) = if cfg.smoke { (1, 1, 5) } else { (3, 3, 5) };
        let params = SessionParams {
            player: PlayerKind::Volcast,
            abr: AbrPolicy::CrossLayer,
            mitigation: MitigationMode::Proactive,
            body_blockage: true,
            frames,
            delivery: if layered_faulted {
                DeliveryMode::Layered
            } else {
                DeliveryMode::Single
            },
            ..SessionParams::default()
        };
        let blackout = format!("blackout={}:{}", frames / 2, (frames / 5).max(1));
        let sessions = (0..distinct(cfg, DISTINCT_SESSIONS))
            .map(|i| {
                let seed = step_seed(cfg.seed, i);
                let traces = UserStudy::generate_with(seed, frames, phones, headsets).traces;
                let faults = if layered_faulted {
                    let spec = format!("seed={seed},{FAULT_SPEC},{blackout}");
                    Some(FaultConfig::from_spec(&spec).map_err(|e| e.to_string())?)
                } else {
                    None
                };
                Ok((traces, faults))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Inputs {
            params,
            video: VideoSequence::new(cfg.seed, 300),
            sessions,
            steps: steps(cfg),
            phones,
            headsets,
            seed: cfg.seed,
        })
    }

    fn users(&self) -> usize {
        self.phones + self.headsets
    }

    fn run_step(&self, i: usize, rec: &mut Recorder) -> Result<SessionOutcome, String> {
        let (traces, faults) = &self.sessions[i % self.sessions.len()];
        let mut session = rec.scope("core.session.new", |_| {
            let mut params = self.params.clone();
            params.faults = *faults;
            let mut s = StreamingSession::new(params, traces.clone());
            s.video = self.video.clone();
            s
        });
        let out = rec
            .scope("core.session.run", |_| session.run())
            .map_err(|e| format!("step {i}: {e}"))?;
        // Conservation: every user-frame is rendered on time or stalled.
        for (u, q) in out.qoe.users.iter().enumerate() {
            if q.frames_on_time + q.frames_stalled != self.params.frames {
                return Err(format!(
                    "step {i} user {u}: {} on time + {} stalled != {} frames",
                    q.frames_on_time, q.frames_stalled, self.params.frames
                ));
            }
        }
        Ok(out)
    }
}

/// The round's accumulators.
#[derive(Default)]
struct Acc {
    on_time: u64,
    quality: f64,
    group_size: f64,
    multicast_fraction: f64,
    digest: Digest,
}

pub struct Session<'a> {
    inp: &'a Inputs,
    acc: Acc,
}

impl<'a> Session<'a> {
    pub fn new(inp: &'a Inputs) -> Session<'a> {
        Session {
            inp,
            acc: Acc::default(),
        }
    }
}

impl Workload for Session<'_> {
    fn steps(&self) -> usize {
        self.inp.steps
    }

    fn input_of(&self, i: usize) -> usize {
        i % self.inp.sessions.len()
    }

    fn ops_per_step(&self) -> u64 {
        (self.inp.users() * self.inp.params.frames) as u64
    }

    fn begin_round(&mut self) {
        self.acc = Acc::default();
    }

    fn step(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        let out = self.inp.run_step(i, rec)?;
        let acc = &mut self.acc;
        acc.on_time += out
            .qoe
            .users
            .iter()
            .map(|u| u.frames_on_time as u64)
            .sum::<u64>();
        acc.quality += out.qoe.mean_quality_score();
        acc.group_size += out.mean_group_size;
        acc.multicast_fraction += out.multicast_byte_fraction;
        acc.digest.push(debug_hash(&out));
        Ok(())
    }

    fn end_round(&mut self) -> Result<RoundSummary, String> {
        let n = self.steps() as f64;
        Ok(RoundSummary {
            attempted: self.steps() as u64 * self.ops_per_step(),
            on_time: self.acc.on_time,
            // Rung number rather than the 0..=2 score, so an all-Low round
            // does not read zero: Low = 1, Medium = 2, High = 3.
            quality: 1.0 + self.acc.quality / n,
            outcome_hash: self.acc.digest.finish(),
            layer: vec![
                ("core.session.mean_group_size", self.acc.group_size / n),
                (
                    "core.session.multicast_byte_fraction",
                    self.acc.multicast_fraction / n,
                ),
            ],
        })
    }

    fn first_step_hash(&mut self) -> Result<u64, String> {
        Ok(debug_hash(
            &self.inp.run_step(0, &mut Recorder::new(false))?,
        ))
    }

    fn layer_metrics(&self, r: &TracedRound<'_>, m: &mut Metrics) {
        for (metric, counter) in [
            ("viewport.visibility.maps", "viewport.visibility.maps"),
            (
                "viewport.visibility.visible_cells",
                "viewport.visibility.visible_cells",
            ),
            ("mmwave.designer.designs", "mmwave.designer.designs"),
            ("mmwave.designer.customized", "mmwave.designer.customized"),
            (
                "mmwave.beamsearch.sectors_probed",
                "mmwave.beamsearch.sectors_probed",
            ),
            ("core.session.stalls", "session.stalls"),
            ("core.session.retransmits", "session.degrade.retransmits"),
            (
                "core.session.fec_recoveries",
                "session.degrade.fec_recoveries",
            ),
            (
                "core.session.quality_clamps",
                "session.degrade.quality_clamps",
            ),
            (
                "core.session.partial_renders",
                "session.layered.partial_renders",
            ),
            ("net.sim.frames", "net.sim.frames"),
            ("net.sim.dropped_items", "net.sim.dropped_items"),
            ("net.sim.lost_receptions", "net.sim.faults.lost_receptions"),
            ("net.plan.multicast_items", "net.plan.multicast_items"),
            ("net.plan.unicast_items", "net.plan.unicast_items"),
            ("net.plan.fec_items", "net.plan.fec_items"),
        ] {
            m.set(metric, r.counter(counter));
        }
        let hits = r.counter("mmwave.designer.path_cache_hits");
        let lookups = hits + r.counter("mmwave.designer.path_cache_misses");
        m.set(
            "mmwave.designer.path_cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        let user_frames = (r.steps as u64 * self.ops_per_step()) as f64;
        m.set(
            "core.session.planned_bytes_per_user_frame",
            r.counter("session.planned_bytes") / user_frames,
        );
        // The program's own `session.frame` span gives the per-frame cost;
        // what is left of the same round's wall time is the per-session
        // fixed cost.
        let (frame_ns, frames) = r.obs_span("session.frame");
        m.set("core.session.frame_us", frame_ns / frames.max(1.0) / 1e3);
        m.set(
            "core.session.init_ms",
            (r.round_s * 1e3 - frame_ns / 1e6) / r.steps as f64,
        );
    }

    /// Stage probes on step 0's traces, mid-session: the same calls, in the
    /// same shape, `StreamingSession::run` makes per frame. Shares of a
    /// step computed from these are estimates from outside.
    fn probes(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        let inp = self.inp;
        let cfg: SystemConfig = inp.params.config;
        let frames = inp.params.frames;
        let n = inp.users();
        let traces = &inp.sessions[0].0;
        let f = frames / 2;
        let poses: Vec<Pose> = traces.iter().map(|t| t.pose(f)).collect();
        let positions: Vec<Vec3> = poses.iter().map(|p| p.position).collect();
        let blockers: Vec<Blocker> = positions.iter().map(|&p| Blocker::person(p)).collect();
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let designer = MultiLobeDesigner::new(&channel, &codebook);
        let mcs = McsTable::dmg();

        // viewport
        let mut joint = JointPredictor::new(n, cfg.predictor_window, Default::default());
        for g in 0..=f {
            let observed: Vec<Pose> = traces.iter().map(|t| t.pose(g)).collect();
            joint.observe_frame(&observed);
        }
        let mut predicted = Vec::new();
        m.set(
            "viewport.joint.predict_frame_us",
            rec.probe("viewport.joint.predict_frame", 16, || {
                joint.predict_frame_into(cfg.prediction_horizon, &mut predicted)
            }) / 1e3,
        );
        let cloud = inp
            .video
            .frame_with_density(f as u64, inp.params.analysis_points);
        let grid = CellGrid::new(cfg.cell_size);
        m.set(
            "pointcloud.cells.partition_ms",
            rec.probe("pointcloud.cells.partition", 1, || grid.partition(&cloud)) / 1e6,
        );
        let partition = grid.partition(&cloud);
        let computers: Vec<VisibilityComputer> = traces
            .iter()
            .map(|t| {
                VisibilityComputer::new(VisibilityOptions {
                    intrinsics: t.device.intrinsics(),
                    ..VisibilityOptions::vivo()
                })
            })
            .collect();
        let mut user = 0;
        m.set(
            "viewport.visibility.compute_us",
            rec.probe("viewport.visibility.compute", 1, || {
                user = (user + 1) % n;
                computers[user].compute(&poses[user], &grid, &partition)
            }) / 1e3,
        );
        let maps: Vec<_> = (0..n)
            .map(|u| computers[u].compute(&poses[u], &grid, &partition))
            .collect();
        m.set(
            "viewport.similarity.iou_matrix_us",
            rec.probe("viewport.similarity.iou_matrix", 4, || {
                let mut sum = 0.0;
                for a in 0..n {
                    for b in a + 1..n {
                        sum += iou(&maps[a], &maps[b]);
                    }
                }
                sum
            }) / 1e3,
        );
        let forecaster = BlockageForecaster::new(channel.array.position);
        let horizon: Vec<Vec<Pose>> = (f..(f + cfg.prediction_horizon.max(1)).min(frames))
            .map(|g| traces.iter().map(|t| t.pose(g)).collect())
            .collect();
        m.set(
            "viewport.blockage.forecast_us",
            rec.probe("viewport.blockage.forecast", 16, || {
                forecaster.forecast(&horizon)
            }) / 1e3,
        );
        m.set(
            "viewport.traces.generate_ms",
            rec.probe("viewport.traces.generate", 1, || {
                UserStudy::generate_with(inp.seed, frames, inp.phones, inp.headsets)
            }) / 1e6,
        );

        // mmwave
        let others = |u: usize| -> Vec<Blocker> {
            blockers
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != u)
                .map(|(_, b)| *b)
                .collect()
        };
        m.set(
            "mmwave.channel.rss_us",
            rec.probe("mmwave.channel.rss", 1, || {
                user = (user + 1) % n;
                channel.rss_dedicated_beam(positions[user], &others(user))
            }) / 1e3,
        );
        let pair = [positions[0], positions[n - 1]];
        m.set(
            "mmwave.multilobe.design_us",
            rec.probe("mmwave.multilobe.design", 1, || {
                designer.design(&pair, &blockers)
            }) / 1e3,
        );
        let search = BeamSearch::default();
        m.set(
            "mmwave.beamsearch.full_sweep_us",
            rec.probe("mmwave.beamsearch.full_sweep", 1, || {
                search.full_sweep(&channel, &codebook, positions[0], &others(0))
            }) / 1e3,
        );

        // core
        let unicast: Vec<f64> = (0..n)
            .map(|u| mcs.phy_rate_mbps(channel.rss_dedicated_beam(positions[u], &others(u))))
            .collect();
        let quality = inp.video.quality(volcast_pointcloud::QualityLevel::Low);
        let scale = quality.points_per_frame as f64 / inp.params.analysis_points as f64
            * quality.bytes_per_point();
        let cell_sizes: Vec<f64> = partition
            .iter()
            .map(|c| c.point_count as f64 * scale)
            .collect();
        let planner = GroupPlanner::new(cfg);
        m.set(
            "core.grouping.plan_us",
            rec.probe("core.grouping.plan", 1, || {
                // One frame's grouping: the session memoizes beam designs
                // per member set within a frame, never across frames.
                let cache: RefCell<HashMap<Vec<usize>, f64>> = RefCell::new(HashMap::new());
                let group_rate = |members: &[usize]| -> f64 {
                    if let Some(&r) = cache.borrow().get(members) {
                        return r;
                    }
                    let pts: Vec<Vec3> = members.iter().map(|&u| positions[u]).collect();
                    let r = mcs.phy_rate_mbps(designer.design(&pts, &blockers).common_rss_dbm());
                    cache.borrow_mut().insert(members.to_vec(), r);
                    r
                };
                planner.plan(&GroupingInputs {
                    maps: &maps,
                    partition: &partition,
                    cell_sizes: &cell_sizes,
                    unicast_rate_mbps: &unicast,
                    multicast_rate_mbps: &group_rate,
                })
            }) / 1e3,
        );
        let inputs = CrossLayerInputs {
            measured_throughput_mbps: 0.0,
            buffer_frames: 2.0,
            blockage_forecast: false,
            predicted_phy_rate_mbps: unicast[0],
            current_phy_rate_mbps: unicast[0],
        };
        let mut adapter = RateAdapter::new(inp.params.abr, n);
        adapter.observe(0, unicast[0] * 0.5, -60.0);
        let layered = inp.params.delivery == DeliveryMode::Layered;
        m.set(
            "core.rate_adapt.plan_delivery_ns",
            rec.probe("core.rate_adapt.plan_delivery", 256, || {
                adapter.plan_delivery(
                    &GroupState {
                        user: 0,
                        inputs: &inputs,
                        share: 1.0 / n as f64,
                        needed_fraction: 0.5,
                        layered,
                        fixed: None,
                    },
                    &Distress::new(2),
                )
            }),
        );
        let mut predictor = BandwidthPredictor::new();
        predictor.observe(unicast[0] * 0.5, -60.0);
        m.set(
            "core.bandwidth.predict_ns",
            rec.probe("core.bandwidth.predict", 1024, || {
                predictor.predict_mbps(&inputs)
            }),
        );
        let mitigator = BlockageMitigator::new(inp.params.mitigation);
        let events: Vec<BlockageEvent> = (0..n.min(2))
            .map(|victim| BlockageEvent {
                victim,
                blocker: usize::MAX,
                onset_frames: 0,
            })
            .collect();
        let mut actions = Vec::new();
        m.set(
            "core.mitigation.plan_into_us",
            rec.probe("core.mitigation.plan_into", 256, || {
                mitigator.plan_into(&events, &mut actions)
            }) / 1e3,
        );

        // net
        let faults = inp.sessions[0].1.unwrap_or_default();
        net_probes(rec, m, n, frames, faults);
    }
}
