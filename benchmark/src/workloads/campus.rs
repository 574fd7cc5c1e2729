//! `campus`: one step is one `CampusRunner::step_epoch()` of a faulted
//! multi-room campus. The campus is as many epochs long as a round has
//! distinct inputs; a round runs it from epoch 0 to the end several times.

use super::{distinct, net_probes, steps, DISTINCT_INPUTS};
use crate::harness::{Metrics, RoundSummary, RunConfig, TracedRound, Workload};
use crate::trace::Recorder;
use volcast_core::campus::{Campus, CampusOutcome, CampusParams, CampusRunner};
use volcast_core::EpochCoordinator;
use volcast_geom::Vec3;
use volcast_mmwave::{Channel, Codebook, PlanarArray, Room, SweepEngine, SweepRx};
use volcast_net::FaultConfig;
use volcast_util::hash::fnv1a;
use volcast_util::json::ToJson;
use volcast_viewport::RoamingTraceGenerator;

const FAULT_SPEC: &str = "outage=0.01:5,loss=0.02,stall=0.005:3";
const EPOCH_FRAMES: usize = 10;

pub struct Inputs {
    campus: Campus,
    faults: FaultConfig,
    /// Steps in a round: whole passes over the campus's epochs.
    steps: usize,
}

impl Inputs {
    pub fn build(cfg: &RunConfig) -> Result<Inputs, String> {
        // A fifth of the issue's 4,000 users / 40 APs, so a 100-step round
        // is a seventh of the run's time cap; 200 users a room either way.
        let (users, grid_w, grid_h) = if cfg.smoke { (100, 2, 1) } else { (800, 2, 2) };
        let faults = FaultConfig::from_spec(&format!("seed={},{FAULT_SPEC}", cfg.seed))
            .map_err(|e| e.to_string())?;
        let campus = Campus::new(CampusParams {
            grid_w,
            grid_h,
            users,
            frames: distinct(cfg, DISTINCT_INPUTS) * EPOCH_FRAMES,
            epoch_frames: EPOCH_FRAMES,
            seed: cfg.seed,
            faults: Some(faults),
            ..CampusParams::default()
        })
        .map_err(|e| e.to_string())?;
        Ok(Inputs {
            campus,
            faults,
            steps: steps(cfg),
        })
    }
}

fn outcome_hash(out: &CampusOutcome) -> u64 {
    fnv1a(out.to_json().to_json_string().as_bytes())
}

pub struct CampusEpochs<'a> {
    campus: &'a Campus,
    faults: FaultConfig,
    steps: usize,
    runner: CampusRunner<'a>,
}

impl<'a> CampusEpochs<'a> {
    pub fn new(inp: &'a Inputs) -> CampusEpochs<'a> {
        CampusEpochs {
            campus: &inp.campus,
            faults: inp.faults,
            steps: inp.steps,
            runner: inp.campus.runner(),
        }
    }
}

impl CampusEpochs<'_> {
    /// Epochs of the campus: the distinct inputs of a round.
    fn epochs(&self) -> usize {
        self.campus.params.frames / EPOCH_FRAMES
    }
}

impl Workload for CampusEpochs<'_> {
    fn steps(&self) -> usize {
        self.steps
    }

    fn input_of(&self, i: usize) -> usize {
        i % self.epochs()
    }

    fn ops_per_step(&self) -> u64 {
        (self.campus.params.users * EPOCH_FRAMES) as u64
    }

    fn begin_round(&mut self) {
        self.runner.reset();
    }

    fn step(&mut self, i: usize, _rec: &mut Recorder) -> Result<(), String> {
        if i > 0 && self.input_of(i) == 0 {
            // The campus ran to its end: the next pass starts over.
            self.runner.reset();
        }
        if self.runner.step_epoch() {
            Ok(())
        } else {
            Err(format!("epoch {i}: the campus had already run to its end"))
        }
    }

    fn end_round(&mut self) -> Result<RoundSummary, String> {
        // The outcome of the round's last pass (every pass is the same
        // campus run). `finish` consumes the runner; the next round warms
        // a fresh one.
        let out = std::mem::replace(&mut self.runner, self.campus.runner()).finish();
        let p = &self.campus.params;
        let passes = (self.steps / self.epochs()) as u64;
        let attempted = (p.users * p.frames) as u64;
        if out.scheduled_user_frames > attempted {
            return Err(format!(
                "{} user-frames scheduled, only {attempted} exist",
                out.scheduled_user_frames
            ));
        }
        if out.delivered_ratio < out.on_time_ratio {
            return Err(format!(
                "delivered ratio {} below on-time ratio {}",
                out.delivered_ratio, out.on_time_ratio
            ));
        }
        if out.over_budget_items != 0 {
            return Err(format!(
                "{} items over the airtime budget",
                out.over_budget_items
            ));
        }
        Ok(RoundSummary {
            attempted: passes * attempted,
            on_time: passes * (out.on_time_ratio * out.scheduled_user_frames as f64).round() as u64,
            quality: out.mean_quality_scale,
            outcome_hash: outcome_hash(&out),
            layer: vec![("core.campus.handoffs", out.handoffs as f64)],
        })
    }

    fn first_step_hash(&mut self) -> Result<u64, String> {
        let mut runner = self.campus.runner();
        runner.step_epoch();
        Ok(outcome_hash(&runner.finish()))
    }

    fn layer_metrics(&self, r: &TracedRound<'_>, m: &mut Metrics) {
        for (metric, counter) in [
            ("net.sim.frames", "net.sim.frames"),
            ("net.sim.dropped_items", "net.sim.dropped_items"),
            ("net.sim.lost_receptions", "net.sim.faults.lost_receptions"),
        ] {
            m.set(metric, r.counter(counter));
        }
        // Shares of the summed epoch time. The barrier and the merge are
        // serial, so their spans are wall time. The four room stages run
        // on `T` workers, so the parallel phase's wall share is split
        // among them in proportion to their (CPU-time) span totals.
        let total = |name: &str| r.obs_span(name).0;
        let epoch = (total("campus.epoch.barrier")
            + total("campus.epoch.rooms")
            + total("campus.epoch.merge"))
        .max(1.0);
        m.set(
            "core.campus.barrier_share",
            total("campus.epoch.barrier") / epoch,
        );
        m.set(
            "core.campus.merge_share",
            total("campus.epoch.merge") / epoch,
        );
        let stages = [
            ("core.campus.rss_share", total("campus.room.rss")),
            ("core.campus.grouping_share", total("campus.room.grouping")),
            ("core.campus.plan_share", total("campus.room.plan")),
            ("core.campus.sim_share", total("campus.room.sim")),
        ];
        let busy: f64 = stages.iter().map(|s| s.1).sum::<f64>().max(1.0);
        for (metric, ns) in stages {
            m.set(metric, ns / busy * total("campus.epoch.rooms") / epoch);
        }
    }

    /// Stage probes on one room's worth of users against a room's two
    /// wall APs, built the way `Campus::new` builds them.
    fn probes(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        let p = &self.campus.params;
        let room = Room::default();
        let ap = |z: f64| {
            let pos = Vec3::new(0.0, 2.6, z);
            Channel::new(
                room,
                PlanarArray::airfide(pos, Vec3::new(0.0, 1.3, 0.0) - pos),
            )
        };
        let channels = [ap(room.depth / 2.0 - 0.1), ap(-room.depth / 2.0 + 0.1)];
        let codebooks = [
            Codebook::default_for(&channels[0].array),
            Codebook::default_for(&channels[1].array),
        ];
        let engines = [
            SweepEngine::new(&channels[0], &codebooks[0]),
            SweepEngine::new(&channels[1], &codebooks[1]),
        ];
        // Roaming users of a one-room campus are room-local already.
        let per_room = (p.users / p.n_rooms()).max(2);
        let gen = RoamingTraceGenerator::new(p.seed, room.width, room.depth);
        let positions: Vec<Vec3> = (0..per_room)
            .map(|u| gen.generate(u, 1).poses[0].position)
            .collect();

        let engine = &engines[0];
        let mut rx = SweepRx::new();
        let mut next = 0;
        let mut position = || {
            next = (next + 1) % positions.len();
            positions[next]
        };
        let prepare_ns = rec.probe("mmwave.sweep.prepare", 8, || {
            rx.prepare(engine, position(), &[]);
        });
        m.set("mmwave.sweep.prepare_us", prepare_ns / 1e3);
        // `best_sector` caches its answer on the receiver, so each call
        // needs a freshly prepared one; the preparation is subtracted.
        let both_ns = rec.probe("mmwave.sweep.prepare+best_sector", 8, || {
            rx.prepare(engine, position(), &[]);
            engine.best_sector(&mut rx)
        });
        m.set(
            "mmwave.sweep.best_sector_us",
            (both_ns - prepare_ns).max(0.0) / 1e3,
        );
        let members = [0usize, 1, 2, 3];
        let mut rxs: Vec<SweepRx> = members.iter().map(|_| SweepRx::new()).collect();
        let (mut tmp, mut rss) = (Vec::new(), Vec::new());
        let joint_ns = rec.probe("mmwave.sweep.prepare4+best_joint", 4, || {
            for slot in rxs.iter_mut() {
                slot.prepare(engine, position(), &[]);
            }
            engine.best_joint(&mut rxs, &members, &mut tmp, &mut rss)
        });
        m.set(
            "mmwave.sweep.best_joint_us",
            (joint_ns - members.len() as f64 * prepare_ns).max(0.0) / 1e3,
        );
        let mut coordinator = EpochCoordinator::new();
        m.set(
            "core.multi_ap.assign_ms",
            rec.probe("core.multi_ap.assign", 1, || {
                coordinator.assign(&engines, &positions)
            }) / 1e6,
        );
        net_probes(rec, m, per_room / 2, EPOCH_FRAMES, self.faults);
    }
}
