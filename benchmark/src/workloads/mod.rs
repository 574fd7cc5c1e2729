//! The six workloads. Each module has an `Inputs` type built from the run
//! seed (set-up, timed as `setup_s`) and a [`Workload`] borrowing it.

pub mod campus;
pub mod codec;
pub mod server;
pub mod session;

use crate::harness::{run_traced, run_untraced, timed_setup, Metrics, Report, RunConfig, Workload};
use crate::trace::Recorder;
use volcast_net::{
    AdMac, BacklogPolicy, FaultConfig, FaultPlan, SimScratch, SimTime, Simulator, TransmissionPlan,
    TxItem,
};
use volcast_util::hash::fnv1a;

/// Steps in a round: 100 samples support a median and a p90 with ten
/// samples beyond it.
pub const STEPS: usize = 100;
/// Steps in a `--smoke` round.
pub const SMOKE_STEPS: usize = 5;
/// Distinct inputs the steps of a round cycle through, four times each.
/// A run then holds some thirty samples of every input, enough for the
/// fastest one to be a quiet one even when the host is busy for minutes;
/// with one sample per input and round it is not (see README.md).
pub const DISTINCT_INPUTS: usize = 25;
/// Set-up repetitions of the untraced pass; `setup_s` is the fastest.
const SETUP_REPS: usize = 5;

/// Runs the configured workload and returns its report; a failed output
/// check comes back as a report with `correct: false`.
pub fn run(cfg: &RunConfig) -> Report {
    let result = match cfg.workload {
        "session_single" => drive(
            cfg,
            || session::Inputs::build(cfg, false),
            |i, s| pass(&mut session::Session::new(i), cfg, s),
        ),
        "session_layered_faulted" => drive(
            cfg,
            || session::Inputs::build(cfg, true),
            |i, s| pass(&mut session::Session::new(i), cfg, s),
        ),
        "campus" => drive(
            cfg,
            || campus::Inputs::build(cfg),
            |i, s| pass(&mut campus::CampusEpochs::new(i), cfg, s),
        ),
        "server" => drive(
            cfg,
            || server::Inputs::build(cfg),
            |i, s| pass(&mut server::Server::new(i), cfg, s),
        ),
        "codec_ladder" => drive(
            cfg,
            || codec::LadderInputs::build(cfg),
            |i, s| pass(&mut codec::LadderCodec::new(i), cfg, s),
        ),
        "codec_layered" => drive(
            cfg,
            || codec::LayeredInputs::build(cfg),
            |i, s| pass(&mut codec::LayeredCodec::new(i), cfg, s),
        ),
        other => Err(format!("unknown workload '{other}'")),
    };
    result.unwrap_or_else(|e| Report::failed(cfg, e))
}

/// Set-up (repeated on the untraced pass; `setup_s` is the fastest build),
/// then `body` on the inputs the last repetition built.
fn drive<I>(
    cfg: &RunConfig,
    build: impl FnMut() -> Result<I, String>,
    body: impl FnOnce(&I, f64) -> Result<Report, String>,
) -> Result<Report, String> {
    let reps = if cfg.trace || cfg.smoke {
        1
    } else {
        SETUP_REPS
    };
    let (inputs, setup_s) = timed_setup(reps, build)?;
    body(&inputs, setup_s)
}

/// The pass the run asked for.
fn pass(wl: &mut dyn Workload, cfg: &RunConfig, setup_s: f64) -> Result<Report, String> {
    if cfg.trace {
        run_traced(wl, cfg)
    } else {
        run_untraced(wl, cfg, setup_s)
    }
}

/// Steps per round for this run.
pub fn steps(cfg: &RunConfig) -> usize {
    if cfg.smoke {
        SMOKE_STEPS
    } else {
        STEPS
    }
}

/// Distinct inputs per round for this run, `want` on the full benchmark.
pub fn distinct(cfg: &RunConfig, want: usize) -> usize {
    steps(cfg).min(want)
}

/// Folds per-step outcome hashes into one round hash.
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn clear(&mut self) {
        self.0.clear();
    }
    pub fn push(&mut self, hash: u64) {
        self.0.extend_from_slice(&hash.to_le_bytes());
    }
    pub fn finish(&self) -> u64 {
        fnv1a(&self.0)
    }
}

/// FNV-1a of a value's `Debug` form: `f64`s print shortest-round-trip, so
/// equal hashes mean bit-equal outcomes.
pub fn debug_hash(v: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{v:?}").as_bytes())
}

/// Stage probes of `net::plan`, `net::sim` and `net::faults` on a plan
/// shaped like the workload's: `users` receivers, one multicast burst plus
/// a unicast residual each, replayed over `frames` frames.
pub fn net_probes(
    rec: &mut Recorder,
    m: &mut Metrics,
    users: usize,
    frames: usize,
    faults: FaultConfig,
) {
    let mac = AdMac::default();
    let mut plan = TransmissionPlan::new();
    plan.items
        .push(TxItem::multicast((0..users).collect(), 400_000.0, 1251.25));
    for u in 0..users {
        plan.items.push(TxItem::unicast(u, 60_000.0, 2502.5));
    }
    m.set(
        "net.plan.execute_us",
        rec.probe("net.plan.execute", 16, || plan.execute(&mac, users, users)) / 1e3,
    );
    let plans = vec![plan; frames];
    let sim = Simulator::new(
        &mac,
        users,
        users,
        SimTime::from_secs(1.0 / 30.0),
        BacklogPolicy::Drop,
    )
    .expect("a positive interval and at least one station");
    let mut scratch = SimScratch::default();
    let mut outcomes = Vec::new();
    m.set(
        "net.sim.run_into_us",
        rec.probe("net.sim.run_into", 4, || {
            sim.run_into(&plans, &mut scratch, &mut outcomes)
        }) / 1e3,
    );
    m.set(
        "net.faults.generate_us",
        rec.probe("net.faults.generate", 4, || {
            FaultPlan::generate(faults, frames, users)
        }) / 1e3,
    );
}
