//! The closed loop that drives one workload: the process main thread
//! issues the next step only after the previous one returned. The untraced
//! pass yields the end-to-end metrics, the traced pass the per-layer ones.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Recorder;
use std::path::PathBuf;
use std::time::Instant;
use volcast_util::json::{JsonValue, ToJson};
use volcast_util::obs::{self, MetricsSnapshot};
use volcast_util::par;
use volcast_util::scratch::counting;

/// Untimed steps before a round is timed (arena growth, SIMD dispatch).
const WARM_UP_STEPS: usize = 3;
/// Steps timed at one thread and at `T` for `util.par.speedup_t1`.
const SPEEDUP_STEPS: usize = 10;
/// The timed phase starts another round only while it is expected to end
/// within this multiple of `--seconds`.
const OVERRUN: f64 = 1.25;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// One of the six names of the spec.
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for the self-test.
    pub smoke: bool,
    /// The worker budget `T` of every timed step: one less than `cores`
    /// (at least 1), so the host's other work does not preempt a worker.
    pub threads: usize,
    /// `min(nproc, 4)`: the budget a user gets by default. The thread
    /// invariance check and `util.par.speedup_t1` run at this many.
    pub cores: usize,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// Seed of step `i` of a run with seed `seed`.
pub fn step_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

/// What a full round (every step once) produced, from the outcomes alone:
/// exact and repeatable for a seed at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// User-frames the round attempted.
    pub attempted: u64,
    /// Of those, user-frames on time (rendered, delivered, round-tripped).
    pub on_time: u64,
    /// The workload's quality figure (see `mean_quality` in the README).
    pub quality: f64,
    /// FNV-1a over the round's serialized outcomes, printed for reviewers.
    pub outcome_hash: u64,
    /// Per-layer numbers that come from outcomes rather than from spans.
    pub layer: Vec<(&'static str, f64)>,
}

/// Per-layer metrics gathered by the traced pass, by name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name`; a name outside the spec or set twice is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "per-layer metric {name} is not in the spec"
        );
        assert!(
            self.get(name).is_none(),
            "per-layer metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What the traced pass hands a workload to derive its layer metrics from.
pub struct TracedRound<'a> {
    /// The program's own counters and spans over the first traced round.
    pub obs: &'a MetricsSnapshot,
    /// The benchmark-side spans of every traced round.
    pub rec: &'a Recorder,
    pub steps: usize,
    /// Wall seconds of the traced round `obs` covers.
    pub round_s: f64,
}

impl TracedRound<'_> {
    /// An `obs` counter's total, 0 when it never fired.
    pub fn counter(&self, name: &str) -> f64 {
        self.obs
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value as f64)
    }

    /// `(total ns, count)` of an `obs` span, zeros when it never ran.
    pub fn obs_span(&self, name: &str) -> (f64, f64) {
        self.obs
            .spans
            .iter()
            .find(|s| s.name == name)
            .map_or((0.0, 0.0), |s| (s.sum as f64, s.count as f64))
    }

    /// Median milliseconds per call of a benchmark-side span.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.rec.median_ns(name).unwrap_or(0.0) / 1e6
    }
}

/// One of the six workloads, ready to step.
pub trait Workload {
    /// Steps in a round.
    fn steps(&self) -> usize;
    /// User-frames one step attempts.
    fn ops_per_step(&self) -> u64;
    /// Which distinct input step `i` runs: steps that share one are timed
    /// as samples of the same thing. Every step has its own by default.
    fn input_of(&self, i: usize) -> usize {
        i
    }
    /// Rewinds to step 0 and zeroes the round's accumulators.
    fn begin_round(&mut self);
    /// Runs step `i` and checks its outputs; steps run in order.
    fn step(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String>;
    /// Closes a round in which every step ran once.
    fn end_round(&mut self) -> Result<RoundSummary, String>;
    /// Runs the first step from a fresh state and hashes its outcome (the
    /// thread-invariance probe).
    fn first_step_hash(&mut self) -> Result<u64, String>;
    /// Stage probes: calls the layers' public functions on the workload's
    /// own inputs inside benchmark-side spans.
    fn probes(&mut self, rec: &mut Recorder, m: &mut Metrics);
    /// Per-layer metrics read from the traced round's counters and spans.
    fn layer_metrics(&self, round: &TracedRound<'_>, m: &mut Metrics);
}

/// The result of one invocation, printed by [`Report::print`].
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in spec order: what the final JSON line holds.
    pub metrics: Vec<(String, f64, String)>,
    /// Extra `(name, value, unit)` lines for people (steps, hashes).
    pub notes: Vec<(String, String, String)>,
    /// Names whose value is a placeholder because the layer does no work
    /// on this workload: in the JSON line, not in the lines for people.
    pub not_applicable: Vec<String>,
    pub error: Option<String>,
}

impl Report {
    /// The report of a run a check stopped: one operation, failed.
    pub fn failed(cfg: &RunConfig, error: String) -> Report {
        Report {
            workload: cfg.workload,
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            notes: Vec::new(),
            not_applicable: Vec::new(),
            error: Some(error),
        }
    }

    /// The result: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> Vec<(String, JsonValue)> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(*value)),
                        ("unit".into(), JsonValue::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        vec![
            ("correct".into(), JsonValue::Bool(self.correct)),
            ("attempted".into(), JsonValue::Num(self.attempted as f64)),
            ("failed".into(), JsonValue::Num(self.failed as f64)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ]
    }

    /// Prints `workload metric value unit` lines, then the JSON line.
    pub fn print(&self) {
        let w = &self.workload;
        if let Some(e) = &self.error {
            eprintln!("{w} check failed: {e}");
        }
        for (name, value, unit) in &self.notes {
            println!("{w} {name} {value} {unit}");
        }
        println!("{w} ops_attempted {} user-frames", self.attempted);
        println!("{w} ops_failed {} user-frames", self.failed);
        for (name, value, unit) in &self.metrics {
            if !self.not_applicable.contains(name) {
                println!("{w} {name} {value} {unit}");
            }
        }
        println!("{}", JsonValue::Obj(self.json()).to_json_string());
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The first step must come out the same at one thread and at every
/// core; leaves the budget at `T`.
fn check_thread_invariance(wl: &mut dyn Workload, cfg: &RunConfig) -> Result<u64, String> {
    par::set_thread_count(1);
    let serial = wl.first_step_hash();
    par::set_thread_count(cfg.cores);
    let parallel = wl.first_step_hash();
    par::set_thread_count(cfg.threads);
    let (serial, parallel) = (serial?, parallel?);
    if serial != parallel {
        return Err(format!(
            "thread invariance: first step hashes 0x{serial:016x} at 1 thread, 0x{parallel:016x} at {}",
            cfg.cores
        ));
    }
    Ok(parallel)
}

fn warm_up(wl: &mut dyn Workload, rec: &mut Recorder) -> Result<(), String> {
    wl.begin_round();
    for i in 0..WARM_UP_STEPS.min(wl.steps()) {
        wl.step(i, rec)?;
    }
    Ok(())
}

/// Wall seconds of the first `n` steps of a fresh round.
fn time_steps(wl: &mut dyn Workload, rec: &mut Recorder, n: usize) -> Result<f64, String> {
    wl.begin_round();
    let began = Instant::now();
    for i in 0..n {
        wl.step(i, rec)?;
    }
    Ok(began.elapsed().as_secs_f64())
}

fn hex(hash: u64) -> String {
    format!("0x{hash:016x}")
}

/// Times whole rounds and keeps, for each distinct step input, its fastest
/// sample: interference from the host's other tenants only ever adds
/// time, so the minimum is the input's cost on a quiet host.
struct BestOfRounds {
    /// Fastest sample per distinct input (see [`Workload::input_of`]).
    best_ms: Vec<f64>,
    steps_run: usize,
}

impl BestOfRounds {
    fn new(wl: &dyn Workload) -> BestOfRounds {
        let inputs = (0..wl.steps())
            .map(|i| wl.input_of(i))
            .max()
            .map_or(0, |m| m + 1);
        BestOfRounds {
            best_ms: vec![f64::INFINITY; inputs],
            steps_run: 0,
        }
    }

    /// Runs one round from step 0 and returns its wall seconds.
    fn round(&mut self, wl: &mut dyn Workload, rec: &mut Recorder) -> Result<f64, String> {
        let began = Instant::now();
        wl.begin_round();
        for i in 0..wl.steps() {
            let t = Instant::now();
            rec.set_step(i as i64);
            rec.scope("step", |rec| wl.step(i, rec))?;
            let best = &mut self.best_ms[wl.input_of(i)];
            *best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        self.steps_run += wl.steps();
        Ok(began.elapsed().as_secs_f64())
    }

    /// One value per step of a round: its input's fastest sample.
    fn step_ms(&self, wl: &dyn Workload) -> Vec<f64> {
        (0..wl.steps())
            .map(|i| self.best_ms[wl.input_of(i)])
            .collect()
    }
}

/// The untraced pass: whole rounds for about `--seconds`, at least one.
pub fn run_untraced(
    wl: &mut dyn Workload,
    cfg: &RunConfig,
    setup_s: f64,
) -> Result<Report, String> {
    obs::set_enabled(false);
    let mut rec = Recorder::new(false);
    let first_hash = check_thread_invariance(wl, cfg)?;
    warm_up(wl, &mut rec)?;

    let mut timed = BestOfRounds::new(wl);
    let phase = Instant::now();
    loop {
        let round_s = timed.round(wl, &mut rec)?;
        let elapsed = phase.elapsed().as_secs_f64();
        if elapsed >= cfg.seconds || elapsed + round_s > OVERRUN * cfg.seconds {
            break;
        }
    }
    let summary = wl.end_round()?;

    let round_ops = wl.steps() as u64 * wl.ops_per_step();
    let step_ms = timed.step_ms(wl);
    let values = [
        ("setup_s", setup_s),
        (
            "user_frames_per_s",
            round_ops as f64 / (step_ms.iter().sum::<f64>() / 1e3),
        ),
        (
            "step_ms_p50",
            stats::percentile(&step_ms, 0.5).unwrap_or(0.0),
        ),
        (
            "step_ms_p90",
            stats::percentile(&step_ms, 0.9).unwrap_or(0.0),
        ),
        ("peak_rss_mb", peak_rss_mb()?),
        (
            "on_time_share",
            summary.on_time as f64 / summary.attempted.max(1) as f64,
        ),
        ("mean_quality", summary.quality),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|&(_, v)| v)
                .expect("every end-to-end metric of the spec is measured");
            (m.name.to_string(), value, m.unit.to_string())
        })
        .collect();
    Ok(Report {
        workload: cfg.workload,
        correct: true,
        attempted: timed.steps_run as u64 * wl.ops_per_step(),
        failed: 0,
        metrics,
        notes: vec![
            ("steps".into(), wl.steps().to_string(), "count".into()),
            (
                "rounds".into(),
                (timed.steps_run / wl.steps()).to_string(),
                "count".into(),
            ),
            ("threads".into(), cfg.threads.to_string(), "count".into()),
            ("first_step_hash".into(), hex(first_hash), "hash".into()),
            (
                "outcome_hash".into(),
                hex(summary.outcome_hash),
                "hash".into(),
            ),
        ],
        not_applicable: Vec::new(),
        error: None,
    })
}

/// The traced pass: untraced and traced rounds over the same steps, then
/// the thread-scaling row and the stage probes.
pub fn run_traced(wl: &mut dyn Workload, cfg: &RunConfig) -> Result<Report, String> {
    obs::set_enabled(false);
    let mut rec = Recorder::new(false);
    let first_hash = check_thread_invariance(wl, cfg)?;
    let steps = wl.steps();
    let mut m = Metrics::default();

    // Tracing off: the base of the overhead ratio. The first round grows
    // every arena to its high-watermark; the second, on the same warm
    // state, is the one whose allocations are counted.
    let phase = Instant::now();
    let mut untraced = BestOfRounds::new(wl);
    let mut traced = BestOfRounds::new(wl);
    warm_up(wl, &mut rec)?;
    untraced.round(wl, &mut rec)?;
    let before = (counting::allocations(), counting::allocated_bytes());
    let untraced_s = untraced.round(wl, &mut rec)?;
    let allocations = (
        counting::allocations() - before.0,
        counting::allocated_bytes() - before.1,
    );
    let reference = wl.end_round()?;

    // Tracing on, over the same steps. Counters are exact, so the first
    // traced round's snapshot is kept; while `--seconds` allows, further
    // untraced/traced pairs only sharpen the best-of-rounds times.
    let mut first_traced: Option<(MetricsSnapshot, f64)> = None;
    obs::reset();
    loop {
        warm_up(wl, &mut rec)?;
        obs::set_enabled(true);
        rec.set_enabled(true);
        let stepped = rec.scope(cfg.workload, |rec| traced.round(wl, rec));
        obs::set_enabled(false);
        rec.set_enabled(false);
        rec.set_step(-1);
        let traced_s = stepped?;
        if first_traced.is_none() {
            first_traced = Some((obs::snapshot(), traced_s));
        }
        let round = wl.end_round()?;
        if round != reference {
            return Err(format!(
                "the traced round's outcomes differ from the untraced round's: {round:?} vs {reference:?}"
            ));
        }
        if phase.elapsed().as_secs_f64() + untraced_s + traced_s > cfg.seconds {
            break;
        }
        warm_up(wl, &mut rec)?;
        untraced.round(wl, &mut rec)?;
        wl.end_round()?;
    }
    let (snapshot, traced_round_s) = first_traced.expect("at least one traced round");
    let summary = reference;
    obs::reset();

    // Thread scaling, untraced, on the same leading steps: one thread
    // against every core, the fastest of three tries each (whether the
    // kernel spreads freshly spawned workers over the cores is luck).
    let k = SPEEDUP_STEPS.min(steps);
    let (mut serial_s, mut parallel_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        par::set_thread_count(1);
        let serial = time_steps(wl, &mut rec, k);
        par::set_thread_count(cfg.cores);
        let parallel = time_steps(wl, &mut rec, k);
        par::set_thread_count(cfg.threads);
        serial_s = serial_s.min(serial?);
        parallel_s = parallel_s.min(parallel?);
    }

    rec.set_enabled(true);
    rec.scope("probes", |rec| wl.probes(rec, &mut m));
    wl.layer_metrics(
        &TracedRound {
            obs: &snapshot,
            rec: &rec,
            steps,
            round_s: traced_round_s,
        },
        &mut m,
    );
    for &(name, value) in &summary.layer {
        m.set(name, value);
    }
    m.set("util.par.threads", cfg.threads as f64);
    m.set("util.par.speedup_t1", serial_s / parallel_s);
    m.set(
        "util.scratch.allocs_per_step",
        allocations.0 as f64 / steps as f64,
    );
    m.set(
        "util.scratch.alloc_bytes_per_step",
        allocations.1 as f64 / steps as f64,
    );
    m.set(
        "util.obs.overhead_ratio",
        traced.step_ms(wl).iter().sum::<f64>() / untraced.step_ms(wl).iter().sum::<f64>(),
    );

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
    std::fs::write(
        &path,
        rec.to_json(cfg.workload, snapshot.to_json())
            .to_json_string(),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut not_applicable = Vec::new();
    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            let value = m.get(spec.name).unwrap_or_else(|| {
                not_applicable.push(spec.name.to_string());
                0.0
            });
            (spec.name.to_string(), value, spec.unit.to_string())
        })
        .collect();
    Ok(Report {
        workload: cfg.workload,
        correct: true,
        attempted: (untraced.steps_run + traced.steps_run) as u64 * wl.ops_per_step(),
        failed: 0,
        metrics,
        notes: vec![
            ("steps".into(), steps.to_string(), "count".into()),
            ("first_step_hash".into(), hex(first_hash), "hash".into()),
            (
                "outcome_hash".into(),
                hex(summary.outcome_hash),
                "hash".into(),
            ),
            (
                "trace_file".into(),
                path.display().to_string(),
                "path".into(),
            ),
        ],
        not_applicable,
        error: None,
    })
}

/// Builds the inputs at least `reps` times, and again while the builds so
/// far took under `SETUP_FLOOR_S` together (a sub-millisecond build needs
/// many samples to be timed at all). Keeps the last result and returns the
/// fastest build's seconds (`setup_s`): like a step's, a build's fastest
/// sample is the one the host's other work disturbed least.
pub fn timed_setup<I>(
    reps: usize,
    mut build: impl FnMut() -> Result<I, String>,
) -> Result<(I, f64), String> {
    const SETUP_FLOOR_S: f64 = 0.1;
    const SETUP_MAX_REPS: usize = 200;
    let mut fastest = f64::INFINITY;
    let mut total = 0.0;
    let mut done = 0;
    let mut last = None;
    while done < reps.max(1) || (reps > 1 && total < SETUP_FLOOR_S && done < SETUP_MAX_REPS) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        let took = t.elapsed().as_secs_f64();
        fastest = fastest.min(took);
        total += took;
        done += 1;
    }
    Ok((last.expect("at least one repetition"), fastest))
}
