//! `benchmark`: runs one workload of the volcast benchmark, or compares
//! two sets of runs. `benchmark/run.sh` builds and calls it.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds N --trace 0|1
//!           [--smoke] [--record FILE] [--out-dir DIR]
//! benchmark compare A B [--spec BENCHMARK.json]
//! benchmark spec                 # prints BENCHMARK.json
//! benchmark recorded RUNS        # prints RECORDED.json from a run file
//! ```

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use volcast_benchmark::compare::{compare, Verdict};
use volcast_benchmark::harness::RunConfig;
use volcast_benchmark::{spec, workloads};
use volcast_util::json::JsonValue;
use volcast_util::par;
use volcast_util::scratch::counting::CountingAllocator;

// Counts allocations from outside the program at the same cost on every
// commit; the `unsafe` of the allocator itself stays in `volcast-util`.
#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The documented default seed; 7 is held out for claims.
const DEFAULT_SEED: u64 = 42;

fn flag_value<'a>(args: &'a [String], key: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{key} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match flag_value(args, key)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {key}: '{v}'")),
    }
}

/// `min(nproc, 4)`: the worker budget a user gets by default.
/// `VOLCAST_THREADS` is ignored.
fn default_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag_value(args, "--workload")?.ok_or("--workload NAME is required")?;
    let workload = spec::workload(name)
        .ok_or_else(|| {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (one of: {})", names.join(", "))
        })?
        .name;
    let trace = match flag_value(args, "--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad value for --trace: '{other}'")),
    };
    let seconds: f64 = parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
    if !(0.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 0..=60"));
    }
    let cores = default_cores();
    let cfg = RunConfig {
        workload,
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        seconds,
        trace,
        smoke: args.iter().any(|a| a == "--smoke"),
        threads: (cores - 1).max(1),
        cores,
        out_dir: PathBuf::from(flag_value(args, "--out-dir")?.unwrap_or("benchmark/out")),
    };
    par::set_thread_count(cfg.threads);

    let report = workloads::run(&cfg);
    if let Some(path) = flag_value(args, "--record")? {
        let mut line = vec![
            ("workload".to_string(), JsonValue::Str(cfg.workload.into())),
            ("seed".to_string(), JsonValue::Num(cfg.seed as f64)),
            (
                "trace".to_string(),
                JsonValue::Num(u8::from(cfg.trace) as f64),
            ),
        ];
        line.extend(report.json());
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", JsonValue::Obj(line).to_json_string())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    report.print();
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let spec_path = flag_value(args, "--spec")?.unwrap_or("BENCHMARK.json");
    let files: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| a != "--spec" && (i == 0 || args[i - 1] != "--spec"))
        .map(|(_, a)| a)
        .collect();
    let [a, b] = files[..] else {
        return Err("compare needs exactly two run files".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let verdicts = compare(&read(a)?, &read(b)?, &read(spec_path)?)?;
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    let regressed = count(Verdict::Regressed);
    println!(
        "{} rows: {} improved, {} unchanged, {regressed} regressed, {} unresolved",
        verdicts.len(),
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Unresolved)
    );
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `RECORDED.json`: what `BENCHMARK.json` has no key for. The host of the
/// recording run, each workload's step size, each per-layer metric's
/// prediction, and the numbers of the runs in `path` (last run wins).
fn recorded(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let runs: Vec<JsonValue> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| JsonValue::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<_, _>>()?;
    let values = |workload: &str, trace: f64| -> JsonValue {
        let run = runs.iter().rev().find(|r| {
            r.get("workload").and_then(JsonValue::as_str) == Some(workload)
                && r.get("trace").and_then(JsonValue::as_f64) == Some(trace)
        });
        let metrics = run
            .and_then(|r| r.get("metrics"))
            .and_then(JsonValue::as_obj);
        JsonValue::Obj(
            metrics
                .unwrap_or_default()
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("value").cloned().unwrap_or(JsonValue::Null),
                    )
                })
                .collect(),
        )
    };
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cores = default_cores();
    let str = |v: &str| JsonValue::Str(v.to_string());
    let obj = |pairs: Vec<(&str, JsonValue)>| {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    Ok(obj(vec![
        (
            "host",
            obj(vec![
                (
                    "nproc",
                    JsonValue::Num(
                        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
                    ),
                ),
                ("cores", JsonValue::Num(cores as f64)),
                ("T", JsonValue::Num((cores - 1).max(1) as f64)),
                ("rustc", str(&rustc)),
            ]),
        ),
        (
            "command",
            str("benchmark/run.sh --record RUNS && benchmark recorded RUNS"),
        ),
        (
            "seed",
            runs.first()
                .and_then(|r| r.get("seed").cloned())
                .unwrap_or(JsonValue::Null),
        ),
        ("run_seconds", JsonValue::Num(spec::RUN_SECONDS as f64)),
        (
            "workloads",
            JsonValue::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("name", str(w.name)),
                            ("why", str(w.why)),
                            ("step", str(w.step)),
                            ("end_to_end", values(w.name, 0.0)),
                            ("per_layer", values(w.name, 1.0)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer_predictions",
            JsonValue::Arr(
                spec::PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", str(m.name)),
                            ("unit", str(m.unit)),
                            ("moves", str(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("spec") => {
            println!("{}", spec::benchmark_json().to_json_string());
            Ok(ExitCode::SUCCESS)
        }
        Some("recorded") => match args.get(1) {
            Some(path) => recorded(path).map(|v| {
                println!("{}", v.to_json_string());
                ExitCode::SUCCESS
            }),
            None => Err("recorded needs a run file".into()),
        },
        _ => run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
