//! Self-tests of the benchmark: the names in `BENCHMARK.json` are the
//! names the binary prints, and the compare rule gives the verdicts the
//! choosing-metrics guide asks for. `run.sh --smoke` runs these.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use volcast_benchmark::compare::{judge, Rule, Verdict};
use volcast_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use volcast_util::json::JsonValue;

fn committed_spec() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &JsonValue, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_what_the_spec_tables_generate() {
    assert_eq!(
        committed_spec(),
        spec::benchmark_json(),
        "regenerate with `benchmark spec > BENCHMARK.json`"
    );
}

#[test]
fn names_are_well_formed_unique_and_within_the_contract() {
    let spec = committed_spec();
    let keys: Vec<&str> = spec
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = std::collections::BTreeSet::new();
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.chars().next().unwrap().is_ascii_alphanumeric()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "name {name:?} is outside [A-Za-z0-9_.-]+"
        );
        assert!(seen.insert(name.clone()), "name {name} is used twice");
    }
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for m in spec.get("end_to_end").and_then(JsonValue::as_arr).unwrap() {
        let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}

/// One smoke pass: the `workload metric value unit` lines and the keys of
/// the final JSON line.
fn smoke_pass(workload: &str, trace: &str) -> (BTreeMap<String, usize>, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "0",
            "--trace",
            trace,
        ])
        .args(["--smoke", "--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut printed: BTreeMap<String, usize> = BTreeMap::new();
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result =
        JsonValue::parse(lines.pop().expect("a result line")).expect("the last line is JSON");
    for line in lines {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 4, "not `workload metric value unit`: {line}");
        assert_eq!(fields[0], workload, "{line}");
        *printed.entry(fields[1].to_string()).or_default() += 1;
    }
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").and_then(JsonValue::as_obj).unwrap();
    for (name, m) in metrics {
        assert!(
            m.get("value").and_then(JsonValue::as_f64).is_some(),
            "{name} has no value"
        );
        assert!(
            m.get("unit").and_then(JsonValue::as_str).is_some(),
            "{name} has no unit"
        );
    }
    (printed, metrics.iter().map(|(k, _)| k.clone()).collect())
}

#[test]
fn smoke_prints_every_name_exactly_once_per_applicable_workload() {
    let spec = committed_spec();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let began = Instant::now();
    let mut layer_printed_by: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for workload in names(&spec, "workloads") {
        // Untraced: every end-to-end metric, on every workload, non-zero.
        let (printed, json_names) = smoke_pass(&workload, "0");
        assert_eq!(json_names, end_to_end, "{workload}: result-line metrics");
        for name in &end_to_end {
            assert_eq!(
                printed.get(name),
                Some(&1),
                "{workload}: {name} printed once"
            );
        }
        // Traced: the result line names every per-layer metric; the lines
        // for people hold the ones this workload's layers produce.
        let (printed, json_names) = smoke_pass(&workload, "1");
        assert_eq!(json_names, per_layer, "{workload}: result-line metrics");
        for (name, count) in &printed {
            assert_eq!(*count, 1, "{workload}: {name} printed {count} times");
            if per_layer.contains(name) {
                layer_printed_by
                    .entry(name.clone())
                    .or_default()
                    .push(workload.clone());
            }
        }
        let trace_file =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{workload}.json"));
        let trace = JsonValue::parse(&std::fs::read_to_string(&trace_file).expect("a trace file"))
            .expect("the trace file is JSON");
        assert!(!trace
            .get("spans")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .is_empty());
    }
    for name in &per_layer {
        assert!(
            layer_printed_by.contains_key(name),
            "no workload prints {name}"
        );
    }
    for always in [
        "util.par.threads",
        "util.par.speedup_t1",
        "util.obs.overhead_ratio",
    ] {
        assert_eq!(
            layer_printed_by[always].len(),
            WORKLOADS.len(),
            "{always} is for every workload"
        );
    }
    let elapsed = began.elapsed().as_secs_f64();
    assert!(elapsed < 20.0, "the smoke passes took {elapsed:.1} s");
}

#[test]
fn the_tables_and_the_code_agree_on_sizes() {
    assert_eq!(WORKLOADS.len(), 6);
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
}

const LOWER_10: Rule = Rule {
    higher_is_better: false,
    bound: 0.10,
};

#[test]
fn compare_calls_equal_sides_unchanged() {
    let a = [10.0, 10.1, 9.9, 10.05, 9.95];
    assert_eq!(judge(&a, &a, LOWER_10), Verdict::Unchanged);
    // Worse, but within the bound.
    let b = [10.5, 10.6, 10.4, 10.55, 10.45];
    assert_eq!(judge(&a, &b, LOWER_10), Verdict::Unchanged);
}

#[test]
fn compare_calls_a_clear_slowdown_regressed_and_a_clear_gain_improved() {
    let a = [10.0, 10.1, 9.9, 10.05, 9.95];
    let slow = [12.0, 12.1, 11.9, 12.05, 11.95];
    assert_eq!(judge(&a, &slow, LOWER_10), Verdict::Regressed);
    assert_eq!(judge(&slow, &a, LOWER_10), Verdict::Improved);
    let higher = Rule {
        higher_is_better: true,
        bound: 0.10,
    };
    assert_eq!(judge(&a, &slow, higher), Verdict::Improved);
    assert_eq!(judge(&slow, &a, higher), Verdict::Regressed);
}

#[test]
fn compare_calls_a_noisy_overlap_unresolved_unless_one_side_wins_every_run() {
    // Spread of 40% of the median against a 10% bound, sides overlapping.
    let a = [8.0, 12.0, 10.0, 9.0, 11.0];
    let b = [9.0, 13.0, 10.5, 8.5, 12.5];
    assert_eq!(judge(&a, &b, LOWER_10), Verdict::Unresolved);
    // Just as noisy, but every run of `b` beats every run of `a`.
    let fast = [4.0, 6.0, 5.0, 4.5, 5.5];
    assert_eq!(judge(&a, &fast, LOWER_10), Verdict::Improved);
    // And the other way round it is a regression despite the noise.
    assert_eq!(judge(&fast, &a, LOWER_10), Verdict::Regressed);
    assert_eq!(judge(&[], &[], LOWER_10), Verdict::Unresolved);
}
