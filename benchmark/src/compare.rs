//! `benchmark compare A B`: for every (end-to-end metric, workload) row,
//! both sides' median and quartiles over the supplied runs and a verdict
//! under the rule of the choosing-metrics guide (sections 6.5 and 8).
//!
//! A run file holds one JSON object per line, as `--record FILE` appends
//! them: the result line plus `workload`, `seed` and `trace`.

use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use volcast_util::json::JsonValue;

/// The verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound and the sides overlap.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Judges side `b` (the change) against side `a` (the parent).
///
/// - `Regressed`: the median worsened by more than the bound, and either
///   the spread is within the bound or every `b` run is worse than every
///   `a` run.
/// - `Improved`: `b` wins at least nine tenths of the pairs (run `i`
///   against run `i`, ties for neither) and the medians differ by more
///   than the distance between `a`'s quartiles.
/// - `Unresolved`: neither of the above, and the spread of either side is
///   wider than the bound while the sides overlap.
/// - `Unchanged`: otherwise.
pub fn judge(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    // Orient so that larger is better on both sides.
    let sign = if rule.higher_is_better { 1.0 } else { -1.0 };
    let better = |x: f64, y: f64| sign * x > sign * y;
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let spread = iqr(a).max(iqr(b)) / scale;
    let all_b_worse = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let all_b_better = a.iter().all(|&x| b.iter().all(|&y| better(y, x)));
    let worsening = sign * (ma - mb) / scale;

    if worsening > rule.bound && (spread <= rule.bound || all_b_worse) {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && (mb - ma).abs() > iqr(a) {
        return Verdict::Improved;
    }
    if spread > rule.bound && !all_b_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// `(workload, metric) -> values`, in file order, from the untraced runs
/// of a run file.
pub fn load_runs(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut rows: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = v
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        if v.get("trace").and_then(JsonValue::as_f64) != Some(0.0) {
            continue;
        }
        let metrics = v
            .get("metrics")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            rows.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(rows)
}

/// The end-to-end rules of a `BENCHMARK.json`.
pub fn load_rules(spec: &str) -> Result<BTreeMap<String, Rule>, String> {
    let v = JsonValue::parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = v
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("BENCHMARK.json: a metric lacks {k}"))
            };
            let name = field("name")?.as_str().ok_or("name is not a string")?;
            let better = field("better")?.as_str().ok_or("better is not a string")?;
            let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
            Ok((
                name.to_string(),
                Rule {
                    higher_is_better: better == "higher",
                    bound,
                },
            ))
        })
        .collect()
}

/// Prints one line per row and returns the verdicts.
pub fn compare(a_text: &str, b_text: &str, spec: &str) -> Result<Vec<Verdict>, String> {
    let rules = load_rules(spec)?;
    let a = load_runs(a_text)?;
    let b = load_runs(b_text)?;
    let quart = |v: &[f64]| match (quartiles(v), median(v)) {
        (Some([q1, q2, q3]), _) => format!("{q2:.6} [{q1:.6}, {q3:.6}]"),
        (None, Some(m)) => format!("{m:.6} [one run]"),
        _ => "no runs".to_string(),
    };
    let mut verdicts = Vec::new();
    println!("workload metric runs_a median_a [q1, q3] runs_b median_b [q1, q3] bound verdict");
    for ((workload, metric), va) in &a {
        let Some(rule) = rules.get(metric) else {
            continue;
        };
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let verdict = judge(va, vb, *rule);
        println!(
            "{workload} {metric} {} {} {} {} {} {}",
            va.len(),
            quart(va),
            vb.len(),
            quart(vb),
            rule.bound,
            verdict.label()
        );
        verdicts.push(verdict);
    }
    if verdicts.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) row".into());
    }
    Ok(verdicts)
}
