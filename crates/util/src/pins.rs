//! Pinned outcomes as canonical snapshots, compared field by field.
//!
//! A bare 64-bit hash says *that* a pinned outcome moved, not *what*
//! moved. A snapshot is the outcome's [`ToJson`](crate::json::ToJson) tree
//! flattened to one `path = value` line per leaf, in the tree's own order:
//! object keys joined by `.`, array elements by `[i]`, and every number
//! written as its shortest round-trip decimal beside its IEEE-754 bits
//! (`on_time_ratio = 0.75 0x3fe8000000000000`), so the committed file holds
//! the exact float and still reads as a number. [`diff`] compares two
//! snapshots and names each moved field as `path: old → new (Δ n ULP)`.
//!
//! There is no bless mode: a snapshot is rewritten by hand, in a reviewed
//! commit, from the gate's report.

use crate::json::JsonValue;
use std::fmt::Write;

/// The canonical snapshot of `value`: one `path = value` line per leaf.
pub fn snapshot(value: &JsonValue) -> String {
    let mut out = String::new();
    leaves(value, &mut String::new(), &mut out);
    out
}

fn leaves(value: &JsonValue, path: &mut String, out: &mut String) {
    let len = path.len();
    match value {
        JsonValue::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let _ = write!(path, "[{i}]");
                leaves(item, path, out);
                path.truncate(len);
            }
        }
        JsonValue::Obj(pairs) => {
            for (key, item) in pairs {
                if len > 0 {
                    path.push('.');
                }
                path.push_str(key);
                leaves(item, path, out);
                path.truncate(len);
            }
        }
        JsonValue::Num(n) => {
            let _ = writeln!(out, "{path} = {n:?} {:#018x}", n.to_bits());
        }
        leaf => {
            let _ = writeln!(out, "{path} = {}", leaf.to_json_string());
        }
    }
}

/// The fields in which snapshot `new` differs from `old`, one line each —
/// `path: old → new`, with `(Δ n ULP)` between two numbers — first in
/// `old`'s order, then the fields only `new` has. Empty when they agree.
pub fn diff(old: &str, new: &str) -> Vec<String> {
    let fields = |s: &str| -> Vec<(String, String)> {
        (s.lines())
            .filter_map(|line| line.split_once(" = "))
            .map(|(path, value)| (path.to_string(), value.to_string()))
            .collect()
    };
    let (old, new) = (fields(old), fields(new));
    let find = |fields: &[(String, String)], path: &str| {
        (fields.iter())
            .find(|(p, _)| p == path)
            .map(|(_, v)| v.clone())
    };
    let mut report = Vec::new();
    for (path, was) in &old {
        match find(&new, path) {
            Some(now) if now == *was => {}
            Some(now) => report.push(format!("{path}: {}", moved(was, &now))),
            None => report.push(format!("{path}: {} → (absent)", decimal(was))),
        }
    }
    for (path, now) in &new {
        if find(&old, path).is_none() {
            report.push(format!("{path}: (absent) → {}", decimal(now)));
        }
    }
    report
}

/// A number's bits from its snapshot value (`decimal 0xbits`).
fn bits(value: &str) -> Option<u64> {
    let (_, hex) = value.split_once(" 0x")?;
    u64::from_str_radix(hex, 16).ok()
}

/// A snapshot value as a reader wants it: a number's decimal alone.
fn decimal(value: &str) -> &str {
    match bits(value) {
        Some(_) => value.split_once(' ').map_or(value, |(d, _)| d),
        None => value,
    }
}

/// `old → new`, with the distance in units in the last place when both
/// are numbers: the count of doubles between them, across zero too.
fn moved(was: &str, now: &str) -> String {
    let ordered = |b: u64| if b >> 63 == 1 { !b } else { b | 1 << 63 };
    let arrow = format!("{} → {}", decimal(was), decimal(now));
    match (bits(was), bits(now)) {
        (Some(a), Some(b)) => format!("{arrow} (Δ {} ULP)", ordered(a).abs_diff(ordered(b))),
        _ => arrow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(margin: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"users": 3, "ok": true, "tag": "x", "airtime": [0.5, 0.25], "inner": {{"m": {margin}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn a_snapshot_is_one_line_per_leaf_with_bits() {
        assert_eq!(
            snapshot(&outcome(-1.5)),
            "users = 3.0 0x4008000000000000\n\
             ok = true\n\
             tag = \"x\"\n\
             airtime[0] = 0.5 0x3fe0000000000000\n\
             airtime[1] = 0.25 0x3fd0000000000000\n\
             inner.m = -1.5 0xbff8000000000000\n"
        );
    }

    #[test]
    fn a_moved_float_is_named_with_its_ulp_distance() {
        let old = snapshot(&outcome(-1.5));
        assert!(diff(&old, &old).is_empty());
        let up = f64::from_bits((-1.5f64).to_bits() + 1);
        assert_eq!(
            diff(&old, &snapshot(&outcome(up))),
            [format!("inner.m: -1.5 → {up:?} (Δ 1 ULP)")]
        );
        // Across zero: the two zeros are one ULP apart.
        let (pos, neg) = (snapshot(&outcome(0.0)), snapshot(&outcome(-0.0)));
        assert_eq!(diff(&pos, &neg), ["inner.m: 0.0 → -0.0 (Δ 1 ULP)"]);
    }

    #[test]
    fn other_leaves_and_missing_fields_are_named_too() {
        let old = "a = true\nb = 1.0 0x3ff0000000000000\n";
        let new = "a = false\nc = \"y\"\n";
        assert_eq!(
            diff(old, new),
            [
                "a: true → false",
                "b: 1.0 → (absent)",
                "c: (absent) → \"y\""
            ]
        );
    }
}
