//! Order statistics for step times and for run-to-run comparison.
//!
//! Every helper sorts with `f64::total_cmp`, so a stray NaN cannot panic a
//! sort or silently reorder the samples around it.

/// The samples in ascending `total_cmp` order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between the two nearest ranks; `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median; `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them,
/// so a spread computed here agrees with one computed by a script.
/// `None` below two samples, where Python raises.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}
