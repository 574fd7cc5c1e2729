//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see `EXPERIMENTS.md` for the index). This library holds
//! the pieces they share: the standard experiment context (user study,
//! channel, codebook), CDF helpers, and table formatting.
//!
//! ```
//! use volcast_bench::{cdf_at, quantile};
//!
//! assert_eq!(cdf_at(&[1.0, 2.0, 3.0, 4.0], 2.0), 0.5);
//! assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use volcast_mmwave::{Channel, Codebook};
use volcast_util::json::ToJson;
use volcast_util::obs;
use volcast_viewport::UserStudy;

/// The standard experiment context used by all figure binaries: the
/// 32-participant synthetic study, the default room/AP channel and the
/// default sector codebook.
pub struct Context {
    /// Synthetic user study (16 PH + 16 HM).
    pub study: UserStudy,
    /// The room + AP channel.
    pub channel: Channel,
    /// Default sector codebook.
    pub codebook: Codebook,
    /// Number of trace frames generated.
    pub frames: usize,
}

impl Context {
    /// Builds the standard context. `frames` trace samples at 30 Hz.
    pub fn standard(seed: u64, frames: usize) -> Context {
        let study = UserStudy::generate(seed, frames);
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        Context {
            study,
            channel,
            codebook,
            frames,
        }
    }
}

/// Dumps the deterministic observability snapshot to
/// `results/obs_<name>.json` when tracing is on; a no-op otherwise.
///
/// Every figure binary calls this last, so running any experiment under
/// `VOLCAST_TRACE=1` leaves a machine-readable record of what the run did
/// (frames simulated, cells encoded, sweeps performed, ...). Only the
/// [`obs::MetricsSnapshot::deterministic`] projection is written — the
/// file is byte-identical across `VOLCAST_THREADS` settings, so CI can
/// diff it against a committed copy. The output directory is the
/// workspace `results/` (anchored via `CARGO_MANIFEST_DIR`, as cargo runs
/// binaries from the package dir); set `VOLCAST_OBS_DIR` to redirect,
/// e.g. to regenerate into a temp dir for comparison.
pub fn dump_obs(name: &str) {
    if !obs::enabled() {
        return;
    }
    let dir = std::env::var("VOLCAST_OBS_DIR")
        .unwrap_or_else(|_| format!("{}/../../results", env!("CARGO_MANIFEST_DIR")));
    let path = format!("{dir}/obs_{name}.json");
    let json = obs::snapshot().deterministic().to_json().to_json_string();
    std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("# obs snapshot written to {path}");
}

/// The CDF value at `x`: fraction of samples <= x.
pub fn cdf_at(samples: &[f64], x: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&s| s <= x).count() as f64 / samples.len() as f64
}

/// Quantile (`q` in `[0, 1]`) of a sample set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    if s.is_empty() {
        return f64::NAN;
    }
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((s.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    s[idx]
}

/// Mean of a sample set (NaN for empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Prints a CDF as fixed quantile rows (for plotting or eyeballing).
pub fn print_cdf(label: &str, samples: &[f64]) {
    print!("{label:<24}");
    for q in [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95] {
        print!(" p{:<2}={:>7.3}", (q * 100.0) as u32, quantile(samples, q));
    }
    println!(" mean={:>7.3}", mean(samples));
}

/// All k-combinations of `0..n` (small n only).
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.clone());
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_at_values() {
        let s = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(cdf_at(&s, 0.5), 0.0);
        assert_eq!(cdf_at(&s, 2.0), 0.5);
        assert_eq!(cdf_at(&s, 10.0), 1.0);
        assert_eq!(cdf_at(&[], 1.0), 0.0);
    }

    #[test]
    fn quantiles() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert!((quantile(&s, 0.5) - 50.0).abs() <= 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn combinations_counts() {
        assert_eq!(combinations(5, 2).len(), 10);
        assert_eq!(combinations(5, 3).len(), 10);
        assert_eq!(combinations(3, 3).len(), 1);
        assert!(combinations(2, 3).is_empty());
        // Each combination is sorted and unique.
        let c = combinations(6, 2);
        for pair in &c {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn context_builds() {
        let ctx = Context::standard(1, 10);
        assert_eq!(ctx.study.len(), 32);
        assert_eq!(ctx.codebook.len(), 48);
        assert_eq!(ctx.frames, 10);
    }
}
