//! The property-test runner.
//!
//! A property is a plain `#[test]` that hands its own name and a body to
//! [`run_cases`] ([`run_cases_n`] for a count other than [`DEFAULT_CASES`]).
//! The body draws its inputs from the [`Rng`] it is given — `gen_range` for
//! a range, `gen` for any value, a `gen_range` length and then the elements
//! for a `Vec` — and checks them with `assert!`. There is no shrinking: case
//! *k* of `name` draws from `Rng::seed_from_u64(fnv1a(name) ^ k)`, the same
//! inputs on every run and platform, and a failure prints that seed.
//! `VOLCAST_PROP_SEED=<seed>` re-runs just that case; `VOLCAST_PROP_CASES=<n>`
//! overrides the case count.
//!
//! ```
//! use volcast_util::prop::run_cases;
//!
//! run_cases("addition_commutes", |rng| {
//!     let (a, b) = (rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::Rng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Default number of cases per property.
pub const DEFAULT_CASES: u64 = 64;

/// Runs `body` once per case with a deterministically seeded [`Rng`],
/// using [`DEFAULT_CASES`] cases (see [`run_cases_n`]).
pub fn run_cases<F: FnMut(&mut Rng)>(name: &str, body: F) {
    run_cases_n(name, DEFAULT_CASES, body)
}

/// Runs `body` once per case with a deterministically seeded [`Rng`].
///
/// A panic in `body` is caught, annotated with the failing case's seed, and
/// re-raised. The `VOLCAST_PROP_CASES` env var overrides `n_cases`;
/// `VOLCAST_PROP_SEED` re-runs a single failing case.
pub fn run_cases_n<F: FnMut(&mut Rng)>(name: &str, n_cases: u64, mut body: F) {
    if let Some(seed) = std::env::var("VOLCAST_PROP_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        let mut rng = Rng::seed_from_u64(seed);
        body(&mut rng);
        return;
    }
    let n = std::env::var("VOLCAST_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(n_cases);
    let base = crate::hash::fnv1a(name.as_bytes());
    for case in 0..n {
        let seed = base ^ case;
        let mut rng = Rng::seed_from_u64(seed);
        let result = catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = result {
            eprintln!(
                "property '{name}' failed at case {case} (seed {seed}); \
                 re-run just this case with VOLCAST_PROP_SEED={seed}"
            );
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_is_reported() {
        let result = std::panic::catch_unwind(|| run_cases("always_fails", |_| panic!("boom")));
        assert!(result.is_err());
    }

    /// The replay contract the failure message prints: case `k` gets the
    /// stream of `Rng::seed_from_u64(fnv1a(name) ^ k)`, and there are
    /// [`DEFAULT_CASES`] cases unless `VOLCAST_PROP_CASES` says otherwise.
    /// The env vars are read, never set: other tests here read them too.
    #[test]
    fn every_case_replays_from_the_seed_it_reports() {
        let var = |key| std::env::var(key).ok().and_then(|v| v.parse::<u64>().ok());
        let mut seen = Vec::new();
        run_cases("replay", |rng| seen.push(rng.clone()));
        if let Some(seed) = var("VOLCAST_PROP_SEED") {
            assert_eq!(seen, [Rng::seed_from_u64(seed)]);
            return;
        }
        let cases = var("VOLCAST_PROP_CASES").unwrap_or(DEFAULT_CASES);
        let base = crate::hash::fnv1a(b"replay");
        let want: Vec<Rng> = (0..cases).map(|k| Rng::seed_from_u64(base ^ k)).collect();
        assert_eq!(seen, want);
    }
}
