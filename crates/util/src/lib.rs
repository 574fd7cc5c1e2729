//! # volcast-util
//!
//! The dependency-free substrate that keeps the volcast workspace building
//! hermetically: no registry access, no vendored crates, `CARGO_NET_OFFLINE=true`
//! always works. Every external crate the workspace once pulled in (`rand`,
//! `serde`/`serde_json`, `proptest`) is replaced by a small,
//! deterministic, in-tree equivalent:
//!
//! - [`rng`] — a SplitMix64-seeded xoshiro256++ PRNG with the handful of
//!   sampling methods the workspace actually uses (`gen_range`, `gen`,
//!   `gen_bool`, `normal`). Same seed ⇒ same stream, on every platform,
//!   forever.
//! - [`json`] — a [`json::JsonValue`] tree with a compact writer and a
//!   recursive-descent parser, plus [`json::ToJson`] / [`json::FromJson`]
//!   traits and the [`impl_json_struct!`] / [`impl_json_enum!`] macros that
//!   replace `#[derive(Serialize, Deserialize)]`.
//! - [`prop`] — the property runner: [`prop::run_cases`] calls a test body
//!   once per case with an [`rng::Rng`] seeded from the property's name and
//!   the case index, and reports a failing case's seed for replay. Bodies
//!   draw their own inputs; there is no shrinking.
//! - [`par`] — a scoped-thread data-parallel substrate standing in for
//!   `rayon` (`par_map` / `par_for_each_mut`), sized by
//!   `VOLCAST_THREADS` and bit-for-bit deterministic across thread counts.
//! - [`obs`] — an observability layer (counters, gauges, log-scale
//!   histograms, wall-clock spans) gated by `VOLCAST_TRACE`, with
//!   per-thread sinks that merge deterministically at [`par`] join and a
//!   JSON-exportable [`obs::MetricsSnapshot`].
//! - [`hash`] — frozen 64-bit FNV-1a hashing ([`hash::fnv1a`]) for stable
//!   fingerprints of serialized output (property-test seeds, the
//!   fault-scenario harness's `SessionOutcome` FNVs).
//! - [`pins`] — a pinned outcome as a canonical snapshot (one line per
//!   field, floats as bits beside the decimal) and the report of what
//!   moved, field by field, in ULP.
//! - [`bitset`] — a growable [`bitset::BitSet`] over `u64` words: the
//!   visible and seen cells of a visibility map, intersected and counted
//!   a word at a time.
//! - [`flags`] — the binaries' `--flag value` parser.
//! - [`scratch`] — reusable scratch buffers ([`scratch::ScratchVec`]) with
//!   high-watermark gauges, plus a counting global allocator
//!   ([`scratch::counting`]) for pinning zero-allocation steady states in
//!   tests.
//!
//! ## Determinism guarantees
//!
//! Everything in this crate is deterministic by construction: the PRNG is a
//! pure integer recurrence, JSON objects preserve insertion order, and the
//! property runner derives each case's seed from the test name and case
//! index. Two runs of any seeded volcast experiment produce byte-identical
//! output.
//!
//! ```
//! use volcast_util::rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(42);
//! let mut b = Rng::seed_from_u64(42);
//! let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
//! let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
//! assert_eq!(xs, ys);
//! ```
//!
//! ```
//! use volcast_util::json::{JsonValue, ToJson, FromJson};
//!
//! let v = JsonValue::parse(r#"{"name": "volcast", "users": [1, 2, 3]}"#).unwrap();
//! let users: Vec<u64> = FromJson::from_json(v.get("users").unwrap()).unwrap();
//! assert_eq!(users, vec![1, 2, 3]);
//! assert_eq!(users.to_json().to_json_string(), "[1,2,3]");
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is
// `scratch::counting`, whose `GlobalAlloc` impl is unsafe by definition
// and carries a scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod flags;
pub mod hash;
pub mod json;
pub mod obs;
pub mod par;
pub mod pins;
pub mod prop;
pub mod rng;
pub mod scratch;
