//! The volcast benchmark: six named workloads, end-to-end metrics from an
//! untraced pass and per-layer metrics from a traced pass, all recorded
//! from outside the program (no file under `crates/` is instrumented for
//! it). See `README.md` in this directory for the tables and the rules.

#![forbid(unsafe_code)]

pub mod compare;
pub mod harness;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
