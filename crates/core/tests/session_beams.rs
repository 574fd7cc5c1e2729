//! The session's group-beam path — frame-scoped receivers, one design per
//! member set per frame — must not move a single simulated outcome.
//!
//! The fault matrix, `fig2a`, `table1_sessions` and the `ext_*` outputs pin
//! Volcast + mmWave runs with custom beams; the rows here (first pinned at
//! the commit before the session moved onto `SweepEngine`) cover the
//! combinations they miss, each as a canonical snapshot under
//! `results/pins/session_beams/`.
//! Thread count and tracing are process-global, so the tests share one
//! lock.

use std::sync::{Mutex, MutexGuard};
use volcast_core::session::{quick_session_with_device, DeliveryMode, RadioKind};
use volcast_core::{PlayerKind, StreamingSession};
use volcast_net::FaultConfig;
use volcast_pointcloud::VideoSequence;
use volcast_util::hash::fnv1a;
use volcast_util::json::{JsonValue, ToJson};
use volcast_util::{obs, par, pins};
use volcast_viewport::DeviceClass;

static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

/// The knobs, held for a test's length. Releasing them flushes the
/// thread's `obs` sink first: a test thread's sink otherwise flushes when
/// the thread exits, which can land after the next holder's `obs::reset`.
struct Knobs {
    _held: MutexGuard<'static, ()>,
}

impl Drop for Knobs {
    fn drop(&mut self) {
        obs::snapshot();
    }
}

fn knobs() -> Knobs {
    Knobs {
        _held: GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner()),
    }
}

/// Four clustered phone users: real multicast groups every frame.
fn session(radio: RadioKind, delivery: DeliveryMode, custom_beams: bool) -> StreamingSession {
    let mut s = quick_session_with_device(PlayerKind::Volcast, 4, 12, 42, DeviceClass::Phone);
    s.params.analysis_points = 4_000;
    s.params.radio = radio;
    s.params.delivery = delivery;
    s.params.custom_beams = custom_beams;
    s
}

/// Where a row's snapshot lives, from the repository root:
/// `results/pins/session_beams/`, named after the row.
fn snapshot_path(row: &str) -> String {
    let words: Vec<_> = (row.split(|c: char| !c.is_ascii_alphanumeric()))
        .filter(|w| !w.is_empty())
        .collect();
    format!("results/pins/session_beams/{}.txt", words.join("-"))
}

/// What moved in a row's outcome, field by field, against its committed
/// snapshot (every field, when there is none).
fn pin_report(row: &str, outcome: &JsonValue) -> Vec<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/{}", snapshot_path(row));
    let pinned = std::fs::read_to_string(path).unwrap_or_default();
    pins::diff(&pinned, &pins::snapshot(outcome))
}

/// A drifted row is reported as `field: old → new (Δ n ULP)` for each
/// field that moved, with its FNV-1a, then its whole new snapshot. The
/// three layered rows were re-pinned once, when layered frames began to be
/// priced at the ladder's layered shares.
#[test]
fn outcomes_match_the_exhaustive_designer_era() {
    use DeliveryMode::{Layered, Single};
    use RadioKind::{MmWave, Wifi5};
    let _knobs = knobs();
    let orig = par::thread_count();
    let mut drifted = Vec::new();
    // (name, radio, delivery, custom beams, 5 GHz groupcast rate)
    for (name, radio, delivery, custom_beams, groupcast_mbps) in [
        ("sector-only", MmWave, Single, false, None),
        ("sector-only layered", MmWave, Layered, false, None),
        ("layered, no faults", MmWave, Layered, true, None),
        // At the legacy basic rate no group ever forms on 5 GHz...
        ("wifi5", Wifi5, Single, true, None),
        // ...so also run it with groupcast fast enough to be used.
        ("wifi5 grouped", Wifi5, Single, true, Some(2_000.0)),
        ("wifi5 grouped layered", Wifi5, Layered, true, Some(2_000.0)),
    ] {
        for threads in [1, 4] {
            par::set_thread_count(threads);
            let mut s = session(radio, delivery, custom_beams);
            if let Some(rate) = groupcast_mbps {
                s.wifi5.multicast_basic_rate_mbps = rate;
            }
            let mut out = s.run().unwrap();
            if radio == Wifi5 {
                // The one field this radio's outcome was wrong in before
                // (see `wifi5_has_no_customized_beams`).
                out.customized_beam_fraction = 0.0;
            }
            let outcome = out.to_json();
            let report = pin_report(name, &outcome);
            if !report.is_empty() {
                let got = fnv1a(outcome.to_json_string().as_bytes());
                drifted.push(format!(
                    "{name} at {threads} threads (now {got:#018x}), {}\n  {}\nnew snapshot:\n{}",
                    snapshot_path(name),
                    report.join("\n  "),
                    pins::snapshot(&outcome)
                ));
            }
        }
    }
    par::set_thread_count(orig);
    assert!(
        drifted.is_empty(),
        "session rows drifted:\n{}",
        drifted.join("\n")
    );
}

/// The video's cell manifest is a memo, not state: whether a session
/// builds its entries, finds them left by an earlier session on a clone, or
/// finds them among entries of another analysis density, the outcome is
/// the same — in both delivery modes, at either thread count.
#[test]
fn a_warm_cell_manifest_changes_no_outcome() {
    let _knobs = knobs();
    let orig = par::thread_count();
    let faults = "seed=17,outage=0.02:4,blockage=0.05:3,stall=0.02:2,loss=0.04,decode=0.03";
    for (delivery, faults) in [
        (DeliveryMode::Single, None),
        (DeliveryMode::Layered, Some(faults)),
    ] {
        let run = |video: Option<&VideoSequence>, analysis_points: usize| {
            let mut s = session(RadioKind::MmWave, delivery, true);
            s.params.analysis_points = analysis_points;
            s.params.faults = faults.map(|spec| FaultConfig::from_spec(spec).unwrap());
            if let Some(video) = video {
                s.video = video.clone();
            }
            s.run().unwrap().to_json().to_json_string()
        };
        par::set_thread_count(1);
        let cold = run(None, 4_000);
        for threads in [1, 4] {
            par::set_thread_count(threads);
            let shared = VideoSequence::default();
            let other_density = VideoSequence::default();
            run(Some(&other_density), 2_500);
            for (what, got) in [
                ("fresh video", run(None, 4_000)),
                ("first on a shared video", run(Some(&shared), 4_000)),
                ("second on a shared video", run(Some(&shared), 4_000)),
                ("after another density", run(Some(&other_density), 4_000)),
            ] {
                assert_eq!(got, cold, "{delivery:?}, {what}, {threads} threads");
            }
        }
    }
    par::set_thread_count(orig);
}

/// A 5 GHz radio has no beams to customize. Make legacy multicast
/// attractive so groups do form, then check that neither delivery mode
/// reports (or, with tracing on, runs) a 60 GHz beam design.
#[test]
fn wifi5_has_no_customized_beams() {
    let _knobs = knobs();
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    for delivery in [DeliveryMode::Single, DeliveryMode::Layered] {
        obs::reset();
        let mut s = session(RadioKind::Wifi5, delivery, true);
        s.wifi5.multicast_basic_rate_mbps = 2_000.0;
        let out = s.run().unwrap();
        assert!(
            out.multicast_byte_fraction > 0.1,
            "{delivery:?}: no groups formed ({})",
            out.multicast_byte_fraction
        );
        assert_eq!(out.customized_beam_fraction, 0.0, "{delivery:?}");
        let snap = obs::snapshot();
        assert!(
            snap.counters
                .iter()
                .all(|c| !c.name.starts_with("mmwave.designer.")),
            "{delivery:?}: a beam design ran on the 5 GHz radio"
        );
    }
    obs::set_enabled(was_enabled);
    obs::reset();
}

/// The grouping search designs a beam only for a merge that can win. The
/// eager search designed every gate-passing candidate set once a frame:
/// `EAGER_DESIGNS` on this fault-free run, recorded at the commit before
/// the search went lazy (and still the number of candidates the planner
/// caps). What must stay true: fewer designs than that, each a distinct
/// set of its frame whose result the scheduler reuses for the winners'
/// `customized` bit — `session.rs`'s
/// `a_frame_designs_what_its_search_asks_and_nothing_else` holds the memo
/// to that; here the counters must agree with it, at any thread count.
#[test]
fn every_member_set_is_designed_once_per_frame() {
    const EAGER_DESIGNS: u64 = 108;
    let _knobs = knobs();
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    let orig = par::thread_count();
    let mut designs_at = Vec::new();
    for threads in [1, 4] {
        par::set_thread_count(threads);
        obs::reset();
        session(RadioKind::MmWave, DeliveryMode::Single, true)
            .run()
            .unwrap();
        let snap = obs::snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        let group_sizes = snap
            .histograms
            .iter()
            .find(|h| h.name == "session.group_size")
            .expect("no multicast group formed");
        let designs = counter("mmwave.designer.designs");
        assert!(designs < EAGER_DESIGNS, "{designs} at {threads} threads");
        // Every active group was designed, and every design served its
        // members from receivers prepared once per user per frame.
        assert!(designs >= group_sizes.count);
        assert!(counter("mmwave.designer.path_cache_hits") >= group_sizes.sum);
        assert_eq!(counter("mmwave.designer.path_cache_misses"), 4 * 12);
        designs_at.push(designs);
    }
    assert_eq!(designs_at[0], designs_at[1]);
    par::set_thread_count(orig);
    obs::set_enabled(was_enabled);
    obs::reset();
}
