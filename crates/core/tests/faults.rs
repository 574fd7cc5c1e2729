//! Fault injection, end to end: the degradation ladder must absorb every
//! fault class without panicking, the faulted pipeline must honor the
//! `VOLCAST_THREADS` determinism contract exactly like the fault-free one,
//! and the Result-based API must turn every previously-panicking invalid
//! input into a loud [`VolcastError`].

use std::sync::Mutex;
use volcast_core::session::{
    quick_session, quick_session_with_device, validate_traces, DeliveryMode,
};
use volcast_core::{PlayerKind, SessionParams, StreamingSession, VolcastError};
use volcast_net::FaultConfig;
use volcast_util::json::ToJson;
use volcast_util::par;
use volcast_viewport::io::{read_study, write_study};
use volcast_viewport::{DeviceClass, UserStudy};

static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn assert_thread_invariant<F: Fn() -> String>(work: F) {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let orig = par::thread_count();
    par::set_thread_count(1);
    let serial = work();
    par::set_thread_count(4);
    let parallel = work();
    par::set_thread_count(orig);
    assert_eq!(
        serial, parallel,
        "faulted output depends on VOLCAST_THREADS"
    );
}

/// A short session with every fault class active at once. The injection
/// points span the parallel RSS fan-out, the scheduler, and the playback
/// loop, so this is the strongest single check that fault handling stays
/// inside the determinism contract.
#[test]
fn faulted_session_is_thread_count_invariant() {
    assert_thread_invariant(|| {
        let mut s = quick_session_with_device(PlayerKind::Volcast, 4, 16, 42, DeviceClass::Phone);
        s.params.analysis_points = 4_000;
        s.params.faults = Some(
            FaultConfig::from_spec(
                "seed=5,outage=0.05:3,blockage=0.1:2,stall=0.05:2,loss=0.1,decode=0.05,blackout=6:3",
            )
            .unwrap(),
        );
        s.run().unwrap().to_json().to_json_string()
    });
}

/// The same all-faults gauntlet under layered delivery: the multicast
/// base / unicast enhancement split, the FEC rung, and the partial-render
/// fallback all run inside the parallel frame loop and must honor the
/// same `VOLCAST_THREADS` contract as the single-stream path.
#[test]
fn layered_session_is_thread_count_invariant() {
    assert_thread_invariant(|| {
        let mut s = quick_session_with_device(PlayerKind::Volcast, 4, 16, 42, DeviceClass::Phone);
        s.params.analysis_points = 4_000;
        s.params.delivery = DeliveryMode::Layered;
        s.params.faults = Some(
            FaultConfig::from_spec(
                "seed=5,outage=0.05:3,blockage=0.1:2,stall=0.05:2,loss=0.1,decode=0.05,blackout=6:3",
            )
            .unwrap(),
        );
        s.run().unwrap().to_json().to_json_string()
    });
}

/// The acceptance scenario: a scripted 100%-loss outage window (every
/// user, several consecutive frames). The session must degrade — stalls
/// rise, faults are counted — and then recover once the window ends,
/// still delivering the bulk of the stream. No panics anywhere.
#[test]
fn blackout_degrades_and_recovers() {
    let frames = 40;
    let run = |faults: Option<FaultConfig>| {
        let mut s =
            quick_session_with_device(PlayerKind::Volcast, 4, frames, 42, DeviceClass::Phone);
        s.params.analysis_points = 4_000;
        s.params.faults = faults;
        s.run().unwrap()
    };
    let baseline = run(None);
    let blackout = run(Some(FaultConfig::from_spec("blackout=10:6").unwrap()));

    // Exactly the scripted window is injected: 4 users x 6 frames.
    assert_eq!(blackout.fault_user_frames, 4 * 6);
    assert_eq!(baseline.fault_user_frames, 0);

    // Degradation: the outage must actually hurt (stalls strictly rise).
    assert!(
        blackout.qoe.mean_stall_ratio() > baseline.qoe.mean_stall_ratio(),
        "blackout did not increase stalls ({} vs {})",
        blackout.qoe.mean_stall_ratio(),
        baseline.qoe.mean_stall_ratio()
    );

    // Recovery: the damage stays localized to the window — the session
    // still delivers the clear majority of the baseline's on-time frames.
    let on_time = |o: &volcast_core::SessionOutcome| -> usize {
        o.qoe.users.iter().map(|u| u.frames_on_time).sum()
    };
    assert!(
        on_time(&blackout) * 2 > on_time(&baseline),
        "session never recovered after the blackout: {} on-time vs baseline {}",
        on_time(&blackout),
        on_time(&baseline)
    );
    // Every user keeps playing after the window: full frame count recorded.
    for u in &blackout.qoe.users {
        assert_eq!(u.frames(), frames);
    }
}

/// Faults on the wifi5 radio path too: the injected shadow-blockage and
/// outage rebind sit on a different RSS closure there.
#[test]
fn wifi5_faulted_session_completes() {
    let mut s = quick_session(PlayerKind::Volcast, 3, 12, 7);
    s.params.analysis_points = 4_000;
    s.params.radio = volcast_core::RadioKind::Wifi5;
    s.params.faults = Some(FaultConfig::from_spec("seed=3,blockage=0.2:2,loss=0.1").unwrap());
    let out = s.run().unwrap();
    assert!(out.fault_user_frames > 0);
    assert!(out.qoe.mean_fps() > 0.0);
}

/// Invalid inputs are errors, not panics: zero frames, zero analysis
/// density, a broken frame interval, a cell size no grid can be cut at, a
/// similarity gate that compares nothing, an over-unity fault rate, and
/// empty traces each come back as a descriptive `Err`.
#[test]
fn invalid_inputs_are_errors_not_panics() {
    // frames = 0
    let mut s = quick_session(PlayerKind::Volcast, 2, 10, 1);
    s.params.frames = 0;
    assert!(matches!(s.run(), Err(VolcastError::InvalidParams(_))));

    // analysis_points = 0
    let mut s = quick_session(PlayerKind::Volcast, 2, 10, 1);
    s.params.analysis_points = 0;
    assert!(matches!(s.run(), Err(VolcastError::InvalidParams(_))));

    // target_fps = 0 -> infinite frame interval
    let mut s = quick_session(PlayerKind::Volcast, 2, 10, 1);
    s.params.config.target_fps = 0.0;
    assert!(matches!(s.run(), Err(VolcastError::InvalidParams(_))));

    // cell_size: `CellGrid::new` asserts on <= 0 and NaN; inf cuts NaN cells
    for cell_size in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let mut s = quick_session(PlayerKind::Volcast, 2, 10, 1);
        s.params.config.cell_size = cell_size;
        let out = s.run();
        assert!(
            matches!(out, Err(VolcastError::InvalidParams(_))),
            "cell_size {cell_size}: {out:?}"
        );
    }

    // predictor_window < 2: the linear predictor needs two samples
    for window in [0, 1] {
        let mut s = quick_session(PlayerKind::Volcast, 2, 10, 1);
        s.params.config.predictor_window = window;
        let out = s.run();
        assert!(
            matches!(out, Err(VolcastError::InvalidParams(_))),
            "predictor_window {window}: {out:?}"
        );
    }

    // min_merge_iou = NaN would switch the similarity gate off
    let mut s = quick_session(PlayerKind::Volcast, 2, 10, 1);
    s.params.config.min_merge_iou = f64::NAN;
    assert!(matches!(s.run(), Err(VolcastError::InvalidParams(_))));

    // fault rate outside [0, 1]
    let mut s = quick_session(PlayerKind::Volcast, 2, 10, 1);
    s.params.faults = Some(FaultConfig {
        loss_rate: 1.5,
        ..FaultConfig::default()
    });
    let err = s.run().unwrap_err();
    assert!(matches!(err, VolcastError::Net(_)), "got {err}");

    // no users at all
    let s = StreamingSession::new(SessionParams::default(), Vec::new());
    let mut s = s;
    assert!(matches!(s.run(), Err(VolcastError::InvalidTraces(_))));
}

/// A pose with a non-finite position or orientation component is refused
/// before the frame loop, naming the user and the sample — NaN and `inf`
/// set by hand, and the NaN a study file's `null` loads as. Such a session
/// used to run and report every frame of every user on time.
#[test]
fn non_finite_poses_are_refused_naming_user_and_sample() {
    let refused = |s: &mut StreamingSession| match s.run() {
        Err(VolcastError::InvalidTraces(msg)) => msg,
        other => panic!("expected InvalidTraces, got {other:?}"),
    };
    let mut s = quick_session(PlayerKind::Volcast, 3, 10, 1);
    s.traces[1].poses[4].position.y = f64::NAN;
    assert_eq!(refused(&mut s), "user 1 has a non-finite pose at sample 4");
    let mut s = quick_session(PlayerKind::Vanilla, 3, 10, 1);
    s.traces[2].poses[0].orientation.x = f64::INFINITY;
    assert_eq!(refused(&mut s), "user 2 has a non-finite pose at sample 0");
    let mut s = quick_session(PlayerKind::Volcast, 2, 10, 1);
    s.walkers = vec![s.traces[0].clone()];
    s.walkers[0].poses[7].position.z = f64::NEG_INFINITY;
    assert_eq!(
        refused(&mut s),
        "walker 0 has a non-finite pose at sample 7"
    );

    // `null` in a study file loads as NaN.
    let study = UserStudy::generate_with(3, 6, 1, 1);
    let mut json = Vec::new();
    write_study(&study, &mut json).unwrap();
    let json = String::from_utf8(json).unwrap();
    let key = "\"position\":{\"x\":";
    let (first, _) = json.match_indices(key).nth(6 + 2).unwrap();
    let at = first + key.len();
    let end = at + json[at..].find(',').unwrap();
    let json = format!("{}null{}", &json[..at], &json[end..]);
    let loaded = read_study(json.as_bytes()).unwrap();
    assert!(loaded.traces[1].poses[2].position.x.is_nan());
    let err = validate_traces(&loaded.traces).unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid traces: user 1 has a non-finite pose at sample 2"
    );
}

/// A 1 mm cell size is valid and must stay cheap: every per-frame index
/// over cells (the manifest's counter, the occlusion walk's dense-cell
/// table) is sized by the cells that hold points, never by the grid's
/// bounding box (~10⁹ cells here).
#[test]
fn millimetre_cells_run() {
    let mut s = quick_session(PlayerKind::Volcast, 2, 2, 1);
    s.params.analysis_points = 400;
    s.params.config.cell_size = 0.001;
    let out = s.run().unwrap();
    assert_eq!(out.qoe.users.len(), 2);
    assert!(out.qoe.users.iter().all(|u| u.frames() == 2));
}

/// `SessionParams::validate` is also callable up front, without running.
#[test]
fn validate_catches_bad_params_without_running() {
    let mut p = SessionParams::default();
    assert!(p.validate().is_ok());
    p.frames = 0;
    assert!(p.validate().is_err());
    p.frames = 10;
    p.faults = Some(FaultConfig {
        outage_rate: 0.5,
        outage_frames: 0, // episodic class with zero-length episodes
        ..FaultConfig::default()
    });
    assert!(p.validate().is_err());
}

/// Malformed fault specs surface as parse errors through the same type.
#[test]
fn bad_fault_spec_is_a_loud_error() {
    for bad in ["outage", "outage=abc", "nosuchkey=1", "loss=0.1:4"] {
        let err = FaultConfig::from_spec(bad).unwrap_err();
        let msg = err.to_string();
        assert!(!msg.is_empty(), "spec '{bad}' produced an empty error");
    }
}
