//! Campus sharding and roaming, end to end: the sharded multi-room
//! simulation and a roaming-trace streaming session must both be
//! byte-identical across worker budgets, and their outcomes are *pinned*
//! by FNV-1a hash so any behavioral drift — a reordered merge, a
//! re-seeded fault domain, an accidental `HashMap` iteration — fails
//! loudly instead of silently changing committed figures.
//!
//! The thread-count knob is process-global, so the tests serialize their
//! access through a mutex and restore the original count when done.

use std::sync::Mutex;
use volcast_core::campus::{Campus, CampusParams};
use volcast_core::{SessionParams, StreamingSession};
use volcast_net::FaultConfig;
use volcast_util::hash::fnv1a;
use volcast_util::json::ToJson;
use volcast_util::par;
use volcast_viewport::RoamingTraceGenerator;

static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// Runs `work` at 1 worker and at 8 and asserts byte-identical output;
/// returns the (shared) serialized form for hash pinning.
fn thread_invariant_json<F: Fn() -> String>(work: F) -> String {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let orig = par::thread_count();
    par::set_thread_count(1);
    let serial = work();
    par::set_thread_count(8);
    let parallel = work();
    par::set_thread_count(orig);
    assert_eq!(serial, parallel, "output depends on VOLCAST_THREADS");
    serial
}

fn campus_params() -> CampusParams {
    CampusParams {
        grid_w: 3,
        grid_h: 1,
        users: 24,
        frames: 40,
        epoch_frames: 8,
        seed: 11,
        group_cap: 6,
        faults: Some(FaultConfig::from_spec("seed=5,outage=0.02:4,loss=0.03").unwrap()),
    }
}

/// The campus outcome is identical at 1 and 8 workers and pinned: rooms
/// advance in parallel but merge positionally, fault domains are seeded
/// per `(room, epoch, ap)`, and the epoch barrier hands off users in
/// deterministic order.
#[test]
fn campus_outcome_is_thread_invariant_and_pinned() {
    let json = thread_invariant_json(|| {
        Campus::new(campus_params())
            .unwrap()
            .run()
            .unwrap()
            .to_json()
            .to_json_string()
    });
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x0cce_86d4_41bd_6226,
        "campus outcome drifted; if the change is intentional re-pin this hash\n{json}"
    );
}

/// An *odd* worker budget (3) over a *non-square* grid (4x2) is pinned
/// too: odd counts make uneven room-to-worker splits, and `grid_w !=
/// grid_h` catches any accidental width/height transposition in room
/// binning — both invisible to the square, even-budget pin above.
#[test]
fn campus_is_invariant_at_odd_thread_counts_and_rect_grids() {
    let params = CampusParams {
        grid_w: 4,
        grid_h: 2,
        users: 40,
        frames: 32,
        seed: 13,
        group_cap: 5,
        ..campus_params()
    };
    let run = || {
        Campus::new(params.clone())
            .unwrap()
            .run()
            .unwrap()
            .to_json()
            .to_json_string()
    };
    let json = {
        let _guard = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let orig = par::thread_count();
        par::set_thread_count(1);
        let serial = run();
        par::set_thread_count(3);
        let three = run();
        par::set_thread_count(orig);
        assert_eq!(serial, three, "output depends on VOLCAST_THREADS=3");
        serial
    };
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x3edd_6eb7_6053_0bee,
        "rect-grid campus outcome drifted; if intentional re-pin this hash\n{json}"
    );
}

/// The campus's corners, each row pinned by the FNV-1a of its outcome's
/// JSON and checked at 1 and 3 workers: grid shapes, crowding, the group
/// cap, ragged and oversized epochs, and every fault class alone and
/// together. The crowded rows engage the quality clamp, so the order in
/// which a room's per-frame airtime demand is summed shows in their bits.
/// Blockage and decode overruns pin the quiet row's hash: the campus
/// replay reads only outages, losses and stalls.
#[test]
fn campus_golden_table() {
    let base = CampusParams {
        grid_w: 2,
        grid_h: 1,
        users: 24,
        frames: 24,
        epoch_frames: 6,
        seed: 3,
        group_cap: 4,
        faults: None,
    };
    let faulted = |spec: &str| CampusParams {
        faults: Some(FaultConfig::from_spec(spec).unwrap()),
        ..base.clone()
    };
    let rows: [(&str, CampusParams, u64); 18] = [
        ("no faults", base.clone(), 0xdba2_2694_0446_ebbf),
        (
            "1x1 grid",
            CampusParams {
                grid_w: 1,
                users: 10,
                ..base.clone()
            },
            0x2215_4852_3f4e_8410,
        ),
        (
            "1x3 grid",
            CampusParams {
                grid_w: 1,
                grid_h: 3,
                ..base.clone()
            },
            0x5002_3ef5_9aad_6bd5,
        ),
        (
            "fewer users than rooms",
            CampusParams {
                grid_w: 3,
                grid_h: 2,
                users: 4,
                ..base.clone()
            },
            0x56df_4c4c_90c5_f445,
        ),
        (
            "crowded room",
            CampusParams {
                grid_w: 1,
                users: 48,
                group_cap: 8,
                ..base.clone()
            },
            0x3c8f_953f_ff8b_5d33,
        ),
        (
            "group_cap 1",
            CampusParams {
                group_cap: 1,
                ..base.clone()
            },
            0xe47a_51a8_8491_d514,
        ),
        (
            "one group per AP",
            CampusParams {
                group_cap: 64,
                ..base.clone()
            },
            0x4a53_f317_511f_6f7a,
        ),
        (
            "epoch_frames 1",
            CampusParams {
                frames: 12,
                epoch_frames: 1,
                ..base.clone()
            },
            0x9b6c_3fa2_0ab7_50b7,
        ),
        (
            "epoch longer than the run",
            CampusParams {
                frames: 20,
                epoch_frames: 50,
                ..base.clone()
            },
            0x30d4_80f3_3497_0bec,
        ),
        (
            "ragged last epoch",
            CampusParams {
                frames: 23,
                ..base.clone()
            },
            0x7c6a_3db4_470d_88c8,
        ),
        (
            "roaming",
            CampusParams {
                users: 12,
                frames: 300,
                epoch_frames: 15,
                ..base.clone()
            },
            0x10a8_cc42_e6d6_c4ca,
        ),
        (
            "heavy outage",
            faulted("seed=1,outage=0.7:3"),
            0x4041_68ff_9887_cc99,
        ),
        (
            "loss only",
            faulted("seed=2,loss=0.3"),
            0xafa3_c71d_79b2_8802,
        ),
        (
            "blockage only",
            faulted("seed=3,blockage=0.3:2"),
            0xdba2_2694_0446_ebbf,
        ),
        (
            "stall only",
            faulted("seed=4,stall=0.2:2"),
            0xe73b_c12c_a893_0f4b,
        ),
        (
            "decode only",
            faulted("seed=5,decode=0.3"),
            0xdba2_2694_0446_ebbf,
        ),
        (
            "blackout",
            faulted("seed=6,blackout=2:3"),
            0xa406_24ea_64e6_7760,
        ),
        (
            "every class",
            faulted(
                "seed=7,outage=0.1:3,blockage=0.1:2,stall=0.05:2,loss=0.1,decode=0.1,blackout=1:2",
            ),
            0x30e9_9628_fa97_2977,
        ),
    ];
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let orig = par::thread_count();
    let mut drifted = Vec::new();
    for (name, params, want) in rows {
        let run = |threads| {
            par::set_thread_count(threads);
            Campus::new(params.clone())
                .unwrap()
                .run()
                .unwrap()
                .to_json()
                .to_json_string()
        };
        let serial = run(1);
        let three = run(3);
        assert_eq!(serial, three, "{name}: output depends on VOLCAST_THREADS");
        let got = fnv1a(serial.as_bytes());
        if got != want {
            drifted.push(format!("{name}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    par::set_thread_count(orig);
    assert!(
        drifted.is_empty(),
        "campus rows drifted:\n{}",
        drifted.join("\n")
    );
}

/// Long roaming runs must actually cross room boundaries — a campus where
/// nobody hands off is not exercising the barrier at all.
#[test]
fn roaming_users_hand_off_between_rooms() {
    let params = CampusParams {
        frames: 900,
        epoch_frames: 30,
        ..campus_params()
    };
    let out = Campus::new(params).unwrap().run().unwrap();
    assert!(out.handoffs > 0, "no handoffs in 30 s of roaming: {out:?}");
    assert!(
        out.reassociations > 0,
        "nobody switched AP within a room in 30 s: {out:?}"
    );
}

/// A full streaming session fed by roaming traces (confined to one
/// room-sized extent, as `Campus` does per room) is thread-invariant and
/// pinned end to end: visibility, grouping, rate adaptation and the MAC
/// all consume the random-waypoint poses.
#[test]
fn roaming_session_outcome_is_thread_invariant_and_pinned() {
    let json = thread_invariant_json(|| {
        let gen = RoamingTraceGenerator::new(42, 6.0, 6.0);
        let traces: Vec<_> = (0..4).map(|u| gen.generate(u, 12)).collect();
        let params = SessionParams {
            frames: 12,
            analysis_points: 4_000,
            ..SessionParams::default()
        };
        StreamingSession::new(params, traces)
            .run()
            .unwrap()
            .to_json()
            .to_json_string()
    });
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x12ac_efb5_9066_f68e,
        "roaming session outcome drifted; if intentional re-pin this hash\n{json}"
    );
}
