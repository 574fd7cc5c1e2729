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
use volcast_util::json::{JsonValue, ToJson};
use volcast_util::{par, pins};
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
        0x0cbd_82d4_41ae_e827,
        "campus outcome drifted; if the change is intentional re-pin this hash\n{json}"
    );
}

/// An *odd* worker budget (3) over a *non-square* grid (4x2) is pinned
/// too: odd counts make uneven room-to-worker splits, and `grid_w !=
/// grid_h` catches any accidental width/height transposition in room
/// binning — both invisible to the square, even-budget pin above. The pin
/// is a canonical snapshot (`results/pins/campus_rect_grid.txt`) with the
/// FNV-1a of the JSON as its one-line summary; a drift is reported field
/// by field, like a golden row's.
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
    };
    let outcome = {
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
    let report = pin_report("results/pins/campus_rect_grid.txt", &outcome);
    let got = fnv1a(outcome.to_json_string().as_bytes());
    assert!(
        got == 0x3edd_6eb7_6053_0bee && report.is_empty(),
        "rect-grid campus outcome drifted to {got:#018x}; if intentional re-pin it:\n  {}\nnew snapshot:\n{}",
        report.join("\n  "),
        pins::snapshot(&outcome)
    );
}

/// The golden table's quiet row, which every other row varies.
fn golden_base() -> CampusParams {
    CampusParams {
        grid_w: 2,
        grid_h: 1,
        users: 24,
        frames: 24,
        epoch_frames: 6,
        seed: 3,
        group_cap: 4,
        faults: None,
    }
}

/// Where a golden row's snapshot lives, from the repository root:
/// `results/pins/campus_golden/`, named after the row.
fn snapshot_path(row: &str) -> String {
    let stem: String = (row.chars())
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    format!("results/pins/campus_golden/{stem}.txt")
}

/// What moved in an outcome, field by field, against the snapshot
/// committed at `path` from the repository root (every field, when there
/// is none).
fn pin_report(path: &str, outcome: &JsonValue) -> Vec<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let pinned = std::fs::read_to_string(format!("{root}/{path}")).unwrap_or_default();
    pins::diff(&pinned, &pins::snapshot(outcome))
}

/// What moved in a golden row against its committed snapshot.
fn golden_report(row: &str, outcome: &JsonValue) -> Vec<String> {
    pin_report(&snapshot_path(row), outcome)
}

/// The campus's corners, each row pinned by a canonical snapshot of its
/// outcome (`results/pins/campus_golden/`, floats as bits) with the FNV-1a
/// of its JSON as the one-line summary, and checked at 1 and 3 workers:
/// grid shapes, crowding, the group cap, ragged and oversized epochs, and
/// every fault class alone and together. The crowded rows engage the
/// quality clamp, so the order in which a room's per-frame airtime demand
/// is summed shows in their bits. Blockage and decode overruns pin the
/// quiet row's outcome: the campus replay reads only outages, losses and
/// stalls. A drifted row is reported as `field: old → new (Δ n ULP)` for
/// each field that moved, then its whole new snapshot.
#[test]
fn campus_golden_table() {
    let base = golden_base();
    let faulted = |spec: &str| CampusParams {
        faults: Some(FaultConfig::from_spec(spec).unwrap()),
        ..base.clone()
    };
    let rows: [(&str, CampusParams, u64); 18] = [
        ("no faults", base.clone(), 0x5874_a783_3096_eab0),
        (
            "1x1 grid",
            CampusParams {
                grid_w: 1,
                users: 10,
                ..base.clone()
            },
            0x2956_7152_4304_4e5f,
        ),
        (
            "1x3 grid",
            CampusParams {
                grid_w: 1,
                grid_h: 3,
                ..base.clone()
            },
            0x1b7e_44f5_7cc7_7b9c,
        ),
        (
            "fewer users than rooms",
            CampusParams {
                grid_w: 3,
                grid_h: 2,
                users: 4,
                ..base.clone()
            },
            0xbe0d_5155_57cd_f4a9,
        ),
        (
            "crowded room",
            CampusParams {
                grid_w: 1,
                users: 48,
                group_cap: 8,
                ..base.clone()
            },
            0x2374_1e3f_f193_196e,
        ),
        (
            "group_cap 1",
            CampusParams {
                group_cap: 1,
                ..base.clone()
            },
            0xac2c_8a59_3126_041d,
        ),
        (
            "one group per AP",
            CampusParams {
                group_cap: 64,
                ..base.clone()
            },
            0xd58a_ff9f_1493_f9d3,
        ),
        (
            "epoch_frames 1",
            CampusParams {
                frames: 12,
                epoch_frames: 1,
                ..base.clone()
            },
            0x13db_679d_80ed_33fc,
        ),
        (
            "epoch longer than the run",
            CampusParams {
                frames: 20,
                epoch_frames: 50,
                ..base.clone()
            },
            0x2be6_e4f5_e780_f343,
        ),
        (
            "ragged last epoch",
            CampusParams {
                frames: 23,
                ..base.clone()
            },
            0x991b_3654_cff5_85e1,
        ),
        (
            "roaming",
            CampusParams {
                users: 12,
                frames: 300,
                epoch_frames: 15,
                ..base.clone()
            },
            0x675c_6643_17f8_bb26,
        ),
        (
            "heavy outage",
            faulted("seed=1,outage=0.7:3"),
            0x9547_ae50_1bf6_850a,
        ),
        (
            "loss only",
            faulted("seed=2,loss=0.3"),
            0x0114_2e15_b4f4_6dfb,
        ),
        (
            "blockage only",
            faulted("seed=3,blockage=0.3:2"),
            0x5874_a783_3096_eab0,
        ),
        (
            "stall only",
            faulted("seed=4,stall=0.2:2"),
            0x1752_84e2_386e_13cc,
        ),
        (
            "decode only",
            faulted("seed=5,decode=0.3"),
            0x5874_a783_3096_eab0,
        ),
        (
            "blackout",
            faulted("seed=6,blackout=2:3"),
            0x3525_ef49_38e5_5cd9,
        ),
        (
            "every class",
            faulted(
                "seed=7,outage=0.1:3,blockage=0.1:2,stall=0.05:2,loss=0.1,decode=0.1,blackout=1:2",
            ),
            0x1be3_19a2_099e_02c8,
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
        };
        let serial = run(1);
        let three = run(3);
        assert_eq!(serial, three, "{name}: output depends on VOLCAST_THREADS");
        let got = fnv1a(serial.to_json_string().as_bytes());
        let report = golden_report(name, &serial);
        if got != want || !report.is_empty() {
            drifted.push(format!(
                "{name}: {got:#018x} (pinned {want:#018x}), {}\n  {}\nnew snapshot:\n{}",
                snapshot_path(name),
                report.join("\n  "),
                pins::snapshot(&serial)
            ));
        }
    }
    par::set_thread_count(orig);
    assert!(
        drifted.is_empty(),
        "campus rows drifted:\n{}",
        drifted.join("\n")
    );
}

/// A drifted row says what moved: the quiet row's outcome with
/// `min_interference_margin_db` one ULP further from zero reads, against
/// its committed snapshot, as that one field, one ULP apart.
#[test]
fn a_one_ulp_margin_move_is_reported_by_name() {
    let mut outcome = Campus::new(golden_base()).unwrap().run().unwrap();
    let was = outcome.min_interference_margin_db;
    assert!(was.is_finite(), "the quiet row has an interfering AP pair");
    let now = f64::from_bits(was.to_bits() + 1);
    outcome.min_interference_margin_db = now;
    assert_eq!(
        golden_report("no faults", &outcome.to_json()),
        [format!(
            "min_interference_margin_db: {was:?} → {now:?} (Δ 1 ULP)"
        )]
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
