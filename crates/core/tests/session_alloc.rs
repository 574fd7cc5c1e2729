//! Pins the allocation-free frame loop of `StreamingSession::run`: what a
//! run allocates is set-up, sized from its users and frames, so it does
//! not depend on how many frames it plays.
//!
//! This is its own integration binary because the counting allocator is
//! process-global: any sibling test allocating concurrently would make the
//! counters move. Keep exactly one `#[test]` in this file. The run happens
//! on the calling thread (`par` pinned to one thread), so the gate reads
//! that thread's counters and not the harness's.

use volcast_core::session::{DeliveryMode, RadioKind};
use volcast_core::{MitigationMode, PlayerKind, SessionParams, StreamingSession};
use volcast_net::FaultConfig;
use volcast_pointcloud::VideoSequence;
use volcast_util::scratch::counting;
use volcast_util::{obs, par};
use volcast_viewport::{Trace, UserStudy};

#[global_allocator]
static ALLOC: counting::CountingAllocator = counting::CountingAllocator;

/// Frames in one period of the inputs.
const PERIOD: usize = 6;

/// Every fault class, a blackout included.
const EVERY_FAULT: &str =
    "seed=3,outage=0.1:2,blockage=0.15:2,stall=0.08:1,loss=0.15,decode=0.1,blackout=4:2";

/// Each trace's first `PERIOD` poses, `times` over.
fn periodic(traces: &[Trace], times: usize) -> Vec<Trace> {
    let repeat = |t: &Trace| Trace {
        poses: t.poses[..PERIOD].repeat(times),
        ..t.clone()
    };
    traces.iter().map(repeat).collect()
}

/// Allocations on this thread while `session` runs, and its outcome.
fn counted_run(session: &mut StreamingSession) -> (u64, volcast_core::SessionOutcome) {
    let before = counting::thread_allocations();
    let outcome = session.run().expect("a valid session");
    (counting::thread_allocations() - before, outcome)
}

/// Over periodic inputs (a video of `PERIOD` frames, every trace its first
/// `PERIOD` poses twice), a run of `2 * PERIOD` frames allocates exactly
/// what a run of `PERIOD` frames does — for every player, both delivery
/// modes, both mitigation modes and both radios, with and without faults
/// of every class — and running a session again changes nothing it
/// returns.
#[test]
fn a_run_allocates_the_same_at_any_frame_count() {
    // The obs registry interns metric names on first touch; the claim is
    // about the frame loop, not the registry, and holds under
    // VOLCAST_TRACE=1 too.
    obs::set_enabled(false);
    par::set_thread_count(1);

    let video = VideoSequence::new(11, PERIOD as u64);
    let study = UserStudy::generate_with(42, PERIOD, 3, 2).traces;
    let faults = FaultConfig::from_spec(EVERY_FAULT).unwrap();
    let mut differing = Vec::new();
    let mut runs = 0;
    for player in [PlayerKind::Vanilla, PlayerKind::Vivo, PlayerKind::Volcast] {
        for delivery in [DeliveryMode::Single, DeliveryMode::Layered] {
            for mitigation in [MitigationMode::Reactive, MitigationMode::Proactive] {
                for radio in [RadioKind::MmWave, RadioKind::Wifi5] {
                    for faults in [None, Some(faults)] {
                        let session = |times: usize| {
                            let params = SessionParams {
                                player,
                                delivery,
                                mitigation,
                                radio,
                                faults,
                                frames: times * PERIOD,
                                analysis_points: 4_000,
                                ..SessionParams::default()
                            };
                            let mut s = StreamingSession::new(params, periodic(&study, times));
                            s.video = video.clone();
                            s
                        };
                        let (mut once, mut twice) = (session(1), session(2));
                        // Warm the shared cell manifest and the runs' first
                        // outcomes.
                        let first = twice.run().unwrap();
                        let (at_f, _) = counted_run(&mut once);
                        let (at_2f, again) = counted_run(&mut twice);
                        assert_eq!(again, first, "{player:?} {delivery:?} {mitigation:?}");
                        if at_f != at_2f {
                            let config = (player, delivery, mitigation, radio, faults.is_some());
                            differing.push((config, at_f, at_2f));
                        }
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 48);
    assert!(
        differing.is_empty(),
        "allocations at {PERIOD} and {} frames differ: {differing:#?}",
        2 * PERIOD
    );
}
