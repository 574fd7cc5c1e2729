//! Pins the allocation-free steady state of the campus room-epoch loop.
//!
//! This is its own integration binary because the counting allocator is
//! process-global: any sibling test allocating concurrently would make the
//! counters move. Keep exactly one `#[test]` in this file.

use volcast_core::campus::{Campus, CampusParams};
use volcast_net::FaultConfig;
use volcast_util::scratch::counting;
use volcast_util::{obs, par};

#[global_allocator]
static ALLOC: counting::CountingAllocator = counting::CountingAllocator;

/// One full campus pass warms every arena to its high-watermark (room
/// populations, group counts, fault masks, plan skeletons, simulator
/// scratch). After a [`reset`](Campus::runner), a second full pass over
/// the identical epoch sequence must not touch the allocator at all —
/// every buffer in the room-epoch loop is reused.
#[test]
fn steady_state_epoch_loop_does_not_allocate() {
    // The obs registry interns metric names on first touch; disable it so
    // the assertion holds under VOLCAST_TRACE=1 too (verify.sh runs tests
    // with tracing on). Worker spawning allocates by design — the claim is
    // about the per-room arenas, so pin the parallelism to the serial path.
    obs::set_enabled(false);
    par::set_thread_count(1);

    let params = CampusParams {
        grid_w: 3,
        grid_h: 2,
        users: 300,
        frames: 240,
        epoch_frames: 6,
        seed: 9,
        group_cap: 8,
        faults: Some(
            FaultConfig::from_spec("seed=5,outage=0.02:4,loss=0.03,stall=0.005:2").unwrap(),
        ),
    };
    let campus = Campus::new(params).unwrap();
    let mut runner = campus.runner();

    // Warm passes: every buffer's capacity growth is monotone, but one
    // pass is not a fixed point — pooled member vectors change hands and
    // the coordinator's kept receivers move between slots as rooms'
    // populations change, so a few capacities still grow early in a first
    // re-run. Two passes reach the high-watermark fixed point.
    for _ in 0..2 {
        let mut warm_epochs = 0;
        while runner.step_epoch() {
            warm_epochs += 1;
        }
        assert_eq!(warm_epochs, 40);
        runner.reset();
    }

    // Measured pass: the same 40 epochs, now entirely arena-backed.
    let allocs_before = counting::allocations();
    let deallocs_before = counting::deallocations();
    while runner.step_epoch() {}
    let allocs_after = counting::allocations();
    let deallocs_after = counting::deallocations();

    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state epoch loop allocated"
    );
    assert_eq!(
        deallocs_after - deallocs_before,
        0,
        "steady-state epoch loop deallocated"
    );

    // The outcome built from the reused arenas is the outcome — the reset
    // re-run must be byte-identical to a fresh one-shot run.
    let rerun = runner.finish();
    let fresh = campus.run().unwrap();
    assert_eq!(rerun, fresh);
    assert!(rerun.handoffs > 0);
    assert!(rerun.fault_user_frames > 0);
}
