//! Pins what a fault schedule costs the allocator: a fresh plan is its
//! table and its stall flags, and a warm plan regenerated onto an equal or
//! smaller domain allocates nothing (the campus regenerates one per room,
//! epoch and AP).
//!
//! This is its own integration binary because the counting allocator is
//! process-global: any sibling test allocating concurrently would make the
//! counters move. Keep exactly one `#[test]` in this file. Even alone, the
//! harness's own threads may allocate while the test measures, so both
//! gates read the calling thread's counters, and the generator runs on
//! that thread alone.

use volcast_net::{FaultConfig, FaultPlan};
use volcast_util::scratch::counting;
use volcast_util::{obs, par};

#[global_allocator]
static ALLOC: counting::CountingAllocator = counting::CountingAllocator;

#[test]
fn fault_plans_allocate_once_and_regenerate_in_place() {
    // The generator books obs counters when tracing is on; keep the
    // registry out of the picture under VOLCAST_TRACE=1.
    obs::set_enabled(false);
    par::set_thread_count(1);
    assert_eq!(par::thread_count(), 1);

    // The server workload's shape and fault classes: 150 clients, 60 frames.
    let server =
        FaultConfig::from_spec("seed=42,outage=0.01:3,loss=0.02,stall=0.005:2,decode=0.01")
            .unwrap();
    let before = counting::thread_allocations();
    let mut plan = FaultPlan::generate(server, 60, 150).unwrap();
    let fresh = counting::thread_allocations() - before;
    assert!(fresh <= 2, "a fresh 60 x 150 plan made {fresh} allocations");
    assert!(!plan.is_quiet());

    // Every class and a blackout, over shrinking and regrowing domains no
    // larger than the first: the table and the stall flags are reused.
    let every = FaultConfig::from_spec(
        "outage=0.3:4,blockage=0.3:2,stall=0.3:3,loss=0.3,decode=0.3,blackout=5:20",
    )
    .unwrap();
    let allocs_before = counting::thread_allocations();
    let deallocs_before = counting::thread_deallocations();
    for (seed, frames, users) in [
        (1u64, 60, 150),
        (2, 30, 150),
        (3, 60, 10),
        (4, 1, 1),
        (5, 0, 0),
    ] {
        plan.regenerate(FaultConfig { seed, ..every }, frames, users)
            .unwrap();
        plan.regenerate(FaultConfig { seed, ..server }, 60, 150)
            .unwrap();
    }
    assert_eq!(
        counting::thread_allocations() - allocs_before,
        0,
        "a warm regenerate allocated"
    );
    assert_eq!(
        counting::thread_deallocations() - deallocs_before,
        0,
        "a warm regenerate deallocated"
    );
}
