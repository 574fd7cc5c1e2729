//! Pins the allocation-free steady state of the link-evaluation path and
//! of the session's staged group-beam receivers.
//!
//! This is its own integration binary because the counting allocator is
//! process-global: any sibling test allocating concurrently would make the
//! counters move. Keep exactly one `#[test]` in this file.

use volcast_geom::{Complex, Vec3};
use volcast_mmwave::{combine_weights, Blocker, Channel, Codebook, SweepEngine, SweepRx};
use volcast_util::obs;
use volcast_util::scratch::counting;

#[global_allocator]
static ALLOC: counting::CountingAllocator = counting::CountingAllocator;

/// What the session does per user per frame must not touch the allocator
/// once the buffers have reached their high-watermark: its `link_rates`
/// stage re-locates one receiver in place and evaluates both link beams;
/// its group beams locate a receiver, take its rate cap, and — for a
/// designed member — sweep it and find its best sector. Pricing arbitrary
/// weights by element sums (`eval_weights`, what `Channel::rss_dbm` runs)
/// builds the member's steering rows, in place too.
/// `design_alloc.rs` pins the custom-beam design itself.
#[test]
fn warm_link_evaluations_do_not_allocate() {
    // No stage below books a metric, but keep the registry out of the
    // picture under VOLCAST_TRACE=1 all the same.
    obs::set_enabled(false);

    let mut channel = Channel::default_setup();
    channel.room.floor_reflection = true; // the longest path list
    let codebook = Codebook::default_for(&channel.array);
    let engine = SweepEngine::new(&channel, &codebook);
    let mut link = SweepRx::new();
    let mut member = SweepRx::new();
    let sectors = codebook.sectors();
    let custom: Vec<Complex> = combine_weights(&sectors[3], 1e-6, &sectors[40], 2e-6).w;
    let mut blockers: Vec<Blocker> = Vec::with_capacity(16);

    let mut pass = || {
        let mut sum = 0.0f64;
        for i in 0..64usize {
            let t = i as f64;
            let pos = Vec3::new(-3.0 + 0.09 * t, 1.0 + 0.01 * t, 2.5 - 0.1 * t);
            blockers.clear();
            blockers
                .extend((0..i % 13).map(|b| {
                    Blocker::person(Vec3::new(-2.0 + 0.4 * b as f64, 0.0, 0.3 * t - 3.0))
                }));
            link.locate(&channel, pos, &blockers);
            sum += link.rss_dedicated_beam() + link.rss_best_beam();
            member.locate(&channel, pos, &blockers);
            sum += member.rss_cap_dbm();
            member.sweep(&engine);
            sum += engine.best_sector(&mut member).1 + member.eval_weights(&custom);
        }
        sum
    };
    let warm = pass();

    let allocs_before = counting::allocations();
    let deallocs_before = counting::deallocations();
    let measured = pass();
    assert_eq!(
        counting::allocations() - allocs_before,
        0,
        "warm link evaluations allocated"
    );
    assert_eq!(
        counting::deallocations() - deallocs_before,
        0,
        "warm link evaluations deallocated"
    );
    assert!(measured.is_finite());
    assert_eq!(measured.to_bits(), warm.to_bits());
}
