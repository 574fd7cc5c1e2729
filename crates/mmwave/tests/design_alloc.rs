//! Pins what building a DFT codebook and its sweep engine allocates, and a
//! warm custom-beam design at zero allocations.
//!
//! This is its own integration binary because the counting allocator is
//! process-global: any sibling test allocating concurrently would make the
//! counters move. Keep exactly one `#[test]` in this file.

use volcast_geom::Vec3;
use volcast_mmwave::{BeamDesign, Channel, Codebook, SweepEngine, SweepRx};
use volcast_util::obs;
use volcast_util::scratch::counting;

#[global_allocator]
static ALLOC: counting::CountingAllocator = counting::CountingAllocator;

/// `Codebook::default_for` and `SweepEngine::new` build no sector weight
/// vector: a 48-sector codebook and its engine are four allocations (the
/// directions, the engine's two x half-angle columns and its elevation
/// runs), where the weights alone were 48 more. A group whose members want
/// different sectors then designs, and prices, a custom beam from the
/// receivers' kernels without touching the allocator once its buffers are
/// warm.
#[test]
fn dft_codebooks_build_no_weights_and_warm_custom_designs_do_not_allocate() {
    obs::set_enabled(false);
    let channel = Channel::default_setup();

    let before = counting::allocations();
    let codebook = Codebook::default_for(&channel.array);
    let engine = SweepEngine::new(&channel, &codebook);
    let built = counting::allocations() - before;
    assert!(
        built <= 4,
        "{built} allocations for a {}-sector codebook and its engine",
        codebook.len()
    );

    let groups: [&[Vec3]; 2] = [
        &[Vec3::new(-2.5, 1.5, 0.0), Vec3::new(2.5, 1.5, 0.0)],
        &[
            Vec3::new(-2.0, 1.4, 1.0),
            Vec3::new(0.3, 1.7, -1.5),
            Vec3::new(2.2, 1.2, 0.5),
        ],
    ];
    let sectors = codebook.len();
    let mut rxs: Vec<SweepRx> = (0..3)
        .map(|_| SweepRx::with_capacity(channel.max_paths(), sectors))
        .collect();
    let mut design = BeamDesign::with_capacity(3, sectors);
    let mut pass = || {
        let mut sum = 0.0f64;
        for positions in groups {
            for (rx, &pos) in rxs.iter_mut().zip(positions) {
                rx.prepare(&engine, pos, &[]);
            }
            let members = [0, 1, 2];
            engine.design(&mut rxs, &members[..positions.len()], &mut design);
            assert!(design.customized, "{positions:?} kept a codebook sector");
            sum += design.common_rss_dbm() + engine.beam_dbm(&mut rxs[0], &design);
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
        "warm custom designs allocated"
    );
    assert_eq!(
        counting::deallocations() - deallocs_before,
        0,
        "warm custom designs deallocated"
    );
    assert!(measured.is_finite());
    assert_eq!(measured.to_bits(), warm.to_bits());
}
