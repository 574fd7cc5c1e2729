//! Pins the allocation-free steady state of the frame data path.
//!
//! This is its own integration binary because the counting allocator is
//! process-global: any sibling test allocating concurrently would make the
//! counters move. Keep exactly one `#[test]` in this file.

use volcast_pointcloud::codec::{
    CodecConfig, Encoder, GopEncoder, LayeredConfig, LayeredDecoder, LayeredEncoder, LayeredFrame,
};
use volcast_pointcloud::{codec::Decoder, codec::EncodedCloud, PointCloud, SyntheticBody};
use volcast_util::scratch::counting;
use volcast_util::{obs, par};

#[global_allocator]
static ALLOC: counting::CountingAllocator = counting::CountingAllocator;

/// After a warm-up pass, generate -> encode -> decode over the same frames
/// must not touch the allocator at all: every buffer in the path (synthetic
/// frame, encoder scratch arenas, bitstream, decoded cloud) is reused.
#[test]
fn steady_state_frame_path_does_not_allocate() {
    // The obs registry interns metric names on first touch; disable it so
    // the assertion holds under VOLCAST_TRACE=1 too (verify.sh runs tests
    // with tracing on).
    obs::set_enabled(false);

    let body = SyntheticBody::default();
    // The ladder's two timed rungs, alternating: depth 8 dedups through the
    // bitmap at its 2 MiB cap, depth 10 through the radix sort, so a warm
    // encoder switches paths (and bitmap sizes) every frame.
    let [cfg8, cfg10] = [8, 10].map(|depth| CodecConfig {
        depth,
        color_bits: 6,
    });
    const FRAMES: u64 = 8;
    const POINTS: usize = 10_000;

    let mut enc = Encoder::new();
    let mut dec = Decoder::new();
    let mut cloud = PointCloud::new();
    let mut encoded = EncodedCloud { data: Vec::new() };
    let mut decoded = PointCloud::new();

    // Warm-up: two full passes over the frame set so every buffer reaches
    // its high-watermark capacity (bitstream sizes vary slightly per frame).
    let run_pass = |enc: &mut Encoder,
                    dec: &mut Decoder,
                    cloud: &mut PointCloud,
                    encoded: &mut EncodedCloud,
                    decoded: &mut PointCloud| {
        let mut voxels = 0usize;
        for f in 0..FRAMES {
            body.frame_into(f, POINTS, cloud);
            let cfg = if f % 2 == 0 { &cfg8 } else { &cfg10 };
            let stats = enc.encode_into(cloud, cfg, &mut encoded.data);
            voxels += dec.decode_into(encoded, decoded).unwrap();
            assert_eq!(decoded.len(), stats.voxels);
        }
        voxels
    };
    for _ in 0..2 {
        run_pass(&mut enc, &mut dec, &mut cloud, &mut encoded, &mut decoded);
    }

    let allocs_before = counting::allocations();
    let deallocs_before = counting::deallocations();
    let mut total_voxels = 0usize;
    for _ in 0..5 {
        total_voxels += run_pass(&mut enc, &mut dec, &mut cloud, &mut encoded, &mut decoded);
    }
    let allocs_after = counting::allocations();
    let deallocs_after = counting::deallocations();

    assert!(total_voxels > 0, "decode produced no voxels");
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state frame path allocated"
    );
    assert_eq!(
        deallocs_after - deallocs_before,
        0,
        "steady-state frame path deallocated"
    );

    // --- Layered path ----------------------------------------------------
    // Same contract for the progressive codec: after warm-up, layered
    // encode (base + enhancements) and full-prefix decode reuse every
    // buffer (layer bitstreams, boundary-aggregation scratch, expansion
    // ping-pong arenas).
    let lcfg = LayeredConfig::default();
    let mut lenc = LayeredEncoder::new();
    let mut ldec = LayeredDecoder::new();
    let mut frame = LayeredFrame::new();
    let layered_pass = |lenc: &mut LayeredEncoder,
                        ldec: &mut LayeredDecoder,
                        cloud: &mut PointCloud,
                        frame: &mut LayeredFrame,
                        decoded: &mut PointCloud| {
        let mut voxels = 0usize;
        for f in 0..FRAMES {
            body.frame_into(f, POINTS, cloud);
            let stats = lenc.encode_into(cloud, &lcfg, frame);
            voxels += ldec.decode_frame_into(frame.layers(), decoded).unwrap();
            assert_eq!(decoded.len(), stats.voxels);
        }
        voxels
    };
    for _ in 0..2 {
        layered_pass(&mut lenc, &mut ldec, &mut cloud, &mut frame, &mut decoded);
    }
    let l_allocs_before = counting::allocations();
    let l_deallocs_before = counting::deallocations();
    let mut l_voxels = 0usize;
    for _ in 0..5 {
        l_voxels += layered_pass(&mut lenc, &mut ldec, &mut cloud, &mut frame, &mut decoded);
    }
    assert!(l_voxels > 0, "layered decode produced no voxels");
    assert_eq!(
        counting::allocations() - l_allocs_before,
        0,
        "steady-state layered path allocated"
    );
    assert_eq!(
        counting::deallocations() - l_deallocs_before,
        0,
        "steady-state layered path deallocated"
    );

    // --- GOP-batched path ------------------------------------------------
    // Same contract for `GopEncoder`: once its arenas and output buffers
    // are warm, whole-GOP encode sweeps over clouds generated out here are
    // allocation-free. Pin the worker count to 1 — spawning workers
    // allocates by design, and the zero-alloc claim is about the codec
    // arenas, not thread plumbing (this also keeps the gate meaningful
    // under VOLCAST_THREADS=4 runs).
    par::set_thread_count(1);
    let clouds: Vec<PointCloud> = (0..FRAMES).map(|f| body.frame(f, POINTS)).collect();
    // One warm GopEncoder must stay allocation-free across both rungs.
    let mut gop = GopEncoder::new();
    let gop_pass = |gop: &mut GopEncoder| {
        let mut bytes = 0usize;
        for pass_cfg in [&cfg8, &cfg10] {
            gop.encode_gop_into(&clouds, pass_cfg);
            for i in 0..clouds.len() {
                bytes += gop.frame_data(i).len();
            }
        }
        bytes
    };
    for _ in 0..2 {
        gop_pass(&mut gop);
    }
    let gop_allocs_before = counting::allocations();
    let gop_deallocs_before = counting::deallocations();
    let mut total_bytes = 0usize;
    for _ in 0..3 {
        total_bytes += gop_pass(&mut gop);
    }
    assert!(total_bytes > 0, "GOP encode produced no bytes");
    assert_eq!(
        counting::allocations() - gop_allocs_before,
        0,
        "steady-state GOP batched path allocated"
    );
    assert_eq!(
        counting::deallocations() - gop_deallocs_before,
        0,
        "steady-state GOP batched path deallocated"
    );

    // --- Cold GOP memory -------------------------------------------------
    // A GOP's codec scratch is bounded by the worker budget, not by its
    // length: at one worker, the first encode of a 60-frame GOP may request
    // at most 25 % more heap than one cold `Encoder` encoding the same
    // frames into 60 fresh outputs (an arena per frame requests over 10x).
    let long: Vec<PointCloud> = (0..60).map(|f| body.frame(f, POINTS)).collect();
    let before = counting::allocated_bytes();
    let mut enc = Encoder::new();
    let outputs: Vec<Vec<u8>> = (long.iter())
        .map(|cloud| {
            let mut data = Vec::new();
            enc.encode_into(cloud, &cfg10, &mut data);
            data
        })
        .collect();
    let serial_bytes = counting::allocated_bytes() - before;
    drop((enc, outputs));
    let before = counting::allocated_bytes();
    GopEncoder::new().encode_gop_into(&long, &cfg10);
    let gop_bytes = counting::allocated_bytes() - before;
    assert!(
        gop_bytes * 4 <= serial_bytes * 5,
        "a cold 60-frame GOP requested {gop_bytes} B, one cold encoder {serial_bytes} B"
    );
}
