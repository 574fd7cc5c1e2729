//! Property tests for the point-cloud substrate: codec round-trip fidelity,
//! the quantize + Morton kernel against its saturating-cast reference,
//! cell-partition invariants, the cell manifest's counting rule and
//! subsampling behaviour.

use std::collections::BTreeMap;
use volcast_geom::Vec3;
use volcast_pointcloud::codec::simd::{self, QuantParams};
use volcast_pointcloud::codec::{decode, encode, CodecConfig};
use volcast_pointcloud::{CellGrid, CellId, CellInfo, Point, PointCloud, VideoSequence};
use volcast_util::prop::prelude::*;

/// The obvious points-per-cell count. `CellGrid::partition` and the cell
/// manifest share one counter, so neither can referee the other; this does.
fn naive_partition(grid: &CellGrid, cloud: &PointCloud) -> Vec<CellInfo> {
    let mut map: BTreeMap<CellId, usize> = BTreeMap::new();
    for p in &cloud.points {
        *map.entry(grid.cell_of(p.position())).or_default() += 1;
    }
    map.into_iter()
        .map(|(id, point_count)| CellInfo { id, point_count })
        .collect()
}

/// The manifest's counting rule: `cell_counts` is `CellGrid::partition` of
/// the materialised frame — every point classified at its `f32`-rounded
/// position — and both are the naive count.
fn assert_counts_are_partition_counts(
    video: &VideoSequence,
    frame: u64,
    points: usize,
    grid: &CellGrid,
) {
    let cloud = video.frame_with_density(frame, points);
    let want = naive_partition(grid, &cloud);
    let got = video.cell_counts(frame, points, grid);
    assert_eq!(
        got[..],
        want[..],
        "frame {frame}, {points} points, {grid:?}"
    );
    assert_eq!(grid.partition(&cloud), want, "partition, frame {frame}");
    assert_eq!(got.iter().map(|c| c.point_count).sum::<usize>(), points);
}

/// The corners the random cases may miss: no points, one point, and cells
/// so small that nearly every point has one of its own — at 1 mm a counter
/// array indexed over the body's bounding box would need ~10⁹ entries, so
/// this also holds the counters to memory that follows the occupied cells.
#[test]
fn cell_counts_at_the_corners() {
    let video = VideoSequence::new(5, 300);
    let shifted = CellGrid::with_origin(0.01, Vec3::new(-0.37, 1.2, 0.505));
    let sizes = [0.5, 0.01, 0.001].map(CellGrid::new);
    for grid in sizes.into_iter().chain([shifted]) {
        for points in [0, 1, 20_000] {
            assert_counts_are_partition_counts(&video, 17, points, &grid);
        }
    }
    let fine = video.cell_counts(17, 20_000, &CellGrid::new(0.01));
    assert!(fine.len() > 10_000, "{} cells", fine.len());
}

fn arb_point(extent: f32) -> impl Strategy<Value = Point> {
    (
        -extent..extent,
        -extent..extent,
        -extent..extent,
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(x, y, z, r, g, b)| Point::new([x, y, z], [r, g, b]))
}

fn arb_cloud(max_points: usize) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec(arb_point(5.0), 0..max_points).prop_map(PointCloud::from_points)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trip_is_voxel_accurate(cloud in arb_cloud(300), depth in 4u32..11) {
        let cfg = CodecConfig { depth, color_bits: 6 };
        let (enc, stats) = encode(&cloud, &cfg);
        let dec = decode(&enc).unwrap();
        prop_assert_eq!(dec.len(), stats.voxels);
        prop_assert!(dec.len() <= cloud.len());
        if cloud.is_empty() {
            prop_assert!(dec.is_empty());
            return Ok(());
        }
        // Quantization error bound: voxel diagonal / 2 (+ f32 slack).
        let extent = cloud.bounds().extent().max_component().max(1e-6);
        let max_err = extent / (1u64 << depth) as f64 * 3f64.sqrt() / 2.0 + 1e-3;
        // Bidirectional Hausdorff bound.
        for d in &dec.points {
            let best = cloud.points.iter()
                .map(|o| o.position().distance(d.position()))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(best <= max_err, "decoded offset {} > {}", best, max_err);
        }
        for o in &cloud.points {
            let best = dec.points.iter()
                .map(|d| d.position().distance(o.position()))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(best <= max_err, "original uncovered by {} > {}", best, max_err);
        }
    }

    #[test]
    fn codec_is_deterministic(cloud in arb_cloud(200)) {
        let cfg = CodecConfig::default();
        let (a, _) = encode(&cloud, &cfg);
        let (b, _) = encode(&cloud, &cfg);
        prop_assert_eq!(a.data, b.data);
    }

    #[test]
    fn partition_counts_every_point_once(cloud in arb_cloud(300), size in 0.1f64..2.0) {
        let grid = CellGrid::new(size);
        let cells = grid.partition(&cloud);
        prop_assert_eq!(&cells, &naive_partition(&grid, &cloud));
        prop_assert_eq!(cells.iter().map(|c| c.point_count).sum::<usize>(), cloud.len());
        prop_assert!(cells.iter().all(|c| c.point_count > 0), "empty cell listed");
        prop_assert!(cells.windows(2).all(|w| w[0].id < w[1].id), "ids not ascending");
    }

    #[test]
    fn cell_counts_equal_partition_counts(
        seed in any::<u64>(), frame in 0u64..1_000, points in 0usize..20_001,
        size in 0.01f64..2.0,
        ox in -3.0f64..3.0, oy in -3.0f64..3.0, oz in -3.0f64..3.0,
    ) {
        let video = VideoSequence::new(seed, 300);
        let grid = CellGrid::with_origin(size, Vec3::new(ox, oy, oz));
        assert_counts_are_partition_counts(&video, frame, points, &grid);
    }

    #[test]
    fn cell_of_matches_cell_bounds(x in -10.0f64..10.0, y in -10.0f64..10.0,
                                   z in -10.0f64..10.0, size in 0.05f64..3.0) {
        let grid = CellGrid::new(size);
        let p = volcast_geom::Vec3::new(x, y, z);
        let id = grid.cell_of(p);
        prop_assert!(grid.cell_bounds(id).contains(p));
    }

    #[test]
    fn subsample_never_exceeds_target(cloud in arb_cloud(300), target in 0usize..400) {
        let s = cloud.subsample(target);
        prop_assert!(s.len() <= target.min(cloud.len()));
        if target >= cloud.len() {
            prop_assert_eq!(s.len(), cloud.len());
        } else {
            prop_assert_eq!(s.len(), target);
        }
        // Every sampled point exists in the original.
        for p in &s.points {
            prop_assert!(cloud.points.contains(p));
        }
    }
}

/// The quantization parameters exactly as `Encoder` derives them.
fn qparams(cloud: &PointCloud, depth: u32) -> QuantParams {
    let bounds = if cloud.is_empty() {
        volcast_geom::Aabb::new(volcast_geom::Vec3::ZERO, volcast_geom::Vec3::ZERO)
    } else {
        cloud.bounds()
    };
    let extent = bounds.extent().max_component().max(1e-6);
    let levels = 1u32 << depth;
    QuantParams {
        min: [bounds.min.x, bounds.min.y, bounds.min.z],
        scale: levels as f64 / extent,
        max_q: levels - 1,
        depth,
    }
}

/// The quantization rule the kernel replaced: truncate with a saturating
/// `as i64` cast, then clamp; then Morton-interleave and pack the color.
fn reference_words(cloud: &PointCloud, q: &QuantParams) -> Vec<u64> {
    let m = q.max_q as i64;
    let quant = |x: f32, a: usize| (((x as f64 - q.min[a]) * q.scale) as i64).clamp(0, m) as u32;
    cloud
        .points
        .iter()
        .map(|p| {
            let [x, y, z] = [0, 1, 2].map(|a| quant(p.pos[a], a));
            simd::morton_encode(x, y, z, q.depth) << simd::COLOR_SHIFT
                | simd::pack_color(p.color) as u64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The quantize + Morton kernel, on whichever copy the host runs, is
    /// bit-identical to the saturating-cast reference on random NaN-free
    /// clouds at every packed depth (sizes 0.. — empty and 1-point shrink
    /// out of the same range).
    #[test]
    fn simd_quantization_matches_scalar(cloud in arb_cloud(300), depth in 1u32..14) {
        let q = qparams(&cloud, depth);
        let mut got = Vec::new();
        simd::quantize_morton_points(&cloud.points, &q, &mut got);
        prop_assert_eq!(&got, &reference_words(&cloud, &q), "kernel diverged from the reference");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding arbitrary bytes must never panic: it either errors or
    /// produces some (possibly garbage) cloud bounded by the declared
    /// count. This is the safety contract for network-received bitstreams.
    #[test]
    fn decode_arbitrary_bytes_never_panics(data in prop::collection::vec(any::<u8>(), 0..400)) {
        use volcast_pointcloud::codec::EncodedCloud;
        let _ = decode(&EncodedCloud { data });
    }

    /// Same with a valid header but corrupted payload.
    #[test]
    fn decode_corrupted_payload_never_panics(
        cloud in arb_cloud(100),
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..16),
    ) {
        let (mut enc, stats) = encode(&cloud, &CodecConfig::default());
        for (pos, val) in flips {
            if enc.data.len() > 34 {
                let idx = 34 + pos % (enc.data.len() - 34); // leave the header intact
                enc.data[idx] ^= val;
            }
        }
        if let Ok(decoded) = decode(&enc) {
            prop_assert!(decoded.len() <= stats.voxels);
        }
    }
}
