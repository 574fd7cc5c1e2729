//! Property tests for the point-cloud substrate: codec round-trip fidelity,
//! the quantize + Morton kernel against its saturating-cast reference,
//! cell-partition invariants, the cell manifest's counting rule and
//! subsampling behaviour.

use std::collections::BTreeMap;
use volcast_geom::Vec3;
use volcast_pointcloud::codec::simd::{self, QuantParams};
use volcast_pointcloud::codec::{decode, encode, CodecConfig, EncodedCloud};
use volcast_pointcloud::{CellGrid, CellId, CellInfo, Point, PointCloud, VideoSequence};
use volcast_util::prop::{run_cases, run_cases_n};
use volcast_util::rng::Rng;

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

fn arb_point(rng: &mut Rng, extent: f32) -> Point {
    let pos = [0; 3].map(|_| rng.gen_range(-extent..extent));
    Point::new(pos, [0; 3].map(|_| rng.gen()))
}

/// A cloud of up to `max_points - 1` points in a 10 m cube.
fn arb_cloud(rng: &mut Rng, max_points: usize) -> PointCloud {
    let n = rng.gen_range(0..max_points);
    PointCloud::from_points((0..n).map(|_| arb_point(rng, 5.0)).collect())
}

/// Distance from `p` to the nearest of `points` (infinite if none).
fn nearest(points: &[Point], p: Vec3) -> f64 {
    let dist = points.iter().map(|o| o.position().distance(p));
    dist.fold(f64::INFINITY, f64::min)
}

#[test]
fn codec_round_trip_is_voxel_accurate() {
    run_cases("codec_round_trip_is_voxel_accurate", |rng| {
        let (cloud, depth) = (arb_cloud(rng, 300), rng.gen_range(4u32..11));
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        let (enc, stats) = encode(&cloud, &cfg);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.len(), stats.voxels);
        assert!(dec.len() <= cloud.len());
        if cloud.is_empty() {
            assert!(dec.is_empty());
            return;
        }
        // Quantization error bound: voxel diagonal / 2 (+ f32 slack).
        let extent = cloud.bounds().extent().max_component().max(1e-6);
        let max_err = extent / (1u64 << depth) as f64 * 3f64.sqrt() / 2.0 + 1e-3;
        // Bidirectional Hausdorff bound.
        for d in &dec.points {
            let best = nearest(&cloud.points, d.position());
            assert!(best <= max_err, "decoded offset {best} > {max_err}");
        }
        for o in &cloud.points {
            let best = nearest(&dec.points, o.position());
            assert!(best <= max_err, "original uncovered by {best} > {max_err}");
        }
    });
}

#[test]
fn codec_is_deterministic() {
    run_cases("codec_is_deterministic", |rng| {
        let cloud = arb_cloud(rng, 200);
        let cfg = CodecConfig::default();
        let (a, _) = encode(&cloud, &cfg);
        let (b, _) = encode(&cloud, &cfg);
        assert_eq!(a.data, b.data);
    });
}

#[test]
fn partition_counts_every_point_once() {
    run_cases("partition_counts_every_point_once", |rng| {
        let cloud = arb_cloud(rng, 300);
        let grid = CellGrid::new(rng.gen_range(0.1..2.0));
        let cells = grid.partition(&cloud);
        assert_eq!(&cells, &naive_partition(&grid, &cloud));
        let counted: usize = cells.iter().map(|c| c.point_count).sum();
        assert_eq!(counted, cloud.len());
        assert!(cells.iter().all(|c| c.point_count > 0), "empty cell listed");
        assert!(
            cells.windows(2).all(|w| w[0].id < w[1].id),
            "ids not ascending"
        );
    });
}

#[test]
fn cell_counts_equal_partition_counts() {
    run_cases("cell_counts_equal_partition_counts", |rng| {
        let video = VideoSequence::new(rng.gen(), 300);
        let (frame, points) = (rng.gen_range(0..1_000u64), rng.gen_range(0..20_001usize));
        let size = rng.gen_range(0.01..2.0);
        let [ox, oy, oz] = [0; 3].map(|_| rng.gen_range(-3.0..3.0));
        let grid = CellGrid::with_origin(size, Vec3::new(ox, oy, oz));
        assert_counts_are_partition_counts(&video, frame, points, &grid);
    });
}

#[test]
fn cell_of_matches_cell_bounds() {
    run_cases("cell_of_matches_cell_bounds", |rng| {
        let [x, y, z] = [0; 3].map(|_| rng.gen_range(-10.0..10.0));
        let p = Vec3::new(x, y, z);
        let grid = CellGrid::new(rng.gen_range(0.05..3.0));
        let id = grid.cell_of(p);
        assert!(grid.cell_bounds(id).contains(p));
    });
}

#[test]
fn subsample_never_exceeds_target() {
    run_cases("subsample_never_exceeds_target", |rng| {
        let (cloud, target) = (arb_cloud(rng, 300), rng.gen_range(0..400usize));
        let s = cloud.subsample(target);
        assert!(s.len() <= target.min(cloud.len()));
        if target >= cloud.len() {
            assert_eq!(s.len(), cloud.len());
        } else {
            assert_eq!(s.len(), target);
        }
        // Every sampled point exists in the original.
        for p in &s.points {
            assert!(cloud.points.contains(p));
        }
    });
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

/// The quantize + Morton kernel, on whichever copy the host runs, is
/// bit-identical to the saturating-cast reference on random NaN-free
/// clouds at every packed depth (sizes 0.. — empty and 1-point clouds
/// come out of the same range).
#[test]
fn simd_quantization_matches_scalar() {
    run_cases("simd_quantization_matches_scalar", |rng| {
        let (cloud, depth) = (arb_cloud(rng, 300), rng.gen_range(1u32..14));
        let q = qparams(&cloud, depth);
        let mut got = Vec::new();
        simd::quantize_morton_points(&cloud.points, &q, &mut got);
        let want = reference_words(&cloud, &q);
        assert_eq!(got, want, "kernel diverged from the reference");
    });
}

/// Decoding arbitrary bytes must never panic: it either errors or
/// produces some (possibly garbage) cloud bounded by the declared
/// count. This is the safety contract for network-received bitstreams.
#[test]
fn decode_arbitrary_bytes_never_panics() {
    run_cases_n("decode_arbitrary_bytes_never_panics", 256, |rng| {
        let n = rng.gen_range(0..400usize);
        let data = (0..n).map(|_| rng.gen()).collect();
        let _ = decode(&EncodedCloud { data });
    });
}

/// Same with a valid header but corrupted payload.
#[test]
fn decode_corrupted_payload_never_panics() {
    run_cases_n("decode_corrupted_payload_never_panics", 256, |rng| {
        let cloud = arb_cloud(rng, 100);
        let n = rng.gen_range(1..16usize);
        let flips: Vec<(usize, u8)> = (0..n)
            .map(|_| (rng.gen_range(0..4096), rng.gen()))
            .collect();
        let (mut enc, stats) = encode(&cloud, &CodecConfig::default());
        for (pos, val) in flips {
            if enc.data.len() > 34 {
                let idx = 34 + pos % (enc.data.len() - 34); // leave the header intact
                enc.data[idx] ^= val;
            }
        }
        if let Ok(decoded) = decode(&enc) {
            assert!(decoded.len() <= stats.voxels);
        }
    });
}
