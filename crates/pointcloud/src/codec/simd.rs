//! The encoder's quantize + Morton kernel: one safe loop, compiled twice.
//!
//! [`quantize_morton_points`] fuses three steps over a frame of points:
//!
//! 1. **Quantize** each coordinate ([`quantize`]): `t = (x as f64 - min) *
//!    scale`, clamped to `0..=max_q` *in the f64 domain*, then floored. The
//!    clamp sends NaN and −∞ to 0 and +∞ to `max_q`, exactly where the
//!    saturating `as i64`-then-clamp rule sends them, and for `t >= 0`
//!    floor and truncation agree. The whole number is read out of the
//!    mantissa after adding 2⁵² instead of through a float → int cast: the
//!    saturating cast is what keeps LLVM from vectorising the loop.
//! 2. **Morton-encode** the three quantized axes with the magic-mask
//!    bit-spread ([`part1by2`]).
//! 3. **Pack** `(code << 24) | rgb` into one `u64` per point (valid while
//!    `3 * depth + 24 <= 64`, i.e. `depth <=` [`PACKED_MAX_DEPTH`]), so the
//!    downstream radix sort moves 8-byte elements instead of 16-byte
//!    (code, color) pairs. Sorting these packed words by their code field
//!    with a *stable* sort, then merging runs with commutative color sums,
//!    yields exactly the same voxel stream as sorting (code, color) pairs.
//!
//! The loop is plain Rust. On x86 a second copy is compiled with AVX2
//! enabled and chosen at run time; elsewhere the baseline copy is the only
//! one (on aarch64 it vectorises with NEON, which every target has). Both
//! copies run the same IEEE operations — Rust does no fast-math and no FMA
//! contraction, and only `avx2` is enabled — so their words are bit-equal
//! by language semantics.

use crate::point::Point;

/// Deepest octree for which `(code << 24) | color` fits a `u64`
/// (`3 * 13 + 24 = 63` bits). Deeper trees use the unpacked pair path.
pub const PACKED_MAX_DEPTH: u32 = 13;

/// Bit offset of the Morton code inside a packed voxel word; the low 24
/// bits hold the packed RGB color (`r | g<<8 | b<<16`).
pub const COLOR_SHIFT: u32 = 24;

/// Per-frame quantization parameters derived from the cloud bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Minimum corner of the bounding box (f64, as stored in the header).
    pub min: [f64; 3],
    /// `2^depth / extent`: world units to voxel units.
    pub scale: f64,
    /// Largest valid voxel coordinate, `2^depth - 1`.
    pub max_q: u32,
    /// Octree depth (bits per axis).
    pub depth: u32,
}

/// Packs one color triple the way the bitstream expects (`r | g<<8 | b<<16`).
#[inline(always)]
pub fn pack_color(color: [u8; 3]) -> u32 {
    color[0] as u32 | (color[1] as u32) << 8 | (color[2] as u32) << 16
}

/// Spreads the low 21 bits of `v` so each lands at bit `3i` (the classic
/// magic-mask "part1by2" used by fast Morton coders).
#[inline(always)]
pub fn part1by2(v: u64) -> u64 {
    let mut x = v & 0x1F_FFFF;
    x = (x | (x << 32)) & 0x1F_0000_0000_FFFF;
    x = (x | (x << 16)) & 0x1F_0000_FF00_00FF;
    x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`part1by2`]: gathers every third bit back into the low bits.
#[inline(always)]
pub fn compact1by2(v: u64) -> u32 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x1F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x1F_0000_0000_FFFF;
    x = (x | (x >> 32)) & 0x1F_FFFF;
    x as u32
}

/// 3D Morton encode: interleaves the low `depth` bits of x, y, z
/// (x at bit `3i+2`, y at `3i+1`, z at `3i`).
#[inline(always)]
pub fn morton_encode(x: u32, y: u32, z: u32, depth: u32) -> u64 {
    debug_assert!(depth <= 16 && (x | y | z) >> depth == 0);
    (part1by2(x as u64) << 2) | (part1by2(y as u64) << 1) | part1by2(z as u64)
}

/// Inverse of [`morton_encode`].
#[inline(always)]
pub fn morton_decode(code: u64, _depth: u32) -> (u32, u32, u32) {
    (
        compact1by2(code >> 2),
        compact1by2(code >> 1),
        compact1by2(code),
    )
}

/// One coordinate's voxel index: `floor((x - min) * scale)` clamped to
/// `0..=hi` (`hi` a whole number below 2²¹). The clamp runs in f64, so NaN
/// and −∞ map to 0 and +∞ to `hi`; adding 2⁵² to the floored value puts it
/// in the low mantissa bits.
#[inline(always)]
pub fn quantize(x: f32, min: f64, scale: f64, hi: f64) -> u32 {
    let t = ((x as f64 - min) * scale).max(0.0).min(hi);
    ((t.floor() + (1u64 << 52) as f64).to_bits() & 0x1F_FFFF) as u32
}

/// The kernel: quantize + Morton + pack, one point at a time, in a shape
/// LLVM vectorises. Each axis is spread here, not through
/// [`morton_encode`]'s `u32` arguments: the AVX2 copy comes out ≈ 7 %
/// faster this way (EXPERIMENTS.md).
#[inline(always)]
fn pack(points: &[Point], q: &QuantParams, out: &mut [u64]) {
    let hi = q.max_q as f64;
    for (o, p) in out.iter_mut().zip(points) {
        let x = part1by2(quantize(p.pos[0], q.min[0], q.scale, hi) as u64);
        let y = part1by2(quantize(p.pos[1], q.min[1], q.scale, hi) as u64);
        let z = part1by2(quantize(p.pos[2], q.min[2], q.scale, hi) as u64);
        *o = (x << 2 | y << 1 | z) << COLOR_SHIFT | pack_color(p.color) as u64;
    }
}

/// [`pack`] compiled with AVX2 enabled.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn pack_avx2(points: &[Point], q: &QuantParams, out: &mut [u64]) {
    pack(points, q, out)
}

/// Quantizes, Morton-encodes and packs every point into `out` (cleared and
/// resized first): one `u64` of `(code << 24) | rgb` per point, in input
/// order. Requires `q.depth <= PACKED_MAX_DEPTH`. Runs the AVX2 copy of the
/// kernel where the CPU has it (std caches the detection).
#[allow(unsafe_code)]
pub fn quantize_morton_points(points: &[Point], q: &QuantParams, out: &mut Vec<u64>) {
    debug_assert!(q.depth <= PACKED_MAX_DEPTH);
    out.clear();
    out.resize(points.len(), 0);
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU reports AVX2, the only feature `pack_avx2` enables.
        return unsafe { pack_avx2(points, q, out) };
    }
    pack(points, q, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_util::rng::Rng;

    fn params(depth: u32) -> QuantParams {
        QuantParams {
            min: [-1.25, 0.0, 3.5],
            scale: (1u64 << depth) as f64 / 2.75,
            max_q: (1u32 << depth) - 1,
            depth,
        }
    }

    /// The rule the kernel replaced, kept as its referee: truncate with a
    /// saturating `as i64` cast, then clamp. For `t >= 0` truncation is
    /// floor, and every `t < 0`, NaN and ±∞ saturates to the clamp's ends.
    fn reference(points: &[Point], q: &QuantParams) -> Vec<u64> {
        let m = q.max_q as i64;
        let quant = |x: f32, a: usize| (((x as f64 - q.min[a]) * q.scale) as i64).clamp(0, m);
        points
            .iter()
            .map(|p| {
                let [x, y, z] = [0, 1, 2].map(|a| quant(p.pos[a], a) as u32);
                morton_encode(x, y, z, q.depth) << COLOR_SHIFT | pack_color(p.color) as u64
            })
            .collect()
    }

    /// Coordinates in `-2.0..8.0` against [`params`]' 2.75-wide grid, so
    /// points fall past both edges and both clamps run.
    fn random_points(rng: &mut Rng, n: usize) -> Vec<Point> {
        let r = |rng: &mut Rng| (rng.gen_range(0..10_000) as f32) / 1_000.0 - 2.0;
        let c = |rng: &mut Rng| rng.gen_range(0..256) as u8;
        (0..n)
            .map(|_| Point::new([r(rng), r(rng), r(rng)], [c(rng), c(rng), c(rng)]))
            .collect()
    }

    /// Random points, every pair of special values on two axes (the third
    /// in range), and every grid boundary `k / scale` past `min` on each
    /// axis — the values where floor and the clamp ends decide.
    fn hard_points(rng: &mut Rng, q: &QuantParams) -> Vec<Point> {
        let special = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1e30,
            -1e30,
            f32::MIN_POSITIVE,
        ];
        let mut points = random_points(rng, 517);
        for (i, &a) in special.iter().enumerate() {
            for (j, &b) in special.iter().enumerate() {
                let color = [i as u8, j as u8, 7];
                points.push(Point::new([a, b, 0.5], color));
                points.push(Point::new([0.5, a, b], color));
                points.push(Point::new([b, 0.5, a], color));
            }
        }
        for k in 0..=(1u32 << q.depth) {
            let at = |a: usize| (q.min[a] + k as f64 / q.scale) as f32;
            points.push(Point::new([at(0), at(1), at(2)], [k as u8, 1, 2]));
        }
        points
    }

    #[test]
    fn both_builds_match_the_reference_on_random_and_edge_points() {
        let mut rng = Rng::seed_from_u64(0x51AD);
        for depth in [1u32, 7, 8, 10, PACKED_MAX_DEPTH] {
            let q = params(depth);
            let points = hard_points(&mut rng, &q);
            let want = reference(&points, &q);
            let mut dispatched = Vec::new();
            quantize_morton_points(&points, &q, &mut dispatched);
            assert_eq!(dispatched, want, "dispatched kernel, depth {depth}");
            let mut baseline = vec![0; points.len()];
            pack(&points, &q, &mut baseline);
            assert_eq!(baseline, want, "baseline kernel, depth {depth}");
        }
    }

    #[test]
    fn packed_word_round_trips_code_and_color() {
        let q = QuantParams {
            min: [0.0; 3],
            scale: 1.0,
            max_q: (1 << PACKED_MAX_DEPTH) - 1,
            depth: PACKED_MAX_DEPTH,
        };
        let m = q.max_q as f32;
        let mut out = Vec::new();
        let corner = [Point::new([m, m, m], [255, 255, 255])];
        quantize_morton_points(&corner, &q, &mut out);
        let code = out[0] >> COLOR_SHIFT;
        assert_eq!(morton_decode(code, q.depth), (q.max_q, q.max_q, q.max_q));
        assert_eq!(out[0] & ((1 << COLOR_SHIFT) - 1), 0xFF_FFFF);
        // The deepest packed word still fits: top bit index 3*13+24-1 = 62.
        assert!(out[0].leading_zeros() >= 1);
    }
}
