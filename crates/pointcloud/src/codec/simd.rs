//! Vectorized quantization + Morton encoding with runtime backend dispatch.
//!
//! This is the only module in the workspace allowed to contain `unsafe`
//! (besides the counting test allocator): the SIMD kernels here use
//! `core::arch` intrinsics behind a [`Backend`] selected once per process.
//! Every backend produces **byte-identical** output to [`Backend::Scalar`],
//! which is the portable reference; `VOLCAST_NO_SIMD=1` forces the scalar
//! path so CI exercises both.
//!
//! The hot kernel fuses three steps over a frame of points:
//!
//! 1. **Quantize** each coordinate: `q = trunc((x as f64 - min) * scale)`
//!    clamped to `0..=max_q`. The scalar reference clamps after an `as i64`
//!    saturating cast; the SIMD paths instead clamp *in the f64 domain*
//!    (`max(t, 0.0)` then `min(t, max_q as f64)`) before truncating. The two
//!    agree for **all** inputs: NaN maps to 0 under both (the x86 `maxpd`
//!    NaN rule returns the second operand, i.e. `0.0`; NEON `FCVTZU`
//!    converts NaN to 0; Rust's float→int cast saturates NaN to 0), ±∞ and
//!    out-of-range values clamp to the same endpoints (`max_q < 2^16` is
//!    exactly representable in f64), and in-range values truncate toward
//!    zero identically.
//! 2. **Morton-encode** the three quantized axes with the magic-mask
//!    bit-spread ([`part1by2`]), vectorized across 64-bit lanes.
//! 3. **Pack** `(code << 24) | rgb` into one `u64` per point (valid while
//!    `3 * depth + 24 <= 64`, i.e. `depth <=` [`PACKED_MAX_DEPTH`]), so the
//!    downstream radix sort moves 8-byte elements instead of 16-byte
//!    (code, color) pairs. Sorting these packed words by their code field
//!    with a *stable* sort, then merging runs with commutative color sums,
//!    yields exactly the same voxel stream as sorting (code, color) pairs.
#![allow(unsafe_code)]

use std::sync::OnceLock;

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

/// A SIMD backend. All variants produce byte-identical output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar reference path (always available).
    Scalar,
    /// AVX2: 4 points per iteration on 256-bit lanes.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
    /// NEON: 4 points per iteration on paired 128-bit lanes.
    #[cfg(target_arch = "aarch64")]
    Neon,
}

/// The backend selected for this process: the widest supported SIMD path,
/// unless `VOLCAST_NO_SIMD=1` forces [`Backend::Scalar`]. Detected once and
/// cached.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

fn detect() -> Backend {
    if std::env::var("VOLCAST_NO_SIMD").as_deref() == Ok("1") {
        return Backend::Scalar;
    }
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return Backend::Neon;
    }
    #[allow(unreachable_code)]
    Backend::Scalar
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

/// The scalar reference for one point: quantize + Morton + pack. Truncation
/// (`as i64`) plus the full clamp is exactly `floor().clamp(..)`: for
/// `t >= 0` they agree, and any `t < 0` clamps to 0 under both (NaN/inf
/// saturate identically).
#[inline(always)]
fn pack_one(x: f32, y: f32, z: f32, color: u32, q: &QuantParams) -> u64 {
    let m = q.max_q as i64;
    let qx = (((x as f64 - q.min[0]) * q.scale) as i64).clamp(0, m) as u32;
    let qy = (((y as f64 - q.min[1]) * q.scale) as i64).clamp(0, m) as u32;
    let qz = (((z as f64 - q.min[2]) * q.scale) as i64).clamp(0, m) as u32;
    (morton_encode(qx, qy, qz, q.depth) << COLOR_SHIFT) | color as u64
}

fn scalar_lanes(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    colors: &[u32],
    q: &QuantParams,
    out: &mut [u64],
) {
    for i in 0..xs.len() {
        out[i] = pack_one(xs[i], ys[i], zs[i], colors[i], q);
    }
}

fn scalar_points(points: &[Point], q: &QuantParams, out: &mut [u64]) {
    for (o, p) in out.iter_mut().zip(points.iter()) {
        *o = pack_one(p.pos[0], p.pos[1], p.pos[2], pack_color(p.color), q);
    }
}

/// AoS inputs are transposed into stack blocks of this many points before
/// hitting a lane kernel, amortizing the dispatch call without reading the
/// `Point` struct's padding byte.
const BLOCK: usize = 128;

fn lanes_dispatch(
    backend: Backend,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    colors: &[u32],
    q: &QuantParams,
    out: &mut [u64],
) {
    debug_assert!(xs.len() == out.len() && ys.len() == out.len() && zs.len() == out.len());
    debug_assert!(colors.len() == out.len());
    match backend {
        Backend::Scalar => scalar_lanes(xs, ys, zs, colors, q, out),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `Backend::Avx2` is only ever constructed by `detect()`
        // after `is_x86_feature_detected!("avx2")` succeeded, or by tests on
        // hosts where `active()` already reported it; the CPU supports AVX2.
        Backend::Avx2 => unsafe { avx2::lanes(xs, ys, zs, colors, q, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target this
        // workspace builds for.
        Backend::Neon => unsafe { neon::lanes(xs, ys, zs, colors, q, out) },
    }
}

/// Quantizes, Morton-encodes and packs every point into `out` (cleared and
/// resized first): one `u64` of `(code << 24) | rgb` per point, in input
/// order. Requires `q.depth <= PACKED_MAX_DEPTH`. Chunks of `BLOCK` points
/// are transposed into stack lanes (safe field reads — the `Point` padding
/// byte is never touched) and run through the lane kernels.
pub fn quantize_morton_points(
    backend: Backend,
    points: &[Point],
    q: &QuantParams,
    out: &mut Vec<u64>,
) {
    debug_assert!(q.depth <= PACKED_MAX_DEPTH);
    out.clear();
    out.resize(points.len(), 0);
    if backend == Backend::Scalar {
        scalar_points(points, q, out);
        return;
    }
    let mut bx = [0f32; BLOCK];
    let mut by = [0f32; BLOCK];
    let mut bz = [0f32; BLOCK];
    let mut bc = [0u32; BLOCK];
    for (blk_idx, blk) in points.chunks(BLOCK).enumerate() {
        for (j, p) in blk.iter().enumerate() {
            bx[j] = p.pos[0];
            by[j] = p.pos[1];
            bz[j] = p.pos[2];
            bc[j] = pack_color(p.color);
        }
        let n = blk.len();
        lanes_dispatch(
            backend,
            &bx[..n],
            &by[..n],
            &bz[..n],
            &bc[..n],
            q,
            &mut out[blk_idx * BLOCK..blk_idx * BLOCK + n],
        );
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    use super::{pack_one, QuantParams};
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    /// One magic-mask spread step on 4 u64 lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn spread_step<const SHIFT: i32>(x: __m256i, mask: i64) -> __m256i {
        _mm256_and_si256(
            _mm256_or_si256(x, _mm256_slli_epi64::<SHIFT>(x)),
            _mm256_set1_epi64x(mask),
        )
    }

    /// [`super::part1by2`] on 4 u64 lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn part1by2_x4(v: __m256i) -> __m256i {
        let x = _mm256_and_si256(v, _mm256_set1_epi64x(0x1F_FFFF));
        let x = spread_step::<32>(x, 0x1F_0000_0000_FFFF);
        let x = spread_step::<16>(x, 0x1F_0000_FF00_00FF);
        let x = spread_step::<8>(x, 0x100F_00F0_0F00_F00F);
        let x = spread_step::<4>(x, 0x10C3_0C30_C30C_30C3);
        spread_step::<2>(x, 0x1249_2492_4924_9249)
    }

    /// Quantizes 4 f32 coordinates to u64 voxel indices: widen to f64,
    /// `(x - min) * scale`, clamp to `[0, max_q]` in the f64 domain, then
    /// truncate. See the module docs for the proof this matches the scalar
    /// `as i64`-then-clamp reference on every input including NaN/±inf
    /// (`maxpd`/`minpd` return the second operand on NaN, so NaN → 0.0).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn quant4(v: __m128, min: __m256d, scale: __m256d, hi: __m256d) -> __m256i {
        let t = _mm256_mul_pd(_mm256_sub_pd(_mm256_cvtps_pd(v), min), scale);
        let t = _mm256_min_pd(_mm256_max_pd(t, _mm256_setzero_pd()), hi);
        _mm256_cvtepu32_epi64(_mm256_cvttpd_epi32(t))
    }

    /// The packed quantize+Morton kernel: 4 points per iteration, scalar
    /// tail. Byte-identical to [`super::scalar_lanes`].
    #[target_feature(enable = "avx2")]
    pub(super) fn lanes(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        colors: &[u32],
        q: &QuantParams,
        out: &mut [u64],
    ) {
        let n = xs.len();
        let minx = _mm256_set1_pd(q.min[0]);
        let miny = _mm256_set1_pd(q.min[1]);
        let minz = _mm256_set1_pd(q.min[2]);
        let scale = _mm256_set1_pd(q.scale);
        let hi = _mm256_set1_pd(q.max_q as f64);
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` and all slices have length `n` (checked
            // by the dispatcher), so each 4-lane unaligned load is in
            // bounds.
            let (vx, vy, vz, vc) = unsafe {
                (
                    _mm_loadu_ps(xs.as_ptr().add(i)),
                    _mm_loadu_ps(ys.as_ptr().add(i)),
                    _mm_loadu_ps(zs.as_ptr().add(i)),
                    _mm_loadu_si128(colors.as_ptr().add(i) as *const __m128i),
                )
            };
            let px = part1by2_x4(quant4(vx, minx, scale, hi));
            let py = part1by2_x4(quant4(vy, miny, scale, hi));
            let pz = part1by2_x4(quant4(vz, minz, scale, hi));
            let code = _mm256_or_si256(
                _mm256_or_si256(_mm256_slli_epi64::<2>(px), _mm256_slli_epi64::<1>(py)),
                pz,
            );
            let packed = _mm256_or_si256(
                _mm256_slli_epi64::<{ super::COLOR_SHIFT as i32 }>(code),
                _mm256_cvtepu32_epi64(vc),
            );
            // SAFETY: `i + 4 <= n == out.len()`, so the 4-lane unaligned
            // store is in bounds.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, packed) };
            i += 4;
        }
        for j in i..n {
            out[j] = pack_one(xs[j], ys[j], zs[j], colors[j], q);
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{pack_one, QuantParams};
    use core::arch::aarch64::*;

    /// One magic-mask spread step on 2 u64 lanes.
    #[target_feature(enable = "neon")]
    #[inline]
    fn spread_step<const SHIFT: i32>(x: uint64x2_t, mask: u64) -> uint64x2_t {
        vandq_u64(vorrq_u64(x, vshlq_n_u64::<SHIFT>(x)), vdupq_n_u64(mask))
    }

    /// [`super::part1by2`] on 2 u64 lanes.
    #[target_feature(enable = "neon")]
    #[inline]
    fn part1by2_x2(v: uint64x2_t) -> uint64x2_t {
        let x = vandq_u64(v, vdupq_n_u64(0x1F_FFFF));
        let x = spread_step::<32>(x, 0x1F_0000_0000_FFFF);
        let x = spread_step::<16>(x, 0x1F_0000_FF00_00FF);
        let x = spread_step::<8>(x, 0x100F_00F0_0F00_F00F);
        let x = spread_step::<4>(x, 0x10C3_0C30_C30C_30C3);
        spread_step::<2>(x, 0x1249_2492_4924_9249)
    }

    /// Quantizes 2 f64 coordinates to u64 voxel indices with the f64-domain
    /// clamp (module docs): NaN survives FMAX/FMIN and `FCVTZU` then maps
    /// it to 0, matching the scalar saturating cast.
    #[target_feature(enable = "neon")]
    #[inline]
    fn quant2(d: float64x2_t, min: float64x2_t, scale: float64x2_t, hi: float64x2_t) -> uint64x2_t {
        let t = vmulq_f64(vsubq_f64(d, min), scale);
        let t = vminq_f64(vmaxq_f64(t, vdupq_n_f64(0.0)), hi);
        vcvtq_u64_f64(t)
    }

    /// Morton code for 2 already-quantized lanes.
    #[target_feature(enable = "neon")]
    #[inline]
    fn code2(x: uint64x2_t, y: uint64x2_t, z: uint64x2_t) -> uint64x2_t {
        vorrq_u64(
            vorrq_u64(
                vshlq_n_u64::<2>(part1by2_x2(x)),
                vshlq_n_u64::<1>(part1by2_x2(y)),
            ),
            part1by2_x2(z),
        )
    }

    /// The packed quantize+Morton kernel: 4 points per iteration as two
    /// 2-lane halves, scalar tail. Byte-identical to
    /// [`super::scalar_lanes`].
    #[target_feature(enable = "neon")]
    pub(super) fn lanes(
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        colors: &[u32],
        q: &QuantParams,
        out: &mut [u64],
    ) {
        let n = xs.len();
        let minx = vdupq_n_f64(q.min[0]);
        let miny = vdupq_n_f64(q.min[1]);
        let minz = vdupq_n_f64(q.min[2]);
        let scale = vdupq_n_f64(q.scale);
        let hi = vdupq_n_f64(q.max_q as f64);
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` and all slices have length `n` (checked
            // by the dispatcher), so each 4-lane load is in bounds.
            let (vx, vy, vz, vc) = unsafe {
                (
                    vld1q_f32(xs.as_ptr().add(i)),
                    vld1q_f32(ys.as_ptr().add(i)),
                    vld1q_f32(zs.as_ptr().add(i)),
                    vld1q_u32(colors.as_ptr().add(i)),
                )
            };
            let code_lo = code2(
                quant2(vcvt_f64_f32(vget_low_f32(vx)), minx, scale, hi),
                quant2(vcvt_f64_f32(vget_low_f32(vy)), miny, scale, hi),
                quant2(vcvt_f64_f32(vget_low_f32(vz)), minz, scale, hi),
            );
            let code_hi = code2(
                quant2(vcvt_high_f64_f32(vx), minx, scale, hi),
                quant2(vcvt_high_f64_f32(vy), miny, scale, hi),
                quant2(vcvt_high_f64_f32(vz), minz, scale, hi),
            );
            let packed_lo = vorrq_u64(
                vshlq_n_u64::<{ super::COLOR_SHIFT as i32 }>(code_lo),
                vmovl_u32(vget_low_u32(vc)),
            );
            let packed_hi = vorrq_u64(
                vshlq_n_u64::<{ super::COLOR_SHIFT as i32 }>(code_hi),
                vmovl_u32(vget_high_u32(vc)),
            );
            // SAFETY: `i + 4 <= n == out.len()`, so both 2-lane stores are
            // in bounds.
            unsafe {
                vst1q_u64(out.as_mut_ptr().add(i), packed_lo);
                vst1q_u64(out.as_mut_ptr().add(i + 2), packed_hi);
            }
            i += 4;
        }
        for j in i..n {
            out[j] = pack_one(xs[j], ys[j], zs[j], colors[j], q);
        }
    }
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

    /// Coordinates in `-2.0..8.0` against [`params`]' 2.75-wide grid, so
    /// points fall past both edges and both clamps run.
    fn random_points(rng: &mut Rng, n: usize) -> Vec<Point> {
        let r = |rng: &mut Rng| (rng.gen_range(0..10_000) as f32) / 1_000.0 - 2.0;
        let c = |rng: &mut Rng| rng.gen_range(0..256) as u8;
        (0..n)
            .map(|_| Point::new([r(rng), r(rng), r(rng)], [c(rng), c(rng), c(rng)]))
            .collect()
    }

    /// Packs `points` on the scalar reference and the active backend.
    fn both(points: &[Point], q: &QuantParams) -> (Vec<u64>, Vec<u64>) {
        let mut scalar = Vec::new();
        let mut vector = Vec::new();
        quantize_morton_points(Backend::Scalar, points, q, &mut scalar);
        quantize_morton_points(active(), points, q, &mut vector);
        (scalar, vector)
    }

    #[test]
    fn active_backend_matches_scalar_on_random_points() {
        let mut rng = Rng::seed_from_u64(0x51AD);
        for depth in [1u32, 7, 10, PACKED_MAX_DEPTH] {
            let q = params(depth);
            // Lengths straddle the 4-lane width to exercise the tail, and
            // `BLOCK` (one full block + 1, four blocks + a ragged fifth).
            for n in [0usize, 1, 3, 4, 5, BLOCK, BLOCK + 1, 517] {
                let (scalar, vector) = both(&random_points(&mut rng, n), &q);
                assert_eq!(scalar.len(), n);
                assert_eq!(scalar, vector, "depth={depth} n={n}");
            }
        }
    }

    #[test]
    fn non_finite_coordinates_clamp_identically() {
        let q = params(8);
        let mut points: Vec<Point> = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1e30,
            -1e30,
            f32::MIN_POSITIVE,
        ]
        .iter()
        .map(|&x| Point::new([x, x, x], [1, 2, 3]))
        .collect();
        // Pad past one full vector so the special values go down the SIMD
        // lanes, not just the scalar tail.
        points.resize(points.len() + 8, Point::new([0.5, 0.5, 0.5], [9, 9, 9]));
        let (scalar, vector) = both(&points, &q);
        assert_eq!(scalar, vector);
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
        quantize_morton_points(Backend::Scalar, &corner, &q, &mut out);
        let code = out[0] >> COLOR_SHIFT;
        assert_eq!(morton_decode(code, q.depth), (q.max_q, q.max_q, q.max_q));
        assert_eq!(out[0] & ((1 << COLOR_SHIFT) - 1), 0xFF_FFFF);
        // The deepest packed word still fits: top bit index 3*13+24-1 = 62.
        assert!(out[0].leading_zeros() >= 1);
    }

    #[test]
    fn forced_scalar_env_is_respected_when_set() {
        // `active()` caches process-wide, so only assert the env contract
        // when the harness actually set it (verify.sh runs the suite under
        // VOLCAST_NO_SIMD=1).
        if std::env::var("VOLCAST_NO_SIMD").as_deref() == Ok("1") {
            assert_eq!(active(), Backend::Scalar);
        }
    }
}
