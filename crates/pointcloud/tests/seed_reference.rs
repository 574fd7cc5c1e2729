//! Reference check for the octree encoder: a deliberately naive copy of the
//! seed (pre-arena, pre-SIMD) encoder — branchy bit coder, per-bit Morton
//! loop, comparison sort, a fresh allocation for every intermediate buffer
//! — kept verbatim so the optimized [`Encoder`] has a slow obvious
//! implementation to agree with. Both must emit the identical bitstream on
//! the bitmap-dedup path (depth <= 8), the packed radix-sort path (depth
//! 9..=13) and the pair path beyond, on every SIMD backend. The last test
//! pins both wire formats' bytes outright.

use volcast_pointcloud::codec::simd::Backend;
use volcast_pointcloud::codec::{
    CodecConfig, Encoder, LayeredConfig, LayeredEncoder, LayeredFrame,
};
use volcast_pointcloud::{PointCloud, SyntheticBody};
use volcast_util::hash::fnv1a;

/// The seed encoder. Verbatim seed code predates current lint settings;
/// it is the reference, so it is kept unchanged rather than "improved".
#[allow(clippy::needless_range_loop)]
mod seed_codec {
    use volcast_geom::{Aabb, Vec3};
    use volcast_pointcloud::codec::CodecConfig;
    use volcast_pointcloud::PointCloud;

    const PROB_BITS: u32 = 11;
    const PROB_ONE: u16 = 1 << PROB_BITS;
    const ADAPT_SHIFT: u32 = 5;
    const TOP: u32 = 1 << 24;
    const MAGIC: [u8; 4] = *b"VOCT";
    const HEADER_LEN: usize = 4 + 1 + 1 + 4 + 24;

    #[derive(Clone, Copy)]
    struct BitModel {
        p0: u16,
    }
    impl BitModel {
        fn new() -> Self {
            BitModel { p0: PROB_ONE / 2 }
        }
        #[inline]
        fn update(&mut self, bit: bool) {
            if bit {
                self.p0 -= self.p0 >> ADAPT_SHIFT;
            } else {
                self.p0 += (PROB_ONE - self.p0) >> ADAPT_SHIFT;
            }
        }
    }

    struct RangeEncoder {
        low: u64,
        range: u32,
        cache: u8,
        pending: u64,
        first: bool,
        out: Vec<u8>,
    }
    impl RangeEncoder {
        fn new() -> Self {
            RangeEncoder {
                low: 0,
                range: u32::MAX,
                cache: 0,
                pending: 0,
                first: true,
                out: Vec::new(),
            }
        }
        fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
            let bound = (self.range >> PROB_BITS) * model.p0 as u32;
            if !bit {
                self.range = bound;
            } else {
                self.low += bound as u64;
                self.range -= bound;
            }
            model.update(bit);
            while self.range < TOP {
                self.shift_low();
                self.range <<= 8;
            }
        }
        fn encode_bits(&mut self, models: &mut [BitModel], value: u32, n: u32) {
            for i in (0..n).rev() {
                let bit = (value >> i) & 1 == 1;
                self.encode_bit(&mut models[(n - 1 - i) as usize], bit);
            }
        }
        #[inline]
        fn shift_low(&mut self) {
            if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
                let carry = (self.low >> 32) as u8;
                if self.first {
                    self.first = false;
                }
                self.out.push(self.cache.wrapping_add(carry));
                while self.pending > 0 {
                    self.out.push(0xFFu8.wrapping_add(carry));
                    self.pending -= 1;
                }
                self.cache = ((self.low >> 24) & 0xFF) as u8;
            } else {
                self.pending += 1;
            }
            self.low = (self.low << 8) & 0xFFFF_FFFF;
        }
        fn finish(mut self) -> Vec<u8> {
            for _ in 0..5 {
                self.shift_low();
            }
            self.out
        }
    }

    fn morton_encode(x: u32, y: u32, z: u32, depth: u32) -> u64 {
        let mut code = 0u64;
        for i in (0..depth).rev() {
            code = (code << 3)
                | (((x >> i) & 1) as u64) << 2
                | (((y >> i) & 1) as u64) << 1
                | ((z >> i) & 1) as u64;
        }
        code
    }

    struct Contexts {
        occupancy: Vec<[BitModel; 8]>,
        color: [[BitModel; 8]; 3],
    }
    impl Contexts {
        fn new(depth: u32) -> Self {
            Contexts {
                occupancy: vec![[BitModel::new(); 8]; depth as usize],
                color: [[BitModel::new(); 8]; 3],
            }
        }
    }

    pub fn encode(cloud: &PointCloud, cfg: &CodecConfig) -> Vec<u8> {
        let bounds = if cloud.is_empty() {
            Aabb::new(Vec3::ZERO, Vec3::ZERO)
        } else {
            cloud.bounds()
        };
        let extent = bounds.extent().max_component().max(1e-6);
        let levels = 1u32 << cfg.depth;
        let scale = levels as f64 / extent;
        let mut voxels: Vec<(u64, [u32; 3], u32)> = cloud
            .points
            .iter()
            .map(|p| {
                let rel = (p.position() - bounds.min) * scale;
                let q = |v: f64| (v.floor() as i64).clamp(0, (levels - 1) as i64) as u32;
                let (x, y, z) = (q(rel.x), q(rel.y), q(rel.z));
                (
                    morton_encode(x, y, z, cfg.depth),
                    [p.color[0] as u32, p.color[1] as u32, p.color[2] as u32],
                    1u32,
                )
            })
            .collect();
        voxels.sort_unstable_by_key(|v| v.0);
        let mut merged: Vec<(u64, [u32; 3], u32)> = Vec::with_capacity(voxels.len());
        for v in voxels {
            match merged.last_mut() {
                Some(last) if last.0 == v.0 => {
                    for c in 0..3 {
                        last.1[c] += v.1[c];
                    }
                    last.2 += v.2;
                }
                _ => merged.push(v),
            }
        }
        let codes: Vec<u64> = merged.iter().map(|v| v.0).collect();
        let mut data = Vec::with_capacity(HEADER_LEN + merged.len());
        data.extend_from_slice(&MAGIC);
        data.push(cfg.depth as u8);
        data.push(cfg.color_bits as u8);
        data.extend_from_slice(&(merged.len() as u32).to_le_bytes());
        for v in [bounds.min.x, bounds.min.y, bounds.min.z] {
            data.extend_from_slice(&(v as f32).to_le_bytes());
        }
        for v in [extent, 0.0, 0.0] {
            data.extend_from_slice(&(v as f32).to_le_bytes());
        }
        let mut ctx = Contexts::new(cfg.depth);
        let mut enc = RangeEncoder::new();
        if !codes.is_empty() {
            encode_node(&mut enc, &mut ctx, &codes, 0, cfg.depth);
            let shift = 8 - cfg.color_bits;
            for v in &merged {
                for ch in 0..3 {
                    let avg = v.1[ch] / v.2;
                    enc.encode_bits(&mut ctx.color[ch], avg >> shift, cfg.color_bits);
                }
            }
        }
        data.extend_from_slice(&enc.finish());
        data
    }

    fn encode_node(
        enc: &mut RangeEncoder,
        ctx: &mut Contexts,
        codes: &[u64],
        depth_from_root: u32,
        total_depth: u32,
    ) {
        let level_shift = 3 * (total_depth - depth_from_root - 1);
        let mut ranges: [(usize, usize); 8] = [(0, 0); 8];
        let mut start = 0usize;
        for child in 0..8u64 {
            let end = codes[start..]
                .iter()
                .position(|&c| (c >> level_shift) & 0b111 != child)
                .map(|p| start + p)
                .unwrap_or(codes.len());
            ranges[child as usize] = (start, end);
            start = end;
        }
        for child in 0..8usize {
            let occupied = ranges[child].1 > ranges[child].0;
            enc.encode_bit(
                &mut ctx.occupancy[depth_from_root as usize][child],
                occupied,
            );
        }
        if depth_from_root + 1 < total_depth {
            for child in 0..8usize {
                let (s, e) = ranges[child];
                if e > s {
                    encode_node(enc, ctx, &codes[s..e], depth_from_root + 1, total_depth);
                }
            }
        }
    }
}

fn assert_matches_seed(enc: &mut Encoder, cloud: &PointCloud, cfg: &CodecConfig) {
    let mut stream = Vec::new();
    enc.encode_into(cloud, cfg, &mut stream);
    assert!(
        seed_codec::encode(cloud, cfg) == stream,
        "seed and arena encoders diverged at depth {} ({} points)",
        cfg.depth,
        cloud.len()
    );
}

#[test]
fn arena_encoder_matches_the_seed_bitstream_on_every_ladder_depth() {
    let cloud = SyntheticBody::default().frame(0, 40_000);
    for depth in [7, 8, 9, 10] {
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        assert_matches_seed(&mut Encoder::new(), &cloud, &cfg);
    }
}

#[test]
fn arena_encoder_matches_the_seed_bitstream_on_degenerate_clouds() {
    let cfg = CodecConfig::default();
    assert_matches_seed(&mut Encoder::new(), &PointCloud::new(), &cfg);
    let one_point = SyntheticBody::default().frame(3, 1);
    assert_matches_seed(&mut Encoder::new(), &one_point, &cfg);
}

/// A reused encoder (warm scratch arenas, shrinking and growing frames)
/// must agree with the reference on every frame, not only the first.
#[test]
fn reused_encoder_matches_the_seed_bitstream_across_frames() {
    let cfg = CodecConfig {
        depth: 7,
        color_bits: 6,
    };
    let body = SyntheticBody::default();
    let mut enc = Encoder::new();
    for (frame, points) in [20_000, 35_000, 5_000, 30_000].into_iter().enumerate() {
        assert_matches_seed(&mut enc, &body.frame(frame as u64, points), &cfg);
    }
}

/// Every dedup path on the active and the forced-scalar backend: depth 1,
/// 4, 7 take the bitmap, 10 and 13 (the deepest packed-word depth) the
/// packed radix sort, 14 and 16 the `(code, rgb)` pair path.
#[test]
fn every_dedup_path_and_backend_matches_the_seed_bitstream() {
    let body = SyntheticBody::default();
    for (depth, n) in [
        (1u32, 700usize),
        (4, 5_000),
        (7, 20_000),
        (10, 20_000),
        (13, 6_000),
        (14, 6_000),
        (16, 6_000),
    ] {
        let cloud = body.frame(depth as u64, n);
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        assert_matches_seed(&mut Encoder::new(), &cloud, &cfg);
        assert_matches_seed(&mut Encoder::with_backend(Backend::Scalar), &cloud, &cfg);
    }
}

/// Golden bytes: the `VOCT` stream at the ladder's depths and the three
/// default `VLYR` layers of one frame, by FNV-1a. The layered format has
/// no naive reference encoder; this is what freezes its bytes.
#[test]
fn both_wire_formats_hash_to_their_pinned_values() {
    let cloud = SyntheticBody::default().frame(0, 20_000);
    let mut stream = Vec::new();
    for (depth, want) in [
        (8, 0xfcb3078d64aeb3bd_u64),
        (9, 0x225f85f3f5abeb7e),
        (10, 0x35178b520ac0ad3a),
    ] {
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        Encoder::new().encode_into(&cloud, &cfg, &mut stream);
        assert_eq!(fnv1a(&stream), want, "VOCT depth {depth}");
    }
    let mut frame = LayeredFrame::new();
    LayeredEncoder::new().encode_into(&cloud, &LayeredConfig::default(), &mut frame);
    let got: Vec<u64> = frame.layers().iter().map(|l| fnv1a(l)).collect();
    let want = [0x21fe95aa1093ab42, 0x564e25b94f9d9302, 0xd6fc228473e2a0e2];
    assert_eq!(got, want, "VLYR layers");
}
