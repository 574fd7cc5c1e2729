//! Reference check for both wire formats: a deliberately naive encoder
//! written from the prose layouts in the `codec::octree` and
//! `codec::layered` module docs — branchy bit coder with the textbook
//! renormalization loop, per-bit Morton loop, comparison sort, `BTreeMap`s
//! for every per-node and per-anchor question, one `Vec<bool>` per raw
//! plane, a fresh allocation for every intermediate — sharing no helper
//! with `src/`. The optimized [`Encoder`] and [`LayeredEncoder`] must emit
//! its bytes exactly: on the bitmap-dedup path (depth <= 8), the packed
//! radix-sort path (depth 9..=13) and the pair path beyond, at every color
//! width, on every SIMD backend. The last test pins six streams outright.

use volcast_pointcloud::codec::simd::Backend;
use volcast_pointcloud::codec::{
    CodecConfig, Encoder, LayeredConfig, LayeredEncoder, LayeredFrame,
};
use volcast_pointcloud::{Point, PointCloud, SyntheticBody};
use volcast_util::hash::fnv1a;

// Fixed-size index loops over the three color channels read plainest.
#[allow(clippy::needless_range_loop)]
mod naive {
    use std::collections::BTreeMap;
    use volcast_geom::{Aabb, Vec3};
    use volcast_pointcloud::PointCloud;

    const PROB_BITS: u32 = 11;
    const PROB_ONE: u16 = 1 << PROB_BITS;
    const ADAPT_SHIFT: u32 = 5;
    const TOP: u32 = 1 << 24;

    #[derive(Clone, Copy)]
    struct BitModel {
        p0: u16,
    }
    impl BitModel {
        fn new() -> Self {
            BitModel { p0: PROB_ONE / 2 }
        }
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
        out: Vec<u8>,
    }
    impl RangeEncoder {
        fn new() -> Self {
            RangeEncoder {
                low: 0,
                range: u32::MAX,
                cache: 0,
                pending: 0,
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
        /// The low `n` bits of `value`, most significant first, bit `i`
        /// under `models[i]`.
        fn encode_bits(&mut self, models: &mut [BitModel], value: u32, n: u32) {
            for i in (0..n).rev() {
                let bit = (value >> i) & 1 == 1;
                self.encode_bit(&mut models[(n - 1 - i) as usize], bit);
            }
        }
        fn shift_low(&mut self) {
            if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
                let carry = (self.low >> 32) as u8;
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

    /// Occupancy contexts per (level, child), color contexts per (channel,
    /// bit position); fresh for every stream and every layer.
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

    /// A raw plane, one `bool` per bit in wire order.
    struct Plane {
        bits: Vec<bool>,
    }
    impl Plane {
        /// The low `raw` bits of `value`, least significant first.
        fn push(&mut self, value: u32, raw: u32) {
            for i in 0..raw {
                self.bits.push((value >> i) & 1 == 1);
            }
        }
        /// Bit `i` of the plane is bit `i % 8` of byte `i / 8`.
        fn bytes(&self) -> Vec<u8> {
            let mut out = vec![0u8; self.bits.len().div_ceil(8)];
            for (i, &bit) in self.bits.iter().enumerate() {
                out[i / 8] |= (bit as u8) << (i % 8);
            }
            out
        }
    }

    /// Sends one color value: high bits to the range coder, low bits to
    /// the plane, channel by channel.
    fn send_color(
        enc: &mut RangeEncoder,
        ctx: &mut Contexts,
        plane: &mut Plane,
        value: [u32; 3],
        color_bits: u32,
    ) {
        let raw = color_bits / 2;
        for ch in 0..3 {
            enc.encode_bits(&mut ctx.color[ch], value[ch] >> raw, color_bits - raw);
            plane.push(value[ch], raw);
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

    /// Per voxel code: channel sums and merged point count.
    type Voxels = BTreeMap<u64, ([u64; 3], u64)>;

    fn bounds_of(cloud: &PointCloud) -> (Aabb, f64) {
        let bounds = if cloud.is_empty() {
            Aabb::new(Vec3::ZERO, Vec3::ZERO)
        } else {
            cloud.bounds()
        };
        (bounds, bounds.extent().max_component().max(1e-6))
    }

    fn voxelize(cloud: &PointCloud, depth: u32) -> Voxels {
        let (bounds, extent) = bounds_of(cloud);
        let levels = 1u32 << depth;
        let scale = levels as f64 / extent;
        let mut voxels = Voxels::new();
        for p in &cloud.points {
            let rel = (p.position() - bounds.min) * scale;
            let q = |v: f64| (v.floor() as i64).clamp(0, (levels - 1) as i64) as u32;
            let v = voxels
                .entry(morton_encode(q(rel.x), q(rel.y), q(rel.z), depth))
                .or_default();
            for ch in 0..3 {
                v.0[ch] += p.color[ch] as u64;
            }
            v.1 += 1;
        }
        voxels
    }

    /// The voxels `levels` levels up: children merge into their prefix.
    fn coarsen(voxels: &Voxels, levels: u32) -> Voxels {
        let mut out = Voxels::new();
        for (&code, &(sums, count)) in voxels {
            let v = out.entry(code >> (3 * levels)).or_default();
            for ch in 0..3 {
                v.0[ch] += sums[ch];
            }
            v.1 += count;
        }
        out
    }

    /// Floor-average per channel, top `color_bits` bits.
    fn quantized(&(sums, count): &([u64; 3], u64), color_bits: u32) -> [u32; 3] {
        sums.map(|s| (s / count) as u32 >> (8 - color_bits))
    }

    fn push_bounds(data: &mut Vec<u8>, cloud: &PointCloud) {
        let (bounds, extent) = bounds_of(cloud);
        for v in [bounds.min.x, bounds.min.y, bounds.min.z, extent, 0.0, 0.0] {
            data.extend_from_slice(&(v as f32).to_le_bytes());
        }
    }

    /// Level `level`'s nodes of a depth-`depth` voxel set: prefix → mask.
    fn nodes_at(voxels: &Voxels, depth: u32, level: u32) -> BTreeMap<u64, u8> {
        let below = 3 * (depth - level);
        let mut nodes = BTreeMap::new();
        for &code in voxels.keys() {
            *nodes.entry(code >> below).or_default() |= 1u8 << ((code >> (below - 3)) & 0b111);
        }
        nodes
    }

    fn send_mask(enc: &mut RangeEncoder, ctx: &mut Contexts, level: u32, mask: u8) {
        for child in 0..8 {
            enc.encode_bit(
                &mut ctx.occupancy[level as usize][child],
                mask & (1 << child) != 0,
            );
        }
    }

    /// One node's mask, then its occupied children's subtrees, ascending.
    fn send_preorder(
        enc: &mut RangeEncoder,
        ctx: &mut Contexts,
        levels: &[BTreeMap<u64, u8>],
        level: u32,
        prefix: u64,
    ) {
        let mask = levels[level as usize][&prefix];
        send_mask(enc, ctx, level, mask);
        if level as usize + 1 < levels.len() {
            for child in 0..8u64 {
                if mask & (1 << child) != 0 {
                    send_preorder(enc, ctx, levels, level + 1, (prefix << 3) | child);
                }
            }
        }
    }

    /// The single stream.
    pub fn encode(cloud: &PointCloud, depth: u32, color_bits: u32) -> Vec<u8> {
        let voxels = voxelize(cloud, depth);
        let mut data = Vec::new();
        data.extend_from_slice(b"VOC2");
        data.push(depth as u8);
        data.push(color_bits as u8);
        data.extend_from_slice(&(voxels.len() as u32).to_le_bytes());
        push_bounds(&mut data, cloud);
        let mut ctx = Contexts::new(depth);
        let mut enc = RangeEncoder::new();
        let mut plane = Plane { bits: Vec::new() };
        if !voxels.is_empty() {
            let levels: Vec<_> = (0..depth).map(|l| nodes_at(&voxels, depth, l)).collect();
            send_preorder(&mut enc, &mut ctx, &levels, 0, 0);
            for v in voxels.values() {
                send_color(
                    &mut enc,
                    &mut ctx,
                    &mut plane,
                    quantized(v, color_bits),
                    color_bits,
                );
            }
        }
        data.extend_from_slice(&plane.bytes());
        data.extend_from_slice(&enc.finish());
        data
    }

    /// The layer stack, base first.
    pub fn encode_layers(cloud: &PointCloud, depths: &[u32], color_bits: u32) -> Vec<Vec<u8>> {
        let full_depth = *depths.last().unwrap();
        let full = voxelize(cloud, full_depth);
        let cmask = (1u32 << color_bits) - 1;
        let mut layers = Vec::new();
        let mut prev_depth = 0u32;
        let mut prev = Voxels::new();
        for (k, &depth) in depths.iter().enumerate() {
            let voxels = coarsen(&full, full_depth - depth);
            // How many of this layer's voxels descend from each anchor.
            let mut children = BTreeMap::<u64, usize>::new();
            for &code in voxels.keys() {
                *children
                    .entry(code >> (3 * (depth - prev_depth)))
                    .or_default() += 1;
            }

            let mut ctx = Contexts::new(depth);
            let mut enc = RangeEncoder::new();
            let mut plane = Plane { bits: Vec::new() };
            if !voxels.is_empty() {
                for level in prev_depth..depth {
                    for &mask in nodes_at(&voxels, depth, level).values() {
                        send_mask(&mut enc, &mut ctx, level, mask);
                    }
                }
            }
            let mut coded = 0u32;
            for (&code, v) in &voxels {
                let anchor_code = code >> (3 * (depth - prev_depth));
                let anchor = if k == 0 {
                    [0; 3] // the virtual root
                } else if children[&anchor_code] == 1 {
                    continue; // an only child: nothing is sent
                } else {
                    quantized(&prev[&anchor_code], color_bits)
                };
                let q = quantized(v, color_bits);
                let residual = [0, 1, 2].map(|ch| q[ch].wrapping_sub(anchor[ch]) & cmask);
                send_color(&mut enc, &mut ctx, &mut plane, residual, color_bits);
                coded += 1;
            }

            let mut data = Vec::new();
            data.extend_from_slice(b"VLY2");
            data.push(k as u8);
            data.push(depths.len() as u8);
            data.push(depth as u8);
            data.push(color_bits as u8);
            data.extend_from_slice(&(voxels.len() as u32).to_le_bytes());
            data.extend_from_slice(&coded.to_le_bytes());
            data.push(prev_depth as u8);
            data.extend_from_slice(&(prev.len() as u32).to_le_bytes());
            if k == 0 {
                push_bounds(&mut data, cloud);
            }
            data.extend_from_slice(&plane.bytes());
            data.extend_from_slice(&enc.finish());
            layers.push(data);
            prev_depth = depth;
            prev = voxels;
        }
        layers
    }
}

fn assert_matches_naive(enc: &mut Encoder, cloud: &PointCloud, cfg: &CodecConfig) {
    let mut stream = Vec::new();
    enc.encode_into(cloud, cfg, &mut stream);
    assert!(
        naive::encode(cloud, cfg.depth, cfg.color_bits) == stream,
        "naive and arena encoders diverged at depth {} color_bits {} ({} points)",
        cfg.depth,
        cfg.color_bits,
        cloud.len()
    );
}

fn assert_layers_match_naive(enc: &mut LayeredEncoder, cloud: &PointCloud, cfg: &LayeredConfig) {
    let mut frame = LayeredFrame::new();
    enc.encode_into(cloud, cfg, &mut frame);
    let want = naive::encode_layers(cloud, &cfg.depths, cfg.color_bits);
    assert_eq!(frame.layers().len(), want.len());
    for (k, (got, want)) in frame.layers().iter().zip(&want).enumerate() {
        assert!(
            got == want,
            "naive and arena layer {k} diverged at depths {:?} color_bits {} ({} points)",
            cfg.depths,
            cfg.color_bits,
            cloud.len()
        );
    }
}

/// Every depth the format allows, on the active and the forced-scalar
/// backend: depths 1..=8 take the bitmap, 9..=13 the packed radix sort,
/// 14..=16 the `(code, rgb)` pair path.
#[test]
fn single_stream_matches_the_naive_encoder_at_every_depth_and_backend() {
    let body = SyntheticBody::default();
    for depth in 1..=16u32 {
        let cloud = body.frame(depth as u64, if depth <= 10 { 12_000 } else { 5_000 });
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        assert_matches_naive(&mut Encoder::new(), &cloud, &cfg);
        assert_matches_naive(&mut Encoder::with_backend(Backend::Scalar), &cloud, &cfg);
    }
}

/// Every color width: `raw` runs 0, 1, 1, 2, 2, 3, 3, 4, so width 1 has no
/// plane at all and width 8 the widest values.
#[test]
fn both_formats_match_the_naive_encoder_at_every_color_width() {
    let cloud = SyntheticBody::default().frame(2, 6_000);
    for color_bits in 1..=8 {
        for depth in [5, 10, 14] {
            assert_matches_naive(
                &mut Encoder::new(),
                &cloud,
                &CodecConfig { depth, color_bits },
            );
        }
        for depths in [vec![4, 7, 9], vec![3, 14]] {
            assert_layers_match_naive(
                &mut LayeredEncoder::new(),
                &cloud,
                &LayeredConfig { depths, color_bits },
            );
        }
    }
}

/// Layer shapes: the ladder, one layer, adjacent depths at the top and the
/// bottom of the tree, a wide span, the full four — on a dense cloud and
/// on one so sparse that nearly every deep voxel is an only child.
#[test]
fn layered_stream_matches_the_naive_encoder_on_every_layer_shape() {
    let body = SyntheticBody::default();
    let dense = body.frame(0, 40_000);
    let sparse = body.frame(1, 300);
    for depths in [
        vec![8, 9, 10],
        vec![6],
        vec![1, 2],
        vec![15, 16],
        vec![2, 11],
        vec![3, 6, 8, 10],
    ] {
        let cfg = LayeredConfig {
            depths,
            color_bits: 6,
        };
        assert_layers_match_naive(&mut LayeredEncoder::new(), &dense, &cfg);
        assert_layers_match_naive(&mut LayeredEncoder::new(), &sparse, &cfg);
    }
}

#[test]
fn both_formats_match_the_naive_encoder_on_degenerate_clouds() {
    let one_point = SyntheticBody::default().frame(3, 1);
    let p = Point::new([0.25, -1.0, 3.5], [90, 200, 17]);
    let stacked = PointCloud::from_points(vec![p, p, Point::new(p.pos, [91, 3, 255])]);
    for cloud in [PointCloud::new(), one_point, stacked] {
        assert_matches_naive(&mut Encoder::new(), &cloud, &CodecConfig::default());
        assert_layers_match_naive(
            &mut LayeredEncoder::new(),
            &cloud,
            &LayeredConfig::default(),
        );
    }
}

/// Reused encoders (warm scratch arenas, shrinking and growing frames)
/// must agree with the reference on every frame, not only the first.
#[test]
fn reused_encoders_match_the_naive_encoder_across_frames() {
    let cfg = CodecConfig {
        depth: 7,
        color_bits: 6,
    };
    let lcfg = LayeredConfig {
        depths: vec![5, 7, 9],
        color_bits: 5,
    };
    let body = SyntheticBody::default();
    let mut enc = Encoder::new();
    let mut lenc = LayeredEncoder::new();
    for (frame, points) in [20_000, 35_000, 5_000, 30_000].into_iter().enumerate() {
        let cloud = body.frame(frame as u64, points);
        assert_matches_naive(&mut enc, &cloud, &cfg);
        assert_layers_match_naive(&mut lenc, &cloud, &lcfg);
    }
}

/// Golden bytes: the single stream at the ladder's depths and the three
/// default layers of one frame, by FNV-1a.
#[test]
fn both_wire_formats_hash_to_their_pinned_values() {
    let cloud = SyntheticBody::default().frame(0, 20_000);
    let mut stream = Vec::new();
    for (depth, want) in [
        (8, 0xc014a21cec6a9ca8_u64),
        (9, 0x67ccf25a8fc63bcc),
        (10, 0x2d6c111a9aa0d645),
    ] {
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        Encoder::new().encode_into(&cloud, &cfg, &mut stream);
        assert_eq!(fnv1a(&stream), want, "single stream, depth {depth}");
    }
    let mut frame = LayeredFrame::new();
    LayeredEncoder::new().encode_into(&cloud, &LayeredConfig::default(), &mut frame);
    let got: Vec<u64> = frame.layers().iter().map(|l| fnv1a(l)).collect();
    let want = [0x357aca821d3812d3, 0xc673be676cdbe298, 0x7a099da53b0dd2ab];
    assert_eq!(got, want, "layers");
}
