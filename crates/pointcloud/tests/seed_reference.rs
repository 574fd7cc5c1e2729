//! Reference check for the wire layout: a deliberately naive encoder
//! written from the prose in the `codec::layered`, `codec::octree` and
//! `codec::rans` module docs — frequency tables as `Vec<Vec<_>>`, a
//! symbol's start summed from its table every time, rANS with plain `/` and
//! `%` over a list of symbols built forwards and walked backwards, per-bit
//! Morton loop, comparison sort, `BTreeMap`s for every per-node and
//! per-anchor question, one `Vec<bool>` per raw plane, a fresh allocation
//! for every intermediate — sharing no helper with `src/`. The optimized
//! [`LayeredEncoder`] must emit its bytes exactly, and [`Encoder`] those of
//! its one-layer frame: on the bitmap-dedup path (depth <= 8), the packed
//! radix-sort path (depth 9..=13) and the pair path beyond, at every color
//! width. The last test pins six streams outright.

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

    /// Frequencies summing to 4096 from occurrence counts.
    fn frequencies(counts: &[u64]) -> Vec<u64> {
        let n: u64 = counts.iter().sum();
        if n == 0 {
            let mut f = vec![0; counts.len()];
            f[0] = 4096;
            return f;
        }
        let mut f: Vec<u64> = counts
            .iter()
            .map(|&c| match c {
                0 => 0,
                _ => ((4096 * c + n / 2) / n).max(1),
            })
            .collect();
        // The lowest symbol holding the largest frequency.
        let top = |f: &[u64]| f.iter().position(|v| v == f.iter().max().unwrap()).unwrap();
        let sum: u64 = f.iter().sum();
        if sum <= 4096 {
            let t = top(&f);
            f[t] += 4096 - sum;
        } else {
            let mut excess = sum - 4096;
            while excess > 0 {
                let t = top(&f);
                let take = excess.min(f[t] - 1);
                f[t] -= take;
                excess -= take;
            }
        }
        f
    }

    /// A table on the wire.
    fn table_bytes(f: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut s = 0;
        while s < f.len() {
            if f[s] == 0 {
                let mut z = 0;
                while s + z < f.len() && f[s + z] == 0 {
                    z += 1;
                }
                out.push(0);
                out.push((z - 1) as u8);
                s += z;
            } else {
                if f[s] <= 127 {
                    out.push(f[s] as u8);
                } else {
                    out.push(0x80 | (f[s] >> 8) as u8);
                    out.push((f[s] & 0xFF) as u8);
                }
                s += 1;
            }
        }
        out
    }

    /// What a symbol of frequency `f` is priced at, in 256ths of a bit. (The
    /// epsilon keeps the powers of two, where the product is a whole
    /// number, from being rounded up by a float's last bit.)
    fn price(f: u64) -> u64 {
        (256.0 * (4096.0 / f as f64).log2() - 1e-9).ceil() as u64
    }

    /// One symbol as the coder sees it: which state codes it, and its
    /// interval in its table.
    struct Symbol {
        state: usize,
        start: u64,
        freq: u64,
    }

    fn symbol(state: usize, table: &[u64], s: usize) -> Symbol {
        Symbol {
            state,
            start: table[..s].iter().sum(),
            freq: table[s],
        }
    }

    /// The three states and the bytes, for `symbols` in wire order.
    fn rans(symbols: &[Symbol]) -> Vec<u8> {
        let mut states = [1u64 << 23; 3];
        let mut emitted = Vec::new();
        for sym in symbols.iter().rev() {
            let x = &mut states[sym.state];
            while *x >= sym.freq << 19 {
                emitted.push((*x & 0xFF) as u8);
                *x >>= 8;
            }
            *x = ((*x / sym.freq) << 12) + *x % sym.freq + sym.start;
        }
        let mut out = Vec::new();
        for x in states {
            out.extend_from_slice(&(x as u32).to_le_bytes());
        }
        emitted.reverse();
        out.extend_from_slice(&emitted);
        out
    }

    /// The entropy block of a stream that carries the levels `first..depth`:
    /// `masks` are its nodes in wire order as (level, child mask), `colors`
    /// the high bits of its color values in wire order, from an alphabet of
    /// `alphabet` symbols.
    fn entropy_block(
        first: u32,
        depth: u32,
        masks: &[(u32, u8)],
        colors: &[[u32; 3]],
        alphabet: usize,
    ) -> Vec<u8> {
        let mut flags = 0u16;
        let mut tables = Vec::new();
        // Per level, the frequency of each of the 256 byte values.
        let mut level_tables: Vec<Vec<u64>> = vec![Vec::new(); depth as usize];
        for level in first..depth {
            let mut counts = vec![0u64; 255];
            for &(l, mask) in masks {
                if l == level {
                    counts[mask as usize - 1] += 1;
                }
            }
            let f = frequencies(&counts);
            let bytes = table_bytes(&f);
            let nodes: u64 = counts.iter().sum();
            let coded: u64 = (0..255)
                .filter(|&s| counts[s] > 0)
                .map(|s| counts[s] * price(f[s]))
                .sum();
            if 2048 * bytes.len() as u64 + coded < 2048 * nodes {
                flags |= 1 << level;
                tables.extend_from_slice(&bytes);
                level_tables[level as usize] = [vec![0], f].concat();
            } else {
                level_tables[level as usize] = vec![16; 256]; // raw
            }
        }
        // Color tables per channel and context, if any color is sent.
        let mut color_tables: Vec<Vec<Vec<u64>>> = Vec::new();
        if !colors.is_empty() {
            for ch in 0..3 {
                let mut counts = vec![vec![0u64; alphabet]; alphabet];
                let mut ctx = 0;
                for value in colors {
                    counts[ctx][value[ch] as usize] += 1;
                    ctx = value[ch] as usize;
                }
                let per_ctx: Vec<Vec<u64>> = counts.iter().map(|c| frequencies(c)).collect();
                for f in &per_ctx {
                    tables.extend_from_slice(&table_bytes(f));
                }
                color_tables.push(per_ctx);
            }
        }

        let mut symbols = Vec::new();
        for (i, &(level, mask)) in masks.iter().enumerate() {
            symbols.push(symbol(i % 3, &level_tables[level as usize], mask as usize));
        }
        let mut ctx = [0usize; 3];
        for value in colors {
            for ch in 0..3 {
                let s = value[ch] as usize;
                symbols.push(symbol(ch, &color_tables[ch][ctx[ch]], s));
                ctx[ch] = s;
            }
        }

        let mut block = flags.to_le_bytes().to_vec();
        block.extend_from_slice(&tables);
        block.extend_from_slice(&rans(&symbols));
        block
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

    /// Splits one color value: low bits onto the plane, channel by
    /// channel; the high bits are the value's three symbols.
    fn split_color(plane: &mut Plane, value: [u32; 3], color_bits: u32) -> [u32; 3] {
        let raw = color_bits / 2;
        for ch in 0..3 {
            plane.push(value[ch], raw);
        }
        value.map(|v| v >> raw)
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

            // Level-major: each level of the span as it lies.
            let mut masks = Vec::new();
            if !voxels.is_empty() {
                for level in prev_depth..depth {
                    for &mask in nodes_at(&voxels, depth, level).values() {
                        masks.push((level, mask));
                    }
                }
            }
            let mut plane = Plane { bits: Vec::new() };
            let mut colors = Vec::new();
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
                colors.push(split_color(&mut plane, residual, color_bits));
            }

            let mut data = Vec::new();
            data.extend_from_slice(b"VLY3");
            data.push(k as u8);
            data.push(depths.len() as u8);
            data.push(depth as u8);
            data.push(color_bits as u8);
            data.extend_from_slice(&(voxels.len() as u32).to_le_bytes());
            data.extend_from_slice(&(colors.len() as u32).to_le_bytes());
            data.push(prev_depth as u8);
            data.extend_from_slice(&(prev.len() as u32).to_le_bytes());
            if k == 0 {
                push_bounds(&mut data, cloud);
            }
            if !voxels.is_empty() {
                let alphabet = 1usize << (color_bits - color_bits / 2);
                data.extend_from_slice(&plane.bytes());
                data.extend_from_slice(&entropy_block(
                    prev_depth, depth, &masks, &colors, alphabet,
                ));
            }
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
        naive::encode_layers(cloud, &[cfg.depth], cfg.color_bits) == [stream],
        "naive and arena encoders diverged at depth {} color_bits {} ({} points)",
        cfg.depth,
        cfg.color_bits,
        cloud.len()
    );
}

/// The frame of one layer that `cfg`'s single stream is.
fn one_layer(cfg: &CodecConfig) -> LayeredConfig {
    LayeredConfig {
        depths: vec![cfg.depth],
        color_bits: cfg.color_bits,
    }
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

/// Every depth the format allows: depths 1..=8 take the bitmap, 9..=13 the
/// packed radix sort, 14..=16 the `(code, rgb)` pair path.
#[test]
fn single_stream_matches_the_naive_encoder_at_every_depth() {
    let body = SyntheticBody::default();
    for depth in 1..=16u32 {
        let cloud = body.frame(depth as u64, if depth <= 10 { 12_000 } else { 5_000 });
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        assert_matches_naive(&mut Encoder::new(), &cloud, &cfg);
        assert_layers_match_naive(&mut LayeredEncoder::new(), &cloud, &one_layer(&cfg));
    }
}

/// Every color width: `raw` runs 0, 1, 1, 2, 2, 3, 3, 4, so width 1 has no
/// plane at all and width 8 the widest values.
#[test]
fn both_formats_match_the_naive_encoder_at_every_color_width() {
    let cloud = SyntheticBody::default().frame(2, 6_000);
    for color_bits in 1..=8 {
        for depth in [5, 10, 14] {
            let cfg = CodecConfig { depth, color_bits };
            assert_matches_naive(&mut Encoder::new(), &cloud, &cfg);
            assert_layers_match_naive(&mut LayeredEncoder::new(), &cloud, &one_layer(&cfg));
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
        let cfg = CodecConfig::default();
        assert_matches_naive(&mut Encoder::new(), &cloud, &cfg);
        for lcfg in [LayeredConfig::default(), one_layer(&cfg)] {
            assert_layers_match_naive(&mut LayeredEncoder::new(), &cloud, &lcfg);
        }
    }
}

/// Reused encoders must agree with the reference on every frame, not only
/// the first. The bitmap is carried across calls, all-zero only if every
/// frame clears what it set, so one encoder of each kind crosses every
/// dedup path (an empty cloud takes the radix path) and grows and shrinks
/// the key space: a stale bit would show up as a voxel no point made.
#[test]
fn reused_encoders_match_the_naive_encoder_across_frames() {
    let body = SyntheticBody::default();
    let mut enc = Encoder::new();
    let mut lenc = LayeredEncoder::new();
    let schedule = [
        (8, 41_000),
        (3, 500),
        (8, 0),
        (1, 1),
        (10, 20_000),
        (7, 35_000),
        (8, 5_000),
        (13, 3_000),
        (15, 2_000),
        (8, 20_000),
    ];
    for (frame, (depth, points)) in schedule.into_iter().enumerate() {
        let cloud = body.frame(frame as u64, points);
        let cfg = CodecConfig {
            depth,
            color_bits: 6,
        };
        assert_matches_naive(&mut enc, &cloud, &cfg);
        let lcfg = LayeredConfig {
            depths: if depth > 2 {
                vec![depth - 2, depth]
            } else {
                vec![depth]
            },
            color_bits: 5,
        };
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
        (8, 0x75fc22b65003b733_u64),
        (9, 0x80c951eef4f90d59),
        (10, 0x53e036409049b091),
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
    let want = [0x5326fac26a5fdea1, 0xcbe596e1e49dfb88, 0x594bfc3e63f4419b];
    assert_eq!(got, want, "layers");
}
