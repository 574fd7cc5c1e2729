//! Layered progressive octree coding: base layer + enhancement layers.
//!
//! The single-stream codec commits a frame to one quantization depth.
//! This module cuts the same occupancy tree ([`super::octree`]) into
//! **octree-depth layers**: a base layer carrying the tree down to a
//! shallow depth (plus absolute quantized colors at that depth), and
//! enhancement layers each carrying the next span of levels plus
//! *residual* colors against their parent voxels. A decoder holding the
//! base plus any prefix of enhancement layers reconstructs a valid cloud
//! at that prefix's depth — and because the per-voxel color at every depth
//! is the floor-average of the merged input points, **each prefix decodes
//! to exactly the cloud a single-stream encode at the prefix's depth
//! decodes to** (`every_prefix_matches_single_stream_decode_at_that_depth`).
//! The bytes are not the single stream's: the orders below differ.
//!
//! Layer bitstream layout (all integers little-endian):
//!
//! ```text
//! magic "VLYR" | layer u8 | total u8 | depth u8 | color_bits u8
//! | count u32 | prev_depth u8 | prev_count u32
//! | (layer 0 only) min_xyz 3xf32, extent f32, 0 f32, 0 f32
//! | range-coded payload
//! ```
//!
//! The payload is **level-major** (unlike the single stream's pre-order
//! DFS): for each absolute level `prev_depth..depth`, one 8-bit child mask
//! per voxel of that level in ascending Morton order, then per final voxel
//! a `color_bits` residual per channel, `(q_child - q_anchor) mod
//! 2^color_bits`, where the anchor is the voxel's ancestor at `prev_depth`
//! (the virtual root with color 0 for the base layer). Level-major order
//! lets the decoder expand one level at a time with two ping-pong buffers
//! — no recursion, no per-node state — and makes each layer independently
//! range-coded (contexts reset per layer), so a truncated or lost
//! enhancement never corrupts the layers before it.
//!
//! Like the single-stream pair, [`LayeredEncoder`]/[`LayeredDecoder`] own
//! all working memory as [`ScratchVec`]s: encoding or decoding a stream of
//! frames into a reused [`LayeredFrame`]/[`PointCloud`] performs zero heap
//! allocations in steady state.

use super::octree::{
    check_header, emit_mask, merge_runs, read_bounds, reconstruct, write_bounds, CodecConfig,
    CodecError, Contexts, Encoder,
};
use super::range::RangeDecoder;
use crate::point::PointCloud;
use crate::quality::Ladder;
use volcast_geom::Vec3;
use volcast_util::obs;
use volcast_util::scratch::ScratchVec;

/// Maximum number of layers (base + enhancements) per frame.
pub const MAX_LAYERS: usize = 4;

const LAYER_MAGIC: [u8; 4] = *b"VLYR";
/// Fixed header: magic + layer + total + depth + color_bits + count(u32)
/// + prev_depth + prev_count(u32).
const LAYER_HEADER_LEN: usize = 4 + 1 + 1 + 1 + 1 + 4 + 1 + 4;
/// The base layer additionally carries the bounds block (same 6 f32 as the
/// single-stream header).
const BASE_HEADER_LEN: usize = LAYER_HEADER_LEN + 24;

/// Layered codec parameters: cumulative quantization depths per layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredConfig {
    /// Strictly increasing cumulative octree depths; `depths[0]` is the
    /// base layer's depth, `depths.last()` the full resolution.
    pub depths: Vec<u32>,
    /// Color quantization: bits per channel (1..=8), shared by all layers.
    pub color_bits: u32,
}

impl LayeredConfig {
    /// The canonical configuration: layer depths from the quality
    /// [`Ladder`] (base = Low's depth, one enhancement per higher level)
    /// at the default color precision.
    pub fn from_ladder(ladder: &Ladder) -> LayeredConfig {
        LayeredConfig {
            depths: ladder.depths().to_vec(),
            color_bits: CodecConfig::default().color_bits,
        }
    }

    /// Number of layers (base + enhancements).
    pub fn layers(&self) -> usize {
        self.depths.len()
    }

    /// Panics unless the layer count is within [`MAX_LAYERS`] and depths
    /// are strictly increasing from at least 1. (`Encoder::voxelize` holds
    /// the full depth to `1..=16` and color bits to `1..=8`.)
    fn validate(&self) {
        assert!(
            !self.depths.is_empty() && self.depths.len() <= MAX_LAYERS,
            "layer count must be in 1..={MAX_LAYERS}"
        );
        assert!(
            self.depths[0] >= 1 && self.depths.windows(2).all(|w| w[0] < w[1]),
            "layer depths must be strictly increasing from at least 1"
        );
    }
}

impl Default for LayeredConfig {
    fn default() -> Self {
        LayeredConfig::from_ladder(&Ladder::paper())
    }
}

/// One encoded frame as a stack of layer bitstreams. Reused across frames:
/// the per-layer buffers retain their capacity.
#[derive(Debug, Default, Clone)]
pub struct LayeredFrame {
    bufs: Vec<Vec<u8>>,
    len: usize,
}

impl LayeredFrame {
    /// Creates an empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded layers, base first.
    pub fn layers(&self) -> &[Vec<u8>] {
        &self.bufs[..self.len]
    }

    /// Total encoded bytes across all layers.
    pub fn total_bytes(&self) -> usize {
        self.layers().iter().map(|b| b.len()).sum()
    }

    /// Clears to `n` empty layers, retaining buffer capacity.
    fn reset(&mut self, n: usize) {
        while self.bufs.len() < n {
            self.bufs.push(Vec::new());
        }
        for b in &mut self.bufs[..n] {
            b.clear();
        }
        self.len = n;
    }
}

/// Per-frame layered compression statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayeredStats {
    /// Points in the input cloud.
    pub input_points: usize,
    /// Unique voxels at the full (deepest) layer.
    pub voxels: usize,
    /// Number of layers emitted.
    pub layers: usize,
    /// Total compressed bytes across all layers.
    pub total_bytes: usize,
}

/// One coarse voxel's color accumulator (`u64`: it merges many points).
type LayerSum = ([u64; 3], u64);

/// A reusable layered encoder owning all codec working memory.
pub struct LayeredEncoder {
    /// The full-depth voxelization and its occupancy tree, plus the context
    /// models and range coder every layer is emitted through.
    enc: Encoder,
    /// Code lists of the layers below full depth, concatenated base first.
    lcodes: ScratchVec<u64>,
    /// Their aggregated color sums and merged point counts, in parallel.
    lsums: ScratchVec<LayerSum>,
}

impl Default for LayeredEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl LayeredEncoder {
    /// Creates an encoder with cold scratch buffers.
    pub fn new() -> Self {
        LayeredEncoder {
            enc: Encoder::new(),
            lcodes: ScratchVec::new("codec.scratch.layer_codes"),
            lsums: ScratchVec::new("codec.scratch.layer_csums"),
        }
    }

    /// Encodes `cloud` into `out` as `cfg.layers()` layer bitstreams.
    ///
    /// # Panics
    /// If `cfg` is invalid (see [`LayeredConfig`] bounds).
    pub fn encode_into(
        &mut self,
        cloud: &PointCloud,
        cfg: &LayeredConfig,
        out: &mut LayeredFrame,
    ) -> LayeredStats {
        cfg.validate();
        let layers = cfg.depths.len();
        let full_depth = cfg.depths[layers - 1];
        let full_cfg = CodecConfig {
            depth: full_depth,
            color_bits: cfg.color_bits,
        };
        let bounds = self.enc.voxelize(cloud, &full_cfg);
        let Encoder {
            codes,
            csums,
            tree,
            ctx,
            rc,
            ..
        } = &mut self.enc;
        let (codes, csums) = (codes.get(), csums.get());

        // A lower layer's voxels are the distinct prefixes of the full-depth
        // codes, with color sums added across merged children. The
        // floor-average at any depth is therefore the average over all
        // merged *input points*, matching a direct single-stream encode at
        // that depth. Layer `j < layers - 1` is `starts[j]..starts[j + 1]`.
        let lcodes = self.lcodes.begin();
        let lsums = self.lsums.begin();
        let mut starts = [0usize; MAX_LAYERS];
        for (j, depth) in cfg.depths[..layers - 1].iter().enumerate() {
            starts[j] = lcodes.len();
            let shift = 3 * (full_depth - depth);
            merge_runs(
                codes.iter().map(|c| c >> shift).zip(csums),
                |sum: &mut LayerSum, &(s, count)| {
                    for (total, s) in sum.0.iter_mut().zip(s) {
                        *total += s as u64;
                    }
                    sum.1 += count as u64;
                },
                lcodes,
                lsums,
            );
        }
        starts[layers - 1] = lcodes.len();
        let layer_codes = |k: usize| -> &[u64] {
            if k + 1 == layers {
                codes
            } else {
                &lcodes[starts[k]..starts[k + 1]]
            }
        };
        // Quantized floor-average color of layer `k`'s voxel `i`.
        let shift = 8 - cfg.color_bits;
        let quantized = |k: usize, i: usize| -> [u32; 3] {
            if k + 1 == layers {
                let (sums, count) = csums[i];
                sums.map(|s| (s / count) >> shift)
            } else {
                let (sums, count) = lsums[starts[k] + i];
                sums.map(|s| (s / count) as u32 >> shift)
            }
        };

        // Emit each layer: header, the tree's levels across the layer's
        // depth span as they lie, then per-voxel color residuals against
        // the layer's anchor (its ancestor at the previous layer's depth).
        out.reset(layers);
        let cmask = (1u32 << cfg.color_bits) - 1;
        for k in 0..layers {
            let depth = cfg.depths[k];
            let voxels = layer_codes(k);
            let (prev_depth, prev_voxels) = match k {
                0 => (0, &[][..]),
                _ => (cfg.depths[k - 1], layer_codes(k - 1)),
            };
            let buf = &mut out.bufs[k];
            buf.extend_from_slice(&LAYER_MAGIC);
            buf.push(k as u8);
            buf.push(layers as u8);
            buf.push(depth as u8);
            buf.push(cfg.color_bits as u8);
            buf.extend_from_slice(&(voxels.len() as u32).to_le_bytes());
            buf.push(prev_depth as u8);
            buf.extend_from_slice(&(prev_voxels.len() as u32).to_le_bytes());
            if k == 0 {
                write_bounds(buf, &bounds);
            }

            ctx.reset(depth);
            for level in prev_depth..depth {
                for &m in tree.level(level) {
                    emit_mask(rc, &mut ctx.occupancy[level as usize], m);
                }
            }
            // Anchors walk the previous layer's codes in lockstep (both
            // lists sorted; every prefix exists).
            let pshift = 3 * (depth - prev_depth);
            let mut p = 0usize;
            for (i, &code) in voxels.iter().enumerate() {
                let anchor = if k == 0 {
                    [0; 3]
                } else {
                    while prev_voxels[p] < code >> pshift {
                        p += 1;
                    }
                    debug_assert_eq!(prev_voxels[p], code >> pshift);
                    quantized(k - 1, p)
                };
                let q = quantized(k, i);
                for ch in 0..3 {
                    let residual = q[ch].wrapping_sub(anchor[ch]) & cmask;
                    rc.encode_bits(&mut ctx.color[ch], residual, cfg.color_bits);
                }
            }
            rc.finish_into(buf);
        }

        let stats = LayeredStats {
            input_points: cloud.len(),
            voxels: codes.len(),
            layers,
            total_bytes: out.total_bytes(),
        };
        if obs::enabled() {
            obs::inc("codec.layered.frames_encoded");
            obs::add("codec.layered.bytes", stats.total_bytes as u64);
            obs::add("codec.layered.voxels", stats.voxels as u64);
        }
        stats
    }
}

/// Decoder progress: the committed reconstruction state after the last
/// accepted layer.
#[derive(Debug, Clone, Copy)]
struct LayerState {
    depth: u32,
    color_bits: u32,
    total: u8,
    next_layer: u8,
    count: usize,
    min: Vec3,
    extent: f64,
}

/// A reusable layered decoder: push layers in order, reconstruct after any
/// prefix.
pub struct LayeredDecoder {
    /// Committed voxel codes at `state.depth`.
    codes: ScratchVec<u64>,
    /// Committed quantized colors (top `color_bits` bits per channel).
    qcols: ScratchVec<[u8; 3]>,
    // Level-expansion ping-pong buffers + anchor index tracking.
    exp_a: ScratchVec<u64>,
    exp_b: ScratchVec<u64>,
    anc_a: ScratchVec<u32>,
    anc_b: ScratchVec<u32>,
    new_q: ScratchVec<[u8; 3]>,
    ctx: Contexts,
    state: Option<LayerState>,
}

impl Default for LayeredDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl LayeredDecoder {
    /// Creates a decoder with cold scratch buffers.
    pub fn new() -> Self {
        LayeredDecoder {
            codes: ScratchVec::new("codec.scratch.dec_layer_codes"),
            qcols: ScratchVec::new("codec.scratch.dec_layer_qcols"),
            exp_a: ScratchVec::new("codec.scratch.dec_layer_exp_a"),
            exp_b: ScratchVec::new("codec.scratch.dec_layer_exp_b"),
            anc_a: ScratchVec::new("codec.scratch.dec_layer_anc_a"),
            anc_b: ScratchVec::new("codec.scratch.dec_layer_anc_b"),
            new_q: ScratchVec::new("codec.scratch.dec_layer_new_q"),
            ctx: Contexts::new(0),
            state: None,
        }
    }

    /// Discards any partial frame: the next layer pushed must be a base
    /// layer. (Pushing a base layer also restarts implicitly.)
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Applies the next layer bitstream. Layers must arrive in order
    /// starting from the base; any validation or payload error poisons the
    /// in-progress frame (the decoder then requires a fresh base layer).
    pub fn push_layer(&mut self, data: &[u8]) -> Result<(), CodecError> {
        match self.try_push_layer(data) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.state = None;
                Err(e)
            }
        }
    }

    fn try_push_layer(&mut self, data: &[u8]) -> Result<(), CodecError> {
        if data.len() < LAYER_HEADER_LEN {
            return Err(CodecError::TruncatedHeader);
        }
        if data[0..4] != LAYER_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let layer = data[4];
        let total = data[5];
        let depth = data[6] as u32;
        let color_bits = data[7] as u32;
        let count = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
        let prev_depth = data[12] as u32;
        let prev_count = u32::from_le_bytes(data[13..17].try_into().unwrap()) as usize;
        check_header(depth, color_bits, count)?;
        if total == 0 || total as usize > MAX_LAYERS || layer >= total {
            return Err(CodecError::InvalidHeader("layer index out of range"));
        }

        let header_len;
        let min;
        let extent;
        if layer == 0 {
            if data.len() < BASE_HEADER_LEN {
                return Err(CodecError::TruncatedHeader);
            }
            if prev_depth != 0 || prev_count != 0 {
                return Err(CodecError::InvalidHeader("base layer with a parent"));
            }
            (min, extent) = read_bounds(&data[LAYER_HEADER_LEN..BASE_HEADER_LEN], count)?;
            header_len = BASE_HEADER_LEN;
            // A base layer restarts the frame unconditionally.
            self.state = None;
        } else {
            let st = self
                .state
                .ok_or(CodecError::InvalidHeader("enhancement without a base"))?;
            if layer != st.next_layer || total != st.total {
                return Err(CodecError::InvalidHeader("layer out of sequence"));
            }
            if depth <= st.depth || prev_depth != st.depth {
                return Err(CodecError::InvalidHeader("layer depth not increasing"));
            }
            if color_bits != st.color_bits {
                return Err(CodecError::InvalidHeader("color_bits changed mid-frame"));
            }
            if prev_count != st.count {
                return Err(CodecError::InvalidHeader("parent count mismatch"));
            }
            if count < prev_count || (prev_count == 0 && count != 0) {
                return Err(CodecError::InvalidHeader("count not monotone"));
            }
            min = st.min;
            extent = st.extent;
            header_len = LAYER_HEADER_LEN;
        }

        // Payload: expand the occupancy one level at a time, tracking each
        // new voxel's anchor (index of its ancestor at prev_depth), then
        // rebuild colors from the anchors plus the coded residuals.
        let LayeredDecoder {
            codes,
            qcols,
            exp_a,
            exp_b,
            anc_a,
            anc_b,
            new_q,
            ctx,
            ..
        } = self;
        ctx.reset(depth);
        let mut dec = RangeDecoder::new(&data[header_len..]);
        let exp_a = exp_a.begin();
        let exp_b = exp_b.begin();
        let anc_a = anc_a.begin();
        let anc_b = anc_b.begin();
        let new_q_buf = new_q.begin();
        if count > 0 {
            // Seed the expansion with the previous layer's codes (or the
            // virtual root for a base layer) and identity anchors; then
            // expand level by level, ping-ponging via buffer swaps.
            exp_a.clear();
            anc_a.clear();
            if layer == 0 {
                exp_a.push(0);
            } else {
                exp_a.extend_from_slice(codes.get());
            }
            anc_a.extend(0..exp_a.len() as u32);
            for level in prev_depth..depth {
                exp_b.clear();
                anc_b.clear();
                for (i, &code) in exp_a.iter().enumerate() {
                    let anchor = anc_a[i];
                    for child in 0..8u64 {
                        if dec.decode_bit(&mut ctx.occupancy[level as usize][child as usize]) {
                            if exp_b.len() >= count {
                                return Err(CodecError::CorruptPayload(
                                    "layer expands beyond the declared count",
                                ));
                            }
                            exp_b.push((code << 3) | child);
                            anc_b.push(anchor);
                        }
                    }
                }
                std::mem::swap(exp_a, exp_b);
                std::mem::swap(anc_a, anc_b);
            }
            let (final_codes, final_anchor) = (&*exp_a, &*anc_a);
            if final_codes.len() != count {
                return Err(CodecError::CorruptPayload(
                    "layer decodes fewer voxels than declared",
                ));
            }
            if dec.is_exhausted() {
                return Err(CodecError::CorruptPayload(
                    "range decoder ran past the end of the occupancy stream",
                ));
            }
            let cmask = (1u32 << color_bits) - 1;
            let prev_q = qcols.get();
            new_q_buf.reserve(count);
            for &anchor in final_anchor.iter() {
                let base: [u8; 3] = if layer == 0 {
                    [0, 0, 0]
                } else {
                    prev_q[anchor as usize]
                };
                let mut q = [0u8; 3];
                for ch in 0..3 {
                    let r = dec.decode_bits(&mut ctx.color[ch], color_bits);
                    q[ch] = ((base[ch] as u32 + r) & cmask) as u8;
                }
                new_q_buf.push(q);
            }
            if dec.is_exhausted() {
                return Err(CodecError::CorruptPayload(
                    "range decoder ran past the end of the color stream",
                ));
            }
            // Commit.
            let codes_buf = codes.begin();
            codes_buf.extend_from_slice(final_codes);
            let qcols_buf = qcols.begin();
            qcols_buf.extend_from_slice(new_q_buf);
        } else {
            codes.begin();
            qcols.begin();
        }
        self.state = Some(LayerState {
            depth,
            color_bits,
            total,
            next_layer: layer + 1,
            count,
            min,
            extent,
        });
        obs::inc("codec.layered.layers_decoded");
        Ok(())
    }

    /// Materializes the current reconstruction (after 1+ layers) into
    /// `out` (cleared first), returning the point count. Positions and
    /// colors follow the exact single-stream decode arithmetic, so a full
    /// prefix reproduces [`super::decode`] byte for byte.
    pub fn reconstruct_into(&self, out: &mut PointCloud) -> Result<usize, CodecError> {
        let st = self
            .state
            .ok_or(CodecError::InvalidHeader("no layers applied"))?;
        out.points.clear();
        if st.count == 0 {
            return Ok(0);
        }
        reconstruct(
            self.codes.get(),
            |i| self.qcols.get()[i].map(u32::from),
            (st.depth, st.color_bits),
            (st.min, st.extent),
            &mut out.points,
        );
        Ok(st.count)
    }

    /// Convenience: resets, applies every layer in `layers`, and
    /// reconstructs into `out`.
    pub fn decode_frame_into(
        &mut self,
        layers: &[impl AsRef<[u8]>],
        out: &mut PointCloud,
    ) -> Result<usize, CodecError> {
        self.reset();
        for l in layers {
            self.push_layer(l.as_ref())?;
        }
        self.reconstruct_into(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode, Decoder};
    use crate::synthetic::SyntheticBody;

    fn ladder_cfg() -> LayeredConfig {
        LayeredConfig::default()
    }

    /// The ISSUE's pinned equality: base + all enhancement layers decode
    /// byte-identically to the single-stream bitstream's decode — and, a
    /// stronger structural property, *every* prefix decodes identically to
    /// a single-stream encode at the prefix's depth.
    #[test]
    fn every_prefix_matches_single_stream_decode_at_that_depth() {
        let body = SyntheticBody::default();
        let cfg = ladder_cfg();
        let mut enc = LayeredEncoder::new();
        let mut dec = LayeredDecoder::new();
        let mut frame = LayeredFrame::new();
        for (seed, n) in [(0u64, 4_000usize), (7, 20_000), (13, 1_000)] {
            let cloud = body.frame(seed, n);
            let stats = enc.encode_into(&cloud, &cfg, &mut frame);
            assert_eq!(stats.layers, 3);
            dec.reset();
            for (k, layer) in frame.layers().iter().enumerate() {
                dec.push_layer(layer).unwrap();
                let mut got = PointCloud::new();
                dec.reconstruct_into(&mut got).unwrap();
                let single = encode(
                    &cloud,
                    &CodecConfig {
                        depth: cfg.depths[k],
                        color_bits: cfg.color_bits,
                    },
                )
                .0;
                let expect = decode(&single).unwrap();
                assert_eq!(
                    got.points,
                    expect.points,
                    "seed {seed} n {n} prefix {} layers",
                    k + 1
                );
            }
        }
    }

    #[test]
    fn prefix_decode_is_a_valid_coarse_cloud() {
        let cloud = SyntheticBody::default().frame(3, 8_000);
        let cfg = ladder_cfg();
        let mut enc = LayeredEncoder::new();
        let mut frame = LayeredFrame::new();
        enc.encode_into(&cloud, &cfg, &mut frame);
        let mut dec = LayeredDecoder::new();
        let mut prev_count = 0usize;
        for layer in frame.layers() {
            dec.push_layer(layer).unwrap();
            let mut out = PointCloud::new();
            let n = dec.reconstruct_into(&mut out).unwrap();
            assert!(n > 0 && n >= prev_count, "voxel count must be monotone");
            prev_count = n;
            // Every reconstructed point stays inside the cloud's bounds
            // (inflated by one voxel for center offsets).
            let b = cloud.bounds();
            let slack = b.extent().max_component() / 256.0 + 1e-6;
            for p in &out.points {
                let pos = p.position();
                assert!(pos.x >= b.min.x - slack && pos.x <= b.max.x + slack);
            }
        }
    }

    #[test]
    fn base_layer_is_smaller_and_total_overhead_is_bounded() {
        let cloud = SyntheticBody::default().frame(5, 30_000);
        let cfg = ladder_cfg();
        let mut enc = LayeredEncoder::new();
        let mut frame = LayeredFrame::new();
        let stats = enc.encode_into(&cloud, &cfg, &mut frame);
        let (single, sstats) = encode(&cloud, &CodecConfig::default());
        assert!(
            frame.layers()[0].len() < single.data.len(),
            "base layer must undercut the full stream"
        );
        // Layering costs context resets + extra headers; it must stay a
        // modest constant factor over the single stream.
        assert!(
            (stats.total_bytes as f64) < 1.5 * single.data.len() as f64 + 256.0,
            "layered {} vs single {}",
            stats.total_bytes,
            single.data.len()
        );
        assert_eq!(stats.voxels, sstats.voxels);
    }

    #[test]
    fn reused_instances_match_fresh_instances() {
        let body = SyntheticBody::default();
        let cfg = ladder_cfg();
        let mut enc = LayeredEncoder::new();
        let mut dec = LayeredDecoder::new();
        let mut frame = LayeredFrame::new();
        let mut out = PointCloud::new();
        for f in 0..20u64 {
            let cloud = body.frame(f, 2_000);
            enc.encode_into(&cloud, &cfg, &mut frame);
            let mut fresh_frame = LayeredFrame::new();
            LayeredEncoder::new().encode_into(&cloud, &cfg, &mut fresh_frame);
            assert_eq!(frame.layers(), fresh_frame.layers(), "frame {f}");
            dec.decode_frame_into(frame.layers(), &mut out).unwrap();
            let mut fresh_out = PointCloud::new();
            LayeredDecoder::new()
                .decode_frame_into(frame.layers(), &mut fresh_out)
                .unwrap();
            assert_eq!(out.points, fresh_out.points, "frame {f}");
        }
    }

    #[test]
    fn empty_cloud_layered_round_trip() {
        let cfg = ladder_cfg();
        let mut enc = LayeredEncoder::new();
        let mut frame = LayeredFrame::new();
        let stats = enc.encode_into(&PointCloud::new(), &cfg, &mut frame);
        assert_eq!(stats.voxels, 0);
        let mut dec = LayeredDecoder::new();
        let mut out = PointCloud::new();
        let n = dec.decode_frame_into(frame.layers(), &mut out).unwrap();
        assert_eq!(n, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn out_of_order_and_mismatched_layers_are_rejected() {
        let cloud = SyntheticBody::default().frame(1, 2_000);
        let cfg = ladder_cfg();
        let mut enc = LayeredEncoder::new();
        let mut frame = LayeredFrame::new();
        enc.encode_into(&cloud, &cfg, &mut frame);
        let mut dec = LayeredDecoder::new();
        // Enhancement before base.
        assert!(matches!(
            dec.push_layer(&frame.layers()[1]),
            Err(CodecError::InvalidHeader(_))
        ));
        // Skipping a layer.
        dec.push_layer(&frame.layers()[0]).unwrap();
        assert!(matches!(
            dec.push_layer(&frame.layers()[2]),
            Err(CodecError::InvalidHeader(_))
        ));
        // After the error the frame is poisoned: even the valid next layer
        // is refused until a base restarts it.
        assert!(dec.push_layer(&frame.layers()[1]).is_err());
        dec.push_layer(&frame.layers()[0]).unwrap();
        dec.push_layer(&frame.layers()[1]).unwrap();
        let mut out = PointCloud::new();
        assert!(dec.reconstruct_into(&mut out).is_ok());
        // A layer from a *different* frame fails the chain checks whenever
        // its voxel counts disagree (checksums are the wire layer's job).
        let other = SyntheticBody::default().frame(9, 3_000);
        let mut other_frame = LayeredFrame::new();
        enc.encode_into(&other, &cfg, &mut other_frame);
        dec.reset();
        dec.push_layer(&frame.layers()[0]).unwrap();
        assert!(dec.push_layer(&other_frame.layers()[1]).is_err());
    }

    #[test]
    fn truncation_and_bit_flips_never_panic() {
        let cloud = SyntheticBody::default().frame(2, 3_000);
        let cfg = ladder_cfg();
        let mut enc = LayeredEncoder::new();
        let mut frame = LayeredFrame::new();
        enc.encode_into(&cloud, &cfg, &mut frame);
        let mut dec = LayeredDecoder::new();
        // Truncations at a spread of cut points in every layer: always an
        // error (base) or an error/poison (enhancements), never a panic.
        for (k, layer) in frame.layers().iter().enumerate() {
            for i in 0..16 {
                let cut = layer.len() * i / 16;
                dec.reset();
                for prev in &frame.layers()[..k] {
                    dec.push_layer(prev).unwrap();
                }
                assert!(
                    dec.push_layer(&layer[..cut]).is_err(),
                    "layer {k} cut {cut}"
                );
            }
        }
        // Random bit flips: a flip that stays self-consistent may decode
        // Ok (integrity belongs to the wire checksums); never a panic and
        // never more voxels than declared.
        let mut rng = volcast_util::rng::Rng::seed_from_u64(0x001a_7e12);
        for trial in 0..200 {
            let k = (trial % frame.layers().len() as u64) as usize;
            let mut mutated = frame.layers()[k].clone();
            let byte = rng.gen_range(0..mutated.len() as u64) as usize;
            mutated[byte] ^= 1 << rng.gen_range(0..8u32);
            dec.reset();
            for prev in &frame.layers()[..k] {
                dec.push_layer(prev).unwrap();
            }
            if dec.push_layer(&mutated).is_ok() {
                let mut out = PointCloud::new();
                if let Ok(n) = dec.reconstruct_into(&mut out) {
                    assert!(n <= 1usize << (3 * cfg.depths[k].min(10)));
                }
            }
        }
    }

    /// One malformed header per check the two formats share
    /// (`check_header`, `read_bounds`): both decoders refuse it alike.
    #[test]
    fn shared_header_checks_reject_alike_in_both_decoders() {
        let cloud = SyntheticBody::default().frame(6, 500);
        let single = encode(
            &cloud,
            &CodecConfig {
                depth: 5,
                color_bits: 6,
            },
        )
        .0;
        let lcfg = LayeredConfig {
            depths: vec![5],
            color_bits: 6,
        };
        let mut frame = LayeredFrame::new();
        LayeredEncoder::new().encode_into(&cloud, &lcfg, &mut frame);
        let base = &frame.layers()[0];
        // (VOCT offset, VLYR offset, bytes written there, rejection)
        let cases: [(usize, usize, &[u8], &str); 6] = [
            (4, 6, &[0], "depth out of range"),
            (4, 6, &[17], "depth out of range"),
            (5, 7, &[0], "color_bits out of range"),
            (5, 7, &[9], "color_bits out of range"),
            (6, 8, &u32::MAX.to_le_bytes(), "count exceeds tree capacity"),
            (22, 29, &f32::NAN.to_le_bytes(), "bad extent"),
        ];
        for (voct_at, vlyr_at, bytes, why) in cases {
            let mut voct = single.clone();
            voct.data[voct_at..][..bytes.len()].copy_from_slice(bytes);
            assert_eq!(decode(&voct), Err(CodecError::InvalidHeader(why)));
            let mut vlyr = base.clone();
            vlyr[vlyr_at..][..bytes.len()].copy_from_slice(bytes);
            assert_eq!(
                LayeredDecoder::new().push_layer(&vlyr),
                Err(CodecError::InvalidHeader(why))
            );
        }
    }

    #[test]
    fn two_layer_and_wide_span_configs_round_trip() {
        // Non-ladder shapes: a 2-layer config and a span wider than one
        // level per enhancement.
        let cloud = SyntheticBody::default().frame(4, 5_000);
        for cfg in [
            LayeredConfig {
                depths: vec![5, 9],
                color_bits: 8,
            },
            LayeredConfig {
                depths: vec![3, 6, 8, 10],
                color_bits: 4,
            },
        ] {
            let mut enc = LayeredEncoder::new();
            let mut frame = LayeredFrame::new();
            enc.encode_into(&cloud, &cfg, &mut frame);
            let mut dec = LayeredDecoder::new();
            let mut got = PointCloud::new();
            dec.decode_frame_into(frame.layers(), &mut got).unwrap();
            let single = encode(
                &cloud,
                &CodecConfig {
                    depth: *cfg.depths.last().unwrap(),
                    color_bits: cfg.color_bits,
                },
            )
            .0;
            let mut expect = PointCloud::new();
            Decoder::new().decode_into(&single, &mut expect).unwrap();
            assert_eq!(got.points, expect.points, "{:?}", cfg.depths);
        }
    }
}
