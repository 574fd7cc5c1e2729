//! The wire layout: a frame is a stack of octree-depth layers, and a
//! single stream is a frame of one.
//!
//! The occupancy tree of a frame ([`super::octree`]) is cut at increasing
//! depths: a base layer carrying the tree down to its depth plus absolute
//! quantized colors there, and enhancement layers each carrying the next
//! span of levels plus *residual* colors against their parent voxels.
//! [`Encoder`] emits the one-layer frame — all levels in the base, its
//! bytes exactly layer 0 of a [`LayeredEncoder`] configured with that one
//! depth — and [`Decoder`] is a [`LayeredDecoder`] fed one layer. A
//! decoder holding the base plus any prefix of enhancement layers
//! reconstructs a valid cloud at that prefix's depth — and because the
//! per-voxel color at every depth is the floor-average of the merged input
//! points, **each prefix decodes to exactly the cloud a single-stream
//! encode at the prefix's depth decodes to**
//! (`every_prefix_matches_single_stream_decode_at_that_depth`).
//!
//! Layer bitstream layout (all integers little-endian):
//!
//! ```text
//! magic "VLY3" | layer u8 | total u8 | depth u8 | color_bits u8
//! | count u32 | coded u32 | prev_depth u8 | prev_count u32
//! | (layer 0 only) min_xyz 3xf32, extent f32, 0 f32, 0 f32
//! | raw plane, ceil(coded * 3 * raw / 8) bytes
//! | entropy block (codec::rans): tables, three states, rANS bytes
//! ```
//!
//! The entropy block (layout, tables and coder in the `rans.rs` module
//! docs) is **level-major**: for each absolute level `prev_depth..depth`,
//! one child mask per voxel of that level in ascending Morton order under
//! that level's table, then the colors. A voxel's *anchor* is its ancestor
//! at `prev_depth` (the virtual root, color 0, for the base layer, whose
//! residuals are therefore the absolute colors); what is sent is the
//! residual `(q_child - q_anchor) mod 2^color_bits` per channel, split by
//! `octree::split_color`: the high `color_bits - raw` bits a symbol under
//! the table of its channel and of the symbol the residual before sent
//! there, the low `raw = color_bits / 2` bits in the raw plane, three
//! channels per voxel, LSB-first. **Only-child rule:** an enhancement voxel
//! that is its anchor's only descendant in its layer merges the same points
//! as the anchor, so its residual is identically zero and is not sent, in
//! either region; both sides read that off the sorted codes and the decoder
//! copies the anchor's color. `coded` counts the voxels that do send a
//! residual — all of them in a base layer; it sizes the plane before
//! anything is decoded, says whether the block has color tables at all
//! (`coded > 0`), and is verified against the decoded occupancy. A layer
//! with no voxels is its header alone. Level-major order lets the decoder
//! expand one level at a time between two buffers — no recursion, no
//! per-node state — and each layer carries its own tables and its own rANS
//! stream, so a truncated or lost enhancement never corrupts the layers
//! before it. The magic's last byte is the layout revision: `VLYR`
//! range-coded every residual whole, `VLY2` range-coded masks and high
//! bits bit by bit under adaptive models, and both — like the three
//! revisions of the pre-order single stream that stood beside them — fail
//! [`CodecError::BadMagic`] here.
//!
//! Encoders and decoders own all working memory as [`ScratchVec`]s:
//! encoding or decoding a stream of frames into reused buffers performs
//! zero heap allocations in steady state (`tests/codec_alloc.rs`). The free
//! [`encode`] / [`decode`] build a fresh instance per call, same bytes
//! either way.

use super::octree::{
    check_header, merge_runs, put_colors, read_bounds, reconstruct, split_color, write_bounds,
    CodecConfig, CodecError, CodecStats, ColorReader, ColorWriter, EncodedCloud, Encoder, Stage,
    Tree,
};
use super::rans::{DecModel, RansDecoder};
use crate::point::PointCloud;
use crate::quality::Ladder;
use volcast_geom::{Aabb, Vec3};
use volcast_util::obs;
use volcast_util::scratch::ScratchVec;

/// Maximum number of layers (base + enhancements) per frame.
pub const MAX_LAYERS: usize = 4;

const LAYER_MAGIC: [u8; 4] = *b"VLY3";
/// Fixed header: magic + layer + total + depth + color_bits + count(u32)
/// + coded(u32) + prev_depth + prev_count(u32).
const LAYER_HEADER_LEN: usize = 4 + 1 + 1 + 1 + 1 + 4 + 4 + 1 + 4;
/// Where the header's `coded` field sits.
const CODED_AT: usize = 12;
/// The base layer additionally carries the bounds block (6 f32).
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

/// The voxels of a frame at one depth: their codes, ascending, and their
/// quantized colors.
#[derive(Clone, Copy)]
struct Voxels<'a> {
    depth: u32,
    codes: &'a [u64],
    q: &'a [[u8; 3]],
}

/// What a base layer anchors on: the virtual root, color 0.
const ROOT: Voxels = Voxels {
    depth: 0,
    codes: &[0],
    q: &[[0; 3]],
};

/// One layer of a frame before it is bytes: its place in the stack, its
/// voxels, and the layer below them (none under a base layer).
struct Layer<'a> {
    index: usize,
    total: usize,
    color_bits: u32,
    voxels: Voxels<'a>,
    below: Option<Voxels<'a>>,
}

impl Stage {
    /// Writes `layer`'s bitstream into `buf` (cleared first): header (with
    /// the frame's `bounds` in a base layer), the levels of `tree` across
    /// the layer's depth span as they lie, then per-voxel color residuals
    /// against the layer's anchors (its voxels' ancestors in the layer
    /// below).
    fn emit(&mut self, tree: &Tree, bounds: &Aabb, layer: &Layer, buf: &mut Vec<u8>) {
        let Stage { model, csyms, rans } = self;
        let color_bits = layer.color_bits;
        let (depth, voxels) = (layer.voxels.depth, layer.voxels.codes);
        let base = layer.below.is_none();
        let anchors = layer.below.unwrap_or(ROOT);
        let prev_depth = anchors.depth;
        let prev_count = if base { 0 } else { anchors.codes.len() };
        buf.clear();
        buf.extend_from_slice(&LAYER_MAGIC);
        buf.push(layer.index as u8);
        buf.push(layer.total as u8);
        buf.push(depth as u8);
        buf.push(color_bits as u8);
        buf.extend_from_slice(&(voxels.len() as u32).to_le_bytes());
        buf.extend_from_slice(&[0; 4]); // `coded`, known after the color pass
        buf.push(prev_depth as u8);
        buf.extend_from_slice(&(prev_count as u32).to_le_bytes());
        if base {
            write_bounds(buf, bounds);
        }
        if voxels.is_empty() {
            return;
        }

        model.begin(depth);
        let csyms = csyms.begin();
        let mut colors = ColorWriter::new(buf, color_bits, model, csyms);
        // Both code lists are sorted and every prefix exists, so each
        // anchor's descendants are the next run of `voxels`.
        let cmask = (1u32 << color_bits) - 1;
        let pshift = 3 * (depth - prev_depth);
        let mut i = 0usize;
        for (&parent, anchor) in anchors.codes.iter().zip(anchors.q) {
            let run = i;
            while i < voxels.len() && voxels[i] >> pshift == parent {
                i += 1;
            }
            if i - run == 1 && !base {
                continue; // an only child: its anchor's color, unsent
            }
            for c in &layer.voxels.q[run..i] {
                let sub = |ch: usize| (c[ch] as u32).wrapping_sub(anchor[ch] as u32) & cmask;
                colors.emit([sub(0), sub(1), sub(2)]);
            }
        }
        colors.finish();
        buf[CODED_AT..][..4].copy_from_slice(&(csyms.len() as u32).to_le_bytes());
        for level in prev_depth..depth {
            model.count_masks(level, tree.level(level));
        }
        let alphabet = 1 << split_color(color_bits).0;
        model.write_tables(
            prev_depth..depth,
            (!csyms.is_empty()).then_some(alphabet),
            buf,
        );
        // Last symbol first: the residuals, then the levels from the
        // deepest up, each from its last node.
        let nodes: usize = (prev_depth..depth).map(|l| tree.level(l).len()).sum();
        put_colors(rans, model, csyms);
        let mut lane = (nodes + 2) % 3; // the last node's
        for level in (prev_depth..depth).rev() {
            for &m in tree.level(level).iter().rev() {
                model.put_mask(rans, lane, level, m);
                lane = (lane + 2) % 3;
            }
        }
        rans.finish_into(buf);
    }
}

impl Encoder {
    /// Encodes `cloud` into `out` (cleared first) as a frame of one layer,
    /// returning statistics.
    ///
    /// # Panics
    /// If `cfg.depth` is outside `1..=16` or `cfg.color_bits` outside `1..=8`.
    pub fn encode_into(
        &mut self,
        cloud: &PointCloud,
        cfg: &CodecConfig,
        out: &mut Vec<u8>,
    ) -> CodecStats {
        let voxelize = obs::span("codec.voxelize");
        let bounds = self.voxelize(cloud, cfg);
        drop(voxelize);
        let _emit = obs::span("codec.emit");
        let layer = Layer {
            index: 0,
            total: 1,
            color_bits: cfg.color_bits,
            voxels: Voxels {
                depth: cfg.depth,
                codes: self.codes.get(),
                q: self.q.get(),
            },
            below: None,
        };
        self.stage.emit(&self.tree, &bounds, &layer, out);

        let input_points = cloud.len();
        let stats = CodecStats {
            input_points,
            voxels: layer.voxels.codes.len(),
            bytes: out.len(),
            bits_per_point: if input_points == 0 {
                0.0
            } else {
                out.len() as f64 * 8.0 / input_points as f64
            },
        };
        if obs::enabled() {
            obs::inc("codec.clouds_encoded");
            obs::add("codec.input_points", stats.input_points as u64);
            obs::add("codec.voxels", stats.voxels as u64);
            obs::add("codec.bytes", stats.bytes as u64);
        }
        stats
    }

    /// Convenience wrapper allocating a fresh [`EncodedCloud`].
    pub fn encode(&mut self, cloud: &PointCloud, cfg: &CodecConfig) -> (EncodedCloud, CodecStats) {
        let mut data = Vec::new();
        let stats = self.encode_into(cloud, cfg, &mut data);
        (EncodedCloud { data }, stats)
    }
}

/// Encodes a cloud. Returns the bitstream and compression statistics.
///
/// One-shot: builds a fresh [`Encoder`] and drops it with the call. A frame
/// loop should hold its own encoder and reuse the working memory.
pub fn encode(cloud: &PointCloud, cfg: &CodecConfig) -> (EncodedCloud, CodecStats) {
    Encoder::new().encode(cloud, cfg)
}

/// A reusable layered encoder owning all codec working memory.
pub struct LayeredEncoder {
    /// The full-depth voxelization and its occupancy tree, plus the entropy
    /// stage every layer is emitted through.
    enc: Encoder,
    /// Code lists of the layers below full depth, concatenated base first.
    lcodes: ScratchVec<u64>,
    /// Their aggregated color sums and merged point counts, in parallel.
    lsums: ScratchVec<LayerSum>,
    /// Their quantized colors, in parallel.
    lq: ScratchVec<[u8; 3]>,
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
            lq: ScratchVec::new("codec.scratch.layer_q"),
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
        let voxelize = obs::span("codec.voxelize");
        let bounds = self.enc.voxelize(cloud, &full_cfg);
        let (codes, csums) = (self.enc.codes.get(), self.enc.csums.get());

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
        let shift = 8 - cfg.color_bits;
        let lq = self.lq.begin();
        lq.extend(
            lsums
                .iter()
                .map(|&(sums, count)| sums.map(|s| ((s / count) as u32 >> shift) as u8)),
        );
        // Layer `k`'s voxels: every layer but the last is read twice, as
        // voxels and as anchors.
        let full_q = self.enc.q.get();
        let cut = |k: usize| {
            let (codes, q) = if k + 1 == layers {
                (codes, full_q)
            } else {
                let at = starts[k]..starts[k + 1];
                (&lcodes[at.clone()], &lq[at])
            };
            let depth = cfg.depths[k];
            Voxels { depth, codes, q }
        };
        drop(voxelize);

        let _emit = obs::span("codec.emit");
        out.reset(layers);
        for k in 0..layers {
            let layer = Layer {
                index: k,
                total: layers,
                color_bits: cfg.color_bits,
                voxels: cut(k),
                below: k.checked_sub(1).map(cut),
            };
            let buf = &mut out.bufs[k];
            self.enc.stage.emit(&self.enc.tree, &bounds, &layer, buf);
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
    // Level-expansion ping-pong buffers and the layer's colors-to-be.
    exp_a: ScratchVec<u64>,
    exp_b: ScratchVec<u64>,
    new_q: ScratchVec<[u8; 3]>,
    model: DecModel,
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
            new_q: ScratchVec::new("codec.scratch.dec_layer_new_q"),
            model: DecModel::new(),
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
        let u32_at = |at: usize| u32::from_le_bytes(data[at..][..4].try_into().unwrap()) as usize;
        let (count, coded) = (u32_at(8), u32_at(CODED_AT));
        let prev_depth = data[16] as u32;
        let prev_count = u32_at(17);
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
            if coded != count {
                return Err(CodecError::InvalidHeader("a base layer codes every voxel"));
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
            if coded > count {
                return Err(CodecError::InvalidHeader("more residuals than voxels"));
            }
            min = st.min;
            extent = st.extent;
            header_len = LAYER_HEADER_LEN;
        }

        // Payload: expand the occupancy one level at a time, then rebuild
        // colors from the anchors plus the coded residuals.
        let LayeredDecoder {
            codes,
            qcols,
            exp_a,
            exp_b,
            new_q,
            model,
            ..
        } = self;
        let mut exp_a = exp_a.begin();
        let mut exp_b = exp_b.begin();
        let new_q_buf = new_q.begin();
        if count > 0 {
            let expand = obs::span("codec.decode.expand");
            let (colors, mut block) = ColorReader::new(&data[header_len..], coded, color_bits)?;
            let alphabet = 1 << split_color(color_bits).0;
            model.parse(
                &mut block,
                prev_depth..depth,
                (coded > 0).then_some(alphabet),
            )?;
            let mut dec = RansDecoder::new(block)?;
            // Every code extends one anchor — a voxel of the layer below,
            // or the virtual root — in the same order.
            let (anchors, anchor_q) = match layer {
                0 => (&[0][..], &[[0; 3]][..]),
                _ => (codes.get(), qcols.get()),
            };
            // Level by level from the anchors into two buffers that carry
            // logical lengths and grow to a level's most children plus a
            // parent's 8 slots (never past what the stream spells).
            let (mut lane, mut len) = (0, anchors.len());
            for level in prev_depth..depth {
                let room = count.min(8 * len) + 8;
                if exp_b.len() < room {
                    exp_b.resize(room, 0);
                }
                let parents = if level == prev_depth {
                    anchors
                } else {
                    &exp_a[..len]
                };
                len =
                    model.expand_level(&mut dec, &mut lane, level, parents, &mut exp_b[..room])?;
                std::mem::swap(&mut exp_a, &mut exp_b);
            }
            if len != count {
                return Err(CodecError::CorruptPayload(
                    "layer decodes fewer voxels than declared",
                ));
            }
            if dec.is_exhausted() {
                return Err(CodecError::CorruptPayload(
                    "rANS decoder ran past the end of the occupancy stream",
                ));
            }
            exp_a.truncate(count);
            drop(expand);
            let _colors = obs::span("codec.decode.colors");
            // The `coded` residuals into the last slots: a base layer's are
            // its colors. An enhancement's anchors take the next run of codes
            // each and add themselves to its residuals, in place (a run's
            // slots never lie past what it reads); `seen` keeps the runs
            // within `coded`, whatever the occupancy decoded to.
            new_q_buf.resize(count, [0; 3]);
            let unsent = count - coded;
            colors.decode_into(&mut dec, model, &mut new_q_buf[unsent..]);
            let cmask = (1u32 << color_bits) - 1;
            let pshift = 3 * (depth - prev_depth);
            let (mut i, mut seen) = (0, if layer > 0 { 0 } else { coded });
            for (&parent, &anchor) in anchors.iter().zip(anchor_q).filter(|_| layer > 0) {
                let start = i;
                while i < count && exp_a[i] >> pshift == parent {
                    i += 1;
                }
                if i - start == 1 {
                    new_q_buf[start] = anchor; // an only child: nothing was sent
                    continue;
                }
                let first = unsent + seen;
                seen += i - start;
                if seen > coded {
                    break;
                }
                for (j, r) in (start..i).zip(first..) {
                    let r = new_q_buf[r];
                    let add = |ch: usize| ((anchor[ch] as u32 + r[ch] as u32) & cmask) as u8;
                    new_q_buf[j] = [add(0), add(1), add(2)];
                }
            }
            if seen != coded {
                return Err(CodecError::CorruptPayload(
                    "coded residuals disagree with the decoded occupancy",
                ));
            }
            if !dec.is_clean_end() {
                return Err(CodecError::CorruptPayload(
                    "rANS states did not return to their seed at the end of the stream",
                ));
            }
            // Commit: the layer's buffers become the committed ones, and
            // the anchors they replace the next layer's scratch.
            std::mem::swap(codes.get_mut(), exp_a);
            std::mem::swap(qcols.get_mut(), new_q_buf);
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
        let _span = obs::span("codec.reconstruct");
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
    /// reconstructs into `out`; on any error `out` is left empty.
    pub fn decode_frame_into(
        &mut self,
        layers: &[impl AsRef<[u8]>],
        out: &mut PointCloud,
    ) -> Result<usize, CodecError> {
        out.points.clear();
        self.reset();
        for l in layers {
            self.push_layer(l.as_ref())?;
        }
        self.reconstruct_into(out)
    }
}

/// A reusable single-stream decoder: a [`LayeredDecoder`] fed one layer.
#[derive(Default)]
pub struct Decoder(LayeredDecoder);

impl Decoder {
    /// Creates a decoder with empty (cold) scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes `encoded` — a base layer, of a one-layer frame or of any
    /// other — into `out` (cleared first). Returns the decoded point count;
    /// on any error `out` is left empty.
    pub fn decode_into(
        &mut self,
        encoded: &EncodedCloud,
        out: &mut PointCloud,
    ) -> Result<usize, CodecError> {
        let count = self.0.decode_frame_into(&[&encoded.data], out)?;
        obs::inc("codec.clouds_decoded");
        Ok(count)
    }
}

/// Decodes a bitstream back into a voxelized point cloud.
///
/// One-shot, like [`encode`]: a fresh [`Decoder`] per call.
pub fn decode(encoded: &EncodedCloud) -> Result<PointCloud, CodecError> {
    let mut cloud = PointCloud::new();
    Decoder::new().decode_into(encoded, &mut cloud)?;
    Ok(cloud)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The one wire order: [`Encoder`]'s stream is, to the byte, layer 0 of
    /// a one-layer frame — on the bitmap, the radix and the pair path.
    #[test]
    fn a_single_stream_is_layer_0_of_a_one_layer_frame() {
        let cloud = SyntheticBody::default().frame(11, 6_000);
        let mut frame = LayeredFrame::new();
        for depth in [1, 8, 9, 10, 14, 16] {
            let cfg = CodecConfig {
                depth,
                color_bits: 6,
            };
            let lcfg = LayeredConfig {
                depths: vec![depth],
                color_bits: 6,
            };
            LayeredEncoder::new().encode_into(&cloud, &lcfg, &mut frame);
            assert!(
                encode(&cloud, &cfg).0.data == frame.layers()[0],
                "depth {depth}"
            );
        }
    }

    /// ... and [`Decoder`] takes the base layer of any frame.
    #[test]
    fn the_decoder_takes_the_base_layer_of_a_ladder_frame() {
        let frame = ladder_frame(6, 5_000);
        let (mut got, mut want) = (PointCloud::new(), PointCloud::new());
        let base = EncodedCloud {
            data: frame.layers()[0].clone(),
        };
        let n = Decoder::new().decode_into(&base, &mut got).unwrap();
        LayeredDecoder::new()
            .decode_frame_into(&frame.layers()[..1], &mut want)
            .unwrap();
        assert!(n > 0 && n == want.len());
        assert_eq!(got.points, want.points);
        // An enhancement alone is no stream.
        let enhancement = EncodedCloud {
            data: frame.layers()[1].clone(),
        };
        assert_eq!(
            Decoder::new().decode_into(&enhancement, &mut got),
            Err(CodecError::InvalidHeader("enhancement without a base"))
        );
        assert!(got.is_empty());
    }

    /// The expansion takes a level's masks in chunks of three parents on
    /// the states rotated to the level's first lane, then a tail of one or
    /// two: every (first lane, level length mod 3) pair must decode to the
    /// encoder's own codes and colors.
    #[test]
    fn every_first_lane_and_level_length_decodes_to_the_encoders_voxels() {
        let body = SyntheticBody::default();
        let (mut enc, mut dec) = (Encoder::new(), Decoder::new());
        let (mut stream, mut out) = (EncodedCloud { data: Vec::new() }, PointCloud::new());
        let mut crossed = [[false; 3]; 3];
        for seed in 0..12u64 {
            let cloud = body.frame(seed, [7, 40, 300, 2_000][seed as usize % 4] + seed as usize);
            for depth in [3, 6, 9] {
                let cfg = CodecConfig {
                    depth,
                    color_bits: 6,
                };
                enc.encode_into(&cloud, &cfg, &mut stream.data);
                let mut lane = 0;
                for level in 0..depth {
                    let len = enc.tree.level(level).len();
                    crossed[lane][len % 3] = true;
                    lane = (lane + len) % 3;
                }
                dec.decode_into(&stream, &mut out).unwrap();
                let what = format!("seed {seed} depth {depth}");
                assert_eq!(dec.0.codes.get(), enc.codes.get(), "{what}");
                assert_eq!(dec.0.qcols.get(), enc.q.get(), "{what}");
            }
        }
        assert_eq!(crossed, [[true; 3]; 3], "[first lane][length mod 3]");
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
        // Layering costs context resets, extra headers, and one residual
        // per voxel of every layer that is not an only child (1.21x here,
        // 1.39x at the benchmark's density; 1.7x before the only-child
        // rule and the raw plane).
        assert!(
            (stats.total_bytes as f64) < 1.25 * single.data.len() as f64,
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

    /// A layer's fixed header length and raw plane, read off its header
    /// (default config: `raw = 3`).
    fn plane_of(layer: &[u8]) -> (usize, std::ops::Range<usize>) {
        let header = if layer[4] == 0 {
            BASE_HEADER_LEN
        } else {
            LAYER_HEADER_LEN
        };
        let coded = u32::from_le_bytes(layer[CODED_AT..][..4].try_into().unwrap()) as usize;
        (header, header..header + (coded * 9).div_ceil(8))
    }

    fn ladder_frame(seed: u64, points: usize) -> LayeredFrame {
        let mut frame = LayeredFrame::new();
        LayeredEncoder::new().encode_into(
            &SyntheticBody::default().frame(seed, points),
            &ladder_cfg(),
            &mut frame,
        );
        frame
    }

    #[test]
    fn every_truncation_of_every_layer_errors_and_leaves_the_output_empty() {
        let frame = ladder_frame(2, 400);
        let mut dec = LayeredDecoder::new();
        let mut out = PointCloud::new();
        for (k, layer) in frame.layers().iter().enumerate() {
            let (header, plane) = plane_of(layer);
            assert!(
                plane.len() > 2 && plane.end + 5 < layer.len(),
                "cuts land in all three regions"
            );
            for cut in 0..layer.len() {
                let mut cut_frame: Vec<&[u8]> =
                    frame.layers()[..k].iter().map(|l| &l[..]).collect();
                cut_frame.push(&layer[..cut]);
                dec.decode_frame_into(&frame.layers()[..1], &mut out)
                    .unwrap();
                let err = dec.decode_frame_into(&cut_frame, &mut out).unwrap_err();
                if cut < header {
                    assert_eq!(err, CodecError::TruncatedHeader, "layer {k} cut {cut}");
                } else {
                    assert!(
                        matches!(err, CodecError::CorruptPayload(_)),
                        "layer {k} cut {cut}: {err}"
                    );
                }
                assert!(out.is_empty(), "layer {k} cut {cut} leaked points");
                // The frame is poisoned: nothing reconstructs until a base.
                assert!(dec.reconstruct_into(&mut out).is_err());
            }
        }
    }

    #[test]
    fn bit_flips_never_panic_nor_exceed_the_declared_count() {
        let cfg = ladder_cfg();
        let frame = ladder_frame(2, 3_000);
        let mut dec = LayeredDecoder::new();
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

    /// Plane bits are raw: a flip there desynchronizes nothing. Every
    /// position survives and one voxel's color moves by a low bit (and, on
    /// a lower layer, the colors anchored on it). Integrity is
    /// `net::wire`'s checksum.
    #[test]
    fn a_flip_inside_a_plane_decodes_to_the_same_geometry() {
        let frame = ladder_frame(4, 3_000);
        let mut dec = LayeredDecoder::new();
        let (mut clean, mut got) = (PointCloud::new(), PointCloud::new());
        dec.decode_frame_into(frame.layers(), &mut clean).unwrap();
        for k in 0..frame.layers().len() {
            let mut layers = frame.layers().to_vec();
            let plane = plane_of(&layers[k]).1;
            layers[k][(plane.start + plane.end) / 2] ^= 0x10;
            dec.decode_frame_into(&layers, &mut got).unwrap();
            assert_eq!(got.len(), clean.len());
            assert!(got
                .points
                .iter()
                .zip(&clean.points)
                .all(|(a, b)| a.pos == b.pos));
            assert_ne!(
                got.points, clean.points,
                "layer {k}: the flip is not checked here"
            );
        }
        // Nothing anchors on a base layer decoded alone: a flip anywhere in
        // its plane, first byte to last, changes one point and only there.
        let base = &frame.layers()[0];
        dec.decode_frame_into(&[base], &mut clean).unwrap();
        let plane = plane_of(base).1;
        for byte in [plane.start, (plane.start + plane.end) / 2, plane.end - 1] {
            let mut mutated = base.clone();
            mutated[byte] ^= 1;
            dec.decode_frame_into(&[&mutated], &mut got).unwrap();
            assert_eq!(got.len(), clean.len());
            let changed: Vec<_> = (0..got.len())
                .filter(|&i| got.points[i] != clean.points[i])
                .collect();
            assert_eq!(changed.len(), 1, "flip in byte {byte}");
            let (a, b) = (got.points[changed[0]], clean.points[changed[0]]);
            assert_eq!(a.pos, b.pos);
            // Low raw bits of a 6-bit channel, dequantized: less than 8 << 2.
            assert!((0..3).all(|ch| a.color[ch].abs_diff(b.color[ch]) < 32));
        }
    }

    /// A flip behind a layer's tables used to decode to *some* occupancy;
    /// now the layer is refused and the prefix below it is what renders.
    #[test]
    fn a_damaged_enhancement_is_reported_and_the_prefix_below_still_renders() {
        let frame = ladder_frame(3, 3_000);
        let mut dec = LayeredDecoder::new();
        let (mut base_only, mut out) = (PointCloud::new(), PointCloud::new());
        dec.decode_frame_into(&frame.layers()[..1], &mut base_only)
            .unwrap();
        let layer = &frame.layers()[1];
        // An enhancement of the ladder carries one level, and at this
        // density it earns its table: flags, table, color tables, states.
        let flags_at = plane_of(layer).1.end;
        assert_eq!(layer[flags_at..][..2], (1u16 << 8).to_le_bytes());
        let mut reported = 0;
        for byte in flags_at..layer.len() {
            let mut mutated = layer.clone();
            mutated[byte] ^= 0x04;
            dec.push_layer(&frame.layers()[0]).unwrap();
            match dec.push_layer(&mutated) {
                Err(CodecError::CorruptPayload(_)) => reported += 1,
                Err(other) => panic!("byte {byte}: {other}"),
                Ok(()) => {}
            }
            // Refused or not, a receiver falls back on the base alone.
            dec.decode_frame_into(&frame.layers()[..1], &mut out)
                .unwrap();
            assert_eq!(out.points, base_only.points);
        }
        let block = layer.len() - flags_at;
        assert!(reported * 100 >= 99 * block, "{reported} of {block}");
        // A table for a level below the layer's span is no encoder's.
        let mut mutated = layer.clone();
        mutated[flags_at] |= 1 << 7;
        dec.push_layer(&frame.layers()[0]).unwrap();
        assert_eq!(
            dec.push_layer(&mutated),
            Err(CodecError::CorruptPayload(
                "a table for a level the stream does not carry"
            ))
        );
    }

    /// Where a layer's three rANS states start: behind the plane and the
    /// table block (default config: a color alphabet of 8).
    fn states_at(layer: &[u8]) -> usize {
        let mut block = &layer[plane_of(layer).1.end..];
        let span = layer[16] as u32..layer[6] as u32;
        DecModel::new().parse(&mut block, span, Some(8)).unwrap();
        layer.len() - block.len()
    }

    /// The same for a stream whose upper levels are sparse enough to be
    /// raw: all ten levels in the base, most of the bytes behind the tables.
    #[test]
    fn a_flipped_base_payload_byte_is_reported_not_rendered() {
        let cloud = SyntheticBody::default().frame(2, 2_000);
        let (enc, _) = encode(&cloud, &CodecConfig::default());
        let states = states_at(&enc.data);
        let mut dec = Decoder::new();
        let mut out = PointCloud::new();
        let mut rendered = 0;
        for byte in states..enc.data.len() {
            let mut mutated = enc.clone();
            mutated.data[byte] ^= 0x10;
            match dec.decode_into(&mutated, &mut out) {
                Err(CodecError::CorruptPayload(_)) => assert!(out.is_empty()),
                Err(other) => panic!("byte {byte}: {other}"),
                Ok(_) => rendered += 1,
            }
        }
        // What still renders: a flip in one of the sparse upper levels' raw
        // masks that moves a node's child without changing how many it
        // has, and the rare trade between two symbols of one frequency
        // (`rans.rs`).
        let payload = enc.data.len() - states;
        assert!(payload > 4_000 && rendered * 20 < payload, "{rendered}");
        // The very last byte feeds nothing but the final states.
        let mut mutated = enc.clone();
        *mutated.data.last_mut().unwrap() ^= 0x10;
        assert_eq!(
            dec.decode_into(&mutated, &mut out),
            Err(CodecError::CorruptPayload(
                "rANS states did not return to their seed at the end of the stream"
            ))
        );
    }

    #[test]
    fn hostile_table_blocks_are_refused() {
        let cloud = SyntheticBody::default().frame(4, 3_000);
        let cfg = CodecConfig {
            depth: 8,
            color_bits: 6,
        };
        let (enc, _) = encode(&cloud, &cfg);
        let flags_at = plane_of(&enc.data).1.end;
        let flags = u16::from_le_bytes(enc.data[flags_at..][..2].try_into().unwrap());
        assert!(
            flags != 0 && flags & 1 == 0,
            "some level coded, the root raw"
        );
        let refused = |data: Vec<u8>, why: &'static str| {
            assert_eq!(
                decode(&EncodedCloud { data }),
                Err(CodecError::CorruptPayload(why))
            );
        };
        // A table for level 8 of a depth-8 tree.
        let mut mutant = enc.data.clone();
        mutant[flags_at + 1] |= 1;
        refused(mutant, "a table for a level the stream does not carry");
        // One more table flagged than sent: the parse runs into the rest.
        let mut mutant = enc.data.clone();
        mutant[flags_at] |= 1;
        assert!(matches!(
            decode(&EncodedCloud { data: mutant }),
            Err(CodecError::CorruptPayload(_))
        ));
        // The first table's first one-byte frequency off by one.
        let mut at = flags_at + 2;
        while enc.data[at] == 0 || enc.data[at] >= 0x7F {
            at += 2; // a zero run or a two-byte frequency
        }
        let mut mutant = enc.data.clone();
        mutant[at] += 1;
        refused(mutant, "frequencies do not sum to 4096");
        // The block cut off inside its tables.
        refused(
            enc.data[..flags_at + 5].to_vec(),
            "frequency table is truncated",
        );
        refused(
            enc.data[..flags_at + 1].to_vec(),
            "level flags are truncated",
        );
        // The root's level is raw, so state 0's slot spells its mask: 0 is
        // a node without children, whatever follows.
        let states = states_at(&enc.data);
        let mut mutant = enc.data.clone();
        mutant[states] &= 0x0F;
        mutant[states + 1] &= 0xF0;
        refused(mutant, "a node without children");
    }

    /// `coded` is verified against the occupancy the layer decodes to. The
    /// mutants keep the entropy block where `coded` says it starts,
    /// so it is exactly this check that refuses them.
    #[test]
    fn a_coded_count_that_disagrees_with_the_occupancy_is_corrupt() {
        let frame = ladder_frame(5, 2_000);
        let base = &frame.layers()[0];
        let layer = &frame.layers()[1];
        let (header, plane) = plane_of(layer);
        let coded = (plane.len() * 8 / 9) as u32;
        let count = u32::from_le_bytes(layer[8..12].try_into().unwrap());
        assert!(0 < coded && coded < count, "the layer has only children");
        let mut dec = LayeredDecoder::new();
        for claimed in [coded - 1, coded + 1] {
            let mut mutant = layer[..header].to_vec();
            mutant[CODED_AT..][..4].copy_from_slice(&claimed.to_le_bytes());
            let mut plane_bytes = layer[plane.clone()].to_vec();
            plane_bytes.resize((claimed as usize * 9).div_ceil(8), 0);
            mutant.extend_from_slice(&plane_bytes);
            mutant.extend_from_slice(&layer[plane.end..]);
            dec.push_layer(base).unwrap();
            assert_eq!(
                dec.push_layer(&mutant),
                Err(CodecError::CorruptPayload(
                    "coded residuals disagree with the decoded occupancy"
                )),
                "claimed {claimed}, true {coded}"
            );
        }
        // Header-only contradictions never reach the payload.
        let mut mutant = layer.clone();
        mutant[CODED_AT..][..4].copy_from_slice(&(count + 1).to_le_bytes());
        dec.push_layer(base).unwrap();
        assert_eq!(
            dec.push_layer(&mutant),
            Err(CodecError::InvalidHeader("more residuals than voxels"))
        );
    }

    #[test]
    fn a_plane_longer_than_the_buffer_is_refused_before_anything_is_reserved() {
        // A depth-12 base layer may declare u32::MAX voxels; the 4.8 GB
        // plane they imply is not in 60 bytes.
        let mut data = vec![0u8; BASE_HEADER_LEN + 16];
        data[0..4].copy_from_slice(&LAYER_MAGIC);
        data[5..8].copy_from_slice(&[1, 12, 6]);
        data[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        data[CODED_AT..][..4].copy_from_slice(&u32::MAX.to_le_bytes());
        data[LAYER_HEADER_LEN + 12..][..4].copy_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            LayeredDecoder::new().push_layer(&data),
            Err(CodecError::CorruptPayload("raw color plane is truncated"))
        );
    }

    /// The earlier layouts — range-coded, or rANS in pre-order under a
    /// shorter header — are not this one, whatever follows the magic.
    #[test]
    fn streams_of_the_earlier_layouts_are_bad_magic() {
        let cloud = SyntheticBody::default().frame(0, 300);
        let (mut enc, _) = encode(&cloud, &CodecConfig::default());
        for old in [b"VOCT", b"VOC2", b"VOC3", b"VLYR", b"VLY2"] {
            enc.data[0..4].copy_from_slice(old);
            assert_eq!(decode(&enc), Err(CodecError::BadMagic));
            assert_eq!(
                LayeredDecoder::new().push_layer(&enc.data),
                Err(CodecError::BadMagic)
            );
        }
    }

    /// One malformed base header per check (`check_header`, `read_bounds`,
    /// and a base layer's own): each is refused before the payload is read.
    #[test]
    fn each_malformed_header_field_is_rejected() {
        let cloud = SyntheticBody::default().frame(6, 500);
        let cfg = CodecConfig {
            depth: 5,
            color_bits: 6,
        };
        let (stream, stats) = encode(&cloud, &cfg);
        let one_less = (stats.voxels as u32 - 1).to_le_bytes();
        // (offset, bytes written there, rejection)
        let cases: [(usize, &[u8], &str); 9] = [
            (6, &[0], "depth out of range"),
            (6, &[17], "depth out of range"),
            (7, &[0], "color_bits out of range"),
            (7, &[9], "color_bits out of range"),
            (8, &u32::MAX.to_le_bytes(), "count exceeds tree capacity"),
            (33, &f32::NAN.to_le_bytes(), "bad extent"),
            (5, &[0], "layer index out of range"),
            (16, &[1], "base layer with a parent"),
            (CODED_AT, &one_less, "a base layer codes every voxel"),
        ];
        for (at, bytes, why) in cases {
            let mut mutant = stream.clone();
            mutant.data[at..][..bytes.len()].copy_from_slice(bytes);
            assert_eq!(decode(&mutant), Err(CodecError::InvalidHeader(why)));
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
