//! The octree codec core: what the encoder and the decoder of the wire
//! layout ([`super::layered`]) share.
//!
//! [`Encoder::voxelize`] is the front half of every encode. It quantizes
//! the cloud and Morton-interleaves it through the one kernel in
//! [`super::simd`] (one packed `(code << 24) | rgb` word per point up to
//! [`PACKED_MAX_DEPTH`], `(code, rgb)` pairs under the same quantization
//! rule beyond), deduplicates into sorted unique codes with
//! per-voxel color sums — through a flat occupancy bitmap while the key
//! space fits [`BITMAP_MAX_KEY_BITS`], a stable LSD radix sort plus
//! [`merge_runs`] above it — and builds the frame's [`Tree`] once: one
//! 8-bit child mask per node, level-major, no pointers. The bitmap is
//! all-zero between calls and a one-bit-per-word summary records what a
//! frame set, so a frame scans and clears the words it touched, not the
//! key space; the tree folds each level with no data-dependent branch. The
//! layers of a frame are cut from that tree and emitted through the
//! encoder's [`Stage`].
//!
//! The header pieces ([`write_bounds`] / [`read_bounds`], [`check_header`]),
//! the color split ([`ColorWriter`] / [`ColorReader`]) and the voxel →
//! point step every decode ends in ([`reconstruct`]) live here too.
//!
//! Of a `color_bits`-bit channel value only the high bits carry something
//! a model can learn; the low `raw = color_bits / 2` bits cost a full bit
//! each under any context (EXPERIMENTS.md), so [`split_color`] sends them
//! uncoded. A stream's **raw plane** holds, per color value in wire order,
//! the low `raw` bits of channels 0, 1, 2, packed LSB-first (the first
//! value's lowest bit is bit 0 of the first byte; the last byte is
//! zero-padded). Its length follows from the header and is checked before
//! anything is decoded or reserved. The high `color_bits - raw` bits are
//! symbols of the entropy block (`rans.rs`), each under the table of its
//! channel and of the symbol the value before sent there.
//!
//! [`Encoder`] owns all working memory — [`ScratchVec`]s, the tables of
//! `rans.rs` — so a stream of frames encodes with **zero heap allocations
//! in steady state** (`tests/codec_alloc.rs`).
// Fixed-size index loops (octree children, color channels) read clearer
// than iterator chains in this module.
#![allow(clippy::needless_range_loop)]

use super::rans::{DecModel, EncModel, RansDecoder, RansEncoder};
use super::simd::{
    self, morton_decode, morton_encode, pack_color, QuantParams, COLOR_SHIFT, PACKED_MAX_DEPTH,
};
use crate::point::{Point, PointCloud};
use std::cell::Cell;
use volcast_geom::{Aabb, Vec3};
use volcast_util::scratch::ScratchVec;

/// Codec parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecConfig {
    /// Geometry quantization: bits per axis (octree depth). The paper-scale
    /// human body at depth 10 gives ~2 mm voxels.
    pub depth: u32,
    /// Color quantization: bits per channel (1..=8).
    pub color_bits: u32,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig {
            depth: 10,
            color_bits: 6,
        }
    }
}

/// Why a bitstream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The header is shorter than the fixed header size.
    TruncatedHeader,
    /// Bad magic bytes.
    BadMagic,
    /// Header fields are inconsistent (e.g. zero depth, absurd counts).
    InvalidHeader(&'static str),
    /// The payload is truncated, its tables are malformed, or it is
    /// inconsistent with the header or with itself: it decodes fewer
    /// voxels than declared, runs off the end of the buffer, or leaves the
    /// rANS states anywhere but where the encoder started them. That last
    /// check reports nearly all damage to the coded bytes; the raw color
    /// plane and a raw level's masks have no such witness — integrity
    /// belongs to the transport (see `volcast-net::wire` checksums).
    CorruptPayload(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TruncatedHeader => write!(f, "truncated header"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::InvalidHeader(why) => write!(f, "invalid header: {why}"),
            CodecError::CorruptPayload(why) => write!(f, "corrupt payload: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An encoded cloud: header + entropy-coded payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedCloud {
    /// Serialized bitstream (header + payload).
    pub data: Vec<u8>,
}

/// Compression statistics for instrumentation and the bench harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecStats {
    /// Points in the input cloud.
    pub input_points: usize,
    /// Unique voxels after quantization (= decoded point count).
    pub voxels: usize,
    /// Compressed size in bytes.
    pub bytes: usize,
    /// Compressed bits per input point.
    pub bits_per_point: f64,
}

pub(super) const MAX_DEPTH: u32 = 16;

/// A quantized point on the deep (`depth > PACKED_MAX_DEPTH`) path:
/// (morton code, packed RGB color), each axis quantized by
/// [`simd::quantize`]. The shallow path packs both into one `u64` instead
/// ([`simd::quantize_morton_points`]), halving sort traffic.
type Voxel = (u64, u32);

/// Widest radix digit; chosen so a 30-bit key (depth 10) sorts in two
/// passes instead of three. Keys narrower than one digit still split
/// evenly (a 21-bit key sorts as two 11-bit passes, tables L1-resident).
const RADIX_MAX_DIGIT_BITS: u32 = 15;

/// Largest Morton key (`3 * depth` bits) deduplicated through the flat
/// occupancy bitmap instead of a sort: 2^24 bits = 2 MiB of persistent
/// encoder scratch at the cap, falling fast with depth (256 KiB at depth
/// 7), all-zero between calls, so its size costs memory, not time. Beyond
/// this the bitmap would dwarf the point data and the radix sort takes
/// over.
const BITMAP_MAX_KEY_BITS: u32 = 24;

/// Stable LSD radix sort by an extracted `u64` key, ping-ponging between
/// `items` and `tmp`. The digit width adapts to the key: passes are
/// minimized first (`ceil(key_bits / 15)`), then the bits are split evenly
/// across them. Passes whose digit is constant across all keys are skipped.
/// Any digit split of a stable LSD sort yields the same permutation (keys
/// ordered, ties in input order), so the downstream bitstream is unaffected
/// by the width choice. The sorted data always ends up back in `items`.
/// `counts` holds all pass histograms in one flat buffer (cleared and
/// resized per call; capacity is retained, so steady state allocates
/// nothing) and they are filled in a single read of the data.
fn radix_sort<T, K>(
    items: &mut Vec<T>,
    tmp: &mut Vec<T>,
    counts: &mut Vec<u32>,
    key_bits: u32,
    key: K,
) where
    T: Copy + Default,
    K: Fn(&T) -> u64,
{
    if items.len() < 2 {
        return;
    }
    tmp.clear();
    tmp.resize(items.len(), T::default());
    let passes = key_bits.div_ceil(RADIX_MAX_DIGIT_BITS);
    let digit_bits = key_bits.div_ceil(passes);
    let width = 1usize << digit_bits;
    let mask = (width - 1) as u64;
    counts.clear();
    counts.resize(passes as usize * width, 0);
    for it in items.iter() {
        let mut k = key(it);
        for table in counts.chunks_exact_mut(width) {
            table[(k & mask) as usize] += 1;
            k >>= digit_bits;
        }
    }
    for pass in 0..passes {
        let shift = pass * digit_bits;
        let counts = &mut counts[pass as usize * width..][..width];
        if counts.iter().any(|&c| c as usize == items.len()) {
            continue; // every key shares this digit; nothing to reorder
        }
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let n = *c;
            *c = sum;
            sum += n;
        }
        for it in items.iter() {
            let digit = ((key(it) >> shift) & mask) as usize;
            tmp[counts[digit] as usize] = *it;
            counts[digit] += 1;
        }
        std::mem::swap(items, tmp);
    }
}

/// One voxel's color accumulator: per-channel sums and merged point count.
/// The coded color is the floor-average `sum / count`.
type ColorSum = ([u32; 3], u32);

/// Adds one point's packed RGB to its voxel's accumulator.
#[inline(always)]
fn add_rgb(sum: &mut ColorSum, rgb: u32) {
    sum.0[0] += rgb & 0xFF;
    sum.0[1] += (rgb >> 8) & 0xFF;
    sum.0[2] += (rgb >> 16) & 0xFF;
    sum.1 += 1;
}

/// Folds `voxels` — `(code, contribution)` pairs in ascending code order —
/// into one `codes` entry and one accumulator per run of equal codes.
pub(super) fn merge_runs<V, A: Default>(
    voxels: impl Iterator<Item = (u64, V)>,
    add: impl Fn(&mut A, V),
    codes: &mut Vec<u64>,
    sums: &mut Vec<A>,
) {
    let mut prev = u64::MAX; // codes are < 2^48: safe sentinel
    for (code, v) in voxels {
        if code != prev {
            prev = code;
            codes.push(code);
            sums.push(A::default());
        }
        add(sums.last_mut().unwrap(), v);
    }
}

/// Calls `f` with the index of every set bit of `words`, ascending.
#[inline(always)]
fn for_each_one(words: &[u64], mut f: impl FnMut(usize)) {
    for (i, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            f(i << 6 | w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// The frame's occupancy tree, flat: for each level `L` below the leaves,
/// one 8-bit child mask per distinct length-`L` Morton prefix in ascending
/// prefix order, so level `L + 1`'s nodes are level `L`'s set bits in
/// order and nothing needs a child pointer.
pub(super) struct Tree {
    /// The levels, deepest first (the order they are built in).
    masks: ScratchVec<u8>,
    /// `span[L]` brackets level `L` in `masks`.
    span: [(usize, usize); MAX_DEPTH as usize],
}

impl Tree {
    fn new() -> Self {
        Tree {
            masks: ScratchVec::new("codec.scratch.masks"),
            span: [(0, 0); MAX_DEPTH as usize],
        }
    }

    /// Rebuilds the tree over sorted unique depth-`depth` codes, bottom up:
    /// the deepest level folds the codes into their parents' masks and
    /// prefixes, each level above folds the prefixes left by the one below
    /// — every code and every node is touched once. No codes, no nodes.
    /// `prefixes` is scratch: the prefixes of the level under construction.
    fn build(&mut self, codes: &[u64], depth: u32, prefixes: &mut Vec<u64>) {
        let masks = self.masks.begin();
        self.span = [(0, 0); MAX_DEPTH as usize];
        if codes.is_empty() {
            return;
        }
        prefixes.resize(codes.len(), 0);
        let parents = Cell::from_mut(&mut prefixes[..]).as_slice_of_cells();
        let mut n = fold(codes.len(), |i| codes[i], masks, parents);
        self.span[depth as usize - 1] = (0, n);
        for level in (0..depth as usize - 1).rev() {
            let start = masks.len();
            n = fold(n, |i| parents[i].get(), masks, parents);
            self.span[level] = (start, masks.len());
        }
        prefixes.truncate(n);
    }

    /// Level `level`'s child masks, one per node in ascending prefix order.
    pub(super) fn level(&self, level: u32) -> &[u8] {
        let (start, end) = self.span[level as usize];
        &self.masks.get()[start..end]
    }
}

/// Folds `len` sorted children, `child(i)`, into one mask per parent,
/// appended to `masks`, without a branch: a parent's children are adjacent,
/// so child `i` ORs its bit into slot `n - 1`, where `n` counts the
/// distinct parents up to it, and writes its parent's prefix to
/// `parents[n - 1]` — at or behind `i`, so a level folds in place over the
/// list it reads. Returns `n`.
#[inline(always)]
fn fold(
    len: usize,
    child: impl Fn(usize) -> u64,
    masks: &mut Vec<u8>,
    parents: &[Cell<u64>],
) -> usize {
    let start = masks.len();
    masks.resize(start + len, 0);
    let slots = &mut masks[start..];
    // Codes are < 2^48: a safe sentinel. The mask is kept in a register
    // and restarted from 0 by a new parent.
    let (mut n, mut last, mut mask) = (0, u64::MAX, 0u8);
    for i in 0..len {
        let c = child(i);
        let new = (c >> 3 != last) as usize;
        n += new;
        mask = (mask & (new as u8).wrapping_sub(1)) | 1 << (c & 0b111);
        slots[n - 1] = mask;
        parents[n - 1].set(c >> 3);
        last = c >> 3;
    }
    masks.truncate(start + n);
    n
}

/// How a quantized color value travels: `(coded, raw)` bit widths. The high
/// `coded` bits are a symbol of the entropy stage; the low `raw =
/// color_bits / 2` bits are incompressible and ride the raw plane.
pub(super) fn split_color(color_bits: u32) -> (u32, u32) {
    let raw = color_bits / 2;
    (color_bits - raw, raw)
}

/// Takes a stream's color values (leaf colors or residuals) in wire order:
/// low bits LSB-first onto the end of `out`, where the plane lies; high
/// bits counted into the model under their context and kept in `syms`
/// until the tables exist ([`put_colors`]).
pub(super) struct ColorWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    nbits: u32,
    raw: u32,
    model: &'a mut EncModel,
    syms: &'a mut Vec<[u8; 3]>,
    prev: [u8; 3],
}

impl<'a> ColorWriter<'a> {
    pub(super) fn new(
        out: &'a mut Vec<u8>,
        color_bits: u32,
        model: &'a mut EncModel,
        syms: &'a mut Vec<[u8; 3]>,
    ) -> Self {
        ColorWriter {
            out,
            acc: 0,
            nbits: 0,
            raw: split_color(color_bits).1,
            model,
            syms,
            prev: [0; 3],
        }
    }

    #[inline(always)]
    pub(super) fn emit(&mut self, value: [u32; 3]) {
        let raw = self.raw;
        let sym = value.map(|v| (v >> raw) as u8);
        for ch in 0..3 {
            self.model.count_color(ch, self.prev[ch], sym[ch]);
            self.acc |= ((value[ch] & ((1 << raw) - 1)) as u64) << self.nbits;
            self.nbits += raw;
        }
        self.prev = sym;
        self.syms.push(sym);
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Flushes the plane's last bytes, zero-padded to a whole one.
    pub(super) fn finish(self) {
        let bytes = self.nbits.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
    }
}

/// Codes the symbols a [`ColorWriter`] gathered, last value first, channel
/// `c` on state `c` under the symbol the value before sent there.
pub(super) fn put_colors(rans: &mut RansEncoder, model: &EncModel, syms: &[[u8; 3]]) {
    for i in (0..syms.len()).rev() {
        let ctx = if i == 0 { [0; 3] } else { syms[i - 1] };
        for ch in (0..3).rev() {
            model.put_color(rans, ch, ctx[ch], syms[i][ch]);
        }
    }
}

/// The inverse of [`ColorWriter`] over a plane cut off a payload.
pub(super) struct ColorReader<'a> {
    plane: &'a [u8],
    raw: u32,
}

impl<'a> ColorReader<'a> {
    /// Cuts `payload` into the raw plane of `values` colors and the
    /// entropy block behind it. `values` comes from a header, so the length
    /// it implies is checked against the buffer here, before anything
    /// trusts it.
    pub(super) fn new(
        payload: &'a [u8],
        values: usize,
        color_bits: u32,
    ) -> Result<(Self, &'a [u8]), CodecError> {
        let raw = split_color(color_bits).1;
        let len = (values as u64 * 3 * raw as u64).div_ceil(8);
        if len > payload.len() as u64 {
            return Err(CodecError::CorruptPayload("raw color plane is truncated"));
        }
        let (plane, rest) = payload.split_at(len as usize);
        Ok((ColorReader { plane, raw }, rest))
    }

    /// Decodes the stream's color values into `out`, in wire order: the
    /// high bits off `dec`, the low bits off the plane (zeros past its end,
    /// never a panic), its accumulator in locals as the rANS states are.
    pub(super) fn decode_into(self, dec: &mut RansDecoder, model: &DecModel, out: &mut [[u8; 3]]) {
        let (mut plane, raw, low) = (self.plane, self.raw, (1u32 << self.raw) - 1);
        let (mut acc, mut nbits) = (0u64, 0u32);
        model.colors(dec, out, |syms| {
            if nbits < 3 * raw {
                let (word, rest) = plane.split_at(plane.len().min(4));
                acc |= word.iter().rev().fold(0, |w, &b| w << 8 | b as u64) << nbits;
                (plane, nbits) = (rest, nbits + 32);
            }
            nbits -= 3 * raw;
            let mut value = [0u8; 3];
            for ch in 0..3 {
                value[ch] = ((syms[ch] as u32) << raw | acc as u32 & low) as u8;
                acc >>= raw;
            }
            value
        });
    }
}

/// Appends the bounds block of a base layer's header: the cube's `min` corner,
/// its side (clamped away from zero) and two reserved zeros, as `f32` LE.
pub(super) fn write_bounds(out: &mut Vec<u8>, bounds: &Aabb) {
    let extent = bounds.extent().max_component().max(1e-6);
    for v in [bounds.min.x, bounds.min.y, bounds.min.z, extent, 0.0, 0.0] {
        out.extend_from_slice(&(v as f32).to_le_bytes());
    }
}

/// Reads a bounds block back as `(min, extent)`; a header that declares
/// voxels must give them a finite positive cube to sit in.
pub(super) fn read_bounds(block: &[u8], count: usize) -> Result<(Vec3, f64), CodecError> {
    let f32_at =
        |i: usize| -> f64 { f32::from_le_bytes(block[4 * i..][..4].try_into().unwrap()) as f64 };
    let extent = f32_at(3);
    if !(extent.is_finite() && extent > 0.0) && count > 0 {
        return Err(CodecError::InvalidHeader("bad extent"));
    }
    Ok((Vec3::new(f32_at(0), f32_at(1), f32_at(2)), extent))
}

/// The range check on a header's depth, color bits and voxel count. A
/// depth-d tree holds at most 8^d leaves; a count beyond that can only come
/// from a corrupted or hostile header and is refused before anything is
/// reserved for it.
pub(super) fn check_header(depth: u32, color_bits: u32, count: usize) -> Result<(), CodecError> {
    if depth == 0 || depth > MAX_DEPTH {
        return Err(CodecError::InvalidHeader("depth out of range"));
    }
    if color_bits == 0 || color_bits > 8 {
        return Err(CodecError::InvalidHeader("color_bits out of range"));
    }
    if depth < 11 && count as u64 > 1u64 << (3 * depth) {
        return Err(CodecError::InvalidHeader("count exceeds tree capacity"));
    }
    Ok(())
}

/// Appends one point per voxel of `codes` to `out`: the voxel's center in
/// the cube at `min` of side `extent`, colored `color(i)` — voxel `i`'s
/// quantized channels — dequantized to the bucket center.
pub(super) fn reconstruct(
    codes: &[u64],
    mut color: impl FnMut(usize) -> [u32; 3],
    (depth, color_bits): (u32, u32),
    (min, extent): (Vec3, f64),
    out: &mut Vec<Point>,
) {
    let voxel = extent / (1u32 << depth) as f64;
    let shift = 8 - color_bits;
    let dequant = |v: u32| ((v << shift) + ((1u32 << shift) >> 1)).min(255) as u8;
    out.reserve(codes.len());
    for (i, &code) in codes.iter().enumerate() {
        let (x, y, z) = morton_decode(code, depth);
        let pos = min
            + Vec3::new(
                (x as f64 + 0.5) * voxel,
                (y as f64 + 0.5) * voxel,
                (z as f64 + 0.5) * voxel,
            );
        out.push(Point::new(
            [pos.x as f32, pos.y as f32, pos.z as f32],
            color(i).map(dequant),
        ));
    }
}

/// The entropy stage a layer is emitted through (`Stage::emit`, in
/// [`super::layered`]): the stream's tables, the color symbols waiting for
/// them, and the coder.
pub(super) struct Stage {
    pub(super) model: EncModel,
    pub(super) csyms: ScratchVec<[u8; 3]>,
    pub(super) rans: RansEncoder,
}

/// A reusable octree encoder owning all codec working memory.
///
/// One instance encodes a stream of frames with zero steady-state heap
/// allocations (beyond growth of the caller's output buffer): voxel
/// staging, radix scratch, code list, tree, symbol tables and the rANS
/// byte buffer are all retained across calls at their high-watermark sizes.
/// Output is byte-for-byte identical to the free [`super::encode`] function.
pub struct Encoder {
    /// Packed `(code << 24) | rgb` staging (shallow path).
    packed: ScratchVec<u64>,
    packed_tmp: ScratchVec<u64>,
    /// `(code, rgb)` staging (deep path, `depth > PACKED_MAX_DEPTH`).
    deep: ScratchVec<Voxel>,
    deep_tmp: ScratchVec<Voxel>,
    /// Flat radix histograms; cleared+resized per sort, capacity retained.
    radix_counts: Vec<u32>,
    /// Morton-space occupancy bitmap (shallow keys only, one bit per
    /// possible code; <= 2 MiB, see [`BITMAP_MAX_KEY_BITS`]). All-zero
    /// between calls: a frame clears the words it set, and only those.
    occ: Vec<u64>,
    /// One bit per `occ` word, set if this frame set a bit there (<= 32
    /// KiB); all-zero between calls too.
    touched: Vec<u64>,
    /// Exclusive prefix popcounts over the touched `occ` words: rank of the
    /// first code in each word among all occupied codes. Untouched words'
    /// entries are stale and never read.
    word_rank: Vec<u32>,
    /// What [`Encoder::voxelize`] leaves behind: sorted unique Morton
    /// codes, their color sums and quantized floor-average colors, and the
    /// occupancy tree over them.
    pub(super) codes: ScratchVec<u64>,
    pub(super) csums: ScratchVec<ColorSum>,
    pub(super) q: ScratchVec<[u8; 3]>,
    pub(super) tree: Tree,
    pub(super) stage: Stage,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// Creates an encoder with empty (cold) scratch buffers.
    pub fn new() -> Self {
        Encoder {
            packed: ScratchVec::new("codec.scratch.packed"),
            packed_tmp: ScratchVec::new("codec.scratch.packed_tmp"),
            deep: ScratchVec::new("codec.scratch.deep"),
            deep_tmp: ScratchVec::new("codec.scratch.deep_tmp"),
            radix_counts: Vec::new(),
            occ: Vec::new(),
            touched: Vec::new(),
            word_rank: Vec::new(),
            codes: ScratchVec::new("codec.scratch.codes"),
            csums: ScratchVec::new("codec.scratch.csums"),
            q: ScratchVec::new("codec.scratch.q"),
            tree: Tree::new(),
            stage: Stage {
                model: EncModel::new(),
                csyms: ScratchVec::new("codec.scratch.color_syms"),
                rans: RansEncoder::new(),
            },
        }
    }

    /// The front half of every encode: quantizes, deduplicates and
    /// color-merges `cloud` at `cfg.depth` inside its bounding cube, leaving
    /// `codes`, `csums`, `q` and `tree` for the layers to be cut from.
    /// Returns the bounds the base layer's header must carry.
    ///
    /// # Panics
    /// If `cfg.depth` is outside `1..=16` or `cfg.color_bits` outside `1..=8`.
    pub(super) fn voxelize(&mut self, cloud: &PointCloud, cfg: &CodecConfig) -> Aabb {
        check_header(cfg.depth, cfg.color_bits, 0).expect("invalid codec config");
        let bounds = if cloud.is_empty() {
            Aabb::new(Vec3::ZERO, Vec3::ZERO)
        } else {
            cloud.bounds()
        };
        let points = &cloud.points;
        let extent = bounds.extent().max_component().max(1e-6);
        let levels = 1u32 << cfg.depth;
        let scale = levels as f64 / extent;
        let q = QuantParams {
            min: [bounds.min.x, bounds.min.y, bounds.min.z],
            scale,
            max_q: levels - 1,
            depth: cfg.depth,
        };

        // Voxelize + sort + merge duplicate voxels (sorted => runs),
        // summing colors and counts so each voxel's color decodes to the
        // *average* (floor of sum/count) of its merged points.
        let codes = self.codes.begin();
        let csums = self.csums.begin();
        if cfg.depth <= PACKED_MAX_DEPTH {
            // Shallow path: one packed u64 per point through the
            // quantize + Morton kernel.
            let packed = self.packed.begin();
            simd::quantize_morton_points(points, &q, packed);
            let split = |w: u64| (w >> COLOR_SHIFT, (w & ((1 << COLOR_SHIFT) - 1)) as u32);
            if 3 * cfg.depth <= BITMAP_MAX_KEY_BITS && !packed.is_empty() {
                // Bitmap dedup: the key space is small enough that a flat
                // occupancy bitmap replaces the sort entirely. Scanning the
                // bitmap yields the unique codes already in ascending
                // (Morton) order, and prefix popcounts give each point's
                // voxel slot in O(1), so color sums accumulate in input
                // order with no 16-byte scatter passes. Identical output to
                // sort+merge: the code list is the same sorted set, and the
                // per-voxel sums are commutative. The bitmap is all-zero
                // between calls (growth zero-fills, shrinking drops zeros),
                // and `touched` says which of its words this frame set:
                // the scan, the ranks and the clear visit those alone.
                let words = (1usize << (3 * cfg.depth)).div_ceil(64);
                self.occ.resize(words, 0);
                self.touched.resize(words.div_ceil(64), 0);
                self.word_rank.resize(words, 0);
                debug_assert!(self.occ.iter().chain(&self.touched).all(|&w| w == 0));
                for &w in packed.iter() {
                    let code = split(w).0 as usize;
                    self.occ[code >> 6] |= 1u64 << (code & 63);
                    self.touched[code >> 12] |= 1u64 << ((code >> 6) & 63);
                }
                codes.reserve(packed.len().min(1usize << (3 * cfg.depth)));
                let mut total = 0u32;
                for_each_one(&self.touched, |wi| {
                    let bits = self.occ[wi];
                    self.word_rank[wi] = total;
                    total += bits.count_ones();
                    for_each_one(&[bits], |b| codes.push((wi << 6 | b) as u64));
                });
                csums.resize(codes.len(), ([0; 3], 0));
                for &w in packed.iter() {
                    let (code, rgb) = split(w);
                    let code = code as usize;
                    let below = self.occ[code >> 6] & ((1u64 << (code & 63)) - 1);
                    let slot = (self.word_rank[code >> 6] + below.count_ones()) as usize;
                    add_rgb(&mut csums[slot], rgb);
                }
                for_each_one(&self.touched, |wi| self.occ[wi] = 0);
                self.touched.fill(0);
            } else {
                // The sort is stable and keyed on the code field only, so
                // equal-code words stay in input order.
                radix_sort(
                    packed,
                    self.packed_tmp.begin(),
                    &mut self.radix_counts,
                    3 * cfg.depth,
                    |&w| split(w).0,
                );
                codes.reserve(packed.len());
                csums.reserve(packed.len());
                merge_runs(packed.iter().map(|&w| split(w)), add_rgb, codes, csums);
            }
        } else {
            // Deep path (depth 14..=16): codes no longer co-pack with the
            // color, so fall back to (code, rgb) pairs, quantized by the
            // kernel's own rule.
            let deep = self.deep.begin();
            let hi = q.max_q as f64;
            let quant = |pos: [f32; 3]| {
                let [x, y, z] = [0, 1, 2].map(|a| simd::quantize(pos[a], q.min[a], q.scale, hi));
                morton_encode(x, y, z, cfg.depth)
            };
            deep.extend(points.iter().map(|p| (quant(p.pos), pack_color(p.color))));
            radix_sort(
                deep,
                self.deep_tmp.begin(),
                &mut self.radix_counts,
                3 * cfg.depth,
                |v| v.0,
            );
            codes.reserve(deep.len());
            csums.reserve(deep.len());
            merge_runs(deep.iter().copied(), add_rgb, codes, csums);
        }
        // Each voxel's color is the floor-average of its merged points,
        // cut to the top `color_bits` bits. Most deep voxels hold one
        // point, and their average is their sum.
        let shift = 8 - cfg.color_bits;
        let quantize = |&(sums, count): &ColorSum| match count {
            1 => sums.map(|s| (s >> shift) as u8),
            _ => sums.map(|s| ((s / count) >> shift) as u8),
        };
        self.q.begin().extend(csums.iter().map(quantize));
        // The sort is over, so its ping-pong buffer is free to be the
        // tree's scratch.
        self.tree.build(codes, cfg.depth, self.packed_tmp.begin());
        bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode, Decoder};
    use crate::synthetic::SyntheticBody;

    /// Bit-by-bit reference Morton implementations (the original loop
    /// formulations) pinning the magic-mask versions.
    fn morton_encode_ref(x: u32, y: u32, z: u32, depth: u32) -> u64 {
        let mut code = 0u64;
        for i in (0..depth).rev() {
            code = (code << 3)
                | (((x >> i) & 1) as u64) << 2
                | (((y >> i) & 1) as u64) << 1
                | ((z >> i) & 1) as u64;
        }
        code
    }

    fn morton_decode_ref(code: u64, depth: u32) -> (u32, u32, u32) {
        let (mut x, mut y, mut z) = (0u32, 0u32, 0u32);
        for i in 0..depth {
            let group = (code >> (3 * i)) & 0b111;
            x |= (((group >> 2) & 1) as u32) << i;
            y |= (((group >> 1) & 1) as u32) << i;
            z |= ((group & 1) as u32) << i;
        }
        (x, y, z)
    }

    #[test]
    fn morton_round_trip() {
        for depth in [1u32, 4, 10, 16] {
            let m = (1u32 << depth) - 1;
            for (x, y, z) in [(0, 0, 0), (1 & m, 2 & m, 3 & m), (m, m, m), (m / 2, 0, m)] {
                let code = morton_encode(x, y, z, depth);
                assert_eq!(morton_decode(code, depth), (x, y, z));
            }
        }
    }

    #[test]
    fn morton_magic_masks_match_bit_loop_reference() {
        let mut rng = volcast_util::rng::Rng::seed_from_u64(0xC0DE);
        for depth in [1u32, 5, 8, 13, 16] {
            let m = (1u32 << depth) - 1;
            for _ in 0..200 {
                let (x, y, z) = (
                    rng.gen_range(0..=m as u64) as u32,
                    rng.gen_range(0..=m as u64) as u32,
                    rng.gen_range(0..=m as u64) as u32,
                );
                let code = morton_encode(x, y, z, depth);
                assert_eq!(code, morton_encode_ref(x, y, z, depth));
                assert_eq!(morton_decode(code, depth), morton_decode_ref(code, depth));
            }
        }
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        let mut rng = volcast_util::rng::Rng::seed_from_u64(0x5047);
        for (n, key_bits) in [
            (0usize, 30u32),
            (1, 3),
            (17, 12),
            (1000, 21),
            (1000, 30),
            (5000, 48),
        ] {
            let voxels: Vec<Voxel> = (0..n)
                .map(|i| {
                    let code = rng.gen_range(0..1u64 << key_bits.min(63));
                    (code, i as u32)
                })
                .collect();
            let mut expected = voxels.clone();
            expected.sort_by_key(|v| v.0); // stable comparison sort
            let mut got = voxels;
            let mut tmp = Vec::new();
            let mut counts = Vec::new();
            radix_sort(&mut got, &mut tmp, &mut counts, key_bits, |v: &Voxel| v.0);
            assert_eq!(got, expected, "n={n} bits={key_bits}");
        }
    }

    #[test]
    fn radix_sort_packed_words_matches_comparison_sort() {
        // The shallow path sorts packed (code << 24 | color) words by the
        // code field only: ties must stay in input order so the merge sees
        // the same color sequence as the pair path.
        let mut rng = volcast_util::rng::Rng::seed_from_u64(0xBEEF);
        let words: Vec<u64> = (0..4000)
            .map(|i| (rng.gen_range(0..1u64 << 21) << COLOR_SHIFT) | (i as u64 & 0xFF_FFFF))
            .collect();
        let mut expected = words.clone();
        expected.sort_by_key(|w| w >> COLOR_SHIFT);
        let mut got = words;
        let mut tmp = Vec::new();
        let mut counts = Vec::new();
        radix_sort(&mut got, &mut tmp, &mut counts, 21, |w: &u64| {
            w >> COLOR_SHIFT
        });
        assert_eq!(got, expected);
    }

    /// The obvious tree: per level, a map from node prefix to child mask.
    fn naive_tree(codes: &[u64], depth: u32) -> Vec<Vec<u8>> {
        let level = |level: u32| {
            let below = 3 * (depth - level);
            let mut nodes = std::collections::BTreeMap::<u64, u8>::new();
            for &c in codes {
                *nodes.entry(c >> below).or_default() |= 1 << ((c >> (below - 3)) & 0b111);
            }
            nodes.into_values().collect()
        };
        (0..depth).map(level).collect()
    }

    #[test]
    fn tree_matches_the_per_level_prefix_map() {
        let mut rng = volcast_util::rng::Rng::seed_from_u64(0x7_2EE);
        let mut tree = Tree::new();
        let mut check = |codes: &[u64], depth: u32| {
            tree.build(codes, depth, &mut Vec::new());
            let want = naive_tree(codes, depth);
            for level in 0..MAX_DEPTH {
                let want = want.get(level as usize).map_or(&[][..], |l| &l[..]);
                assert_eq!(tree.level(level), want, "depth {depth} level {level}");
            }
        };
        for depth in [1u32, 2, 5, 10, 16] {
            for n in [1usize, 2, 9, 300] {
                let codes: std::collections::BTreeSet<u64> = (0..n)
                    .map(|_| rng.gen_range(0..1u64 << (3 * depth)))
                    .collect();
                check(&Vec::from_iter(codes), depth);
            }
        }
        // Every node full: all 64 depth-2 codes, all 8 depth-1 codes.
        check(&Vec::from_iter(0..64), 2);
        check(&Vec::from_iter(0..8), 1);
        check(&[], 7);
    }

    #[test]
    fn morton_order_groups_spatially() {
        // The first octant (low halves) must sort before the last octant.
        let depth = 4;
        let a = morton_encode(0, 0, 0, depth);
        let b = morton_encode(7, 7, 7, depth);
        let c = morton_encode(8, 8, 8, depth);
        assert!(a < b && b < c);
    }

    #[test]
    fn empty_cloud_round_trip() {
        let (enc, stats) = encode(&PointCloud::new(), &CodecConfig::default());
        assert_eq!(stats.voxels, 0);
        let dec = decode(&enc).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn single_point_round_trip() {
        let cloud = PointCloud::from_points(vec![Point::new([1.0, 2.0, 3.0], [200, 100, 50])]);
        let (enc, stats) = encode(&cloud, &CodecConfig::default());
        assert_eq!(stats.voxels, 1);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.len(), 1);
        // Degenerate bounds: extent clamp keeps the voxel near the point.
        let p = dec.points[0].position();
        assert!((p - Vec3::new(1.0, 2.0, 3.0)).norm() < 0.01, "{p}");
    }

    #[test]
    fn duplicate_voxels_average_colors() {
        // Two points in the same voxel: the decoded color must be the
        // floor of the channel-wise mean (not last-write-wins).
        let cloud = PointCloud::from_points(vec![
            Point::new([0.0, 0.0, 0.0], [10, 20, 30]),
            Point::new([0.0, 0.0, 0.0], [13, 21, 33]),
            Point::new([1.0, 1.0, 1.0], [0, 0, 0]), // non-degenerate bounds
        ]);
        let cfg = CodecConfig {
            depth: 4,
            color_bits: 8, // lossless channel: decoded == stored average
        };
        let (enc, stats) = encode(&cloud, &cfg);
        assert_eq!(stats.voxels, 2);
        let dec = decode(&enc).unwrap();
        let merged = dec
            .points
            .iter()
            .find(|p| p.position().norm() < 0.2)
            .expect("merged voxel near origin");
        // floor((10+13)/2), floor((20+21)/2), floor((30+33)/2)
        assert_eq!(merged.color, [11, 20, 31]);
    }

    #[test]
    fn body_round_trip_geometry_error_bounded() {
        let cloud = SyntheticBody::default().frame(0, 20_000);
        let cfg = CodecConfig {
            depth: 9,
            color_bits: 6,
        };
        let (enc, stats) = encode(&cloud, &cfg);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.len(), stats.voxels);
        // Voxel size = extent / 2^9; max quantization error = voxel * sqrt(3)/2.
        let extent = cloud.bounds().extent().max_component();
        let max_err = extent / 512.0 * 3f64.sqrt() / 2.0 + 1e-6;
        // Every decoded point must be within max_err of some original point.
        // (Spot-check a sample for test speed.)
        for d in dec.points.iter().step_by(97) {
            let dp = d.position();
            let best = cloud
                .points
                .iter()
                .map(|o| o.position().distance(dp))
                .fold(f64::INFINITY, f64::min);
            assert!(
                best <= max_err,
                "decoded point {dp} off by {best} > {max_err}"
            );
        }
    }

    #[test]
    fn deep_tree_round_trip() {
        // The pair path (depth > PACKED_MAX_DEPTH) must round-trip too.
        let cloud = SyntheticBody::default().frame(0, 3_000);
        let cfg = CodecConfig {
            depth: 15,
            color_bits: 6,
        };
        let (enc, stats) = encode(&cloud, &cfg);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.len(), stats.voxels);
        assert!(stats.voxels > 0);
    }

    #[test]
    fn reused_encoder_decoder_match_fresh_instances() {
        let body = SyntheticBody::default();
        let cfg = CodecConfig {
            depth: 9,
            color_bits: 5,
        };
        let mut reused_enc = Encoder::new();
        let mut reused_dec = Decoder::new();
        let mut stream = Vec::new();
        let mut decoded = PointCloud::new();
        for frame in 0..100u64 {
            let cloud = body.frame(frame, 1_500);
            let fresh = Encoder::new().encode(&cloud, &cfg).0;
            let stats = reused_enc.encode_into(&cloud, &cfg, &mut stream);
            assert_eq!(stream, fresh.data, "frame {frame} bitstream");
            let n = reused_dec
                .decode_into(
                    &EncodedCloud {
                        data: stream.clone(),
                    },
                    &mut decoded,
                )
                .unwrap();
            assert_eq!(n, stats.voxels);
            let mut fresh_cloud = PointCloud::new();
            Decoder::new()
                .decode_into(&fresh, &mut fresh_cloud)
                .unwrap();
            assert_eq!(decoded.points, fresh_cloud.points, "frame {frame} points");
        }
    }

    #[test]
    fn compression_is_effective() {
        let cloud = SyntheticBody::default().frame(0, 50_000);
        let (_, stats) = encode(&cloud, &CodecConfig::default());
        // Raw: 12 bytes position + 3 bytes color = 120 bits/point.
        assert!(
            stats.bits_per_point < 40.0,
            "bits per point {}",
            stats.bits_per_point
        );
        assert!(stats.bits_per_point > 2.0);
    }

    #[test]
    fn deeper_quantization_costs_more_bits() {
        let cloud = SyntheticBody::default().frame(0, 20_000);
        let (_, s8) = encode(
            &cloud,
            &CodecConfig {
                depth: 8,
                color_bits: 6,
            },
        );
        let (_, s11) = encode(
            &cloud,
            &CodecConfig {
                depth: 11,
                color_bits: 6,
            },
        );
        assert!(s11.bytes > s8.bytes);
    }

    #[test]
    fn color_fidelity_within_quantization() {
        let cloud = PointCloud::from_points(vec![
            Point::new([0.0, 0.0, 0.0], [255, 0, 128]),
            Point::new([1.0, 1.0, 1.0], [0, 255, 64]),
        ]);
        let cfg = CodecConfig {
            depth: 8,
            color_bits: 6,
        };
        let (enc, _) = encode(&cloud, &cfg);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.len(), 2);
        let step = 1u32 << (8 - cfg.color_bits); // 4
        for d in &dec.points {
            let orig = cloud
                .points
                .iter()
                .min_by(|a, b| {
                    let da = a.position().distance(d.position());
                    let db = b.position().distance(d.position());
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            for ch in 0..3 {
                let err = (d.color[ch] as i32 - orig.color[ch] as i32).unsigned_abs();
                assert!(err <= step, "channel {ch} err {err}");
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let cloud = SyntheticBody::default().frame(3, 10_000);
        let (enc, stats) = encode(&cloud, &CodecConfig::default());
        assert_eq!(stats.input_points, 10_000);
        assert_eq!(stats.bytes, enc.data.len());
        assert!(stats.voxels <= stats.input_points);
        assert!((stats.bits_per_point - enc.data.len() as f64 * 8.0 / 10_000.0).abs() < 1e-9);
    }
}
