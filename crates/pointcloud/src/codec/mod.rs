//! Octree point-cloud codec (Draco substitute).
//!
//! Encoding pipeline:
//!
//! 1. Quantize point positions to `depth` bits per axis inside the cloud's
//!    bounding box (voxelization). Duplicate voxels are merged, averaging
//!    colors — the same lossy behaviour as voxelized Draco geometry.
//! 2. Sort voxels in Morton (Z-curve) order and walk the implied octree
//!    depth-first, entropy-coding each node's 8-bit occupancy mask with an
//!    adaptive binary range coder, contexts keyed by (tree level, child
//!    index).
//! 3. Quantize colors to `color_bits` per channel and code them in leaf
//!    order with per-bit-position contexts per channel.
//!
//! Decoding reverses the walk exactly (the context state machine is
//! deterministic), reconstructing voxel centers and colors.
//!
//! Rate behaviour: 300K-550K-point human-surface clouds land at roughly
//! 6-12 bits/point geometry + colors, i.e. frame sizes comparable to the
//! 235-364 Mbps @ 30 FPS ladder reported in the paper.
//!
//! Frame pipelines should hold a stateful [`Encoder`]/[`Decoder`]: all
//! codec working memory (voxel staging, radix/bitmap scratch, contexts,
//! range coder) persists across frames, making steady-state encode/decode
//! allocation-free with byte-identical bitstreams. The free
//! [`encode`]/[`decode`] functions are one-shot: a fresh instance per call.
//!
//! The encode hot path (quantization + Morton interleave) runs through the
//! explicit SIMD kernels in [`simd`], selected at runtime per CPU with a
//! byte-identical scalar fallback (`VOLCAST_NO_SIMD=1` forces it). Whole
//! groups of frames batch through [`GopEncoder`], which sweeps one private
//! encoder arena per frame across the `volcast_util::par` workers — same
//! bitstreams as the serial loop at any thread count.
//!
//! For progressive delivery, [`LayeredEncoder`]/[`LayeredDecoder`] split
//! the same voxelization into a shallow base layer plus enhancement layers
//! of deeper refinement bits and residual colors; any prefix of layers
//! decodes to the single-stream result at that prefix's depth (see
//! [`layered`](self::LayeredEncoder)).
//!
//! ```
//! use volcast_pointcloud::codec::{encode, decode, CodecConfig};
//! use volcast_pointcloud::SyntheticBody;
//!
//! let cloud = SyntheticBody::default().frame(0, 5_000);
//! let (bitstream, stats) = encode(&cloud, &CodecConfig::default());
//! assert!(stats.bits_per_point < 40.0);
//! let decoded = decode(&bitstream).unwrap();
//! assert_eq!(decoded.len(), stats.voxels);
//! ```

mod gop;
mod layered;
mod octree;
mod range;
pub mod simd;

pub use gop::GopEncoder;
pub use layered::{
    LayeredConfig, LayeredDecoder, LayeredEncoder, LayeredFrame, LayeredStats, MAX_LAYERS,
};
pub use octree::{
    decode, encode, CodecConfig, CodecError, CodecStats, Decoder, EncodedCloud, Encoder,
};
pub use range::{BitModel, RangeDecoder, RangeEncoder};
