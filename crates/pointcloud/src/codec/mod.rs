//! Octree point-cloud codec (Draco substitute): one octree, one wire order.
//!
//! Every encode starts the same way ([`Encoder`], `octree.rs`):
//!
//! 1. **Voxelize.** Quantize positions to `depth` bits per axis inside the
//!    cloud's bounding cube and Morton-interleave them through the one
//!    safe kernel in [`simd`] (an AVX2 copy of it chosen at run time where
//!    the CPU has AVX2, bit-equal to the baseline copy). Points sharing a
//!    voxel merge, their color becoming the floor-average — the same lossy
//!    behaviour as voxelized Draco geometry.
//! 2. **Tree.** Build the occupancy tree over the sorted unique codes once:
//!    an 8-bit child mask per node, stored level-major.
//! 3. **Emit** (`layered.rs`) the tree cut at increasing depths into
//!    layers, each carrying its span of levels as they lie plus color
//!    residuals against the layer below (none for a voxel that is its
//!    parent's only descendant there; the base layer's are the absolute
//!    colors), through a static rANS entropy stage (`rans.rs`: one symbol
//!    per node under its level's table of child masks, one per channel for
//!    the high half of each color value under the table of the symbol
//!    before it; the tables travel with the stream, and the low half of a
//!    color is incompressible and rides a raw bit-plane).
//!    [`LayeredEncoder`] / [`LayeredDecoder`] cut at the depths they are
//!    given; [`Encoder`] / [`Decoder`] are the one-layer case, the whole
//!    tree in the base. Any prefix of layers decodes to exactly the cloud
//!    the single stream at that prefix's depth decodes to.
//!
//! Decoding reads a layer's tables, runs the coder forwards, expands the
//! occupancy a level at a time and ends in the voxel-center /
//! bucket-center-color reconstruction.
//!
//! Rate behaviour: 300K-550K-point human-surface clouds land at roughly
//! 6-12 bits/point geometry + colors, i.e. frame sizes comparable to the
//! 235-364 Mbps @ 30 FPS ladder reported in the paper.
//!
//! Frame pipelines should hold a stateful encoder/decoder: all codec
//! working memory persists across frames, making steady-state encode and
//! decode allocation-free. The free [`encode`]/[`decode`] functions are
//! one-shot: a fresh instance per call, same bytes. Whole groups of frames
//! batch through [`GopEncoder`], which gives each `volcast_util::par`
//! worker one private [`Encoder`] for its run of frames — same bitstreams
//! as the serial loop at any thread count.
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
mod rans;
pub mod simd;

pub use gop::GopEncoder;
pub use layered::{
    decode, encode, Decoder, LayeredConfig, LayeredDecoder, LayeredEncoder, LayeredFrame,
    LayeredStats, MAX_LAYERS,
};
pub use octree::{CodecConfig, CodecError, CodecStats, EncodedCloud, Encoder};
