//! Point-cloud substrate for volcast.
//!
//! The paper streams the 8i "soldier" voxelized point-cloud video compressed
//! with Google Draco; neither artifact is redistributable here, so this crate
//! provides the synthetic equivalents (see `DESIGN.md` §2):
//!
//! - [`PointCloud`] / [`VideoSequence`]: frames of colored points,
//! - [`synthetic::SyntheticBody`]: a parametric animated humanoid sampled to
//!   an exact target density (330K/430K/550K points per frame),
//! - [`CellGrid`]: the spatial cell partition (25/50/100 cm cells, as in
//!   ViVo) that visibility, IoU and grouping price by per-cell point counts,
//! - [`codec`]: a real octree geometry codec (quantization + table-driven
//!   rANS entropy coding of child masks and colors) standing in for
//!   Draco, with matching rate behaviour,
//! - [`DecodeModel`]: the client-side decode-throughput ceiling (the paper's
//!   "550K points is the highest density decodable at 30 FPS"),
//! - [`Ladder`]: the three-version quality ladder — the one quality-level
//!   ↔ points / bitrate / octree-depth mapping a video prices frames by and
//!   the codec's layered mode, rate adaptation and campus capacity planning
//!   share.
//!
//! ```
//! use volcast_pointcloud::{CellGrid, SyntheticBody};
//!
//! // A synthetic frame at an exact density, partitioned into 50 cm cells.
//! let cloud = SyntheticBody::default().frame(0, 2_000);
//! assert_eq!(cloud.len(), 2_000);
//! let cells = CellGrid::new(0.5).partition(&cloud);
//! assert_eq!(cells.iter().map(|c| c.point_count).sum::<usize>(), 2_000);
//! ```

// `deny`, not `forbid`: the one sanctioned exception is
// `codec::simd::quantize_morton_points`, whose single `unsafe` block calls
// the AVX2-compiled copy of the kernel once the CPU has reported AVX2
// (documented, enforced by `clippy::undocumented_unsafe_blocks` in
// verify.sh). All other crates in the workspace stay at `forbid`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod codec;
pub mod decode_model;
pub mod point;
pub mod quality;
pub mod synthetic;
pub mod video;

pub use cells::{CellCounter, CellGrid, CellId, CellInfo};
pub use decode_model::DecodeModel;
pub use point::{Point, PointCloud};
pub use quality::{Ladder, Quality, QualityLevel};
pub use synthetic::SyntheticBody;
pub use video::VideoSequence;
