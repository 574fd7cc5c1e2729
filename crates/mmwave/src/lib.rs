//! 60 GHz mmWave substrate for volcast.
//!
//! Replaces the paper's physical testbed (Airfide 8-patch 802.11ad AP,
//! QCA9500 laptops, Remcom ray tracing) with a geometric simulation that
//! exercises the same code paths:
//!
//! - [`mod@array`]: uniform planar phased arrays, steering vectors, antenna
//!   weight vectors and far-field gain patterns,
//! - [`codebook`]: the default DFT sector codebook commercial 802.11ad
//!   devices sweep,
//! - [`channel`]: a room-scale geometric channel — free-space path loss at
//!   60 GHz, oxygen absorption, first-order wall reflections via the image
//!   method (the Remcom substitute), and human-body blockage,
//! - [`mcs`]: 802.11ad DMG and 802.11ac VHT MCS tables mapping RSS to PHY
//!   rate,
//! - [`multilobe`]: the paper's customized multi-lobe beam synthesis
//!   (`w = (Δ2·w1 + Δ1·w2) / (Δ1 + Δ2)`, power-normalized, generalized to
//!   k users),
//! - [`sweep`]: the closed-form, allocation-free sector sweeps and the
//!   group-beam design decision every caller runs,
//! - [`beamsearch`]: sector-sweep beam search with its latency model
//!   (5-20 ms re-search cost on blockage).
//!
//! All calibration constants live in [`calib`] with the paper anchor they
//! reproduce.
//!
//! ```
//! use volcast_geom::Vec3;
//! use volcast_mmwave::{Channel, Codebook};
//!
//! // Received signal strength for one codebook sector at a user position.
//! let channel = Channel::default_setup();
//! let codebook = Codebook::default_for(&channel.array);
//! let rss = channel.rss_dbm(&codebook.sectors()[0], Vec3::new(1.0, 1.5, -1.0), &[]);
//! assert!(rss.is_finite() && rss < 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod beamsearch;
pub mod calib;
pub mod channel;
pub mod codebook;
pub mod mcs;
pub mod multilobe;
#[cfg(test)]
mod reference;
pub mod sweep;

pub use array::{AntennaWeights, PlanarArray};
pub use beamsearch::BeamSearch;
pub use channel::{Blocker, Channel, Path, Room};
pub use codebook::Codebook;
pub use mcs::{McsEntry, McsTable};
pub use multilobe::{combine_weights, combine_weights_multi, MultiLobeDesigner};
pub use sweep::{BeamDesign, SweepEngine, SweepRx};
