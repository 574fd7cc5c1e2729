//! # volcast
//!
//! A from-scratch Rust reproduction of *"Innovating Multi-user Volumetric
//! Video Streaming through Cross-layer Design"* (HotNets 2021): a
//! multi-user volumetric video streaming system over simulated 802.11ad
//! mmWave WLANs, with
//!
//! - viewport-similarity multicast grouping (the `T_m(k)` model),
//! - customized multi-lobe beam design for mmWave multicast,
//! - joint multi-user viewport prediction with proactive blockage
//!   mitigation,
//! - cross-layer (PHY + application) bandwidth prediction and video rate
//!   adaptation,
//! - vanilla and multi-user-ViVo baseline players,
//! - and every substrate built from scratch: point-cloud codec, synthetic
//!   volumetric video, 6DoF trace generation, visibility culling, phased
//!   arrays, a 60 GHz geometric channel, and MAC airtime models.
//!
//! ## Quickstart
//!
//! ```
//! use volcast::core::{quick_session, PlayerKind};
//!
//! // Three headset users streaming 30 frames of volumetric video.
//! let mut session = quick_session(PlayerKind::Volcast, 3, 30, 42);
//! session.params.analysis_points = 4_000; // doc-test speed
//! let outcome = session.run().unwrap();
//! assert_eq!(outcome.qoe.users.len(), 3);
//! assert!(outcome.qoe.mean_fps() > 0.0);
//! ```
//!
//! The crates re-exported below can each be used standalone; see
//! `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the
//! paper-reproduction results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// 3D math: vectors, quaternions, poses, frusta, complex numbers.
pub use volcast_geom as geom;

/// Point clouds: synthetic volumetric video, cells, octree codec.
pub use volcast_pointcloud as pointcloud;

/// Viewports: traces, visibility, similarity, prediction.
pub use volcast_viewport as viewport;

/// mmWave: arrays, codebooks, channel, MCS, multi-lobe beams.
pub use volcast_mmwave as mmwave;

/// Network simulation: sim clock, MAC models, transmission plans and their replay.
pub use volcast_net as net;

/// The streaming system: grouping, adaptation, sessions, QoE.
pub mod core {
    pub use volcast_core::session::{quick_session, quick_session_with_device};
    pub use volcast_core::*;
}
