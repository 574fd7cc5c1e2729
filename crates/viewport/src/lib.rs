//! 6DoF viewport substrate for volcast.
//!
//! Provides everything the paper's §3 measurement study and §4.1 research
//! agenda need on the viewer side:
//!
//! - [`traces`]: seeded synthetic 6DoF viewport trajectories for two device
//!   classes (PH = smartphone, HM = headset), substituting for the paper's
//!   32-participant IRB user study,
//! - [`roam`]: campus-scale roaming trajectories (random-waypoint walks
//!   across a grid of rooms) driving AP handoffs in the campus simulation,
//! - [`visibility`]: per-user cell visibility maps computed with the three
//!   ViVo optimizations (frustum culling, distance-based LOD, occlusion
//!   culling),
//! - [`similarity`]: the IoU viewport-similarity metric over visibility
//!   maps, for pairs and groups,
//! - [`predict`]: single-user 6DoF viewport prediction (linear regression
//!   and MLP, as in ViVo/CoNEXT'19),
//! - [`joint`]: joint multi-user viewport prediction with inter-user
//!   proximity/occlusion awareness (§4.1),
//! - [`blockage`]: viewport-prediction-driven mmWave blockage forecasting
//!   (§4.1, "viewport prediction for proactive blockage mitigation").
//!
//! ```
//! use volcast_viewport::UserStudy;
//!
//! // Seeded studies are deterministic: same seed, same poses.
//! let a = UserStudy::generate_with(42, 10, 1, 1);
//! let b = UserStudy::generate_with(42, 10, 1, 1);
//! assert_eq!(a.len(), 2);
//! let (pa, pb) = (a.traces[0].pose(5), b.traces[0].pose(5));
//! assert_eq!(pa.position, pb.position);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockage;
pub mod io;
pub mod joint;
pub mod predict;
pub mod roam;
pub mod similarity;
pub mod traces;
pub mod visibility;

pub use blockage::{BlockageEvent, BlockageForecaster};
pub use io::{load_study, save_study};
pub use joint::JointPredictor;
pub use predict::{LinearPredictor, MlpPredictor, Predictor};
pub use roam::RoamingTraceGenerator;
pub use similarity::{group_iou, iou, overlap_bytes};
pub use traces::{DeviceClass, Trace, TraceGenerator, UserStudy};
pub use visibility::{Occluders, VisibilityComputer, VisibilityMap, VisibilityOptions};
