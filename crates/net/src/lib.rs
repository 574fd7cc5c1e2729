//! Deterministic discrete-event WLAN simulator for volcast.
//!
//! Event-driven in the smoltcp tradition: explicit integer-nanosecond time,
//! a deterministic time race over pending arrivals, and poll-style state
//! machines — no async runtime, no wall-clock dependence, bit-identical
//! runs for a fixed seed.
//!
//! - [`SimTime`]: the simulation clock,
//! - [`AdMac`] / [`AcMac`]: calibrated airtime models for 802.11ad
//!   service-period scheduling and 802.11ac contention (Table 1's two
//!   networks),
//! - [`TransmissionPlan`]: per-video-frame schedules mixing multicast and
//!   unicast items, executed on the MAC models,
//! - [`LinkState`]: per-user link tracker (RSS/MCS EWMA, outage detection)
//!   feeding the cross-layer rate adaptation,
//! - [`FaultPlan`]: seeded, deterministic fault schedules (link-outage
//!   bursts, blockage episodes, AP stalls, transmission-item loss,
//!   decode-deadline overruns) injected into the simulator and the
//!   session layer, with invalid inputs surfaced as [`NetError`],
//! - [`fec`]: proactive XOR-parity chunks over payload chunk groups — the
//!   degradation ladder's forward-protection rung; any single erasure in
//!   a group is rebuilt from the survivors without retransmit airtime,
//! - [`wire`]: the versioned, length-prefixed stream container (a
//!   manifest plus per-frame payload chunks) the session server speaks;
//!   every read path is bounds-checked and returns [`wire::WireError`]
//!   instead of panicking on malformed or hostile input.
//!
//! ```
//! use volcast_net::SimTime;
//!
//! // Time is integer nanoseconds: exact, totally ordered, unit-converted
//! // only at the edges.
//! let slot = SimTime::from_millis(2.0);
//! assert_eq!(slot, SimTime::from_micros(2000.0));
//! assert!(SimTime::from_millis(1.0) < slot);
//! assert_eq!(slot.saturating_sub(SimTime::from_secs(1.0)), SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod faults;
pub mod fec;
pub mod link;
pub mod mac;
pub mod plan;
pub mod sim;
pub mod time;
pub mod wifi5;
pub mod wire;

pub use error::NetError;
pub use faults::{Fault, FaultConfig, FaultPlan, FrameFaults};
pub use link::LinkState;
pub use mac::{AcMac, AdMac, MacModel};
pub use plan::{PlanLog, PlanTiming, TransmissionPlan, TxItem, TxKind};
pub use sim::{BacklogPolicy, SimScratch, Simulator};
pub use time::SimTime;
pub use wifi5::Wifi5Channel;
pub use wire::{StreamManifest, StreamReader, StreamWriter, WireCursor, WireError, WireEvent};
