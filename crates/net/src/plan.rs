//! Per-video-frame transmission plans.
//!
//! The multicast scheduler (volcast-core) emits, for each video frame, a
//! plan of items: multicast bursts carrying the overlapped cells of a group
//! and unicast bursts carrying each user's residual cells. The plan
//! executes sequentially on the medium (802.11ad service periods are TDMA),
//! realizing exactly the paper's frame-time model
//! `T_m(k) = S_m/r_m + Σ_i (S_i - S_m)/r_i`, plus optional per-item beam
//! switching overhead.

use crate::mac::MacModel;
use volcast_util::obs;

/// Who a transmission item is for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxKind {
    /// One receiver.
    Unicast {
        /// Receiving user id.
        user: usize,
    },
    /// A multicast group (the overlapped-cell payload).
    Multicast {
        /// Receiving user ids.
        members: Vec<usize>,
    },
}

/// One scheduled burst.
#[derive(Debug, Clone, PartialEq)]
pub struct TxItem {
    /// Receiver(s).
    pub kind: TxKind,
    /// Payload size in bytes.
    pub bytes: f64,
    /// XOR-parity bytes riding with the payload (see [`crate::fec`]): the
    /// proactive-FEC overhead the scheduler chose for this burst. Counted
    /// in airtime; a receiver losing one payload chunk of the burst still
    /// completes the frame from the parity.
    pub parity_bytes: f64,
    /// PHY rate the burst runs at (multicast: the group's common MCS rate).
    pub phy_mbps: f64,
    /// Beam-switch overhead paid before this burst, seconds.
    pub beam_switch_s: f64,
}

impl TxItem {
    /// A unicast burst.
    pub fn unicast(user: usize, bytes: f64, phy_mbps: f64) -> Self {
        TxItem {
            kind: TxKind::Unicast { user },
            bytes,
            parity_bytes: 0.0,
            phy_mbps,
            beam_switch_s: 0.0,
        }
    }

    /// A multicast burst.
    pub fn multicast(members: Vec<usize>, bytes: f64, phy_mbps: f64) -> Self {
        TxItem {
            kind: TxKind::Multicast { members },
            bytes,
            parity_bytes: 0.0,
            phy_mbps,
            beam_switch_s: 0.0,
        }
    }

    /// Builder: attaches proactive-FEC parity overhead to the burst.
    pub fn with_parity(mut self, parity_bytes: f64) -> Self {
        self.parity_bytes = parity_bytes;
        self
    }

    /// Bytes that actually cross the medium: payload plus parity. Exactly
    /// `bytes` when no FEC rides along (`parity_bytes == 0.0`).
    pub fn wire_bytes(&self) -> f64 {
        self.bytes + self.parity_bytes
    }

    /// The users that receive this item, borrowed (no allocation: the
    /// unicast case views the single id through `slice::from_ref`).
    pub fn receivers(&self) -> &[usize] {
        match &self.kind {
            TxKind::Unicast { user } => std::slice::from_ref(user),
            TxKind::Multicast { members } => members,
        }
    }
}

/// A frame's transmission schedule.
///
/// ```
/// use volcast_net::{AdMac, TransmissionPlan, TxItem};
///
/// let mut plan = TransmissionPlan::new();
/// // Shared cells to both users at the group MCS, residuals unicast.
/// plan.items.push(TxItem::multicast(vec![0, 1], 400_000.0, 1251.25));
/// plan.items.push(TxItem::unicast(0, 150_000.0, 2502.5));
/// plan.items.push(TxItem::unicast(1, 100_000.0, 2502.5));
/// let timing = plan.execute(&AdMac::default(), 2, 2);
/// assert!(timing.total_s > 0.0 && timing.total_s.is_finite());
/// // User 0 finishes with their residual; user 1 last.
/// assert!(timing.user_completion_s[1] > timing.user_completion_s[0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransmissionPlan {
    /// Items executed in order.
    pub items: Vec<TxItem>,
}

/// The timing outcome of executing a plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanTiming {
    /// Completion time (seconds from plan start) of each item.
    pub item_completion_s: Vec<f64>,
    /// Per-user completion: when the *last* item addressed to each user
    /// finishes (indexed by user id; `None` when no item addressed them).
    pub user_completion_s: Vec<Option<f64>>,
    /// Total airtime of the plan in seconds.
    pub total_s: f64,
}

impl TransmissionPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes scheduled.
    pub fn total_bytes(&self) -> f64 {
        self.items.iter().map(|i| i.bytes).sum()
    }

    /// Executes the plan sequentially on `mac`: [`PlanTiming::execute_into`]
    /// into a fresh timing.
    pub fn execute<M>(&self, mac: &M, n_active: usize, n_users: usize) -> PlanTiming
    where
        M: MacModel + ?Sized,
    {
        let mut timing = PlanTiming::default();
        let items = self.items.iter().map(|i| (i, i.receivers()));
        timing.execute_into(items, mac, n_active, n_users);
        timing
    }
}

impl PlanTiming {
    /// Times `items` (each with its receivers) sequentially on `mac`,
    /// rewriting this timing in place. `n_active` is the number of stations
    /// sharing the medium (for per-station MAC overhead); `n_users` sizes
    /// the per-user completion vector.
    pub fn execute_into<'a, M>(
        &mut self,
        items: impl IntoIterator<Item = (&'a TxItem, &'a [usize])>,
        mac: &M,
        n_active: usize,
        n_users: usize,
    ) where
        M: MacModel + ?Sized,
    {
        let mut t = 0.0f64;
        self.item_completion_s.clear();
        self.user_completion_s.clear();
        self.user_completion_s.resize(n_users, None);
        for (item, receivers) in items {
            let air = mac.airtime_s(item.wire_bytes(), item.phy_mbps, n_active);
            if obs::enabled() {
                match &item.kind {
                    TxKind::Multicast { .. } => {
                        obs::inc("net.plan.multicast_items");
                        obs::add("net.plan.multicast_bytes", item.bytes.max(0.0) as u64);
                    }
                    TxKind::Unicast { .. } => obs::inc("net.plan.unicast_items"),
                }
                if item.parity_bytes > 0.0 {
                    obs::inc("net.plan.fec_items");
                    obs::add("net.plan.fec_parity_bytes", item.parity_bytes as u64);
                }
                if air.is_finite() {
                    obs::record("net.plan.airtime_us", (air * 1e6).round() as u64);
                } else {
                    obs::inc("net.plan.outage_items");
                }
                if item.beam_switch_s > 0.0 {
                    obs::inc("net.plan.beam_switches");
                }
            }
            t += item.beam_switch_s;
            t += air;
            self.item_completion_s.push(t);
            for &u in receivers {
                if u < n_users {
                    self.user_completion_s[u] = Some(t);
                }
            }
        }
        self.total_s = t;
    }
}

/// Every frame's plan of a run, flat: the items, their receivers in one
/// arena (a logged multicast item's own member list stays empty) and each
/// frame's first item. Reserved once, it takes each frame's plan as its
/// last frame and the pipelined replay of all of them
/// ([`crate::Simulator::replay_into`]) without allocating.
#[derive(Debug, Clone, Default)]
pub struct PlanLog {
    items: Vec<(TxItem, usize)>,
    receivers: Vec<usize>,
    starts: Vec<usize>,
}

impl PlanLog {
    /// An empty log with room for `frames` frames of at most `items` items
    /// and `receivers` receivers each.
    pub fn with_capacity(frames: usize, items: usize, receivers: usize) -> Self {
        PlanLog {
            items: Vec::with_capacity(frames * items),
            receivers: Vec::with_capacity(frames * receivers),
            starts: Vec::with_capacity(frames),
        }
    }

    /// Empties the log, keeping its capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.items.clear();
        self.receivers.clear();
        self.starts.clear();
    }

    /// Opens a new, empty last frame.
    #[inline]
    pub fn begin_frame(&mut self) {
        self.starts.push(self.items.len());
    }

    /// Appends `item`, reaching `receivers`, to the last frame, returning
    /// its index there.
    #[inline]
    pub fn push(&mut self, item: TxItem, receivers: &[usize]) -> usize {
        debug_assert!(item.receivers().is_empty() || item.receivers() == receivers);
        self.items.push((item, self.receivers.len()));
        self.receivers.extend_from_slice(receivers);
        self.items.len() - 1 - self.starts.last().expect("a frame is open")
    }

    /// Drops every item of the last frame, which stays open.
    pub fn clear_last(&mut self) {
        let start = *self.starts.last().expect("a frame is open");
        if let Some(&(_, first)) = self.items.get(start) {
            self.receivers.truncate(first);
        }
        self.items.truncate(start);
    }

    /// Frames begun.
    pub fn frames(&self) -> usize {
        self.starts.len()
    }

    /// Frame `f`'s items, in order, each with its receivers.
    pub fn frame(&self, f: usize) -> impl ExactSizeIterator<Item = (&TxItem, &[usize])> + Clone {
        let end = self.starts.get(f + 1).copied().unwrap_or(self.items.len());
        (self.starts[f]..end).map(|i| self.item(i))
    }

    /// Item `i` of the log, with its receivers.
    #[inline]
    pub(crate) fn item(&self, i: usize) -> (&TxItem, &[usize]) {
        let next = self.items.get(i + 1).map_or(self.receivers.len(), |n| n.1);
        (&self.items[i].0, &self.receivers[self.items[i].1..next])
    }

    /// Index of frame `f`'s first item.
    pub(crate) fn start(&self, f: usize) -> usize {
        self.starts[f]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::AdMac;

    fn mac() -> AdMac {
        // Idealized MAC for exact arithmetic: no overheads, efficiency 1.
        AdMac {
            base_efficiency: 1.0,
            bhi_fraction: 0.0,
            per_sta_overhead: 0.0,
        }
    }

    #[test]
    fn empty_plan_takes_no_time() {
        let plan = TransmissionPlan::new();
        let timing = plan.execute(&mac(), 2, 2);
        assert_eq!(timing.total_s, 0.0);
        assert_eq!(timing.user_completion_s, vec![None, None]);
        assert_eq!(plan.total_bytes(), 0.0);
    }

    #[test]
    fn sequential_airtime_adds_up() {
        // 1 Mb at 1000 Mbps = 1 ms each.
        let bytes = 1e6 / 8.0;
        let mut plan = TransmissionPlan::new();
        plan.items.push(TxItem::unicast(0, bytes, 1000.0));
        plan.items.push(TxItem::unicast(1, bytes, 1000.0));
        let t = plan.execute(&mac(), 2, 2);
        assert!((t.item_completion_s[0] - 1e-3).abs() < 1e-12);
        assert!((t.item_completion_s[1] - 2e-3).abs() < 1e-12);
        assert!((t.total_s - 2e-3).abs() < 1e-12);
        assert_eq!(t.user_completion_s[0], Some(t.item_completion_s[0]));
        assert_eq!(t.user_completion_s[1], Some(t.item_completion_s[1]));
    }

    #[test]
    fn paper_frame_time_model() {
        // T_m(k) = S_m/r_m + sum_i (S_i - S_m)/r_i with two users.
        let s_m = 4e5; // overlapped bytes
        let s_1 = 6e5;
        let s_2 = 5e5;
        let r_m = 800.0; // multicast (min-MCS) Mbps
        let r_1 = 2000.0;
        let r_2 = 1500.0;
        let mut plan = TransmissionPlan::new();
        plan.items.push(TxItem::multicast(vec![0, 1], s_m, r_m));
        plan.items.push(TxItem::unicast(0, s_1 - s_m, r_1));
        plan.items.push(TxItem::unicast(1, s_2 - s_m, r_2));
        let t = plan.execute(&mac(), 2, 2);
        let expect = s_m * 8.0 / (r_m * 1e6)
            + (s_1 - s_m) * 8.0 / (r_1 * 1e6)
            + (s_2 - s_m) * 8.0 / (r_2 * 1e6);
        assert!((t.total_s - expect).abs() < 1e-12);
    }

    #[test]
    fn multicast_completes_all_members_at_once() {
        let mut plan = TransmissionPlan::new();
        plan.items
            .push(TxItem::multicast(vec![0, 1, 2], 1e5, 1000.0));
        let t = plan.execute(&mac(), 3, 4);
        assert_eq!(t.user_completion_s[0], t.user_completion_s[1]);
        assert_eq!(t.user_completion_s[1], t.user_completion_s[2]);
        assert_eq!(t.user_completion_s[3], None);
    }

    #[test]
    fn beam_switch_overhead_counts() {
        let bytes = 1e6 / 8.0;
        let mut plan = TransmissionPlan::new();
        let mut item = TxItem::unicast(0, bytes, 1000.0);
        item.beam_switch_s = 5e-3;
        plan.items.push(item);
        let t = plan.execute(&mac(), 1, 1);
        assert!((t.total_s - 6e-3).abs() < 1e-12);
    }

    #[test]
    fn outage_makes_plan_infinite() {
        let mut plan = TransmissionPlan::new();
        plan.items.push(TxItem::unicast(0, 1e5, 0.0));
        let t = plan.execute(&mac(), 1, 1);
        assert!(t.total_s.is_infinite());
    }

    #[test]
    fn parity_bytes_count_toward_airtime_only() {
        let bytes = 1e6 / 8.0;
        let mut plan = TransmissionPlan::new();
        plan.items
            .push(TxItem::unicast(0, bytes, 1000.0).with_parity(bytes / 4.0));
        let t = plan.execute(&mac(), 1, 1);
        // 1.25 Mb at 1000 Mbps = 1.25 ms on the air...
        assert!((t.total_s - 1.25e-3).abs() < 1e-12);
        // ...but goodput accounting still sees the payload only.
        assert_eq!(plan.total_bytes(), bytes);
        // Zero parity is exactly the legacy airtime.
        assert_eq!(
            TxItem::unicast(0, bytes, 1000.0).wire_bytes(),
            TxItem::unicast(0, bytes, 1000.0).bytes
        );
    }

    #[test]
    fn receivers_listing() {
        assert_eq!(TxItem::unicast(3, 1.0, 1.0).receivers(), &[3]);
        assert_eq!(TxItem::multicast(vec![1, 4], 1.0, 1.0).receivers(), &[1, 4]);
    }
}
