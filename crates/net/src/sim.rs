//! Event-driven multi-frame transmission simulation.
//!
//! [`TransmissionPlan::execute`](crate::plan::TransmissionPlan::execute)
//! times one frame's schedule in isolation. Real streaming is pipelined:
//! frame `f+1`'s bursts queue behind whatever is still on the air from
//! frame `f`. [`Simulator`] runs a sequence of per-frame plans through a
//! deterministic time race (next frame start, transmission done, AP
//! resume) and reports absolute completion times, with a choice of backlog
//! policies:
//!
//! - [`BacklogPolicy::Queue`]: late items keep transmitting (progressive
//!   download semantics); backlog accumulates when the network is
//!   overloaded.
//! - [`BacklogPolicy::Drop`]: at each frame boundary, unfinished items of
//!   older frames are abandoned (live semantics — a late volumetric frame
//!   is useless once its display slot passed).

use crate::error::NetError;
use crate::faults::{Fault, FaultPlan};
use crate::mac::MacModel;
use crate::plan::{PlanLog, TransmissionPlan, TxItem, TxKind};
use crate::time::SimTime;
use volcast_util::obs;

/// What happens to unfinished items at a frame boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BacklogPolicy {
    /// Keep transmitting old frames' items before newer ones.
    Queue,
    /// Drop unfinished items of previous frames at each new frame start.
    Drop,
}

/// Reusable buffers for [`Simulator::replay_into`]: the flattened pending
/// queue, and the log [`Simulator::run_into`] copies its plans into.
/// Steady-state reuse allocates nothing once the high-watermark capacity
/// is reached.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Pending bursts as `(frame, log index, airtime)`, referencing the
    /// log's items instead of cloning receiver lists. Consumed by a head
    /// cursor — frames start in time order, so the `Drop` policy's
    /// stale-frame purge is a prefix advance, never a `retain`.
    pending: Vec<(usize, usize, SimTime)>,
    /// The plans [`Simulator::run_into`] last replayed.
    log: PlanLog,
}

/// Event-driven pipelined executor over per-frame plans.
#[derive(Debug)]
pub struct Simulator<'a, M: MacModel + ?Sized> {
    mac: &'a M,
    /// Stations sharing the medium (for MAC overhead).
    pub n_active: usize,
    /// Users (the width of a completion table's row).
    pub n_users: usize,
    /// Frame interval.
    pub interval: SimTime,
    /// Backlog policy.
    pub policy: BacklogPolicy,
    /// Injected fault schedule (the quiet plan unless one is attached).
    faults: &'a FaultPlan,
}

/// The schedule of a simulator without injected faults.
static QUIET: FaultPlan = FaultPlan::quiet();

impl<'a, M: MacModel + ?Sized> Simulator<'a, M> {
    /// Creates a simulator. Errors on degenerate setups that used to panic
    /// (or hang) deep inside the event loop: a zero frame interval (every
    /// frame released at t=0) or zero active stations (the MAC overhead
    /// model divides by the station count).
    pub fn new(
        mac: &'a M,
        n_active: usize,
        n_users: usize,
        interval: SimTime,
        policy: BacklogPolicy,
    ) -> Result<Self, NetError> {
        if interval.0 == 0 {
            return Err(NetError::InvalidSim("zero frame interval".into()));
        }
        if n_active == 0 {
            return Err(NetError::InvalidSim("zero active stations".into()));
        }
        Ok(Simulator {
            mac,
            n_active,
            n_users,
            interval,
            policy,
            faults: &QUIET,
        })
    }

    /// Attaches a deterministic fault schedule: AP stalls suspend
    /// transmission for the stalled frames' slots, and receivers flagged
    /// with loss or outage burn airtime without completing.
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// [`Simulator::replay_into`] over one plan per frame, kept for
    /// callers that hold [`TransmissionPlan`]s: logs them into `scratch`
    /// (a multicast's members into the log's arena, not cloned with the
    /// item) and replays that log into the flat `completion` table.
    pub fn run_into(
        &self,
        plans: &[TransmissionPlan],
        scratch: &mut SimScratch,
        completion: &mut Vec<Option<SimTime>>,
    ) {
        let mut log = std::mem::take(&mut scratch.log);
        log.clear();
        for plan in plans {
            log.begin_frame();
            for item in &plan.items {
                let kind = match item.kind {
                    TxKind::Multicast { .. } => TxKind::Multicast {
                        members: Vec::new(),
                    },
                    TxKind::Unicast { user } => TxKind::Unicast { user },
                };
                log.push(TxItem { kind, ..*item }, item.receivers());
            }
        }
        self.replay_into(&log, scratch, completion);
        scratch.log = log;
    }

    /// Replays every frame of `log`, frame `f` released at `f * interval`,
    /// into one flat table: `completion[f * n_users + u]` is when user
    /// `u`'s last item of frame `f` completed (`None`: nothing reached
    /// them, or their items were dropped). Items with infinite airtime
    /// (outage) are dropped on release. Allocates nothing once `scratch`
    /// and `completion` have held a log this long.
    ///
    /// The event loop is flattened: at most three future events can exist
    /// at once — the next frame release, the in-flight burst's completion,
    /// and the pending stall-resume — so the scheduler is a 3-way minimum
    /// instead of a binary heap, and the pending queue is a cursor over an
    /// append-only vector. Results are identical to the historical
    /// heap-based loop: on time ties, frame starts (scheduled upfront with
    /// the lowest sequence numbers) precede completions and resumes, and
    /// completion/resume order is interchangeable (a resume while a burst
    /// is on the air is a no-op; a completion at the resume instant starts
    /// the next burst itself).
    pub fn replay_into(
        &self,
        log: &PlanLog,
        scratch: &mut SimScratch,
        completion: &mut Vec<Option<SimTime>>,
    ) {
        let n = self.n_users;
        completion.clear();
        completion.resize(log.frames() * n, None);
        let pending = &mut scratch.pending;
        pending.clear();
        // Every item may queue: one allocation for a longer run than any
        // before, not one per doubling.
        pending.reserve((0..log.frames()).map(|f| log.frame(f).len()).sum());
        let mut head = 0usize;
        let mut next_frame = 0usize;
        // The in-flight burst as (frame, log index), finishing at `done_at`.
        let mut transmitting: Option<(usize, usize)> = None;
        let mut done_at = SimTime(0);
        // The AP transmits nothing before this time (injected stalls);
        // `resume_pending` marks an un-fired resume at `stalled_until`
        // (several queued resumes collapse to the latest — earlier ones
        // were no-ops against the monotone `stalled_until`).
        let mut stalled_until = SimTime(0);
        let mut resume_pending = false;

        loop {
            let t_frame = (next_frame < log.frames()).then(|| self.frame_start(next_frame));
            let t_done = transmitting.map(|_| done_at);
            let t_resume = resume_pending.then_some(stalled_until);

            let is_frame = t_frame.is_some()
                && t_done.is_none_or(|t| t_frame.unwrap() <= t)
                && t_resume.is_none_or(|t| t_frame.unwrap() <= t);
            if is_frame {
                let f = next_frame;
                next_frame += 1;
                let now = t_frame.unwrap();
                obs::inc("net.sim.frames");
                obs::record("net.sim.queue_depth", (pending.len() - head) as u64);
                if self.policy == BacklogPolicy::Drop {
                    // Abandon unfinished items of older frames (the one
                    // on the air completes; preemption is not modeled).
                    let before = head;
                    while head < pending.len() && pending[head].0 < f {
                        head += 1;
                    }
                    obs::add("net.sim.dropped_items", (head - before) as u64);
                }
                if self.faults.at(f).ap_stall {
                    // The AP is down for this frame's slot: nothing new
                    // airs until the slot ends (the item already on the
                    // air completes — the stall hits the transmit path,
                    // not frames already serialized to the radio).
                    obs::inc("net.sim.faults.ap_stall_frames");
                    let resume = now + self.interval;
                    if resume > stalled_until {
                        stalled_until = resume;
                        resume_pending = true;
                    }
                }
                let first = log.start(f);
                for (idx, (item, _)) in log.frame(f).enumerate() {
                    let airtime_s = item.beam_switch_s
                        + self
                            .mac
                            .airtime_s(item.wire_bytes(), item.phy_mbps, self.n_active);
                    if !airtime_s.is_finite() {
                        obs::inc("net.sim.dropped_items");
                        continue;
                    }
                    pending.push((f, first + idx, SimTime::from_secs(airtime_s)));
                }
                if transmitting.is_none() && now >= stalled_until {
                    if let Some(&(pf, pi, airtime)) = pending.get(head) {
                        head += 1;
                        transmitting = Some((pf, pi));
                        done_at = now + airtime;
                    }
                }
            } else if t_done.is_some() && t_resume.is_none_or(|t| done_at <= t) {
                let now = done_at;
                let (frame, idx) = transmitting.take().expect("in-flight burst");
                let faults = self.faults.at(frame);
                let (item, receivers) = log.item(idx);
                for &u in receivers {
                    if u >= n {
                        continue;
                    }
                    if faults.has(u, Fault::Outage) {
                        // Airtime was burned, but this receiver got
                        // nothing usable.
                        obs::inc("net.sim.faults.lost_receptions");
                        continue;
                    }
                    if faults.has(u, Fault::Loss) {
                        // A chunk-loss fault: with XOR parity riding the
                        // burst the receiver rebuilds the missing chunk in
                        // place (see crate::fec); without it the reception
                        // is lost exactly as before.
                        if item.parity_bytes > 0.0 {
                            obs::inc("net.sim.fec_recovered_receptions");
                        } else {
                            obs::inc("net.sim.faults.lost_receptions");
                            continue;
                        }
                    }
                    completion[frame * n + u] = Some(now);
                }
                if now >= stalled_until {
                    if let Some(&(pf, pi, airtime)) = pending.get(head) {
                        head += 1;
                        transmitting = Some((pf, pi));
                        done_at = now + airtime;
                    }
                }
            } else if resume_pending {
                let now = stalled_until;
                resume_pending = false;
                if transmitting.is_none() {
                    if let Some(&(pf, pi, airtime)) = pending.get(head) {
                        head += 1;
                        transmitting = Some((pf, pi));
                        done_at = now + airtime;
                    }
                }
            } else {
                break;
            }
        }
    }

    /// When frame `frame`'s slot begins.
    pub fn frame_start(&self, frame: usize) -> SimTime {
        SimTime(self.interval.0 * frame as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::AdMac;

    fn ideal_mac() -> AdMac {
        AdMac {
            base_efficiency: 1.0,
            bhi_fraction: 0.0,
            per_sta_overhead: 0.0,
        }
    }

    /// A plan with one unicast item of `ms` milliseconds at 1000 Mbps.
    fn plan_ms(user: usize, ms: f64) -> TransmissionPlan {
        let bytes = 1000.0e6 / 8.0 * ms / 1e3;
        let mut p = TransmissionPlan::new();
        p.items.push(TxItem::unicast(user, bytes, 1000.0));
        p
    }

    fn sim(mac: &AdMac, policy: BacklogPolicy) -> Simulator<'_, AdMac> {
        Simulator::new(mac, 2, 2, SimTime::from_millis(33.333), policy).unwrap()
    }

    /// `plans` replayed on `s`, as rows of per-user completions, one per
    /// frame.
    fn replay(s: &Simulator<'_, AdMac>, plans: &[TransmissionPlan]) -> Vec<Vec<Option<SimTime>>> {
        let mut completion = Vec::new();
        s.run_into(plans, &mut SimScratch::default(), &mut completion);
        assert_eq!(completion.len(), plans.len() * s.n_users);
        completion.chunks(s.n_users).map(<[_]>::to_vec).collect()
    }

    #[test]
    fn light_load_matches_per_slot_execution() {
        let mac = ideal_mac();
        let s = sim(&mac, BacklogPolicy::Queue);
        // 10 ms per frame: always finishes inside the 33 ms slot.
        let plans: Vec<_> = (0..5).map(|_| plan_ms(0, 10.0)).collect();
        for (f, row) in replay(&s, &plans).iter().enumerate() {
            let offset = (row[0].unwrap() - s.frame_start(f)).as_millis();
            assert!((offset - 10.0).abs() < 0.01, "frame {f} offset {offset}");
            assert!(offset <= 33.333);
        }
    }

    #[test]
    fn overload_accumulates_backlog_under_queue_policy() {
        let mac = ideal_mac();
        let s = sim(&mac, BacklogPolicy::Queue);
        // 50 ms of airtime per 33 ms slot: each frame lands ~17 ms later.
        let plans: Vec<_> = (0..6).map(|_| plan_ms(0, 50.0)).collect();
        let mut prev_lateness = -1.0;
        for (f, row) in replay(&s, &plans).iter().enumerate() {
            let lateness = (row[0].unwrap() - s.frame_start(f)).as_millis();
            assert!(lateness > prev_lateness, "backlog must grow");
            prev_lateness = lateness;
        }
        // Final frame is ~6*50 - 5*33.3 ~ 133 ms after its start.
        assert!(prev_lateness > 100.0);
    }

    /// The dropped-item count is `net.sim.dropped_items`, checked in
    /// `tests/sim_drops.rs`.
    #[test]
    fn drop_policy_bounds_backlog() {
        let mac = ideal_mac();
        let s = sim(&mac, BacklogPolicy::Drop);
        let plans: Vec<_> = (0..6).map(|_| plan_ms(0, 50.0)).collect();
        // Some frames get dropped entirely; those that complete do so
        // within a bounded delay (one in-flight item + own airtime).
        let mut completed = 0;
        for (f, row) in replay(&s, &plans).iter().enumerate() {
            if let Some(t) = row[0] {
                completed += 1;
                assert!((t - s.frame_start(f)).as_millis() < 100.0);
            }
        }
        assert!(completed >= 2, "some frames must complete");
        assert!(completed < plans.len(), "overload must drop items");
    }

    #[test]
    fn multicast_completion_reaches_all_members() {
        let mac = ideal_mac();
        let s = sim(&mac, BacklogPolicy::Queue);
        let mut p = TransmissionPlan::new();
        p.items
            .push(TxItem::multicast(vec![0, 1], 1e6 / 8.0, 1000.0));
        let rows = replay(&s, &[p]);
        let (t0, t1) = (rows[0][0].unwrap(), rows[0][1].unwrap());
        assert_eq!(t0, t1);
        assert!((t0.as_millis() - 1.0).abs() < 0.01);
    }

    #[test]
    fn outage_items_are_dropped_not_stuck() {
        let mac = ideal_mac();
        let s = sim(&mac, BacklogPolicy::Queue);
        let mut p = TransmissionPlan::new();
        p.items.push(TxItem::unicast(0, 1e6, 0.0)); // outage
        p.items.push(TxItem::unicast(1, 1e6 / 8.0, 1000.0));
        let rows = replay(&s, &[p]);
        assert_eq!(rows[0][0], None);
        // User 1 still served.
        assert!(rows[0][1].is_some());
    }

    #[test]
    fn empty_plans_produce_empty_outcomes() {
        let mac = ideal_mac();
        let s = sim(&mac, BacklogPolicy::Queue);
        let rows = replay(&s, &[TransmissionPlan::new(), TransmissionPlan::new()]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().flatten().all(|c| c.is_none()));
    }

    #[test]
    fn degenerate_setups_are_errors_not_hangs() {
        let mac = ideal_mac();
        let err = Simulator::new(&mac, 2, 2, SimTime(0), BacklogPolicy::Queue);
        assert!(matches!(err, Err(crate::error::NetError::InvalidSim(_))));
        let err = Simulator::new(&mac, 0, 2, SimTime::from_millis(33.3), BacklogPolicy::Queue);
        assert!(matches!(err, Err(crate::error::NetError::InvalidSim(_))));
    }

    #[test]
    fn injected_loss_burns_airtime_without_completion() {
        use crate::faults::{FaultConfig, FaultPlan};
        let mac = ideal_mac();
        // Lose user 0's receptions in frame 0 only (scripted via blackout
        // on a 1-user mask would hit everyone; use loss at rate 1 with a
        // 1-frame plan and check frame isolation with two frames).
        let cfg = FaultConfig {
            loss_rate: 1.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(cfg, 1, 2).unwrap();
        let s = sim(&mac, BacklogPolicy::Queue).with_faults(&plan);
        let rows = replay(&s, &[plan_ms(0, 10.0), plan_ms(0, 10.0)]);
        // Frame 0 is inside the schedule (loss), frame 1 beyond it (quiet).
        assert_eq!(rows[0][0], None);
        assert!(rows[1][0].is_some());
    }

    #[test]
    fn fec_parity_survives_loss_but_not_outage() {
        use crate::faults::{FaultConfig, FaultPlan};
        let mac = ideal_mac();
        let cfg = FaultConfig {
            loss_rate: 1.0,
            ..FaultConfig::default()
        };
        let faults = FaultPlan::generate(cfg, 1, 2).unwrap();
        // Same loss schedule; the parity-carrying item recovers in place,
        // paying its overhead in airtime.
        let bytes = 1000.0e6 / 8.0 * 10.0 / 1e3; // 10 ms payload
        let mut p = TransmissionPlan::new();
        p.items
            .push(TxItem::unicast(0, bytes, 1000.0).with_parity(bytes / 4.0));
        let s = sim(&mac, BacklogPolicy::Queue).with_faults(&faults);
        let t = replay(&s, &[p])[0][0].expect("FEC must recover the loss");
        // 12.5 ms: payload + 25% parity overhead on the air.
        assert!(((t - s.frame_start(0)).as_millis() - 12.5).abs() < 0.01);

        // An outage is a dead link, not an erasure: parity cannot help.
        let cfg = FaultConfig {
            outage_rate: 1.0,
            outage_frames: 1,
            ..FaultConfig::default()
        };
        let faults = FaultPlan::generate(cfg, 1, 2).unwrap();
        let mut p = TransmissionPlan::new();
        p.items
            .push(TxItem::unicast(0, bytes, 1000.0).with_parity(bytes / 4.0));
        let s = sim(&mac, BacklogPolicy::Queue).with_faults(&faults);
        assert_eq!(replay(&s, &[p])[0][0], None);
    }

    #[test]
    fn ap_stall_defers_transmission_to_the_next_slot() {
        use crate::faults::{FaultConfig, FaultPlan};
        let mac = ideal_mac();
        let cfg = FaultConfig {
            ap_stall_rate: 1.0,
            ap_stall_frames: 1,
            ..FaultConfig::default()
        };
        // Stall frame 0 only.
        let plan = FaultPlan::generate(cfg, 1, 2).unwrap();
        let s = sim(&mac, BacklogPolicy::Queue).with_faults(&plan);
        let rows = replay(&s, &[plan_ms(0, 10.0), plan_ms(0, 10.0)]);
        // Frame 0's item airs only once the stall lifts at the frame-1
        // boundary (33.333 ms), finishing 10 ms later.
        let t0 = rows[0][0].unwrap();
        assert!((t0.as_millis() - 43.333).abs() < 0.05, "{}", t0.as_millis());
        assert!((t0 - s.frame_start(0)).as_millis() > 33.333);
        // Frame 1 queues behind it but still completes.
        assert!(rows[1][0].is_some());
    }

    #[test]
    fn beam_switch_counts_into_airtime() {
        let mac = ideal_mac();
        let s = sim(&mac, BacklogPolicy::Queue);
        let mut p = TransmissionPlan::new();
        let mut item = TxItem::unicast(0, 1e6 / 8.0, 1000.0);
        item.beam_switch_s = 5e-3;
        p.items.push(item);
        let t = replay(&s, &[p])[0][0].unwrap();
        assert!((t.as_millis() - 6.0).abs() < 0.01);
    }
}
