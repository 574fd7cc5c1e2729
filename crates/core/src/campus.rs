//! Campus-scale sharded simulation with roaming AP handoff (DESIGN.md
//! §4, "Campus").
//!
//! The paper evaluates one room with one AP. A *campus* scales the world
//! out: a `grid_w x grid_h` grid of identical rooms, each room an
//! independent deterministic event domain with two mmWave APs on opposite
//! walls, its own epoch coordinator, its own [`Simulator`] per AP, and its
//! own fault-injection RNG streams. Users walk the campus on
//! [`RoamingTraceGenerator`] trajectories and *hand off* between rooms.
//!
//! # Sharding and the epoch barrier
//!
//! Time is split into epochs of [`CampusParams::epoch_frames`] frames.
//! Within an epoch every room advances independently — membership,
//! associations, multicast groups, and fault schedules are frozen at the
//! epoch boundary, so rooms share no mutable state and are advanced in
//! parallel on [`volcast_util::par`]. At the barrier between epochs the
//! sequential driver re-bins every user to the room under their feet.
//! Each room then runs its epoch as:
//!
//! 1. **reconcile** — the coordinator re-associates the room's members to
//!    the best AP by RSS; carried multicast groups drop members who left
//!    the room or switched AP, and arrivals join the smallest
//!    under-capacity group on their AP;
//! 2. **one walk per AP** — the AP's stations, their rates, each group's
//!    reachable receivers and burst rate, and the AP's nominal airtime
//!    demand, from which the quality clamp scales every payload;
//! 3. **frames** — each frame's plan, admitted item by item against the
//!    AP's airtime budget;
//! 4. **replay** — the epoch's plans on the AP's simulator.
//!
//! # The hot path
//!
//! Everything inside an epoch is epoch-invariant except the per-frame
//! fault bits, so each room owns a persistent `RoomSlot` arena:
//! prepared receivers, group buffers, the plan log, fault plans, and
//! simulator scratch all survive across epochs, and the
//! per-(room, epoch) association runs on the closed-form
//! [`SweepEngine`] table instead of element sums per sector. Steady-state epochs allocate nothing (enforced by the
//! `campus_alloc` gate test).
//!
//! # Determinism contract
//!
//! `VOLCAST_THREADS` is a wall-clock knob only. Room advancement uses
//! [`par::par_for_each_mut`] (disjoint slots, positional), every per-room
//! schedule derives from `Rng::for_stream` streams keyed on (seed, room,
//! epoch, AP), and all cross-room aggregation happens in room order at
//! the barrier — so a campus run is byte-identical at any thread count.
//!
//! ```
//! use volcast_core::campus::{Campus, CampusParams};
//!
//! let params = CampusParams {
//!     grid_w: 2,
//!     grid_h: 1,
//!     users: 12,
//!     frames: 20,
//!     epoch_frames: 5,
//!     ..CampusParams::default()
//! };
//! let a = Campus::new(params.clone()).unwrap().run().unwrap();
//! let b = Campus::new(params).unwrap().run().unwrap();
//! assert_eq!(a, b); // seeded => byte-identical
//! assert_eq!(a.aps, 4);
//! ```

use crate::config::AIRTIME_BUDGET_INTERVALS;
use crate::error::VolcastError;
use crate::multi_ap::EpochCoordinator;
use volcast_geom::Vec3;
use volcast_mmwave::{Channel, Codebook, McsTable, PlanarArray, Room, SweepEngine};
use volcast_net::{
    AdMac, BacklogPolicy, Fault, FaultConfig, FaultPlan, MacModel, PlanLog, SimScratch, SimTime,
    Simulator, TxItem,
};
use volcast_pointcloud::Ladder;
use volcast_util::{obs, par};
use volcast_viewport::RoamingTraceGenerator;

/// APs per room: one on each of the two opposite walls.
const APS_PER_ROOM: usize = 2;

/// Nominal per-user frame payload in bytes (≈300 Mbps at 30 fps — the
/// medium rung of the paper's quality ladder), taken from the canonical
/// [`Ladder`] so the campus clamp and the session ABR price frames off the
/// same constant.
const FRAME_BYTES: f64 = Ladder::PLANNING_FRAME_BYTES;

/// Fraction of a member's payload covered by the group's multicast burst
/// (nominal §4.2 viewport overlap for co-located viewers).
const MULTICAST_SHARE: f64 = 0.6;

/// Nominal bytes of one multicast burst.
const MULTICAST_BYTES: f64 = MULTICAST_SHARE * FRAME_BYTES;

/// The frame interval (s) at 30 fps.
const INTERVAL_S: f64 = 1.0 / 30.0;

/// Airtime (s) one AP may admit for one frame.
const BUDGET_S: f64 = AIRTIME_BUDGET_INTERVALS * INTERVAL_S;

/// Fault domains pack the epoch into 20 bits (see
/// [`Campus::domain_fault_seed`]), so a faulted campus runs at most this
/// many epochs.
const MAX_FAULTED_EPOCHS: usize = 1 << 20;

/// Configuration of a campus run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampusParams {
    /// Rooms along x.
    pub grid_w: usize,
    /// Rooms along z.
    pub grid_h: usize,
    /// Total roaming users on the campus.
    pub users: usize,
    /// Video frames to simulate.
    pub frames: usize,
    /// Frames per epoch (the handoff/re-association cadence).
    pub epoch_frames: usize,
    /// Master seed (mobility and fault streams both derive from it).
    pub seed: u64,
    /// Maximum multicast group size.
    pub group_cap: usize,
    /// Optional fault injection, applied per (room, epoch, AP) domain
    /// with its own derived seed.
    pub faults: Option<FaultConfig>,
}

impl Default for CampusParams {
    /// The 10K-user / 100-AP configuration of the `campus` bench.
    fn default() -> Self {
        CampusParams {
            grid_w: 10,
            grid_h: 5,
            users: 10_000,
            frames: 300,
            epoch_frames: 10,
            seed: 42,
            group_cap: 16,
            faults: None,
        }
    }
}

impl CampusParams {
    /// Total AP count (`grid_w * grid_h * 2`).
    pub fn n_aps(&self) -> usize {
        self.grid_w * self.grid_h * APS_PER_ROOM
    }

    /// Total room count.
    pub fn n_rooms(&self) -> usize {
        self.grid_w * self.grid_h
    }

    fn validate(&self) -> Result<(), VolcastError> {
        let bad = |msg: &str| Err(VolcastError::InvalidParams(msg.into()));
        if self.grid_w == 0 || self.grid_h == 0 {
            return bad("campus grid must have at least one room");
        }
        if self.users == 0 {
            return bad("campus needs at least one user");
        }
        if self.frames == 0 {
            return bad("campus needs at least one frame");
        }
        if self.epoch_frames == 0 {
            return bad("epoch_frames must be at least 1");
        }
        if self.group_cap == 0 {
            return bad("group_cap must be at least 1");
        }
        if let Some(cfg) = &self.faults {
            cfg.validate().map_err(VolcastError::Net)?;
            if self.frames.div_ceil(self.epoch_frames) > MAX_FAULTED_EPOCHS {
                return bad(
                    "a faulted campus runs at most 2^20 epochs (frames / epoch_frames, rounded up)",
                );
            }
        }
        Ok(())
    }
}

/// Aggregate result of a campus run. Fully deterministic in
/// [`CampusParams`] — wall-clock throughput is reported by the bench
/// harness, never stored here.
#[derive(Debug, Clone, PartialEq)]
pub struct CampusOutcome {
    /// Users simulated.
    pub users: usize,
    /// APs simulated.
    pub aps: usize,
    /// Frames simulated.
    pub frames: usize,
    /// Room-to-room handoffs across all epoch barriers.
    pub handoffs: u64,
    /// Intra-room AP re-associations at epoch barriers.
    pub reassociations: u64,
    /// (frame, user) multicast exclusions due to injected outages (the
    /// per-frame rung-3 regroup inside an epoch).
    pub regroup_exclusions: u64,
    /// (frame, user) pairs under an injected outage or loss.
    pub fault_user_frames: u64,
    /// (frame, user) pairs scheduled for delivery.
    pub scheduled_user_frames: u64,
    /// Fraction of scheduled user-frames completed within their frame
    /// interval.
    pub on_time_ratio: f64,
    /// Fraction of scheduled user-frames completed at all.
    pub delivered_ratio: f64,
    /// Member-weighted mean of the per-AP quality clamp (1 = every AP
    /// sustained nominal quality; lower = the rung-1 clamp engaged).
    pub mean_quality_scale: f64,
    /// (frame, user) pairs whose best-sector link is below MCS
    /// sensitivity (no rate at any quality — skipped, not transmitted).
    pub unreachable_user_frames: u64,
    /// Mean multicast group size over all (room, epoch) group sets.
    pub mean_group_size: f64,
    /// Fraction of admitted bytes sent on multicast bursts.
    pub multicast_byte_fraction: f64,
    /// Busy airtime per AP in seconds, indexed `room * 2 + ap`.
    pub per_ap_airtime_s: Vec<f64>,
    /// Transmission items refused by the per-frame airtime budget.
    pub over_budget_items: u64,
    /// Worst inter-AP interference margin (dB) seen at any epoch.
    pub min_interference_margin_db: f64,
}

volcast_util::impl_json_struct!(CampusOutcome {
    users,
    aps,
    frames,
    handoffs,
    reassociations,
    regroup_exclusions,
    fault_user_frames,
    scheduled_user_frames,
    on_time_ratio,
    delivered_ratio,
    mean_quality_scale,
    unreachable_user_frames,
    mean_group_size,
    multicast_byte_fraction,
    per_ap_airtime_s,
    over_budget_items,
    min_interference_margin_db
});

/// Per-room, per-epoch statistics, merged in room order at the barrier.
#[derive(Debug, Clone, Default)]
struct RoomEpochStats {
    reassociations: u64,
    regroup_exclusions: u64,
    fault_user_frames: u64,
    scheduled_user_frames: u64,
    on_time_user_frames: u64,
    delivered_user_frames: u64,
    group_members: u64,
    group_count: u64,
    multicast_bytes: f64,
    total_bytes: f64,
    ap_airtime_s: [f64; APS_PER_ROOM],
    over_budget_items: u64,
    interference_margin_db: f64,
    quality_scale_weighted: f64,
    quality_scale_weight: u64,
    unreachable_user_frames: u64,
}

impl RoomEpochStats {
    fn new() -> Self {
        RoomEpochStats {
            interference_margin_db: f64::INFINITY,
            ..RoomEpochStats::default()
        }
    }

    /// Admits one item of `bytes` and `airtime` into AP `ap`'s frame if it
    /// fits the frame's budget beside the `spent_s` already admitted,
    /// booking it as it goes; a refused item counts as over budget.
    fn admit(
        &mut self,
        ap: usize,
        spent_s: &mut f64,
        bytes: f64,
        airtime: f64,
        multicast: bool,
    ) -> bool {
        if !airtime.is_finite() || *spent_s + airtime > BUDGET_S {
            self.over_budget_items += 1;
            return false;
        }
        *spent_s += airtime;
        self.ap_airtime_s[ap] += airtime;
        self.total_bytes += bytes;
        if multicast {
            self.multicast_bytes += bytes;
        }
        true
    }
}

/// One group's epoch-invariant share of the plan skeleton: its reachable
/// stations in [`RoomSlot::base_rx`] and its burst's rate and airtime
/// (airtime is a pure function of epoch-invariant inputs, so caching the
/// value preserves bit-identical float accumulation).
#[derive(Debug, Clone, Copy, Default)]
struct GroupMeta {
    rx_start: usize,
    rx_end: usize,
    unreachable: u64,
    /// The slowest reachable member's rate; 0 below two reachable members.
    mc_rate_mbps: f64,
    mc_airtime_s: f64,
}

/// One room's persistent arena: carried multicast-group state plus every
/// buffer the epoch hot path needs, reused across epochs so steady-state
/// epochs allocate nothing.
#[derive(Debug, Default)]
struct RoomSlot {
    /// Carried multicast groups per AP: member lists (global user ids,
    /// ascending), the lists in ascending order.
    groups: [Vec<Vec<usize>>; APS_PER_ROOM],
    /// This epoch's members (global ids, ascending), filled at the barrier.
    members: Vec<usize>,
    /// Room-local positions aligned with `members`.
    local_pos: Vec<Vec3>,
    /// This epoch's statistics, read by the merge phase.
    stats: RoomEpochStats,
    /// Scratch-backed RSS / association / beam-design engine.
    coord: EpochCoordinator,
    /// Reconcile marker per member.
    grouped: Vec<bool>,
    /// Pool of retired member vectors.
    member_pool: Vec<Vec<usize>>,
    /// The current AP's stations (global ids, ascending); a station's
    /// index here is its simulator index.
    ap_members: Vec<usize>,
    /// Per-station PHY rate (Mbps) for the current AP.
    rate: Vec<f64>,
    /// Per-station MAC goodput (Mbps) among the current AP's stations.
    goodput: Vec<f64>,
    /// Per-station full-payload airtime (s) for the current AP.
    full_air: Vec<f64>,
    /// Per-station residual-payload airtime (s) for the current AP.
    residual_air: Vec<f64>,
    /// Flattened per-group reachable stations (see [`GroupMeta`]).
    base_rx: Vec<usize>,
    /// Per-group skeleton cache, aligned with the current AP's groups.
    group_meta: Vec<GroupMeta>,
    /// Per-frame receiver list under construction.
    rx_tmp: Vec<usize>,
    /// Reusable fault schedule, regenerated per (room, epoch, AP) domain.
    fault_plan: FaultPlan,
    /// The current AP's plans, one frame of the epoch each.
    log: PlanLog,
    /// Simulator scratch.
    sim_scratch: SimScratch,
    /// Completion per `(frame, station)` of the current AP's replay.
    completion: Vec<Option<SimTime>>,
}

/// Pops a recycled vector (or makes one) with capacity for `cap` items,
/// so member vectors sized by the group cap never reallocate
/// mid-epoch once warm.
fn take_pooled(pool: &mut Vec<Vec<usize>>, cap: usize) -> Vec<usize> {
    let mut v = pool.pop().unwrap_or_default();
    v.clear();
    if v.capacity() < cap {
        v.reserve_exact(cap);
    }
    v
}

impl RoomSlot {
    /// Retires every carried group, recycling member vectors.
    fn clear_groups(&mut self) {
        for groups in self.groups.iter_mut() {
            self.member_pool.append(groups);
        }
    }

    /// Carries the groups into this epoch's association: members who left
    /// the room drop out, members whose AP changed drop out as
    /// reassociations, emptied groups retire to the pool, and every member
    /// left ungrouped joins the smallest group under `cap` on its AP (or
    /// opens one). Each AP's groups end sorted.
    fn reconcile(&mut self, cap: usize) {
        let RoomSlot {
            groups,
            members,
            stats,
            coord,
            grouped,
            member_pool,
            ..
        } = self;
        let ap_of = &coord.user_ap;
        grouped.clear();
        grouped.resize(members.len(), false);
        for (ap, carried) in groups.iter_mut().enumerate() {
            let mut kept = 0;
            for i in 0..carried.len() {
                carried[i].retain(|gid| match members.binary_search(gid) {
                    Ok(li) if ap_of[li] == ap => {
                        grouped[li] = true;
                        true
                    }
                    Ok(_) => {
                        stats.reassociations += 1;
                        false
                    }
                    Err(_) => false,
                });
                if !carried[i].is_empty() {
                    carried.swap(kept, i);
                    kept += 1;
                }
            }
            member_pool.extend(carried.drain(kept..));
        }
        for (li, &gid) in members.iter().enumerate() {
            if grouped[li] {
                continue;
            }
            let ap_groups = &mut groups[ap_of[li]];
            let target = ap_groups
                .iter_mut()
                .filter(|g| g.len() < cap)
                .min_by_key(|g| (g.len(), g[0]));
            match target {
                Some(g) => {
                    g.push(gid);
                    g.sort_unstable();
                }
                None => {
                    let mut g = take_pooled(member_pool, cap);
                    g.push(gid);
                    ap_groups.push(g);
                }
            }
        }
        for ap_groups in groups.iter_mut() {
            // Unstable sort: group member sets are disjoint and nonempty,
            // so the keys are unique and the result matches a stable sort
            // without its temporary allocation.
            ap_groups.sort_unstable();
        }
    }
}

/// A campus of rooms ready to run.
pub struct Campus {
    /// The run's configuration.
    pub params: CampusParams,
    // All rooms share the same geometry, so two channels (one per wall AP)
    // serve every room in room-local coordinates.
    channels: [Channel; APS_PER_ROOM],
    codebooks: [Codebook; APS_PER_ROOM],
    mcs: McsTable,
    mac: AdMac,
    room: Room,
    /// Per-user world-space positions per frame (orientation is not needed
    /// at campus granularity).
    positions: Vec<Vec<Vec3>>,
}

/// The stepping driver behind [`Campus::run`]: owns the persistent
/// [`RoomSlot`] arenas and advances the campus one epoch per call.
///
/// Public (but hidden) so the `campus_alloc` gate test can warm the
/// arenas and then assert that steady-state epochs allocate nothing.
#[doc(hidden)]
pub struct CampusRunner<'a> {
    campus: &'a Campus,
    engines: [SweepEngine<'a>; APS_PER_ROOM],
    slots: Vec<RoomSlot>,
    prev_room: Vec<Option<usize>>,
    epoch: usize,
    n_epochs: usize,
    handoffs: u64,
    totals: RoomEpochStats,
    per_ap_airtime_s: Vec<f64>,
}

impl Campus {
    /// Builds the campus: validates parameters, instantiates the shared
    /// room geometry, and generates every user's roaming trajectory (in
    /// parallel; each user owns a seed stream, so the result is identical
    /// at any thread count).
    pub fn new(params: CampusParams) -> Result<Campus, VolcastError> {
        params.validate()?;
        let room = Room::default();
        let make_ap = |z: f64| {
            let pos = Vec3::new(0.0, 2.6, z);
            PlanarArray::airfide(pos, Vec3::new(0.0, 1.3, 0.0) - pos)
        };
        let c1 = Channel::new(room, make_ap(room.depth / 2.0 - 0.1));
        let c2 = Channel::new(room, make_ap(-room.depth / 2.0 + 0.1));
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);

        let width_m = params.grid_w as f64 * room.width;
        let depth_m = params.grid_h as f64 * room.depth;
        let gen = RoamingTraceGenerator::new(params.seed, width_m, depth_m);
        let users: Vec<usize> = (0..params.users).collect();
        let frames = params.frames;
        let positions = par::par_map(&users, |&u| {
            gen.generate(u, frames)
                .poses
                .iter()
                .map(|p| p.position)
                .collect::<Vec<Vec3>>()
        });

        Ok(Campus {
            params,
            channels: [c1, c2],
            codebooks: [cb1, cb2],
            mcs: McsTable::dmg(),
            mac: AdMac::default(),
            room,
            positions,
        })
    }

    /// The room under `pos`, as `(room index, room-local position)`.
    fn locate(&self, pos: Vec3) -> (usize, Vec3) {
        let w = self.room.width;
        let d = self.room.depth;
        let half_w = self.params.grid_w as f64 * w / 2.0;
        let half_d = self.params.grid_h as f64 * d / 2.0;
        let ix = (((pos.x + half_w) / w) as isize).clamp(0, self.params.grid_w as isize - 1);
        let iz = (((pos.z + half_d) / d) as isize).clamp(0, self.params.grid_h as isize - 1);
        let center_x = -half_w + (ix as f64 + 0.5) * w;
        let center_z = -half_d + (iz as f64 + 0.5) * d;
        let local = Vec3::new(pos.x - center_x, pos.y, pos.z - center_z);
        (iz as usize * self.params.grid_w + ix as usize, local)
    }

    /// Derived fault seed for one (room, epoch, AP) domain: every domain
    /// owns disjoint fault streams regardless of scheduling order, as long
    /// as the epoch fits its 20 bits ([`CampusParams`] validation rejects
    /// a faulted campus with more epochs).
    fn domain_fault_seed(base: u64, room: usize, epoch: usize, ap: usize) -> u64 {
        let domain = (room as u64) << 24 | (epoch as u64) << 4 | ap as u64;
        base ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Runs the campus simulation.
    pub fn run(&self) -> Result<CampusOutcome, VolcastError> {
        let mut runner = self.runner();
        while runner.step_epoch() {}
        Ok(runner.finish())
    }

    /// Builds the reusable epoch driver (see [`CampusRunner`]).
    #[doc(hidden)]
    pub fn runner(&self) -> CampusRunner<'_> {
        let p = &self.params;
        let n_rooms = p.n_rooms();
        CampusRunner {
            campus: self,
            engines: [
                SweepEngine::new(&self.channels[0], &self.codebooks[0]),
                SweepEngine::new(&self.channels[1], &self.codebooks[1]),
            ],
            slots: (0..n_rooms).map(|_| RoomSlot::default()).collect(),
            prev_room: vec![None; p.users],
            epoch: 0,
            n_epochs: p.frames.div_ceil(p.epoch_frames),
            handoffs: 0,
            totals: RoomEpochStats::new(),
            per_ap_airtime_s: vec![0.0f64; p.n_aps()],
        }
    }

    /// Advances one room through one epoch, entirely inside its slot's
    /// arena: re-associate members to APs, reconcile the multicast groups,
    /// then serve each AP.
    fn step_room(
        &self,
        engines: &[SweepEngine<'_>; APS_PER_ROOM],
        slot: &mut RoomSlot,
        room: usize,
        epoch: usize,
    ) {
        slot.stats = RoomEpochStats::new();
        if slot.members.is_empty() {
            slot.clear_groups();
            return;
        }
        // Pure-RSS assignment (roamers carry no shared subject, so
        // viewport similarity is left to the grouping step).
        {
            let _span = obs::span("campus.room.rss");
            slot.coord.assign(engines, &slot.local_pos);
        }
        slot.stats.interference_margin_db = slot.coord.min_interference_margin_db;
        {
            let _span = obs::span("campus.room.grouping");
            slot.reconcile(self.params.group_cap);
        }
        let p = &self.params;
        let frames = p.epoch_frames.min(p.frames - epoch * p.epoch_frames);
        for ap in 0..APS_PER_ROOM {
            self.serve_ap(slot, ap, room, epoch, frames);
        }
    }

    /// Serves AP `ap` of a reconciled room for the epoch's `frames`: one
    /// walk over its stations and groups, the quality clamp, one admitted
    /// plan per frame, and the replay on the AP's simulator.
    fn serve_ap(&self, slot: &mut RoomSlot, ap: usize, room: usize, epoch: usize, frames: usize) {
        let RoomSlot {
            groups,
            members,
            stats,
            coord,
            ap_members,
            rate,
            goodput,
            full_air,
            residual_air,
            base_rx,
            group_meta,
            rx_tmp,
            fault_plan,
            log,
            sim_scratch,
            completion,
            ..
        } = slot;
        let mac = &self.mac;
        let groups = &groups[ap];
        let n_active = coord.user_ap.iter().filter(|&&a| a == ap).count();
        if n_active == 0 {
            return;
        }
        // Without faults the slot's plan stays the quiet one it was built
        // with.
        if let Some(cfg) = &self.params.faults {
            let seed = Self::domain_fault_seed(cfg.seed, room, epoch, ap);
            fault_plan
                .regenerate(FaultConfig { seed, ..*cfg }, frames, n_active)
                .expect("validated at Campus::new");
        }
        let fp: &FaultPlan = fault_plan;

        let plan_span = obs::span("campus.room.plan");
        ap_members.clear();
        rate.clear();
        goodput.clear();
        for (li, &gid) in members.iter().enumerate() {
            if coord.user_ap[li] == ap {
                let r = self.mcs.phy_rate_mbps(coord.user_rss_dbm[li]);
                ap_members.push(gid);
                rate.push(r);
                goodput.push(mac.goodput_mbps(r, n_active));
            }
        }
        // Each group's reachable stations and burst rate, and the AP's
        // nominal per-frame airtime demand: the burst at the slowest
        // reachable member's rate plus a residual unicast per reachable
        // member, or a full unicast each below two reachable members.
        // Members below MCS sensitivity (rate 0) ride nothing and count as
        // unreachable.
        base_rx.clear();
        group_meta.clear();
        let mut demand_s = 0.0f64;
        for g in groups {
            stats.group_members += g.len() as u64;
            stats.group_count += 1;
            let rx_start = base_rx.len();
            let mut min_rate = f64::INFINITY;
            for gid in g {
                let si = ap_members.binary_search(gid).expect("ap member");
                if rate[si] > 0.0 {
                    base_rx.push(si);
                    min_rate = min_rate.min(rate[si]);
                }
            }
            let n_rx = base_rx.len() - rx_start;
            let (mc_rate_mbps, member_bytes) = if n_rx >= 2 {
                demand_s += mac.airtime_s(MULTICAST_BYTES, min_rate, n_active);
                (min_rate, (1.0 - MULTICAST_SHARE) * FRAME_BYTES)
            } else {
                (0.0, FRAME_BYTES)
            };
            for &si in &base_rx[rx_start..] {
                demand_s += mac.airtime_from_goodput_s(member_bytes, goodput[si]);
            }
            group_meta.push(GroupMeta {
                rx_start,
                rx_end: base_rx.len(),
                unreachable: (g.len() - n_rx) as u64,
                mc_rate_mbps,
                mc_airtime_s: 0.0,
            });
        }
        // Rung-1 quality clamp, the campus analogue of the session's rate
        // adaptation: scale every payload so that one frame's demand fits
        // the frame interval, so that under oversubscription everybody
        // drops to a lower quality instead of most users receiving nothing.
        let quality_scale = Ladder::sustainable_scale(INTERVAL_S, demand_s);
        stats.quality_scale_weighted += quality_scale * n_active as f64;
        stats.quality_scale_weight += n_active as u64;
        let full_bytes = quality_scale * FRAME_BYTES;
        let residual_bytes = quality_scale * (1.0 - MULTICAST_SHARE) * FRAME_BYTES;
        let mc_bytes = quality_scale * MULTICAST_BYTES;
        full_air.clear();
        residual_air.clear();
        for &gp in goodput.iter() {
            full_air.push(mac.airtime_from_goodput_s(full_bytes, gp));
            residual_air.push(mac.airtime_from_goodput_s(residual_bytes, gp));
        }
        for meta in group_meta.iter_mut() {
            meta.mc_airtime_s = mac.airtime_s(mc_bytes, meta.mc_rate_mbps, n_active);
        }

        // Frames only filter the cached receivers by the frame's outage
        // bits and admit items in plan order against the budget.
        log.clear();
        for f in 0..frames {
            let faults = fp.at(f);
            log.begin_frame();
            let mut spent_s = 0.0f64;
            for (g, meta) in groups.iter().zip(group_meta.iter()) {
                // Rung-3 inside the epoch: members under an injected
                // outage are excluded from the burst for this frame.
                stats.scheduled_user_frames += g.len() as u64;
                stats.unreachable_user_frames += meta.unreachable;
                rx_tmp.clear();
                for &si in &base_rx[meta.rx_start..meta.rx_end] {
                    if faults.has(si, Fault::Outage) {
                        stats.regroup_exclusions += 1;
                    } else {
                        rx_tmp.push(si);
                    }
                }
                // Two receivers imply two reachable members, so a burst rate.
                let multicast = rx_tmp.len() > 1;
                if multicast && stats.admit(ap, &mut spent_s, mc_bytes, meta.mc_airtime_s, true) {
                    let item = TxItem::multicast(Vec::new(), mc_bytes, meta.mc_rate_mbps);
                    log.push(item, rx_tmp);
                }
                let (bytes, air) = if multicast {
                    (residual_bytes, &*residual_air)
                } else {
                    (full_bytes, &*full_air)
                };
                for &si in rx_tmp.iter() {
                    if stats.admit(ap, &mut spent_s, bytes, air[si], false) {
                        log.push(TxItem::unicast(si, bytes, rate[si]), &[si]);
                    }
                }
            }
            for si in 0..n_active {
                if faults.has(si, Fault::Outage) || faults.has(si, Fault::Loss) {
                    stats.fault_user_frames += 1;
                }
            }
        }
        drop(plan_span);

        let _sim_span = obs::span("campus.room.sim");
        let sim = Simulator::new(
            mac,
            n_active,
            n_active,
            SimTime::from_secs(INTERVAL_S),
            BacklogPolicy::Drop,
        )
        .expect("nonzero stations and interval")
        .with_faults(fp);
        sim.replay_into(log, sim_scratch, completion);
        for (f, row) in completion.chunks_exact(n_active).enumerate() {
            let deadline = sim.frame_start(f) + SimTime::from_secs(INTERVAL_S);
            for done in row.iter().flatten() {
                stats.delivered_user_frames += 1;
                if *done <= deadline {
                    stats.on_time_user_frames += 1;
                }
            }
        }
    }
}

impl CampusRunner<'_> {
    /// Rewinds the runner to epoch 0, keeping every arena's capacity: a
    /// re-run after a reset is byte-identical to the first run and, once
    /// all high-watermarks are reached, allocation-free (the alloc-gate
    /// contract; also the bench-rerun idiom).
    pub fn reset(&mut self) {
        self.epoch = 0;
        self.handoffs = 0;
        self.totals = RoomEpochStats::new();
        self.per_ap_airtime_s.fill(0.0);
        self.prev_room.fill(None);
        for slot in self.slots.iter_mut() {
            slot.clear_groups();
            slot.members.clear();
            slot.local_pos.clear();
        }
    }

    /// Advances the campus by one epoch. Returns `false` once every epoch
    /// has run.
    pub fn step_epoch(&mut self) -> bool {
        if self.epoch >= self.n_epochs {
            return false;
        }
        let epoch = self.epoch;
        let start_frame = epoch * self.campus.params.epoch_frames;

        // --- Barrier: re-bin users (their old rooms drop them at the
        // next reconcile). ---
        let mut epoch_handoffs = 0u64;
        {
            let _span = obs::span("campus.epoch.barrier");
            for slot in self.slots.iter_mut() {
                slot.members.clear();
                slot.local_pos.clear();
            }
            for (u, prev) in self.prev_room.iter_mut().enumerate() {
                let (r, local) = self.campus.locate(self.campus.positions[u][start_frame]);
                if prev.is_some_and(|old| old != r) {
                    epoch_handoffs += 1;
                }
                *prev = Some(r);
                self.slots[r].members.push(u);
                self.slots[r].local_pos.push(local);
            }
        }

        // --- Parallel phase: every room advances independently. ---
        {
            let _span = obs::span("campus.epoch.rooms");
            let campus = self.campus;
            let engines = &self.engines;
            par::par_for_each_mut(&mut self.slots, |r, slot| {
                campus.step_room(engines, slot, r, epoch);
            });
        }

        // --- Merge in room order (deterministic). ---
        {
            let _span = obs::span("campus.epoch.merge");
            let totals = &mut self.totals;
            for (r, slot) in self.slots.iter().enumerate() {
                let stats = &slot.stats;
                totals.reassociations += stats.reassociations;
                totals.regroup_exclusions += stats.regroup_exclusions;
                totals.fault_user_frames += stats.fault_user_frames;
                totals.scheduled_user_frames += stats.scheduled_user_frames;
                totals.on_time_user_frames += stats.on_time_user_frames;
                totals.delivered_user_frames += stats.delivered_user_frames;
                totals.group_members += stats.group_members;
                totals.group_count += stats.group_count;
                totals.multicast_bytes += stats.multicast_bytes;
                totals.total_bytes += stats.total_bytes;
                totals.over_budget_items += stats.over_budget_items;
                totals.quality_scale_weighted += stats.quality_scale_weighted;
                totals.quality_scale_weight += stats.quality_scale_weight;
                totals.unreachable_user_frames += stats.unreachable_user_frames;
                totals.interference_margin_db = totals
                    .interference_margin_db
                    .min(stats.interference_margin_db);
                for ap in 0..APS_PER_ROOM {
                    self.per_ap_airtime_s[r * APS_PER_ROOM + ap] += stats.ap_airtime_s[ap];
                }
            }
        }
        self.handoffs += epoch_handoffs;
        if obs::enabled() {
            obs::add("campus.handoffs", epoch_handoffs);
            obs::inc("campus.epochs");
        }
        self.epoch += 1;
        true
    }

    /// Builds the aggregate outcome after the final epoch.
    pub fn finish(self) -> CampusOutcome {
        let p = &self.campus.params;
        let totals = &self.totals;
        let sched = totals.scheduled_user_frames.max(1) as f64;
        CampusOutcome {
            users: p.users,
            aps: p.n_aps(),
            frames: p.frames,
            handoffs: self.handoffs,
            reassociations: totals.reassociations,
            regroup_exclusions: totals.regroup_exclusions,
            fault_user_frames: totals.fault_user_frames,
            scheduled_user_frames: totals.scheduled_user_frames,
            on_time_ratio: totals.on_time_user_frames as f64 / sched,
            delivered_ratio: totals.delivered_user_frames as f64 / sched,
            mean_quality_scale: totals.quality_scale_weighted
                / totals.quality_scale_weight.max(1) as f64,
            unreachable_user_frames: totals.unreachable_user_frames,
            mean_group_size: totals.group_members as f64 / totals.group_count.max(1) as f64,
            multicast_byte_fraction: totals.multicast_bytes / totals.total_bytes.max(1e-9),
            per_ap_airtime_s: self.per_ap_airtime_s,
            over_budget_items: totals.over_budget_items,
            min_interference_margin_db: totals.interference_margin_db,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampusParams {
        CampusParams {
            grid_w: 2,
            grid_h: 1,
            users: 16,
            frames: 24,
            epoch_frames: 6,
            seed: 7,
            group_cap: 4,
            faults: None,
        }
    }

    #[test]
    fn campus_runs_and_is_deterministic() {
        let a = Campus::new(small()).unwrap().run().unwrap();
        let b = Campus::new(small()).unwrap().run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.aps, 4);
        assert!(a.scheduled_user_frames > 0);
        assert!(a.delivered_ratio > 0.0, "nothing delivered: {a:?}");
        assert!(a.mean_group_size >= 1.0);
        assert_eq!(a.per_ap_airtime_s.len(), 4);
    }

    #[test]
    fn long_runs_produce_handoffs() {
        // 60 s of pedestrian roaming across two 8 m rooms must cross a
        // wall at least once.
        let params = CampusParams {
            frames: 1_800,
            epoch_frames: 30,
            users: 12,
            ..small()
        };
        let out = Campus::new(params).unwrap().run().unwrap();
        assert!(out.handoffs > 0, "no handoffs in 60 s: {out:?}");
    }

    #[test]
    fn faults_flow_into_the_domains() {
        let params = CampusParams {
            faults: Some(FaultConfig::from_spec("seed=3,outage=0.1:3,loss=0.1").unwrap()),
            ..small()
        };
        let out = Campus::new(params).unwrap().run().unwrap();
        assert!(out.fault_user_frames > 0);
        assert!(out.regroup_exclusions > 0);
        // Quiet runs see no faults.
        let quiet = Campus::new(small()).unwrap().run().unwrap();
        assert_eq!(quiet.fault_user_frames, 0);
        assert_eq!(quiet.regroup_exclusions, 0);
    }

    #[test]
    fn invalid_params_are_rejected() {
        for params in [
            CampusParams {
                grid_w: 0,
                ..small()
            },
            CampusParams {
                users: 0,
                ..small()
            },
            CampusParams {
                frames: 0,
                ..small()
            },
            CampusParams {
                epoch_frames: 0,
                ..small()
            },
            CampusParams {
                group_cap: 0,
                ..small()
            },
        ] {
            assert!(Campus::new(params).is_err());
        }
    }

    #[test]
    fn a_faulted_campus_past_2_20_epochs_is_rejected() {
        // Past 2^20 epochs two fault domains would share one seed.
        let params = CampusParams {
            grid_w: 1,
            grid_h: 1,
            users: 1,
            frames: (1 << 20) + 1,
            epoch_frames: 1,
            faults: Some(FaultConfig::from_spec("loss=0.1").unwrap()),
            ..small()
        };
        match Campus::new(params) {
            Err(e) => assert!(e.to_string().contains("2^20 epochs"), "{e}"),
            Ok(_) => panic!("a faulted campus of 2^20 + 1 epochs was accepted"),
        }
    }

    #[test]
    fn outcome_json_round_trips() {
        use volcast_util::json::{FromJson, ToJson};
        let out = Campus::new(small()).unwrap().run().unwrap();
        let back = CampusOutcome::from_json(&out.to_json()).unwrap();
        assert_eq!(back, out);
    }

    #[test]
    fn stepped_runner_matches_run() {
        let campus = Campus::new(small()).unwrap();
        let want = campus.run().unwrap();
        let mut runner = campus.runner();
        let mut epochs = 0;
        while runner.step_epoch() {
            epochs += 1;
        }
        assert_eq!(epochs, 4);
        assert_eq!(runner.finish(), want);
    }
}
