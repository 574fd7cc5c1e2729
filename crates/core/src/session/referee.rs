//! The pipeline referee: a slow, obvious frame loop that must produce,
//! bit for bit, what [`StreamingSession::run`](super::StreamingSession::run)
//! produces — single-stream delivery, fault-free.
//!
//! It walks the same nine stage boundaries with none of the shipped
//! loop's shortcuts:
//! - **mmWave:** a receiver is rebuilt for every evaluation (paths, losses,
//!   one set of half-angle pairs per path); a group beam is an exhaustive
//!   scan of every codebook sector against every member, then (unless
//!   every member's best sector is the common one) the multi-lobe terms
//!   and the custom-versus-default compare. Sectors, link beams and custom
//!   beams are priced by the closed form (a custom beam from the kernels
//!   of its terms), as power sums in mW. No rate caps, tables, memo or
//!   staged receivers.
//! - **grouping:** every pair of groups re-scored every merge round, its
//!   multicast rate (a fresh beam design) asked eagerly.
//! - **visibility:** maps keyed by [`CellId`] in a `BTreeMap`, dense cells
//!   in a `BTreeSet`, the partition counted from the frame's points.
//! - **replay:** fresh vectors every frame; the airtime summed item by item
//!   through [`TransmissionPlan::execute`].
//!
//! It shares with the shipped code only the axis
//! kernel, the direction program ([`PlanarArray::cosines`]), path
//! enumeration and loss, the calibration constants and
//! tables, and the stateful predictor, adapter and mitigator. [`drive`]
//! runs the session's own frame loop and shows every played frame to the
//! referee, which plays its own frame and compares the two: every user's
//! [`UserFrame`] row, the unicast rates, the groups and the plan.

use super::tests::drive;
use super::{
    DeliveryMode, Outcome, RadioKind, SessionOutcome, SessionParams, StreamingSession, Tally,
    UserFrame,
};
use crate::bandwidth::CrossLayerInputs;
use crate::config::AIRTIME_BUDGET_INTERVALS;
use crate::grouping::Group;
use crate::mitigation::{BlockageMitigator, MitigationAction, MitigationMode};
use crate::player::PlayerKind;
use crate::qoe::QoeReport;
use crate::rate_adapt::{AbrPolicy, Distress, GroupState, RateAdapter};
use std::collections::{BTreeMap, BTreeSet};
use volcast_geom::{Frustum, Pose, Ray, Vec3};
use volcast_mmwave::calib;
use volcast_mmwave::{Blocker, Channel, Codebook, PlanarArray};
use volcast_net::{
    BacklogPolicy, FaultPlan, MacModel, PlanTiming, SimScratch, SimTime, Simulator,
    TransmissionPlan, TxItem, TxKind,
};
use volcast_pointcloud::{CellGrid, CellId, CellInfo, QualityLevel};
use volcast_util::prop::run_cases_n;
use volcast_viewport::{
    BlockageEvent, BlockageForecaster, JointPredictor, UserStudy, VisibilityOptions,
};

// --- mmWave: receivers rebuilt per evaluation, exhaustive beams ---

/// `[sin, cos]` of `k·d/2 · u` and of `k·d/2 · v` toward the direction
/// with cosines `(u, v)`: what the closed form of a conjugate beam
/// ([`PlanarArray::chebyshev_u`]) reads.
fn half_angles(array: &PlanarArray, (u, v): (f64, f64)) -> [f64; 4] {
    let half_kd = 0.5
        * (2.0 * std::f64::consts::PI / calib::WAVELENGTH_M)
        * (array.spacing_wl * calib::WAVELENGTH_M);
    let (sin_a, cos_a) = (half_kd * u).sin_cos();
    let (sin_b, cos_b) = (half_kd * v).sin_cos();
    [sin_a, cos_a, sin_b, cos_b]
}

/// One usable path of a receiver: its departure direction's half-angle
/// pairs, and the power (mW) it delivers at unit array gain, element
/// pattern included.
struct PathSample {
    half: [f64; 4],
    mw: f64,
}

fn receiver(channel: &Channel, rx: Vec3, blockers: &[Blocker]) -> Vec<PathSample> {
    let array = &channel.array;
    let mut out = Vec::new();
    for path in channel.paths(rx) {
        if let Some((u, v, element)) = array.cosines(path.via - array.position) {
            let loss_db = channel.path_loss_db(&path, rx, blockers);
            out.push(PathSample {
                half: half_angles(array, (u, v)),
                mw: calib::dbm_to_mw(calib::TX_POWER_DBM + calib::RX_GAIN_DBI - loss_db) * element,
            });
        }
    }
    out
}

/// `U_{nx−1}(cos ψx) · U_{ny−1}(cos ψy)`, `√N · wᵀa` of the conjugate beam
/// toward the direction with half-angle pairs `b` at the one with `a`.
fn kernel(array: &PlanarArray, a: &[f64; 4], b: &[f64; 4]) -> f64 {
    PlanarArray::chebyshev_u(array.nx, a[1] * b[1] + a[0] * b[0])
        * PlanarArray::chebyshev_u(array.ny, a[3] * b[3] + a[2] * b[2])
}

/// RSS (mW) at a receiver of the conjugate beam toward the direction with
/// half-angle pairs `toward` — a sector of the session's DFT codebook, or
/// a link's dedicated beam — in closed form: `Σ mw / N · (U_{nx−1}(cos ψx)
/// · U_{ny−1}(cos ψy))²`.
fn conjugate_mw(array: &PlanarArray, paths: &[PathSample], toward: &[f64; 4]) -> f64 {
    let inv_n = 1.0 / (array.nx * array.ny) as f64;
    let mut total_mw = 0.0f64;
    for p in paths {
        let k = kernel(array, &p.half, toward);
        total_mw += p.mw * inv_n * (k * k);
    }
    total_mw
}

/// The conjugate beam toward `target`, priced at a receiver; `None` when
/// the AP has no direction toward it.
fn conjugate_beam_dbm(channel: &Channel, target: Vec3, paths: &[PathSample]) -> Option<f64> {
    let array = &channel.array;
    let (u, v, _) = array.cosines(target - array.position)?;
    let mw = conjugate_mw(array, paths, &half_angles(array, (u, v)));
    Some(calib::mw_to_dbm(mw))
}

/// The conjugate beam on the line of sight; `-∞` without one.
fn rss_dedicated_beam(channel: &Channel, rx: Vec3, blockers: &[Blocker]) -> f64 {
    conjugate_beam_dbm(channel, rx, &receiver(channel, rx, blockers)).unwrap_or(f64::NEG_INFINITY)
}

/// The strongest conjugate beam toward the receiver or any bounce point.
fn rss_best_beam(channel: &Channel, rx: Vec3, blockers: &[Blocker]) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for path in channel.paths(rx) {
        if let Some(rss) = conjugate_beam_dbm(channel, path.via, &receiver(channel, rx, blockers)) {
            best = best.max(rss);
        }
    }
    best
}

fn min_of(rss: &[f64]) -> f64 {
    rss.iter().copied().fold(f64::INFINITY, f64::min)
}

fn to_dbm(mw: &[f64]) -> Vec<f64> {
    mw.iter().map(|&mw| calib::mw_to_dbm(mw)).collect()
}

/// First sector (strict `>`) maximizing the members' minimum RSS, with
/// its per-member RSS, all in mW: `-∞ dBm` is 0, so a sector that misses
/// a member never wins, and if every one does the answer is sector 0 at 0.
fn scan(channel: &Channel, codebook: &Codebook, members: &[Vec<PathSample>]) -> (usize, Vec<f64>) {
    let (mut best_idx, mut best_min) = (0, 0.0);
    let mut best_mw = vec![0.0; members.len()];
    for (i, &dir) in codebook.directions().iter().enumerate() {
        let cosines = (dir.azimuth.sin() * dir.elevation.cos(), dir.elevation.sin());
        let toward = half_angles(&channel.array, cosines);
        let mw: Vec<f64> = (members.iter())
            .map(|p| conjugate_mw(&channel.array, p, &toward))
            .collect();
        if min_of(&mw) > best_min {
            best_min = min_of(&mw);
            best_idx = i;
            best_mw = mw;
        }
    }
    (best_idx, best_mw)
}

/// `(member RSS, customized)` of a member set's group beam: the best
/// common sector, or — with custom beams, unless every member's own best
/// sector is the common one, and when it raises the common RSS — each
/// member's best sector combined into one multi-lobe beam `Σ c·w` (one
/// term per distinct sector, `c` its members' `1/mw` summed in member
/// order), priced by the kernels of its terms: `Σ mw·(Σ c·K)² / G`, with
/// `G = Σ_i c_i·(c_i·K_ii + 2·Σ_{j<i} c_j·K_ij)`, and nothing where `G = 0`.
fn design(s: &StreamingSession, members: &[Vec3], bodies: &[Blocker]) -> (Vec<f64>, bool) {
    let (channel, codebook) = (&s.channel, &s.codebook);
    let rxs: Vec<Vec<PathSample>> = (members.iter())
        .map(|&m| receiver(channel, m, bodies))
        .collect();
    let (common, default_mw) = scan(channel, codebook, &rxs);
    let default_rss = to_dbm(&default_mw);
    if s.params.custom_beams && members.len() >= 2 {
        let bests: Vec<(usize, Vec<f64>)> = (rxs.iter())
            .map(|rx| scan(channel, codebook, std::slice::from_ref(rx)))
            .collect();
        // Every member's own best sector is the common one: a tie, and the
        // default beam is kept.
        if bests.iter().all(|(idx, _)| *idx == common) {
            return (default_rss, false);
        }
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for (idx, mw) in &bests {
            let c = 1.0 / mw[0].max(1e-15);
            match terms.iter_mut().find(|t| t.0 == *idx) {
                Some(t) => t.1 += c,
                None => terms.push((*idx, c)),
            }
        }
        let lobes: Vec<(f64, [f64; 4])> = (terms.iter())
            .map(|&(idx, c)| {
                let dir = codebook.directions()[idx];
                let cosines = (dir.azimuth.sin() * dir.elevation.cos(), dir.elevation.sin());
                (c, half_angles(&channel.array, cosines))
            })
            .collect();
        let mut gram = 0.0;
        for (i, (c, h)) in lobes.iter().enumerate() {
            let mut cross = 0.0;
            for (cj, hj) in &lobes[..i] {
                cross += cj * kernel(&channel.array, h, hj);
            }
            gram += c * (c * kernel(&channel.array, h, h) + 2.0 * cross);
        }
        let custom_rss: Vec<f64> = (rxs.iter())
            .map(|paths| {
                let mut total_mw = 0.0f64;
                for p in paths.iter().filter(|_| gram > 0.0) {
                    let r: f64 = (lobes.iter())
                        .fold(0.0, |r, (c, h)| r + c * kernel(&channel.array, &p.half, h));
                    total_mw += p.mw * (r * r / gram);
                }
                calib::mw_to_dbm(total_mw)
            })
            .collect();
        if min_of(&custom_rss) > min_of(&default_rss) {
            return (custom_rss, true);
        }
    }
    (default_rss, false)
}

// --- visibility: BTreeMap maps over a partition counted from points ---

type Map = BTreeMap<CellId, f64>;

fn visibility(pose: &Pose, o: &VisibilityOptions, grid: &CellGrid, cells: &[CellInfo]) -> Map {
    let mut map = Map::new();
    if cells.is_empty() {
        return map;
    }
    let frustum = Frustum::from_pose(pose, &o.intrinsics);
    let dense: BTreeSet<CellId> = if o.occlusion {
        (cells.iter())
            .filter(|c| c.point_count >= o.occluder_min_points)
            .map(|c| c.id)
            .collect()
    } else {
        BTreeSet::new()
    };
    for cell in cells {
        let bounds = grid.cell_bounds(cell.id);
        if o.viewport && !frustum.intersects_aabb(&bounds) {
            continue;
        }
        if o.occlusion {
            let center = bounds.center();
            let mut samples = vec![center];
            samples.extend(bounds.corners().into_iter().map(|c| c.lerp(center, 0.1)));
            let hidden = |p: Vec3| point_occluded(pose.position, p, cell.id, grid, &dense, o);
            if samples.into_iter().all(hidden) {
                continue;
            }
        }
        let lod = if o.distance {
            let distance = pose.position.distance(bounds.center());
            if distance <= o.lod_near {
                1.0
            } else if distance >= o.lod_far {
                o.lod_min
            } else {
                let t = (distance - o.lod_near) / (o.lod_far - o.lod_near);
                1.0 + t * (o.lod_min - 1.0)
            }
        } else {
            1.0
        };
        map.insert(cell.id, lod);
    }
    map
}

/// 3D DDA from the eye toward `point`: occluded once `occluder_depth`
/// dense cells lie strictly between the eye and the target cell.
fn point_occluded(
    eye: Vec3,
    point: Vec3,
    target: CellId,
    grid: &CellGrid,
    dense: &BTreeSet<CellId>,
    o: &VisibilityOptions,
) -> bool {
    let Some(ray) = Ray::between(eye, point) else {
        return false;
    };
    let total_dist = eye.distance(point);
    let mut cell = grid.cell_of(eye);
    let dir = [ray.direction.x, ray.direction.y, ray.direction.z];
    let step = dir.map(|d| if d > 0.0 { 1i32 } else { -1 });
    let (eye, at) = ([eye.x, eye.y, eye.z], [cell.x, cell.y, cell.z]);
    let mut t_max = [f64::INFINITY; 3];
    let mut t_delta = [f64::INFINITY; 3];
    for a in 0..3 {
        if dir[a].abs() >= 1e-12 {
            let edge = if step[a] > 0 { at[a] + 1 } else { at[a] };
            t_max[a] = (grid.origin[a] + edge as f64 * grid.cell_size - eye[a]) / dir[a];
            t_delta[a] = grid.cell_size / dir[a].abs();
        }
    }
    let mut blockers = 0;
    for _ in 0..4096 {
        if cell == target {
            return false;
        }
        let axis = if t_max[0] <= t_max[1] && t_max[0] <= t_max[2] {
            0
        } else if t_max[1] <= t_max[2] {
            1
        } else {
            2
        };
        if t_max[axis] > total_dist {
            return false;
        }
        match axis {
            0 => cell.x += step[0],
            1 => cell.y += step[1],
            _ => cell.z += step[2],
        }
        t_max[axis] += t_delta[axis];
        if cell != target && dense.contains(&cell) {
            blockers += 1;
            if blockers >= o.occluder_depth {
                return true;
            }
        }
    }
    false
}

/// `Σ size × lod` over the cells of `lods` in ascending id order.
fn priced_bytes(cells: &[CellInfo], sizes: &[f64], lods: &Map) -> f64 {
    (cells.iter().zip(sizes))
        .filter_map(|(c, &size)| lods.get(&c.id).map(|&lod| size * lod))
        .sum()
}

fn group_iou(maps: &[&Map]) -> f64 {
    let union: BTreeSet<CellId> = maps.iter().flat_map(|m| m.keys().copied()).collect();
    let inter = (union.iter())
        .filter(|id| maps.iter().all(|m| m.contains_key(id)))
        .count();
    if union.is_empty() {
        1.0
    } else {
        inter as f64 / union.len() as f64
    }
}

/// The bytes every member needs, each cell at the most demanding LOD.
fn overlap_bytes(maps: &[&Map], cells: &[CellInfo], sizes: &[f64]) -> f64 {
    let shared: Map = (maps[0].keys())
        .filter(|id| maps.iter().all(|m| m.contains_key(id)))
        .map(|&id| (id, maps.iter().map(|m| m[&id]).fold(0.0f64, f64::max)))
        .collect();
    priced_bytes(cells, sizes, &shared)
}

// --- grouping: all pairs re-scored every round, rates asked eagerly ---

fn group_time_s(g: &Group, member_bytes: &[f64], unicast: &[f64]) -> f64 {
    let mut t = 0.0;
    if g.members.len() >= 2 && g.multicast_bytes > 0.0 {
        if g.multicast_rate_mbps <= 0.0 {
            return f64::INFINITY;
        }
        t += g.multicast_bytes * 8.0 / (g.multicast_rate_mbps * 1e6);
    }
    for &u in &g.members {
        let residual = (member_bytes[u] - g.multicast_bytes).max(0.0);
        if residual <= 0.0 {
            continue;
        }
        if unicast[u] <= 0.0 {
            return f64::INFINITY;
        }
        t += residual * 8.0 / (unicast[u] * 1e6);
    }
    t
}

fn plan_groups(
    min_iou: f64,
    maps: &[Map],
    cells: &[CellInfo],
    sizes: &[f64],
    unicast: &[f64],
    rate: &dyn Fn(&[usize]) -> f64,
) -> Vec<Group> {
    let member_bytes: Vec<f64> = maps.iter().map(|m| priced_bytes(cells, sizes, m)).collect();
    let mut groups: Vec<Group> = (0..maps.len())
        .map(|u| Group {
            members: vec![u],
            multicast_bytes: 0.0,
            multicast_rate_mbps: 0.0,
            iou: 1.0,
        })
        .collect();
    loop {
        let times: Vec<f64> = (groups.iter())
            .map(|g| group_time_s(g, &member_bytes, unicast))
            .collect();
        let current: f64 = times.iter().sum();
        let mut best: Option<(usize, usize, Group, f64)> = None;
        for i in 0..groups.len() {
            for j in i + 1..groups.len() {
                let mut members = [&groups[i].members[..], &groups[j].members[..]].concat();
                members.sort_unstable();
                let member_maps: Vec<&Map> = members.iter().map(|&u| &maps[u]).collect();
                let iou = group_iou(&member_maps);
                if iou < min_iou {
                    continue;
                }
                let s_m = overlap_bytes(&member_maps, cells, sizes);
                if s_m <= 0.0 {
                    continue;
                }
                let r_m = rate(&members);
                if r_m <= 0.0 {
                    continue;
                }
                let candidate = Group {
                    members,
                    multicast_bytes: s_m,
                    multicast_rate_mbps: r_m,
                    iou,
                };
                let t: f64 = (times.iter().enumerate())
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, &t)| t)
                    .chain([group_time_s(&candidate, &member_bytes, unicast)])
                    .sum();
                match &best {
                    Some((_, _, _, bt)) if *bt <= t => {}
                    _ if t < current => best = Some((i, j, candidate, t)),
                    _ => {}
                }
            }
        }
        let Some((i, j, merged, _)) = best else { break };
        groups.remove(j);
        groups.remove(i);
        groups.push(merged);
    }
    groups.sort_by(|a, b| a.members.cmp(&b.members));
    groups
}

// --- the frame loop ---

/// One played frame, as the referee and the session both record it.
///
/// Rows are compared whole. Four fields keep their defaults here, as the
/// session must too: `fec_protected`, `base_item`, `retransmitted` and
/// `faulted` are set only by layered plans and injected faults, which the
/// referee does not play.
struct Frame {
    rows: Vec<UserFrame>,
    unicast_phy: Vec<f64>,
    groups: Vec<Group>,
    plan: TransmissionPlan,
}

impl Frame {
    /// The session's frame as it stands after playout.
    fn of(a: &super::Arena) -> Frame {
        Frame {
            rows: a.rows.clone(),
            unicast_phy: a.unicast_phy.clone(),
            groups: a.search.plan.groups.clone(),
            plan: TransmissionPlan {
                items: a.plan().map(|(item, to)| owned(item, to)).collect(),
            },
        }
    }

    /// Every compared field, each float as its bits (`Debug` prints a
    /// float's shortest round trip: equal strings are equal bits).
    fn bits(&self) -> String {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let groups: Vec<_> = (self.groups.iter())
            .map(|g| {
                let floats = [g.multicast_bytes, g.multicast_rate_mbps, g.iou];
                (&g.members, bits(&floats))
            })
            .collect();
        let items: Vec<_> = (self.plan.items.iter())
            .map(|i| {
                let floats = [i.bytes, i.parity_bytes, i.phy_mbps, i.beam_switch_s];
                (&i.kind, bits(&floats))
            })
            .collect();
        format!(
            "rows {:#?}\nunicast_phy {:?}\ngroups {groups:?}\nitems {items:?}",
            self.rows,
            bits(&self.unicast_phy),
        )
    }
}

/// A logged item with its receivers as a self-contained [`TxItem`].
fn owned(item: &TxItem, receivers: &[usize]) -> TxItem {
    let mut item = item.clone();
    if let TxKind::Multicast { members } = &mut item.kind {
        *members = receivers.to_vec();
    }
    item
}

/// Bytes per analysis-density point at quality `q` (single stream), written
/// out as the reference for `Quality::bytes_per_analysis_point`.
fn scale_for(s: &StreamingSession, q: QualityLevel) -> f64 {
    let quality = s.video.quality(q);
    quality.points_per_frame as f64 / s.params.analysis_points as f64 * quality.bytes_per_point()
}

struct Referee<'a> {
    s: &'a StreamingSession,
    n: usize,
    interval: f64,
    budget_s: f64,
    buf_cap: f64,
    mac: &'a dyn MacModel,
    wifi5: bool,
    grid: CellGrid,
    mitigator: BlockageMitigator,
    forecaster: BlockageForecaster,
    // carried across frames
    joint: JointPredictor,
    adapter: RateAdapter,
    qoe: QoeReport,
    buffers: Vec<f64>,
    blocked_prev: Vec<bool>,
    plans: Vec<TransmissionPlan>,
    /// The outcome's sums, each added to in the order the loop meets it.
    tally: Tally,
}

impl<'a> Referee<'a> {
    fn new(s: &'a StreamingSession) -> Self {
        let n = s.traces.len();
        let cfg = s.params.config;
        let wifi5 = s.params.radio == RadioKind::Wifi5;
        Referee {
            s,
            n,
            interval: cfg.frame_interval_s(),
            budget_s: AIRTIME_BUDGET_INTERVALS * cfg.frame_interval_s(),
            buf_cap: cfg.buffer_capacity_frames as f64,
            mac: if wifi5 { &s.ac_mac } else { &s.mac },
            wifi5,
            grid: CellGrid::new(cfg.cell_size),
            mitigator: BlockageMitigator::new(s.params.mitigation),
            forecaster: BlockageForecaster::new(s.channel.array.position),
            joint: JointPredictor::new(n, cfg.predictor_window, Default::default()),
            adapter: RateAdapter::new(s.params.abr, n),
            qoe: QoeReport::new(n),
            buffers: vec![2.0; n],
            blocked_prev: vec![false; n],
            plans: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn phy_rate(&self, rss: f64) -> f64 {
        let table = if self.wifi5 { &self.s.vht } else { &self.s.mcs };
        table.phy_rate_mbps(rss)
    }

    /// Frame `f` through observe, forecast, link rates, visibility, decide,
    /// plan and recover.
    fn plan_frame(&mut self, f: usize) -> Frame {
        let (s, n) = (self.s, self.n);
        let params = &s.params;
        // Observe.
        let poses: Vec<Pose> = s.traces.iter().map(|t| t.pose(f)).collect();
        self.joint.observe_frame(&poses);
        let walkers: Vec<Vec3> = s.walkers.iter().map(|w| w.pose(f).position).collect();
        let bodies: Vec<Blocker> = if params.body_blockage {
            (poses.iter().map(|p| p.position))
                .chain(walkers.iter().copied())
                .map(Blocker::person)
                .collect()
        } else {
            Vec::new()
        };

        // Forecast and mitigate.
        let horizon = params.config.prediction_horizon;
        let mut planning = Vec::new();
        if params.use_prediction && self.joint.predict_frame_into(horizon, &mut planning) {
            if horizon < params.frames - f {
                for (p, trace) in planning.iter().zip(&s.traces) {
                    self.tally.pred_err_sum +=
                        (p.position - trace.pose(f + horizon).position).norm();
                    self.tally.pred_err_count += 1;
                }
            }
        } else {
            planning = poses.clone();
        }
        let mut rows = vec![UserFrame::default(); n];
        for (u, row) in rows.iter_mut().enumerate() {
            let blocked_by = |b: Vec3| self.forecaster.is_blocked(poses[u].position, b);
            row.blocked = params.body_blockage
                && ((0..n).any(|v| v != u && blocked_by(poses[v].position))
                    || walkers.iter().any(|&w| blocked_by(w)));
            self.tally.blocked_user_frames += row.blocked as usize;
        }
        let events: Vec<BlockageEvent> = (0..n)
            .filter(|&u| !self.wifi5 && rows[u].blocked && !self.blocked_prev[u])
            .map(|victim| BlockageEvent {
                victim,
                blocker: usize::MAX,
                onset_frames: 0,
            })
            .collect();
        let mut actions: Vec<MitigationAction> = Vec::new();
        self.mitigator.plan_into(&events, &mut actions);
        for act in &actions {
            let row = &mut rows[act.user];
            row.beam_outage = act.beam_outage_s;
            match params.mitigation {
                MitigationMode::Proactive => row.extra_prefetch = act.prefetch_frames,
                MitigationMode::Reactive => row.wasted_tx = true,
            }
        }

        // Link rates.
        let ap = s.channel.array.position;
        for (u, row) in rows.iter_mut().enumerate() {
            let pos = poses[u].position;
            let others: Vec<Blocker> = (bodies.iter().enumerate())
                .filter(|&(i, _)| i != u)
                .map(|(_, b)| *b)
                .collect();
            let searched = match params.mitigation {
                MitigationMode::Proactive => true,
                MitigationMode::Reactive => self.blocked_prev[u],
            };
            row.rss = if self.wifi5 {
                let shadows = (others.iter())
                    .filter(|b| self.forecaster.is_blocked(pos, b.center))
                    .count();
                s.wifi5.rss_dbm(ap.distance(pos), shadows)
            } else if row.blocked && searched {
                rss_best_beam(&s.channel, pos, &others)
            } else {
                rss_dedicated_beam(&s.channel, pos, &others)
            };
        }
        let unicast_phy: Vec<f64> = rows.iter().map(|r| self.phy_rate(r.rss)).collect();

        // Visibility.
        let cloud = s.video.frame_with_density(f as u64, params.analysis_points);
        let cells = self.grid.partition(&cloud);
        let maps: Vec<Map> = (planning.iter().enumerate())
            .map(|(u, pose)| {
                let options = match params.player {
                    PlayerKind::Vanilla => VisibilityOptions::vanilla(),
                    _ => VisibilityOptions {
                        intrinsics: s.traces[u].device.intrinsics(),
                        ..VisibilityOptions::vivo()
                    },
                };
                visibility(pose, &options, &self.grid, &cells)
            })
            .collect();
        let unit_sizes: Vec<f64> = cells.iter().map(|c| c.point_count as f64).collect();
        let total_points: f64 = unit_sizes.iter().sum();
        let culls = params.player != PlayerKind::Vanilla && total_points > 0.0;
        for (row, map) in rows.iter_mut().zip(&maps) {
            row.member_unit = priced_bytes(&cells, &unit_sizes, map);
            row.needed_fraction = if culls {
                row.member_unit / total_points
            } else {
                1.0
            };
        }

        // Decide.
        for (u, row) in rows.iter_mut().enumerate() {
            let inputs = CrossLayerInputs {
                measured_throughput_mbps: 0.0,
                buffer_frames: self.buffers[u],
                blockage_forecast: match params.mitigation {
                    MitigationMode::Proactive => row.blocked,
                    MitigationMode::Reactive => self.blocked_prev[u],
                },
                predicted_phy_rate_mbps: self.adapter.predictors[u]
                    .link
                    .predicted_rss_dbm(horizon)
                    .map_or(unicast_phy[u], |r| self.phy_rate(r)),
                current_phy_rate_mbps: unicast_phy[u],
            };
            let state = GroupState {
                user: u,
                inputs: &inputs,
                share: 1.0 / n as f64,
                needed_fraction: row.needed_fraction,
                layered: false,
                fixed: params.fixed_quality,
            };
            let decision = self.adapter.plan_delivery(&state, &Distress::calm());
            row.quality = decision.quality;
            row.fec_rung = decision.fec;
            // Plan starts from the decision and the onset's outage.
            row.effective_quality = row.quality;
            row.outage_pending = row.beam_outage;
        }
        self.blocked_prev = rows.iter().map(|r| r.blocked).collect();

        // Plan: the reactive victims' doomed bursts first, then every
        // payload on unicast and multicast bursts.
        let mut frame = Frame {
            rows,
            unicast_phy,
            groups: Vec::new(),
            plan: TransmissionPlan::new(),
        };
        let (mac, budget_s) = (self.mac, self.budget_s);
        let admit = |bytes: f64, phy: f64| phy > 0.0 && mac.airtime_s(bytes, phy, n) <= budget_s;
        for u in (0..n).filter(|&u| frame.rows[u].wasted_tx) {
            let stale_phy = self.phy_rate(rss_dedicated_beam(&s.channel, poses[u].position, &[]));
            let probe_bytes = stale_phy * 1e6 / 8.0 * (self.interval * 0.25);
            if admit(probe_bytes, stale_phy) {
                let item = TxItem::unicast(u, probe_bytes, stale_phy);
                frame.plan.items.push(item);
            }
        }
        let own = |frame: &Frame, u: usize| {
            let row = &frame.rows[u];
            row.member_unit * scale_for(s, row.quality)
        };
        // A unicast burst, or the user goes unserved; the beam-switch
        // outage rides the user's first burst.
        let unicast_leg = |frame: &mut Frame, u: usize, bytes: f64| {
            let phy = frame.unicast_phy[u];
            let row = &mut frame.rows[u];
            if admit(bytes, phy) {
                let mut item = TxItem::unicast(u, bytes, phy);
                item.beam_switch_s = std::mem::take(&mut row.outage_pending);
                frame.plan.items.push(item);
            } else {
                row.unserved = true;
            }
        };
        if params.player != PlayerKind::Volcast {
            for u in 0..n {
                let needed = match params.player {
                    PlayerKind::Vanilla => {
                        s.video.quality(frame.rows[u].quality).full_frame_bytes()
                    }
                    _ => own(&frame, u),
                };
                frame.rows[u].needed_bytes = needed;
                unicast_leg(&mut frame, u, needed);
                frame.rows[u].unserved &= needed > 0.0;
            }
            return frame;
        }
        let plan_quality = frame.rows.iter().map(|r| r.quality).min();
        let plan_quality = plan_quality.unwrap_or(QualityLevel::Low);
        let plan_scale = scale_for(s, plan_quality);
        let cell_sizes: Vec<f64> = unit_sizes.iter().map(|u| u * plan_scale).collect();
        let at: Vec<Vec3> = planning.iter().map(|p| p.position).collect();
        let wifi5 = self.wifi5;
        let beam = |members: &[usize]| -> (f64, bool) {
            if wifi5 {
                return (s.wifi5.multicast_basic_rate_mbps, false);
            }
            let members: Vec<Vec3> = members.iter().map(|&u| at[u]).collect();
            let (member_rss, customized) = design(s, &members, &bodies);
            (s.mcs.multicast_rate_mbps(&member_rss), customized)
        };
        frame.groups = plan_groups(
            params.config.min_merge_iou,
            &maps,
            &cells,
            &cell_sizes,
            &frame.unicast_phy,
            &|members| beam(members).0,
        );
        for (i, g) in frame.groups.clone().into_iter().enumerate() {
            // Single stream: the shared cells multicast at the members'
            // lowest quality when that beats unicast and fits a slot, the
            // residuals unicast.
            let group_q = g.members.iter().map(|&u| frame.rows[u].quality).min();
            let group_q = group_q.unwrap_or(plan_quality);
            let shared_bytes = g.multicast_bytes / plan_scale.max(1e-12) * scale_for(s, group_q);
            let air = |u: usize, bytes: f64, unreachable: f64| match frame.unicast_phy[u] {
                phy if phy > 0.0 => bytes / phy,
                _ => unreachable,
            };
            let residual = |u| (own(&frame, u) - shared_bytes).max(0.0);
            let beneficial = g.members.len() >= 2
                && g.multicast_bytes > 0.0
                && g.multicast_rate_mbps > 0.0
                && shared_bytes / g.multicast_rate_mbps
                    + (g.members.iter().map(|&u| air(u, residual(u), 0.0))).sum::<f64>()
                    <= (g.members.iter())
                        .map(|&u| air(u, own(&frame, u), f64::INFINITY))
                        .sum::<f64>();
            let active = beneficial && admit(shared_bytes, g.multicast_rate_mbps);
            if active {
                self.tally.multicast_groups += 1;
                self.tally.customized_groups += beam(&g.members).1 as usize;
                let rate = g.multicast_rate_mbps;
                let item = TxItem::multicast(g.members.clone(), shared_bytes, rate);
                frame.plan.items.push(item);
                self.tally.multicast_bytes += shared_bytes;
            }
            for &u in &g.members {
                let row = &mut frame.rows[u];
                row.group = Some(i);
                if active {
                    row.effective_quality = row.effective_quality.min(group_q);
                }
                frame.rows[u].needed_bytes = own(&frame, u);
                let shared = if active { shared_bytes } else { 0.0 };
                let residual = (own(&frame, u) - shared).max(0.0);
                if residual > 0.0 {
                    unicast_leg(&mut frame, u, residual);
                }
            }
        }
        // Recover: a fault-free frame has nothing to recover.
        frame
    }

    /// Replay, playout and the adapter's feedback.
    fn play_frame(&mut self, frame: &mut Frame) {
        let (n, interval) = (self.n, self.interval);
        let timing: PlanTiming = frame.plan.execute(self.mac, n, n);
        self.tally.total_bytes += frame.plan.total_bytes();
        self.tally.frame_time_sum += if timing.total_s.is_finite() {
            timing.total_s
        } else {
            interval * 4.0
        };
        for g in &frame.groups {
            self.tally.group_size_sum += g.members.len() as f64;
            self.tally.group_count += 1;
        }
        if self.s.params.player != PlayerKind::Volcast {
            self.tally.group_size_sum += n as f64;
            self.tally.group_count += n;
        }
        for u in 0..n {
            let items = || (frame.plan.items.iter()).filter(|i| i.receivers().contains(&u));
            let row = &mut frame.rows[u];
            row.addressed = items().next().is_some();
            let reserve = row.extra_prefetch as f64 * 0.5;
            let buf = (self.buffers[u] + reserve).min(self.buf_cap + reserve);
            let ready = if row.needed_bytes <= 0.0 {
                0.0
            } else if row.unserved || row.wasted_tx {
                f64::INFINITY
            } else {
                timing.user_completion_s[u].unwrap_or(f64::INFINITY)
            };
            let q = row.effective_quality;
            let points = self.s.video.quality(q).points_per_frame;
            let t = ready.max(self.s.decode.frame_decode_time(points));
            // On time with spare airtime prefetched ahead, late but
            // absorbed by the buffer, or stalled.
            let (outcome, stall_s, buffer) = if !t.is_finite() {
                if buf >= 1.0 {
                    (Outcome::FromBuffer, 0.0, buf - 1.0)
                } else {
                    (Outcome::Starved, interval, 0.0)
                }
            } else if t <= interval {
                let buffer = (buf + (interval - t) / interval).min(self.buf_cap);
                (Outcome::InSlot, 0.0, buffer)
            } else if buf >= (t - interval) / interval {
                (Outcome::Absorbed, 0.0, buf - (t - interval) / interval)
            } else {
                let stall_s = ((t - interval) / interval - buf) * interval;
                (Outcome::Stalled, stall_s, 0.0)
            };
            row.outcome = outcome;
            self.buffers[u] = buffer;
            let on_time = matches!(
                outcome,
                Outcome::InSlot | Outcome::Absorbed | Outcome::FromBuffer
            );
            self.qoe.users[u].record_frame(on_time, stall_s, q);

            let (mut bytes, mut airtime) = (0.0, 0.0);
            for item in items() {
                bytes += item.bytes;
                airtime += self.mac.airtime_s(item.wire_bytes(), item.phy_mbps, n);
            }
            let tput = if airtime > 0.0 && airtime.is_finite() {
                bytes * 8.0 / (airtime * 1e6)
            } else {
                0.0
            };
            self.adapter.observe(u, tput, row.rss);
        }
        self.plans.push(frame.plan.clone());
    }

    fn outcome(self) -> SessionOutcome {
        let (n, frames) = (self.n, self.s.params.frames);
        let mut qoe = self.qoe;
        qoe.duration_s = frames as f64 * self.interval;
        let deadline = SimTime::from_secs(self.interval);
        let quiet = FaultPlan::quiet();
        let sim = Simulator::new(self.mac, n, n, deadline, BacklogPolicy::Drop)
            .unwrap()
            .with_faults(&quiet);
        let mut completion = Vec::new();
        sim.run_into(&self.plans, &mut SimScratch::default(), &mut completion);
        let (mut on_time, mut addressed) = (0usize, 0usize);
        for (f, plan) in self.plans.iter().enumerate() {
            for u in (0..n).filter(|&u| plan.items.iter().any(|i| i.receivers().contains(&u))) {
                addressed += 1;
                let done = completion[f * n + u];
                on_time += done.is_some_and(|t| t <= sim.frame_start(f) + deadline) as usize;
            }
        }
        let ratio = |num: f64, den: f64, empty: f64| if den > 0.0 { num / den } else { empty };
        let t = self.tally;
        SessionOutcome {
            qoe,
            mean_frame_time_s: t.frame_time_sum / frames.max(1) as f64,
            multicast_byte_fraction: ratio(t.multicast_bytes, t.total_bytes, 0.0),
            mean_group_size: ratio(t.group_size_sum, t.group_count as f64, 1.0),
            customized_beam_fraction: ratio(
                t.customized_groups as f64,
                t.multicast_groups as f64,
                0.0,
            ),
            blocked_user_frames: t.blocked_user_frames,
            mean_prediction_error_m: ratio(t.pred_err_sum, t.pred_err_count as f64, 0.0),
            pipelined_on_time_ratio: ratio(on_time as f64, addressed as f64, 1.0),
            fault_user_frames: 0,
            recovered_user_frames: 0,
        }
    }
}

/// Runs `s` through the session's stages and through the referee in
/// lockstep, asserting every frame and the outcome equal; returns the
/// session's outcome.
fn referee_session(s: &StreamingSession) -> SessionOutcome {
    let mut referee = Referee::new(s);
    let mut f = 0;
    let driven = drive(s, |_, _, a| {
        let mut want = referee.plan_frame(f);
        referee.play_frame(&mut want);
        assert_eq!(Frame::of(a).bits(), want.bits(), "frame {f}");
        f += 1;
    });
    // `Debug` prints every float's shortest round trip: equal strings are
    // equal bits.
    assert_eq!(format!("{driven:?}"), format!("{:?}", referee.outcome()));
    driven
}

/// The session's frame loop equals the referee's, frame by frame and in
/// its outcome, bit for bit: 2–8 users in a phone/headset mix, every
/// player, both radios, custom beams on and off, both mitigation modes,
/// adaptive or pinned quality; single-stream delivery, no faults.
#[test]
fn the_session_frame_loop_matches_the_pipeline_referee() {
    let name = "the_session_frame_loop_matches_the_pipeline_referee";
    run_cases_n(name, 6, |rng| {
        let users = rng.gen_range(2..9usize);
        let phones = rng.gen_range(0..users + 1);
        let frames = rng.gen_range(3..7usize);
        let seed = rng.gen_range(0..1000u64);
        let traces = UserStudy::generate_with(seed, frames, phones, users - phones).traces;
        let players = [PlayerKind::Vanilla, PlayerKind::Vivo, PlayerKind::Volcast];
        let abrs = [AbrPolicy::CrossLayer, AbrPolicy::BufferOnly];
        let modes = [MitigationMode::Proactive, MitigationMode::Reactive];
        let qualities = [None, Some(QualityLevel::Low), Some(QualityLevel::High)];
        let params = SessionParams {
            player: players[rng.gen_range(0..3usize)],
            abr: abrs[rng.gen_range(0..2usize)],
            mitigation: modes[rng.gen_range(0..2usize)],
            fixed_quality: qualities[rng.gen_range(0..3usize)],
            frames,
            analysis_points: rng.gen_range(1_500..4_000usize),
            custom_beams: rng.gen_bool(0.5),
            radio: [RadioKind::MmWave, RadioKind::Wifi5][rng.gen_range(0..4usize) / 3],
            delivery: DeliveryMode::Single,
            ..SessionParams::default()
        };
        referee_session(&StreamingSession::new(params, traces));
    });
}

/// The referee is not vacuous: a session where groups form, beams are
/// customised and bodies block links, and it still agrees.
#[test]
fn the_pipeline_referee_sees_groups_custom_beams_and_blockage() {
    let traces = UserStudy::generate_with(42, 8, 5, 1).traces;
    let params = SessionParams {
        frames: 8,
        analysis_points: 3_000,
        ..SessionParams::default()
    };
    let out = referee_session(&StreamingSession::new(params, traces));
    assert!(out.mean_group_size > 1.0, "{out:?}");
    assert!(out.customized_beam_fraction > 0.0, "{out:?}");
    assert!(out.blocked_user_frames > 0, "{out:?}");
}
