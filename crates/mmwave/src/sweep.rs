//! Allocation-free, bound-pruned codebook sweeps and group-beam design:
//! the one production implementation behind the session, the campus and
//! the [`MultiLobeDesigner`] convenience front.
//!
//! A full sector sweep evaluates every codebook sector against every usable
//! propagation path — 48 complex dot products of 32 elements per receiver.
//! For the DFT codebook those dot products have a closed form: the sector
//! weights are the conjugated steering vector toward the sector direction
//! (normalized), so the response magnitude toward a path factors into two
//! Dirichlet kernels, one per array axis:
//!
//! ```text
//! |w_s^T a_p| = s * |sin(nx·ψx)/sin(ψx)| * |sin(ny·ψy)/sin(ψy)|
//!   ψx = (k·d/2)·(u_p - u_s),  ψy = (k·d/2)·(v_p - v_s)
//! ```
//!
//! [`SweepEngine`] precomputes per-sector trig tables once per codebook —
//! the y-axis ones once per run of sectors sharing an elevation, so the
//! y kernel takes one value per path and elevation row;
//! [`SweepRx::sweep`] takes each path's half-angle sines and cosines once
//! and turns each (sector, path) amplitude bound into ~20 flops with no
//! transcendentals. The bounds carry explicit floating-point safety margins
//! so a pruned sector is *guaranteed* (not just likely) to lose against the
//! best exact value seen so far — the pruned sweep returns **bit-identical**
//! winners and RSS values to the exhaustive scan, which the crate's
//! test-only `reference` module keeps as the oracle and the pinned session
//! and campus outcome hashes pin down.
//!
//! [`SweepRx`] is the crate's one prepared receiver, in three stages (a
//! new location empties the later two):
//!
//! 1. [`SweepRx::locate`] resolves the geometry — usable paths, their
//!    losses, element factors and direction cosines — which is all
//!    [`SweepRx::rss_cap_dbm`] reads;
//! 2. [`SweepRx::steer`] adds each path's steering row, which every exact
//!    evaluation ([`SweepRx::eval_weights`], the link beams
//!    [`SweepRx::rss_dedicated_beam`] and [`SweepRx::rss_best_beam`])
//!    reads — evaluating a receiver that was never steered trips a
//!    `debug_assert`;
//! 3. [`SweepRx::sweep`] adds the sector bounds and resets the exact-RSS
//!    cache, which sector sweeps read.
//!
//! [`SweepRx::prepare_paths`] is stages 1–2 (what links need),
//! [`SweepRx::prepare`] all three; a caller that may never sweep a receiver
//! (the session's group beams) runs the stages itself. An exact evaluation
//! runs up to four paths' dot products as independent chains in one pass
//! over the weights, each chain summing in element order. The
//! `Channel::rss_*` conveniences are allocating fronts over stages 1–2; the
//! test-only `reference` module keeps a per-call, full-element `PreparedRx`
//! as the oracle of all of it.
//!
//! Everything here reuses caller-owned buffers: after warm-up, every stage,
//! link evaluation, sweep and design allocates nothing, which the campus
//! epoch loop's and the link path's counting-allocator gates rely on.
//!
//! [`MultiLobeDesigner`]: crate::MultiLobeDesigner

use crate::array::{conj_normalize, element_pattern, normalize};
use crate::calib;
use crate::channel::{Blocker, Channel, Path};
use crate::codebook::Codebook;
use volcast_geom::{Complex, Vec3};
use volcast_util::obs;

/// Per-sector trig tables: sin/cos of `ψ`-halves at each sector direction,
/// plus the sector's maximum per-element weight magnitude (the `s` in the
/// Dirichlet product, rounded up). The x quantities are one column each,
/// so the bound loop reads them at unit stride across sectors; the y
/// quantities depend on the elevation alone and are kept once per run of
/// consecutive sectors where all four are bit-equal — one run per
/// elevation row of a [`Codebook::dft`], which is elevation-major.
#[derive(Debug, Clone, Default)]
struct SectorTrig {
    /// `max_i |w_i|`, scaled up by a relative margin.
    s_rt: Vec<f64>,
    sin_bx: Vec<f64>,
    cos_bx: Vec<f64>,
    sin_bxn: Vec<f64>,
    cos_bxn: Vec<f64>,
    y_runs: Vec<YRun>,
}

/// Sectors `..end` (from the previous run's `end`) share these y values.
#[derive(Debug, Clone, Copy)]
struct YRun {
    end: usize,
    /// `[sin_by, cos_by, sin_byn, cos_byn]`.
    y: [f64; 4],
}

impl SectorTrig {
    /// Appends one sector: its `s`, its x quantities
    /// `[sin_bx, cos_bx, sin_bxn, cos_bxn]` and its y quantities, which
    /// extend the last run if all four match it bit for bit.
    fn push(&mut self, s_rt: f64, x: [f64; 4], y: [f64; 4]) {
        let [sin_bx, cos_bx, sin_bxn, cos_bxn] = x;
        self.s_rt.push(s_rt);
        self.sin_bx.push(sin_bx);
        self.cos_bx.push(cos_bx);
        self.sin_bxn.push(sin_bxn);
        self.cos_bxn.push(cos_bxn);
        let end = self.s_rt.len();
        match self.y_runs.last_mut() {
            Some(run) if run.y.map(f64::to_bits) == y.map(f64::to_bits) => run.end = end,
            _ => self.y_runs.push(YRun { end, y }),
        }
    }
}

/// A pruned-sweep evaluator for one `(channel, codebook)` pair.
///
/// Immutable and `Sync` once built: all per-receiver mutable state lives in
/// [`SweepRx`], so one engine can serve many parallel room workers.
///
/// If the codebook does not vouch for its sectors being the
/// conjugate-beamforming weights of its listed directions on this array (a
/// [`Codebook::from_parts`] one), the engine falls back to
/// exact-only mode: every sector bound is `+∞`, nothing is pruned, and the
/// sweep degenerates to the plain exhaustive scan — still bit-identical,
/// just not faster.
#[derive(Debug, Clone)]
pub struct SweepEngine<'a> {
    channel: &'a Channel,
    codebook: &'a Codebook,
    /// `k·d/2`: half the per-element phase advance per unit direction
    /// cosine.
    half_kd: f64,
    nxf: f64,
    nyf: f64,
    elements: usize,
    /// Per-sector trig tables; empty in exact-only fallback mode.
    sectors: SectorTrig,
}

impl<'a> SweepEngine<'a> {
    /// Builds the engine. The Dirichlet bound depends on each codebook
    /// sector being `beam_toward(direction)` bit for bit, which a
    /// [`Codebook::dft`] built for this array's geometry vouches for; over
    /// any other codebook the engine still works, exact-only.
    pub fn new(channel: &'a Channel, codebook: &'a Codebook) -> Self {
        let array = &channel.array;
        let elements = array.elements();
        let half_kd = 0.5
            * (2.0 * std::f64::consts::PI / calib::WAVELENGTH_M)
            * (array.spacing_wl * calib::WAVELENGTH_M);
        let mut sectors = SectorTrig::default();
        if codebook.is_dft_for(array) {
            for (sec, dir) in codebook.sectors().iter().zip(codebook.directions()) {
                let s2_max = sec.w.iter().map(|c| c.norm_sq()).fold(0.0f64, f64::max);
                let u = dir.azimuth.sin() * dir.elevation.cos();
                let v = dir.elevation.sin();
                let (sin_bx, cos_bx) = (half_kd * u).sin_cos();
                let (sin_bxn, cos_bxn) = (array.nx as f64 * half_kd * u).sin_cos();
                let (sin_by, cos_by) = (half_kd * v).sin_cos();
                let (sin_byn, cos_byn) = (array.ny as f64 * half_kd * v).sin_cos();
                sectors.push(
                    s2_max.sqrt() * (1.0 + 1e-9),
                    [sin_bx, cos_bx, sin_bxn, cos_bxn],
                    [sin_by, cos_by, sin_byn, cos_byn],
                );
            }
        }
        SweepEngine {
            channel,
            codebook,
            half_kd,
            nxf: array.nx as f64,
            nyf: array.ny as f64,
            elements,
            sectors,
        }
    }

    /// The channel this engine sweeps.
    pub fn channel(&self) -> &'a Channel {
        self.channel
    }

    /// The codebook this engine sweeps.
    pub fn codebook(&self) -> &'a Codebook {
        self.codebook
    }

    /// Best single-receiver sector: `(sector index, RSS dBm)`, bit-identical
    /// to the exhaustive argmax with first-winner tie-breaking. Results are
    /// cached on the receiver, so repeat calls (and the custom-beam
    /// combination, which needs every member's individual best) are free.
    pub fn best_sector(&self, rx: &mut SweepRx) -> (usize, f64) {
        if let Some(best) = rx.best {
            return best;
        }
        // Seed: exactly evaluate the sector with the largest bound, which
        // is usually the true winner; its value prunes most of the rest.
        let mut j = 0usize;
        let mut jb = f64::NEG_INFINITY;
        for (s, &b) in rx.bounds.iter().enumerate() {
            if b > jb {
                jb = b;
                j = s;
            }
        }
        let seed = rx.eval_sector(self, j);
        let mut thr = calib::dbm_to_mw(seed) * (1.0 - 1e-9);
        let mut best_idx = 0usize;
        let mut best = f64::NEG_INFINITY;
        for s in 0..rx.bounds.len() {
            if rx.bounds[s] <= thr {
                rx.sectors_pruned += 1;
                continue;
            }
            let v = rx.eval_sector(self, s);
            if v > best {
                best = v;
                best_idx = s;
                let t = calib::dbm_to_mw(best) * (1.0 - 1e-9);
                if t > thr {
                    thr = t;
                }
            }
        }
        rx.best = Some((best_idx, best));
        (best_idx, best)
    }

    /// Best common sector for a member set: maximizes the minimum member
    /// RSS with first-winner tie-breaking, bit-identical to the exhaustive
    /// scan. On return `rss_out` holds the winning sector's per-member RSS
    /// in member order (all `-∞` if nothing is reachable), matching the
    /// exhaustive sweep's vector. `tmp` is scratch of the same shape.
    pub fn best_joint(
        &self,
        rxs: &mut [SweepRx],
        members: &[usize],
        tmp: &mut Vec<f64>,
        rss_out: &mut Vec<f64>,
    ) -> usize {
        let m = members.len();
        rss_out.clear();
        rss_out.resize(m, f64::NEG_INFINITY);
        let nsec = self.codebook.len();
        // Seed: the sector with the largest min-over-members bound.
        let mut j = 0usize;
        let mut jb = f64::NEG_INFINITY;
        for s in 0..nsec {
            let mut mn = f64::INFINITY;
            for &mi in members {
                mn = mn.min(rxs[mi].bounds[s]);
            }
            if mn > jb {
                jb = mn;
                j = s;
            }
        }
        let mut seed_min = f64::INFINITY;
        for &mi in members {
            seed_min = seed_min.min(rxs[mi].eval_sector(self, j));
        }
        let mut thr = calib::dbm_to_mw(seed_min) * (1.0 - 1e-9);
        let mut best_idx = 0usize;
        let mut best_min = f64::NEG_INFINITY;
        let mut pruned = 0u64;
        'sectors: for s in 0..nsec {
            // Prune: the sector loses if any single member's bound already
            // cannot beat the best min seen so far.
            for &mi in members {
                if rxs[mi].bounds[s] <= thr {
                    pruned += 1;
                    continue 'sectors;
                }
            }
            tmp.clear();
            let mut mn = f64::INFINITY;
            for &mi in members {
                let v = rxs[mi].eval_sector(self, s);
                if v <= best_min {
                    // min-over-members ≤ v ≤ best_min: cannot strictly
                    // improve, and the exhaustive scan would not update on
                    // ties either. Abort the member loop early.
                    continue 'sectors;
                }
                tmp.push(v);
                mn = mn.min(v);
            }
            if mn > best_min {
                best_min = mn;
                best_idx = s;
                std::mem::swap(tmp, rss_out);
                let t = calib::dbm_to_mw(best_min) * (1.0 - 1e-9);
                if t > thr {
                    thr = t;
                }
            }
        }
        // A joint sweep's pruned sectors are booked on its first member.
        if let Some(&first) = members.first() {
            rxs[first].sectors_pruned += pruned;
        }
        best_idx
    }

    /// The custom multi-lobe combination for a member set, written into
    /// `acc` — bit-identical to [`combine_weights_multi`] over each
    /// member's individually-best sector weighted by its linear RSS.
    /// Member bests come from the [`SweepEngine::best_sector`] cache, so
    /// after an assign-phase sweep (or an earlier design with the same
    /// member) this costs only the accumulation itself.
    ///
    /// [`combine_weights_multi`]: crate::combine_weights_multi
    pub fn combine_into(&self, rxs: &mut [SweepRx], members: &[usize], acc: &mut Vec<Complex>) {
        acc.clear();
        acc.resize(self.elements, Complex::ZERO);
        for &mi in members {
            let (idx, dbm) = self.best_sector(&mut rxs[mi]);
            let coeff = 1.0 / calib::dbm_to_mw(dbm).max(1e-15);
            for (a, b) in acc.iter_mut().zip(&self.codebook.sectors()[idx].w) {
                *a += b.scale(coeff);
            }
        }
        normalize(acc);
    }

    /// Full group beam design (§4.2) over prepared receivers: whichever of
    /// (best common default sector, customized multi-lobe beam) yields the
    /// higher common RSS, written into `out`'s reused buffers. This is the
    /// one design decision in the tree — the session, the campus and
    /// [`MultiLobeDesigner::design`] all run it — and it owns the
    /// `mmwave.designer.*` metrics, emitted once per design computed.
    ///
    /// [`MultiLobeDesigner::design`]: crate::MultiLobeDesigner::design
    pub fn design(&self, rxs: &mut [SweepRx], members: &[usize], out: &mut BeamDesign) {
        assert!(!members.is_empty(), "cannot design a beam for nobody");
        let _span = obs::span("mmwave.designer.design");
        out.sector = self.best_joint(rxs, members, &mut out.scratch, &mut out.member_rss_dbm);
        out.customized = false;
        if members.len() >= 2 {
            let default_min = out.common_rss_dbm();
            self.combine_into(rxs, members, &mut out.weights);
            // The custom beam must beat the default at every member: stop at its first loss.
            out.scratch.clear();
            out.customized = members.iter().all(|&mi| {
                let v = rxs[mi].eval_weights(&out.weights);
                out.scratch.push(v);
                v > default_min
            });
            if out.customized {
                std::mem::swap(&mut out.scratch, &mut out.member_rss_dbm);
            }
        }
        if obs::enabled() {
            obs::inc("mmwave.designer.designs");
            if out.customized {
                obs::inc("mmwave.designer.customized");
            }
            // Every member was served from an already-prepared receiver
            // (the misses are counted where receivers are located:
            // `SweepRx::prepare`, or a caller running the stages itself).
            obs::add("mmwave.designer.path_cache_hits", members.len() as u64);
            Self::emit_counts(members.iter().map(|&mi| rxs[mi].take_counts()));
        }
    }

    /// Moves the receivers' pending `mmwave.sweep.*` tallies into `obs`.
    /// [`SweepEngine::design`] does this for its members; a caller that
    /// sweeps receivers no design touches flushes them itself, once per
    /// batch, so the sector loop never sees an atomic.
    pub fn flush_counts(rxs: &mut [SweepRx]) {
        Self::emit_counts(rxs.iter_mut().map(SweepRx::take_counts));
    }

    fn emit_counts(counts: impl Iterator<Item = (u64, u64)>) {
        let (evals, pruned) = counts.fold((0, 0), |(e, p), (de, dp)| (e + de, p + dp));
        obs::add("mmwave.sweep.sector_evals", evals);
        obs::add("mmwave.sweep.sectors_pruned", pruned);
    }
}

/// A designed group beam in reusable buffers — the allocation-free
/// counterpart of [`GroupBeam`](crate::multilobe::GroupBeam), filled by
/// [`SweepEngine::design`].
#[derive(Debug, Default)]
pub struct BeamDesign {
    /// Whether the custom multi-lobe beam beat the default codebook.
    pub customized: bool,
    /// Best common sector: the transmit beam when `!customized`.
    pub sector: usize,
    /// The custom combined weights: the transmit beam when `customized`
    /// (stale otherwise).
    pub weights: Vec<Complex>,
    /// Per-member RSS (dBm) under the chosen beam, in member order.
    pub member_rss_dbm: Vec<f64>,
    /// Joint-sweep scratch / a losing custom beam's RSS up to its first loss.
    scratch: Vec<f64>,
}

impl BeamDesign {
    /// The group's common RSS: the minimum across members.
    pub fn common_rss_dbm(&self) -> f64 {
        self.member_rss_dbm
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// `dbm_to_mw(TX + RX - loss)`: the linear power (mW) a path of total loss
/// `loss_db` delivers at unit array gain.
fn unit_gain_mw(loss_db: f64) -> f64 {
    calib::dbm_to_mw(calib::TX_POWER_DBM + calib::RX_GAIN_DBI - loss_db)
}

/// The prepared receiver, in three stages: the located paths, their
/// steering rows, and on top of them per-sector upper bounds and a
/// lazily-filled exact-RSS cache. One instance per `(AP, user)` pair — or
/// one per session for link evaluations — reused across frames: each stage
/// only rewrites contents, so steady-state reuse allocates nothing.
#[derive(Debug, Default)]
pub struct SweepRx {
    // --- locate: written by `locate` ---
    n_paths: usize,
    /// Elements per steering row.
    elements: usize,
    /// Whether row 0 is the line-of-sight path (it is enumerated first, but
    /// a receiver at the array position has no LoS direction).
    los_first: bool,
    /// Per-path total loss (dB).
    loss_db: Vec<f64>,
    /// Per-path element-pattern factor.
    element: Vec<f64>,
    /// Per-path direction cosines `(u, v)`, as fed to the steering row.
    uv: Vec<(f64, f64)>,
    /// Scratch for path enumeration.
    paths_tmp: Vec<Path>,
    // --- steer: written by `steer`, emptied by `locate` ---
    /// Whether `steer` holds this location's rows.
    steered: bool,
    /// Path steering vectors, row-major `n_paths × elements`.
    steer: Vec<Complex>,
    // --- sweep: written by `sweep`, emptied by `locate` ---
    /// Per-sector RSS upper bound in linear mW, margins folded in.
    bounds: Vec<f64>,
    /// Per-sector exact RSS cache (dBm); `NaN` = not yet evaluated. Real
    /// RSS values are never `NaN` (they can be `-∞`), so `NaN` is a safe
    /// sentinel.
    cache: Vec<f64>,
    /// Cached [`SweepEngine::best_sector`] result.
    best: Option<(usize, f64)>,
    /// Exact sector evaluations computed / sectors skipped by a bound since
    /// the last [`SweepEngine::flush_counts`] — plain tallies, so sweeps
    /// touch no atomic.
    sector_evals: u64,
    sectors_pruned: u64,
}

impl SweepRx {
    /// A fresh, empty receiver slot.
    pub fn new() -> Self {
        SweepRx::default()
    }

    /// Stage 1, *locate*: (re)places the receiver at `pos` with the given
    /// blockers — enumerates paths, drops those with a degenerate departure
    /// direction (they contribute zero gain), resolves blockage, and keeps
    /// each survivor's loss, element factor and direction cosines. Enough
    /// for [`SweepRx::rss_cap_dbm`]; empties the later stages. Books no
    /// metric.
    ///
    /// Each path's azimuth and elevation pay for one `sin_cos` apiece; the
    /// direction cosines, the element pattern and (through the cosines) the
    /// steering rows and the Dirichlet half-angles are all fed from that
    /// pair.
    pub fn locate(&mut self, channel: &Channel, pos: Vec3, blockers: &[Blocker]) {
        let array = &channel.array;
        channel.paths_into(pos, &mut self.paths_tmp);
        self.n_paths = 0;
        self.elements = array.elements();
        self.los_first = false;
        self.loss_db.clear();
        self.element.clear();
        self.uv.clear();
        self.steered = false;
        self.steer.clear();
        self.bounds.clear();
        self.cache.clear();
        self.best = None;
        for path in &self.paths_tmp {
            let Some(dir) = array.local_direction(path.via - array.position) else {
                continue;
            };
            let (sin_az, cos_az) = dir.azimuth.sin_cos();
            let (sin_el, cos_el) = dir.elevation.sin_cos();
            if self.n_paths == 0 {
                self.los_first = path.is_los;
            }
            self.loss_db.push(channel.path_loss_db(path, pos, blockers));
            self.element.push(element_pattern(cos_az, cos_el));
            self.uv.push((sin_az * cos_el, sin_el));
            self.n_paths += 1;
        }
    }

    /// Stage 2, *steer*: each located path's steering row on `channel`'s
    /// array (the one [`SweepRx::locate`] ran on) — what every exact
    /// evaluation reads.
    pub fn steer(&mut self, channel: &Channel) {
        self.steer.clear();
        for &(u, v) in &self.uv {
            channel.array.steering_uv_into(u, v, &mut self.steer);
        }
        self.steered = true;
    }

    /// Whether [`SweepRx::steer`] has run since the last
    /// [`SweepRx::locate`].
    pub fn is_steered(&self) -> bool {
        self.steered
    }

    /// Stage 3, *sweep*: every sector's RSS upper bound from the located
    /// paths, and a reset exact cache — what sector sweeps read (their exact
    /// evaluations read the steering rows too).
    pub fn sweep(&mut self, engine: &SweepEngine) {
        let nsec = engine.codebook.len();
        self.bounds.clear();
        self.cache.clear();
        self.best = None;
        self.cache.resize(nsec, f64::NAN);
        let st = &engine.sectors;
        if st.s_rt.is_empty() {
            // Exact-only fallback: nothing prunes.
            self.bounds.resize(nsec, f64::INFINITY);
            return;
        }
        // Paths outer, sectors inner: each sector still accumulates its
        // path terms in ascending path order (the sums, hence what gets
        // pruned, depend on it), while the inner loop runs at unit stride
        // over the sector tables with no loop-carried dependency. The y
        // factor is one value per run of sectors.
        self.bounds.resize(nsec, 0.0);
        let (nxf, nyf) = (engine.nxf, engine.nyf);
        for p in 0..self.n_paths {
            let (u, v) = self.uv[p];
            let (sin_ax, cos_ax) = (engine.half_kd * u).sin_cos();
            let (sin_axn, cos_axn) = (nxf * engine.half_kd * u).sin_cos();
            let (sin_ay, cos_ay) = (engine.half_kd * v).sin_cos();
            let (sin_ayn, cos_ayn) = (nyf * engine.half_kd * v).sin_cos();
            // Scaled up by a margin.
            let c_mw = unit_gain_mw(self.loss_db[p]) * (1.0 + 1e-9);
            let element = self.element[p];
            let mut start = 0;
            for run in &st.y_runs {
                // sin(a - b) = sin a · cos b - cos a · sin b, per axis, for
                // both the denominator (ψ) and numerator (n·ψ) angles. The
                // quotient is computed unconditionally and selected away
                // near ψ ≈ 0, where the kernel is at its peak `n`.
                let [sin_by, cos_by, sin_byn, cos_byn] = run.y;
                let dy_den = (sin_ay * cos_by - cos_ay * sin_by).abs();
                let dy_num = (sin_ayn * cos_byn - cos_ayn * sin_byn).abs();
                let dy_quot = (dy_num / dy_den).min(nyf);
                let dy = if dy_den < 1e-9 { nyf } else { dy_quot };
                let bounds = &mut self.bounds[start..run.end];
                let n = bounds.len();
                let s_rt = &st.s_rt[start..][..n];
                let (sin_bx, cos_bx) = (&st.sin_bx[start..][..n], &st.cos_bx[start..][..n]);
                let (sin_bxn, cos_bxn) = (&st.sin_bxn[start..][..n], &st.cos_bxn[start..][..n]);
                for s in 0..n {
                    let dx_den = (sin_ax * cos_bx[s] - cos_ax * sin_bx[s]).abs();
                    let dx_num = (sin_axn * cos_bxn[s] - cos_axn * sin_bxn[s]).abs();
                    let dx_quot = (dx_num / dx_den).min(nxf);
                    let dx = if dx_den < 1e-9 { nxf } else { dx_quot };
                    // Amplitude bound with a relative margin for the
                    // Dirichlet identity's own rounding and an absolute
                    // margin for the catastrophic-cancellation regime near
                    // ψ ≈ 0 (den cut off at 1e-9, so absolute trig error can
                    // reach ~1e-7 on the quotient — 1e-5 dominates it with
                    // room to spare).
                    let amp = s_rt[s] * dx * dy * (1.0 + 1e-6) + 1e-5;
                    bounds[s] += c_mw * amp * amp * element * (1.0 + 1e-6);
                }
                start = run.end;
            }
        }
        for b in self.bounds.iter_mut() {
            *b *= 1.0 + 1e-9;
        }
    }

    /// [`SweepRx::locate`] then [`SweepRx::steer`]: enough for
    /// [`SweepRx::eval_weights`] and the link beams; sector sweeps need
    /// [`SweepRx::prepare`]. Books no metric.
    pub fn prepare_paths(&mut self, channel: &Channel, pos: Vec3, blockers: &[Blocker]) {
        self.locate(channel, pos, blockers);
        self.steer(channel);
    }

    /// All three stages, booking one `mmwave.designer.path_cache_misses`.
    pub fn prepare(&mut self, engine: &SweepEngine, pos: Vec3, blockers: &[Blocker]) {
        obs::inc("mmwave.designer.path_cache_misses");
        self.prepare_paths(engine.channel, pos, blockers);
        self.sweep(engine);
    }

    /// Exact RSS (dBm) of an arbitrary weight vector against the steered
    /// paths: the non-coherent power sum of the beam's gain toward each
    /// path's departure direction. The dot products run as up to four
    /// independent chains per pass over the weights, each summing its
    /// elements in index order; the powers are added in path order.
    pub fn eval_weights(&self, weights: &[Complex]) -> f64 {
        debug_assert!(self.steered, "evaluating a receiver that was never steered");
        debug_assert!(self.n_paths == 0 || weights.len() == self.elements);
        let mut total_mw = 0.0f64;
        let mut acc = [Complex::ZERO; 4];
        let mut p = 0;
        while p < self.n_paths {
            let k = match self.n_paths - p {
                1 => self.responses::<1>(weights, p, &mut acc),
                2 => self.responses::<2>(weights, p, &mut acc),
                3 => self.responses::<3>(weights, p, &mut acc),
                _ => self.responses::<4>(weights, p, &mut acc),
            };
            for (r, (&element, &loss_db)) in acc[..k]
                .iter()
                .zip(self.element[p..].iter().zip(&self.loss_db[p..]))
            {
                let gain = r.norm_sq() * element;
                if gain <= 0.0 {
                    continue;
                }
                let rx_dbm =
                    calib::TX_POWER_DBM + 10.0 * gain.log10() + calib::RX_GAIN_DBI - loss_db;
                total_mw += calib::dbm_to_mw(rx_dbm);
            }
            p += k;
        }
        calib::mw_to_dbm(total_mw)
    }

    /// `wᵀa` toward paths `first..first + K` into `acc[..K]`, returning `K`:
    /// `array::response` of each row, as `K` chains in one pass.
    fn responses<const K: usize>(
        &self,
        weights: &[Complex],
        first: usize,
        acc: &mut [Complex; 4],
    ) -> usize {
        let n = weights.len().min(self.elements);
        let weights = &weights[..n];
        let rows: [&[Complex]; K] = std::array::from_fn(|k| &self.row(first + k)[..n]);
        let mut sums = [Complex::ZERO; K];
        for (e, &w) in weights.iter().enumerate() {
            for (sum, row) in sums.iter_mut().zip(&rows) {
                *sum += w * row[e];
            }
        }
        acc[..K].copy_from_slice(&sums);
        K
    }

    /// An upper bound (dBm) on this receiver's RSS under *any* unit-power
    /// beam, from the located paths alone: steering entries have unit
    /// magnitude, so `|wᵀa|² ≤ ‖w‖²·‖a‖² = N` (Cauchy–Schwarz) and path
    /// `p` delivers at most `dbm_to_mw(TX + RX − loss_p) · N · element_p`.
    /// Carries the sector bounds' `1 + 1e-9` margin over the rounding of
    /// [`SweepRx::eval_weights`] (a dB round trip per path) and of a
    /// normalization that lands a few ulps above unit power. `-∞` for a
    /// receiver with no usable path.
    pub fn rss_cap_dbm(&self) -> f64 {
        let n = self.elements as f64;
        let paths = self.loss_db.iter().zip(&self.element);
        let total_mw: f64 = paths.map(|(&loss, &el)| unit_gain_mw(loss) * n * el).sum();
        calib::mw_to_dbm(total_mw * (1.0 + 1e-9))
    }

    /// Steering row of prepared path `p`.
    fn row(&self, p: usize) -> &[Complex] {
        &self.steer[p * self.elements..(p + 1) * self.elements]
    }

    /// RSS under the dedicated (conjugate, unit-power) beam toward path
    /// `p`'s departure direction, built in `beam`.
    fn rss_row_beam(&self, p: usize, beam: &mut Vec<Complex>) -> f64 {
        beam.clear();
        beam.extend_from_slice(self.row(p));
        conj_normalize(beam);
        self.eval_weights(beam)
    }

    /// RSS using the best dedicated (conjugate) beam toward the receiver —
    /// the upper bound a perfect beam search achieves *on the LoS
    /// direction*; `-∞` for a receiver with no LoS direction. `beam` is
    /// scratch (left holding the beam).
    pub fn rss_dedicated_beam(&self, beam: &mut Vec<Complex>) -> f64 {
        if !self.los_first {
            return f64::NEG_INFINITY;
        }
        self.rss_row_beam(0, beam)
    }

    /// RSS with the best beam over *all* propagation paths: the AP tries a
    /// dedicated beam toward the receiver and toward every reflection
    /// point, and keeps the strongest. This is what a beam search that is
    /// allowed to use NLoS paths converges to — the escape hatch from a
    /// body blockage (paper §4.1: "adapt its beam to the user with a
    /// reflection path"). `beam` is scratch.
    pub fn rss_best_beam(&self, beam: &mut Vec<Complex>) -> f64 {
        (0..self.n_paths)
            .map(|p| self.rss_row_beam(p, beam))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Exact RSS of codebook sector `s`, memoized per sweep.
    pub fn eval_sector(&mut self, engine: &SweepEngine, s: usize) -> f64 {
        let v = self.cache[s];
        if !v.is_nan() {
            return v;
        }
        let v = self.eval_weights(&engine.codebook.sectors()[s].w);
        self.cache[s] = v;
        self.sector_evals += 1;
        v
    }

    /// Takes (and zeroes) the pending `(sector_evals, sectors_pruned)`.
    fn take_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.sector_evals),
            std::mem::take(&mut self.sectors_pruned),
        )
    }

    /// Number of usable paths found by the last `locate`.
    pub fn n_paths(&self) -> usize {
        self.n_paths
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::array::AntennaWeights;
    use crate::channel::Room;
    use crate::reference;
    use crate::PlanarArray;
    use volcast_util::prop::run_cases_n;
    use volcast_util::rng::Rng;

    pub(crate) fn setups() -> Vec<Channel> {
        let mut reflective = Channel::default_setup();
        reflective.room.floor_reflection = true;
        let campus_like = Channel {
            room: Room {
                width: 12.0,
                depth: 9.0,
                height: 3.2,
                floor_reflection: false,
            },
            array: PlanarArray::airfide(
                volcast_geom::Vec3::new(-3.0, 2.9, 4.3),
                volcast_geom::Vec3::new(0.3, -0.45, -1.0),
            ),
        };
        vec![Channel::default_setup(), reflective, campus_like]
    }

    pub(crate) fn random_positions(channel: &Channel, rng: &mut Rng, n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|_| {
                Vec3::new(
                    (rng.gen_range(0.0..1.0) - 0.5) * channel.room.width * 0.95,
                    0.4 + rng.gen_range(0.0..1.0) * (channel.room.height - 0.6),
                    (rng.gen_range(0.0..1.0) - 0.5) * channel.room.depth * 0.95,
                )
            })
            .collect()
    }

    #[test]
    fn singleton_sweep_is_bit_identical() {
        for (ci, channel) in setups().into_iter().enumerate() {
            let codebook = Codebook::default_for(&channel.array);
            let engine = SweepEngine::new(&channel, &codebook);
            assert!(
                !engine.sectors.s_rt.is_empty(),
                "setup {ci} should be structured"
            );
            let mut rng = Rng::seed_from_u64(0xC0FFEE + ci as u64);
            let mut rx = SweepRx::new();
            let mut pruned = 0usize;
            for pos in random_positions(&channel, &mut rng, 80) {
                let (want_idx, want_rss) =
                    reference::best_common_sector(&channel, &codebook, &[pos], &[]);
                rx.prepare(&engine, pos, &[]);
                let (got_idx, got_dbm) = engine.best_sector(&mut rx);
                assert_eq!(got_idx, want_idx, "sector index diverged at {pos:?}");
                assert_eq!(
                    got_dbm.to_bits(),
                    want_rss[0].to_bits(),
                    "RSS diverged at {pos:?}: {got_dbm} vs {}",
                    want_rss[0]
                );
                pruned += rx.cache.iter().filter(|v| v.is_nan()).count();
            }
            // The bound must actually prune (wildly so) or the engine is
            // pointless; ~80 sweeps x 48 sectors gives plenty of room.
            assert!(pruned > 80 * 24, "only {pruned} sector evals pruned");
        }
    }

    #[test]
    fn singleton_sweep_matches_with_blockers() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rng = Rng::seed_from_u64(7);
        let mut rx = SweepRx::new();
        for pos in random_positions(&channel, &mut rng, 40) {
            let blockers = vec![
                Blocker {
                    center: Vec3::new(
                        (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
                        0.0,
                        (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
                    ),
                    radius: 0.25,
                    height: 1.8,
                },
                Blocker {
                    center: Vec3::new(
                        (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
                        0.0,
                        (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
                    ),
                    radius: 0.3,
                    height: 1.7,
                },
            ];
            let (want_idx, want_rss) =
                reference::best_common_sector(&channel, &codebook, &[pos], &blockers);
            rx.prepare(&engine, pos, &blockers);
            let (got_idx, got_dbm) = engine.best_sector(&mut rx);
            assert_eq!(got_idx, want_idx);
            assert_eq!(got_dbm.to_bits(), want_rss[0].to_bits());
        }
    }

    #[test]
    fn joint_sweep_is_bit_identical() {
        for (ci, channel) in setups().into_iter().enumerate() {
            let codebook = Codebook::default_for(&channel.array);
            let engine = SweepEngine::new(&channel, &codebook);
            let mut rng = Rng::seed_from_u64(0xBEEF + ci as u64);
            let mut tmp = Vec::new();
            let mut rss = Vec::new();
            for group_size in [2usize, 3, 5, 8] {
                let positions = random_positions(&channel, &mut rng, group_size);
                let (want_idx, want_rss) =
                    reference::best_common_sector(&channel, &codebook, &positions, &[]);
                let mut rxs: Vec<SweepRx> = positions
                    .iter()
                    .map(|&p| {
                        let mut rx = SweepRx::new();
                        rx.prepare(&engine, p, &[]);
                        rx
                    })
                    .collect();
                let members: Vec<usize> = (0..group_size).collect();
                let got_idx = engine.best_joint(&mut rxs, &members, &mut tmp, &mut rss);
                assert_eq!(got_idx, want_idx, "group {group_size} in setup {ci}");
                assert_eq!(rss.len(), want_rss.len());
                for (g, w) in rss.iter().zip(&want_rss) {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn combine_matches_custom_beam() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rng = Rng::seed_from_u64(99);
        let mut acc = Vec::new();
        for group_size in [2usize, 3, 4] {
            let positions = random_positions(&channel, &mut rng, group_size);
            let want = reference::custom_beam(&channel, &codebook, &positions, &[]);
            let mut rxs: Vec<SweepRx> = positions
                .iter()
                .map(|&p| {
                    let mut rx = SweepRx::new();
                    rx.prepare(&engine, p, &[]);
                    rx
                })
                .collect();
            let members: Vec<usize> = (0..group_size).collect();
            engine.combine_into(&mut rxs, &members, &mut acc);
            assert_eq!(acc.len(), want.w.len());
            for (g, w) in acc.iter().zip(&want.w) {
                assert_eq!(g.re.to_bits(), w.re.to_bits());
                assert_eq!(g.im.to_bits(), w.im.to_bits());
            }
            // The custom beam evaluated through the sweep state matches the
            // prepared-receiver evaluation bit for bit.
            for (i, &p) in positions.iter().enumerate() {
                let direct = reference::prepare_rx(&channel, p, &[]).rss_dbm(&want);
                let via_sweep = rxs[i].eval_weights(&acc);
                assert_eq!(via_sweep.to_bits(), direct.to_bits());
            }
        }
    }

    /// The default codebook with one sector zeroed: not DFT any more, and
    /// built through `from_parts`, so it does not claim to be.
    fn unstructured_codebook(array: &PlanarArray) -> Codebook {
        let dft = Codebook::default_for(array);
        let mut sectors = dft.sectors().to_vec();
        sectors[5] = AntennaWeights {
            w: vec![Complex::ZERO; sectors[5].w.len()],
        };
        Codebook::from_parts(sectors, dft.directions().to_vec())
    }

    /// The engine prunes only on a codebook's own record: the same weights
    /// through `from_parts`, or a DFT codebook of another geometry, get the
    /// exact-only engine.
    #[test]
    fn only_a_matching_dft_record_is_trusted() {
        let channel = Channel::default_setup();
        let dft = Codebook::default_for(&channel.array);
        let same_weights = Codebook::from_parts(dft.sectors().to_vec(), dft.directions().to_vec());
        let other_array = PlanarArray {
            spacing_wl: 0.45,
            ..channel.array.clone()
        };
        assert!(!SweepEngine::new(&channel, &dft).sectors.s_rt.is_empty());
        for untrusted in [same_weights, Codebook::default_for(&other_array)] {
            let engine = SweepEngine::new(&channel, &untrusted);
            assert!(engine.sectors.s_rt.is_empty());
        }
    }

    #[test]
    fn unstructured_codebook_falls_back_to_exact() {
        let channel = Channel::default_setup();
        let codebook = unstructured_codebook(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        assert!(engine.sectors.s_rt.is_empty(), "nothing vouches for it");
        let mut rng = Rng::seed_from_u64(3);
        let mut rx = SweepRx::new();
        for pos in random_positions(&channel, &mut rng, 20) {
            let (want_idx, want_rss) =
                reference::best_common_sector(&channel, &codebook, &[pos], &[]);
            rx.prepare(&engine, pos, &[]);
            let (got_idx, got_dbm) = engine.best_sector(&mut rx);
            assert_eq!(got_idx, want_idx);
            assert_eq!(got_dbm.to_bits(), want_rss[0].to_bits());
        }
    }

    /// The session's inputs: random member positions plus an "all bodies"
    /// blocker list — one body standing on every member (which the
    /// channel's endpoint guard must drop for that member only) and 0–8
    /// bystanders. The engine's design must equal the exhaustive reference
    /// bit for bit, from fresh receivers and from slots re-prepared in
    /// place after serving an unrelated group.
    #[test]
    fn design_is_bit_identical_to_reference_with_member_bodies() {
        let unstructured = unstructured_codebook(&Channel::default_setup().array);
        let mut cases: Vec<(Channel, Codebook)> = setups()
            .into_iter()
            .map(|ch| {
                let cb = Codebook::default_for(&ch.array);
                (ch, cb)
            })
            .collect();
        cases.push((Channel::default_setup(), unstructured));

        let mut customized = 0usize;
        for (ci, (channel, codebook)) in cases.iter().enumerate() {
            let engine = SweepEngine::new(channel, codebook);
            let mut rng = Rng::seed_from_u64(0xDE51 + ci as u64);
            let mut reused: Vec<SweepRx> = (0..6).map(|_| SweepRx::new()).collect();
            let mut out = BeamDesign::default();
            let mut out_reused = BeamDesign::default();
            for round in 0..12 {
                let group_size = 1 + round % 6;
                let positions = random_positions(channel, &mut rng, group_size);
                let bystanders = rng.gen_range(0..9usize);
                let blockers: Vec<Blocker> = positions
                    .iter()
                    .copied()
                    .chain(random_positions(channel, &mut rng, bystanders))
                    .map(Blocker::person)
                    .collect();
                let want = reference::design(channel, codebook, &positions, &blockers);
                customized += want.customized as usize;

                let mut fresh: Vec<SweepRx> = positions
                    .iter()
                    .map(|&p| {
                        let mut rx = SweepRx::new();
                        rx.prepare(&engine, p, &blockers);
                        rx
                    })
                    .collect();
                let members: Vec<usize> = (0..group_size).collect();
                engine.design(&mut fresh, &members, &mut out);
                // The reused slots still hold the previous round's state
                // (caches, bests, bounds) until `prepare` rewrites them.
                for (rx, &p) in reused.iter_mut().zip(&positions) {
                    rx.prepare(&engine, p, &blockers);
                }
                engine.design(&mut reused, &members, &mut out_reused);

                for got in [&out, &out_reused] {
                    let ctx = format!("setup {ci} round {round} size {group_size}");
                    assert_eq!(got.customized, want.customized, "{ctx}");
                    let weights: &[Complex] = if got.customized {
                        &got.weights
                    } else {
                        &codebook.sectors()[got.sector].w
                    };
                    assert_eq!(weights.len(), want.weights.w.len(), "{ctx}");
                    for (g, w) in weights.iter().zip(&want.weights.w) {
                        assert_eq!(g.re.to_bits(), w.re.to_bits(), "{ctx}");
                        assert_eq!(g.im.to_bits(), w.im.to_bits(), "{ctx}");
                    }
                    assert_eq!(got.member_rss_dbm.len(), want.member_rss_dbm.len());
                    for (g, w) in got.member_rss_dbm.iter().zip(&want.member_rss_dbm) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {g} vs {w}");
                    }
                }
            }
        }
        // Both outcomes of the decision must have been exercised.
        assert!(customized > 4 && customized < 40, "{customized} customized");
    }

    /// Groups of campus size (20–120 members, no bodies): the design
    /// equals the exhaustive reference bit for bit whichever beam wins. On a
    /// one-sector codebook of a single live element the custom beam is that
    /// sector's weights exactly whenever its normalisation rounds back to
    /// 1, so each member's custom RSS *ties* its default RSS — the weakest
    /// member's included — and the default must be kept.
    #[test]
    fn design_matches_the_reference_at_campus_group_sizes() {
        let mut e0 = vec![Complex::ZERO; Channel::default_setup().array.elements()];
        e0[0] = Complex::new(1.0, 0.0);
        let tie = Codebook::from_parts(
            vec![AntennaWeights { w: e0 }],
            vec![Codebook::default_for(&Channel::default_setup().array).directions()[0]],
        );
        let mut cases: Vec<(Channel, Codebook)> = (setups().into_iter())
            .map(|ch| {
                let cb = Codebook::default_for(&ch.array);
                (ch, cb)
            })
            .collect();
        cases.push((Channel::default_setup(), tie));
        let (mut customized, mut ties) = (0usize, 0usize);
        for (ci, (channel, codebook)) in cases.iter().enumerate() {
            let engine = SweepEngine::new(channel, codebook);
            let mut rng = Rng::seed_from_u64(0xCA4D + ci as u64);
            let mut out = BeamDesign::default();
            for round in 0..4 {
                let size = rng.gen_range(20..=120usize);
                // Half the groups stand in one corner: similar bests, so
                // the custom beam can win.
                let mut positions = random_positions(channel, &mut rng, size);
                if round % 2 == 1 {
                    for p in positions.iter_mut() {
                        *p = Vec3::new(p.x * 0.15 + 1.0, p.y, p.z * 0.15 - 1.0);
                    }
                }
                let want = reference::design(channel, codebook, &positions, &[]);
                customized += want.customized as usize;
                let mut rxs: Vec<SweepRx> = (positions.iter())
                    .map(|&p| {
                        let mut rx = SweepRx::new();
                        rx.prepare(&engine, p, &[]);
                        rx
                    })
                    .collect();
                let members: Vec<usize> = (0..size).collect();
                engine.design(&mut rxs, &members, &mut out);
                let ctx = format!("setup {ci} round {round} size {size}");
                assert_eq!(out.customized, want.customized, "{ctx}");
                if !want.customized {
                    let (sector, _) =
                        reference::best_common_sector(channel, codebook, &positions, &[]);
                    assert_eq!(out.sector, sector, "{ctx}");
                    let custom = reference::custom_beam(channel, codebook, &positions, &[]);
                    ties += (custom == codebook.sectors()[sector]) as usize;
                }
                assert_eq!(
                    bits(&out.member_rss_dbm),
                    bits(&want.member_rss_dbm),
                    "{ctx}"
                );
            }
        }
        assert!(customized >= 2, "{customized} customized");
        assert!(ties >= 1, "{ties} ties");
    }

    /// The planner's rate cap rests on this: no unit-power beam — a codebook
    /// sector, a designed group beam of either kind, a dedicated path beam,
    /// random weights — delivers more than `rss_cap_dbm`, whatever stands
    /// in the room. And the cap is not vacuous: a dedicated beam collects
    /// its own path's whole term, so the best one is within `n_paths` of it.
    #[test]
    fn rss_cap_dominates_every_unit_power_beam() {
        let setups = setups();
        let codebooks: Vec<Codebook> = (setups.iter())
            .map(|ch| Codebook::default_for(&ch.array))
            .collect();
        let (mut custom, mut default) = (0usize, 0usize);
        let (mut out, mut tmp, mut beam) = (BeamDesign::default(), Vec::new(), Vec::new());
        run_cases_n("rss_cap_dominates_every_unit_power_beam", 48, |rng| {
            let ci = rng.gen_range(0..setups.len());
            let (channel, codebook) = (&setups[ci], &codebooks[ci]);
            let engine = SweepEngine::new(channel, codebook);
            let (group, bystanders) = (rng.gen_range(2..5usize), rng.gen_range(0..7usize));
            let positions = random_positions(channel, rng, group);
            let blockers: Vec<Blocker> = (positions.iter().copied())
                .chain(random_positions(channel, rng, bystanders))
                .map(Blocker::person)
                .collect();
            let mut rxs: Vec<SweepRx> = (positions.iter())
                .map(|&p| {
                    let mut rx = SweepRx::new();
                    rx.prepare(&engine, p, &blockers);
                    rx
                })
                .collect();
            let caps: Vec<f64> = rxs.iter().map(SweepRx::rss_cap_dbm).collect();
            let members: Vec<usize> = (0..rxs.len()).collect();

            for (rx, &cap) in rxs.iter_mut().zip(&caps) {
                let best = rx.rss_best_beam(&mut beam);
                assert!(engine.best_sector(rx).1 <= cap && best <= cap);
                let slack_db = 10.0 * (rx.n_paths().max(1) as f64).log10() + 1e-6;
                assert!(cap - best <= slack_db, "{cap} is not tight over {best}");
            }
            engine.design(&mut rxs, &members, &mut out);
            *(if out.customized {
                &mut custom
            } else {
                &mut default
            }) += 1;
            assert!(out
                .member_rss_dbm
                .iter()
                .zip(&caps)
                .all(|(r, cap)| r <= cap));
            // The ablation's beam, and the one `design` just measured the
            // custom beam against.
            engine.best_joint(&mut rxs, &members, &mut tmp, &mut out.member_rss_dbm);
            assert!(out
                .member_rss_dbm
                .iter()
                .zip(&caps)
                .all(|(r, cap)| r <= cap));

            for _ in 0..100 {
                beam.clear();
                beam.extend(
                    (0..channel.array.elements())
                        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))),
                );
                normalize(&mut beam);
                for (rx, &cap) in rxs.iter().zip(&caps) {
                    assert!(rx.eval_weights(&beam) <= cap);
                }
            }
        });
        assert!(
            custom > 0 && default > 0,
            "{custom} custom, {default} default"
        );
    }

    /// The same claim against the oracle's own float programs (full-element
    /// steering, per-call receivers, the exhaustive sweep): one blocked
    /// three-member group in the reflective room.
    #[test]
    fn rss_cap_dominates_the_reference_design() {
        let channel = &setups()[1];
        let codebook = Codebook::default_for(&channel.array);
        let mut rng = Rng::seed_from_u64(0xCA9);
        let positions = random_positions(channel, &mut rng, 3);
        let blockers: Vec<Blocker> = (positions.iter().copied())
            .chain(random_positions(channel, &mut rng, 4))
            .map(Blocker::person)
            .collect();
        let mut rx = SweepRx::new();
        let caps: Vec<f64> = (positions.iter())
            .map(|&p| {
                rx.prepare_paths(channel, p, &blockers);
                rx.rss_cap_dbm()
            })
            .collect();
        let design = reference::design(channel, &codebook, &positions, &blockers);
        let (_, sector_rss) =
            reference::best_common_sector(channel, &codebook, &positions, &blockers);
        for (u, &cap) in caps.iter().enumerate() {
            assert!(design.member_rss_dbm[u] <= cap && sector_rss[u] <= cap);
            assert!(reference::rss_best_beam(channel, positions[u], &blockers) <= cap);
            assert!(cap.is_finite());
        }
    }

    #[test]
    fn prepare_reuses_buffers() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rx = SweepRx::new();
        rx.prepare(&engine, Vec3::new(1.0, 1.5, -1.0), &[]);
        let _ = engine.best_sector(&mut rx);
        let caps = (
            rx.steer.capacity(),
            rx.bounds.capacity(),
            rx.cache.capacity(),
            rx.uv.capacity(),
            rx.paths_tmp.capacity(),
        );
        for i in 0..10 {
            let pos = Vec3::new(-2.0 + 0.4 * i as f64, 1.2, 2.0 - 0.3 * i as f64);
            rx.prepare(&engine, pos, &[]);
            let _ = engine.best_sector(&mut rx);
        }
        assert_eq!(
            caps,
            (
                rx.steer.capacity(),
                rx.bounds.capacity(),
                rx.cache.capacity(),
                rx.uv.capacity(),
                rx.paths_tmp.capacity(),
            ),
            "steady-state prepare must not reallocate"
        );
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The bound loop with one trig column entry per sector for both axes,
    /// verbatim: the columns as `SweepEngine::new` built them, then paths
    /// outer, sectors inner, every term in the same order.
    fn per_sector_bounds(engine: &SweepEngine, rx: &SweepRx) -> Vec<f64> {
        let (codebook, array) = (engine.codebook, &engine.channel.array);
        let (half_kd, nxf, nyf) = (engine.half_kd, engine.nxf, engine.nyf);
        let mut cols: [Vec<f64>; 9] = Default::default();
        for (sec, dir) in codebook.sectors().iter().zip(codebook.directions()) {
            let s2_max = sec.w.iter().map(|c| c.norm_sq()).fold(0.0f64, f64::max);
            let u = dir.azimuth.sin() * dir.elevation.cos();
            let v = dir.elevation.sin();
            let (sin_bx, cos_bx) = (half_kd * u).sin_cos();
            let (sin_bxn, cos_bxn) = (array.nx as f64 * half_kd * u).sin_cos();
            let (sin_by, cos_by) = (half_kd * v).sin_cos();
            let (sin_byn, cos_byn) = (array.ny as f64 * half_kd * v).sin_cos();
            let row = [
                s2_max.sqrt() * (1.0 + 1e-9),
                sin_bx,
                cos_bx,
                sin_bxn,
                cos_bxn,
                sin_by,
                cos_by,
                sin_byn,
                cos_byn,
            ];
            for (col, x) in cols.iter_mut().zip(row) {
                col.push(x);
            }
        }
        let [s_rt, sin_bx, cos_bx, sin_bxn, cos_bxn, sin_by, cos_by, sin_byn, cos_byn] = &cols;
        let mut bounds = vec![0.0; codebook.len()];
        for p in 0..rx.n_paths {
            let (u, v) = rx.uv[p];
            let (sin_ax, cos_ax) = (half_kd * u).sin_cos();
            let (sin_axn, cos_axn) = (nxf * half_kd * u).sin_cos();
            let (sin_ay, cos_ay) = (half_kd * v).sin_cos();
            let (sin_ayn, cos_ayn) = (nyf * half_kd * v).sin_cos();
            let c_mw = unit_gain_mw(rx.loss_db[p]) * (1.0 + 1e-9);
            let element = rx.element[p];
            for s in 0..bounds.len() {
                let dx_den = (sin_ax * cos_bx[s] - cos_ax * sin_bx[s]).abs();
                let dx_num = (sin_axn * cos_bxn[s] - cos_axn * sin_bxn[s]).abs();
                let dx_quot = (dx_num / dx_den).min(nxf);
                let dx = if dx_den < 1e-9 { nxf } else { dx_quot };
                let dy_den = (sin_ay * cos_by[s] - cos_ay * sin_by[s]).abs();
                let dy_num = (sin_ayn * cos_byn[s] - cos_ayn * sin_byn[s]).abs();
                let dy_quot = (dy_num / dy_den).min(nyf);
                let dy = if dy_den < 1e-9 { nyf } else { dy_quot };
                let amp = s_rt[s] * dx * dy * (1.0 + 1e-6) + 1e-5;
                bounds[s] += c_mw * amp * amp * element * (1.0 + 1e-6);
            }
        }
        for b in bounds.iter_mut() {
            *b *= 1.0 + 1e-9;
        }
        bounds
    }

    /// Exact evaluations read the steering rows: a receiver that was only
    /// located has none, and must not answer as if it had no path.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never steered")]
    fn an_unsteered_receiver_is_not_evaluated() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let mut rx = SweepRx::new();
        rx.locate(&channel, Vec3::new(0.5, 1.5, -1.0), &[]);
        assert!(!rx.is_steered() && rx.rss_cap_dbm().is_finite());
        rx.eval_weights(&codebook.sectors()[0].w);
    }

    /// A run of y values extends only while all four match bit for bit: a
    /// change in any one column, a sign of zero included, starts a new run.
    /// The default codebook has one run per elevation row.
    #[test]
    fn y_runs_split_on_any_column() {
        let base = [0.0, 0.5, -0.75, 1.0];
        for col in 0..4 {
            for changed in [0.125, -base[col]] {
                let mut y = base;
                y[col] = changed;
                let mut st = SectorTrig::default();
                for y in [base, base, y, y, y, base] {
                    st.push(1.0, [0.0; 4], y);
                }
                let ends: Vec<usize> = st.y_runs.iter().map(|r| r.end).collect();
                assert_eq!(ends, [2, 5, 6], "column {col} set to {changed}");
            }
        }
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        let ends: Vec<usize> = engine.sectors.y_runs.iter().map(|r| r.end).collect();
        assert_eq!(ends, [16, 32, 48]);
    }

    /// Every sector bound, bit for bit, against the per-sector loop: random
    /// DFT grids and spans (one case in four the default codebook), each
    /// room with and without its floor bounce, 0–8 bodies.
    #[test]
    fn sector_bounds_match_the_per_sector_loop() {
        let setups = setups();
        run_cases_n("sector_bounds_match_the_per_sector_loop", 256, |rng| {
            let mut channel = setups[rng.gen_range(0..setups.len())].clone();
            channel.room.floor_reflection = rng.gen_bool(0.5);
            let codebook = if rng.gen_bool(0.25) {
                Codebook::default_for(&channel.array)
            } else {
                let (n_az, n_el) = (rng.gen_range(1..17usize), rng.gen_range(1..5usize));
                let (az, el) = (rng.gen_range(0.0..1.5), rng.gen_range(0.0..1.5));
                Codebook::dft(&channel.array, n_az, n_el, az, el)
            };
            let engine = SweepEngine::new(&channel, &codebook);
            assert!(!engine.sectors.s_rt.is_empty());
            let n_bodies = rng.gen_range(0..9usize);
            let bodies: Vec<Blocker> = (random_positions(&channel, rng, n_bodies).into_iter())
                .map(Blocker::person)
                .collect();
            let mut rx = SweepRx::new();
            for pos in random_positions(&channel, rng, 6) {
                rx.prepare(&engine, pos, &bodies);
                let want = per_sector_bounds(&engine, &rx);
                assert_eq!(bits(&rx.bounds), bits(&want), "at {pos:?}");
            }
        });
    }

    /// `eval_weights` as one serial chain per path, verbatim.
    fn serial_eval(rx: &SweepRx, weights: &[Complex]) -> f64 {
        let mut total_mw = 0.0f64;
        for p in 0..rx.n_paths {
            let gain = crate::array::response(weights, rx.row(p)).norm_sq() * rx.element[p];
            if gain <= 0.0 {
                continue;
            }
            let rx_dbm =
                calib::TX_POWER_DBM + 10.0 * gain.log10() + calib::RX_GAIN_DBI - rx.loss_db[p];
            total_mw += calib::dbm_to_mw(rx_dbm);
        }
        calib::mw_to_dbm(total_mw)
    }

    /// Exact evaluations, bit for bit, against one serial chain per path:
    /// receivers with 0–7 paths (none at all for an array outside its
    /// room, seven with the floor bounce; a prefix of the paths otherwise)
    /// under codebook sectors, dedicated beams, random and zero weights.
    #[test]
    fn eval_weights_matches_the_serial_chains() {
        let setups = setups();
        let outside = Vec3::new(20.0, 10.0, 0.0);
        let lost = Channel::new(
            Room::default(),
            PlanarArray::airfide(outside, Vec3::FORWARD),
        );
        let mut seen = [0usize; 8];
        let mut rx = SweepRx::new();
        let mut beam = Vec::new();
        run_cases_n("eval_weights_matches_the_serial_chains", 256, |rng| {
            let mut channel = setups[rng.gen_range(0..setups.len())].clone();
            channel.room.floor_reflection = rng.gen_bool(0.5);
            let codebook = Codebook::default_for(&channel.array);
            let n_bodies = rng.gen_range(0..9usize);
            let bodies: Vec<Blocker> = (random_positions(&channel, rng, n_bodies).into_iter())
                .map(Blocker::person)
                .collect();
            if rng.gen_bool(0.1) {
                rx.prepare_paths(&lost, outside, &bodies);
            } else {
                let pos = random_positions(&channel, rng, 1)[0];
                rx.prepare_paths(&channel, pos, &bodies);
                let keep = rng.gen_range(0..rx.n_paths + 1);
                if keep < rx.n_paths {
                    rx.n_paths = keep;
                    rx.steer.truncate(keep * rx.elements);
                    rx.loss_db.truncate(keep);
                    rx.element.truncate(keep);
                    rx.uv.truncate(keep);
                }
            }
            seen[rx.n_paths] += 1;
            let n = channel.array.elements();
            let check = |w: &[Complex]| {
                let (got, want) = (rx.eval_weights(w), serial_eval(&rx, w));
                assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
            };
            for sector in codebook.sectors().iter().step_by(5) {
                check(&sector.w);
            }
            check(&vec![Complex::ZERO; n]);
            for _ in 0..4 {
                beam.clear();
                beam.extend(
                    (0..n)
                        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))),
                );
                normalize(&mut beam);
                check(&beam);
            }
            for p in 0..rx.n_paths {
                rx.rss_row_beam(p, &mut beam);
                check(&beam);
            }
        });
        assert!(seen.iter().all(|&k| k > 0), "path counts seen: {seen:?}");
    }
}
