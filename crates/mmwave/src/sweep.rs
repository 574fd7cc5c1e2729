//! Allocation-free codebook sweeps and group-beam design: the one
//! production implementation behind the session, the campus and the
//! [`MultiLobeDesigner`] convenience front.
//!
//! A DFT sector, and the conjugate beam a link uses, responds to a path in
//! closed form. Its weights are the conjugated steering row toward its own
//! direction over `√N`, so the response toward a path factors into one
//! Dirichlet kernel per array axis ([`PlanarArray::chebyshev_u`]):
//!
//! ```text
//! wᵀa = U_{nx−1}(cos ψx) · U_{ny−1}(cos ψy) / √N
//!   ψx = (k·d/2)·(u_p − u_s),  ψy = (k·d/2)·(v_p − v_s)
//! ```
//!
//! with `cos ψ = cos a · cos b + sin a · sin b` from each direction's
//! half-angle `(sin, cos)` pairs, taken once per path and once per sector.
//! The normalisation is `1/N`, a conjugate beam's exact power (a shipped
//! sector's own `Σ|w|²` is 1 to a few ULPs), and 0 for an array with no
//! elements, which delivers nothing. A path delivers
//! `|wᵀa|² · path_mw`, `path_mw` being its power at unit array gain times
//! its element factor, and a receiver's RSS is the non-coherent sum over
//! its paths, in path order, in milliwatts.
//!
//! A sweep runs the x kernel over blocks of eight sectors of one elevation
//! run: each step of the recurrence advances all eight lanes, which are
//! independent chains the CPU overlaps (and the compiler pairs into vector
//! registers) where one sector's serial chain would wait on itself. Every
//! lane runs exactly the one-lane [`PlanarArray::chebyshev_u`]'s operations
//! in its order — Rust does not contract them to fused multiply-adds — so
//! the table is bit for bit the per-sector loop's, which the tests keep as
//! its referee.
//!
//! [`SweepRx`] is the crate's one prepared receiver, in two stages (a new
//! location empties the second):
//!
//! 1. [`SweepRx::locate`] resolves the geometry — usable paths, their
//!    `path_mw`, direction cosines and half-angle pairs — which is all
//!    [`SweepRx::rss_cap_dbm`] and the link beams
//!    ([`SweepRx::rss_dedicated_beam`], [`SweepRx::rss_best_beam`]) read;
//! 2. [`SweepRx::sweep`] fills the per-sector table of linear RSS that
//!    [`SweepEngine::best_sector`], [`SweepEngine::best_joint`] and
//!    [`SweepRx::eval_sector`] read: argmaxes over it, first winner kept.
//!
//! A receiver keeps its kernels `K = U·U` on its first custom-beam price,
//! and a custom beam `Σ_t c_t·w_{s_t}` (unit power) is priced from them:
//! toward path `p`, `|wᵀa|² = (Σ_t c_t·K(s_t, p))² / G` with
//! `G = Σ_t Σ_t' c_t·c_t'·K(s_t, s_t')`.
//! Only arbitrary weight vectors are priced by [`SweepRx::eval_weights`]:
//! element sums over the receiver's steering rows, built on its first call
//! after a location.
//! The `Channel::rss_*` conveniences are allocating fronts over a located
//! receiver; the test-only `reference` module keeps a per-call
//! `PreparedRx` and the exhaustive scan as the oracle of all of it.
//!
//! Everything here reuses caller-owned buffers: after warm-up, every stage,
//! link evaluation, sweep and design allocates nothing, which the campus
//! epoch loop's and the link path's counting-allocator gates rely on.
//!
//! [`MultiLobeDesigner`]: crate::MultiLobeDesigner

use crate::array::{chebyshev_u_lanes, normalize, PlanarArray};
use crate::calib;
use crate::channel::{Blocker, Channel, Path};
use crate::codebook::Codebook;
use volcast_geom::{Complex, Vec3};
use volcast_util::obs;

/// `k·d/2`: half the phase step between neighbouring elements of `array`
/// per unit of direction cosine, the scale of the kernel's `ψ`.
fn half_kd(array: &PlanarArray) -> f64 {
    0.5 * (2.0 * std::f64::consts::PI / calib::WAVELENGTH_M)
        * (array.spacing_wl * calib::WAVELENGTH_M)
}

/// Sectors per step of the sweep's x kernel: 8 chains to overlap, in
/// stack arrays.
const LANES: usize = 8;

/// A direction's half-angle pairs `[[sin a, cos a], [sin b, cos b]]`,
/// `(a, b) = k·d/2 · (u, v)`: what `cos ψ` toward any other direction is
/// built from, one product pair per axis.
type Half = [[f64; 2]; 2];

fn half_angles(half_kd: f64, u: f64, v: f64) -> Half {
    let (sin_a, cos_a) = (half_kd * u).sin_cos();
    let (sin_b, cos_b) = (half_kd * v).sin_cos();
    [[sin_a, cos_a], [sin_b, cos_b]]
}

/// `cos(a − b) = cos a · cos b + sin a · sin b` from `[sin, cos]` pairs.
fn cos_diff(a: [f64; 2], b: [f64; 2]) -> f64 {
    a[1] * b[1] + a[0] * b[0]
}

/// `K = √N · wᵀa = U_{nx−1}(cos ψx) · U_{ny−1}(cos ψy)` of the conjugate
/// beam toward direction `beam` at direction `path` (symmetric bitwise).
fn kernel(nx: usize, ny: usize, path: &Half, beam: &Half) -> f64 {
    PlanarArray::chebyshev_u(nx, cos_diff(path[0], beam[0]))
        * PlanarArray::chebyshev_u(ny, cos_diff(path[1], beam[1]))
}

/// `1/N`, a conjugate beam's power normalisation — and 0 for an array with
/// no elements, which delivers nothing, as its element sums do (`∞ · 0`
/// would price it NaN).
fn inv_elements(nx: usize, ny: usize) -> f64 {
    match nx * ny {
        0 => 0.0,
        n => 1.0 / n as f64,
    }
}

/// The first index of the largest value and that value: the first-winner
/// argmax of the RSS in dBm, where `0 mW` is `−∞` — so `(0, 0.0)` when
/// nothing is positive.
fn argmax(values: &[f64]) -> (usize, f64) {
    let mut best = (0, 0.0);
    for (s, &v) in values.iter().enumerate() {
        if v > best.1 {
            best = (s, v);
        }
    }
    best
}

/// The sector evaluator for one `(channel, codebook)` pair.
///
/// Immutable and `Sync` once built: all per-receiver mutable state lives in
/// [`SweepRx`], so one engine can serve many parallel room workers.
///
/// Every sector and custom beam is priced by the kernel, which holds
/// because a [`Codebook::dft`] built for the channel's array geometry
/// vouches for its sectors being the conjugate beams of its directions.
#[derive(Debug, Clone)]
pub struct SweepEngine<'a> {
    channel: &'a Channel,
    codebook: &'a Codebook,
    /// Each sector's x half-angle pair (see [`half_angles`]) as two
    /// columns, sines and cosines, padded by `LANES − 1` zeros so that a
    /// step of the x kernel may read a full block from any sector.
    sin_x: Vec<f64>,
    cos_x: Vec<f64>,
    /// `(end, y pair)`: sectors up to `end` (from the previous run's)
    /// share their y half-angle pair bit for bit — one run per elevation
    /// row of a [`Codebook::dft`], which is elevation-major — so the y
    /// kernel takes one value per path and run.
    y_runs: Vec<(usize, [f64; 2])>,
}

impl<'a> SweepEngine<'a> {
    /// Builds the engine over a [`Codebook::dft`] of `channel`'s array. A
    /// codebook built for another array geometry panics: its sectors are
    /// not this array's conjugate beams, which the kernel prices.
    pub fn new(channel: &'a Channel, codebook: &'a Codebook) -> Self {
        let array = &channel.array;
        assert!(
            codebook.is_dft_for(array),
            "the codebook was built for another array geometry"
        );
        let half_kd = half_kd(array);
        let padded = codebook.len() + LANES - 1;
        let (mut sin_x, mut cos_x) = (Vec::with_capacity(padded), Vec::with_capacity(padded));
        let mut y_runs = Vec::<(usize, [f64; 2])>::new();
        for dir in codebook.directions() {
            let u = dir.azimuth.sin() * dir.elevation.cos();
            let [[sin, cos], y] = half_angles(half_kd, u, dir.elevation.sin());
            sin_x.push(sin);
            cos_x.push(cos);
            match y_runs.last_mut() {
                Some((end, run)) if run.map(f64::to_bits) == y.map(f64::to_bits) => {
                    *end = sin_x.len()
                }
                _ => y_runs.push((sin_x.len(), y)),
            }
        }
        sin_x.resize(sin_x.len() + LANES - 1, 0.0);
        cos_x.resize(sin_x.len(), 0.0);
        SweepEngine {
            channel,
            codebook,
            sin_x,
            cos_x,
            y_runs,
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

    /// Best single-receiver sector of a swept receiver: `(sector index, RSS
    /// dBm)`, the first of the strongest.
    pub fn best_sector(&self, rx: &mut SweepRx) -> (usize, f64) {
        let (s, mw) = rx.best();
        (s, calib::mw_to_dbm(mw))
    }

    /// Best common sector for a member set of swept receivers: maximizes
    /// the minimum member RSS, first winner kept. On return `rss_out` holds
    /// the winning sector's per-member RSS in member order (all `-∞` if no
    /// sector reaches every member); `tmp` is left holding each sector's
    /// member minimum (mW).
    pub fn best_joint(
        &self,
        rxs: &mut [SweepRx],
        members: &[usize],
        tmp: &mut Vec<f64>,
        rss_out: &mut Vec<f64>,
    ) -> usize {
        tmp.clear();
        tmp.resize(self.codebook.len(), f64::INFINITY);
        for &mi in members {
            for (min, &v) in tmp.iter_mut().zip(rxs[mi].table()) {
                *min = min.min(v);
            }
        }
        let (best, min) = argmax(tmp);
        rss_out.clear();
        rss_out.extend(members.iter().map(|&mi| {
            if min > 0.0 {
                calib::mw_to_dbm(rxs[mi].table[best])
            } else {
                f64::NEG_INFINITY
            }
        }));
        best
    }

    /// Each `(path, sector)` kernel `K` of paths `h` on an `axes` array into
    /// `f(p, s, K)`: paths outer, sectors ascending, the y factor once per
    /// elevation run, the x kernel over eight sectors at a time.
    fn each_kernel(&self, h: &[Half], axes: (usize, usize), mut f: impl FnMut(usize, usize, f64)) {
        let (nx, ny) = axes;
        for (p, &[px, py]) in h.iter().enumerate() {
            let mut start = 0;
            for &(end, y) in &self.y_runs {
                let uy = PlanarArray::chebyshev_u(ny, cos_diff(py, y));
                for s in (start..end).step_by(LANES) {
                    let (sin, cos) = (&self.sin_x[s..][..LANES], &self.cos_x[s..][..LANES]);
                    let x = std::array::from_fn(|i| cos_diff(px, [sin[i], cos[i]]));
                    // Lanes past the run's end are computed and dropped.
                    let real = s..end.min(s + LANES);
                    for (s, ux) in real.zip(chebyshev_u_lanes::<LANES>(nx, x)) {
                        f(p, s, ux * uy);
                    }
                }
                start = end;
            }
        }
    }

    /// Sector `s`'s half-angle pairs: its x column and its run's y pair.
    fn sector_half(&self, s: usize) -> Half {
        let run = self.y_runs.partition_point(|&(end, _)| end <= s);
        [[self.sin_x[s], self.cos_x[s]], self.y_runs[run].1]
    }

    /// The custom beam of swept members into `out`: terms (best sector and
    /// `1/mw`, summed per sector in member order) and their Gram `G`.
    fn lobes(&self, rxs: &[SweepRx], members: &[usize], out: &mut BeamDesign) {
        out.terms.clear();
        for &mi in members {
            let (s, mw) = rxs[mi].best();
            let c = 1.0 / mw.max(1e-15);
            match out.terms.iter_mut().find(|t| t.0 == s) {
                Some(t) => t.1 += c,
                None => out.terms.push((s, c)),
            }
        }
        let (nx, ny) = (self.channel.array.nx, self.channel.array.ny);
        out.gram = 0.0;
        for (i, &(s, c)) in out.terms.iter().enumerate() {
            let h = self.sector_half(s);
            let k = |x, &(t, ct): &(usize, f64)| x + ct * kernel(nx, ny, &h, &self.sector_half(t));
            let cross = out.terms[..i].iter().fold(0.0, k);
            out.gram += c * (c * kernel(nx, ny, &h, &h) + 2.0 * cross);
        }
    }

    /// The unit-power weights `Σ_t c_t·w_{s_t}` of custom-beam terms into
    /// `acc`, for `MultiLobeDesigner::design`.
    pub(crate) fn combine_into(&self, terms: &[(usize, f64)], acc: &mut Vec<Complex>) {
        acc.clear();
        acc.resize(self.channel.array.elements(), Complex::ZERO);
        for &(s, c) in terms {
            for (a, b) in acc.iter_mut().zip(&self.codebook.sectors()[s].w) {
                *a += b.scale(c);
            }
        }
        normalize(acc);
    }

    /// RSS (mW) at a receiver swept here of the custom beam `lobes` wrote:
    /// `Σ_p path_mw·(Σ_t c_t·K(s_t, p))² / G`, 0 where `G = 0` (not `0/0`),
    /// the kernels kept on first use.
    fn custom_mw(&self, rx: &mut SweepRx, terms: &[(usize, f64)], g: f64) -> f64 {
        let (n, mut total_mw) = (self.codebook.len(), 0.0f64);
        if g > 0.0 {
            if rx.kern.is_empty() {
                let (axes, kern) = (rx.axes(), &mut rx.kern);
                kern.resize(rx.half.len() * n, 0.0);
                self.each_kernel(&rx.half, axes, |p, s, r| kern[p * n + s] = r);
            }
            for (&mw, k) in rx.path_mw.iter().zip(rx.kern.chunks_exact(n)) {
                let r = terms.iter().fold(0.0, |r, &(s, c)| r + c * k[s]);
                total_mw += mw * (r * r / g);
            }
        }
        total_mw
    }

    /// RSS (dBm) of a designed beam at any receiver swept by this engine.
    pub fn beam_dbm(&self, rx: &mut SweepRx, beam: &BeamDesign) -> f64 {
        if !beam.customized {
            return rx.eval_sector(beam.sector);
        }
        calib::mw_to_dbm(self.custom_mw(rx, &beam.terms, beam.gram))
    }

    /// Full group beam design (§4.2) over swept receivers: whichever of
    /// (best common default sector, customized multi-lobe beam) yields the
    /// higher common RSS, written into `out`'s reused buffers. When every
    /// member's own best sector is the common one, the default beam is used
    /// directly and no custom beam is priced: combining a sector with
    /// itself gives that sector back, up to rounding. This is the one
    /// design decision in the tree — the session, the campus and
    /// [`MultiLobeDesigner::design`] all run it — and it owns the
    /// `mmwave.designer.*` metrics, emitted once per design computed.
    ///
    /// [`MultiLobeDesigner::design`]: crate::MultiLobeDesigner::design
    pub fn design(&self, rxs: &mut [SweepRx], members: &[usize], out: &mut BeamDesign) {
        assert!(!members.is_empty(), "cannot design a beam for nobody");
        let _span = obs::span("mmwave.designer.design");
        out.sector = self.best_joint(rxs, members, &mut out.scratch, &mut out.member_rss_dbm);
        out.customized = false;
        let tie = || (members.iter()).all(|&mi| rxs[mi].best().0 == out.sector);
        if members.len() >= 2 && !tie() {
            let default_min = out.common_rss_dbm();
            self.lobes(rxs, members, out);
            // The custom beam must beat the default at every member: stop at its first loss.
            out.scratch.clear();
            let (terms, gram) = (&out.terms, out.gram);
            out.customized = members.iter().all(|&mi| {
                let v = calib::mw_to_dbm(self.custom_mw(&mut rxs[mi], terms, gram));
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
        }
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
    /// The custom beam's `(sector, c)` terms, one per sector, and their
    /// Gram: the transmit beam when `customized`.
    pub(crate) terms: Vec<(usize, f64)>,
    gram: f64,
    /// Per-member RSS (dBm) under the chosen beam, in member order.
    pub member_rss_dbm: Vec<f64>,
    /// Joint-sweep scratch / a losing custom beam's RSS up to its first loss.
    scratch: Vec<f64>,
}

impl BeamDesign {
    /// A design whose buffers hold groups of up to `members` members with
    /// a DFT codebook of `sectors` sectors: designing into it then
    /// allocates nothing. (A customized design swaps the member RSS with
    /// the scratch, so both hold either.)
    pub fn with_capacity(members: usize, sectors: usize) -> Self {
        let rss = sectors.max(members);
        BeamDesign {
            terms: Vec::with_capacity(members.min(sectors)),
            member_rss_dbm: Vec::with_capacity(rss),
            scratch: Vec::with_capacity(rss),
            ..BeamDesign::default()
        }
    }

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

/// The prepared receiver, in two stages: the located paths, and on top of
/// them the per-sector table of linear RSS (and kernels, once a custom beam
/// is priced). Rows are built only for arbitrary weights. One per `(AP,
/// user)` pair — or one per session for link evaluations — reused across
/// frames: each stage only rewrites contents, so steady-state reuse
/// allocates nothing.
#[derive(Debug, Default)]
pub struct SweepRx {
    // --- locate: written by `locate` ---
    /// The array `locate` ran on (its geometry is all the rows need).
    array: Option<PlanarArray>,
    /// Whether path 0 is the line-of-sight path (it is enumerated first, but
    /// a receiver at the array position has no LoS direction).
    los_first: bool,
    /// Per path, `unit_gain_mw(loss) · element`: its power (mW) at unit
    /// array gain.
    path_mw: Vec<f64>,
    /// Per path, direction cosines `(u, v)`, as fed to the steering row.
    uv: Vec<(f64, f64)>,
    /// Per path, its [`half_angles`].
    half: Vec<Half>,
    /// Scratch for path enumeration.
    paths_tmp: Vec<Path>,
    /// Path steering rows, row-major `paths × elements`: empty from
    /// `locate` until the first [`SweepRx::eval_weights`].
    rows: Vec<Complex>,
    // --- sweep: written by `sweep`, emptied by `locate` ---
    /// Per-sector RSS (mW).
    table: Vec<f64>,
    /// Per path, each sector's `K`, kept by the first custom price.
    kern: Vec<f64>,
}

impl SweepRx {
    /// A fresh, empty receiver slot.
    pub fn new() -> Self {
        SweepRx::default()
    }

    /// An empty receiver slot with room for `paths` paths and a DFT
    /// codebook of `sectors` sectors: locating, sweeping and pricing beams
    /// within those then allocate nothing. [`Channel::max_paths`] bounds
    /// the paths of any location.
    pub fn with_capacity(paths: usize, sectors: usize) -> Self {
        SweepRx {
            path_mw: Vec::with_capacity(paths),
            uv: Vec::with_capacity(paths),
            half: Vec::with_capacity(paths),
            paths_tmp: Vec::with_capacity(paths),
            table: Vec::with_capacity(sectors),
            kern: Vec::with_capacity(paths * sectors),
            ..SweepRx::default()
        }
    }

    /// Stage 1, *locate*: (re)places the receiver at `pos` with the given
    /// blockers — enumerates paths, drops those with a degenerate departure
    /// direction (they contribute zero gain), resolves blockage, and keeps
    /// each survivor's `path_mw`, direction cosines and half-angle pairs.
    /// Enough for [`SweepRx::rss_cap_dbm`] and the link beams; empties the
    /// table. Books no metric.
    pub fn locate(&mut self, channel: &Channel, pos: Vec3, blockers: &[Blocker]) {
        let array = &channel.array;
        let half_kd = half_kd(array);
        channel.paths_into(pos, &mut self.paths_tmp);
        self.array = Some(array.clone());
        self.los_first = false;
        self.path_mw.clear();
        self.uv.clear();
        self.half.clear();
        self.rows.clear();
        self.table.clear();
        self.kern.clear();
        for path in &self.paths_tmp {
            let Some((u, v, element)) = array.cosines(path.via - array.position) else {
                continue;
            };
            if self.path_mw.is_empty() {
                self.los_first = path.is_los;
            }
            let loss_db = channel.path_loss_db(path, pos, blockers);
            (self.path_mw).push(unit_gain_mw(loss_db) * element);
            self.uv.push((u, v));
            self.half.push(half_angles(half_kd, u, v));
        }
    }

    /// Stage 2, *sweep*: every sector's RSS (mW) into the table, in closed
    /// form (`SweepEngine::each_kernel`). Paths outer, sectors inner: each
    /// sector adds its path terms in ascending path order.
    pub fn sweep(&mut self, engine: &SweepEngine) {
        self.table.clear();
        self.kern.clear();
        self.table.resize(engine.codebook.len(), 0.0);
        let axes = self.axes();
        let inv_n = inv_elements(axes.0, axes.1);
        let (mw, t) = (&self.path_mw, &mut self.table);
        engine.each_kernel(&self.half, axes, |p, s, r| t[s] += mw[p] * inv_n * (r * r));
    }

    /// Whether [`SweepRx::sweep`] has run since the last
    /// [`SweepRx::locate`].
    pub fn is_swept(&self) -> bool {
        !self.table.is_empty()
    }

    /// Both stages, booking one `mmwave.designer.path_cache_misses`.
    pub fn prepare(&mut self, engine: &SweepEngine, pos: Vec3, blockers: &[Blocker]) {
        obs::inc("mmwave.designer.path_cache_misses");
        self.locate(engine.channel, pos, blockers);
        self.sweep(engine);
    }

    /// The table; reading a receiver that was never swept trips a
    /// `debug_assert`.
    fn table(&self) -> &[f64] {
        debug_assert!(self.is_swept(), "reading a receiver that was never swept");
        &self.table
    }

    /// The first strongest sector and its RSS (mW).
    fn best(&self) -> (usize, f64) {
        argmax(self.table())
    }

    /// `(nx, ny)` of the located array.
    fn axes(&self) -> (usize, usize) {
        self.array.as_ref().map_or((0, 0), |a| (a.nx, a.ny))
    }

    /// Exact RSS (dBm) of an arbitrary weight vector against the located
    /// paths: the non-coherent power sum `Σ |wᵀa|² · path_mw` in path
    /// order, each dot product summing its elements in index order over
    /// the steering rows (built here on first use).
    pub fn eval_weights(&mut self, weights: &[Complex]) -> f64 {
        if self.rows.is_empty() {
            if let Some(array) = &self.array {
                for &(u, v) in &self.uv {
                    array.steering_uv_into(u, v, &mut self.rows);
                }
            }
        }
        let n = weights.len();
        debug_assert!(self.uv.is_empty() || n * self.uv.len() == self.rows.len());
        let mut total_mw = 0.0f64;
        for (p, &mw) in self.path_mw.iter().enumerate() {
            total_mw += crate::array::response(weights, &self.rows[p * n..][..n]).norm_sq() * mw;
        }
        calib::mw_to_dbm(total_mw)
    }

    /// An upper bound (dBm) on this receiver's RSS under *any* unit-power
    /// beam, from the located paths alone: steering entries have unit
    /// magnitude, so `|wᵀa|² ≤ ‖w‖²·‖a‖² = N` (Cauchy–Schwarz) and path
    /// `p` delivers at most `N · path_mw_p`. Carries a `1 + 1e-9` margin
    /// over the rounding of the kernel and the element sums and of a
    /// normalization that lands a few ulps above unit power. `-∞` for a
    /// receiver with no usable path.
    pub fn rss_cap_dbm(&self) -> f64 {
        let (nx, ny) = self.axes();
        let n = (nx * ny) as f64;
        let total_mw: f64 = self.path_mw.iter().map(|&mw| mw * n).sum();
        calib::mw_to_dbm(total_mw * (1.0 + 1e-9))
    }

    /// RSS (mW) under the dedicated (conjugate, unit-power) beam toward
    /// path `q`'s departure direction: the kernel between each path's
    /// direction and `q`'s.
    fn path_beam_mw(&self, q: usize) -> f64 {
        let (nx, ny) = self.axes();
        let inv_n = inv_elements(nx, ny);
        let mut total_mw = 0.0f64;
        for (&mw, path) in self.path_mw.iter().zip(&self.half) {
            let r = kernel(nx, ny, path, &self.half[q]);
            total_mw += mw * inv_n * (r * r);
        }
        total_mw
    }

    /// RSS using the best dedicated (conjugate) beam toward the receiver —
    /// the upper bound a perfect beam search achieves *on the LoS
    /// direction*; `-∞` for a receiver with no LoS direction.
    pub fn rss_dedicated_beam(&self) -> f64 {
        if !self.los_first {
            return f64::NEG_INFINITY;
        }
        calib::mw_to_dbm(self.path_beam_mw(0))
    }

    /// RSS with the best beam over *all* propagation paths: the AP tries a
    /// dedicated beam toward the receiver and toward every reflection
    /// point, and keeps the strongest. This is what a beam search that is
    /// allowed to use NLoS paths converges to — the escape hatch from a
    /// body blockage (paper §4.1: "adapt its beam to the user with a
    /// reflection path").
    pub fn rss_best_beam(&self) -> f64 {
        let best_mw = (0..self.n_paths()).map(|q| self.path_beam_mw(q));
        calib::mw_to_dbm(best_mw.fold(0.0, f64::max))
    }

    /// RSS (dBm) of codebook sector `s`, read from the table.
    pub fn eval_sector(&self, s: usize) -> f64 {
        calib::mw_to_dbm(self.table()[s])
    }

    /// Number of usable paths found by the last `locate`.
    pub fn n_paths(&self) -> usize {
        self.path_mw.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::array::AntennaWeights;
    use crate::channel::Room;
    use crate::reference;
    use crate::PlanarArray;
    use volcast_util::prop::{run_cases, run_cases_n};
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
            let mut rng = Rng::seed_from_u64(0xC0FFEE + ci as u64);
            let mut rx = SweepRx::new();
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
            }
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
        // A zero-span codebook points every sector the same way, so all of
        // them tie exactly: both argmaxes must keep the first.
        let mut cases: Vec<(Channel, Codebook)> = (setups().into_iter())
            .map(|ch| {
                let cb = Codebook::default_for(&ch.array);
                (ch, cb)
            })
            .collect();
        let channel = Channel::default_setup();
        let tie = Codebook::dft(&channel.array, 6, 2, 0.0, 0.0);
        cases.push((channel.clone(), tie));
        for (ci, (channel, codebook)) in cases.into_iter().enumerate() {
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

    /// The weights the allocating front returns for a custom beam are the
    /// oracle's, bit for bit, and so are their element sums at each member.
    #[test]
    fn combine_matches_custom_beam() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rng = Rng::seed_from_u64(99);
        let (mut design, mut acc) = (BeamDesign::default(), Vec::new());
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
            engine.lobes(&rxs, &members, &mut design);
            engine.combine_into(&design.terms, &mut acc);
            assert_eq!(acc.len(), want.w.len());
            for (g, w) in acc.iter().zip(&want.w) {
                assert_eq!(g.re.to_bits(), w.re.to_bits());
                assert_eq!(g.im.to_bits(), w.im.to_bits());
            }
            // The custom beam evaluated through the sweep state matches the
            // prepared-receiver evaluation bit for bit.
            for (rx, &p) in rxs.iter_mut().zip(&positions) {
                let direct = reference::prepare_rx(&channel, p, &[]).rss_dbm(&want);
                let via_sweep = rx.eval_weights(&acc);
                assert_eq!(via_sweep.to_bits(), direct.to_bits());
            }
        }
    }

    /// The kernel holds only for the array a codebook was built for: a DFT
    /// codebook of another geometry is refused, not priced.
    #[test]
    #[should_panic(expected = "another array geometry")]
    fn a_codebook_for_another_array_is_refused() {
        let channel = Channel::default_setup();
        let other_array = PlanarArray {
            spacing_wl: 0.45,
            ..channel.array.clone()
        };
        SweepEngine::new(&channel, &Codebook::default_for(&other_array));
    }

    /// The session's inputs: random member positions plus an "all bodies"
    /// blocker list — one body standing on every member (which the
    /// channel's endpoint guard must drop for that member only) and 0–8
    /// bystanders. The engine's design must equal the exhaustive reference
    /// bit for bit, from fresh receivers and from slots re-prepared in
    /// place after serving an unrelated group.
    #[test]
    fn design_is_bit_identical_to_reference_with_member_bodies() {
        let cases: Vec<(Channel, Codebook)> = setups()
            .into_iter()
            .map(|ch| {
                let cb = Codebook::default_for(&ch.array);
                (ch, cb)
            })
            .collect();

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
                // (tables, rows) until `prepare` rewrites them.
                for (rx, &p) in reused.iter_mut().zip(&positions) {
                    rx.prepare(&engine, p, &blockers);
                }
                engine.design(&mut reused, &members, &mut out_reused);

                for got in [&out, &out_reused] {
                    let ctx = format!("setup {ci} round {round} size {group_size}");
                    assert_eq!(got.customized, want.customized, "{ctx}");
                    let mut weights = codebook.sectors()[got.sector].w.clone();
                    if got.customized {
                        engine.combine_into(&got.terms, &mut weights);
                    }
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
    /// one-sector codebook of a 1×1 array the custom beam is that sector's
    /// weights exactly whenever its normalisation rounds back to 1, so each
    /// member's custom RSS *ties* its default RSS — the weakest member's
    /// included — and the default must be kept.
    #[test]
    fn design_matches_the_reference_at_campus_group_sizes() {
        let mut single = Channel::default_setup();
        (single.array.nx, single.array.ny) = (1, 1);
        let tie = Codebook::dft(&single.array, 1, 1, 0.0, 0.0);
        let mut cases: Vec<(Channel, Codebook)> = (setups().into_iter())
            .map(|ch| {
                let cb = Codebook::default_for(&ch.array);
                (ch, cb)
            })
            .collect();
        cases.push((single, tie));
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

    /// A tie — every member's own best sector is the common one — keeps the
    /// default beam, whichever way rounding would price the combination of
    /// that sector with itself: groups of 2–4 standing within 30 cm.
    #[test]
    fn a_tie_design_is_default() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rng = Rng::seed_from_u64(0x713);
        let (mut out, mut tmp, mut rss) = (BeamDesign::default(), Vec::new(), Vec::new());
        let mut ties = 0;
        while ties < 40 {
            let centre = random_positions(&channel, &mut rng, 1)[0];
            let mut rxs: Vec<SweepRx> = (0..rng.gen_range(2..5usize))
                .map(|_| {
                    let jitter = |rng: &mut Rng| rng.gen_range(-0.15..0.15);
                    let offset = Vec3::new(jitter(&mut rng), jitter(&mut rng), jitter(&mut rng));
                    let mut rx = SweepRx::new();
                    rx.prepare(&engine, centre + offset, &[]);
                    rx
                })
                .collect();
            let members: Vec<usize> = (0..rxs.len()).collect();
            let common = engine.best_joint(&mut rxs, &members, &mut tmp, &mut rss);
            if !(rxs.iter_mut()).all(|rx| engine.best_sector(rx).0 == common) {
                continue;
            }
            ties += 1;
            engine.design(&mut rxs, &members, &mut out);
            assert!(!out.customized, "a tie at {centre:?} was customized");
            assert_eq!(out.sector, common);
            assert_eq!(bits(&out.member_rss_dbm), bits(&rss));
        }
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
                let best = rx.rss_best_beam();
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
                for (rx, &cap) in rxs.iter_mut().zip(&caps) {
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
                rx.locate(channel, p, &blockers);
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
        let weights = &codebook.sectors()[7].w;
        rx.prepare(&engine, Vec3::new(1.0, 1.5, -1.0), &[]);
        rx.eval_weights(weights);
        let caps = |rx: &SweepRx| {
            let (rows, table, uv) = (rx.rows.capacity(), rx.table.capacity(), rx.uv.capacity());
            let kern = rx.kern.capacity();
            (
                rows,
                table,
                uv,
                kern,
                rx.half.capacity(),
                rx.paths_tmp.capacity(),
            )
        };
        let warm = caps(&rx);
        for i in 0..10 {
            let pos = Vec3::new(-2.0 + 0.4 * i as f64, 1.2, 2.0 - 0.3 * i as f64);
            rx.prepare(&engine, pos, &[]);
            let _ = engine.best_sector(&mut rx);
            rx.eval_weights(weights);
        }
        assert_eq!(warm, caps(&rx), "steady-state prepare must not reallocate");
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A run of y pairs extends only while both values match bit for bit:
    /// one run per elevation row of a DFT codebook (one row for a zero
    /// elevation span).
    #[test]
    fn y_runs_follow_the_elevation_rows() {
        let channel = Channel::default_setup();
        let runs = |codebook: &Codebook| {
            let engine = SweepEngine::new(&channel, codebook);
            (engine.y_runs.iter()).map(|r| r.0).collect::<Vec<usize>>()
        };
        assert_eq!(runs(&Codebook::default_for(&channel.array)), [16, 32, 48]);
        assert_eq!(
            runs(&Codebook::dft(&channel.array, 5, 4, 0.5, 0.3)),
            [5, 10, 15, 20]
        );
        let flat = Codebook::dft(&channel.array, 3, 2, 0.5, 0.0);
        assert_eq!(runs(&flat), [6]);
    }

    /// Sector sweeps read the table: a receiver that was only located has
    /// none, and must not answer as if no sector reached it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never swept")]
    fn an_unswept_receiver_is_not_read() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rx = SweepRx::new();
        rx.locate(&channel, Vec3::new(0.5, 1.5, -1.0), &[]);
        assert!(!rx.is_swept() && rx.rss_cap_dbm().is_finite());
        engine.best_sector(&mut rx);
    }

    /// An array with no elements along an axis radiates nothing: sectors
    /// and both link beams price at 0 mW (`−∞` dBm), as element sums and
    /// `Channel::rss_dbm` do, not at `1/N · 0 = ∞ · 0`.
    #[test]
    fn an_array_with_no_elements_delivers_nothing() {
        for (nx, ny) in [(0, 4), (8, 0), (0, 0)] {
            let mut channel = Channel::default_setup();
            (channel.array.nx, channel.array.ny) = (nx, ny);
            let codebook = Codebook::default_for(&channel.array);
            let engine = SweepEngine::new(&channel, &codebook);
            let mut rx = SweepRx::new();
            let pos = Vec3::new(0.5, 1.5, -1.0);
            rx.prepare(&engine, pos, &[]);
            assert!(rx.n_paths() > 0 && rx.los_first, "{nx}x{ny}");
            let sector = &codebook.sectors()[0];
            let dbm = [
                rx.eval_sector(0),
                engine.best_sector(&mut rx).1,
                rx.rss_dedicated_beam(),
                rx.rss_best_beam(),
                rx.rss_cap_dbm(),
                rx.eval_weights(&sector.w),
                channel.rss_dbm(sector, pos, &[]),
            ];
            assert!(
                dbm.iter().all(|&d| d == f64::NEG_INFINITY),
                "{nx}x{ny}: {dbm:?}"
            );
        }
    }

    /// A custom beam on an array with no elements radiates nothing: its
    /// Gram is 0, and it prices at 0 mW (`−∞` dBm), not at `0 / 0`, at a
    /// receiver with paths and at one without, as a member and as campus
    /// leakage.
    #[test]
    fn a_custom_beam_on_an_array_with_no_elements_delivers_nothing() {
        let positions = [Vec3::new(-2.5, 1.5, 0.0), Vec3::new(2.5, 1.5, 0.0)];
        for (nx, ny) in [(0, 4), (8, 0), (0, 0)] {
            let mut channel = Channel::default_setup();
            (channel.array.nx, channel.array.ny) = (nx, ny);
            let codebook = Codebook::default_for(&channel.array);
            let engine = SweepEngine::new(&channel, &codebook);
            let mut rxs: Vec<SweepRx> = (positions.iter())
                .map(|&p| {
                    let mut rx = SweepRx::new();
                    rx.prepare(&engine, p, &[]);
                    rx
                })
                .collect();
            let (mut pathless, mut lost) = (SweepRx::new(), channel.clone());
            lost.array.position = Vec3::new(20.0, 10.0, 0.0);
            pathless.locate(&lost, lost.array.position, &[]);
            pathless.sweep(&engine);
            assert!(pathless.n_paths() == 0 && rxs[0].n_paths() > 0, "{nx}x{ny}");
            let mut beam = BeamDesign::default();
            engine.lobes(&rxs, &[0, 1], &mut beam);
            beam.customized = true;
            assert_eq!(beam.gram, 0.0, "{nx}x{ny}");
            for rx in rxs.iter_mut().chain([&mut pathless]) {
                let dbm = engine.beam_dbm(rx, &beam);
                assert_eq!(dbm, f64::NEG_INFINITY, "{nx}x{ny}: {dbm}");
            }
            engine.design(&mut rxs, &[0, 1], &mut beam);
            assert!(!beam.customized, "{nx}x{ny}");
            assert!(beam.member_rss_dbm.iter().all(|&d| d == f64::NEG_INFINITY));
        }
    }

    /// `combine_weights_multi` as it combined a custom beam before the
    /// kernel form priced it, verbatim.
    fn combine_weights_multi(beams: &[(AntennaWeights, f64)]) -> AntennaWeights {
        assert!(!beams.is_empty(), "need at least one beam");
        let n = beams[0].0.len();
        let mut acc = AntennaWeights {
            w: vec![volcast_geom::Complex::ZERO; n],
        };
        for (w, rss_mw) in beams {
            assert_eq!(w.len(), n, "mismatched element counts");
            let coeff = 1.0 / rss_mw.max(1e-15);
            for (a, b) in acc.w.iter_mut().zip(&w.w) {
                *a += b.scale(coeff);
            }
        }
        acc.normalized()
    }

    /// The element sums that priced a custom beam before the kernel form,
    /// verbatim (one serial chain per path): per path `|wᵀa|²`, and the
    /// receiver's RSS in mW, `Σ |wᵀa|² · path_mw` in path order.
    fn element_sums(rx: &SweepRx, weights: &[Complex]) -> (Vec<f64>, f64) {
        let (mut rows, mut gains, mut total_mw) = (Vec::new(), Vec::new(), 0.0f64);
        let array = rx.array.as_ref().unwrap();
        for (&(u, v), &mw) in rx.uv.iter().zip(&rx.path_mw) {
            rows.clear();
            array.steering_uv_into(u, v, &mut rows);
            let gain = crate::array::response(weights, &rows).norm_sq();
            gains.push(gain);
            total_mw += gain * mw;
        }
        (gains, total_mw)
    }

    /// The custom beam's kernel form against the program it replaced — each
    /// member's best sector weighted by `1/mw` through
    /// `combine_weights_multi`, then element sums over the steering rows —
    /// within the closed-form referee's bounds, fixed before the kernel
    /// form priced custom beams:
    ///
    /// - per path, `|Δ|wᵀa|²| ≤ 1e-13 · N`;
    /// - every receiver's RSS: `−∞` exactly together; within 1e-11 dB where
    ///   it is within 40 dB of the receiver's cap (`rss_cap_dbm`), and
    ///   within 1e-13 of the cap in mW below that, which the per-path bound
    ///   implies and where a dB difference only measures how deep a null
    ///   is (as in the locate referee).
    ///
    /// Groups of 2–8 members (in a tight cluster one time in three, so that
    /// best sectors are shared and terms merge) on arrays of {1, 2, 3, 5, 8,
    /// 9} × {1, 2, 4, 5} elements, DFT codebooks of random shape, 0–4
    /// bodies, the beam priced at every member and at three bystanders;
    /// one array in ten stands outside its room, and one receiver in five
    /// cases stands at the array, where it has no paths.
    ///
    /// Measured over 20,000 cases: `|Δ|wᵀa|²| / N` at most 1.2e-14, RSS at
    /// most 5.4e-13 dB apart within 40 dB of the cap and 1.3e-17 of the cap
    /// below it.
    #[test]
    fn closed_form_custom_beam_matches_element_sums_within_bounds() {
        const GAIN_BOUND: f64 = 1e-13; // times N
        const RSS_BOUND_DB: f64 = 1e-11; // within 40 dB of the receiver's cap
        const NULL_BOUND: f64 = 1e-13; // times the cap (mW), below that
        let name = "closed_form_custom_beam_matches_element_sums_within_bounds";
        let setups = setups();
        let (mut merged, mut pathless, mut customized) = (0usize, 0usize, 0usize);
        let mut out = BeamDesign::default();
        run_cases_n(name, 256, |rng| {
            let mut channel = setups[rng.gen_range(0..setups.len())].clone();
            channel.array.nx = [1, 2, 3, 5, 8, 9][rng.gen_range(0..6usize)];
            channel.array.ny = [1, 2, 4, 5][rng.gen_range(0..4usize)];
            if rng.gen_bool(0.1) {
                channel.array.position = Vec3::new(20.0, 10.0, 0.0);
            }
            let (n_az, n_el) = (rng.gen_range(1..21usize), rng.gen_range(1..6usize));
            let span = |rng: &mut Rng, max: f64| rng.gen_range(0.0..max);
            let codebook =
                Codebook::dft(&channel.array, n_az, n_el, span(rng, 1.2), span(rng, 0.6));
            let engine = SweepEngine::new(&channel, &codebook);
            let size = rng.gen_range(2..9usize);
            let mut positions = random_positions(&channel, rng, size + 3);
            if rng.gen_bool(0.2) {
                positions[rng.gen_range(0..size + 3)] = channel.array.position;
            }
            if rng.gen_bool(1.0 / 3.0) {
                let centre = positions[0];
                for p in positions[1..size].iter_mut() {
                    let mut jitter = || rng.gen_range(-0.3..0.3);
                    *p = centre + Vec3::new(jitter(), 0.5 * jitter(), jitter());
                }
            }
            let n_bodies = rng.gen_range(0..5usize);
            let bodies: Vec<Blocker> = (random_positions(&channel, rng, n_bodies).into_iter())
                .map(Blocker::person)
                .collect();
            let mut rxs: Vec<SweepRx> = (positions.iter())
                .map(|&p| {
                    let mut rx = SweepRx::new();
                    rx.prepare(&engine, p, &bodies);
                    rx
                })
                .collect();
            let members: Vec<usize> = (0..size).collect();
            engine.lobes(&rxs, &members, &mut out);
            merged += (out.terms.len() < size) as usize;
            let lobes: Vec<(AntennaWeights, f64)> = (members.iter())
                .map(|&mi| {
                    let (s, mw) = rxs[mi].best();
                    (codebook.sectors()[s].clone(), mw)
                })
                .collect();
            let w = combine_weights_multi(&lobes);
            let n = channel.array.elements() as f64;
            let ctx = format!(
                "{}x{} elements, {n_az}x{n_el} sectors",
                channel.array.nx, channel.array.ny
            );
            for (i, rx) in rxs.iter_mut().enumerate() {
                pathless += (rx.n_paths() == 0) as usize;
                let (gains, want_mw) = element_sums(rx, &w.w);
                let got = engine.custom_mw(rx, &out.terms, out.gram);
                let (got, want) = (calib::mw_to_dbm(got), calib::mw_to_dbm(want_mw));
                for (p, want) in gains.iter().enumerate() {
                    let k = &rx.kern[p * codebook.len()..][..codebook.len()];
                    let r = (out.terms.iter()).fold(0.0, |r, &(s, c)| r + c * k[s]);
                    let got = r * r / out.gram;
                    assert!(
                        (got - want).abs() <= GAIN_BOUND * n,
                        "{ctx}: receiver {i}, path {p}: {got:e} against {want:e}"
                    );
                }
                let cap = rx.rss_cap_dbm();
                if got == f64::NEG_INFINITY || want == f64::NEG_INFINITY {
                    assert_eq!(got, want, "{ctx}: receiver {i}");
                } else if want >= cap - 40.0 {
                    assert!(
                        (got - want).abs() <= RSS_BOUND_DB,
                        "{ctx}: receiver {i}: {got} dBm against {want}"
                    );
                } else {
                    let delta = (calib::dbm_to_mw(got) - calib::dbm_to_mw(want)).abs();
                    assert!(
                        delta <= NULL_BOUND * calib::dbm_to_mw(cap),
                        "{ctx}: receiver {i}: {got} dBm against {want}, below the cap's {cap}"
                    );
                }
            }
            engine.design(&mut rxs, &members, &mut out);
            customized += out.customized as usize;
        });
        assert!(
            merged > 0 && pathless > 0 && customized > 0,
            "{merged} merged, {pathless} pathless, {customized} customized"
        );
    }

    /// `sweep`'s DFT branch as it was before its x kernel ran in blocks:
    /// one serial recurrence per sector (the zero-element fix included),
    /// paths outer, runs next, sectors inner.
    fn scalar_sweep(rx: &SweepRx, engine: &SweepEngine) -> Vec<f64> {
        let chebyshev_u = crate::array::tests::chebyshev_u_serial;
        let mut table = vec![0.0; engine.codebook.len()];
        let (nx, ny) = rx.axes();
        let inv_n = inv_elements(nx, ny);
        for (&mw, &[px, py]) in rx.path_mw.iter().zip(&rx.half) {
            let c = mw * inv_n;
            let mut start = 0;
            for &(end, y) in &engine.y_runs {
                let uy = chebyshev_u(ny, cos_diff(py, y));
                let xs = engine.sin_x.iter().zip(&engine.cos_x);
                let run = table[start..end].iter_mut().zip(xs.skip(start));
                for (t, (&sin, &cos)) in run {
                    let r = chebyshev_u(nx, cos_diff(px, [sin, cos])) * uy;
                    *t += c * (r * r);
                }
                start = end;
            }
        }
        table
    }

    /// The swept table, `best_sector` and `best_joint` over random member
    /// sets, bit for bit against [`scalar_sweep`]: DFT codebooks of 1–20
    /// azimuth by 1–5 elevation sectors (runs of every length, one run when
    /// the elevation span is 0), arrays of 1–9 by 1–5 elements, 0–4
    /// bodies, receivers standing at the array and arrays outside their
    /// room (no paths).
    #[test]
    fn sweep_table_matches_the_scalar_loop() {
        let setups = setups();
        let (mut rxs, mut tmp, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        let mut pathless = 0;
        run_cases("sweep_table_matches_the_scalar_loop", |rng| {
            let mut channel = setups[rng.gen_range(0..setups.len())].clone();
            channel.array.nx = [1, 2, 3, 5, 8, 9][rng.gen_range(0..6usize)];
            channel.array.ny = [1, 2, 4, 5][rng.gen_range(0..4usize)];
            channel.array.spacing_wl = rng.gen_range(0.4..0.6);
            if rng.gen_bool(0.1) {
                channel.array.position = Vec3::new(20.0, 10.0, 0.0);
            }
            let (n_az, n_el) = (rng.gen_range(1..21usize), rng.gen_range(1..6usize));
            let el_span = if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(0.0..0.6)
            };
            let codebook =
                Codebook::dft(&channel.array, n_az, n_el, rng.gen_range(0.0..1.2), el_span);
            let engine = SweepEngine::new(&channel, &codebook);
            let n_bodies = rng.gen_range(0..5usize);
            let bodies: Vec<Blocker> = (random_positions(&channel, rng, n_bodies).into_iter())
                .map(Blocker::person)
                .collect();
            let n_rx = rng.gen_range(1..6usize);
            let mut positions = random_positions(&channel, rng, n_rx);
            if rng.gen_bool(0.2) {
                positions[0] = channel.array.position;
            }
            rxs.resize_with(n_rx, SweepRx::new);
            let mut tables = Vec::new();
            for (rx, &pos) in rxs.iter_mut().zip(&positions) {
                rx.prepare(&engine, pos, &bodies);
                pathless += (rx.n_paths() == 0) as usize;
                let want = scalar_sweep(rx, &engine);
                assert_eq!(bits(rx.table()), bits(&want), "{n_az}x{n_el} sectors");
                let (s, mw) = argmax(&want);
                let (got_s, got_dbm) = engine.best_sector(rx);
                assert_eq!(
                    (got_s, got_dbm.to_bits()),
                    (s, calib::mw_to_dbm(mw).to_bits())
                );
                tables.push(want);
            }
            for _ in 0..3 {
                let members: Vec<usize> = (0..n_rx).filter(|_| rng.gen_bool(0.6)).collect();
                if members.is_empty() {
                    continue;
                }
                let mins: Vec<f64> = (0..codebook.len())
                    .map(|s| {
                        members
                            .iter()
                            .fold(f64::INFINITY, |m, &mi| m.min(tables[mi][s]))
                    })
                    .collect();
                let (best, min) = argmax(&mins);
                let want_rss: Vec<f64> = (members.iter())
                    .map(|&mi| match min > 0.0 {
                        true => calib::mw_to_dbm(tables[mi][best]),
                        false => f64::NEG_INFINITY,
                    })
                    .collect();
                assert_eq!(
                    engine.best_joint(&mut rxs, &members, &mut tmp, &mut rss),
                    best
                );
                assert_eq!(bits(&rss), bits(&want_rss));
            }
        });
        assert!(pathless > 0, "no receiver without paths");
    }

    /// `SweepRx::locate` as it was before directions were read off the
    /// unit vector, kept verbatim as the referee of the closed form:
    /// azimuth and elevation through `Spherical::from_vector`, their sines
    /// and cosines, and from those the direction cosines and the element
    /// pattern.
    fn spherical_locate(rx: &mut SweepRx, channel: &Channel, pos: Vec3, blockers: &[Blocker]) {
        let array = &channel.array;
        let half_kd = half_kd(array);
        channel.paths_into(pos, &mut rx.paths_tmp);
        rx.array = Some(array.clone());
        rx.los_first = false;
        rx.path_mw.clear();
        rx.uv.clear();
        rx.half.clear();
        rx.rows.clear();
        rx.table.clear();
        for path in &rx.paths_tmp {
            let local = array
                .orientation
                .conjugate()
                .rotate(path.via - array.position);
            let Some(dir) = volcast_geom::Spherical::from_vector(local) else {
                continue;
            };
            let (sin_az, cos_az) = dir.azimuth.sin_cos();
            let (sin_el, cos_el) = dir.elevation.sin_cos();
            if rx.path_mw.is_empty() {
                rx.los_first = path.is_los;
            }
            let loss_db = channel.path_loss_db(path, pos, blockers);
            let unit_gain_mw = calib::dbm_to_mw(calib::TX_POWER_DBM + calib::RX_GAIN_DBI - loss_db);
            rx.path_mw.push(unit_gain_mw * (cos_az * cos_el).max(0.01));
            let (u, v) = (sin_az * cos_el, sin_el);
            rx.uv.push((u, v));
            rx.half.push(half_angles(half_kd, u, v));
        }
    }

    /// The located receiver against the spherical program it replaced,
    /// within bounds fixed before the closed form. The old program loses
    /// accuracy toward the array's own vertical axis, where `el = asin v`
    /// amplifies the rounding of `v` by `κ = 1/cos el`, so each bound
    /// scales with the `κ` of its path (`κ = 1/√(1 − v²)` from the live
    /// `v`; the largest over the receiver's paths for its RSS):
    ///
    /// - the same paths survive, in the same order, LoS first or not alike;
    /// - per path, `|Δu|, |Δv| ≤ 1e-15 · κ`, and `path_mw` within
    ///   `1e-13 · κ²` relative (the element pattern `cos az · cos el` is
    ///   where `κ` enters twice);
    /// - per path, `|wᵀa|²` within `1e-12 · N · κ` absolute, for every
    ///   default-codebook sector and the conjugate beam toward every path
    ///   (the kernel), and for a random unit-power beam (element sums over
    ///   each receiver's own steering rows);
    /// - the receiver's RSS under every sector (the swept table), both link
    ///   beams and the random beam, and its cap: `−∞` exactly together;
    ///   within `1e-11 · κ²` dB where it is within 40 dB of the cap, and
    ///   within `1e-13 · κ` of the cap in mW below that, where a dB
    ///   difference only measures how deep a null is.
    ///
    /// Arrays are 8×4, odd-sized, 1×N and N×1, anywhere in the room, in
    /// random orientations (yaw, pitch and roll). Receivers stand at
    /// random, behind the array, in its plane, straight above it, on its
    /// own vertical axis and at the array itself, among 0–6 bodies, one on
    /// the line of sight one time in two.
    ///
    /// Measured over 20,000 cases against the closed form (`u = l.x`,
    /// `v = l.y`, element `−l.z`): `|Δu|, |Δv|` at most 3.3e-16 · κ,
    /// `path_mw` 9.6e-15 · κ² relative, `|wᵀa|²` 1.2e-13 · N · κ, RSS
    /// 1.2e-12 · κ² dB within 40 dB of the cap and 2.5e-17 · κ of the cap
    /// below it.
    #[test]
    fn closed_form_locate_matches_the_spherical_program_within_bounds() {
        const UV_BOUND: f64 = 1e-15; // times κ
        const MW_BOUND: f64 = 1e-13; // relative, times κ²
        const GAIN_BOUND: f64 = 1e-12; // times N · κ
        const RSS_BOUND_DB: f64 = 1e-11; // times κ², within 40 dB of the cap
        const NULL_BOUND: f64 = 1e-13; // times κ and the cap (mW), below that
        let name = "closed_form_locate_matches_the_spherical_program_within_bounds";
        let (mut floored, mut dropped, mut blocked) = (0usize, 0usize, 0usize);
        let (mut live, mut old) = (SweepRx::new(), SweepRx::new());
        run_cases_n(name, 256, |rng| {
            let (nx, ny) = match rng.gen_range(0..4u32) {
                0 | 1 => (8, 4),
                2 => (2 * rng.gen_range(0..5usize) + 1, rng.gen_range(1..6usize)),
                _ if rng.gen_bool(0.5) => (1, rng.gen_range(1..17usize)),
                _ => (rng.gen_range(1..17usize), 1),
            };
            let room = Room {
                floor_reflection: rng.gen_bool(0.5),
                ..Room::default()
            };
            let inside = |rng: &mut Rng| {
                Vec3::new(
                    rng.gen_range(-0.48..0.48) * room.width,
                    rng.gen_range(0.05..0.98) * room.height,
                    rng.gen_range(-0.48..0.48) * room.depth,
                )
            };
            let ap = inside(rng);
            let turn = |rng: &mut Rng| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
            let orientation =
                volcast_geom::Quat::from_yaw_pitch_roll(turn(rng), turn(rng), turn(rng));
            let array = PlanarArray {
                nx,
                ny,
                spacing_wl: 0.5,
                position: ap,
                orientation,
            };
            let local = |x: f64, y: f64, z: f64| ap + orientation.rotate(Vec3::new(x, y, z));
            let d = |rng: &mut Rng| rng.gen_range(0.2..3.0);
            let s = |rng: &mut Rng| rng.gen_range(-2.0..2.0);
            let rx = match rng.gen_range(0..8u32) {
                0 => local(s(rng), s(rng), d(rng)),
                1 => local(s(rng), s(rng), 0.0),
                2 => ap + Vec3::Y * d(rng),
                3 => local(
                    0.0,
                    if rng.gen_bool(0.5) { 1.0 } else { -1.0 } * d(rng),
                    0.0,
                ),
                4 => ap,
                _ => inside(rng),
            };
            let mut bodies: Vec<Blocker> = (0..rng.gen_range(0..7usize))
                .map(|_| Blocker::person(inside(rng)))
                .collect();
            if rng.gen_bool(0.5) {
                bodies.push(Blocker::person(ap.lerp(rx, 0.5)));
            }
            let channel = Channel::new(room, array.clone());
            let codebook = Codebook::default_for(&array);
            let engine = SweepEngine::new(&channel, &codebook);
            let n = array.elements() as f64;
            let inv_n = inv_elements(nx, ny);
            let ctx = format!("{nx}x{ny} at {ap:?} turned {orientation:?}, rx {rx:?}");

            live.locate(&channel, rx, &bodies);
            spherical_locate(&mut old, &channel, rx, &bodies);
            assert_eq!(live.n_paths(), old.n_paths(), "{ctx}");
            assert_eq!(live.los_first, old.los_first, "{ctx}");
            let mut clear = SweepRx::new();
            spherical_locate(&mut clear, &channel, rx, &[]);
            for path in channel.paths(rx) {
                let l = orientation.conjugate().rotate(path.via - ap).normalized();
                dropped += l.is_none() as usize;
                floored += l.is_some_and(|l| -l.z < 0.01) as usize;
            }
            let kappa: Vec<f64> = (live.uv.iter())
                .map(|&(_, v)| 1.0 / (1.0 - v * v).max(0.0).sqrt())
                .collect();
            let kappa_rx = kappa.iter().copied().fold(1.0, f64::max);
            for (p, &kappa) in kappa.iter().enumerate() {
                let ((u, v), (u0, v0)) = (live.uv[p], old.uv[p]);
                let (mw, mw0) = (live.path_mw[p], old.path_mw[p]);
                let duv = (u - u0).abs().max((v - v0).abs());
                let dmw = (mw - mw0).abs() / mw0;
                assert!(
                    duv <= UV_BOUND * kappa,
                    "{ctx}: path {p} at {:?}, was {:?}",
                    (u, v),
                    (u0, v0)
                );
                assert!(
                    dmw <= MW_BOUND * kappa * kappa,
                    "{ctx}: path {p} delivers {mw:e} mW, was {mw0:e}"
                );
                blocked += (clear.path_mw[p] > mw0) as usize;
            }

            // Per path, |wᵀa|²: the kernel toward every sector and every
            // path, element sums under a random unit-power beam.
            let sectors: Vec<Half> = (codebook.directions().iter())
                .map(|dir| {
                    let u = dir.azimuth.sin() * dir.elevation.cos();
                    half_angles(half_kd(&array), u, dir.elevation.sin())
                })
                .collect();
            let mut w: Vec<Complex> = (0..array.elements())
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            normalize(&mut w);
            let (mut row, mut row0) = (Vec::new(), Vec::new());
            for (p, &kappa) in kappa.iter().enumerate() {
                let beams = (sectors.iter().map(|h| (h, h))).chain(live.half.iter().zip(&old.half));
                for (b, (beam, beam0)) in beams.enumerate() {
                    let g = inv_n * kernel(nx, ny, &live.half[p], beam).powi(2);
                    let g0 = inv_n * kernel(nx, ny, &old.half[p], beam0).powi(2);
                    assert!(
                        (g - g0).abs() <= GAIN_BOUND * n * kappa,
                        "{ctx}: path {p}, beam {b}: {g:e} against {g0:e}"
                    );
                }
                row.clear();
                row0.clear();
                array.steering_uv_into(live.uv[p].0, live.uv[p].1, &mut row);
                array.steering_uv_into(old.uv[p].0, old.uv[p].1, &mut row0);
                let g = crate::array::response(&w, &row).norm_sq();
                let g0 = crate::array::response(&w, &row0).norm_sq();
                assert!(
                    (g - g0).abs() <= GAIN_BOUND * n * kappa,
                    "{ctx}: path {p}, random beam: {g:e} against {g0:e}"
                );
            }

            // The receiver's RSS.
            let cap = old.rss_cap_dbm();
            let check = |got: f64, want: f64, what: &str| {
                let ctx = format!("{ctx}, {what}: {got} dBm against {want}");
                if want == f64::NEG_INFINITY || got == f64::NEG_INFINITY {
                    assert_eq!(got, want, "{ctx}");
                } else if want >= cap - 40.0 {
                    let bound = RSS_BOUND_DB * kappa_rx * kappa_rx;
                    assert!((got - want).abs() <= bound, "{ctx}");
                } else {
                    let delta_mw = (calib::dbm_to_mw(got) - calib::dbm_to_mw(want)).abs();
                    let bound = NULL_BOUND * kappa_rx * calib::dbm_to_mw(cap);
                    assert!(delta_mw <= bound, "{ctx}, below the cap's {cap} dBm");
                }
            };
            check(live.rss_cap_dbm(), old.rss_cap_dbm(), "the cap");
            check(
                live.rss_dedicated_beam(),
                old.rss_dedicated_beam(),
                "the dedicated beam",
            );
            check(live.rss_best_beam(), old.rss_best_beam(), "the best beam");
            check(
                live.eval_weights(&w),
                old.eval_weights(&w),
                "the random beam",
            );
            live.sweep(&engine);
            old.sweep(&engine);
            for s in 0..codebook.len() {
                check(
                    live.eval_sector(s),
                    old.eval_sector(s),
                    &format!("sector {s}"),
                );
            }
        });
        assert!(
            floored > 0 && dropped > 0 && blocked > 0,
            "{floored} floored, {dropped} dropped, {blocked} blocked"
        );
    }
}
