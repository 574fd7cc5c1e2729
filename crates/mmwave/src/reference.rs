//! Slow, obvious mmWave evaluation: the test oracle for
//! [`SweepRx`](crate::SweepRx) and [`SweepEngine`](crate::SweepEngine).
//!
//! Nothing here is shared with the live path beyond the steering rows
//! ([`PlanarArray::steering_uv_into`]), the axis kernel
//! ([`PlanarArray::chebyshev_u`]), the direction program
//! ([`PlanarArray::cosines`]), path enumeration and the loss program: this
//! module referees selection, not trig or the closed form — the steering
//! and closed-form referees in its tests, and `sweep.rs`'s spherical-locate
//! referee, do that. A receiver is a [`PreparedRx`] rebuilt per call, one
//! owned steering vector and one set of half-angle pairs per path, a
//! sector's direction cosines taken wherever they are needed. A factoring
//! beam (a codebook sector, a link's conjugate beam) is priced by the
//! kernel, a custom beam by the kernels of its terms, any other beam by
//! element sums, each as a power sum in milliwatts. Group-beam design
//! evaluates every sector of the codebook against every member — no
//! tables, no reused buffers — and takes the first-best argmax serially.
//! This is the only exhaustive scan in the tree; it is compiled for tests
//! only.

use crate::array::{AntennaWeights, PlanarArray};
use crate::calib;
use crate::channel::{Blocker, Channel};
use crate::codebook::Codebook;
use crate::multilobe::GroupBeam;
use volcast_geom::{Complex, Spherical, Vec3};

/// Conjugate-beamforming weights toward `dir`, unit power.
fn beam_toward(array: &PlanarArray, dir: Spherical) -> AntennaWeights {
    AntennaWeights {
        w: array.steering(dir).w.iter().map(|c| c.conj()).collect(),
    }
    .normalized()
}

/// Direction cosines `(u, v)` of an array-local direction: a codebook
/// sector's, which is given by its angles.
fn cosines(dir: Spherical) -> (f64, f64) {
    (dir.azimuth.sin() * dir.elevation.cos(), dir.elevation.sin())
}

/// `[sin, cos]` of `k·d/2 · u` and of `k·d/2 · v`.
fn half_angles(array: &PlanarArray, (u, v): (f64, f64)) -> [f64; 4] {
    let half_kd = 0.5
        * (2.0 * std::f64::consts::PI / calib::WAVELENGTH_M)
        * (array.spacing_wl * calib::WAVELENGTH_M);
    let (sin_a, cos_a) = (half_kd * u).sin_cos();
    let (sin_b, cos_b) = (half_kd * v).sin_cos();
    [sin_a, cos_a, sin_b, cos_b]
}

/// `U_{nx−1}(cos ψx) · U_{ny−1}(cos ψy)` between the directions with
/// half-angle pairs `a` and `b`.
fn kernel(nx: usize, ny: usize, a: &[f64; 4], b: &[f64; 4]) -> f64 {
    PlanarArray::chebyshev_u(nx, a[1] * b[1] + a[0] * b[0])
        * PlanarArray::chebyshev_u(ny, a[3] * b[3] + a[2] * b[2])
}

/// One usable path of a prepared receiver.
#[derive(Debug, Clone)]
struct PathSample {
    /// `a(dir)`: the unit-magnitude phase vector toward the direction.
    steering: AntennaWeights,
    /// The direction's half-angle pairs.
    half: [f64; 4],
    /// The power (mW) the path delivers at unit array gain, element
    /// pattern (floored backlobe) included.
    mw: f64,
}

/// A receiver prepared for a fixed `(receiver, blockers)` pair: paths
/// enumerated, blockage resolved, and each usable path sampled.
#[derive(Debug, Clone)]
pub(crate) struct PreparedRx {
    nx: usize,
    ny: usize,
    paths: Vec<PathSample>,
}

impl PreparedRx {
    /// RSS (mW) of `weights`, by element sums: `Σ |wᵀa|² · mw`.
    fn power_mw(&self, weights: &AntennaWeights) -> f64 {
        let mut total_mw = 0.0f64;
        for path in &self.paths {
            let mut acc = volcast_geom::Complex::ZERO;
            for (wi, ai) in weights.w.iter().zip(&path.steering.w) {
                acc += *wi * *ai;
            }
            total_mw += acc.norm_sq() * path.mw;
        }
        total_mw
    }

    /// RSS (dBm) for transmit beam `weights`: non-coherent power sum over
    /// paths.
    pub(crate) fn rss_dbm(&self, weights: &AntennaWeights) -> f64 {
        calib::mw_to_dbm(self.power_mw(weights))
    }

    /// RSS (mW) of the conjugate beam toward the direction with half-angle
    /// pairs `toward`, in closed form: `Σ mw / N · (U_{nx−1}(cos ψx) ·
    /// U_{ny−1}(cos ψy))²`.
    fn conjugate_mw(&self, toward: &[f64; 4]) -> f64 {
        let inv_n = 1.0 / (self.nx * self.ny) as f64;
        let mut total_mw = 0.0f64;
        for path in &self.paths {
            let k = kernel(self.nx, self.ny, &path.half, toward);
            total_mw += path.mw * inv_n * (k * k);
        }
        total_mw
    }

    /// RSS (mW) of the unit-power custom beam `Σ c·w` of conjugate beams
    /// toward `lobes` (`(c, half-angle pairs)`) with Gram `gram`, in closed
    /// form: `Σ mw · (Σ c·K)² / G` over the paths, 0 where `G` is.
    fn lobes_mw(&self, lobes: &[(f64, [f64; 4])], gram: f64) -> f64 {
        let mut total_mw = 0.0f64;
        if gram > 0.0 {
            for path in &self.paths {
                let mut r = 0.0;
                for (c, toward) in lobes {
                    r += c * kernel(self.nx, self.ny, &path.half, toward);
                }
                total_mw += path.mw * (r * r / gram);
            }
        }
        total_mw
    }

    /// RSS (mW) of sector `s`, in closed form.
    fn sector_mw(&self, array: &PlanarArray, codebook: &Codebook, s: usize) -> f64 {
        self.conjugate_mw(&half_angles(array, cosines(codebook.directions()[s])))
    }
}

/// Prepares `rx` for repeated beam evaluations.
pub(crate) fn prepare_rx(channel: &Channel, rx: Vec3, blockers: &[Blocker]) -> PreparedRx {
    let array = &channel.array;
    let paths = channel
        .paths(rx)
        .iter()
        .filter_map(|path| {
            // A path whose departure direction is degenerate contributes
            // zero gain; dropping it here is equivalent.
            let (u, v, element) = array.cosines(path.via - array.position)?;
            let loss_db = channel.path_loss_db(path, rx, blockers);
            let unit_gain_mw = calib::dbm_to_mw(calib::TX_POWER_DBM + calib::RX_GAIN_DBI - loss_db);
            let mut steering = Vec::new();
            array.steering_uv_into(u, v, &mut steering);
            Some(PathSample {
                steering: AntennaWeights { w: steering },
                half: half_angles(array, (u, v)),
                mw: unit_gain_mw * element,
            })
        })
        .collect();
    PreparedRx {
        nx: array.nx,
        ny: array.ny,
        paths,
    }
}

/// The oracle of [`Channel::rss_dedicated_beam`]: a conjugate beam on the
/// LoS direction, `-∞` when there is none.
pub(crate) fn rss_dedicated_beam(channel: &Channel, rx: Vec3, blockers: &[Blocker]) -> f64 {
    let array = &channel.array;
    match array.cosines(rx - array.position) {
        Some((u, v, _)) => {
            let prepared = prepare_rx(channel, rx, blockers);
            calib::mw_to_dbm(prepared.conjugate_mw(&half_angles(array, (u, v))))
        }
        None => f64::NEG_INFINITY,
    }
}

/// The oracle of [`Channel::rss_best_beam`]: the strongest of the
/// dedicated beams toward the receiver and every reflection point.
pub(crate) fn rss_best_beam(channel: &Channel, rx: Vec3, blockers: &[Blocker]) -> f64 {
    let array = &channel.array;
    let prepared = prepare_rx(channel, rx, blockers);
    channel
        .paths(rx)
        .iter()
        .filter_map(|p| {
            let (u, v, _) = array.cosines(p.via - array.position)?;
            Some(calib::mw_to_dbm(
                prepared.conjugate_mw(&half_angles(array, (u, v))),
            ))
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

fn prepare(channel: &Channel, members: &[Vec3], blockers: &[Blocker]) -> Vec<PreparedRx> {
    members
        .iter()
        .map(|&m| prepare_rx(channel, m, blockers))
        .collect()
}

fn min_of(rss: &[f64]) -> f64 {
    rss.iter().copied().fold(f64::INFINITY, f64::min)
}

fn to_dbm(mw: &[f64]) -> Vec<f64> {
    mw.iter().map(|&mw| calib::mw_to_dbm(mw)).collect()
}

/// First sector (strict `>`) maximizing the minimum member RSS, with that
/// sector's per-member RSS (mW). Compared in milliwatts, where `-∞ dBm` is
/// 0: a sector no member set reaches never wins, and if none does the
/// answer is sector 0 with every member at 0.
fn scan(array: &PlanarArray, codebook: &Codebook, prepared: &[PreparedRx]) -> (usize, Vec<f64>) {
    let mut best_idx = 0usize;
    let mut best_min = 0.0;
    let mut best_mw = vec![0.0; prepared.len()];
    for s in 0..codebook.len() {
        let mw: Vec<f64> = (prepared.iter())
            .map(|p| p.sector_mw(array, codebook, s))
            .collect();
        let min = min_of(&mw);
        if min > best_min {
            best_min = min;
            best_idx = s;
            best_mw = mw;
        }
    }
    (best_idx, best_mw)
}

/// Exhaustive [`MultiLobeDesigner::best_common_sector`](crate::MultiLobeDesigner::best_common_sector).
pub(crate) fn best_common_sector(
    channel: &Channel,
    codebook: &Codebook,
    members: &[Vec3],
    blockers: &[Blocker],
) -> (usize, Vec<f64>) {
    let (idx, mw) = scan(
        &channel.array,
        codebook,
        &prepare(channel, members, blockers),
    );
    (idx, to_dbm(&mw))
}

/// Each member's own best sector and its RSS (mW).
fn bests(array: &PlanarArray, codebook: &Codebook, prepared: &[PreparedRx]) -> Vec<(usize, f64)> {
    (prepared.iter())
        .map(|p| {
            let (idx, mw) = scan(array, codebook, std::slice::from_ref(p));
            (idx, mw[0])
        })
        .collect()
}

/// The custom beam's terms: each member's best sector with `1/mw`, one
/// term per distinct sector in first-member order, coefficients summed in
/// member order.
fn terms(bests: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut terms: Vec<(usize, f64)> = Vec::new();
    for &(s, mw) in bests {
        let c = 1.0 / mw.max(1e-15);
        match terms.iter_mut().find(|t| t.0 == s) {
            Some(t) => t.1 += c,
            None => terms.push((s, c)),
        }
    }
    terms
}

/// The weights `Σ c·w_s` of `terms`, at unit power.
fn combine(codebook: &Codebook, terms: &[(usize, f64)]) -> AntennaWeights {
    let mut w = vec![Complex::ZERO; codebook.sectors()[0].len()];
    for &(s, c) in terms {
        for (a, b) in w.iter_mut().zip(&codebook.sectors()[s].w) {
            *a += b.scale(c);
        }
    }
    AntennaWeights { w }.normalized()
}

/// Each member's RSS (dBm) under the custom beam of `terms`, by the
/// kernels: `G = Σ_i c_i·(c_i·K_ii + 2·Σ_{j<i} c_j·K_ij)`.
fn custom_rss(
    array: &PlanarArray,
    codebook: &Codebook,
    terms: &[(usize, f64)],
    prepared: &[PreparedRx],
) -> Vec<f64> {
    let lobes: Vec<(f64, [f64; 4])> = (terms.iter())
        .map(|&(s, c)| (c, half_angles(array, cosines(codebook.directions()[s]))))
        .collect();
    let mut gram = 0.0;
    for (i, (c, h)) in lobes.iter().enumerate() {
        let mut cross = 0.0;
        for (cj, hj) in &lobes[..i] {
            cross += cj * kernel(array.nx, array.ny, h, hj);
        }
        gram += c * (c * kernel(array.nx, array.ny, h, h) + 2.0 * cross);
    }
    (prepared.iter())
        .map(|p| calib::mw_to_dbm(p.lobes_mw(&lobes, gram)))
        .collect()
}

/// Exhaustive [`MultiLobeDesigner::design`]'s custom beam: the weights of
/// the members' terms.
pub(crate) fn custom_beam(
    channel: &Channel,
    codebook: &Codebook,
    members: &[Vec3],
    blockers: &[Blocker],
) -> AntennaWeights {
    let prepared = prepare(channel, members, blockers);
    combine(
        codebook,
        &terms(&bests(&channel.array, codebook, &prepared)),
    )
}

/// Exhaustive [`MultiLobeDesigner::design`](crate::MultiLobeDesigner::design).
pub(crate) fn design(
    channel: &Channel,
    codebook: &Codebook,
    members: &[Vec3],
    blockers: &[Blocker],
) -> GroupBeam {
    let array = &channel.array;
    let prepared = prepare(channel, members, blockers);
    let (idx, default_mw) = scan(array, codebook, &prepared);
    let default_rss = to_dbm(&default_mw);
    if members.len() >= 2 {
        let bests = bests(array, codebook, &prepared);
        // A tie: every member's own best sector is the common one.
        if bests.iter().any(|&(own, _)| own != idx) {
            let terms = terms(&bests);
            let custom_rss = custom_rss(array, codebook, &terms, &prepared);
            if min_of(&custom_rss) > min_of(&default_rss) {
                return GroupBeam {
                    weights: combine(codebook, &terms),
                    member_rss_dbm: custom_rss,
                    customized: true,
                };
            }
        }
    }
    GroupBeam {
        weights: codebook.sectors()[idx].clone(),
        member_rss_dbm: default_rss,
        customized: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::response;
    use crate::calib::WAVELENGTH_M;
    use crate::channel::Room;
    use crate::sweep::SweepRx;
    use std::f64::consts::{FRAC_PI_2, PI};
    use volcast_util::prop::run_cases_n;
    use volcast_util::rng::Rng;

    fn assert_same_bits(got: &[Complex], want: &[Complex], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}");
        for (e, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{ctx}: element {e} is {g:?}, the full loop gives {w:?}"
            );
        }
    }

    fn arrays() -> Vec<PlanarArray> {
        [(8, 4), (1, 1), (3, 3), (5, 2)]
            .into_iter()
            .map(|(nx, ny)| PlanarArray {
                nx,
                ny,
                ..PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD)
            })
            .collect()
    }

    /// The assumption per-axis mirroring rests on, named where it can fail
    /// legibly: this libm's `sin` is odd and its `cos` even *bit for bit*,
    /// and `sin_cos` is the pair of the separate calls. A platform whose
    /// libm breaks either would move steering rows by an ULP and with them
    /// every pinned session hash; it must fail here first.
    #[test]
    fn libm_parity_witness() {
        let mut rng = Rng::seed_from_u64(0x11B3);
        let mut args: Vec<f64> = vec![0.0, f64::MIN_POSITIVE, 5e-324, 1e-310, PI, FRAC_PI_2];
        args.extend((0..20_000).map(|_| rng.gen_range(0.0..6.0 * PI)));
        // Subnormals, and arguments far beyond the first range reduction.
        args.extend((0..2_000).map(|_| f64::from_bits(rng.gen_range(1u64..1 << 52))));
        args.extend(
            (0..2_000).map(|_| rng.gen_range(1.0..10.0) * 10f64.powi(rng.gen_range(2..300))),
        );
        for x in args {
            let why = "mirrored steering (PlanarArray::steering_uv_into) needs an odd sin, \
                       an even cos and sin_cos == (sin, cos), bitwise; this libm differs";
            assert_eq!(
                (-x).sin().to_bits(),
                (-x.sin()).to_bits(),
                "sin(-{x:e}): {why}"
            );
            assert_eq!(
                (-x).cos().to_bits(),
                x.cos().to_bits(),
                "cos(-{x:e}): {why}"
            );
            for y in [x, -x] {
                let (s, c) = y.sin_cos();
                assert_eq!(s.to_bits(), y.sin().to_bits(), "sin_cos({y:e}).0: {why}");
                assert_eq!(c.to_bits(), y.cos().to_bits(), "sin_cos({y:e}).1: {why}");
            }
        }
    }

    /// The steering program every row was computed with before rows became
    /// separable, kept verbatim as the trig referee: one
    /// `cis(k·(x·u + y·v))` per element.
    fn per_element_steering(array: &PlanarArray, u: f64, v: f64) -> Vec<Complex> {
        let k = 2.0 * std::f64::consts::PI / WAVELENGTH_M;
        let d = array.spacing_wl * WAVELENGTH_M;
        let cx = (array.nx as f64 - 1.0) / 2.0;
        let cy = (array.ny as f64 - 1.0) / 2.0;
        let mut w = Vec::with_capacity(array.elements());
        for iy in 0..array.ny {
            for ix in 0..array.nx {
                let x = (ix as f64 - cx) * d;
                let y = (iy as f64 - cy) * d;
                w.push(Complex::cis(k * (x * u + y * v)));
            }
        }
        w
    }

    /// The shared steering row stays within bounds fixed before rows became
    /// products of per-axis phasors, against the per-element loop: each
    /// element to `|Δ| ≤ 1e-14` (measured maximum over 20,000 cases:
    /// 3.6e-15, 2.7e-15 on 8×4), and `|wᵀa|²` to an absolute `Δ ≤ 1e-12`
    /// (measured maximum 5.0e-14, 3.2e-14 on 8×4; the peak gain is N = 32)
    /// for every default-codebook sector and for random unit-power beams.
    /// The gain bound is absolute because a relative one has no floor near
    /// a null. Arrays are 8×4, odd-sized and 1×N; `u` and `v` are random,
    /// `0` or `-0`. The row is appended to what `out` holds, never written
    /// over it.
    #[test]
    fn steering_rows_match_the_per_element_loop_within_bounds() {
        const ELEMENT_BOUND: f64 = 1e-14;
        const GAIN_BOUND: f64 = 1e-12;
        let name = "steering_rows_match_the_per_element_loop_within_bounds";
        run_cases_n(name, 256, |rng| {
            let (nx, ny) = match rng.gen_range(0..4u32) {
                0 => (8, 4),
                1 => (2 * rng.gen_range(0..5usize) + 1, rng.gen_range(1..8usize)),
                2 => (rng.gen_range(1..8usize), 2 * rng.gen_range(0..5usize) + 1),
                _ => (1, rng.gen_range(1..17usize)),
            };
            let (nx, ny) = if rng.gen_bool(0.5) {
                (nx, ny)
            } else {
                (ny, nx)
            };
            let array = PlanarArray {
                nx,
                ny,
                ..PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD)
            };
            let cosine = |rng: &mut Rng| match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            };
            let (u, v) = (cosine(rng), cosine(rng));
            let mut got = vec![Complex::I];
            array.steering_uv_into(u, v, &mut got);
            assert_eq!(got[0], Complex::I, "the row overwrote what came before it");
            let (got, want) = (&got[1..], per_element_steering(&array, u, v));
            let ctx = format!("{nx}x{ny} at (u, v) = ({u:e}, {v:e})");
            assert_eq!(got.len(), want.len(), "{ctx}");
            for (e, (g, w)) in got.iter().zip(&want).enumerate() {
                let delta = (*g - *w).norm_sq().sqrt();
                assert!(
                    delta <= ELEMENT_BOUND,
                    "{ctx}: element {e} off by {delta:e}"
                );
            }
            let mut beams: Vec<Vec<Complex>> = (Codebook::default_for(&array).sectors())
                .iter()
                .map(|s| s.w.clone())
                .collect();
            beams.extend((0..8).map(|_| {
                let mut w: Vec<Complex> = (0..array.elements())
                    .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                crate::array::normalize(&mut w);
                w
            }));
            for w in &beams {
                let (g, r) = (response(w, got).norm_sq(), response(w, &want).norm_sq());
                assert!(
                    (g - r).abs() <= GAIN_BOUND,
                    "{ctx}: gain {g:e} against {r:e}"
                );
            }
        });
    }

    /// Both link beams through a (reused) `SweepRx` and through the
    /// `Channel` fronts, against the oracle, bit for bit: since both price
    /// a conjugate beam by the kernel, this referees which path each beam
    /// is pointed at, the LoS rule and the power sum (the closed-form
    /// referee below bounds the kernel by element sums).
    fn check_links(link: &mut SweepRx, channel: &Channel, rx: Vec3, blockers: &[Blocker]) {
        link.locate(channel, rx, blockers);
        let ctx = format!("{channel:?} rx {rx:?} with {} blockers", blockers.len());
        let want = rss_dedicated_beam(channel, rx, blockers);
        assert_eq!(link.rss_dedicated_beam().to_bits(), want.to_bits(), "{ctx}");
        assert_eq!(
            channel.rss_dedicated_beam(rx, blockers).to_bits(),
            want.to_bits()
        );
        let want = rss_best_beam(channel, rx, blockers);
        assert_eq!(link.rss_best_beam().to_bits(), want.to_bits(), "{ctx}");
        assert_eq!(
            channel.rss_best_beam(rx, blockers).to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn link_beams_match_the_channel_program() {
        let mut link = SweepRx::new();
        let mut blocked_links = 0usize;
        run_cases_n("link_beams", 192, |rng| {
            let room = Room {
                width: rng.gen_range(4.0..14.0),
                height: rng.gen_range(2.5..4.0),
                depth: rng.gen_range(4.0..14.0),
                floor_reflection: rng.gen_bool(0.5),
            };
            let inside = |rng: &mut Rng, y_lo: f64, y_hi: f64| {
                Vec3::new(
                    rng.gen_range(-0.48..0.48) * room.width,
                    rng.gen_range(y_lo..y_hi),
                    rng.gen_range(-0.48..0.48) * room.depth,
                )
            };
            let ap = Vec3::new(
                rng.gen_range(-0.3..0.3) * room.width,
                room.height - rng.gen_range(0.1..0.8),
                room.depth / 2.0 - 0.1,
            );
            let facing = inside(rng, 0.5, 1.5) - ap;
            let channel = Channel::new(room, PlanarArray::airfide(ap, facing));
            let rx = inside(rng, 0.4, room.height - 0.3);
            let n_blockers = rng.gen_range(0..13usize);
            let mut blockers: Vec<Blocker> = (0..n_blockers)
                .map(|_| Blocker::person(inside(rng, 0.0, 0.1)))
                .collect();
            check_links(&mut link, &channel, rx, &blockers);

            // The phantom body `link_rates` injects: mid-path on the LoS.
            blockers.push(Blocker::person(ap.lerp(rx, 0.5)));
            check_links(&mut link, &channel, rx, &blockers);
            blockers.pop();

            // A floor-to-ceiling body on a reflection's first leg, and the
            // receiver's own body (endpoint guard on the last legs only).
            if let Some(bounce) = channel.paths(rx).iter().find(|p| !p.is_los) {
                blockers.push(Blocker {
                    height: room.height,
                    ..Blocker::person(ap.lerp(bounce.via, 0.5))
                });
            }
            blockers.push(Blocker::person(rx));
            check_links(&mut link, &channel, rx, &blockers);
            let clear = rss_best_beam(&channel, rx, &[]);
            blocked_links += (rss_best_beam(&channel, rx, &blockers) < clear) as usize;
        });
        assert!(
            blocked_links > 96,
            "blockers attenuated only {blocked_links} links"
        );
    }

    #[test]
    fn degenerate_receivers_have_no_link() {
        let mut link = SweepRx::new();
        // At the array position there is no LoS direction: no dedicated
        // beam, but the wall bounces still carry a best beam.
        let channel = Channel::default_setup();
        let at_ap = channel.array.position;
        check_links(&mut link, &channel, at_ap, &[]);
        assert_eq!(channel.rss_dedicated_beam(at_ap, &[]), f64::NEG_INFINITY);
        assert!(channel.rss_best_beam(at_ap, &[]).is_finite());
        // An array outside its room, receiver on top of it: every bounce
        // point misses the walls, so there is no usable path at all.
        let outside = Vec3::new(20.0, 10.0, 0.0);
        let lost = Channel::new(
            Room::default(),
            PlanarArray::airfide(outside, Vec3::FORWARD),
        );
        assert!(lost.paths(outside).len() == 1, "only the zero-length LoS");
        check_links(&mut link, &lost, outside, &[Blocker::person(Vec3::ZERO)]);
        assert_eq!(link.n_paths(), 0);
        assert_eq!(lost.rss_best_beam(outside, &[]), f64::NEG_INFINITY);
        assert_eq!(
            lost.rss_dbm(
                &lost.array.beam_toward(Spherical::new(0.1, 0.0)),
                outside,
                &[]
            ),
            f64::NEG_INFINITY
        );
    }

    /// The default codebook is still, bit for bit, the oracle's conjugate
    /// beams; `SweepEngine::new`'s structure check compares it against the
    /// live, mirrored `beam_toward` (the sweep tests assert the closed form
    /// stays on).
    #[test]
    fn default_codebook_is_the_oracles_conjugate_beams() {
        for array in arrays() {
            let codebook = Codebook::default_for(&array);
            for (sector, &dir) in codebook.sectors().iter().zip(codebook.directions()) {
                let want = beam_toward(&array, dir);
                assert_same_bits(&sector.w, &want.w, &format!("sector toward {dir:?}"));
            }
        }
    }

    /// `|wᵀa|²` of the conjugate beam toward `beam` at `path` in closed
    /// form: `(U_{nx−1}(cos ψx) · U_{ny−1}(cos ψy))² / N`.
    fn kernel_gain(array: &PlanarArray, path: (f64, f64), beam: (f64, f64)) -> f64 {
        let h = std::f64::consts::PI * array.spacing_wl;
        let cos_psi = |p: f64, b: f64| {
            let ((sp, cp), (sb, cb)) = ((h * p).sin_cos(), (h * b).sin_cos());
            cp * cb + sp * sb
        };
        let r = PlanarArray::chebyshev_u(array.nx, cos_psi(path.0, beam.0))
            * PlanarArray::chebyshev_u(array.ny, cos_psi(path.1, beam.1));
        r * r / array.elements() as f64
    }

    /// A path located for the closed-form referee: its direction cosines,
    /// its power at unit array gain (element factor included) and its
    /// shipped steering row.
    struct Located {
        uv: (f64, f64),
        mw: f64,
        row: Vec<Complex>,
    }

    /// The conjugate beam toward `(u, v)` built from the per-element loop.
    fn per_element_beam(array: &PlanarArray, (u, v): (f64, f64)) -> Vec<Complex> {
        let mut w: Vec<Complex> = (per_element_steering(array, u, v).iter())
            .map(|c| c.conj())
            .collect();
        crate::array::normalize(&mut w);
        w
    }

    /// The closed form of every factoring beam — each default-codebook
    /// sector and a conjugate beam toward any direction — against element
    /// sums, within bounds fixed before the sweep read the closed form:
    ///
    /// - per path, `|Δ|wᵀa|²| ≤ 1e-13 · N` against the shipped sector
    ///   weights over the shipped steering rows, and against the
    ///   per-element loop's beam and row;
    /// - every finite receiver RSS (each sector, the dedicated and the best
    ///   beam) within 1e-11 dB of the element sums over the shipped rows,
    ///   and `−∞` exactly where they are.
    ///
    /// Arrays are 8×4, odd-sized, 1×N and N×1; path directions random,
    /// with `u` and `v` exactly `0` or `-0` one time in three, plus a path
    /// exactly where each beam points and every codebook sector, edges
    /// included. Receivers stand in rooms with 0–6 bodies and one on the
    /// line of sight one time in two (blocked paths); the bounce off the
    /// wall behind the array leaves it at the element floor; an array
    /// outside its room reaches nobody.
    ///
    /// Measured over 20,000 cases: `|Δ|wᵀa|²| / N` at most 1.4e-14 on 8×4,
    /// 2.0e-14 on odd arrays and 4.0e-14 on 1×N and N×1 (4.5e-13, 1.2e-12
    /// and 6.4e-13 absolute), the same against either element sum; where
    /// the gain exceeds 1e-2, at most 3.5e-13 relative. RSS at most
    /// 3.7e-12 dB apart.
    #[test]
    fn closed_form_responses_match_the_element_sums_within_bounds() {
        const GAIN_BOUND: f64 = 1e-13; // times N
        const RSS_BOUND_DB: f64 = 1e-11;
        let name = "closed_form_responses_match_the_element_sums_within_bounds";
        let (mut floored, mut blocked, mut unreachable) = (0usize, 0usize, 0usize);
        run_cases_n(name, 256, |rng| {
            let (nx, ny) = match rng.gen_range(0..4u32) {
                0 => (8, 4),
                1 => (
                    2 * rng.gen_range(0..5usize) + 1,
                    2 * rng.gen_range(0..4usize) + 1,
                ),
                2 => (1, rng.gen_range(1..17usize)),
                _ => (rng.gen_range(1..17usize), 1),
            };
            let room = Room::default();
            let ap = Vec3::new(0.0, 2.6, room.depth / 2.0 - 0.1);
            let array = PlanarArray {
                nx,
                ny,
                ..PlanarArray::airfide(ap, Vec3::new(0.0, 1.3, 0.0) - ap)
            };
            let n = array.elements() as f64;
            let codebook = Codebook::default_for(&array);
            let cosine = |rng: &mut Rng| match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            };

            // Gains: every sector as shipped, and conjugate beams toward
            // random directions, at random paths and at each beam's own.
            let mut beams: Vec<((f64, f64), Vec<Complex>)> = (codebook.sectors().iter())
                .zip(codebook.directions())
                .map(|(sector, &dir)| (cosines(dir), sector.w.clone()))
                .collect();
            for _ in 0..4 {
                let toward = (cosine(rng), cosine(rng));
                let mut w = Vec::new();
                array.steering_uv_into(toward.0, toward.1, &mut w);
                crate::array::conj_normalize(&mut w);
                beams.push((toward, w));
            }
            let mut paths: Vec<(f64, f64)> = (0..4).map(|_| (cosine(rng), cosine(rng))).collect();
            paths.extend(beams.iter().map(|(toward, _)| *toward));
            let slow_beams: Vec<Vec<Complex>> = (beams.iter())
                .map(|(toward, _)| per_element_beam(&array, *toward))
                .collect();
            let mut row = Vec::new();
            for &path in &paths {
                row.clear();
                array.steering_uv_into(path.0, path.1, &mut row);
                let slow_row = per_element_steering(&array, path.0, path.1);
                for ((toward, w), slow_w) in beams.iter().zip(&slow_beams) {
                    let got = kernel_gain(&array, path, *toward);
                    let shipped = response(w, &row).norm_sq();
                    let slow = response(slow_w, &slow_row).norm_sq();
                    let ctx = format!("{nx}x{ny}, beam {toward:?} at path {path:?}");
                    assert!(
                        (got - shipped).abs() <= GAIN_BOUND * n,
                        "{ctx}: {got:e} against the rows' {shipped:e}"
                    );
                    assert!(
                        (got - slow).abs() <= GAIN_BOUND * n,
                        "{ctx}: {got:e} against the per-element loop's {slow:e}"
                    );
                }
            }

            // RSS at a receiver: the kernel and the element sums over the
            // same located paths, power-summed in path order.
            let mut channel = Channel::new(room, array.clone());
            channel.room.floor_reflection = rng.gen_bool(0.5);
            let inside = |rng: &mut Rng| {
                Vec3::new(
                    rng.gen_range(-0.45..0.45) * room.width,
                    rng.gen_range(0.4..2.6),
                    rng.gen_range(-0.45..0.45) * room.depth,
                )
            };
            let mut rx = inside(rng);
            if rng.gen_bool(0.1) {
                let outside = Vec3::new(20.0, 10.0, 0.0);
                channel.array.position = outside;
                rx = outside;
            }
            let mut bodies: Vec<Blocker> = (0..rng.gen_range(0..7usize))
                .map(|_| Blocker::person(inside(rng)))
                .collect();
            if rng.gen_bool(0.5) {
                bodies.push(Blocker::person(channel.array.position.lerp(rx, 0.5)));
            }
            let located: Vec<Located> = (channel.paths(rx).iter())
                .filter_map(|path| {
                    let (u, v, element) = array.cosines(path.via - channel.array.position)?;
                    let loss_db = channel.path_loss_db(path, rx, &bodies);
                    blocked += (loss_db > channel.path_loss_db(path, rx, &[])) as usize;
                    floored += (element == 0.01) as usize;
                    let mw = calib::dbm_to_mw(calib::TX_POWER_DBM + calib::RX_GAIN_DBI - loss_db)
                        * element;
                    let mut row = Vec::new();
                    array.steering_uv_into(u, v, &mut row);
                    Some(Located {
                        uv: (u, v),
                        mw,
                        row,
                    })
                })
                .collect();
            let rss = |gain: &dyn Fn(&Located) -> f64| {
                let total: f64 = located.iter().map(|p| gain(p) * p.mw).sum();
                calib::mw_to_dbm(total)
            };
            let check = |got: f64, want: f64, what: &str| {
                let ctx = format!("{nx}x{ny} at {rx:?}, {what}");
                if want == f64::NEG_INFINITY {
                    assert_eq!(got, want, "{ctx}");
                } else {
                    assert!(
                        (got - want).abs() <= RSS_BOUND_DB,
                        "{ctx}: {got} dBm vs {want}"
                    );
                }
            };
            for ((toward, w), s) in beams.iter().zip(0..codebook.len()) {
                let got = rss(&|p| kernel_gain(&array, p.uv, *toward));
                check(
                    got,
                    rss(&|p| response(w, &p.row).norm_sq()),
                    &format!("sector {s}"),
                );
            }
            let (mut best, mut best_sum) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for (q, path) in located.iter().enumerate() {
                let (toward, mut w) = (&path.uv, path.row.clone());
                crate::array::conj_normalize(&mut w);
                let got = rss(&|p| kernel_gain(&array, p.uv, *toward));
                let want = rss(&|p| response(&w, &p.row).norm_sq());
                check(got, want, &format!("the conjugate beam toward path {q}"));
                (best, best_sum) = (best.max(got), best_sum.max(want));
            }
            check(best, best_sum, "the best beam");
            unreachable += located.is_empty() as usize;
        });
        assert!(
            floored > 0 && blocked > 0 && unreachable > 0,
            "{floored} floored, {blocked} blocked, {unreachable} unreachable"
        );
    }
}
