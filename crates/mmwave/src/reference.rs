//! Slow, obvious mmWave evaluation: the test oracle for
//! [`SweepRx`](crate::SweepRx) and [`SweepEngine`](crate::SweepEngine).
//!
//! Nothing here is shared with the live path beyond the steering rows
//! ([`PlanarArray::steering_uv_into`]: this module referees pruning, not
//! trig — the steering referee in its tests does that), path enumeration
//! and the loss program. A receiver is a [`PreparedRx`] rebuilt per call,
//! one owned steering vector per path, direction sines and cosines taken
//! wherever they are needed; the link beams are spelled out over `Channel`
//! and `beam_toward`, one allocation per step. Group-beam design evaluates
//! every sector of the codebook against every member — no bounds, no
//! pruning, no caches, no reused buffers — and takes the first-best argmax
//! serially. This is the only exhaustive scan in the tree; it is compiled
//! for tests only.

use crate::array::{AntennaWeights, PlanarArray};
use crate::calib;
use crate::channel::{Blocker, Channel};
use crate::codebook::Codebook;
use crate::multilobe::{combine_weights_multi, GroupBeam};
use volcast_geom::{Complex, Spherical, Vec3};

/// Conjugate-beamforming weights toward `dir`, unit power.
fn beam_toward(array: &PlanarArray, dir: Spherical) -> AntennaWeights {
    AntennaWeights {
        w: array.steering(dir).w.iter().map(|c| c.conj()).collect(),
    }
    .normalized()
}

/// A steering vector sampled toward one fixed array-local direction.
#[derive(Debug, Clone)]
struct SteeringSample {
    /// `a(dir)`: the unit-magnitude phase vector toward the direction.
    steering: AntennaWeights,
    /// Cosine element-pattern factor at the direction (floored backlobe).
    element: f64,
}

impl SteeringSample {
    fn new(array: &PlanarArray, dir: Spherical) -> Self {
        SteeringSample {
            steering: array.steering(dir),
            element: (dir.azimuth.cos() * dir.elevation.cos()).max(0.01),
        }
    }

    /// Far-field power gain of `weights` toward the sampled direction:
    /// `|w^T a|^2` times the element pattern.
    fn gain(&self, weights: &AntennaWeights) -> f64 {
        let mut acc = Complex::ZERO;
        for (wi, ai) in weights.w.iter().zip(&self.steering.w) {
            acc += *wi * *ai;
        }
        acc.norm_sq() * self.element
    }
}

/// A receiver prepared for a fixed `(receiver, blockers)` pair: paths
/// enumerated, blockage resolved, and the steering vector toward each
/// usable path sampled.
#[derive(Debug, Clone)]
pub(crate) struct PreparedRx {
    /// Per usable path: steering toward its departure point and the total
    /// loss in dB (propagation + reflection + blockage).
    paths: Vec<(SteeringSample, f64)>,
}

impl PreparedRx {
    /// RSS (dBm) for transmit beam `weights`: non-coherent power sum over
    /// paths.
    pub(crate) fn rss_dbm(&self, weights: &AntennaWeights) -> f64 {
        let mut total_mw = 0.0f64;
        for (sample, loss_db) in &self.paths {
            let gain = sample.gain(weights);
            if gain <= 0.0 {
                continue;
            }
            let rx_dbm = calib::TX_POWER_DBM + 10.0 * gain.log10() + calib::RX_GAIN_DBI - loss_db;
            total_mw += calib::dbm_to_mw(rx_dbm);
        }
        calib::mw_to_dbm(total_mw)
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
            let dir = array.local_direction(path.via - array.position)?;
            let loss_db = channel.path_loss_db(path, rx, blockers);
            Some((SteeringSample::new(array, dir), loss_db))
        })
        .collect();
    PreparedRx { paths }
}

/// The oracle of [`Channel::rss_dedicated_beam`]: a conjugate beam on the
/// LoS direction, `-∞` when there is none.
pub(crate) fn rss_dedicated_beam(channel: &Channel, rx: Vec3, blockers: &[Blocker]) -> f64 {
    let array = &channel.array;
    match array.local_direction(rx - array.position) {
        Some(dir) => prepare_rx(channel, rx, blockers).rss_dbm(&beam_toward(array, dir)),
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
            array
                .local_direction(p.via - array.position)
                .map(|dir| prepared.rss_dbm(&beam_toward(array, dir)))
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

/// First sector (strict `>`) maximizing the minimum member RSS, with that
/// sector's per-member RSS.
fn scan(codebook: &Codebook, prepared: &[PreparedRx]) -> (usize, Vec<f64>) {
    let mut best_idx = 0usize;
    let mut best_min = f64::NEG_INFINITY;
    let mut best_rss = vec![f64::NEG_INFINITY; prepared.len()];
    for (i, sector) in codebook.sectors().iter().enumerate() {
        let rss: Vec<f64> = prepared.iter().map(|p| p.rss_dbm(sector)).collect();
        let min = min_of(&rss);
        if min > best_min {
            best_min = min;
            best_idx = i;
            best_rss = rss;
        }
    }
    (best_idx, best_rss)
}

/// Exhaustive [`MultiLobeDesigner::best_common_sector`](crate::MultiLobeDesigner::best_common_sector).
pub(crate) fn best_common_sector(
    channel: &Channel,
    codebook: &Codebook,
    members: &[Vec3],
    blockers: &[Blocker],
) -> (usize, Vec<f64>) {
    scan(codebook, &prepare(channel, members, blockers))
}

fn combine(codebook: &Codebook, prepared: &[PreparedRx]) -> AntennaWeights {
    let per_user: Vec<(AntennaWeights, f64)> = prepared
        .iter()
        .map(|p| {
            let (idx, rss) = scan(codebook, std::slice::from_ref(p));
            (codebook.sectors()[idx].clone(), calib::dbm_to_mw(rss[0]))
        })
        .collect();
    combine_weights_multi(&per_user)
}

/// Exhaustive [`SweepEngine::combine_into`](crate::SweepEngine::combine_into).
pub(crate) fn custom_beam(
    channel: &Channel,
    codebook: &Codebook,
    members: &[Vec3],
    blockers: &[Blocker],
) -> AntennaWeights {
    combine(codebook, &prepare(channel, members, blockers))
}

/// Exhaustive [`MultiLobeDesigner::design`](crate::MultiLobeDesigner::design).
pub(crate) fn design(
    channel: &Channel,
    codebook: &Codebook,
    members: &[Vec3],
    blockers: &[Blocker],
) -> GroupBeam {
    let prepared = prepare(channel, members, blockers);
    let (idx, default_rss) = scan(codebook, &prepared);
    if members.len() >= 2 {
        let custom = combine(codebook, &prepared);
        let custom_rss: Vec<f64> = prepared.iter().map(|p| p.rss_dbm(&custom)).collect();
        if min_of(&custom_rss) > min_of(&default_rss) {
            return GroupBeam {
                weights: custom,
                member_rss_dbm: custom_rss,
                customized: true,
            };
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

    /// Both link beams through a (reused, dirty) `SweepRx` and through the
    /// `Channel` fronts, against the oracle, bit for bit.
    fn check_links(link: &mut SweepRx, channel: &Channel, rx: Vec3, blockers: &[Blocker]) {
        let mut beam = vec![Complex::I; 3]; // scratch arrives dirty
        link.prepare_paths(channel, rx, blockers);
        let ctx = format!("{channel:?} rx {rx:?} with {} blockers", blockers.len());
        let want = rss_dedicated_beam(channel, rx, blockers);
        assert_eq!(
            link.rss_dedicated_beam(&mut beam).to_bits(),
            want.to_bits(),
            "{ctx}"
        );
        assert_eq!(
            channel.rss_dedicated_beam(rx, blockers).to_bits(),
            want.to_bits()
        );
        let want = rss_best_beam(channel, rx, blockers);
        assert_eq!(
            link.rss_best_beam(&mut beam).to_bits(),
            want.to_bits(),
            "{ctx}"
        );
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
    /// live, mirrored `beam_toward` (the sweep tests assert the pruned mode
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
}
