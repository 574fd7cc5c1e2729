//! Uniform planar phased arrays and antenna weight vectors.
//!
//! The AP's antenna is modeled as an `nx x ny` uniform planar array with
//! half-wavelength spacing. A beam is an [`AntennaWeights`] vector of
//! per-element complex weights; its far-field gain toward a direction is
//! `|w^H a(dir)|^2` where `a` is the steering vector. This is exactly the
//! abstraction the paper's custom multi-lobe design manipulates.

use crate::calib::WAVELENGTH_M;
use volcast_geom::{Complex, Quat, Spherical, Vec3};

/// A per-element complex weight vector (one beam).
#[derive(Debug, Clone, PartialEq)]
pub struct AntennaWeights {
    /// One complex weight per array element, row-major.
    pub w: Vec<Complex>,
}

impl AntennaWeights {
    /// Total transmit power of the weight vector (`sum |w_i|^2`).
    pub fn power(&self) -> f64 {
        self.w.iter().map(|c| c.norm_sq()).sum()
    }

    /// Returns the weights scaled to unit total power (the total-transmit-
    /// power constraint in the paper's beam design). Zero vectors are
    /// returned unchanged.
    pub fn normalized(&self) -> AntennaWeights {
        let mut out = self.clone();
        normalize(&mut out.w);
        out
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// `true` for an element-less vector.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }
}

/// Scales `w` to unit total power in place — the one normalization
/// program behind [`AntennaWeights::normalized`], the multi-lobe
/// combination and the link beams. Zero vectors are left unchanged.
pub(crate) fn normalize(w: &mut [Complex]) {
    let p: f64 = w.iter().map(|c| c.norm_sq()).sum();
    if p > 0.0 {
        let s = 1.0 / p.sqrt();
        for c in w.iter_mut() {
            *c = c.scale(s);
        }
    }
}

/// Turns a steering row into the conjugate-beamforming weights toward its
/// direction, at unit transmit power.
pub(crate) fn conj_normalize(w: &mut [Complex]) {
    for c in w.iter_mut() {
        *c = c.conj();
    }
    normalize(w);
}

/// `w^T a`: the array response of weights `w` toward the direction whose
/// steering row is `a` — the one dot product behind [`PlanarArray::gain`]
/// and every RSS evaluation.
pub(crate) fn response(w: &[Complex], a: &[Complex]) -> Complex {
    debug_assert_eq!(w.len(), a.len());
    let mut acc = Complex::ZERO;
    for (wi, ai) in w.iter().zip(a) {
        acc += *wi * *ai;
    }
    acc
}

/// A uniform planar array of isotropic-ish elements at λ/2 spacing.
///
/// The array lies in its local XY plane; its boresight is local `-Z`
/// (matching the camera convention). `orientation`/`position` place it in
/// the world.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanarArray {
    /// Elements along local X.
    pub nx: usize,
    /// Elements along local Y.
    pub ny: usize,
    /// Element spacing in wavelengths (0.5 = half wavelength).
    pub spacing_wl: f64,
    /// World position of the array center.
    pub position: Vec3,
    /// World orientation (boresight = rotated `-Z`).
    pub orientation: Quat,
}

impl PlanarArray {
    /// An 8x4 = 32-element array like the paper's 8-patch Airfide AP,
    /// mounted at `position` facing `facing` (world direction).
    pub fn airfide(position: Vec3, facing: Vec3) -> Self {
        PlanarArray {
            nx: 8,
            ny: 4,
            spacing_wl: 0.5,
            position,
            orientation: Quat::look_at(facing, Vec3::Y),
        }
    }

    /// Number of elements.
    pub fn elements(&self) -> usize {
        self.nx * self.ny
    }

    /// `(u, v, element)` toward world-space `world_dir`, read off the unit
    /// vector `l` in the array's frame: `u = sin az · cos el = l.x`, `v = sin
    /// el = l.y` and the element pattern of `cos az · cos el = −l.z`; `None`
    /// for the zero direction. The one direction program of every receiver.
    pub fn cosines(&self, world_dir: Vec3) -> Option<(f64, f64, f64)> {
        let local = self.orientation.conjugate().rotate(world_dir);
        let l = local.normalized()?;
        Some((l.x, l.y, element_pattern(-l.z)))
    }

    /// The steering vector toward an array-local direction: unit-magnitude
    /// phase terms `exp(j k (x_m sin_az cos_el + y_n sin_el))`.
    pub fn steering(&self, dir: Spherical) -> AntennaWeights {
        let mut w = Vec::with_capacity(self.elements());
        self.steering_into(dir, &mut w);
        AntennaWeights { w }
    }

    /// Appends the steering phases toward `dir` to `out` — the single
    /// float program behind [`PlanarArray::steering`], shared with the
    /// allocation-free sweep engine so every caller produces bit-identical
    /// phase vectors.
    pub fn steering_into(&self, dir: Spherical, out: &mut Vec<Complex>) {
        let u = dir.azimuth.sin() * dir.elevation.cos();
        let v = dir.elevation.sin();
        self.steering_uv_into(u, v, out);
    }

    /// [`PlanarArray::steering_into`] from the direction cosines
    /// `u = sin az · cos el`, `v = sin el`, for callers that already hold
    /// them (a located path's, from [`PlanarArray::cosines`]).
    ///
    /// The phase `k (x u + y v)` of the element in column `ix`, row `iy`
    /// factors into a column phasor `cis(k x u)` times a row phasor
    /// `cis(k y v)`, so a row costs `nx + ny` phasors and one complex
    /// product per element rather than one `sin_cos` per element. Each axis
    /// is symmetric about its centre: the phasor of the mirrored column or
    /// row has exactly the negated argument, which with an odd `sin` and an
    /// even `cos` makes it the conjugate, so only `⌈nx/2⌉ + ⌈ny/2⌉` phasors
    /// pay for a `sin_cos`. An odd axis's centre, whose argument is a
    /// signed zero, is its own mirror and is computed. The column phasors
    /// are staged in the first array row's own slots, which are written
    /// last; nothing is allocated beyond the row itself.
    pub fn steering_uv_into(&self, u: f64, v: f64, out: &mut Vec<Complex>) {
        let (nx, ny) = (self.nx, self.ny);
        let k = 2.0 * std::f64::consts::PI / WAVELENGTH_M;
        let d = self.spacing_wl * WAVELENGTH_M;
        let phasor = |i: usize, n: usize, c: f64| {
            let offset = (i as f64 - (n as f64 - 1.0) / 2.0) * d;
            Complex::cis(k * (offset * c))
        };
        let base = out.len();
        out.resize(base + nx * ny, Complex::ZERO);
        let row = &mut out[base..];
        if row.is_empty() {
            return;
        }
        for ix in 0..nx.div_ceil(2) {
            let p = phasor(ix, nx, u);
            row[nx - 1 - ix] = p.conj();
            row[ix] = p; // last: the centre of an odd axis keeps its own
        }
        // Row `iy` is the column phasors times its row phasor; row 0 holds
        // the column phasors, so it is scaled in place, last.
        let mut fill = |iy: usize, p: Complex| {
            let (xs, rest) = row.split_at_mut(nx);
            match iy.checked_sub(1) {
                None => xs.iter_mut().for_each(|x| *x *= p),
                Some(r) => {
                    for (c, x) in rest[r * nx..(r + 1) * nx].iter_mut().zip(&*xs) {
                        *c = *x * p;
                    }
                }
            }
        };
        for iy in (0..ny.div_ceil(2)).rev() {
            let p = phasor(iy, ny, v);
            if ny - 1 - iy != iy {
                fill(ny - 1 - iy, p.conj());
            }
            fill(iy, p);
        }
    }

    /// `U_{n−1}(x)`, the Chebyshev polynomial of the second kind of degree
    /// `n − 1`: the closed-form response of one `n`-element axis.
    ///
    /// The conjugate beam toward direction cosine `c` (a DFT sector, or a
    /// link's dedicated beam) responds toward `c'` along an axis with the
    /// Dirichlet kernel `Σᵢ e^{2jψ(i − (n−1)/2)} = sin(nψ)/sin ψ =
    /// U_{n−1}(cos ψ)`, `ψ = (k·d/2)(c' − c)`, and over the whole array
    /// `wᵀa = U_{nx−1}(cos ψx) · U_{ny−1}(cos ψy) / √N` — real, with no
    /// steering row in sight. Evaluated by the three-term recurrence
    /// `U_{i+1} = 2x·U_i − U_{i−1}` from `U_{−1} = 0`, `U_0 = 1`: no
    /// division, so no special case at `ψ = 0`, where it is exactly `n`;
    /// `n = 1` gives 1 and `n = 0` gives 0. The one-lane call of the
    /// kernel the sector sweep runs over blocks of sectors.
    pub fn chebyshev_u(n: usize, x: f64) -> f64 {
        chebyshev_u_lanes(n, [x])[0]
    }

    /// The conjugate-beamforming weights that maximize gain toward `dir`,
    /// normalized to unit transmit power.
    pub fn beam_toward(&self, dir: Spherical) -> AntennaWeights {
        let mut beam = self.steering(dir);
        conj_normalize(&mut beam.w);
        beam
    }

    /// Far-field power gain (linear) of `weights` toward an array-local
    /// direction: `|w^T a(dir)|^2`, including a cosine element pattern.
    ///
    /// With unit-power weights the peak achievable gain is the element
    /// count (e.g. 32 -> ~15 dB).
    pub fn gain(&self, weights: &AntennaWeights, dir: Spherical) -> f64 {
        debug_assert_eq!(weights.len(), self.elements());
        response(&weights.w, &self.steering(dir).w).norm_sq()
            * element_pattern(dir.azimuth.cos() * dir.elevation.cos())
    }
}

/// [`PlanarArray::chebyshev_u`] in `L` lanes that step together: each
/// lane doubles its `x` once, then runs `U_{i+1} = (2x)·U_i − U_{i−1}`,
/// so lane `i` is bit for bit `chebyshev_u(n, x[i])`, while the lanes'
/// independent chains overlap, and vectorise, where one serial chain
/// would wait on itself.
pub(crate) fn chebyshev_u_lanes<const L: usize>(n: usize, x: [f64; L]) -> [f64; L] {
    if n == 0 {
        return [0.0; L];
    }
    let x2 = x.map(|x| 2.0 * x);
    let (mut prev, mut cur) = ([0.0; L], [1.0; L]);
    for _ in 1..n {
        let next = std::array::from_fn(|i| x2[i] * cur[i] - prev[i]);
        (prev, cur) = (cur, next);
    }
    cur
}

/// Element pattern from the cosine `cos az · cos el` of the angle off
/// boresight, floored to a -20 dB backlobe so reflections behind the array
/// stay finite: the one program of [`PlanarArray::gain`] and `cosines`.
fn element_pattern(cos_boresight: f64) -> f64 {
    cos_boresight.max(0.01)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// [`PlanarArray::chebyshev_u`] as one serial recurrence, verbatim: the
    /// referee of every kernel lane.
    pub(crate) fn chebyshev_u_serial(n: usize, x: f64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let (mut prev, mut cur) = (0.0, 1.0);
        for _ in 1..n {
            (prev, cur) = (cur, 2.0 * x * cur - prev);
        }
        cur
    }

    /// Every lane of the kernel is the serial recurrence bit for bit, at
    /// every degree up to 15, on random arguments and on ±0, ±1, a
    /// subnormal and NaN, wherever in the block they stand.
    #[test]
    fn lanes_match_the_scalar_recurrence() {
        let special = [0.0, -0.0, 1.0, -1.0, f64::MIN_POSITIVE / 4.0, f64::NAN];
        volcast_util::prop::run_cases("lanes_match_the_scalar_recurrence", |rng| {
            let x: [f64; 8] = std::array::from_fn(|_| match rng.gen_range(0..3usize) {
                0 => special[rng.gen_range(0..special.len())],
                _ => rng.gen_range(-1.5..1.5),
            });
            for n in 0..=16 {
                let want = x.map(|x| chebyshev_u_serial(n, x).to_bits());
                assert_eq!(
                    chebyshev_u_lanes(n, x).map(f64::to_bits),
                    want,
                    "n {n}, {x:?}"
                );
                let one = x.map(|x| PlanarArray::chebyshev_u(n, x).to_bits());
                assert_eq!(one, want, "n {n}, {x:?}");
            }
        });
    }

    fn test_array() -> PlanarArray {
        PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD)
    }

    #[test]
    fn element_count() {
        assert_eq!(test_array().elements(), 32);
    }

    #[test]
    fn beam_has_unit_power() {
        let a = test_array();
        for dir in [
            Spherical::new(0.0, 0.0),
            Spherical::new(0.5, 0.0),
            Spherical::new(-1.0, 0.4),
        ] {
            let b = a.beam_toward(dir);
            assert!((b.power() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn boresight_beam_achieves_array_gain() {
        let a = test_array();
        let b = a.beam_toward(Spherical::new(0.0, 0.0));
        let g = a.gain(&b, Spherical::new(0.0, 0.0));
        // Peak gain = N elements (32) times element pattern (1 at boresight).
        assert!((g - 32.0).abs() < 1e-6, "gain {g}");
    }

    #[test]
    fn steered_beam_peaks_at_target() {
        let a = test_array();
        let target = Spherical::new(0.6, 0.2);
        let b = a.beam_toward(target);
        let g_target = a.gain(&b, target);
        // Scan: no direction may beat the target (modulo element pattern).
        for az in -30..30 {
            for el in -10..10 {
                let d = Spherical::new(az as f64 * 0.1, el as f64 * 0.1);
                let g = a.gain(&b, d);
                assert!(
                    g <= g_target * 1.001,
                    "gain at ({},{}) = {g} exceeds target {g_target}",
                    d.azimuth,
                    d.elevation
                );
            }
        }
    }

    #[test]
    fn misaligned_beam_loses_gain() {
        let a = test_array();
        let b = a.beam_toward(Spherical::new(0.0, 0.0));
        let g0 = a.gain(&b, Spherical::new(0.0, 0.0));
        // 30 degrees off: well outside the ~13-degree azimuth beamwidth.
        let g_off = a.gain(&b, Spherical::new(0.52, 0.0));
        assert!(g_off < g0 / 10.0, "off-beam gain {g_off} vs peak {g0}");
    }

    #[test]
    fn azimuth_beam_narrower_than_elevation() {
        // 8 elements across azimuth vs 4 across elevation: the -3 dB point
        // in azimuth comes earlier.
        let a = test_array();
        let b = a.beam_toward(Spherical::new(0.0, 0.0));
        let g0 = a.gain(&b, Spherical::new(0.0, 0.0));
        let find_3db = |is_az: bool| -> f64 {
            let mut angle: f64 = 0.0;
            loop {
                angle += 0.005;
                let d = if is_az {
                    Spherical::new(angle, 0.0)
                } else {
                    Spherical::new(0.0, angle)
                };
                if a.gain(&b, d) < g0 / 2.0 || angle > 1.5 {
                    return angle;
                }
            }
        };
        assert!(find_3db(true) < find_3db(false));
    }

    #[test]
    fn world_mounting_and_direction() {
        // Array on the +Z wall facing -Z sees a user ahead at boresight.
        let a = PlanarArray::airfide(Vec3::new(0.0, 2.5, 4.0), Vec3::FORWARD);
        let (u, v, element) = a.cosines(Vec3::new(0.0, 2.5, 0.0) - a.position).unwrap();
        assert!(u.abs() < 1e-9 && v.abs() < 1e-9 && (element - 1.0).abs() < 1e-9);
        // A user below and to the right maps to nonzero angles.
        let (u, v, _) = a.cosines(Vec3::new(2.0, 1.0, 0.0) - a.position).unwrap();
        assert!(u > 0.0);
        assert!(v < 0.0);
    }

    #[test]
    fn multi_lobe_cut_shows_two_peaks() {
        let a = test_array();
        let w1 = a.beam_toward(Spherical::new(-0.5, 0.0));
        let w2 = a.beam_toward(Spherical::new(0.5, 0.0));
        let combined = crate::multilobe::combine_weights(&w1, 1e-6, &w2, 1e-6);
        let gain_at = |az: f64| {
            10.0 * a
                .gain(&combined, Spherical::new(az, 0.0))
                .max(1e-12)
                .log10()
        };
        let lobe_l = gain_at(-0.5);
        let lobe_r = gain_at(0.5);
        let valley = gain_at(0.0);
        assert!(lobe_l > valley + 3.0, "left lobe {lobe_l} valley {valley}");
        assert!(lobe_r > valley + 3.0, "right lobe {lobe_r} valley {valley}");
    }

    #[test]
    fn normalized_zero_vector_is_safe() {
        let z = AntennaWeights {
            w: vec![Complex::ZERO; 4],
        };
        assert_eq!(z.normalized().power(), 0.0);
        assert!(!z.is_empty());
        assert_eq!(z.len(), 4);
    }
}
