//! Default sector codebooks.
//!
//! Commercial 802.11ad radios ship a fixed codebook of a few dozen sector
//! beams that the sector-level sweep (SLS) scans. The paper's point (Fig.
//! 3b) is that these single-lobe sectors were never designed for multicast:
//! one sector rarely covers two spread-out users with high RSS.
//!
//! Every codebook is a [`Codebook::dft`] one: conjugate beams toward a grid
//! of directions on the array it was built for, priced in closed form.

use crate::array::{AntennaWeights, PlanarArray};
use std::sync::OnceLock;
use volcast_geom::{Spherical, Vec3};

/// A set of DFT sector beams over the array's field of view.
///
/// The fields are private so the codebook can vouch for its own structure:
/// [`Codebook::dft`] records the array geometry its sectors are the
/// conjugate beams of, which is what lets [`SweepEngine`](crate::SweepEngine)
/// price them in closed form without building them: its weights are built
/// on the first [`Codebook::sectors`] call, which `==`, clones and `Debug`
/// do not tell from an eager build.
#[derive(Clone)]
pub struct Codebook {
    /// Sector beams (unit transmit power each), built on request.
    sectors: OnceLock<Vec<AntennaWeights>>,
    /// The steering direction of each sector (same indexing).
    directions: Vec<Spherical>,
    /// `(nx, ny, spacing_wl)` of the array every sector is
    /// `beam_toward(direction)` of — all a conjugate beam depends on.
    dft_of: (usize, usize, f64),
}

/// Equal DFT records and directions make equal sectors: not compared.
impl PartialEq for Codebook {
    fn eq(&self, other: &Self) -> bool {
        (self.dft_of, &self.directions) == (other.dft_of, &other.directions)
    }
}

impl std::fmt::Debug for Codebook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Codebook")
            .field("sectors", &self.sectors())
            .field("directions", &self.directions)
            .field("dft_of", &self.dft_of)
            .finish()
    }
}

impl Codebook {
    /// Builds the default DFT-style codebook: a uniform az/el grid of
    /// conjugate-beamforming sectors covering ±`az_span`/±`el_span`.
    ///
    /// Defaults mirror commercial devices: ~32-64 sectors.
    pub fn dft(array: &PlanarArray, n_az: usize, n_el: usize, az_span: f64, el_span: f64) -> Self {
        assert!(n_az * n_el > 0, "a codebook needs at least one sector");
        let at = |i: usize, n: usize, span: f64| match n {
            1 => 0.0,
            _ => -span + 2.0 * span * i as f64 / (n - 1) as f64,
        };
        let mut directions = Vec::with_capacity(n_az * n_el);
        for ie in 0..n_el {
            let el = at(ie, n_el, el_span);
            directions.extend((0..n_az).map(|ia| Spherical::new(at(ia, n_az, az_span), el)));
        }
        Codebook {
            sectors: OnceLock::new(),
            directions,
            dft_of: (array.nx, array.ny, array.spacing_wl),
        }
    }

    /// Sector beams (unit transmit power each), built by the first call:
    /// `beam_toward` each direction.
    pub fn sectors(&self) -> &[AntennaWeights] {
        self.sectors.get_or_init(|| {
            let mut array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
            (array.nx, array.ny, array.spacing_wl) = self.dft_of;
            let beam = |&d: &Spherical| array.beam_toward(d);
            self.directions.iter().map(beam).collect()
        })
    }

    /// The steering direction of each sector (same indexing).
    pub fn directions(&self) -> &[Spherical] {
        &self.directions
    }

    /// Whether every sector is `array.beam_toward` of its direction, by the
    /// record [`Codebook::dft`] left.
    pub(crate) fn is_dft_for(&self, array: &PlanarArray) -> bool {
        self.dft_of == (array.nx, array.ny, array.spacing_wl)
    }

    /// The standard commercial configuration for the 8x4 array: 16 azimuth
    /// x 3 elevation sectors over ±60° az, ±30° el (48 sectors).
    pub fn default_for(array: &PlanarArray) -> Self {
        Codebook::dft(array, 16, 3, 60f64.to_radians(), 30f64.to_radians())
    }

    /// Number of sectors.
    pub fn len(&self) -> usize {
        self.directions.len()
    }

    /// `true` when the codebook has no sectors.
    pub fn is_empty(&self) -> bool {
        self.directions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PlanarArray, Codebook) {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let cb = Codebook::default_for(&array);
        (array, cb)
    }

    #[test]
    fn default_codebook_size() {
        let (_, cb) = setup();
        assert_eq!(cb.len(), 48);
        assert_eq!(cb.sectors().len(), cb.directions().len());
        assert!(!cb.is_empty());
    }

    #[test]
    fn all_sectors_unit_power() {
        let (_, cb) = setup();
        for s in cb.sectors() {
            assert!((s.power() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sweep_finds_good_sector_for_any_front_direction() {
        let (array, cb) = setup();
        // For directions within the codebook span, the best sector must be
        // within ~4 dB of a dedicated beam.
        for az_deg in [-55.0f64, -20.0, 0.0, 33.0, 58.0] {
            for el_deg in [-25.0f64, 0.0, 22.0] {
                let dir = Spherical::new(az_deg.to_radians(), el_deg.to_radians());
                let dedicated = array.gain(&array.beam_toward(dir), dir);
                let best = cb
                    .sectors()
                    .iter()
                    .map(|s| array.gain(s, dir))
                    .fold(0.0f64, f64::max);
                assert!(
                    best > dedicated * 0.4,
                    "az {az_deg} el {el_deg}: best {best} vs dedicated {dedicated}"
                );
            }
        }
    }

    #[test]
    fn single_sector_codebook() {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let cb = Codebook::dft(&array, 1, 1, 1.0, 1.0);
        assert_eq!(cb.len(), 1);
        assert_eq!(cb.directions()[0], Spherical::new(0.0, 0.0));
    }

    /// A DFT codebook builds its weights on the first `sectors()` call, and
    /// nothing else tells: `==`, clones and `Debug` read the same before
    /// and after, and the weights are the eager build's — `beam_toward`
    /// each direction on the array — bit for bit.
    #[test]
    fn lazy_sectors_are_the_eager_build_and_do_not_show() {
        let arrays = [
            PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD),
            PlanarArray {
                nx: 3,
                ny: 5,
                spacing_wl: 0.45,
                ..PlanarArray::airfide(Vec3::new(1.0, 2.0, 3.0), Vec3::new(0.3, -0.2, 1.0))
            },
            PlanarArray {
                nx: 1,
                ny: 1,
                ..PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD)
            },
        ];
        for array in arrays {
            let (lazy, built) = (
                Codebook::dft(&array, 7, 3, 0.9, 0.4),
                Codebook::dft(&array, 7, 3, 0.9, 0.4),
            );
            let debug = format!("{built:?} {built:#?}");
            assert!(built.sectors.get().is_some(), "Debug prints the weights");
            let clone = lazy.clone();
            assert_eq!(lazy, built);
            assert_eq!(built, lazy);
            assert_eq!(clone, built);
            assert!(lazy.sectors.get().is_none() && clone.sectors.get().is_none());
            assert_eq!(format!("{clone:?} {clone:#?}"), debug);
            assert_ne!(lazy, Codebook::dft(&array, 7, 3, 0.9, 0.41));
            for (w, &dir) in lazy.sectors().iter().zip(lazy.directions()) {
                let want = array.beam_toward(dir);
                assert!(w.w.iter().zip(&want.w).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                }));
                assert_eq!(w.len(), want.len());
            }
            assert_eq!(lazy.clone(), built);
        }
    }

    /// Rejected where it is built, not at the first sweep's cache lookup.
    #[test]
    #[should_panic(expected = "at least one sector")]
    fn an_empty_codebook_is_refused() {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        Codebook::dft(&array, 0, 3, 1.0, 0.5);
    }

    #[test]
    fn directions_span_requested_range() {
        let (_, cb) = setup();
        let max_az = cb
            .directions()
            .iter()
            .map(|d| d.azimuth)
            .fold(f64::MIN, f64::max);
        let min_az = cb
            .directions()
            .iter()
            .map(|d| d.azimuth)
            .fold(f64::MAX, f64::min);
        assert!((max_az - 60f64.to_radians()).abs() < 1e-9);
        assert!((min_az + 60f64.to_radians()).abs() < 1e-9);
    }
}
