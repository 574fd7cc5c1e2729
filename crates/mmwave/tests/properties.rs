//! Property tests for the mmWave substrate.

use volcast_geom::{Spherical, Vec3};
use volcast_mmwave::{
    combine_weights_multi, BeamSearch, Blocker, Channel, Codebook, McsTable, MultiLobeDesigner,
    PlanarArray,
};
use volcast_util::obs;
use volcast_util::prop::run_cases_n;
use volcast_util::rng::Rng;

fn arb_dir(rng: &mut Rng) -> Spherical {
    Spherical::new(rng.gen_range(-1.2..1.2), rng.gen_range(-0.8..0.8))
}

fn arb_room_pos(rng: &mut Rng) -> Vec3 {
    let (x, y) = (rng.gen_range(-3.5..3.5), rng.gen_range(0.8..2.0));
    Vec3::new(x, y, rng.gen_range(-3.5..3.5))
}

#[test]
fn steered_beams_have_unit_power() {
    run_cases_n("steered_beams_have_unit_power", 48, |rng| {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let b = array.beam_toward(arb_dir(rng));
        assert!((b.power() - 1.0).abs() < 1e-9);
    });
}

#[test]
fn gain_peaks_at_steering_direction() {
    run_cases_n("gain_peaks_at_steering_direction", 48, |rng| {
        let (dir, probe) = (arb_dir(rng), arb_dir(rng));
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let b = array.beam_toward(dir);
        // No probe direction may exceed the steered direction's gain
        // divided by its element pattern (the array factor peaks there).
        let g_target = array.gain(&b, dir);
        let g_probe = array.gain(&b, probe);
        let elem = |d: Spherical| (d.azimuth.cos() * d.elevation.cos()).max(0.01);
        assert!(
            g_probe / elem(probe) <= g_target / elem(dir) * (1.0 + 1e-9),
            "array factor exceeded its steering peak"
        );
    });
}

#[test]
fn combined_weights_unit_power() {
    run_cases_n("combined_weights_unit_power", 48, |rng| {
        let n = rng.gen_range(1..5usize);
        let dirs: Vec<_> = (0..n).map(|_| arb_dir(rng)).collect();
        let n = rng.gen_range(1..5usize);
        let rss: Vec<f64> = (0..n).map(|_| rng.gen_range(1e-9..1e-3)).collect();
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let k = dirs.len().min(rss.len());
        let beams: Vec<_> = (0..k)
            .map(|i| (array.beam_toward(dirs[i]), rss[i]))
            .collect();
        let c = combine_weights_multi(&beams);
        assert!((c.power() - 1.0).abs() < 1e-9);
    });
}

#[test]
fn rss_finite_inside_room() {
    run_cases_n("rss_finite_inside_room", 48, |rng| {
        let ch = Channel::default_setup();
        let rss = ch.rss_dedicated_beam(arb_room_pos(rng), &[]);
        assert!(rss.is_finite());
        // Plausible indoor range for a 32-element array.
        assert!((-95.0..=-30.0).contains(&rss), "rss {}", rss);
    });
}

#[test]
fn best_beam_at_least_dedicated() {
    run_cases_n("best_beam_at_least_dedicated", 48, |rng| {
        let pos = arb_room_pos(rng);
        let ch = Channel::default_setup();
        let ded = ch.rss_dedicated_beam(pos, &[]);
        let best = ch.rss_best_beam(pos, &[]);
        assert!(best >= ded - 1e-9);
    });
}

#[test]
fn blockers_never_increase_rss() {
    run_cases_n("blockers_never_increase_rss", 48, |rng| {
        let pos = arb_room_pos(rng);
        let (bx, bz) = (rng.gen_range(-3.5..3.5), rng.gen_range(-3.5..3.5));
        let ch = Channel::default_setup();
        let blocker = volcast_mmwave::Blocker::person(Vec3::new(bx, 0.0, bz));
        let clear = ch.rss_dedicated_beam(pos, &[]);
        let blocked = ch.rss_dedicated_beam(pos, &[blocker]);
        assert!(blocked <= clear + 1e-9);
    });
}

#[test]
fn designed_beam_never_below_best_sector() {
    run_cases_n("designed_beam_never_below_best_sector", 48, |rng| {
        let users = [arb_room_pos(rng), arb_room_pos(rng)];
        let ch = Channel::default_setup();
        let cb = Codebook::default_for(&ch.array);
        let d = MultiLobeDesigner::new(&ch, &cb);
        let (_, rss) = d.best_common_sector(&users, &[]);
        let default_min = rss.into_iter().fold(f64::INFINITY, f64::min);
        let beam = d.design(&users, &[]);
        assert!(beam.common_rss_dbm() >= default_min - 1e-9);
    });
}

#[test]
fn mcs_rate_monotone_in_rss() {
    run_cases_n("mcs_rate_monotone_in_rss", 48, |rng| {
        let (r1, r2) = (rng.gen_range(-90.0..-40.0), rng.gen_range(-90.0..-40.0));
        let t = McsTable::dmg();
        let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        assert!(t.phy_rate_mbps(lo) <= t.phy_rate_mbps(hi));
    });
}

#[test]
fn multicast_rate_never_exceeds_any_member() {
    run_cases_n("multicast_rate_never_exceeds_any_member", 48, |rng| {
        let n = rng.gen_range(1..6usize);
        let rss: Vec<f64> = (0..n).map(|_| rng.gen_range(-90.0..-40.0)).collect();
        let t = McsTable::dmg();
        let group = t.multicast_rate_mbps(&rss);
        for &r in &rss {
            assert!(group <= t.phy_rate_mbps(r) + 1e-9);
        }
    });
}

/// A full sweep books one sweep and every codebook sector as probed — the
/// SLS puts each on the air — however few the engine evaluates exactly.
/// No other test in this binary sweeps, so the counters move by exactly
/// that.
#[test]
fn full_sweep_books_every_sector_as_probed() {
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    let counter = |name: &str| {
        let snap = obs::snapshot();
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let search = BeamSearch::default();
    run_cases_n("full_sweep_books_every_sector_as_probed", 32, |rng| {
        let ch = Channel::default_setup();
        let (n_az, n_el) = (rng.gen_range(1..17usize), rng.gen_range(1..5usize));
        let cb = Codebook::dft(&ch.array, n_az, n_el, 1.2, 0.6);
        let bodies = [Blocker::person(arb_room_pos(rng))];
        let (sweeps, probed) = (
            counter("mmwave.beamsearch.sweeps"),
            counter("mmwave.beamsearch.sectors_probed"),
        );
        search.full_sweep(&ch, &cb, arb_room_pos(rng), &bodies);
        assert_eq!(counter("mmwave.beamsearch.sweeps"), sweeps + 1);
        let probed_now = counter("mmwave.beamsearch.sectors_probed");
        assert_eq!(probed_now, probed + cb.len() as u64);
    });
    obs::set_enabled(was_enabled);
}
