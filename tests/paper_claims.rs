//! The paper's claims that read RSS, restated as properties over random
//! geometries and seeds rather than pinned at one: the guard that lets the
//! steering rows' float program change without a one-seed pin deciding
//! whether it is still right.

use volcast::core::{quick_session_with_device, PlayerKind};
use volcast::geom::Vec3;
use volcast::mmwave::{
    calib, combine_weights_multi, AntennaWeights, Blocker, Channel, Codebook, MultiLobeDesigner,
};
use volcast::pointcloud::QualityLevel;
use volcast::viewport::DeviceClass;
use volcast_util::prop::run_cases_n;
use volcast_util::rng::Rng;

/// A head-height position inside the default room, clear of the walls.
fn in_room(channel: &Channel, rng: &mut Rng) -> Vec3 {
    let room = &channel.room;
    Vec3::new(
        rng.gen_range(-0.45..0.45) * room.width,
        rng.gen_range(1.0..1.9),
        rng.gen_range(-0.45..0.45) * room.depth,
    )
}

/// Fig. 3d / §4.2: the designed group beam never serves a pair worse than
/// the best common default sector, and it is customised exactly when the
/// pair is not a tie (some member's own best sector is not the common
/// one: "when all users already share a strong default sector, the
/// default beam should be used directly") and the combined multi-lobe
/// beam beats that sector's common RSS at every member — over random
/// two-user geometries, with the users' own bodies and up to four more
/// people standing anywhere in the room.
#[test]
fn designed_beams_never_lose_to_the_best_common_sector() {
    let channel = Channel::default_setup();
    let codebook = Codebook::default_for(&channel.array);
    let designer = MultiLobeDesigner::new(&channel, &codebook);
    let mut customized = 0;
    let name = "designed_beams_never_lose_to_the_best_common_sector";
    run_cases_n(name, 96, |rng| {
        let members = [in_room(&channel, rng), in_room(&channel, rng)];
        let mut bodies: Vec<Blocker> = members.iter().map(|&m| Blocker::person(m)).collect();
        let strangers = rng.gen_range(0..5usize);
        bodies.extend((0..strangers).map(|_| Blocker::person(in_room(&channel, rng))));

        let design = designer.design(&members, &bodies);
        let (common, default_rss) = designer.best_common_sector(&members, &bodies);
        let default_common = default_rss.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            design.common_rss_dbm() >= default_common,
            "designed {} dBm < best sector {default_common} dBm at {members:?}",
            design.common_rss_dbm()
        );
        // The custom candidate: each member's best sector, weighted by the
        // inverse of its RSS and combined.
        let bests: Vec<(usize, Vec<f64>)> = (members.iter())
            .map(|&m| designer.best_common_sector(&[m], &bodies))
            .collect();
        let tie = bests.iter().all(|(idx, _)| *idx == common);
        let lobes: Vec<(AntennaWeights, f64)> = (bests.iter())
            .map(|(idx, rss)| (codebook.sectors()[*idx].clone(), calib::dbm_to_mw(rss[0])))
            .collect();
        let custom = combine_weights_multi(&lobes);
        let wins = (members.iter()).all(|&m| channel.rss_dbm(&custom, m, &bodies) > default_common);
        let want = !tie && wins;
        assert_eq!(design.customized, want, "at {members:?} with {bodies:?}");
        customized += want as usize;
    });
    assert!(customized > 0, "no case customised a beam");
}

/// Table 1 / §4.2: at a fixed quality, on the same traces, multicasting
/// what viewports share never costs airtime — mean frame time orders
/// Volcast ≤ ViVo ≤ Vanilla — at every user count from 2 to 8, over clear
/// links (the regime Table 1 measured; with bodies blocking links the
/// ordering can invert, see the pinned counterexample below).
#[test]
fn airtime_orders_volcast_vivo_vanilla_at_every_group_size() {
    let name = "airtime_orders_volcast_vivo_vanilla_at_every_group_size";
    run_cases_n(name, 2, |rng| {
        let seed = rng.gen_range(0..10_000u64);
        let device = [DeviceClass::Phone, DeviceClass::Headset][rng.gen_range(0..2usize)];
        let quality = [QualityLevel::Low, QualityLevel::Medium, QualityLevel::High];
        let quality = quality[rng.gen_range(0..3usize)];
        for users in 2..=8 {
            let frame_time = |player| {
                let mut s = quick_session_with_device(player, users, 12, seed, device);
                s.params.analysis_points = 3_000;
                s.params.fixed_quality = Some(quality);
                s.params.body_blockage = false;
                s.run().unwrap().mean_frame_time_s
            };
            let vanilla = frame_time(PlayerKind::Vanilla);
            let vivo = frame_time(PlayerKind::Vivo);
            let volcast = frame_time(PlayerKind::Volcast);
            let at = format!("{users} {device:?} users, seed {seed}, {quality:?}");
            assert!(vivo <= vanilla, "ViVo {vivo} s > vanilla {vanilla} s: {at}");
            assert!(volcast <= vivo, "Volcast {volcast} s > ViVo {vivo} s: {at}");
        }
    });
}

/// The counterexample that narrowed the property above to clear links:
/// two phone users at seed 1700, one of whom stands in the other's line of
/// sight in every frame. Volcast multicasts their shared cells and spends
/// 0.3 % more airtime per frame than ViVo — and renders more frames on
/// time (21.25 against 20 frames per second): the airtime buys delivery
/// to the blocked user, it is not waste.
#[test]
fn blocked_links_can_cost_volcast_airtime_that_buys_frames() {
    let run = |player| {
        let mut s = quick_session_with_device(player, 2, 12, 1700, DeviceClass::Phone);
        s.params.analysis_points = 3_000;
        s.params.fixed_quality = Some(QualityLevel::Medium);
        s.run().unwrap()
    };
    let (vivo, volcast) = (run(PlayerKind::Vivo), run(PlayerKind::Volcast));
    assert_eq!(volcast.blocked_user_frames, 12);
    assert!(volcast.mean_frame_time_s > vivo.mean_frame_time_s);
    assert!(volcast.multicast_byte_fraction > 0.0);
    assert!(volcast.qoe.mean_fps() > vivo.qoe.mean_fps());
}
