//! Property tests for the network substrate.

use volcast_net::{
    AdMac, BacklogPolicy, FaultConfig, FaultPlan, MacModel, PlanLog, SimScratch, SimTime,
    Simulator, TransmissionPlan, TxItem, TxKind,
};
use volcast_util::prop::run_cases;
use volcast_util::rng::Rng;

/// A plan of up to `max_items - 1` unicast items, each with a beam switch.
fn arb_plan(rng: &mut Rng, max_items: usize) -> TransmissionPlan {
    let mut p = TransmissionPlan::new();
    for _ in 0..rng.gen_range(0..max_items) {
        let (user, bytes) = (rng.gen_range(0..4), rng.gen_range(1.0..2e6));
        let mut item = TxItem::unicast(user, bytes, rng.gen_range(100.0..4000.0));
        item.beam_switch_s = rng.gen_range(0.0..0.01);
        p.items.push(item);
    }
    p
}

#[test]
fn plan_completions_are_monotone() {
    run_cases("plan_completions_are_monotone", |rng| {
        let plan = arb_plan(rng, 20);
        let mac = AdMac::default();
        let timing = plan.execute(&mac, 4, 4);
        let mut prev = 0.0;
        for &t in &timing.item_completion_s {
            assert!(t >= prev);
            prev = t;
        }
        assert!((timing.total_s - prev).abs() < 1e-9 || plan.items.is_empty());
    });
}

#[test]
fn plan_total_equals_sum_of_parts() {
    run_cases("plan_total_equals_sum_of_parts", |rng| {
        let plan = arb_plan(rng, 20);
        let mac = AdMac::default();
        let timing = plan.execute(&mac, 4, 4);
        let sum: f64 = plan
            .items
            .iter()
            .map(|i| i.beam_switch_s + mac.airtime_s(i.bytes, i.phy_mbps, 4))
            .sum();
        assert!((timing.total_s - sum).abs() < 1e-9 * (1.0 + sum));
    });
}

#[test]
fn goodput_monotone_in_phy() {
    run_cases("goodput_monotone_in_phy", |rng| {
        let (phy_a, phy_b) = (rng.gen_range(10.0..5000.0f64), rng.gen_range(10.0..5000.0));
        let n = rng.gen_range(1..10usize);
        let mac = AdMac::default();
        let (lo, hi) = (phy_a.min(phy_b), phy_a.max(phy_b));
        assert!(mac.goodput_mbps(lo, n) <= mac.goodput_mbps(hi, n) + 1e-9);
    });
}

#[test]
fn simulator_queue_completions_never_before_per_slot() {
    run_cases("simulator_queue_completions_never_before_per_slot", |rng| {
        let n = rng.gen_range(1..8usize);
        let plans: Vec<_> = (0..n).map(|_| arb_plan(rng, 6)).collect();
        // Pipelined (queued) completion of frame f can never be EARLIER
        // than executing f's plan alone starting at its release time.
        let mac = AdMac::default();
        let interval = SimTime::from_millis(33.333);
        let sim = Simulator::new(&mac, 4, 4, interval, BacklogPolicy::Queue).unwrap();
        let mut completion = Vec::new();
        sim.run_into(&plans, &mut SimScratch::default(), &mut completion);
        for (f, row) in completion.chunks(4).enumerate() {
            let iso = plans[f].execute(&mac, 4, 4);
            for (u, (&done, &alone)) in row.iter().zip(&iso.user_completion_s).enumerate() {
                if let (Some(abs), Some(rel)) = (done, alone) {
                    if rel.is_finite() {
                        let earliest = sim.frame_start(f) + SimTime::from_secs(rel);
                        assert!(
                            abs + SimTime(1_000) >= earliest,
                            "frame {f} user {u} finished before physically possible"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn simulator_is_deterministic() {
    run_cases("simulator_is_deterministic", |rng| {
        let n = rng.gen_range(1..6usize);
        let plans: Vec<_> = (0..n).map(|_| arb_plan(rng, 5)).collect();
        let mac = AdMac::default();
        let interval = SimTime::from_millis(33.333);
        let sim = Simulator::new(&mac, 4, 4, interval, BacklogPolicy::Drop).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        sim.run_into(&plans, &mut SimScratch::default(), &mut a);
        sim.run_into(&plans, &mut SimScratch::default(), &mut b);
        assert_eq!(a, b);
    });
}

/// A log pushed by hand replays bit for bit as `run_into` does from the
/// same plans, and a log holds what was pushed into it. One log, one
/// scratch and one completion table serve every case (the log through
/// `clear`), over frame, item and user counts that shrink and grow in
/// turn, with multicasts, parity, beam switches, outage items, a frame's
/// items dropped and pushed again, both backlog policies and faults of
/// every class.
#[test]
fn replay_into_matches_run_into_through_reused_storage() {
    let mac = AdMac::default();
    let mut log = PlanLog::default();
    let (mut scratch, mut completion) = (SimScratch::default(), Vec::new());
    run_cases(
        "replay_into_matches_run_into_through_reused_storage",
        |rng| {
            let users = rng.gen_range(1..6usize);
            let frames = rng.gen_range(0..9usize);
            let mut plans = Vec::new();
            log.clear();
            for _ in 0..frames {
                log.begin_frame();
                let mut plan = TransmissionPlan::new();
                for _ in 0..rng.gen_range(0..7) {
                    if rng.gen_bool(0.1) {
                        log.clear_last();
                        plan.items.clear();
                    }
                    let mut item = if rng.gen_bool(0.3) {
                        let members = (0..users).filter(|_| rng.gen_bool(0.6)).collect();
                        TxItem::multicast(members, rng.gen_range(1.0..4e5), 1251.25)
                    } else {
                        let phy = [0.0, 385.0, 2502.5][rng.gen_range(0..3usize)];
                        TxItem::unicast(rng.gen_range(0..users), rng.gen_range(1.0..4e5), phy)
                    };
                    item.parity_bytes = [0.0, 1e4][rng.gen_range(0..2usize)];
                    item.beam_switch_s = [0.0, 2e-3][rng.gen_range(0..2usize)];
                    // Logged as the session logs it: a multicast's members in
                    // the log's arena only.
                    let kind = match item.kind {
                        TxKind::Multicast { .. } => TxKind::Multicast {
                            members: Vec::new(),
                        },
                        TxKind::Unicast { user } => TxKind::Unicast { user },
                    };
                    let logged = TxItem {
                        kind,
                        ..item.clone()
                    };
                    assert_eq!(log.push(logged, item.receivers()), plan.items.len());
                    plan.items.push(item);
                }
                plans.push(plan);
            }
            assert_eq!(log.frames(), frames);
            for (f, plan) in plans.iter().enumerate() {
                let logged = log.frame(f).map(|(item, to)| match &item.kind {
                    TxKind::Multicast { .. } => (item.bytes, to.to_vec()),
                    TxKind::Unicast { user } => (item.bytes, vec![*user]),
                });
                let planned = plan.items.iter().map(|i| (i.bytes, i.receivers().to_vec()));
                assert!(logged.eq(planned), "frame {f}");
            }
            let faults = match rng.gen_bool(0.5) {
                true => FaultPlan::quiet(),
                false => {
                    let spec = "outage=0.2:2,blockage=0.2:2,stall=0.2:1,loss=0.3,decode=0.2";
                    let cfg = FaultConfig::from_spec(spec).unwrap();
                    let cfg = FaultConfig {
                        seed: rng.next_u64(),
                        ..cfg
                    };
                    FaultPlan::generate(cfg, frames, users).unwrap()
                }
            };
            let policy = [BacklogPolicy::Queue, BacklogPolicy::Drop][rng.gen_range(0..2usize)];
            let interval = SimTime::from_millis(33.333);
            let sim = Simulator::new(&mac, users, users, interval, policy)
                .unwrap()
                .with_faults(&faults);
            let mut batch = Vec::new();
            sim.run_into(&plans, &mut SimScratch::default(), &mut batch);
            sim.replay_into(&log, &mut scratch, &mut completion);
            assert_eq!(completion.len(), frames * users);
            assert_eq!(completion, batch);
        },
    );
}
