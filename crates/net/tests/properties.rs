//! Property tests for the network substrate.

use volcast_net::{AdMac, BacklogPolicy, MacModel, SimTime, Simulator, TransmissionPlan, TxItem};
use volcast_util::prop::prelude::*;

fn arb_plan(max_items: usize) -> impl Strategy<Value = TransmissionPlan> {
    prop::collection::vec(
        (0usize..4, 1.0f64..2e6, 100.0f64..4000.0, 0.0f64..0.01),
        0..max_items,
    )
    .prop_map(|items| {
        let mut p = TransmissionPlan::new();
        for (user, bytes, phy, switch) in items {
            let mut item = TxItem::unicast(user, bytes, phy);
            item.beam_switch_s = switch;
            p.items.push(item);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_completions_are_monotone(plan in arb_plan(20)) {
        let mac = AdMac::default();
        let timing = plan.execute(&mac, 4, 4);
        let mut prev = 0.0;
        for &t in &timing.item_completion_s {
            prop_assert!(t >= prev);
            prev = t;
        }
        prop_assert!((timing.total_s - prev).abs() < 1e-9 || plan.items.is_empty());
    }

    #[test]
    fn plan_total_equals_sum_of_parts(plan in arb_plan(20)) {
        let mac = AdMac::default();
        let timing = plan.execute(&mac, 4, 4);
        let sum: f64 = plan
            .items
            .iter()
            .map(|i| i.beam_switch_s + mac.airtime_s(i.bytes, i.phy_mbps, 4))
            .sum();
        prop_assert!((timing.total_s - sum).abs() < 1e-9 * (1.0 + sum));
    }

    #[test]
    fn goodput_monotone_in_phy(phy_a in 10.0f64..5000.0, phy_b in 10.0f64..5000.0,
                               n in 1usize..10) {
        let mac = AdMac::default();
        let (lo, hi) = if phy_a < phy_b { (phy_a, phy_b) } else { (phy_b, phy_a) };
        prop_assert!(mac.goodput_mbps(lo, n) <= mac.goodput_mbps(hi, n) + 1e-9);
    }

    #[test]
    fn simulator_queue_completions_never_before_per_slot(plans in prop::collection::vec(arb_plan(6), 1..8)) {
        // Pipelined (queued) completion of frame f can never be EARLIER
        // than executing f's plan alone starting at its release time.
        let mac = AdMac::default();
        let interval = SimTime::from_millis(33.333);
        let sim = Simulator::new(&mac, 4, 4, interval, BacklogPolicy::Queue).unwrap();
        let outcomes = sim.run(&plans);
        for (f, o) in outcomes.iter().enumerate() {
            let iso = plans[f].execute(&mac, 4, 4);
            for u in 0..4 {
                if let (Some(abs), Some(rel)) = (o.user_completion[u], iso.user_completion_s[u]) {
                    if rel.is_finite() {
                        let earliest = o.start + SimTime::from_secs(rel);
                        prop_assert!(
                            abs + SimTime(1_000) >= earliest,
                            "frame {} user {} finished before physically possible", f, u
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simulator_is_deterministic(plans in prop::collection::vec(arb_plan(5), 1..6)) {
        let mac = AdMac::default();
        let interval = SimTime::from_millis(33.333);
        let sim = Simulator::new(&mac, 4, 4, interval, BacklogPolicy::Drop).unwrap();
        let a = sim.run(&plans);
        let b = sim.run(&plans);
        prop_assert_eq!(a, b);
    }
}
