//! Pins what the replay counts as dropped in `net.sim.dropped_items`, the
//! counter the benchmark reads.
//!
//! This is its own integration binary because the obs registry is
//! process-global: a sibling test replaying concurrently would move the
//! counter. Keep exactly one `#[test]` in this file.

use volcast_net::{AdMac, BacklogPolicy, SimScratch, SimTime, Simulator, TransmissionPlan, TxItem};
use volcast_util::obs;

/// `plans` replayed on an ideal MAC with two users under `policy`: the
/// completion table and the `net.sim.dropped_items` count of the replay.
fn dropped(plans: &[TransmissionPlan], policy: BacklogPolicy) -> (Vec<Option<SimTime>>, u64) {
    let mac = AdMac {
        base_efficiency: 1.0,
        bhi_fraction: 0.0,
        per_sta_overhead: 0.0,
    };
    let sim = Simulator::new(&mac, 2, 2, SimTime::from_millis(33.333), policy).unwrap();
    let mut completion = Vec::new();
    obs::reset();
    sim.run_into(plans, &mut SimScratch::default(), &mut completion);
    let snap = obs::snapshot();
    let count = snap
        .counters
        .iter()
        .find(|c| c.name == "net.sim.dropped_items")
        .map_or(0, |c| c.value);
    (completion, count)
}

#[test]
fn dropped_items_are_counted() {
    let was_enabled = obs::enabled();
    obs::set_enabled(true);

    // 50 ms of airtime per 33 ms slot under the drop policy: every frame
    // whose item never aired is one dropped item.
    let bytes = 1000.0e6 / 8.0 * 50.0 / 1e3;
    let plans: Vec<_> = (0..6)
        .map(|_| TransmissionPlan {
            items: vec![TxItem::unicast(0, bytes, 1000.0)],
        })
        .collect();
    let (completion, count) = dropped(&plans, BacklogPolicy::Drop);
    let missed = completion.chunks(2).filter(|row| row[0].is_none()).count() as u64;
    assert!(count >= 1, "overload must drop items");
    assert_eq!(count, missed);
    // Queued, nothing is dropped.
    assert_eq!(dropped(&plans, BacklogPolicy::Queue).1, 0);

    // An outage item (no PHY rate) is dropped on release, and only it.
    let plan = TransmissionPlan {
        items: vec![
            TxItem::unicast(0, 1e6, 0.0),
            TxItem::unicast(1, 1e6 / 8.0, 1000.0),
        ],
    };
    let (completion, count) = dropped(&[plan], BacklogPolicy::Queue);
    assert_eq!(count, 1);
    assert_eq!(completion[0], None);
    assert!(completion[1].is_some());

    obs::set_enabled(was_enabled);
    obs::reset();
}
