//! GOP-batched session contract: batching analysis-frame generation a GOP
//! at a time must not move a single byte of the session outcome — at any
//! worker count. The batch sweep only changes *when* and *on which thread*
//! a frame's points are produced, never their values.
//!
//! The thread-count knob is process-global, so the test serializes its
//! access through a mutex and restores the original count when done.

use std::sync::Mutex;
use volcast_core::session::quick_session_with_device;
use volcast_core::PlayerKind;
use volcast_util::json::ToJson;
use volcast_util::par;
use volcast_viewport::DeviceClass;

static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn session_json(threads: usize) -> String {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let orig = par::thread_count();
    par::set_thread_count(threads);
    let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 40, 11, DeviceClass::Headset);
    s.params.analysis_points = 3_000;
    let out = s.run().unwrap().to_json().to_json_string();
    par::set_thread_count(orig);
    out
}

/// 40 frames spans one full 30-frame GOP plus a 10-frame tail group, so
/// both the full-width and truncated batch shapes are covered.
#[test]
fn gop_batched_session_is_thread_count_invariant() {
    assert_eq!(
        session_json(1),
        session_json(8),
        "outcome depends on VOLCAST_THREADS"
    );
}
