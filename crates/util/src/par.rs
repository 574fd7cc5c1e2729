//! Deterministic data parallelism over scoped threads.
//!
//! The workspace's coarse loops — campus rooms, server clients, a GOP's
//! runs of frames, the figure bins' frame and trial sweeps, multi-config
//! experiment replication — are embarrassingly parallel, but the
//! workspace is intentionally dependency-free (`DESIGN.md` §5), so
//! `rayon` is not an option. This module is the in-tree substitute:
//! [`par_map`] and [`par_for_each_mut`] fan work out over
//! `std::thread::scope` workers and return (or write) results **in input
//! order**.
//!
//! ## The determinism contract
//!
//! Running under `VOLCAST_THREADS=1` and `VOLCAST_THREADS=N` must produce
//! **byte-identical** results. The module guarantees its half of that
//! contract by construction:
//!
//! - results are collected positionally (`out[i]` is `f(items[i])`),
//!   regardless of which worker computed them or in what order they
//!   finished;
//! - no reduction reorders floating-point operations — callers that fold
//!   over the returned `Vec` do so in input order on the calling thread.
//!
//! Callers own the other half: the mapped closure must be a pure function
//! of `(item, index)`. Per-item randomness must therefore derive its seed
//! from `(base_seed, item_index)` — use [`crate::rng::Rng::for_stream`],
//! the SplitMix64 stream splitter — or pre-draw all random parameters
//! sequentially *before* the parallel region, never share one mutable
//! generator across items.
//!
//! ## The worker budget
//!
//! The thread budget is lazily initialized, shared process-wide, and read
//! from `VOLCAST_THREADS` (default: available parallelism; `1` forces the
//! serial path for debugging). Workers themselves are *scoped* threads
//! spawned per region: a persistent pool cannot execute closures that
//! borrow the caller's stack without `unsafe` lifetime erasure, which this
//! crate forbids. The spawn cost (tens of microseconds) is the reason a
//! region must hold milliseconds of work: a session's per-frame stages
//! (~50 µs each at six users) are plain loops, and sessions run in
//! parallel with one another instead. See `DESIGN.md` §5 for the rules
//! and the list of regions.
//!
//! Nested parallel regions do not oversubscribe: a `par_map` issued from
//! inside a worker runs serially on that worker.
//!
//! Because workers are scoped threads, their thread-local destructors run
//! before the region's `join()` returns — [`crate::obs`] relies on this
//! to flush each worker's metric sink into the global registry by the
//! time `par_map` hands results back to the caller.
//!
//! ```
//! use volcast_util::par;
//!
//! let squares = par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let mut slots = vec![10u64; 3];
//! par::par_for_each_mut(&mut slots, |i, x| *x += i as u64);
//! assert_eq!(slots, vec![10, 11, 12]);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker budget; 0 means "not resolved yet".
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `true` while this thread is a worker inside a parallel region.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// The worker budget for parallel regions.
///
/// Resolved lazily on first use: `VOLCAST_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (falling back
/// to 1). The resolved value is process-wide and stable afterwards; tests
/// and benches may override it with [`set_thread_count`].
pub fn thread_count() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = std::env::var("VOLCAST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    // Racing initializers compute the same value unless the env changed
    // mid-race; first store wins either way, keeping the budget stable.
    let _ = THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    THREADS.load(Ordering::Relaxed)
}

/// Overrides the worker budget (clamped to at least 1).
///
/// Intended for tests and benches that compare thread counts in-process;
/// production code should use the `VOLCAST_THREADS` environment variable.
pub fn set_thread_count(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Equivalent to `items.iter().map(f).collect()` — same values, same
/// order — computed through [`par_for_each_mut`] over one result slot per
/// item, so it shares that function's blocks and panic propagation.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    par_for_each_mut(&mut slots, |i, slot| *slot = Some(f(&items[i])));
    slots
        .into_iter()
        .map(|slot| slot.expect("par_map: worker skipped an item"))
        .collect()
}

/// Applies `f` to every item of `items` **in place**, in parallel: the one
/// scheduler of this module ([`par_map`] runs on it too), for pre-allocated
/// slots such as a GOP's per-worker codec arenas, each owning its scratch
/// and its run of output buffers.
///
/// Work is split into contiguous blocks of `ceil(n / workers)` items, one
/// block per scoped worker, so each slot is touched by exactly one thread
/// and no result collection or copying happens. Determinism follows the
/// module contract: `f` must be a pure function of `(index, item)`, and
/// then the final slot states are independent of the worker budget —
/// blocking only decides *who* runs an item, never *what* it computes.
/// Nested calls from inside a parallel region run serially on the calling
/// worker. A panic in `f` reaches the caller after every worker has been
/// joined, as the first panicking worker's own payload.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = thread_count().min(n);
    if workers <= 1 || IN_PARALLEL_REGION.with(Cell::get) {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let block = n.div_ceil(workers);
    let f = &f;
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (items.chunks_mut(block).enumerate())
            .map(|(b, run)| {
                scope.spawn(move || {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    for (j, item) in run.iter_mut().enumerate() {
                        f(b * block + j, item);
                    }
                })
            })
            .collect();
        // Every handle is joined here, not by `scope`, which would re-raise
        // a generic message in place of the first worker's payload.
        (handles.into_iter()).fold(None, |first, handle| first.or(handle.join().err()))
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The worker budget is process-global and these tests both set it
    /// and assert on it, while the harness runs them concurrently: every
    /// test that touches the knob holds this lock.
    pub(crate) fn knob_lock() -> MutexGuard<'static, ()> {
        static KNOB: Mutex<()> = Mutex::new(());
        KNOB.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn par_map_matches_serial_map() {
        let _knob = knob_lock();
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for threads in [1, 2, 4, 8] {
            set_thread_count(threads);
            assert_eq!(par_map(&items, |&x| x.wrapping_mul(x) ^ 7), serial);
        }
        set_thread_count(4);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _knob = knob_lock();
        set_thread_count(4);
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn par_for_each_mut_matches_serial_at_every_thread_count() {
        let _knob = knob_lock();
        let serial: Vec<u64> = (0..257u64).map(|x| x.wrapping_mul(x) ^ 7).collect();
        for threads in [1, 2, 4, 8] {
            set_thread_count(threads);
            let mut items: Vec<u64> = (0..257).collect();
            par_for_each_mut(&mut items, |i, x| {
                assert_eq!(i as u64, *x);
                *x = x.wrapping_mul(*x) ^ 7;
            });
            assert_eq!(items, serial, "threads={threads}");
        }
        set_thread_count(4);
    }

    #[test]
    fn par_for_each_mut_empty_and_singleton() {
        let _knob = knob_lock();
        set_thread_count(4);
        let mut empty: Vec<u32> = Vec::new();
        par_for_each_mut(&mut empty, |_, _| unreachable!());
        let mut one = vec![5u32];
        par_for_each_mut(&mut one, |i, x| *x += i as u32 + 1);
        assert_eq!(one, vec![6]);
    }

    #[test]
    fn par_for_each_mut_nested_runs_serially() {
        let _knob = knob_lock();
        set_thread_count(4);
        let outer: Vec<u32> = (0..8).collect();
        let out = par_map(&outer, |&x| {
            let mut inner: Vec<u32> = (0..4).collect();
            par_for_each_mut(&mut inner, |_, y| {
                assert!(IN_PARALLEL_REGION.with(Cell::get));
                *y += x * 10;
            });
            inner.iter().sum::<u32>()
        });
        let expect: Vec<u32> = (0..8).map(|x| 4 * (x * 10) + 6).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_for_each_mut_panics_propagate() {
        let _knob = knob_lock();
        set_thread_count(4);
        let mut items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for_each_mut(&mut items, |_, x| {
                if *x == 33 {
                    panic!("boom at {x}");
                }
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 33"), "unexpected payload {msg}");
    }

    #[test]
    fn panics_propagate_to_caller() {
        let _knob = knob_lock();
        set_thread_count(4);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                if x == 33 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 33"), "unexpected payload {msg}");
    }

    #[test]
    fn nested_regions_run_serially_and_correctly() {
        let _knob = knob_lock();
        set_thread_count(4);
        let outer: Vec<u32> = (0..8).collect();
        let out = par_map(&outer, |&x| {
            assert!(thread_count() > 1);
            // The nested region must take the serial path on this worker.
            let inner: Vec<u32> = (0..4).collect();
            let nested = par_map(&inner, |&y| {
                assert!(IN_PARALLEL_REGION.with(Cell::get));
                x * 10 + y
            });
            nested.iter().sum::<u32>()
        });
        let expect: Vec<u32> = (0..8).map(|x| 4 * (x * 10) + 6).collect();
        assert_eq!(out, expect);
        // Back on the caller: not inside a region anymore.
        assert!(!IN_PARALLEL_REGION.with(Cell::get));
    }

    #[test]
    fn regions_are_reusable_and_budget_is_stable() {
        let _knob = knob_lock();
        set_thread_count(3);
        for round in 0..20 {
            let items: Vec<usize> = (0..50).collect();
            let out = par_map(&items, |&x| x + round);
            assert_eq!(out[49], 49 + round);
            assert_eq!(thread_count(), 3);
        }
        set_thread_count(4);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        let _knob = knob_lock();
        assert!(thread_count() >= 1);
        set_thread_count(0); // clamped
        assert_eq!(thread_count(), 1);
        set_thread_count(4);
    }
}
