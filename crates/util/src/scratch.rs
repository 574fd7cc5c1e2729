//! Reusable scratch buffers: the allocation-free steady-state substrate.
//!
//! The frame data path (synthetic frame generation → codec → session loop)
//! runs the same shapes of work every frame at 30 FPS. Allocating fresh
//! `Vec`s per frame turns that steady state into allocator traffic — page
//! faults, zeroing, and cache churn that scale with user count. This module
//! provides the primitive the workspace uses to keep per-frame allocations
//! at **zero after warm-up**: [`ScratchVec`], a named, owned buffer that is
//! cleared (capacity retained) at the start of each use and remembers its
//! high-watermark length. Stateful hot-path structs (`codec::Encoder`, the
//! session loop) hold these as fields.
//!
//! It reports its high watermark through a [`crate::obs`] gauge (merged by
//! maximum, so totals are thread-count-invariant) under the name given at
//! construction — by convention `<layer>.scratch.<buffer>`. When tracing is
//! off the reporting costs one relaxed atomic load.
//!
//! The **zero steady-state allocation** contract is pinned by tests using
//! the [`counting`] global allocator: warm the loop up once, snapshot
//! [`counting::allocations`], run N more iterations, and assert the count
//! did not move.
//!
//! ```
//! use volcast_util::scratch::ScratchVec;
//!
//! let mut points: ScratchVec<u32> = ScratchVec::new("doc.scratch.points");
//! for frame in 0..3u32 {
//!     let buf = points.begin(); // cleared, capacity retained
//!     buf.extend(0..frame * 100);
//! }
//! assert!(points.get().len() == 200); // last use's contents still readable
//! ```

use crate::obs;

/// A named reusable buffer: cleared at [`ScratchVec::begin`], capacity
/// retained across uses, high-watermark length tracked and reported.
#[derive(Debug)]
pub struct ScratchVec<T> {
    /// Gauge name reported to [`obs`] (convention: `layer.scratch.buf`).
    name: &'static str,
    buf: Vec<T>,
    high_len: usize,
}

impl<T> ScratchVec<T> {
    /// Creates an empty scratch buffer reporting under `name`.
    pub fn new(name: &'static str) -> Self {
        ScratchVec {
            name,
            buf: Vec::new(),
            high_len: 0,
        }
    }

    /// Starts a new use: records the previous use's length into the high
    /// watermark (and the `obs` gauge), clears the buffer, and returns it.
    /// The capacity — and therefore the steady-state allocation-freedom —
    /// is retained.
    #[inline]
    pub fn begin(&mut self) -> &mut Vec<T> {
        self.high_len = self.high_len.max(self.buf.len());
        if obs::enabled() {
            obs::gauge(self.name, self.high_len.max(self.buf.len()) as f64);
        }
        self.buf.clear();
        &mut self.buf
    }

    /// The current contents (the last use's data, until the next `begin`).
    #[inline]
    pub fn get(&self) -> &[T] {
        &self.buf
    }

    /// Mutable access to the current contents *without* clearing — for
    /// multi-pass algorithms that refill the same buffer mid-use.
    #[inline]
    pub fn get_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }

    /// Current reserved capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// A counting global allocator for pinning allocation-freedom in tests.
///
/// Install it in a test binary and assert that the allocation count does
/// not move across the steady-state region:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: volcast_util::scratch::counting::CountingAllocator =
///     volcast_util::scratch::counting::CountingAllocator;
///
/// // ... warm up ...
/// let before = volcast_util::scratch::counting::allocations();
/// // ... steady-state iterations ...
/// assert_eq!(volcast_util::scratch::counting::allocations(), before);
/// ```
///
/// The counters are process-global: such a test must run in its own test
/// binary (one `#[test]` per file, or serialized), because the harness and
/// sibling tests allocate concurrently.
pub mod counting {
    // The one `unsafe` impl in the workspace (the codec's call into its
    // AVX2 kernel copy is the one `unsafe` block): implementing
    // `GlobalAlloc` (its methods are `unsafe fn` by definition). The impl
    // only counts and forwards to `System`.
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Forwards to the system allocator, counting every allocation.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct CountingAllocator;

    // SAFETY: delegates every method to `System`, which upholds the
    // `GlobalAlloc` contract; the atomic counter updates on the side never
    // touch the returned memory or the layout.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A realloc is a fresh acquisition of memory: count it.
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Heap acquisitions so far (allocs + reallocs), process-wide.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Deallocations so far, process-wide.
    pub fn deallocations() -> u64 {
        DEALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total bytes requested so far (allocs + reallocs), process-wide.
    pub fn allocated_bytes() -> u64 {
        ALLOCATED_BYTES.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_vec_retains_capacity() {
        let mut s: ScratchVec<u64> = ScratchVec::new("test.scratch.a");
        s.begin().extend(0..500);
        assert_eq!(s.get().len(), 500);
        let cap = s.capacity();
        s.begin().extend(0..10);
        assert!(s.capacity() >= cap, "capacity must be retained");
        s.get_mut().push(99);
        assert_eq!(s.get().len(), 11);
        s.begin();
    }

    #[test]
    fn counting_allocator_counters_are_monotonic() {
        // The counting allocator is not installed in this binary (its
        // counters would race with the parallel test harness); just pin
        // that the accessors exist and never go backwards.
        let a0 = counting::allocations();
        let d0 = counting::deallocations();
        let b0 = counting::allocated_bytes();
        assert!(counting::allocations() >= a0);
        assert!(counting::deallocations() >= d0);
        assert!(counting::allocated_bytes() >= b0);
    }
}
