//! Allocation counters and the instrumented allocator that feeds them.
//!
//! Four relaxed atomics (allocation count, bytes allocated, bytes
//! currently in use, peak in use) live here, below every other crate,
//! so [`crate::Span`] can attribute allocation deltas to span paths and
//! [`crate::Telemetry::snapshot`] can surface totals as gauges. With the
//! `alloc-track` feature, `TrackingAlloc` wraps [`std::alloc::System`]
//! and counts every allocation; a binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: gef_trace::mem::TrackingAlloc = gef_trace::mem::TrackingAlloc;
//! ```
//!
//! and profiled runs (`GEF_PROF`, see [`crate::timeline`]) then also get
//! a `heap.in_use_bytes` counter track in the chrome trace.
//!
//! Without the allocator installed (the default), every counter stays
//! zero, [`tracking`] reports `false`, and no span or snapshot records
//! any `mem.*` metric: the module is dormant and outputs are identical
//! to a build without it.
//!
//! The hooks themselves never allocate and never lock: they are safe to
//! call from inside a global allocator.

#[cfg(feature = "alloc-track")]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static BYTES_FREED: AtomicU64 = AtomicU64::new(0);
static IN_USE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Point-in-time view of the allocation counters (all process-wide,
/// counted since the tracking allocator was installed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Number of allocations.
    pub allocs: u64,
    /// Number of deallocations.
    pub frees: u64,
    /// Total bytes ever allocated.
    pub bytes_allocated: u64,
    /// Total bytes ever freed.
    pub bytes_freed: u64,
    /// Bytes currently allocated and not yet freed.
    pub in_use_bytes: u64,
    /// High-water mark of [`MemStats::in_use_bytes`].
    pub peak_bytes: u64,
}

/// Record one allocation of `size` bytes. Called by the tracking
/// allocator; allocation-free and lock-free.
#[inline]
pub fn on_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES_ALLOCATED.fetch_add(size, Ordering::Relaxed);
    let now = IN_USE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Record one deallocation of `size` bytes. Called by the tracking
/// allocator; allocation-free and lock-free.
#[inline]
pub fn on_dealloc(size: usize) {
    let size = size as u64;
    FREES.fetch_add(1, Ordering::Relaxed);
    BYTES_FREED.fetch_add(size, Ordering::Relaxed);
    // With the allocator installed from process start every dealloc
    // matches a counted alloc; saturate anyway so a mismatch can never
    // wrap the gauge.
    let _ = IN_USE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(size))
    });
}

/// Whether an instrumented allocator is feeding these counters.
///
/// Heuristic but exact in practice: the Rust runtime allocates before
/// `main`, so a process with the tracking allocator installed has a
/// nonzero allocation count by the time any instrumentation runs.
#[inline]
pub fn tracking() -> bool {
    ALLOCS.load(Ordering::Relaxed) != 0
}

/// Current counter values.
pub fn stats() -> MemStats {
    MemStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
        bytes_freed: BYTES_FREED.load(Ordering::Relaxed),
        in_use_bytes: IN_USE.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    }
}

/// Instrumented global allocator: forwards to [`System`] and counts
/// every allocation into this module's counters.
///
/// Install per binary (see the module docs). Overhead is a handful of
/// relaxed atomic adds per alloc/dealloc, measurable on
/// allocation-heavy hot loops; leave the feature off for timing runs.
///
/// [`System`]: std::alloc::System
#[cfg(feature = "alloc-track")]
pub struct TrackingAlloc;

// SAFETY: delegates every operation to System and only adds
// allocation-free, lock-free counter updates around the calls.
#[cfg(feature = "alloc-track")]
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count as free(old) + alloc(new) so byte totals and the
            // in-use gauge stay exact.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share process-global counters with nothing else (no
    // tracking allocator is installed in the gef-trace test binary), so
    // they drive the hooks directly and only assert on deltas.

    #[test]
    fn hooks_accumulate_and_track_peak() {
        let before = stats();
        on_alloc(1000);
        on_alloc(500);
        on_dealloc(1000);
        let after = stats();
        assert_eq!(after.allocs - before.allocs, 2);
        assert_eq!(after.frees - before.frees, 1);
        assert_eq!(after.bytes_allocated - before.bytes_allocated, 1500);
        assert_eq!(after.bytes_freed - before.bytes_freed, 1000);
        assert!(after.peak_bytes >= before.in_use_bytes + 1500);
        assert!(tracking());
    }
}
