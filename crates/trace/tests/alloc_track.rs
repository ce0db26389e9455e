//! The tracking allocator end to end: this test binary runs under
//! `mem::TrackingAlloc`, so every allocation goes through the hooks.
//!
//! The counters are process-global, so this file holds exactly one test
//! function: a second test running in parallel would disturb the deltas.
//!
//! ```text
//! cargo test -p gef-trace --features alloc-track --test alloc_track
//! ```

#![cfg(feature = "alloc-track")]

use gef_trace::hist::NUM_BUCKETS;
use gef_trace::mem::{self, TrackingAlloc};
use gef_trace::metrics::{Outcome, SloWindow, MAX_WINDOW_SECS};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

#[test]
fn tracking_allocator_feeds_counters() {
    assert!(mem::tracking());
    let before = mem::stats();
    let v: Vec<u8> = Vec::with_capacity(1 << 20);
    let after = mem::stats();
    drop(v);
    assert!(after.allocs > before.allocs);
    assert!(after.bytes_allocated - before.bytes_allocated >= 1 << 20);
    assert!(after.peak_bytes >= after.in_use_bytes);
    let freed = mem::stats();
    assert!(freed.bytes_freed - before.bytes_freed >= 1 << 20);

    // An idle SLO window holds no bucket arrays: one allocation, the
    // slot ring, far below the 300 × 2 KB that eager arrays would take.
    let bucket_bytes = (NUM_BUCKETS * std::mem::size_of::<u64>()) as u64;
    let before = mem::stats();
    let window = SloWindow::new();
    let after = mem::stats();
    assert_eq!(
        after.allocs - before.allocs,
        1,
        "SloWindow::new allocates the ring only"
    );
    assert!(after.bytes_allocated - before.bytes_allocated < MAX_WINDOW_SECS * bucket_bytes / 10);

    // The first latency in a slot allocates that slot's buckets, once.
    let before = mem::stats();
    window.record_at(7, Outcome::Ok, Some(1_500));
    window.record_at(7, Outcome::Ok, Some(2_500));
    let after = mem::stats();
    assert_eq!(after.allocs - before.allocs, 1);
    assert_eq!(after.bytes_allocated - before.bytes_allocated, bucket_bytes);
    assert_eq!(window.summary_at(7, 60).latency_count, 2);
}
