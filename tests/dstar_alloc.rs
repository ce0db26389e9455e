//! `D*` is kept as domain codes: `gef_core::generate` allocates its code
//! buffer and its labels once, two bytes a cell and eight bytes a label,
//! and never one `Vec` per row. This guards against rows of `f64`
//! coming back on the explain path.
//!
//! The binary runs under gef-trace's tracking allocator, and its
//! counters are process-global, so this file holds exactly one test
//! function:
//!
//! ```text
//! cargo test --features alloc-track --test dstar_alloc
//! ```

#![cfg(feature = "alloc-track")]

use gef::core::generate::{build_domains, generate};
use gef::core::selection::ForestProfile;
use gef::prelude::*;
use gef::trace::mem::{self, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Rows `generate` draws and labels together.
const BLOCK_ROWS: usize = 4096;

/// Most allocations one block may add: the block's two spans and its
/// pool dispatch, not anything per row.
const ALLOCS_PER_BLOCK: u64 = 16;

#[test]
fn generate_allocates_codes_not_rows() {
    assert!(mem::tracking());
    gef::par::set_threads(1);
    let d = 24;
    let xs: Vec<Vec<f64>> = (0..2_000)
        .map(|i| {
            (0..d)
                .map(|f| ((i * (f + 3) + f) % 97) as f64 / 97.0)
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x[0] + x[1] * x[2] - (4.0 * x[3]).sin() + x[d - 1])
        .collect();
    let forest = GbdtTrainer::new(GbdtParams {
        num_trees: 60,
        num_leaves: 16,
        learning_rate: 0.2,
        min_data_in_leaf: 5,
        ..Default::default()
    })
    .fit(&xs, &ys)
    .expect("training succeeds");
    let profile = ForestProfile::analyze(&forest);
    let selected: Vec<usize> = (0..d).collect();
    let domains =
        build_domains(&profile, &selected, SamplingStrategy::AllThresholds).expect("domains build");
    let measure = |n: usize| {
        let before = mem::stats();
        let dstar = generate(&forest, &domains, n, false, 2).expect("D* generates");
        let after = mem::stats();
        assert_eq!(dstar.len(), n);
        (
            after.allocs - before.allocs,
            after.bytes_allocated - before.bytes_allocated,
        )
    };
    let n = 4 * BLOCK_ROWS;
    // The first run caches the forest's layout and grows the kernel's
    // per-thread scratch; only later runs are measured.
    measure(n);
    let (allocs_n, bytes_n) = measure(n);
    let (allocs_2n, bytes_2n) = measure(2 * n);

    // Twice the rows: a few allocations more for each extra block,
    // where one `Vec` per row would add `n`.
    let blocks = (n / BLOCK_ROWS) as u64;
    assert!(
        allocs_2n - allocs_n <= blocks * ALLOCS_PER_BLOCK,
        "{allocs_n} allocations at {n} rows, {allocs_2n} at {}",
        2 * n
    );
    // Each extra row: its codes and its label, plus a little per extra
    // block; rows of `f64` would take `d · 8` bytes and a `Vec` header
    // each.
    let per_row = (bytes_2n - bytes_n) as f64 / n as f64;
    let want = (d * 2 + 8) as f64;
    assert!(
        (want..want * 1.25).contains(&per_row),
        "{per_row:.1} bytes per row, want about {want} (d = {d})"
    );
}
