//! Branchless batch-inference kernel over the flattened
//! [`FlatForest`] layout.
//!
//! The walker ([`crate::Tree::predict`]) descends one row through one
//! tree at a time: every level is a data-dependent branch (`x <= t`,
//! ~50/50 and unpredictable by construction — good splits maximize
//! information) followed by a dependent pointer chase. The kernel
//! replaces that with one of two branch-free schedules, chosen once
//! per forest at layout-build time:
//!
//! - **QuickScorer bitvector scoring** (primary) when every tree has
//!   ≤ 32 leaves — the paper configuration trains exactly 32-leaf
//!   trees, so this is the path the D*-labeling workload rides.
//! - **Rank-quantized predicated descent** (fallback) for forests
//!   with at least one wider tree.
//!
//! Both produce bit-identical `f64` output to the walker; the
//! differential-oracle suite (`tests/kernel_oracle.rs`) pins each path
//! separately.
//!
//! ## QuickScorer bitvector scoring
//!
//! The restructuring of Lucchese et al. (SIGIR'15), by the same group
//! as the GEF paper, turned inside-out: instead of asking "which path
//! does this row take?", ask "which leaves does this row *rule out*?"
//!
//! Per tree, a `u32` bitvector holds one bit per leaf in left-to-right
//! (in-order) order, initialized all-ones. An internal node whose
//! condition `x[f] <= t` is FALSE rules out every leaf of its *left*
//! subtree — a contiguous bit span under in-order numbering, cleared
//! with one precomputed AND-mask. After all false conditions are
//! applied, the exit leaf is the lowest surviving bit
//! (`trailing_zeros`). The crucial inversion: grouping the masks *by
//! feature* and sorting each group by threshold makes the set of false
//! conditions for feature `f` exactly the prefix of that group with
//! `t < x[f]` — found by the same branchless `rank` binary search
//! the descent path uses (NaN ranks past every threshold, so NaN
//! applies the whole group and routes right, like the walker). The
//! per-tree work collapses to "AND a few masks", with no per-node
//! traversal at all.
//!
//! Mask application is lane-parallel: sub-blocks of [`QS_SUB`] rows
//! share one walk of each feature's entry stream, and each tree's 16
//! bitvectors sit in one 64-byte-aligned stripe (one cache line), so
//! one entry's lanes are one line. A lane past its own cutoff keeps its
//! bits, which visits ~8× fewer entries than per-lane walks on the
//! paper forest. The loops come in three tiers, picked at run time (the
//! build stays baseline x86-64) by private proof tokens that only
//! detection makes:
//!
//! - **AVX-512** (AVX-512F and AVX-512CD): per entry, one lane compare
//!   of the cutoffs against the entry's index into a mask register and
//!   one merge-masked AND of the stripe; the finalize finds all 16 exit
//!   slots at once and gathers their leaf values.
//! - **AVX2**: per entry, the same lanes in two 256-bit halves (compare,
//!   OR the identity into the mask of lanes past their cutoff, AND);
//!   scalar finalize.
//! - **Scalar**: each lane walks its own prefix; scalar finalize.
//!
//! Each SIMD tier runs a whole sub-block's application in one call,
//! looping over the features itself, and walks each feature's whole
//! entry list rather than stopping at the sub-block's largest cutoff:
//! on `D*` the largest of 16 cutoffs is close to the list's end, and a
//! trip count fixed per feature keeps the loop exits predictable (see
//! DESIGN.md "Inference kernel"). Finalize reads slot-aligned leaf
//! payloads (`leaf_value`, `leaf_depth1` in the layout's QS tables)
//! indexed directly by the exit slot — no node→code→dictionary chain.
//!
//! ## Two rank sources
//!
//! Both paths start a block by filling each row's per-feature ranks;
//! that fill is the only step that depends on where the rows come
//! from, so the kernel body is generic over a rank source and
//! everything after the fill is one body:
//!
//! - **Rows** (`&[Vec<f64>]`, every `predict_*` entry point): the
//!   branchless binary search `rank` per (row, feature) cell, clamped
//!   to the feature's entry count on the QS path.
//! - **Domain codes** (`D*`, through [`crate::Forest::domain_labeler`]):
//!   every `D*` cell is one of its feature's domain values, so each
//!   domain value's cutoff is computed once per `D*` into one flat
//!   code→cutoff table, and the fill reads it row by row, in the order
//!   the codes are stored. The table holds the clamped rank, the cutoff
//!   the QS fill computes from the value itself, so both sources give
//!   identical cutoffs and the labels are bit-identical; descent
//!   compares it against node ranks below the clamp, so it routes as
//!   the unclamped rank would.
//!
//! ## Rank-quantized predicated descent (wide-tree fallback)
//!
//! Restructures the walker's computation four ways:
//!
//! 1. **Rank quantization + mask select** — each row's feature values
//!    are ranked once per block against the per-feature threshold
//!    tables (see [`crate::layout`]), so a descent step is two loads
//!    (packed 16-byte node record, one u32 rank) and a mask select —
//!    no branch, no `f64` threshold gather, no row-pointer chase:
//!    ```text
//!    c    = xr[r·nf + feat]                   // precomputed rank of x
//!    m    = ((c <= rank) as u32).wrapping_neg() // all-ones / all-zeros
//!    next = (left & m) | (right & !m)
//!    ```
//!    `rank(x) <= rank(t)  ⟺  x <= t` for the finite thresholds the
//!    layout admits, NaN ranks `u32::MAX` (compares false, routes
//!    right), and a misprediction never flushes the pipeline.
//! 2. **Level-synchronous row blocks** — [`ROW_BLOCK`] rows descend one
//!    tree *together*, one level per pass over the block. Each row's
//!    chain of dependent loads is independent of its neighbours', so
//!    the out-of-order core overlaps ~[`ROW_BLOCK`] cache misses
//!    instead of stalling on one, and the fixed-trip inner loop unrolls
//!    with no cross-row state. Leaves self-loop (see [`crate::layout`]),
//!    so no row needs a per-row `is_leaf` branch: a parked row cheaply
//!    recomputes `next == i`. (A compacting active-list variant — pay
//!    only `Σ leaf_depth` steps instead of marching parked rows — was
//!    measured *slower* here: the serial append counter and pair
//!    traffic cost more ILP than the skipped steps bought.)
//! 3. **Deepest-reached early exit** — leaf-wise trees are deeply
//!    imbalanced (max depth ~2.5× the mean leaf depth on the paper
//!    forest), so one XOR+OR per row folds "did any row move this
//!    pass" into a register and the tree exits after the block's
//!    deepest *reached* leaf rather than the tree's max depth. Pass 0
//!    is additionally fused: all rows sit at the root, so the root
//!    record is loaded once outside the loop.
//! 4. **Tree blocks** — trees are pre-grouped (at build time, in
//!    [`FlatForest`]) into runs of ≤ [`TREE_BLOCK_NODES`] nodes, ~64 KiB
//!    of 16-byte hot records. All rows of a block traverse one tree
//!    block before the next is touched, so each block's nodes are
//!    pulled through the cache once per [`ROW_BLOCK`] rows instead of
//!    once per row.
//!
//! ## Determinism
//!
//! Neither path reorders arithmetic. Mask application is pure integer
//! work (order-independent by commutativity of `&`), and each row
//! keeps a private `f64` accumulator folded in global tree order —
//! descent visits tree blocks and trees within a block in order, QS
//! finalize adds each row's exit leaf tree by tree (the AVX-512 tier 16
//! rows at a time, one lane each) — so both compute
//! `((0.0 + t0(x)) + t1(x)) + …`, the exact fold of the
//! walker's `trees.iter().map(..).sum::<f64>()`, then
//! `base + scale * Σ` and the objective transform, in that order. The
//! three tiers compute identical bitvectors and exit slots, so the tier
//! never changes output either. Rows are embarrassingly
//! parallel, so gef-par's fixed [`gef_par::chunk_ranges`] boundaries
//! (a pure function of the batch length) only decide *which worker*
//! computes a row, never *how*. Predictions are therefore bit-identical
//! to the recursive walker at any thread count — the property the
//! differential-oracle suite (`tests/kernel_oracle.rs`) asserts, and
//! `every_tier_labels_as_the_walker` for each tier separately.
//!
//! ## Safety
//!
//! The descent loops and the SIMD tiers use unchecked indexing; the
//! scalar QuickScorer tier, the tests' reference, indexes with checks.
//! Every index is closed over by [`FlatForest::build`]'s validation:
//! child indices stay inside the node arrays (self-loops included),
//! leaf-value dictionary codes are dense by construction, and internal
//! features are `< num_features`, so `r·nf + feat` stays inside the
//! per-block rank table. The rank fill reads rows and codes with
//! checked indexing, so a row narrower than the forest or a code
//! outside its domain panics there, like the walker. On the QS path,
//! cutoffs are clamped to each feature's entry count, entries are read
//! through their feature's slice, entry `tree` halves index the
//! one-stripe-per-tree array built from the same trees, and each exit
//! slot is clamped to `leaf_count − 1` before the slot-aligned payload
//! read or gather — each tree keeps ≥ 1 surviving leaf by the
//! QuickScorer exit-leaf theorem, and the clamp keeps the read in
//! bounds even without it. The SIMD loops run only behind their
//! detection tokens.

use crate::layout::{FlatForest, QsTables};
use crate::LabelScale;

/// Rows descending one tree together. 64 rows × (4 B state + 8 B
/// pointer + 8 B accumulator) of per-row descent state stays in
/// registers/L1 while giving the core ~64 independent load chains.
pub const ROW_BLOCK: usize = 64;

/// Tree-block budget in nodes: 4096 × 16 B hot record ≈ 64 KiB,
/// sized to overflow L1 but sit comfortably in L2 while the row block
/// re-walks it.
pub const TREE_BLOCK_NODES: usize = 4096;

/// Labels of every row of `xs` on `scale`, plus the node visits the
/// walker would have counted ([`LabelScale::Counted`]; 0 otherwise).
/// The kernel does not count during traversal: a row's visits are its
/// exit leaf's stored root-to-leaf path length (`depth1`).
///
/// Infallible and serial: cooperative deadline checks and gef-par
/// dispatch live in [`crate::Forest::predict_batch`].
///
/// # Panics
/// If any row is shorter than the layout's `num_features`, matching the
/// walker's out-of-bounds panic on short rows.
///
/// ```
/// use gef_forest::{kernel, Forest, LabelScale, Node, Objective, Tree};
///
/// let tree = Tree {
///     nodes: vec![
///         Node::split(0, 0.5, 1, 2, 1.0, 4),
///         Node::leaf(-2.0, 2),
///         Node::leaf(2.0, 2),
///     ],
/// };
/// let forest = Forest::new(vec![tree], 0.25, 1.0, Objective::BinaryLogistic, 1);
/// let flat = forest.flattened().expect("valid forest flattens");
/// let xs = vec![vec![0.2], vec![0.8]];
/// let (raw, _) = kernel::predict(&flat, &xs, LabelScale::Raw);
/// assert_eq!(raw, vec![-1.75, 2.25]);
/// // Bitwise-identical to the recursive walker:
/// let (probs, visits) = kernel::predict(&flat, &xs, LabelScale::Counted);
/// assert_eq!(probs[1], forest.predict(&xs[1]));
/// assert_eq!(visits, 4); // root and one leaf per row
/// ```
pub fn predict(flat: &FlatForest, xs: &[Vec<f64>], scale: LabelScale) -> (Vec<f64>, u64) {
    let mut out = vec![0.0; xs.len()];
    let visited = chunk(flat, &Rows(xs), 0, &mut out, scale);
    (out, visited)
}

/// The kernel over one output chunk: `out[k]` receives the label of
/// row `start + k` of `src` on `scale`. Returns the chunk's
/// walker-equivalent node-visit count for [`LabelScale::Counted`], 0
/// otherwise.
pub(crate) fn chunk<S: Ranks>(
    flat: &FlatForest,
    src: &S,
    start: usize,
    out: &mut [f64],
    scale: LabelScale,
) -> u64 {
    SCRATCH.with_borrow_mut(|scratch| match scale {
        LabelScale::Raw => chunk_impl::<false, false, S>(flat, src, start, out, scratch),
        LabelScale::Response => chunk_impl::<true, false, S>(flat, src, start, out, scratch),
        LabelScale::Counted => chunk_impl::<true, true, S>(flat, src, start, out, scratch),
    })
}

/// The kernel's working arrays, kept per thread and reused by every
/// chunk the thread labels, so a pool region over 64 chunks allocates
/// once per worker rather than once per chunk. Every array is refilled
/// before it is read.
#[derive(Default)]
struct Scratch {
    /// Descent: the row block's feature ranks, `xr[r · nf + f]`.
    xr: Vec<u32>,
    /// QuickScorer: the sub-block's cutoffs, one stripe per feature.
    cuts: Vec<Stripe>,
    /// QuickScorer: the sub-block's leaf bitvectors, one stripe per tree.
    bv: Vec<Stripe>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// `v` resized to `len`, every element `fill`.
fn refill<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) -> &mut [T] {
    v.clear();
    v.resize(len, fill);
    v
}

/// Rank of `x` in a sorted threshold table: `#{t : t < x}`, so
/// `rank(x) <= rank(t)  ⟺  x <= t` (see [`crate::layout`] for the
/// proof obligations). NaN ranks `u32::MAX`: it compares false against
/// every node rank and routes right, like the walker's `x <= t`.
///
/// Branchless binary search. The probe's outcome is a coin flip on the
/// paper workload's near-uniform feature draws, so a branch on it
/// would mispredict about half the time; `select_unpredictable` asks
/// for a conditional move instead, and the compares are the same.
#[inline]
fn rank(table: &[f64], x: f64) -> u32 {
    if x.is_nan() {
        return u32::MAX;
    }
    let mut base = 0usize;
    let mut n = table.len();
    while n > 1 {
        let half = n / 2;
        // SAFETY: base + half - 1 < base + n <= table.len() holds on
        // entry and is preserved: base grows by half only as n shrinks
        // by half.
        let probe = unsafe { *table.get_unchecked(base + half - 1) };
        base = std::hint::select_unpredictable(probe < x, base + half, base);
        n -= half;
    }
    let last = table.get(base).is_some_and(|&t| t < x);
    (base + usize::from(last)) as u32
}

/// Where the kernel reads each row's feature ranks from. The rank fill
/// at the top of every row block is the only step that differs between
/// labelling `f64` rows and labelling domain codes; mask application,
/// descent and finalize are one body for both.
pub(crate) trait Ranks: Sync {
    /// Descent: rank of row `r`'s feature `f` in `table`, feature `f`'s
    /// sorted descent thresholds.
    fn rank(&self, r: usize, f: usize, table: &[f64]) -> u32;

    /// QuickScorer: lane `rl` of `cuts[f]` receives row `first + rl`'s
    /// cutoff for feature `f` (its rank among `qs`'s entries for `f`,
    /// clamped to their count) for `rl < sn`; lanes from `sn` on hold 0.
    fn cutoffs(&self, qs: &QsTables, first: usize, sn: usize, cuts: &mut [Stripe]);
}

/// Ranks searched for in materialized `f64` rows.
pub(crate) struct Rows<'a>(pub(crate) &'a [Vec<f64>]);

impl Ranks for Rows<'_> {
    #[inline]
    fn rank(&self, r: usize, f: usize, table: &[f64]) -> u32 {
        rank(table, self.0[r][f])
    }

    fn cutoffs(&self, qs: &QsTables, first: usize, sn: usize, cuts: &mut [Stripe]) {
        // Feature-major, so each entry list is searched while hot and
        // the independent search chains overlap.
        for (f, lanes) in cuts.iter_mut().enumerate() {
            let table = qs.thresholds(f);
            let len = table.len() as u32;
            *lanes = Stripe::ZERO;
            for (lane, x) in lanes.0.iter_mut().zip(&self.0[first..first + sn]) {
                *lane = rank(table, x[f]).min(len);
            }
        }
    }
}

/// One flat code→cutoff table for one layout and one set of sampling
/// domains: feature `f`'s code `k` maps to `cuts[base + k]`, with
/// `(base, len) = spans[f]` and `len` the domain's size. The entry is
/// [`rank`] of `domains[f][k]` in feature `f`'s table — the QS entry
/// table when the layout has one, else the descent threshold table —
/// clamped to that table's length, which is the QS cutoff the kernel
/// would compute from the value itself. Descent compares the clamped
/// rank against node ranks below the length, so it routes as the
/// unclamped one (NaN's `u32::MAX` included) would. An empty domain
/// stands for the constant 0.0 at code 0.
#[derive(Debug, Default)]
pub(crate) struct CodeTables {
    spans: Vec<(usize, usize)>,
    cuts: Vec<u32>,
}

impl CodeTables {
    /// The table for `domains` (one per feature of `flat`) against `flat`.
    pub(crate) fn build(flat: &FlatForest, domains: &[Vec<f64>]) -> CodeTables {
        let mut tables = CodeTables::default();
        for (f, dom) in domains.iter().enumerate() {
            let table = match &flat.qs {
                Some(qs) => qs.thresholds(f),
                None => {
                    &flat.ft_values[flat.ft_offsets[f] as usize..flat.ft_offsets[f + 1] as usize]
                }
            };
            // Table lengths fit u32: the layout indexes both with u32.
            let len = table.len() as u32;
            let base = tables.cuts.len();
            if dom.is_empty() {
                tables.cuts.push(rank(table, 0.0).min(len));
            } else {
                tables
                    .cuts
                    .extend(dom.iter().map(|&v| rank(table, v).min(len)));
            }
            tables.spans.push((base, tables.cuts.len() - base));
        }
        tables
    }

    /// The cutoff of code `k` of the feature whose span is `(base, len)`.
    ///
    /// # Panics
    /// If `k` is outside the feature's domain.
    #[inline]
    fn cut(&self, (base, len): (usize, usize), k: usize) -> u32 {
        if k >= len {
            code_out_of_range(k, len);
        }
        self.cuts[base + k]
    }
}

/// The panic of a code outside its domain, kept out of the fill loop.
#[cold]
#[inline(never)]
fn code_out_of_range(k: usize, len: usize) -> ! {
    panic!("domain code {k} out of range for a domain of {len} values")
}

/// Rows given as domain codes: row `r`'s feature `f` is domain value
/// `codes[r · nf + f]` of `domains[f]`, row-major over the `nf =
/// domains.len()` features, an empty domain standing for 0.0 at code 0.
/// The kernel reads each cell's cutoff from `tables`, which are empty
/// when the rows are walked instead.
pub(crate) struct Codes<'a, C> {
    pub(crate) codes: &'a [C],
    pub(crate) domains: &'a [Vec<f64>],
    pub(crate) tables: &'a CodeTables,
}

impl<C: Copy + Into<u32>> Codes<'_, C> {
    #[inline]
    fn code(&self, r: usize, f: usize) -> usize {
        self.codes[r * self.domains.len() + f].into() as usize
    }

    /// Row `r`'s feature values, written into `row`.
    pub(crate) fn row_into(&self, r: usize, row: &mut Vec<f64>) {
        row.clear();
        row.extend(self.domains.iter().enumerate().map(|(f, dom)| {
            let k = self.code(r, f);
            if dom.is_empty() && k == 0 {
                0.0
            } else {
                dom[k]
            }
        }));
    }
}

impl<C: Copy + Into<u32> + Sync> Ranks for Codes<'_, C> {
    #[inline]
    fn rank(&self, r: usize, f: usize, _table: &[f64]) -> u32 {
        self.tables.cut(self.tables.spans[f], self.code(r, f))
    }

    fn cutoffs(&self, _qs: &QsTables, first: usize, sn: usize, cuts: &mut [Stripe]) {
        if sn < QS_SUB {
            cuts.fill(Stripe::ZERO);
        }
        let nf = self.domains.len();
        if nf == 0 {
            return;
        }
        // Row-major, the order the codes are stored in: each row's codes
        // are one sequential read, and the spans and the table stay hot.
        let rows = &self.codes[first * nf..(first + sn) * nf];
        for (row, rl) in rows.chunks_exact(nf).zip(0..QS_SUB) {
            for ((lanes, &code), &span) in cuts.iter_mut().zip(row).zip(&self.tables.spans) {
                lanes.0[rl] = self.tables.cut(span, code.into() as usize);
            }
        }
    }
}

/// The blocked descent. `TRANSFORM` applies the objective's inverse
/// link; `COUNTED` accumulates walker-equivalent node visits (constant
/// generics so the two cold features cost nothing when off).
fn chunk_impl<const TRANSFORM: bool, const COUNTED: bool, S: Ranks>(
    flat: &FlatForest,
    src: &S,
    start: usize,
    out: &mut [f64],
    scratch: &mut Scratch,
) -> u64 {
    // Forests whose trees all fit a 32-bit leaf mask (the paper trains
    // 32-leaf trees) take the QuickScorer bitvector path: streaming
    // mask ANDs instead of per-node descent. Wider trees descend.
    if let Some(qs) = flat.qs.as_ref() {
        let tier = Tier::detect();
        return qs_impl::<TRANSFORM, COUNTED, S>(flat, qs, src, start, out, scratch, tier);
    }
    let nf = flat.num_features;
    let mut visited = 0u64;
    // Per-block feature-rank table: xr[r * nf + f] is the rank of row
    // r's feature f among that feature's split thresholds (u32::MAX for
    // NaN, which therefore compares false against every node rank and
    // routes right — the walker's NaN behaviour). Refilled per block.
    let xr = refill(&mut scratch.xr, ROW_BLOCK * nf, 0);
    let mut block_start = 0usize;
    while block_start < out.len() {
        let bn = ROW_BLOCK.min(out.len() - block_start);
        let first = start + block_start;
        // Rank every row's feature values once; each descent step below
        // is then a pure u32 compare with no f64 gather. Feature-major
        // so each table is searched (or each code table read) while hot.
        for f in 0..nf {
            let lo = flat.ft_offsets[f] as usize;
            let hi = flat.ft_offsets[f + 1] as usize;
            let table = &flat.ft_values[lo..hi];
            for r in 0..bn {
                xr[r * nf + f] = src.rank(first + r, f, table);
            }
        }

        let mut acc = [0.0f64; ROW_BLOCK];
        let mut idx = [0u32; ROW_BLOCK];
        for &(t0, t1) in &flat.tree_blocks {
            for t in t0 as usize..t1 as usize {
                let root = flat.roots[t];
                let levels = flat.depth[t] as usize;
                // Single-leaf trees (levels == 0) skip descent: every
                // row is already parked at the root, and skipping also
                // keeps the level passes from touching the leaf's dummy
                // `feat = 0` — with an all-leaf forest nf may be 0 and
                // the rows zero-width. (Any tree with a split forces
                // nf >= 1, so reading a leaf's feature 0 in a level
                // pass below is always in bounds.)
                if levels == 0 {
                    idx[..bn].fill(root);
                } else {
                    // Pass 0 is fused: every row starts at the root, so
                    // the root record is loaded once, outside the loop.
                    // SAFETY: root is a validated in-range node; r < bn
                    // and feat < nf bound the reads/writes exactly as
                    // in the main pass below.
                    let rn = unsafe { *flat.nodes.get_unchecked(root as usize) };
                    for r in 0..bn {
                        unsafe {
                            let c = *xr.get_unchecked(r * nf + rn.feat as usize);
                            let m = u32::wrapping_neg(u32::from(c <= rn.thr_code));
                            *idx.get_unchecked_mut(r) = (rn.left & m) | (rn.right & !m);
                        }
                    }
                    // Level-synchronous passes over the whole block:
                    // every iteration is independent (no cross-row
                    // state), so LLVM unrolls freely and the core
                    // overlaps ~bn dependent-load chains. Parked rows
                    // recompute their self-loop; one XOR+OR per row
                    // folds "did anyone move" into a register so the
                    // tree exits after its deepest *reached* leaf, not
                    // its max depth.
                    for _ in 1..levels {
                        let mut moved = 0u32;
                        for r in 0..bn {
                            // SAFETY: idx holds validated node indices
                            // (children stay in-range, leaves
                            // self-loop); node ranks compare against xr
                            // entries at r·nf + feat < bn·nf (feat < nf
                            // by layout validation).
                            unsafe {
                                let i = *idx.get_unchecked(r);
                                let node = *flat.nodes.get_unchecked(i as usize);
                                let c = *xr.get_unchecked(r * nf + node.feat as usize);
                                // NaN ranks u32::MAX -> compares false
                                // -> mask 0 -> right, matching the
                                // walker's `x <= t`.
                                let m = u32::wrapping_neg(u32::from(c <= node.thr_code));
                                let next = (node.left & m) | (node.right & !m);
                                moved |= next ^ i;
                                *idx.get_unchecked_mut(r) = next;
                            }
                        }
                        if moved == 0 {
                            break;
                        }
                    }
                }
                for r in 0..bn {
                    // SAFETY: same invariants as the descent loop.
                    unsafe {
                        let i = *idx.get_unchecked(r) as usize;
                        let o = *flat.out_code.get_unchecked(i) as usize;
                        *acc.get_unchecked_mut(r) += *flat.leaf_values.get_unchecked(o);
                        if COUNTED {
                            visited += u64::from(*flat.depth1.get_unchecked(i));
                        }
                    }
                }
            }
        }
        for r in 0..bn {
            let raw = flat.base_score + flat.scale * acc[r];
            out[block_start + r] = if TRANSFORM {
                flat.objective.transform(raw)
            } else {
                raw
            };
        }
        block_start += bn;
    }
    visited
}

/// Rows scored together on the QuickScorer path: one 64-byte stripe of
/// lanes. The SIMD tiers apply each entry to all lanes at once (a lane
/// past its own cutoff keeps its bits), so one walk of the entry stream
/// serves 16 rows instead of one walk per row (~8× fewer entry visits
/// on the paper forest). The sub-block's bitvectors (trees × 64 B) stay
/// L1-resident, and the finalize keeps QS_SUB independent accumulator
/// chains, so the (determinism-mandated) serial f64 adds of one row
/// pipeline behind its neighbours' instead of stalling.
pub const QS_SUB: usize = 16;

/// [`QS_SUB`] `u32` lanes on one 64-byte cache line: a sub-block's
/// cutoffs for one feature, or its leaf bitvectors for one tree. The
/// AVX-512 tier reads and writes a stripe as one aligned 512-bit
/// vector and the AVX2 tier as two aligned halves, so no access splits
/// across two lines.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Stripe(pub(crate) [u32; QS_SUB]);

impl Stripe {
    const ZERO: Stripe = Stripe([0; QS_SUB]);
    const ONES: Stripe = Stripe([!0; QS_SUB]);
}

/// Proof that AVX2 runs on this machine: only [`Avx2::detect`] makes
/// one, at run time, as the build targets baseline x86-64, so safe code
/// cannot pick the AVX2 loop where it would fault.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Avx2(());

impl Avx2 {
    fn detect() -> Option<Avx2> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }
}

/// Proof that AVX-512F and AVX-512CD run on this machine (F for the
/// masked AND and the gathers, CD for the finalize's lane-wise
/// `lzcnt`): only [`Avx512::detect`] makes one.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Avx512(());

impl Avx512 {
    fn detect() -> Option<Avx512> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512cd") {
            return Some(Avx512(()));
        }
        None
    }
}

/// The QuickScorer loops a labelling runs. A SIMD tier holds its token,
/// so only detection selects it, and the tests force a lower tier by
/// passing one. Every tier computes the same bitvectors and the same
/// per-row fold, so the tier never changes a label.
#[derive(Clone, Copy)]
enum Tier {
    /// Each lane's own entry prefix, and a lane-by-lane finalize.
    Scalar,
    /// All 16 lanes per entry in two 256-bit halves; scalar finalize.
    Avx2(Avx2),
    /// One masked 512-bit AND per entry, and the gathered finalize.
    Avx512(Avx512),
}

impl Tier {
    /// The widest tier this machine runs.
    fn detect() -> Tier {
        if let Some(t) = Avx512::detect() {
            return Tier::Avx512(t);
        }
        match Avx2::detect() {
            Some(t) => Tier::Avx2(t),
            None => Tier::Scalar,
        }
    }
}

/// The QuickScorer bitvector path (see [`crate::layout::QsTables`]).
///
/// Per sub-block of [`QS_SUB`] rows: fill each row's cutoff per
/// feature — its rank among the feature's threshold-sorted entries, the
/// count of its false split conditions (`t < x`), which form a prefix
/// of the list — then AND each entry's mask into its tree's stripe in
/// the lanes whose cutoff covers it (the SIMD tiers stream each
/// feature's entries once for all lanes). The exit leaf of every tree
/// is the lowest surviving bit. No per-node pointer chases: the inner
/// loops read one sequential `u64` array and read-modify-write one
/// cache line per entry.
///
/// Determinism: on every tier each row's leaf values accumulate in
/// global tree order, the exact walker fold; NaN features rank
/// `u32::MAX`, clamp to the full entry list (every condition false),
/// and so route right at every split like the walker.
fn qs_impl<const TRANSFORM: bool, const COUNTED: bool, S: Ranks>(
    flat: &FlatForest,
    qs: &QsTables,
    src: &S,
    start: usize,
    out: &mut [f64],
    scratch: &mut Scratch,
    tier: Tier,
) -> u64 {
    let cuts = refill(&mut scratch.cuts, flat.num_features, Stripe::ZERO);
    let bv = refill(&mut scratch.bv, flat.roots.len(), Stripe::ONES);
    let mut visited = 0u64;
    let mut sub = 0usize;
    while sub < out.len() {
        let sn = QS_SUB.min(out.len() - sub);
        src.cutoffs(qs, start + sub, sn, cuts);
        // All-ones start: bits at or above a tree's leaf count are
        // never cleared (masks only cover real leaves), and the
        // finalize never reads past the tree's leaf range. Parked lanes
        // (rl >= sn) have cutoff 0: they stay all-ones and are never
        // output or counted.
        bv.fill(Stripe::ONES);
        match tier {
            // SAFETY: an `Avx512` exists only where AVX-512F and
            // AVX-512CD were detected; `bv` holds one stripe per tree of
            // `qs`, and `cuts` one per feature.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512(_) => unsafe { x86::apply_avx512(qs, cuts, bv) },
            // SAFETY: an `Avx2` exists only where AVX2 was detected;
            // `bv` and `cuts` as above.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2(_) => unsafe { x86::apply_avx2(qs, cuts, bv) },
            _ => apply_scalar(qs, cuts, bv),
        }
        let mut acc = [0.0f64; QS_SUB];
        visited += match tier {
            // SAFETY: an `Avx512` exists only where AVX-512F and
            // AVX-512CD were detected; `bv` holds one stripe per tree
            // of `qs`.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512(_) => unsafe { x86::finalize_avx512::<COUNTED>(qs, bv, sn, &mut acc) },
            _ => finalize_scalar::<COUNTED>(qs, bv, sn, &mut acc),
        };
        for (o, &a) in out[sub..sub + sn].iter_mut().zip(&acc) {
            let raw = flat.base_score + flat.scale * a;
            *o = if TRANSFORM {
                flat.objective.transform(raw)
            } else {
                raw
            };
        }
        sub += sn;
    }
    visited
}

/// Scalar entry application: for each feature, walk each lane's own
/// cutoff prefix of the feature's entries, ANDing each mask into the
/// lane of the entry's tree stripe. Parked lanes hold cutoff 0 and do
/// no work.
///
/// Every cutoff in `cuts` is at most its feature's entry count (the
/// fill clamps it), and `bv` holds one stripe per tree of `qs`; the
/// indexing is checked, so a caller breaking either panics.
fn apply_scalar(qs: &QsTables, cuts: &[Stripe], bv: &mut [Stripe]) {
    for (f, lanes) in cuts.iter().enumerate() {
        let ent = qs.entries(f);
        for (rl, &c) in lanes.0.iter().enumerate() {
            for &p in &ent[..c as usize] {
                bv[p as u32 as usize].0[rl] &= (p >> 32) as u32;
            }
        }
    }
}

/// Scalar finalize: per tree, each live lane's exit slot is its lowest
/// surviving bit, clamped to the tree's last slot; the slot's leaf value
/// is added to the lane's accumulator (and its depth to the visits).
/// Returns the visits for `COUNTED`, else 0.
///
/// The exit leaf always survives (false conditions only clear subtrees
/// the walker did not enter), so the lowest set bit is a real leaf
/// slot; the clamp keeps the read in range even if it were not.
fn finalize_scalar<const COUNTED: bool>(
    qs: &QsTables,
    bv: &[Stripe],
    sn: usize,
    acc: &mut [f64; QS_SUB],
) -> u64 {
    let mut visited = 0u64;
    for (t, stripe) in bv.iter().enumerate() {
        let loff = qs.leaf_offsets[t] as usize;
        let cnt = qs.leaf_offsets[t + 1] as usize - loff;
        let values = &qs.leaf_value[loff..loff + cnt];
        let depths = &qs.leaf_depth1[loff..loff + cnt];
        for (a, &word) in acc.iter_mut().zip(&stripe.0).take(sn) {
            let slot = (word.trailing_zeros() as usize).min(cnt - 1);
            *a += values[slot];
            if COUNTED {
                visited += u64::from(depths[slot]);
            }
        }
    }
    visited
}

/// The SIMD tiers. Each applies the same entries to the same lanes as
/// [`apply_scalar`] and adds the same leaf values in the same order as
/// [`finalize_scalar`]; only the number of instructions changes.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{QsTables, Stripe, QS_SUB};
    use std::arch::x86_64::*;

    /// One entry's tree id and mask, read as two `u32` words of its
    /// packed `u64` (`mask << 32 | tree`; x86-64 is little-endian), so
    /// the mask can be broadcast straight from memory.
    ///
    /// # Safety
    /// `i` must index `ent`.
    #[inline(always)]
    unsafe fn entry(ent: &[u64], i: usize) -> (usize, *const i32) {
        // SAFETY: entry i is 8 bytes inside `ent`, its low word the tree
        // id and its high word the mask.
        unsafe {
            let words = ent.as_ptr().add(i).cast::<u32>();
            (*words as usize, words.add(1).cast::<i32>())
        }
    }

    /// AVX2 entry application: each feature's whole entry list, each
    /// entry applied to all 16 lanes in two 256-bit halves. A lane
    /// whose cutoff is at most the entry's index ORs all-ones into the
    /// mask, so it keeps its bits.
    ///
    /// # Safety
    /// AVX2 must be available, `cuts` must hold one stripe per feature
    /// of `qs` (cutoffs at most `i32::MAX`, as the layout keeps entry
    /// counts) and `bv` one per tree.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn apply_avx2(qs: &QsTables, cuts: &[Stripe], bv: &mut [Stripe]) {
        let one = _mm256_set1_epi32(1);
        let bvp = bv.as_mut_ptr();
        for (f, lanes) in cuts.iter().enumerate() {
            let ent = qs.entries(f);
            let cut = lanes.0.as_ptr().cast::<__m256i>();
            // SAFETY: a stripe is 64 aligned bytes, two aligned halves.
            let (cut_lo, cut_hi) =
                unsafe { (_mm256_load_si256(cut), _mm256_load_si256(cut.add(1))) };
            // k + 1 for entry k: `k + 1 > cut` marks the lanes past
            // their prefix. The signed compare is exact, as k + 1 and
            // the cutoffs are at most i32::MAX.
            let mut k1 = one;
            for i in 0..ent.len() {
                // SAFETY: i indexes `ent`; its tree id is below bv.len()
                // (build_qs_tables numbers the forest's trees), so the
                // stripe and both of its aligned halves are inside `bv`.
                unsafe {
                    let (t, mask) = entry(ent, i);
                    let mask = _mm256_set1_epi32(*mask);
                    let keep_lo = _mm256_or_si256(mask, _mm256_cmpgt_epi32(k1, cut_lo));
                    let keep_hi = _mm256_or_si256(mask, _mm256_cmpgt_epi32(k1, cut_hi));
                    let stripe = bvp.add(t).cast::<__m256i>();
                    let lo = _mm256_and_si256(_mm256_load_si256(stripe), keep_lo);
                    let hi = _mm256_and_si256(_mm256_load_si256(stripe.add(1)), keep_hi);
                    _mm256_store_si256(stripe, lo);
                    _mm256_store_si256(stripe.add(1), hi);
                }
                k1 = _mm256_add_epi32(k1, one);
            }
        }
    }

    /// AVX-512 entry application: each feature's whole entry list; per
    /// entry, one lane compare of the cutoffs against the entry's index
    /// into a mask register and one merge-masked AND of the tree's
    /// stripe.
    ///
    /// # Safety
    /// AVX-512F must be available, `cuts` must hold one stripe per
    /// feature of `qs` and `bv` one per tree.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn apply_avx512(qs: &QsTables, cuts: &[Stripe], bv: &mut [Stripe]) {
        let one = _mm512_set1_epi32(1);
        let bvp = bv.as_mut_ptr();
        for (f, lanes) in cuts.iter().enumerate() {
            let ent = qs.entries(f);
            // SAFETY: a stripe is one aligned 64-byte vector.
            let cut = unsafe { _mm512_load_si512(lanes.0.as_ptr().cast()) };
            let mut k = _mm512_setzero_si512();
            for i in 0..ent.len() {
                // Lanes whose cutoff covers entry k take its mask; the
                // others keep their bits.
                let live = _mm512_cmpgt_epu32_mask(cut, k);
                // SAFETY: i indexes `ent`; its tree id is below bv.len()
                // (build_qs_tables numbers the forest's trees), so the
                // stripe is one aligned vector inside `bv`.
                unsafe {
                    let (t, mask) = entry(ent, i);
                    let mask = _mm512_set1_epi32(*mask);
                    let stripe = bvp.add(t).cast::<__m512i>();
                    let cur = _mm512_load_si512(stripe);
                    _mm512_store_si512(stripe, _mm512_mask_and_epi32(cur, live, cur, mask));
                }
                k = _mm512_add_epi32(k, one);
            }
        }
    }

    /// AVX-512 finalize: per tree, all 16 exit slots at once, then the
    /// 16 leaf values gathered and added to 16 lane accumulators, tree
    /// by tree. `31 − lzcnt(w & −w)` is the index of `w`'s lowest set
    /// bit, and `−1` (above every slot as `u32`) for `w = 0`; the
    /// unsigned `min` with `cnt − 1` then gives
    /// `trailing_zeros(w).min(cnt − 1)` in every case. Each lane adds
    /// one value per tree in tree order, so every row keeps the scalar
    /// fold `((0 + t₀) + t₁) + …` bit for bit. `COUNTED` gathers the
    /// slots' depths in the live lanes (`rl < sn`) only and returns
    /// their sum, else 0.
    ///
    /// # Safety
    /// AVX-512F and AVX-512CD must be available, `bv` must hold one
    /// stripe per tree of `qs`, and `sn <= QS_SUB`.
    #[target_feature(enable = "avx512f,avx512cd")]
    pub(super) unsafe fn finalize_avx512<const COUNTED: bool>(
        qs: &QsTables,
        bv: &[Stripe],
        sn: usize,
        acc: &mut [f64; QS_SUB],
    ) -> u64 {
        let zero = _mm512_setzero_si512();
        let top = _mm512_set1_epi32(31);
        let live = ((1u32 << sn) - 1) as __mmask16;
        let (mut lo, mut hi) = (_mm512_setzero_pd(), _mm512_setzero_pd());
        // Per lane, the depths of one row's exit leaves: at most the
        // total node count, which the layout keeps within u32.
        let mut visits = zero;
        for (t, stripe) in bv.iter().enumerate() {
            let loff = qs.leaf_offsets[t] as usize;
            // Every validated tree has at least one leaf, so this does
            // not wrap.
            let last = qs.leaf_offsets[t + 1] - qs.leaf_offsets[t] - 1;
            // SAFETY: a stripe is one aligned 64-byte vector. The
            // unsigned min bounds every slot by `last`, so each gathered
            // index loff + slot is below leaf_offsets[t + 1], which
            // build_qs_tables sets to leaf_value.len() after tree t's
            // leaves; leaf_depth1 has one entry per leaf value.
            unsafe {
                let w = _mm512_load_si512(stripe.0.as_ptr().cast());
                let low = _mm512_and_si512(w, _mm512_sub_epi32(zero, w));
                let slot = _mm512_sub_epi32(top, _mm512_lzcnt_epi32(low));
                let slot = _mm512_min_epu32(slot, _mm512_set1_epi32(last as i32));
                let values = qs.leaf_value.as_ptr().add(loff);
                let first8 = _mm512_castsi512_si256(slot);
                let last8 = _mm512_extracti64x4_epi64::<1>(slot);
                lo = _mm512_add_pd(lo, _mm512_i32gather_pd::<8>(first8, values));
                hi = _mm512_add_pd(hi, _mm512_i32gather_pd::<8>(last8, values));
                if COUNTED {
                    let depths = qs.leaf_depth1.as_ptr().add(loff).cast::<i32>();
                    let d = _mm512_mask_i32gather_epi32::<4>(zero, live, slot, depths);
                    visits = _mm512_add_epi32(visits, d);
                }
            }
        }
        // SAFETY: `acc` holds 16 f64.
        unsafe {
            _mm512_storeu_pd(acc.as_mut_ptr(), lo);
            _mm512_storeu_pd(acc.as_mut_ptr().add(8), hi);
        }
        if !COUNTED {
            return 0;
        }
        let mut lanes = [0u32; QS_SUB];
        // SAFETY: `lanes` holds 16 u32.
        unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), visits) };
        lanes.iter().map(|&v| u64::from(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Forest, Node, Objective, Tree};
    use gef_trace::rng::Rng;

    fn forest() -> Forest {
        let t0 = Tree {
            nodes: vec![
                Node::split(0, 0.5, 1, 2, 5.0, 100),
                Node::split(1, 0.25, 3, 4, 2.0, 60),
                Node::leaf(3.0, 40),
                Node::leaf(1.0, 25),
                Node::leaf(2.0, 35),
            ],
        };
        let t1 = Tree {
            nodes: vec![
                Node::split(1, 0.75, 1, 2, 4.0, 100),
                Node::leaf(0.5, 50),
                Node::leaf(-2.0, 50),
            ],
        };
        Forest::new(vec![t0, t1], 0.5, 1.0, Objective::RegressionL2, 2)
    }

    #[test]
    fn kernel_matches_walker_bitwise() {
        let forest = forest();
        let flat = forest.flattened().expect("valid forest flattens");
        let xs: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i % 17) as f64 / 16.0, (i % 5) as f64 / 4.0])
            .collect();
        let (raw, _) = predict(&flat, &xs, LabelScale::Raw);
        let (resp, _) = predict(&flat, &xs, LabelScale::Response);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(raw[i].to_bits(), forest.predict_raw(x).to_bits());
            assert_eq!(resp[i].to_bits(), forest.predict(x).to_bits());
        }
    }

    #[test]
    fn counted_matches_walker_visits() {
        let forest = forest();
        let flat = forest.flattened().expect("valid forest flattens");
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 13) as f64 / 12.0, (i % 7) as f64 / 6.0])
            .collect();
        let (resp, visited) = predict(&flat, &xs, LabelScale::Counted);
        let mut want_visits = 0u64;
        for (i, x) in xs.iter().enumerate() {
            let (raw, n) = forest.predict_raw_counted(x);
            want_visits += n;
            assert_eq!(resp[i].to_bits(), forest.objective.transform(raw).to_bits());
        }
        assert_eq!(visited, want_visits);
    }

    #[test]
    fn nan_features_route_right_like_walker() {
        let forest = forest();
        let flat = forest.flattened().expect("valid forest flattens");
        let xs = vec![
            vec![f64::NAN, 0.1],
            vec![0.1, f64::NAN],
            vec![f64::NAN, f64::NAN],
        ];
        let raw = predict(&flat, &xs, LabelScale::Raw).0;
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(raw[i].to_bits(), forest.predict_raw(x).to_bits());
        }
    }

    /// The tiers this machine runs, scalar first, each with its name.
    /// A tier the machine lacks is skipped, and the skip is named.
    fn tiers() -> Vec<(&'static str, Tier)> {
        let mut tiers = vec![("scalar", Tier::Scalar)];
        match Avx2::detect() {
            Some(t) => tiers.push(("AVX2", Tier::Avx2(t))),
            None => eprintln!("no AVX2 on this machine: skipping the AVX2 tier"),
        }
        match Avx512::detect() {
            Some(t) => tiers.push(("AVX-512F+CD", Tier::Avx512(t))),
            None => eprintln!("no AVX-512F+CD on this machine: skipping the AVX-512 tier"),
        }
        tiers
    }

    /// A threshold or cell value from a small pool, so rows often sit
    /// exactly on a threshold (`x <= t` is true there).
    fn pooled(rng: &mut Rng) -> f64 {
        f64::from(rng.below(16) as u32) / 8.0 - 0.5
    }

    /// A tree with exactly `leaves` leaves: a leaf, split at random
    /// leaves until it has that many.
    fn tree_with_leaves(rng: &mut Rng, nf: usize, leaves: usize) -> Tree {
        let mut nodes = vec![Node::leaf(0.25, 1)];
        let mut open = vec![0usize];
        while open.len() < leaves {
            let i = open.swap_remove(rng.below(open.len() as u64) as usize);
            let left = nodes.len() as u32;
            let value = |rng: &mut Rng| f64::from(rng.next_u64() as u16 as i16) / 100.0;
            nodes.push(Node::leaf(value(rng), 1));
            nodes.push(Node::leaf(value(rng), 1));
            let feature = rng.below(nf as u64) as usize;
            nodes[i] = Node::split(feature, pooled(rng), left, left + 1, 1.0, 2);
            open.extend([left as usize, left as usize + 1]);
        }
        Tree { nodes }
    }

    /// Case `seed`'s forest: 1 to 6 features and 2 to 13 trees of 1 to
    /// 32 leaves, the last tree exactly 32; every leaf count appears
    /// across the cases.
    fn seeded_forest(seed: u64) -> Forest {
        let mut rng = Rng::seed(seed);
        let nf = 1 + rng.below(6) as usize;
        let trees = 2 + rng.below(12) as usize;
        let trees = (0..trees)
            .map(|t| {
                let leaves = if t + 1 == trees {
                    32
                } else {
                    1 + (t * 7 + seed as usize * 5) % 32
                };
                tree_with_leaves(&mut rng, nf, leaves)
            })
            .collect();
        let objective = if seed.is_multiple_of(2) {
            Objective::RegressionL2
        } else {
            Objective::BinaryLogistic
        };
        Forest::new(trees, 0.125, 1.0, objective, nf)
    }

    /// Labels `n` rows of `src` through `qs_impl` on `tier`, in two
    /// calls split at `split`, so both calls end on a sub-block tail.
    fn qs_labels<S: Ranks>(
        flat: &FlatForest,
        src: &S,
        n: usize,
        split: usize,
        scale: LabelScale,
        tier: Tier,
    ) -> (Vec<u64>, u64) {
        let qs = flat
            .qs
            .as_ref()
            .expect("trees of at most 32 leaves build QS tables");
        let mut out = vec![0.0; n];
        let mut scratch = Scratch::default();
        let (head, rest) = out.split_at_mut(split);
        let mut visited = 0;
        for (start, part) in [(0, head), (split, rest)] {
            let s = &mut scratch;
            visited += match scale {
                LabelScale::Raw => qs_impl::<false, false, _>(flat, qs, src, start, part, s, tier),
                LabelScale::Response => {
                    qs_impl::<true, false, _>(flat, qs, src, start, part, s, tier)
                }
                LabelScale::Counted => {
                    qs_impl::<true, true, _>(flat, qs, src, start, part, s, tier)
                }
            };
        }
        (out.iter().map(|v| v.to_bits()).collect(), visited)
    }

    /// The walker's labels and visits on `scale`.
    fn walker_labels(forest: &Forest, xs: &[Vec<f64>], scale: LabelScale) -> (Vec<u64>, u64) {
        let mut visits = 0;
        let labels = xs
            .iter()
            .map(|x| match scale {
                LabelScale::Raw => forest.predict_raw(x),
                LabelScale::Response => forest.predict(x),
                LabelScale::Counted => {
                    let (raw, n) = forest.predict_raw_counted(x);
                    visits += n;
                    forest.objective.transform(raw)
                }
            })
            .map(f64::to_bits)
            .collect();
        (labels, visits)
    }

    /// Every QuickScorer tier the machine runs — AVX-512F+CD, AVX2 and
    /// scalar, each forced by passing its token — labels bit for bit as
    /// the walker does, visit totals included, on the raw, response and
    /// counted scales. Seeded forests of 1 to 32 leaves per tree (each
    /// with one 32-leaf tree), on `f64` rows with NaN cells and on `u16`
    /// and `u32` codes over domains holding NaN, values on and between
    /// the thresholds, and empty domains; every batch ends on a
    /// sub-block tail, 1 to 15 rows across the cases.
    #[test]
    fn every_tier_labels_as_the_walker() {
        let tiers = tiers();
        let scales = [LabelScale::Raw, LabelScale::Response, LabelScale::Counted];
        for seed in 0..30u64 {
            let forest = seeded_forest(seed);
            let flat = forest.flattened().expect("valid forest flattens");
            let nf = forest.num_features;
            let mut rng = Rng::seed(seed ^ 0x5eed);
            let tail = 1 + seed as usize % 15;
            let n = QS_SUB * (1 + seed as usize % 5) + tail;
            let split = QS_SUB + 1 + seed as usize % (QS_SUB - 1);
            let split = split.min(n);

            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..nf)
                        .map(|_| match rng.below(10) {
                            0 => f64::NAN,
                            1 => pooled(&mut rng) + 1.0 / 16.0,
                            _ => pooled(&mut rng),
                        })
                        .collect()
                })
                .collect();
            let domains: Vec<Vec<f64>> = (0..nf)
                .map(|f| {
                    if f == (seed as usize) % (nf + 1) {
                        return Vec::new();
                    }
                    let len = 1 + rng.below(12) as usize;
                    (0..len)
                        .map(|k| match k % 5 {
                            4 => f64::NAN,
                            3 => pooled(&mut rng) - 1.0 / 32.0,
                            _ => pooled(&mut rng),
                        })
                        .collect()
                })
                .collect();
            let tables = CodeTables::build(&flat, &domains);
            let picks: Vec<usize> = (0..n * nf)
                .map(|i| rng.below(domains[i % nf].len().max(1) as u64) as usize)
                .collect();
            let coded_rows: Vec<Vec<f64>> = picks
                .chunks(nf)
                .map(|row| {
                    row.iter()
                        .zip(&domains)
                        .map(|(&k, dom)| dom.get(k).copied().unwrap_or(0.0))
                        .collect()
                })
                .collect();
            let u16s: Vec<u16> = picks.iter().map(|&k| k as u16).collect();
            let u32s: Vec<u32> = picks.iter().map(|&k| k as u32).collect();
            let by_u16 = Codes {
                codes: &u16s,
                domains: &domains,
                tables: &tables,
            };
            let by_u32 = Codes {
                codes: &u32s,
                domains: &domains,
                tables: &tables,
            };

            for scale in scales {
                let rows_want = walker_labels(&forest, &xs, scale);
                let codes_want = walker_labels(&forest, &coded_rows, scale);
                for &(name, tier) in &tiers {
                    let case = format!("seed {seed}, {name}, {scale:?}");
                    let rows = qs_labels(&flat, &Rows(&xs), n, split, scale, tier);
                    assert_eq!(rows, rows_want, "rows: {case}");
                    let got16 = qs_labels(&flat, &by_u16, n, split, scale, tier);
                    assert_eq!(got16, codes_want, "u16 codes: {case}");
                    let got32 = qs_labels(&flat, &by_u32, n, split, scale, tier);
                    assert_eq!(got32, codes_want, "u32 codes: {case}");
                }
            }
        }
        let names: Vec<&str> = tiers.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "QuickScorer tiers matching the walker: {}",
            names.join(", ")
        );
    }

    /// Trees wider than 32 leaves get no QS tables and descend instead;
    /// the descent must stay bitwise-faithful to the walker.
    #[test]
    fn wide_leaf_tree_skips_qs_and_descends_bitwise() {
        // Right-spine chain: 40 splits, 41 leaves.
        let mut nodes = Vec::new();
        for i in 0..40u32 {
            nodes.push(Node::split(
                0,
                i as f64 / 40.0,
                2 * i + 1,
                2 * i + 2,
                1.0,
                41 - i,
            ));
            nodes.push(Node::leaf(i as f64 / 10.0, 1));
        }
        nodes.push(Node::leaf(9.0, 1));
        let forest = Forest::new(vec![Tree { nodes }], 0.0, 1.0, Objective::RegressionL2, 1);
        let flat = forest.flattened().expect("wide tree flattens");
        assert!(flat.qs.is_none(), "41-leaf tree must not build QS tables");
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![(i as f64 - 50.0) / 120.0]).collect();
        let raw = predict(&flat, &xs, LabelScale::Raw).0;
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(raw[i].to_bits(), forest.predict_raw(x).to_bits());
        }
    }

    #[test]
    fn short_row_panics_like_walker() {
        let forest = forest();
        let flat = forest.flattened().expect("valid forest flattens");
        let result = std::panic::catch_unwind(|| predict(&flat, &[vec![0.5]], LabelScale::Raw).0);
        assert!(result.is_err(), "1-wide row into a 2-feature forest");
    }

    #[test]
    fn empty_batch_and_single_leaf_forest() {
        let forest = forest();
        let flat = forest.flattened().expect("valid forest flattens");
        assert!(predict(&flat, &[], LabelScale::Raw).0.is_empty());

        let stub = Forest::new(
            vec![Tree::constant(1.5, 3)],
            0.25,
            2.0,
            Objective::RegressionL2,
            0,
        );
        let flat = stub.flattened().expect("single leaf flattens");
        // Zero-feature rows are fine: depth 0 means no feature access.
        let raw = predict(&flat, &[vec![], vec![]], LabelScale::Raw).0;
        assert_eq!(raw, vec![3.25, 3.25]);
        let (_, visited) = predict(&flat, &[vec![]], LabelScale::Counted);
        assert_eq!(visited, 1, "walker visits exactly the root leaf");
    }
}
