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
//! share one walk of each feature's entry stream, bitvectors stored
//! tree-major (`bv[t·QS_SUB + lane]`) so one entry's lanes are
//! contiguous. The stream is walked to the *maximum* cutoff of the
//! sub-block — lanes past their own cutoff AND the all-ones identity —
//! which visits ~8× fewer entries than per-lane walks on the paper
//! forest. On x86-64 with AVX2 (runtime-detected; the build stays
//! baseline x86-64) the 16 lanes are two 256-bit vectors: broadcast
//! mask, compare-gt of lane cutoffs against the entry counter, blend
//! with identity, AND — `qs_apply_avx2`. Elsewhere a row-major
//! scalar loop (`qs_apply_scalar`) applies each lane's own prefix.
//! Finalize reads slot-aligned leaf payloads (`leaf_value`,
//! `leaf_depth1` in the layout's QS tables) indexed directly by
//! `trailing_zeros` — no node→code→dictionary gather chain.
//!
//! ## Two rank sources
//!
//! Both paths start a block by filling each row's per-feature ranks;
//! that fill is the only step that depends on where the rows come
//! from, so the kernel body is generic over a rank source and
//! everything after the fill is one body:
//!
//! - **Rows** (`&[Vec<f64>]`, every `predict_*` entry point): the
//!   branchless binary search `rank` per (row, feature) cell.
//! - **Domain codes** (`D*`, through [`crate::Forest::domain_labeler`]):
//!   every `D*` cell is one of its feature's domain values, so the rank
//!   of each domain value is searched once per `D*` into a per-feature
//!   code table, and the fill reads `table[code]`. The tables hold the
//!   same unclamped rank the search returns for that value; the QS fill
//!   clamps either source's rank to the feature's entry count, so both
//!   give identical cutoffs and the labels are bit-identical.
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
//! finalize reads each row's surviving leaf tree by tree — so both
//! compute `((0.0 + t0(x)) + t1(x)) + …`, the exact fold of the
//! walker's `trees.iter().map(..).sum::<f64>()`, then
//! `base + scale * Σ` and the objective transform, in that order. The
//! AVX2 and scalar mask loops produce identical bitvectors, so SIMD
//! dispatch never changes output either. Rows are embarrassingly
//! parallel, so gef-par's fixed [`gef_par::chunk_ranges`] boundaries
//! (a pure function of the batch length) only decide *which worker*
//! computes a row, never *how*. Predictions are therefore bit-identical
//! to the recursive walker at any thread count — the property the
//! differential-oracle suite (`tests/kernel_oracle.rs`) asserts.
//!
//! ## Safety
//!
//! The hot loops use unchecked indexing. Every index is closed over by
//! [`FlatForest::build`]'s validation: child indices stay inside the
//! node arrays (self-loops included), leaf-value dictionary codes are
//! dense by construction, and internal features are `< num_features`,
//! so `r·nf + feat` stays inside the per-block rank table. The rank
//! fill reads rows, codes and code tables with checked indexing, so a
//! row narrower than the forest panics there, like the walker.
//! On the QS path, rank results are clamped to each feature's entry
//! count before use as cutoffs, entry `tree` halves index the
//! `trees`-sized bitvector array they were built from, and the exit
//! slot is clamped to `leaf_count − 1` before the slot-aligned payload
//! gather — each tree keeps ≥ 1 surviving leaf by the QuickScorer
//! exit-leaf theorem, and the clamp makes the gather in-bounds even
//! without it.

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
    match scale {
        LabelScale::Raw => chunk_impl::<false, false, S>(flat, src, start, out),
        LabelScale::Response => chunk_impl::<true, false, S>(flat, src, start, out),
        LabelScale::Counted => chunk_impl::<true, true, S>(flat, src, start, out),
    }
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
    /// Rank of row `r`'s feature `f` in `table`, feature `f`'s sorted
    /// table in the layout (QS entries or descent thresholds).
    fn rank(&self, r: usize, f: usize, table: &[f64]) -> u32;
}

/// Ranks searched for in materialized `f64` rows.
pub(crate) struct Rows<'a>(pub(crate) &'a [Vec<f64>]);

impl Ranks for Rows<'_> {
    #[inline]
    fn rank(&self, r: usize, f: usize, table: &[f64]) -> u32 {
        rank(table, self.0[r][f])
    }
}

/// Largest sampling domain the code path takes: a `u16` code holds
/// indices `0..=65_535`.
pub const MAX_CODED_DOMAIN: usize = 1 << 16;

/// Per-feature code→rank tables for one layout and one set of sampling
/// domains: `ranks[f][k]` is the rank of `domains[f][k]` in feature
/// `f`'s table — the QS entry table when the layout has one, else the
/// descent threshold table — exactly what [`rank`] returns for that
/// value. An empty domain stands for the constant 0.0 at code 0. The
/// kernel clamps a code's rank just as it clamps a searched one, so
/// both sources give the same cutoffs.
#[derive(Debug)]
pub(crate) struct CodeTables {
    ranks: Vec<Vec<u32>>,
}

impl CodeTables {
    /// Tables for `domains` against `flat`, or `None` when a domain
    /// does not fit a `u16` code or the domains do not cover the
    /// layout's features one to one.
    pub(crate) fn build(flat: &FlatForest, domains: &[Vec<f64>]) -> Option<CodeTables> {
        if domains.len() != flat.num_features || domains.iter().any(|d| d.len() > MAX_CODED_DOMAIN)
        {
            return None;
        }
        let ranks = domains
            .iter()
            .enumerate()
            .map(|(f, dom)| {
                let table = match &flat.qs {
                    Some(qs) => &qs.thr[qs.offsets[f] as usize..qs.offsets[f + 1] as usize],
                    None => {
                        &flat.ft_values
                            [flat.ft_offsets[f] as usize..flat.ft_offsets[f + 1] as usize]
                    }
                };
                if dom.is_empty() {
                    vec![rank(table, 0.0)]
                } else {
                    dom.iter().map(|&v| rank(table, v)).collect()
                }
            })
            .collect();
        Some(CodeTables { ranks })
    }
}

/// Ranks read from domain codes: row `r`'s feature `f` is domain value
/// `codes[r · nf + f]`, row-major over the layout's `nf` features.
pub(crate) struct Codes<'a> {
    pub(crate) codes: &'a [u16],
    pub(crate) tables: &'a CodeTables,
}

impl Ranks for Codes<'_> {
    #[inline]
    fn rank(&self, r: usize, f: usize, _table: &[f64]) -> u32 {
        let code = self.codes[r * self.tables.ranks.len() + f];
        self.tables.ranks[f][usize::from(code)]
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
) -> u64 {
    // Forests whose trees all fit a 32-bit leaf mask (the paper trains
    // 32-leaf trees) take the QuickScorer bitvector path: streaming
    // mask ANDs instead of per-node descent. Wider trees descend.
    if let Some(qs) = flat.qs.as_ref() {
        return qs_impl::<TRANSFORM, COUNTED, S>(flat, qs, src, start, out, qs_simd_available());
    }
    let nf = flat.num_features;
    let mut visited = 0u64;
    // Per-block feature-rank table: xr[r * nf + f] is the rank of row
    // r's feature f among that feature's split thresholds (u32::MAX for
    // NaN, which therefore compares false against every node rank and
    // routes right — the walker's NaN behaviour). One allocation per
    // chunk, refilled per block.
    let mut xr = vec![0u32; ROW_BLOCK * nf];
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

/// Rows scored together on the QuickScorer path. On the AVX2 variant
/// one entry's mask is applied to all [`QS_SUB`] lanes in a single
/// pass (two 256-bit AND+blend ops), so the entry stream is walked
/// `max(cutoff)` times per sub-block instead of `Σ cutoff` (~8× fewer
/// entry visits on the paper forest). The sub-block's bitvector
/// (trees × QS_SUB × 4 B) stays L1-resident, and the finalize loop
/// interleaves QS_SUB independent accumulator chains so the
/// (determinism-mandated) serial f64 adds of one row pipeline behind
/// its neighbours' instead of stalling.
pub const QS_SUB: usize = 16;

/// Whether the lane-parallel AVX2 entry application is available on
/// this machine (checked at runtime — the build targets baseline
/// x86-64, so the kernel stays portable and self-selects).
#[inline]
fn qs_simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Scalar entry application for one feature: walk each row's cutoff
/// prefix of the entry list, ANDing each packed mask into the row's
/// lane of the entry's tree stripe. Parked lanes hold cutoff 0 and do
/// no work.
///
/// Bounds contract (callers': see [`qs_impl`]): every
/// `cuts[rl] <= ` the feature's entry count, `lo` is the feature's
/// entry offset, and `bv` is the full `trees * QS_SUB` stripe array.
#[inline]
fn qs_apply_scalar(ent: &[u64], lo: usize, cuts: &[i32; QS_SUB], bv: &mut [u32]) {
    for (rl, &c) in cuts.iter().enumerate() {
        for k in 0..c as usize {
            // SAFETY: k < cuts[rl] <= the feature's entry count, so
            // lo + k < ent.len(); the packed tree id t < trees, so
            // t * QS_SUB + rl < bv.len().
            unsafe {
                let p = *ent.get_unchecked(lo + k);
                let t = p as u32 as usize;
                *bv.get_unchecked_mut(t * QS_SUB + rl) &= (p >> 32) as u32;
            }
        }
    }
}

/// AVX2 entry application for one feature: one pass over the entry
/// prefix `[lo, lo + cmax)` applies every entry to all [`QS_SUB`] rows
/// at once — rows whose cutoff stops earlier AND an all-ones identity
/// (`blendv` on the `k < cut` lane compare), so the per-sub-block entry
/// walk costs `max(cutoff)` visits instead of `Σ cutoff`.
///
/// # Safety
/// Caller must have verified AVX2 support, `cmax <=` the feature's
/// entry count (with `lo` its offset, so `lo + cmax <= ent.len()`),
/// packed tree ids `< trees`, and `bv` exactly `trees * QS_SUB` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qs_apply_avx2(ent: &[u64], lo: usize, cmax: usize, cuts: &[i32; QS_SUB], bv: &mut [u32]) {
    use std::arch::x86_64::*;
    // SAFETY: pointer arithmetic stays inside `ent`/`bv` per the
    // caller contract; loads/stores are unaligned-tolerant (`loadu`).
    unsafe {
        let cut_lo = _mm256_loadu_si256(cuts.as_ptr() as *const __m256i);
        let cut_hi = _mm256_loadu_si256(cuts.as_ptr().add(8) as *const __m256i);
        let ones = _mm256_set1_epi32(-1);
        let step = _mm256_set1_epi32(1);
        // k as a vector, bumped once per entry: signed compares are
        // safe because the layout keeps entry indices <= i32::MAX.
        let mut kv = _mm256_setzero_si256();
        let entp = ent.as_ptr().add(lo);
        let bvp = bv.as_mut_ptr();
        for k in 0..cmax {
            let p = *entp.add(k);
            let t = p as u32 as usize;
            let m = _mm256_set1_epi32((p >> 32) as u32 as i32);
            // Active lanes: cut > k. Parked lanes (cutoff 0) never
            // activate and keep their identity mask.
            let act_lo = _mm256_cmpgt_epi32(cut_lo, kv);
            let act_hi = _mm256_cmpgt_epi32(cut_hi, kv);
            let keep_lo = _mm256_blendv_epi8(ones, m, act_lo);
            let keep_hi = _mm256_blendv_epi8(ones, m, act_hi);
            let stripe = bvp.add(t * QS_SUB);
            let cur_lo = _mm256_loadu_si256(stripe as *const __m256i);
            let cur_hi = _mm256_loadu_si256(stripe.add(8) as *const __m256i);
            _mm256_storeu_si256(stripe as *mut __m256i, _mm256_and_si256(cur_lo, keep_lo));
            _mm256_storeu_si256(
                stripe.add(8) as *mut __m256i,
                _mm256_and_si256(cur_hi, keep_hi),
            );
            kv = _mm256_add_epi32(kv, step);
        }
    }
}

/// The QuickScorer bitvector path (see [`crate::layout::QsTables`]).
///
/// Per sub-block of [`QS_SUB`] rows: rank each row's feature values
/// against the feature's threshold-sorted entry list — the rank is the
/// row's *cutoff*, the count of false split conditions (`t < x`), which
/// form a prefix of the list — then stream the entries up to the
/// sub-block's largest cutoff once, ANDing each entry's packed mask
/// into its tree's leaf bitvector for every row whose cutoff covers it
/// (lane-predicated: parked lanes AND an identity mask). The exit leaf
/// of every tree is the lowest surviving bit. No per-node pointer
/// chases: the inner loops read one sequential `u64` array and
/// read-modify-write 16 contiguous lanes per visit.
///
/// Determinism: each row's leaf values accumulate in global tree order,
/// the exact walker fold; NaN features rank `u32::MAX`, clamp to the
/// full entry list (every condition false), and so route right at every
/// split like the walker.
/// The SIMD dispatch is explicit (`allow_simd`), so tests can force the
/// scalar application path on machines where detection would pick AVX2
/// (both must be bitwise-identical to the walker).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn qs_impl<const TRANSFORM: bool, const COUNTED: bool, S: Ranks>(
    flat: &FlatForest,
    qs: &QsTables,
    src: &S,
    start: usize,
    out: &mut [f64],
    allow_simd: bool,
) -> u64 {
    let nf = flat.num_features;
    let trees = flat.roots.len();
    let mut visited = 0u64;
    // Sub-block state, allocated once per chunk: feature-major cutoff
    // lanes (cutt[f][rl]; parked lanes hold 0 and never match) and the
    // transposed per-(tree, row) bitvectors (bv[t * QS_SUB + rl] —
    // tree-major, so one entry's QS_SUB lanes are one contiguous line).
    let mut cutt = vec![[0i32; QS_SUB]; nf];
    let mut bv = vec![0u32; trees * QS_SUB];
    let mut sub = 0usize;
    while sub < out.len() {
        let sn = QS_SUB.min(out.len() - sub);
        let first = start + sub;
        // Rank once per sub-block, feature-major so each entry list is
        // searched (or each code table read) while hot and the
        // independent search chains overlap.
        for (f, lanes) in cutt.iter_mut().enumerate() {
            let lo = qs.offsets[f] as usize;
            let hi = qs.offsets[f + 1] as usize;
            let table = &qs.thr[lo..hi];
            let len = table.len() as u32;
            *lanes = [0; QS_SUB];
            for (rl, lane) in lanes.iter_mut().take(sn).enumerate() {
                // Entry counts are <= i32::MAX by layout construction,
                // so the clamped rank is i32-representable.
                *lane = src.rank(first + rl, f, table).min(len) as i32;
            }
        }
        // All-ones start: bits at or above a tree's leaf count are
        // never cleared (masks only cover real leaves), and the
        // finalize below never reads past the tree's leaf range.
        // Parked lanes (rl >= sn) stay all-ones and are never read.
        bv.fill(!0u32);
        for (f, cuts) in cutt.iter().enumerate() {
            let lo = qs.offsets[f] as usize;
            // Bounds for both application paths: each lane's cutoff is
            // clamped to the feature's entry count above, packed tree
            // ids enumerate the source trees, and bv spans
            // trees * QS_SUB.
            #[cfg(target_arch = "x86_64")]
            if allow_simd {
                let cmax = cuts.iter().copied().max().unwrap_or(0) as usize;
                // SAFETY: AVX2 verified by the dispatcher; cmax is the
                // lane maximum, still <= the feature's entry count.
                unsafe { qs_apply_avx2(&qs.ent, lo, cmax, cuts, &mut bv) };
                continue;
            }
            qs_apply_scalar(&qs.ent, lo, cuts, &mut bv);
        }
        let mut acc = [0.0f64; QS_SUB];
        for t in 0..trees {
            let loff = qs.leaf_offsets[t] as usize;
            let cnt = qs.leaf_offsets[t + 1] as usize - loff;
            // The exit leaf always survives (false conditions only
            // clear subtrees the walker did not enter), so the lowest
            // set bit is a real leaf slot; min() keeps the gather in
            // range even if that invariant were broken.
            for rl in 0..sn {
                // SAFETY: t * QS_SUB + rl < trees * QS_SUB = bv.len();
                // loff + slot < leaf_offsets[t + 1] <= the slot-aligned
                // array lengths.
                unsafe {
                    let word = *bv.get_unchecked(t * QS_SUB + rl);
                    let slot = (word.trailing_zeros() as usize).min(cnt - 1);
                    *acc.get_unchecked_mut(rl) += *qs.leaf_value.get_unchecked(loff + slot);
                    if COUNTED {
                        visited += u64::from(*qs.leaf_depth1.get_unchecked(loff + slot));
                    }
                }
            }
        }
        for (rl, &a) in acc.iter().take(sn).enumerate() {
            let raw = flat.base_score + flat.scale * a;
            out[sub + rl] = if TRANSFORM {
                flat.objective.transform(raw)
            } else {
                raw
            };
        }
        sub += sn;
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Forest, Node, Objective, Tree};

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

    /// Both QuickScorer application paths — lane-parallel SIMD (when
    /// the machine has it) and the scalar fallback — must agree with
    /// each other and with the walker, bit for bit, NaN rows included.
    #[test]
    fn scalar_and_simd_qs_applications_match_walker() {
        let forest = forest();
        let flat = forest.flattened().expect("valid forest flattens");
        let qs = flat.qs.as_ref().expect("small trees build QS tables");
        let xs: Vec<Vec<f64>> = (0..150)
            .map(|i| {
                if i % 31 == 0 {
                    vec![f64::NAN, (i % 5) as f64 / 4.0]
                } else {
                    vec![(i % 17) as f64 / 16.0, (i % 5) as f64 / 4.0]
                }
            })
            .collect();
        for allow_simd in [false, true] {
            let mut raw = vec![0.0; xs.len()];
            qs_impl::<false, false, _>(&flat, qs, &Rows(&xs), 0, &mut raw, allow_simd);
            let mut resp = vec![0.0; xs.len()];
            let visited = qs_impl::<true, true, _>(&flat, qs, &Rows(&xs), 0, &mut resp, allow_simd);
            let mut want_visits = 0u64;
            for (i, x) in xs.iter().enumerate() {
                let (wraw, n) = forest.predict_raw_counted(x);
                want_visits += n;
                assert_eq!(
                    raw[i].to_bits(),
                    wraw.to_bits(),
                    "simd={allow_simd} row {i}"
                );
                assert_eq!(
                    resp[i].to_bits(),
                    forest.objective.transform(wraw).to_bits(),
                    "simd={allow_simd} row {i}"
                );
            }
            assert_eq!(visited, want_visits, "simd={allow_simd}");
        }
    }

    /// Code ranks feed the same two application paths: scalar and SIMD
    /// labels from codes equal the walker's on the values the codes
    /// stand for, with an empty domain (the constant 0.0) on feature 0,
    /// thresholds, values off every threshold and NaN on feature 1.
    #[test]
    fn scalar_and_simd_qs_applications_match_walker_from_codes() {
        let forest = forest();
        let flat = forest.flattened().expect("valid forest flattens");
        let qs = flat.qs.as_ref().expect("small trees build QS tables");
        for domains in [
            vec![vec![], vec![-1.0, 0.25, 0.5, 0.75, 0.9, f64::NAN]],
            vec![vec![0.5, 0.49, 2.0], vec![0.25]],
        ] {
            let tables = CodeTables::build(&flat, &domains).expect("small domains");
            let n = 150;
            let mut codes = Vec::new();
            let mut xs = Vec::new();
            for i in 0..n {
                let row: Vec<f64> = domains
                    .iter()
                    .enumerate()
                    .map(|(f, dom)| {
                        let k = if dom.is_empty() {
                            0
                        } else {
                            (i * (f + 2)) % dom.len()
                        };
                        codes.push(k as u16);
                        dom.get(k).copied().unwrap_or(0.0)
                    })
                    .collect();
                xs.push(row);
            }
            let src = Codes {
                codes: &codes,
                tables: &tables,
            };
            for allow_simd in [false, true] {
                let mut resp = vec![0.0; n];
                let visited = qs_impl::<true, true, _>(&flat, qs, &src, 0, &mut resp, allow_simd);
                let mut want_visits = 0u64;
                for (i, x) in xs.iter().enumerate() {
                    let (wraw, v) = forest.predict_raw_counted(x);
                    want_visits += v;
                    assert_eq!(
                        resp[i].to_bits(),
                        forest.objective.transform(wraw).to_bits(),
                        "simd={allow_simd} row {i}"
                    );
                }
                assert_eq!(visited, want_visits, "simd={allow_simd}");
            }
        }
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
