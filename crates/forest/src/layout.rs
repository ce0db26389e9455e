//! Flattened struct-of-arrays forest layout for the branchless
//! inference kernel ([`crate::kernel`]).
//!
//! [`Tree`](crate::Tree)/[`Node`](crate::Node) store a forest the way
//! the *trainer* grows it: one
//! 40-byte record per node mixing hot traversal fields (feature,
//! threshold, children) with cold training statistics (gain, cover) and
//! the leaf payload. Batch prediction touches only the hot fields, so
//! the walker drags ~2.5x the necessary bytes through the cache and
//! takes an unpredictable branch per level. [`FlatForest`] re-packs the
//! same model into parallel arrays sized for the descent loop:
//!
//! ```text
//!          per node (all trees concatenated, tree t at nodes[root(t)..])
//!          ┌──────┬──────┬──────┬──────┐ hot: 16 bytes/node, one record
//!          │ feat │ rank │ left │ right│   u32 each
//!          ├──────┼──────┤──────┴──────┘
//!          │ out  │depth1│               cold: touched once per descent
//!          └──────┴──────┘
//!   ft_values[ft_offsets[f]..]  per-feature sorted thresholds (ranks)
//!   leaf_values[out] → f64      (dictionary: unique leaf payloads)
//! ```
//!
//! * **Rank quantization.** Each feature's unique split thresholds are
//!   sorted into a table and nodes store the u32 *rank* of their
//!   threshold. The kernel ranks each row's feature value once per row
//!   block (`rank(x) = #{t in table : t < x}`, a short binary search),
//!   after which every descent comparison is a pure `u32` compare:
//!   `x <= t  ⟺  rank(x) <= rank(t)` for the finite thresholds build
//!   admits, and NaN features rank as `u32::MAX` so they compare false
//!   and route right, exactly like the walker. Histogram training draws
//!   thresholds from at most `max_bins` bin edges per feature, so the
//!   tables are tiny (hundreds of entries) and stay resident in L1.
//!   Unlike lossy `f32` quantization this is *bit-exact* — the rank
//!   compare reproduces the walker's `f64` compare on every input —
//!   which is what lets the differential oracle demand bitwise-equal
//!   predictions. Leaf values are interned into a dictionary and
//!   gathered once per row × tree at accumulation time.
//! * **Self-looping leaves.** A leaf's children both point at the leaf
//!   itself, so the descent loop needs no `is_leaf` branch: it runs a
//!   fixed `depth(t)` iterations and rows that reach a leaf early just
//!   park there. `feat` of a leaf is 0 (a always-valid dummy — the
//!   comparison result is irrelevant when both children are the same).
//! * **Absolute child indices.** `left`/`right` index the concatenated
//!   node arrays directly; no per-tree base-pointer arithmetic in the
//!   hot loop.
//! * **Per-node `depth1`.** Root-to-node path length (root = 1). The
//!   counted kernel recovers the walker's exact `nodes_visited`
//!   telemetry as `depth1[leaf]` without counting during descent.
//!
//! When every tree has ≤ 32 leaves (the paper configuration), build
//! additionally derives QuickScorer tables (`QsTables`): per-tree leaf
//! bitvector masks grouped by feature and sorted by threshold, plus
//! slot-aligned leaf payloads. The kernel then scores by clearing
//! ruled-out leaves with AND-masks instead of descending at all — see
//! [`crate::kernel`] for the algorithm. Forests with wider trees skip
//! the tables (`qs: None`) and ride the descent arrays above.
//!
//! Build validates the structural invariants the kernel's unchecked
//! indexing relies on (children in range, every non-root node reachable
//! exactly once, internal features inside `0..num_features`). A forest
//! that fails validation — hand-built test trees with dangling children,
//! or a `num_features` narrower than a split — is rejected and
//! [`Forest::predict_batch`] falls back to the recursive walker.
//!
//! The layout is built once and cached on the [`Forest`] behind a
//! content-digest check (see [`LayoutCache`]), so repeated labeling —
//! `gef-serve` batch predicts, `xp_regress` warm iterations — skips the
//! rebuild entirely while in-place model mutation still invalidates
//! stale snapshots.

use crate::{Forest, ForestError, Objective, Result};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A [`Forest`] re-packed into flattened struct-of-arrays form for the
/// branchless batch-inference kernel.
///
/// Immutable snapshot: it records the source forest's
/// [`Forest::content_digest`] so the cache can tell when the model was
/// mutated in place and the snapshot no longer applies.
///
/// ```
/// use gef_forest::{layout::FlatForest, Forest, Node, Objective, Tree};
///
/// let tree = Tree {
///     nodes: vec![
///         Node::split(0, 0.5, 1, 2, 1.0, 4),
///         Node::leaf(-1.0, 2),
///         Node::leaf(1.0, 2),
///     ],
/// };
/// let forest = Forest::new(vec![tree], 0.0, 1.0, Objective::RegressionL2, 1);
/// let flat = FlatForest::build(&forest).unwrap();
/// assert_eq!(flat.num_nodes(), 3);
/// assert_eq!(flat.max_depth(), 1);
/// ```
#[derive(Debug)]
pub struct FlatForest {
    /// Hot node records (one per node, all trees concatenated): the
    /// 16 bytes the descent loop touches, packed so a node visit pulls
    /// one cache line, not four.
    pub(crate) nodes: Vec<HotNode>,
    /// Leaf-value dictionary code per node (`0` for internal nodes).
    pub(crate) out_code: Vec<u32>,
    /// Root-to-node path length, root = 1 (the walker's per-tree
    /// `nodes_visited` when the descent ends at this node).
    pub(crate) depth1: Vec<u32>,
    /// Rank-quantization tables: feature `f`'s sorted unique split
    /// thresholds live at `ft_values[ft_offsets[f]..ft_offsets[f+1]]`.
    /// A node splitting on `f` stores the *rank* of its threshold in
    /// `f`'s table, and the kernel pre-ranks each row's feature values
    /// once per row block, turning every descent comparison into a pure
    /// `u32` compare with no `f64` gather (see [`crate::kernel`]).
    pub(crate) ft_offsets: Vec<u32>,
    /// Concatenated per-feature sorted threshold tables.
    pub(crate) ft_values: Vec<f64>,
    /// Unique leaf payloads, in first-occurrence order.
    pub(crate) leaf_values: Vec<f64>,
    /// Absolute root node index per tree.
    pub(crate) roots: Vec<u32>,
    /// Maximum root-to-leaf edge count per tree (descent iterations).
    pub(crate) depth: Vec<u32>,
    /// Cache-blocking plan: consecutive `[start, end)` tree ranges whose
    /// combined node arrays fit the kernel's tree-block working set
    /// (~[`crate::kernel::TREE_BLOCK_NODES`] hot node records). Hoisted
    /// here so repeated labeling never re-derives per-call metadata.
    pub(crate) tree_blocks: Vec<(u32, u32)>,
    /// Forest-level prediction parameters, copied from the source.
    pub(crate) base_score: f64,
    /// Multiplier applied to the summed tree outputs.
    pub(crate) scale: f64,
    /// Objective (for the response-scale transform).
    pub(crate) objective: Objective,
    /// Feature-vector width every internal `feat` is validated against.
    pub(crate) num_features: usize,
    /// QuickScorer bitvector tables ([`QsTables`]), present whenever
    /// every tree has at most 32 leaves. When present the kernel scores
    /// rows by streaming mask applications instead of predicated
    /// descent; wider trees fall back to the descent path.
    pub(crate) qs: Option<QsTables>,
    /// [`Forest::content_digest`] of the forest this was built from.
    pub(crate) source_digest: u64,
}

/// The 16-byte hot node record: exactly what one descent step reads.
/// `feat` is the tested feature (`0` for leaves — irrelevant, both
/// children self-loop and always `< num_features` for internal nodes),
/// `thr_code` is the rank of the node's threshold within feature
/// `feat`'s sorted table (`0` for leaves), and `left`/`right` are
/// absolute indices into the concatenated node array (self for leaves).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct HotNode {
    pub(crate) feat: u32,
    pub(crate) thr_code: u32,
    pub(crate) left: u32,
    pub(crate) right: u32,
}

/// QuickScorer-style bitvector scoring tables (Lucchese et al.,
/// SIGIR'15 — the same group as the source paper), built whenever every
/// tree has at most 32 leaves, which covers the paper configuration
/// (32-leaf trees) exactly.
///
/// The idea: number each tree's leaves left-to-right (in-order) and
/// keep one bit per leaf in a per-tree `u32`, initially all ones. A
/// split condition `x <= t` that evaluates *false* makes the node's
/// entire **left** subtree unreachable — a contiguous bit span under
/// in-order numbering — so each internal node becomes one precomputed
/// AND-mask. For a row, the false conditions of feature `f` are exactly
/// the entries with `t < x[f]`: a prefix of `f`'s threshold-sorted
/// entry list, found by the same rank search the descent kernel uses.
/// After all masks are applied, the exit leaf is the *lowest* surviving
/// bit (the walker always exits at the leftmost leaf not cut off by a
/// false condition). Scoring a row is therefore a handful of streaming
/// `AND`s over a sequential entry array — no per-node pointer chases at
/// all. Trees wider than 32 leaves fall back to predicated descent.
#[derive(Debug)]
pub(crate) struct QsTables {
    /// Per-feature entry ranges: feature `f`'s entries live at
    /// `thr/ent[offsets[f]..offsets[f+1]]`, sorted by threshold.
    /// Unlike the rank tables these keep duplicates — one entry per
    /// internal node.
    pub(crate) offsets: Vec<u32>,
    /// Entry thresholds, sorted per feature (`total_cmp`, so the
    /// `t < x` prefix property holds bit-exactly).
    pub(crate) thr: Vec<f64>,
    /// Packed entry, `mask << 32 | tree`: one load per application.
    /// `mask` is the complement of the node's left-subtree leaf span in
    /// its tree's in-order leaf numbering; `tree` selects the bitvector
    /// it ANDs into.
    pub(crate) ent: Vec<u64>,
    /// Per-tree leaf ranges into the slot-aligned arrays below (prefix
    /// sums of leaf counts; every validated tree has at least one leaf).
    pub(crate) leaf_offsets: Vec<u32>,
    /// In-order leaf slot → leaf payload (bit-exact copy of the node's
    /// value, so the exit-leaf gather is one load, not a node → code →
    /// dictionary chase).
    pub(crate) leaf_value: Vec<f64>,
    /// In-order leaf slot → root-to-leaf path length (root = 1), the
    /// walker's `nodes_visited` for a row exiting at this leaf.
    pub(crate) leaf_depth1: Vec<u32>,
}

impl QsTables {
    /// Feature `f`'s entry thresholds, in sorted order.
    pub(crate) fn thresholds(&self, f: usize) -> &[f64] {
        &self.thr[self.offsets[f] as usize..self.offsets[f + 1] as usize]
    }

    /// Feature `f`'s packed entries, in threshold order.
    pub(crate) fn entries(&self, f: usize) -> &[u64] {
        &self.ent[self.offsets[f] as usize..self.offsets[f + 1] as usize]
    }
}

/// Build the QuickScorer tables, or `None` when some tree has more than
/// 32 leaves (the bitvector holds one `u32` bit per leaf). Runs after
/// [`FlatForest::build`]'s structural validation, so the explicit-stack
/// walks below are guaranteed to terminate.
fn build_qs_tables(forest: &Forest) -> Option<QsTables> {
    let nf = forest.num_features;
    let mut per_feat: Vec<Vec<(f64, u64)>> = vec![Vec::new(); nf];
    let mut leaf_offsets = Vec::with_capacity(forest.trees.len() + 1);
    let mut leaf_value: Vec<f64> = Vec::new();
    let mut leaf_depth1: Vec<u32> = Vec::new();
    leaf_offsets.push(0u32);
    for (ti, tree) in forest.trees.iter().enumerate() {
        let n = tree.nodes.len();
        // In-order leaf numbering plus per-subtree leaf spans: a
        // pre-order walk that visits left children first assigns leaf
        // slots left-to-right; the deferred (`children_done`) re-visit
        // folds child spans into `lo`/`cnt` post-order.
        let mut lo = vec![0u32; n];
        let mut cnt = vec![0u32; n];
        let mut next_slot = 0u32;
        let mut stack = vec![(0usize, 1u32, false)];
        while let Some((i, d1, children_done)) = stack.pop() {
            let node = &tree.nodes[i];
            if node.is_leaf() {
                lo[i] = next_slot;
                cnt[i] = 1;
                leaf_value.push(node.value);
                leaf_depth1.push(d1);
                next_slot += 1;
                continue;
            }
            if children_done {
                let (l, r) = (node.left as usize, node.right as usize);
                lo[i] = lo[l];
                cnt[i] = cnt[l] + cnt[r];
            } else {
                stack.push((i, d1, true));
                stack.push((node.right as usize, d1 + 1, false));
                stack.push((node.left as usize, d1 + 1, false));
            }
        }
        if next_slot > 32 {
            return None;
        }
        for node in &tree.nodes {
            if node.is_leaf() {
                continue;
            }
            // The left subtree's leaves occupy the contiguous bit span
            // [lo, lo+cnt). cnt of a left child is at most 31 here: the
            // tree has <= 32 leaves total and the right subtree holds
            // at least one, so the shift cannot overflow.
            let l = node.left as usize;
            let clear = ((1u32 << cnt[l]) - 1) << lo[l];
            let packed = (u64::from(!clear) << 32) | ti as u64;
            per_feat[node.feature as usize].push((node.threshold, packed));
        }
        leaf_offsets.push(leaf_value.len() as u32);
    }
    let mut qs = QsTables {
        offsets: Vec::with_capacity(nf + 1),
        thr: Vec::new(),
        ent: Vec::new(),
        leaf_offsets,
        leaf_value,
        leaf_depth1,
    };
    qs.offsets.push(0);
    for entries in &mut per_feat {
        // Entries with equal thresholds are interchangeable: the `t < x`
        // predicate gives them identical verdicts and the masks AND
        // commutatively, so the sort need not be stable.
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(t, packed) in entries.iter() {
            qs.thr.push(t);
            qs.ent.push(packed);
        }
        let end = u32::try_from(qs.thr.len()).ok()?;
        qs.offsets.push(end);
    }
    // The kernel's lane-predicated application compares cutoffs as
    // signed i32 vector lanes; keep every entry index representable.
    if qs.thr.len() > i32::MAX as usize {
        return None;
    }
    Some(qs)
}

/// Interner: f64 (by bit pattern, so NaNs and signed zeros stay
/// distinct and bit-exact) → dense u32 code.
struct Dict {
    codes: HashMap<u64, u32>,
    values: Vec<f64>,
}

impl Dict {
    fn new() -> Dict {
        Dict {
            codes: HashMap::new(),
            values: Vec::new(),
        }
    }

    fn intern(&mut self, v: f64) -> Result<u32> {
        if let Some(&c) = self.codes.get(&v.to_bits()) {
            return Ok(c);
        }
        let c = u32::try_from(self.values.len())
            .map_err(|_| ForestError::InvalidData("dictionary exceeds u32 codes".into()))?;
        self.codes.insert(v.to_bits(), c);
        self.values.push(v);
        Ok(c)
    }
}

impl FlatForest {
    /// Flatten `forest` into struct-of-arrays form, validating the
    /// structural invariants the kernel's unchecked indexing needs.
    ///
    /// Errors with [`ForestError::InvalidData`] when a tree is empty or
    /// cyclic, a child index is out of range, a non-root node is not
    /// referenced exactly once, an internal node tests a feature
    /// `>= forest.num_features`, or a split threshold is non-finite —
    /// shapes the recursive walker either misbehaves on (panic or loop)
    /// or that rank quantization cannot represent (a NaN/∞ threshold),
    /// so callers fall back rather than fail.
    pub fn build(forest: &Forest) -> Result<FlatForest> {
        let total: usize = forest.trees.iter().map(|t| t.nodes.len()).sum();
        if u32::try_from(total).is_err() {
            return Err(ForestError::InvalidData(
                "forest exceeds u32 node indices".into(),
            ));
        }
        let mut flat = FlatForest {
            nodes: Vec::with_capacity(total),
            out_code: Vec::with_capacity(total),
            depth1: vec![0; total],
            ft_offsets: Vec::with_capacity(forest.num_features + 1),
            ft_values: Vec::new(),
            leaf_values: Vec::new(),
            roots: Vec::with_capacity(forest.trees.len()),
            depth: Vec::with_capacity(forest.trees.len()),
            tree_blocks: Vec::new(),
            base_score: forest.base_score,
            scale: forest.scale,
            objective: forest.objective,
            num_features: forest.num_features,
            qs: None,
            source_digest: forest.content_digest(),
        };
        let mut out_dict = Dict::new();

        // Pass 1: per-feature rank-quantization tables. Sorted by
        // total_cmp (which refines the numeric order for the finite
        // thresholds we admit) and deduplicated by bit pattern, so a
        // node's threshold is found at exactly one rank and the
        // rank-compare `rank(x) <= rank(t)` reproduces `x <= t`
        // bit-for-bit.
        let mut per_feat: Vec<Vec<f64>> = vec![Vec::new(); forest.num_features];
        for (ti, tree) in forest.trees.iter().enumerate() {
            for node in &tree.nodes {
                if node.is_leaf() {
                    continue;
                }
                if node.feature < 0 || node.feature as usize >= forest.num_features {
                    return Err(ForestError::InvalidData(format!(
                        "tree {ti}: split feature out of range"
                    )));
                }
                if !node.threshold.is_finite() {
                    return Err(ForestError::InvalidData(format!(
                        "tree {ti}: non-finite split threshold"
                    )));
                }
                per_feat[node.feature as usize].push(node.threshold);
            }
        }
        flat.ft_offsets.push(0);
        for table in &mut per_feat {
            table.sort_by(|a, b| a.total_cmp(b));
            table.dedup_by(|a, b| a.to_bits() == b.to_bits());
            flat.ft_values.extend_from_slice(table);
            let end = u32::try_from(flat.ft_values.len())
                .map_err(|_| ForestError::InvalidData("threshold table exceeds u32".into()))?;
            flat.ft_offsets.push(end);
        }

        let mut offset = 0u32;
        for (ti, tree) in forest.trees.iter().enumerate() {
            let n = tree.nodes.len();
            if n == 0 {
                return Err(ForestError::InvalidData(format!("tree {ti} is empty")));
            }
            let bad = |what: &str| ForestError::InvalidData(format!("tree {ti}: {what}"));
            // Reference counts: the kernel requires the same shape
            // Tree::validate does (minus the cover consistency, which
            // prediction never reads).
            let mut refs = vec![0u8; n];
            for (i, node) in tree.nodes.iter().enumerate() {
                if node.is_leaf() {
                    let own = offset + i as u32;
                    flat.nodes.push(HotNode {
                        feat: 0,
                        thr_code: 0,
                        left: own,
                        right: own,
                    });
                    flat.out_code.push(out_dict.intern(node.value)?);
                    continue;
                }
                let (l, r) = (node.left as usize, node.right as usize);
                if l >= n || r >= n || l == i || r == i {
                    return Err(bad("child index out of range"));
                }
                refs[l] = refs[l].saturating_add(1);
                refs[r] = refs[r].saturating_add(1);
                // Rank of this node's threshold within its feature's
                // table (pass 1 interned it, so the exact bit pattern
                // is present).
                let f = node.feature as usize;
                let lo = flat.ft_offsets[f] as usize;
                let hi = flat.ft_offsets[f + 1] as usize;
                let rank = flat.ft_values[lo..hi]
                    .binary_search_by(|probe| probe.total_cmp(&node.threshold))
                    .map_err(|_| bad("threshold missing from rank table"))?;
                flat.nodes.push(HotNode {
                    feat: node.feature as u32,
                    thr_code: rank as u32,
                    left: offset + node.left,
                    right: offset + node.right,
                });
                flat.out_code.push(0);
            }
            if refs[0] != 0 {
                return Err(bad("root referenced as a child"));
            }
            if let Some(i) = (1..n).find(|&i| refs[i] != 1) {
                return Err(bad(&format!("node {i} referenced {} times", refs[i])));
            }
            // Depth labelling doubles as the reachability/acyclicity
            // proof: with every non-root referenced exactly once, a
            // root walk that visits all n nodes exactly once rules out
            // cycles and orphans.
            let mut seen = vec![false; n];
            let mut stack = vec![(0usize, 1u32)];
            let mut visited = 0usize;
            let mut max_depth1 = 0u32;
            while let Some((i, d1)) = stack.pop() {
                if seen[i] {
                    return Err(bad("cycle detected"));
                }
                seen[i] = true;
                visited += 1;
                flat.depth1[offset as usize + i] = d1;
                max_depth1 = max_depth1.max(d1);
                let node = &tree.nodes[i];
                if !node.is_leaf() {
                    stack.push((node.left as usize, d1 + 1));
                    stack.push((node.right as usize, d1 + 1));
                }
            }
            if visited != n {
                return Err(bad("unreachable nodes"));
            }
            flat.roots.push(offset);
            flat.depth.push(max_depth1 - 1);
            offset += n as u32;
        }
        // Leaf-value gathers only ever use a leaf's own code, and every
        // validated tree contains at least one leaf, so the dictionary
        // is non-empty whenever it is indexed.
        flat.leaf_values = out_dict.values;
        flat.tree_blocks = plan_tree_blocks(forest, crate::kernel::TREE_BLOCK_NODES);
        // QuickScorer tables come last: their explicit-stack tree walks
        // rely on the acyclicity just proven above.
        flat.qs = build_qs_tables(forest);
        Ok(flat)
    }

    /// Total node count across all trees.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Deepest root-to-leaf edge count over all trees (the per-tree
    /// descent iteration count is per-tree, not this maximum).
    pub fn max_depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0) as usize
    }

    /// Content digest of the source forest this layout snapshots.
    pub fn source_digest(&self) -> u64 {
        self.source_digest
    }
}

/// Greedily pack consecutive trees into blocks of at most
/// `block_nodes` total nodes (a tree larger than the budget gets a
/// block of its own). Iterating rows against one block at a time keeps
/// the block's 16-byte hot records resident across the whole row block.
fn plan_tree_blocks(forest: &Forest, block_nodes: usize) -> Vec<(u32, u32)> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    let mut in_block = 0usize;
    for (ti, tree) in forest.trees.iter().enumerate() {
        let n = tree.nodes.len();
        if in_block > 0 && in_block + n > block_nodes {
            blocks.push((start as u32, ti as u32));
            start = ti;
            in_block = 0;
        }
        in_block += n;
    }
    if in_block > 0 {
        blocks.push((start as u32, forest.trees.len() as u32));
    }
    blocks
}

/// Digest-validated cache of a forest's [`FlatForest`] snapshot.
///
/// Lives as a private field on [`Forest`] so every consumer of
/// [`Forest::predict_batch`] — D*-labeling, `gef-serve`, the bench
/// binaries — shares one layout per model. Validation is by
/// [`Forest::content_digest`]: mutating the model in place (the public
/// tree/score fields stay public) makes the digest diverge and the next
/// batch predict rebuilds instead of reading a stale snapshot. Forests
/// the kernel cannot serve cache the rejection, so the (O(nodes))
/// validation cost is also paid once, not per call.
pub struct LayoutCache {
    /// `(source digest, layout or cached rejection)`.
    slot: RwLock<Option<(u64, Option<Arc<FlatForest>>)>>,
}

impl LayoutCache {
    /// An empty cache (nothing built yet).
    pub fn new() -> LayoutCache {
        LayoutCache {
            slot: RwLock::new(None),
        }
    }

    /// The cached layout for `forest`, building (or re-building, after
    /// an in-place mutation) when the cached digest does not match.
    /// `None` when the forest's structure is unsupported — callers use
    /// the recursive walker instead.
    pub(crate) fn get_or_build(&self, forest: &Forest) -> Option<Arc<FlatForest>> {
        let digest = forest.content_digest();
        if let Ok(guard) = self.slot.read() {
            if let Some((d, cached)) = guard.as_ref() {
                if *d == digest {
                    return cached.clone();
                }
            }
        }
        let built = match FlatForest::build(forest) {
            Ok(flat) => Some(Arc::new(flat)),
            Err(e) => {
                gef_trace::recorder::note(
                    gef_trace::recorder::Kind::Event,
                    "forest.flatten_rejected",
                    &e.to_string(),
                );
                None
            }
        };
        if let Ok(mut guard) = self.slot.write() {
            *guard = Some((digest, built.clone()));
        }
        built
    }

    /// Whether a layout snapshot is currently cached (a cached
    /// *rejection* answers `false`).
    pub fn is_cached(&self) -> bool {
        self.slot
            .read()
            .map(|g| matches!(g.as_ref(), Some((_, Some(_)))))
            .unwrap_or(false)
    }
}

impl Default for LayoutCache {
    fn default() -> Self {
        LayoutCache::new()
    }
}

impl Clone for LayoutCache {
    /// Clones share the cached snapshot (it is immutable); a clone that
    /// later mutates its model re-validates by digest and rebuilds.
    fn clone(&self) -> Self {
        LayoutCache {
            slot: RwLock::new(self.slot.read().map(|g| g.clone()).unwrap_or(None)),
        }
    }
}

impl std::fmt::Debug for LayoutCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.slot.read() {
            Ok(g) => match g.as_ref() {
                Some((_, Some(_))) => "cached",
                Some((_, None)) => "rejected",
                None => "empty",
            },
            Err(_) => "poisoned",
        };
        write!(f, "LayoutCache({state})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Node, Tree};

    fn two_tree_forest() -> Forest {
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
                Node::split(1, 0.25, 1, 2, 4.0, 100),
                Node::leaf(1.0, 50), // duplicate payload: dictionary folds it
                Node::leaf(-2.0, 50),
            ],
        };
        Forest::new(vec![t0, t1], 0.5, 1.0, Objective::RegressionL2, 2)
    }

    #[test]
    fn build_flattens_and_deduplicates() {
        let forest = two_tree_forest();
        let flat = FlatForest::build(&forest).unwrap();
        assert_eq!(flat.num_nodes(), 8);
        assert_eq!(flat.num_trees(), 2);
        assert_eq!(flat.roots, vec![0, 5]);
        assert_eq!(flat.depth, vec![2, 1]);
        // 0.25 appears in both trees; 0.5 once.
        assert_eq!(flat.ft_values.len(), 2);
        // Leaf payloads 3, 1, 2, -2 (1.0 deduplicated across trees).
        assert_eq!(flat.leaf_values.len(), 4);
        // Leaves self-loop in absolute coordinates.
        assert_eq!(flat.nodes[2].left, 2);
        assert_eq!(flat.nodes[2].right, 2);
        assert_eq!(flat.nodes[6].left, 6);
        // Internal children are absolute.
        assert_eq!(flat.nodes[5].left, 6);
        assert_eq!(flat.nodes[5].right, 7);
        // depth1: root 1, its children 2, grandchildren 3.
        assert_eq!(flat.depth1[0], 1);
        assert_eq!(flat.depth1[3], 3);
        assert_eq!(flat.depth1[5], 1);
        assert_eq!(flat.depth1[7], 2);
        assert_eq!(flat.source_digest(), forest.content_digest());
        // 8 nodes fit one tree block.
        assert_eq!(flat.tree_blocks, vec![(0, 2)]);
    }

    #[test]
    fn qs_tables_number_leaves_in_order() {
        let forest = two_tree_forest();
        let flat = FlatForest::build(&forest).unwrap();
        let qs = flat.qs.as_ref().expect("small trees build QS tables");
        // In-order leaf numbering: tree 0 leaves (1.0, 2.0, 3.0) left
        // to right, tree 1 leaves (1.0, -2.0).
        assert_eq!(qs.leaf_offsets, vec![0, 3, 5]);
        assert_eq!(qs.leaf_value, vec![1.0, 2.0, 3.0, 1.0, -2.0]);
        assert_eq!(qs.leaf_depth1, vec![3, 3, 2, 2, 2]);
        // Feature 0 has one entry (tree 0's root, threshold 0.5) whose
        // false-branch clears the left subtree's slots {0, 1}; feature
        // 1 has two (threshold 0.25 in both trees), each clearing its
        // left leaf slot {0}.
        assert_eq!(qs.offsets, vec![0, 1, 3]);
        assert_eq!(qs.thr, vec![0.5, 0.25, 0.25]);
        assert_eq!(qs.ent[0], u64::from(!0b11u32) << 32);
        assert_eq!(qs.ent[1], u64::from(!0b01u32) << 32);
        assert_eq!(qs.ent[2], (u64::from(!0b01u32) << 32) | 1);
    }

    #[test]
    fn qs_tables_absent_for_wide_leaf_trees() {
        // Right-spine chain: 40 splits, 41 leaves > 32.
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
            nodes.push(Node::leaf(i as f64, 1));
        }
        nodes.push(Node::leaf(40.0, 1));
        let forest = Forest::new(vec![Tree { nodes }], 0.0, 1.0, Objective::RegressionL2, 1);
        let flat = FlatForest::build(&forest).unwrap();
        assert!(flat.qs.is_none());
    }

    #[test]
    fn build_rejects_feature_out_of_range() {
        let tree = Tree {
            nodes: vec![
                Node::split(3, 0.5, 1, 2, 0.0, 0), // feature 3, width 2
                Node::leaf(0.0, 0),
                Node::leaf(1.0, 0),
            ],
        };
        let forest = Forest::new(vec![tree], 0.0, 1.0, Objective::RegressionL2, 2);
        assert!(matches!(
            FlatForest::build(&forest),
            Err(ForestError::InvalidData(_))
        ));
    }

    #[test]
    fn build_rejects_cycles_and_dangling_children() {
        let cyclic = Tree {
            nodes: vec![
                Node::split(0, 0.5, 1, 2, 0.0, 0),
                Node::split(0, 0.5, 0, 2, 0.0, 0),
                Node::leaf(1.0, 0),
            ],
        };
        let forest = Forest::new(vec![cyclic], 0.0, 1.0, Objective::RegressionL2, 1);
        assert!(FlatForest::build(&forest).is_err());

        let dangling = Tree {
            nodes: vec![Node::split(0, 0.5, 1, 9, 0.0, 0), Node::leaf(1.0, 0)],
        };
        let forest = Forest::new(vec![dangling], 0.0, 1.0, Objective::RegressionL2, 1);
        assert!(FlatForest::build(&forest).is_err());
    }

    #[test]
    fn single_leaf_tree_flattens_with_zero_features() {
        let forest = Forest::new(
            vec![Tree::constant(2.5, 10)],
            0.0,
            1.0,
            Objective::RegressionL2,
            0,
        );
        let flat = FlatForest::build(&forest).unwrap();
        assert_eq!(flat.max_depth(), 0);
        assert_eq!(flat.leaf_values.len(), 1);
        // No splits, no rank tables.
        assert!(flat.ft_values.is_empty());
        assert_eq!(flat.ft_offsets, vec![0]);
    }

    #[test]
    fn cache_rebuilds_after_in_place_mutation() {
        let mut forest = two_tree_forest();
        let a = forest.flattened().expect("valid forest flattens");
        assert!(forest.layout_cached());
        assert!(Arc::ptr_eq(
            &a,
            &forest.flattened().expect("cache hit returns same snapshot")
        ));
        forest.trees[0].nodes[0].threshold = 0.75;
        let b = forest.flattened().expect("rebuild after mutation");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.source_digest(), b.source_digest());
    }

    #[test]
    fn cache_remembers_rejections() {
        let dangling = Tree {
            nodes: vec![Node::split(0, 0.5, 1, 9, 0.0, 0), Node::leaf(1.0, 0)],
        };
        let forest = Forest::new(vec![dangling], 0.0, 1.0, Objective::RegressionL2, 1);
        assert!(forest.flattened().is_none());
        assert!(!forest.layout_cached());
        assert!(forest.flattened().is_none());
    }
}
