//! Histogram-based, leaf-wise gradient-boosted decision trees.
//!
//! This is the workspace's stand-in for LightGBM, mirroring the pieces
//! the GEF paper relies on:
//!
//! * quantile histogram binning (≤ 255 bins, [`crate::binning`]);
//! * **leaf-wise** (best-first) tree growth capped by `num_leaves`, the
//!   growth strategy that makes LightGBM forests deep and asymmetric;
//! * per-node split **gain** and **cover** recorded on every internal
//!   node — GEF's feature selection and interaction heuristics read
//!   these;
//! * shrinkage, L2 leaf regularization, instance bagging, feature
//!   sub-sampling, and validation-based early stopping (the paper uses
//!   25% of the training set with early stopping).
//!
//! The histogram-subtraction trick is implemented: after a split, the
//! histogram of the larger child is derived from `parent − smaller`,
//! halving histogram construction cost.

use crate::binning::BinnedDataset;
use crate::tree::{Node, Tree};
use crate::{sigmoid, Forest, ForestError, Objective, Result};
use gef_trace::rng::Rng;

/// Hyper-parameters of the GBDT trainer.
///
/// Defaults correspond to the paper's final tuned configuration for the
/// synthetic datasets (1000 trees, 32 leaves, learning rate 0.01) except
/// `num_trees`, which defaults to a lighter 100 — the experiment harness
/// sets the paper values explicitly.
#[derive(Debug, Clone)]
pub struct GbdtParams {
    /// Maximum number of boosting iterations (trees).
    pub num_trees: usize,
    /// Maximum leaves per tree (leaf-wise growth cap).
    pub num_leaves: usize,
    /// Shrinkage applied to every leaf value.
    pub learning_rate: f64,
    /// Maximum histogram bins per feature.
    pub max_bins: usize,
    /// Minimum training instances in each child of a split.
    pub min_data_in_leaf: usize,
    /// L2 regularization on leaf values (LightGBM `lambda_l2`).
    pub lambda_l2: f64,
    /// Minimum split gain to accept a split.
    pub min_gain_to_split: f64,
    /// Fraction of features considered per tree (0 < f <= 1).
    pub feature_fraction: f64,
    /// Fraction of instances bagged per tree (0 < f <= 1).
    pub bagging_fraction: f64,
    /// Training objective.
    pub objective: Objective,
    /// Stop when the validation loss has not improved for this many
    /// rounds (requires a validation set in [`GbdtTrainer::fit_with_valid`]).
    pub early_stopping_rounds: Option<usize>,
    /// RNG seed for bagging / feature sampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            num_trees: 100,
            num_leaves: 32,
            learning_rate: 0.1,
            max_bins: 255,
            min_data_in_leaf: 20,
            lambda_l2: 0.0,
            min_gain_to_split: 1e-10,
            feature_fraction: 1.0,
            bagging_fraction: 1.0,
            objective: Objective::RegressionL2,
            early_stopping_rounds: None,
            seed: 0,
        }
    }
}

impl GbdtParams {
    fn validate(&self) -> Result<()> {
        if self.num_leaves < 2 {
            return Err(ForestError::InvalidParams("num_leaves must be >= 2".into()));
        }
        // `!(x > 0)` deliberately rejects NaN alongside non-positive.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.learning_rate > 0.0) {
            return Err(ForestError::InvalidParams(
                "learning_rate must be > 0".into(),
            ));
        }
        if !(self.feature_fraction > 0.0 && self.feature_fraction <= 1.0) {
            return Err(ForestError::InvalidParams(
                "feature_fraction must be in (0,1]".into(),
            ));
        }
        if !(self.bagging_fraction > 0.0 && self.bagging_fraction <= 1.0) {
            return Err(ForestError::InvalidParams(
                "bagging_fraction must be in (0,1]".into(),
            ));
        }
        if self.lambda_l2 < 0.0 {
            return Err(ForestError::InvalidParams("lambda_l2 must be >= 0".into()));
        }
        Ok(())
    }
}

/// Gradient-boosted decision tree trainer.
#[derive(Debug, Clone)]
pub struct GbdtTrainer {
    params: GbdtParams,
}

/// Best split found for one leaf.
#[derive(Debug, Clone, Copy)]
struct SplitInfo {
    gain: f64,
    feature: usize,
    bin: usize, // split between `bin` and `bin + 1`
    threshold: f64,
}

/// A grow-able leaf during tree construction.
struct LeafState {
    /// Index of this leaf's node in the tree being built.
    node_idx: usize,
    /// Training rows (into the bagged subset) in this leaf.
    rows: Vec<u32>,
    sum_g: f64,
    sum_h: f64,
    /// Flattened per-(feature, bin) histogram: 3 values per bin
    /// (sum_g, sum_h, count).
    hist: Vec<f64>,
    best: Option<SplitInfo>,
}

impl GbdtTrainer {
    /// Create a trainer with the given hyper-parameters.
    pub fn new(params: GbdtParams) -> Self {
        GbdtTrainer { params }
    }

    /// Borrow the hyper-parameters.
    pub fn params(&self) -> &GbdtParams {
        &self.params
    }

    /// Fit on training data only (no early stopping).
    pub fn fit(&self, xs: &[Vec<f64>], ys: &[f64]) -> Result<Forest> {
        self.fit_impl(xs, ys, None)
    }

    /// Fit with a validation set for early stopping. The returned forest
    /// is truncated to the best validation iteration.
    pub fn fit_with_valid(
        &self,
        xs: &[Vec<f64>],
        ys: &[f64],
        valid_xs: &[Vec<f64>],
        valid_ys: &[f64],
    ) -> Result<Forest> {
        self.fit_impl(xs, ys, Some((valid_xs, valid_ys)))
    }

    fn fit_impl(
        &self,
        xs: &[Vec<f64>],
        ys: &[f64],
        valid: Option<(&[Vec<f64>], &[f64])>,
    ) -> Result<Forest> {
        self.params.validate()?;
        if xs.len() != ys.len() {
            return Err(ForestError::InvalidData(format!(
                "{} rows but {} labels",
                xs.len(),
                ys.len()
            )));
        }
        if xs.is_empty() {
            return Err(ForestError::InvalidData("empty training set".into()));
        }
        if self.params.objective == Objective::BinaryLogistic
            && ys.iter().any(|&y| y != 0.0 && y != 1.0)
        {
            return Err(ForestError::InvalidData(
                "binary objective requires 0/1 labels".into(),
            ));
        }
        let binned = BinnedDataset::build(xs, self.params.max_bins)?;
        let n = xs.len();
        let num_features = binned.num_features();
        let base_score = match self.params.objective {
            Objective::RegressionL2 => ys.iter().sum::<f64>() / n as f64,
            Objective::BinaryLogistic => {
                let p = (ys.iter().sum::<f64>() / n as f64).clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln()
            }
        };
        let mut rng = Rng::seed(self.params.seed);
        let mut scores = vec![base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut trees: Vec<Tree> = Vec::with_capacity(self.params.num_trees);

        // Validation state for early stopping.
        let mut valid_scores: Vec<f64> = valid
            .map(|(vx, _)| vec![base_score; vx.len()])
            .unwrap_or_default();
        let mut best_loss = f64::INFINITY;
        let mut best_iter = 0usize;

        // Budget cap on boosting rounds (0 = unlimited): a process-wide
        // clamp on top of `num_trees`, recorded when it bites.
        let max_rounds = match gef_trace::budget::boost_round_cap() {
            0 => self.params.num_trees,
            cap => self.params.num_trees.min(cap as usize),
        };
        if max_rounds < self.params.num_trees && gef_trace::enabled() {
            gef_trace::global().event(
                "forest.budget_round_cap",
                &[
                    ("requested", self.params.num_trees as f64),
                    ("capped", max_rounds as f64),
                ],
            );
        }
        let _train_span = gef_trace::Span::enter("forest.train");
        for iter in 0..max_rounds {
            // Per-round cooperative checkpoint: a passed hard deadline
            // aborts training with a typed error instead of finishing
            // the remaining rounds.
            if gef_trace::budget::hard_exceeded() {
                return Err(ForestError::DeadlineExceeded { at: "train" });
            }
            let _round_span = gef_trace::Span::enter("forest.round");
            self.compute_gradients(ys, &scores, &mut grad, &mut hess);
            let bag = self.sample_bag(n, &mut rng);
            let feats = self.sample_features(num_features, &mut rng);
            let tree = self.grow_tree(&binned, &grad, &hess, &bag, &feats)?;
            if tree.num_leaves() < 2 {
                // No useful split anywhere: boosting has converged.
                break;
            }
            // Update train scores using the freshly grown tree.
            for (i, (s, x)) in scores.iter_mut().zip(xs).enumerate() {
                let _ = i;
                *s += tree.predict(x);
            }
            let valid_loss = valid.map(|(vx, vy)| {
                for (s, x) in valid_scores.iter_mut().zip(vx) {
                    *s += tree.predict(x);
                }
                self.eval_loss(vy, &valid_scores)
            });
            if gef_trace::enabled() {
                gef_trace::counter!("forest.trees_grown").incr();
                let mut fields = vec![
                    ("round", (iter + 1) as f64),
                    ("num_leaves", tree.num_leaves() as f64),
                    ("train_loss", self.eval_loss(ys, &scores)),
                ];
                if let Some(vl) = valid_loss {
                    fields.push(("valid_loss", vl));
                }
                gef_trace::global().event("forest.round", &fields);
            }
            trees.push(tree);
            if let Some(loss) = valid_loss {
                if loss < best_loss - 1e-12 {
                    best_loss = loss;
                    best_iter = iter + 1;
                }
                if let Some(rounds) = self.params.early_stopping_rounds {
                    if iter + 1 - best_iter >= rounds {
                        break;
                    }
                }
            }
        }
        if valid.is_some() && self.params.early_stopping_rounds.is_some() {
            trees.truncate(best_iter.max(1));
        }
        Ok(Forest::new(
            trees,
            base_score,
            1.0,
            self.params.objective,
            num_features,
        ))
    }

    /// First/second-order derivatives of the loss w.r.t. raw scores.
    fn compute_gradients(&self, ys: &[f64], scores: &[f64], grad: &mut [f64], hess: &mut [f64]) {
        match self.params.objective {
            Objective::RegressionL2 => {
                for i in 0..ys.len() {
                    grad[i] = scores[i] - ys[i];
                    hess[i] = 1.0;
                }
            }
            Objective::BinaryLogistic => {
                for i in 0..ys.len() {
                    let p = sigmoid(scores[i]);
                    grad[i] = p - ys[i];
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                }
            }
        }
    }

    /// Mean loss on the response scale (RMSE² for L2, log-loss for binary).
    fn eval_loss(&self, ys: &[f64], scores: &[f64]) -> f64 {
        match self.params.objective {
            Objective::RegressionL2 => {
                ys.iter()
                    .zip(scores)
                    .map(|(y, s)| (y - s) * (y - s))
                    .sum::<f64>()
                    / ys.len() as f64
            }
            Objective::BinaryLogistic => {
                ys.iter()
                    .zip(scores)
                    .map(|(&y, &s)| {
                        let p = sigmoid(s).clamp(1e-12, 1.0 - 1e-12);
                        -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
                    })
                    .sum::<f64>()
                    / ys.len() as f64
            }
        }
    }

    fn sample_bag(&self, n: usize, rng: &mut Rng) -> Vec<u32> {
        if self.params.bagging_fraction >= 1.0 {
            return (0..n as u32).collect();
        }
        let k = ((n as f64 * self.params.bagging_fraction).round() as usize).clamp(1, n);
        let mut idx: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }

    fn sample_features(&self, m: usize, rng: &mut Rng) -> Vec<usize> {
        if self.params.feature_fraction >= 1.0 {
            return (0..m).collect();
        }
        let k = ((m as f64 * self.params.feature_fraction).round() as usize).clamp(1, m);
        let mut idx: Vec<usize> = (0..m).collect();
        rng.shuffle(&mut idx);
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    /// Grow one tree leaf-wise on the binned dataset. Fallible only
    /// through the parallel dispatch (worker panic / cancellation).
    fn grow_tree(
        &self,
        binned: &BinnedDataset,
        grad: &[f64],
        hess: &[f64],
        bag: &[u32],
        feats: &[usize],
    ) -> Result<Tree> {
        let p = &self.params;
        // Histogram layout: offsets[f] .. offsets[f]+3*num_bins(f).
        let mut offsets = Vec::with_capacity(binned.num_features() + 1);
        let mut acc = 0usize;
        for fb in &binned.features {
            offsets.push(acc);
            acc += 3 * fb.num_bins();
        }
        offsets.push(acc);
        let hist_len = acc;
        // Telemetry: split the tree-growth cost into its two halves
        // (histogram construction vs split-candidate scanning). The
        // accumulators stay thread-local to this call and are flushed
        // once per tree, so the hot loops see no atomics.
        let traced = gef_trace::enabled();
        let mut hist_ns = 0u64;
        let mut split_ns = 0u64;

        let mut tree = Tree {
            nodes: vec![Node::leaf(0.0, bag.len() as u32)],
        };
        let (root_g, root_h) = bag.iter().fold((0.0, 0.0), |(g, h), &i| {
            (g + grad[i as usize], h + hess[i as usize])
        });
        let mut root = LeafState {
            node_idx: 0,
            rows: bag.to_vec(),
            sum_g: root_g,
            sum_h: root_h,
            hist: vec![0.0; hist_len],
            best: None,
        };
        timed(traced, &mut hist_ns, || {
            build_hist(
                binned,
                grad,
                hess,
                &root.rows,
                &mut root.hist,
                &offsets,
                feats,
            )
        })?;
        root.best = timed(traced, &mut split_ns, || {
            self.find_best_split(binned, &root, &offsets, feats)
        })?;
        let mut leaves: Vec<LeafState> = vec![root];

        while leaves.len() < p.num_leaves {
            // Pick the splittable leaf with the largest gain.
            let Some((li, split)) = leaves
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.best.map(|b| (i, b)))
                .max_by(|a, b| a.1.gain.total_cmp(&b.1.gain))
            else {
                break;
            };
            let leaf = leaves.swap_remove(li);

            // Partition rows on the chosen bin.
            let fbins = &binned.bins[split.feature];
            let mut left_rows = Vec::with_capacity(leaf.rows.len() / 2);
            let mut right_rows = Vec::with_capacity(leaf.rows.len() / 2);
            for &r in &leaf.rows {
                if (fbins[r as usize] as usize) <= split.bin {
                    left_rows.push(r);
                } else {
                    right_rows.push(r);
                }
            }
            debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());

            // Histogram subtraction: build the smaller child, derive the
            // larger from the parent.
            let build_left_small = left_rows.len() <= right_rows.len();
            let mut small_hist = vec![0.0; hist_len];
            let small_rows = if build_left_small {
                &left_rows
            } else {
                &right_rows
            };
            timed(traced, &mut hist_ns, || {
                build_hist(
                    binned,
                    grad,
                    hess,
                    small_rows,
                    &mut small_hist,
                    &offsets,
                    feats,
                )
            })?;
            let mut large_hist = leaf.hist; // reuse parent allocation
            for (lh, &sh) in large_hist.iter_mut().zip(&small_hist) {
                *lh -= sh;
            }
            let (left_hist, right_hist) = if build_left_small {
                (small_hist, large_hist)
            } else {
                (large_hist, small_hist)
            };

            // Materialize the split in the tree.
            let left_node = tree.nodes.len() as u32;
            let right_node = left_node + 1;
            let (lg, lh2): (f64, f64) = left_rows.iter().fold((0.0, 0.0), |(g, h), &i| {
                (g + grad[i as usize], h + hess[i as usize])
            });
            let (rg, rh2) = (leaf.sum_g - lg, leaf.sum_h - lh2);
            tree.nodes.push(Node::leaf(0.0, left_rows.len() as u32));
            tree.nodes.push(Node::leaf(0.0, right_rows.len() as u32));
            let parent = &mut tree.nodes[leaf.node_idx];
            parent.feature = split.feature as i32;
            parent.threshold = split.threshold;
            parent.left = left_node;
            parent.right = right_node;
            parent.gain = split.gain;

            let mut left_leaf = LeafState {
                node_idx: left_node as usize,
                rows: left_rows,
                sum_g: lg,
                sum_h: lh2,
                hist: left_hist,
                best: None,
            };
            let mut right_leaf = LeafState {
                node_idx: right_node as usize,
                rows: right_rows,
                sum_g: rg,
                sum_h: rh2,
                hist: right_hist,
                best: None,
            };
            left_leaf.best = timed(traced, &mut split_ns, || {
                self.find_best_split(binned, &left_leaf, &offsets, feats)
            })?;
            right_leaf.best = timed(traced, &mut split_ns, || {
                self.find_best_split(binned, &right_leaf, &offsets, feats)
            })?;
            leaves.push(left_leaf);
            leaves.push(right_leaf);
        }
        if traced {
            gef_trace::global().record_value("forest.hist_build_ns", hist_ns);
            gef_trace::global().record_value("forest.split_search_ns", split_ns);
        }

        // Finalize leaf values with shrinkage.
        for leaf in &leaves {
            let node = &mut tree.nodes[leaf.node_idx];
            debug_assert!(node.is_leaf());
            node.value = -p.learning_rate * leaf.sum_g / (leaf.sum_h + p.lambda_l2);
        }
        Ok(tree)
    }

    /// Best split over all (feature, bin) candidates of a leaf's
    /// histogram.
    ///
    /// Dispatches the scan over ascending feature chunks on the gef-par
    /// pool when the leaf has enough candidate bins to amortize it. The
    /// parallel result is bit-identical to the serial scan: chunk
    /// boundaries are fixed by `feats.len()` alone and [`better_split`]
    /// folds chunk winners left-to-right keeping the earlier (lower
    /// feature index) candidate on exact gain ties — the same
    /// first-best rule the serial loop applies.
    fn find_best_split(
        &self,
        binned: &BinnedDataset,
        leaf: &LeafState,
        offsets: &[usize],
        feats: &[usize],
    ) -> Result<Option<SplitInfo>> {
        if leaf.rows.len() < 2 * self.params.min_data_in_leaf {
            return Ok(None);
        }
        let total_bins: usize = feats.iter().map(|&f| binned.features[f].num_bins()).sum();
        if total_bins < SPLIT_PAR_MIN_BINS || gef_par::threads() <= 1 {
            return Ok(self.scan_split_candidates(binned, leaf, offsets, feats));
        }
        Ok(gef_par::map_reduce(
            feats.len(),
            gef_par::Options::default().with_label("forest.split_search"),
            |r| self.scan_split_candidates(binned, leaf, offsets, &feats[r]),
            better_split,
        )?
        .flatten())
    }

    /// Serial scan of a contiguous run of the leaf's candidate features
    /// (first-best kept on gain ties).
    fn scan_split_candidates(
        &self,
        binned: &BinnedDataset,
        leaf: &LeafState,
        offsets: &[usize],
        feats: &[usize],
    ) -> Option<SplitInfo> {
        let p = &self.params;
        let lam = p.lambda_l2;
        let parent_score = leaf.sum_g * leaf.sum_g / (leaf.sum_h + lam);
        let total_count = leaf.rows.len() as f64;
        let mut best: Option<SplitInfo> = None;
        for &f in feats {
            let nb = binned.features[f].num_bins();
            if nb < 2 {
                continue;
            }
            let base = offsets[f];
            let mut gl = 0.0;
            let mut hl = 0.0;
            let mut cl = 0.0;
            // Split candidates sit between bin b and b+1 for b in 0..nb-1.
            for b in 0..nb - 1 {
                gl += leaf.hist[base + 3 * b];
                hl += leaf.hist[base + 3 * b + 1];
                cl += leaf.hist[base + 3 * b + 2];
                let cr = total_count - cl;
                if (cl as usize) < p.min_data_in_leaf {
                    continue;
                }
                if (cr as usize) < p.min_data_in_leaf {
                    break;
                }
                let gr = leaf.sum_g - gl;
                let hr = leaf.sum_h - hl;
                let gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score);
                if gain > p.min_gain_to_split && best.is_none_or(|bst| gain > bst.gain) {
                    best = Some(SplitInfo {
                        gain,
                        feature: f,
                        bin: b,
                        threshold: binned.features[f].uppers[b],
                    });
                }
            }
        }
        best
    }
}

/// Run `f`, adding its wall time to `acc` when `traced` is set.
#[inline]
fn timed<T>(traced: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if traced {
        let t = std::time::Instant::now();
        let out = f();
        *acc += t.elapsed().as_nanos() as u64;
        out
    } else {
        f()
    }
}

/// Minimum `rows × features` work for a histogram build to dispatch to
/// the gef-par pool. A latency threshold only — it never changes values.
const HIST_PAR_MIN_WORK: usize = 1 << 14;

/// Minimum total candidate bins for a split search to dispatch to the
/// gef-par pool.
const SPLIT_PAR_MIN_BINS: usize = 1 << 12;

/// Ordered combiner for chunk-local split winners: the later candidate
/// replaces only on *strictly* greater gain, so folding ascending
/// feature chunks left-to-right keeps the lowest-feature-index winner
/// on exact ties — identical to the serial first-best scan.
fn better_split(a: Option<SplitInfo>, b: Option<SplitInfo>) -> Option<SplitInfo> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if y.gain > x.gain { y } else { x }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Accumulate (sum_g, sum_h, count) histograms for the given rows.
///
/// Dispatches over feature chunks on the gef-par pool when the
/// `rows × features` work is large enough. Each chunk owns a disjoint
/// `&mut` region of `hist` (features are ascending, so the regions are
/// carved with `split_at_mut`) and accumulates its slots in the same
/// row order as the serial loop — the parallel build is bit-identical.
fn build_hist(
    binned: &BinnedDataset,
    grad: &[f64],
    hess: &[f64],
    rows: &[u32],
    hist: &mut [f64],
    offsets: &[usize],
    feats: &[usize],
) -> Result<()> {
    if rows.len().saturating_mul(feats.len()) < HIST_PAR_MIN_WORK || gef_par::threads() <= 1 {
        build_hist_serial(binned, grad, hess, rows, hist, offsets, feats);
        return Ok(());
    }
    // One task per fixed chunk of the (ascending) sampled features. A
    // chunk's histogram region spans from its first feature's offset to
    // the end of its last feature's block; gaps from unsampled features
    // inside a region are simply never written.
    let ranges = gef_par::chunk_ranges(feats.len());
    let mut tasks: Vec<(&[usize], usize, &mut [f64])> = Vec::with_capacity(ranges.len());
    let mut rest = hist;
    let mut cursor = 0usize;
    for r in &ranges {
        let lo = offsets[feats[r.start]];
        let hi = offsets[feats[r.end - 1] + 1];
        let (_, tail) = rest.split_at_mut(lo - cursor);
        let (region, tail) = tail.split_at_mut(hi - lo);
        rest = tail;
        cursor = hi;
        tasks.push((&feats[r.clone()], lo, region));
    }
    gef_par::for_each_task(
        tasks,
        gef_par::Options::default().with_label("forest.hist_build"),
        |_, (chunk_feats, region_start, region)| {
            for &f in chunk_feats {
                let base = offsets[f] - region_start;
                let fbins = &binned.bins[f];
                for &r in rows {
                    let i = r as usize;
                    let slot = base + 3 * fbins[i] as usize;
                    region[slot] += grad[i];
                    region[slot + 1] += hess[i];
                    region[slot + 2] += 1.0;
                }
            }
        },
    )?;
    Ok(())
}

fn build_hist_serial(
    binned: &BinnedDataset,
    grad: &[f64],
    hess: &[f64],
    rows: &[u32],
    hist: &mut [f64],
    offsets: &[usize],
    feats: &[usize],
) {
    for &f in feats {
        let base = offsets[f];
        let fbins = &binned.bins[f];
        for &r in rows {
            let i = r as usize;
            let slot = base + 3 * fbins[i] as usize;
            hist[slot] += grad[i];
            hist[slot + 1] += hess[i];
            hist[slot + 2] += 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_xy(n: usize, f: impl Fn(&[f64]) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Deterministic pseudo-random 2-D inputs.
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next()]).collect();
        let ys = xs.iter().map(|x| f(x)).collect();
        (xs, ys)
    }

    #[test]
    fn fits_linear_function() {
        let (xs, ys) = grid_xy(500, |x| 2.0 * x[0] - 1.0 * x[1]);
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 150,
            num_leaves: 16,
            learning_rate: 0.1,
            min_data_in_leaf: 5,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        let rmse: f64 = (xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (f.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64)
            .sqrt();
        assert!(rmse < 0.05, "rmse={rmse}");
    }

    #[test]
    fn fits_step_function_exactly_enough() {
        let (xs, ys) = grid_xy(400, |x| if x[0] > 0.5 { 1.0 } else { -1.0 });
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 30,
            num_leaves: 4,
            learning_rate: 0.3,
            min_data_in_leaf: 5,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        assert!((f.predict(&[0.25, 0.5]) + 1.0).abs() < 0.05);
        assert!((f.predict(&[0.75, 0.5]) - 1.0).abs() < 0.05);
    }

    #[test]
    fn tree_structure_is_valid_with_consistent_counts() {
        let (xs, ys) = grid_xy(300, |x| x[0] * x[1]);
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 10,
            num_leaves: 8,
            min_data_in_leaf: 10,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        assert!(!f.trees.is_empty());
        for t in &f.trees {
            t.validate().expect("valid tree");
            assert!(t.num_leaves() <= 8);
            // Root count covers the whole (unbagged) training set.
            assert_eq!(t.nodes[0].count, 300);
        }
    }

    #[test]
    fn gain_is_positive_on_internal_nodes() {
        let (xs, ys) = grid_xy(300, |x| (x[0] * 6.0).sin());
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 5,
            num_leaves: 8,
            min_data_in_leaf: 10,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        for t in &f.trees {
            for n in t.nodes.iter().filter(|n| !n.is_leaf()) {
                assert!(n.gain > 0.0);
            }
        }
    }

    #[test]
    fn binary_objective_learns_separator() {
        let (xs, ys) = grid_xy(600, |x| if x[0] + x[1] > 1.0 { 1.0 } else { 0.0 });
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 60,
            num_leaves: 8,
            learning_rate: 0.2,
            min_data_in_leaf: 10,
            objective: Objective::BinaryLogistic,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        assert!(f.predict_proba(&[0.9, 0.9]) > 0.9);
        assert!(f.predict_proba(&[0.1, 0.1]) < 0.1);
        // predict() matches predict_proba() for classification.
        assert_eq!(f.predict(&[0.9, 0.9]), f.predict_proba(&[0.9, 0.9]));
    }

    #[test]
    fn early_stopping_truncates() {
        let (xs, ys) = grid_xy(400, |x| 2.0 * x[0]);
        let (vx, vy) = grid_xy(100, |x| 2.0 * x[0]);
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 500,
            num_leaves: 4,
            learning_rate: 0.3,
            min_data_in_leaf: 5,
            early_stopping_rounds: Some(10),
            ..Default::default()
        })
        .fit_with_valid(&xs, &ys, &vx, &vy)
        .unwrap();
        assert!(f.trees.len() < 500, "early stopping never kicked in");
        assert!(!f.trees.is_empty());
    }

    #[test]
    fn bagging_and_feature_fraction_still_learn() {
        let (xs, ys) = grid_xy(500, |x| x[0] - x[1]);
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 100,
            num_leaves: 8,
            learning_rate: 0.1,
            min_data_in_leaf: 5,
            bagging_fraction: 0.7,
            feature_fraction: 0.5,
            seed: 3,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        let rmse: f64 = (xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (f.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64)
            .sqrt();
        assert!(rmse < 0.15, "rmse={rmse}");
    }

    #[test]
    fn constant_labels_yield_base_score_only() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let ys = vec![5.0; 100];
        let f = GbdtTrainer::new(GbdtParams::default())
            .fit(&xs, &ys)
            .unwrap();
        assert!(f.trees.is_empty());
        assert_eq!(f.predict(&[42.0]), 5.0);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let t = GbdtTrainer::new(GbdtParams::default());
        assert!(t.fit(&[], &[]).is_err());
        assert!(t.fit(&[vec![1.0]], &[1.0, 2.0]).is_err());
        let bad = GbdtTrainer::new(GbdtParams {
            num_leaves: 1,
            ..Default::default()
        });
        assert!(bad.fit(&[vec![1.0]], &[1.0]).is_err());
        // Non-binary labels with logistic objective.
        let t = GbdtTrainer::new(GbdtParams {
            objective: Objective::BinaryLogistic,
            ..Default::default()
        });
        assert!(t.fit(&[vec![1.0], vec![2.0]], &[0.5, 1.0]).is_err());
    }

    #[test]
    fn lambda_l2_shrinks_leaf_values() {
        let (xs, ys) = grid_xy(300, |x| 5.0 * x[0]);
        let fit_with = |lambda_l2: f64| {
            GbdtTrainer::new(GbdtParams {
                num_trees: 3,
                num_leaves: 8,
                learning_rate: 1.0,
                min_data_in_leaf: 5,
                lambda_l2,
                ..Default::default()
            })
            .fit(&xs, &ys)
            .unwrap()
        };
        let plain = fit_with(0.0);
        let ridge = fit_with(100.0);
        let max_leaf = |f: &Forest| {
            f.trees
                .iter()
                .flat_map(|t| t.nodes.iter())
                .filter(|n| n.is_leaf())
                .map(|n| n.value.abs())
                .fold(0.0f64, f64::max)
        };
        assert!(max_leaf(&ridge) < max_leaf(&plain));
    }

    #[test]
    fn min_gain_to_split_prunes() {
        let (xs, ys) = grid_xy(300, |x| x[0]);
        let loose = GbdtTrainer::new(GbdtParams {
            num_trees: 1,
            num_leaves: 16,
            min_data_in_leaf: 5,
            min_gain_to_split: 1e-10,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        let strict = GbdtTrainer::new(GbdtParams {
            num_trees: 1,
            num_leaves: 16,
            min_data_in_leaf: 5,
            min_gain_to_split: 1e3,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        let leaves = |f: &Forest| f.trees.first().map_or(0, |t| t.num_leaves());
        assert!(leaves(&strict) <= leaves(&loose));
    }

    #[test]
    fn max_bins_two_still_learns_step() {
        let (xs, ys) = grid_xy(200, |x| f64::from(x[0] > 0.5));
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 20,
            num_leaves: 4,
            learning_rate: 0.5,
            min_data_in_leaf: 5,
            max_bins: 2,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        // Only one candidate threshold per feature, but boosting still
        // separates the halves.
        assert!(f.predict(&[0.9, 0.5]) > 0.6);
        assert!(f.predict(&[0.1, 0.5]) < 0.4);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = grid_xy(200, |x| x[0]);
        let p = GbdtParams {
            num_trees: 20,
            bagging_fraction: 0.8,
            feature_fraction: 1.0,
            min_data_in_leaf: 5,
            seed: 11,
            ..Default::default()
        };
        let f1 = GbdtTrainer::new(p.clone()).fit(&xs, &ys).unwrap();
        let f2 = GbdtTrainer::new(p).fit(&xs, &ys).unwrap();
        assert_eq!(f1.predict(&[0.37, 0.91]), f2.predict(&[0.37, 0.91]));
    }
}
