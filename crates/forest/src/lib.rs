//! # gef-forest
//!
//! Decision-tree forests built from scratch: the substrate the GEF paper
//! takes as input. The paper trains LightGBM gradient-boosted forests;
//! this crate provides an equivalent histogram-based, leaf-wise GBDT
//! trainer ([`GbdtTrainer`]), a Random Forest trainer
//! ([`random_forest::RandomForestTrainer`], the paper's future-work
//! target), fast single/batch prediction, a LightGBM-style text model
//! format plus JSON (de)serialization ([`io`]), and the model statistics
//! GEF consumes: per-node split gain, per-node cover, and the full
//! per-feature threshold lists ([`importance`]).
//!
//! ## Quick example
//!
//! ```
//! use gef_forest::{GbdtParams, GbdtTrainer, Objective};
//!
//! // y = 3·x0 + step on x1
//! let xs: Vec<Vec<f64>> = (0..200)
//!     .map(|i| vec![i as f64 / 200.0, ((i * 7) % 13) as f64 / 13.0])
//!     .collect();
//! let ys: Vec<f64> = xs
//!     .iter()
//!     .map(|x| 3.0 * x[0] + if x[1] > 0.5 { 1.0 } else { 0.0 })
//!     .collect();
//! let params = GbdtParams {
//!     num_trees: 50,
//!     num_leaves: 8,
//!     learning_rate: 0.2,
//!     ..GbdtParams::default()
//! };
//! let forest = GbdtTrainer::new(params).fit(&xs, &ys).unwrap();
//! let pred = forest.predict(&[0.5, 0.9]);
//! assert!((pred - 2.5).abs() < 0.3);
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod binning;
pub mod codec;
pub mod gbdt;
pub mod importance;
pub mod io;
pub mod kernel;
pub mod layout;
pub mod random_forest;
pub mod tree;
pub mod tune;

pub use gbdt::{GbdtParams, GbdtTrainer};
pub use layout::FlatForest;
pub use random_forest::{RandomForestParams, RandomForestTrainer};
pub use tree::{Node, Tree};

use std::sync::Arc;

/// Training / prediction objective of a forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Squared-error regression; raw scores are predictions.
    RegressionL2,
    /// Binary classification with logistic loss; raw scores are
    /// log-odds, [`Forest::predict_proba`] applies the sigmoid.
    BinaryLogistic,
}

impl Objective {
    /// Apply the inverse link to a raw margin score.
    #[inline]
    pub fn transform(&self, raw: f64) -> f64 {
        match self {
            Objective::RegressionL2 => raw,
            Objective::BinaryLogistic => sigmoid(raw),
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// An ensemble of decision trees with a base (bias) score.
///
/// Raw prediction is `base_score + scale · Σ_t tree_t(x)`; `scale` is 1
/// for GBDT (shrinkage is baked into leaf values at training time) and
/// `1/T` for Random Forests (averaging).
///
/// Construct with [`Forest::new`] — alongside the public model fields
/// the forest carries a private, digest-validated cache of its
/// flattened inference layout ([`FlatForest`]) that the batch
/// prediction entry points build once and reuse (see [`kernel`]).
/// Mutating the public fields in place is still allowed: the cache
/// re-validates against [`Forest::content_digest`] on every kernel
/// dispatch and rebuilds when the model changed.
#[derive(Debug, Clone)]
pub struct Forest {
    /// The member trees.
    pub trees: Vec<Tree>,
    /// Constant added to every raw prediction.
    pub base_score: f64,
    /// Multiplier applied to the summed tree outputs.
    pub scale: f64,
    /// Objective the forest was trained with.
    pub objective: Objective,
    /// Number of input features (width of a feature vector).
    pub num_features: usize,
    /// Cached flattened layout for the branchless kernel.
    layout: layout::LayoutCache,
}

/// Smallest batch the flattened kernel takes over from the walker: the
/// per-call digest validation is O(total nodes), so tiny batches (the
/// single-row service predicts, unit-test probes) stay on the walker
/// where the fixed cost is lower.
const KERNEL_MIN_ROWS: usize = 64;

/// Companion work floor: `rows × trees` below this predicts too few
/// leaves to amortize the digest check plus block setup.
const KERNEL_MIN_WORK: usize = 8192;

/// Rows per cooperative deadline check on the serial kernel path,
/// matching the walker's 1024-row checkpoint stride.
const KERNEL_STRIPE_ROWS: usize = 1024;

/// `[start, end)` stripes of at most [`KERNEL_STRIPE_ROWS`] rows.
fn stripes(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n)
        .step_by(KERNEL_STRIPE_ROWS.max(1))
        .map(move |s| (s, (s + KERNEL_STRIPE_ROWS).min(n)))
}

impl Forest {
    /// Assemble a forest from parts (trainers, parsers, and tests all
    /// construct through here so the layout cache comes along).
    ///
    /// ```
    /// use gef_forest::{Forest, Objective, Tree};
    ///
    /// let forest = Forest::new(
    ///     vec![Tree::constant(1.0, 1)],
    ///     0.5,
    ///     1.0,
    ///     Objective::RegressionL2,
    ///     0,
    /// );
    /// assert_eq!(forest.predict(&[]), 1.5);
    /// ```
    pub fn new(
        trees: Vec<Tree>,
        base_score: f64,
        scale: f64,
        objective: Objective,
        num_features: usize,
    ) -> Forest {
        Forest {
            trees,
            base_score,
            scale,
            objective,
            num_features,
            layout: layout::LayoutCache::new(),
        }
    }

    /// The forest's flattened inference layout, built on first use and
    /// cached against [`Forest::content_digest`]. `None` when the
    /// structure is outside the kernel's validated invariants (see
    /// [`FlatForest::build`]) — batch prediction then stays on the
    /// recursive walker.
    pub fn flattened(&self) -> Option<Arc<FlatForest>> {
        self.layout.get_or_build(self)
    }

    /// Whether a flattened layout snapshot is currently cached (used by
    /// the `xp_regress` kernel-phase expectation; a cached *rejection*
    /// answers `false`).
    pub fn layout_cached(&self) -> bool {
        self.layout.is_cached()
    }

    /// The cached kernel layout, iff this batch should ride the kernel:
    /// large enough to amortize the digest check, no fault-injection
    /// sites armed (the walker owns the per-row `forest.predict_nan`
    /// hit schedule), and the structure passes kernel validation.
    fn kernel_layout(&self, n_rows: usize) -> Option<Arc<FlatForest>> {
        if n_rows < KERNEL_MIN_ROWS
            || n_rows.saturating_mul(self.trees.len()) < KERNEL_MIN_WORK
            || gef_trace::fault::any_armed()
        {
            return None;
        }
        self.flattened()
    }
    /// Raw margin prediction for a single instance.
    pub fn predict_raw(&self, x: &[f64]) -> f64 {
        debug_assert!(x.len() >= self.num_features);
        if gef_trace::fault::fires("forest.predict_nan") {
            return f64::NAN;
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict(x)).sum();
        self.base_score + self.scale * sum
    }

    /// Prediction on the response scale (identity for regression,
    /// probability for binary classification).
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.objective.transform(self.predict_raw(x))
    }

    /// Probability prediction for binary classification forests.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(self.objective, Objective::BinaryLogistic);
        sigmoid(self.predict_raw(x))
    }

    /// Batch raw predictions.
    ///
    /// Rides the flattened kernel ([`kernel::predict`]) when the
    /// batch clears the kernel work floor; otherwise the per-row walker.
    /// Infallible (no deadline checkpoints) and always serial, matching
    /// its original contract — the pool-dispatched, deadline-aware entry
    /// point is [`Forest::predict_batch`].
    pub fn predict_raw_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        if let Some(flat) = self.kernel_layout(xs.len()) {
            return kernel::predict(&flat, xs, LabelScale::Raw).0;
        }
        xs.iter().map(|x| self.predict_raw(x)).collect()
    }

    /// Whether a batch is large enough to dispatch to the gef-par pool.
    /// Purely a latency threshold — per-row predictions are independent,
    /// so the parallel and serial paths compute identical values.
    #[inline]
    fn batch_is_parallel(&self, n: usize) -> bool {
        n >= 512 && n.saturating_mul(self.trees.len().max(1)) >= (1 << 18)
    }

    /// Batch response-scale predictions, dispatched to the gef-par pool
    /// (fixed chunk boundaries, bit-identical to serial at any thread
    /// count) when the batch is large enough to amortize dispatch.
    ///
    /// Batches that clear the kernel work floor ride the flattened
    /// branchless kernel ([`kernel`]) under the `forest.kernel` timeline
    /// label; small batches, kernel-incompatible structures, and runs
    /// with fault-injection sites armed stay on the per-row recursive
    /// walker. Both paths produce bit-identical predictions (the
    /// differential-oracle suite asserts this).
    ///
    /// Fallible: a hard-deadline trip mid-batch (cooperative checkpoints
    /// between serial row stripes, between chunks on the pool) returns
    /// [`ForestError::DeadlineExceeded`]; a worker panic comes back as
    /// [`ForestError::WorkerPanicked`] instead of unwinding.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.predict_batch_on(xs, LabelScale::Response)
            .map(|(out, _)| out)
    }

    /// Raw margin prediction plus the number of tree nodes visited.
    pub fn predict_raw_counted(&self, x: &[f64]) -> (f64, u64) {
        debug_assert!(x.len() >= self.num_features);
        if gef_trace::fault::fires("forest.predict_nan") {
            return (f64::NAN, 0);
        }
        let mut visited = 0u64;
        let mut sum = 0.0;
        for t in &self.trees {
            let (v, n) = t.predict_counted(x);
            sum += v;
            visited += n;
        }
        (self.base_score + self.scale * sum, visited)
    }

    /// Batch response-scale predictions plus the total number of tree
    /// nodes visited across the batch.
    ///
    /// Same parallelization policy as [`Forest::predict_batch`]; the
    /// visit count feeds the `forest.nodes_visited` telemetry counter
    /// during D* labeling. The kernel path reproduces the walker's
    /// exact visit totals from the layout's per-node depth table.
    pub fn predict_batch_counted(&self, xs: &[Vec<f64>]) -> Result<(Vec<f64>, u64)> {
        self.predict_batch_on(xs, LabelScale::Counted)
    }

    /// [`Forest::predict_batch`] on any label scale.
    fn predict_batch_on(&self, xs: &[Vec<f64>], scale: LabelScale) -> Result<(Vec<f64>, u64)> {
        let mut out = vec![0.0; xs.len()];
        let visited = LabelPlan::new(self, xs.len(), None, scale).run(&[], xs, &mut out)?;
        Ok((out, visited))
    }

    /// A labelling plan for a `D*` of `n_rows` rows whose cells are
    /// drawn from `domains` (one per feature; an empty domain stands
    /// for the constant 0.0). The caller labels `D*` one block of rows
    /// at a time with [`DomainLabeler::label`], passing each block both
    /// as domain codes and as materialized rows.
    ///
    /// The plan is fixed here, once per `D*`: the kernel reads each
    /// cell's rank from a per-feature code table (built now, against
    /// the layout's own threshold tables) when [`Forest::predict_batch`]
    /// would take the kernel for `n_rows` rows and every domain fits a
    /// `u16` code ([`kernel::MAX_CODED_DOMAIN`] values at most);
    /// otherwise each block takes `predict_batch`'s path on its rows.
    /// Serial or pool is `predict_batch`'s rule for `n_rows`. Every
    /// route labels bit-identically to the walker.
    ///
    /// ```
    /// use gef_forest::{Forest, LabelScale, Node, Objective, Tree};
    ///
    /// let tree = Tree {
    ///     nodes: vec![
    ///         Node::split(0, 0.5, 1, 2, 1.0, 4),
    ///         Node::leaf(-1.0, 2),
    ///         Node::leaf(1.0, 2),
    ///     ],
    /// };
    /// let trees = vec![tree; 128];
    /// let forest = Forest::new(trees, 0.0, 1.0, Objective::RegressionL2, 1);
    /// let domains = vec![vec![0.25, 0.5, 0.75]];
    /// let labeler = forest.domain_labeler(&domains, 64, LabelScale::Response);
    /// assert!(labeler.uses_codes());
    /// let codes: Vec<u16> = (0..64).map(|i| (i % 3) as u16).collect();
    /// let rows: Vec<Vec<f64>> = codes.iter().map(|&k| vec![domains[0][k as usize]]).collect();
    /// let mut labels = vec![0.0; 64];
    /// labeler.label(&codes, &rows, &mut labels).unwrap();
    /// assert_eq!(labels, forest.predict_batch(&rows).unwrap());
    /// ```
    pub fn domain_labeler(
        &self,
        domains: &[Vec<f64>],
        n_rows: usize,
        scale: LabelScale,
    ) -> DomainLabeler<'_> {
        DomainLabeler(LabelPlan::new(self, n_rows, Some(domains), scale))
    }

    /// Total number of nodes (internal + leaves) across all trees.
    pub fn num_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.nodes.len()).sum()
    }

    /// Total number of leaves across all trees.
    pub fn num_leaves(&self) -> usize {
        self.trees
            .iter()
            .map(|t| t.nodes.iter().filter(|n| n.is_leaf()).count())
            .sum()
    }

    /// Stable 64-bit content digest of the full model structure
    /// (domain-tagged `gef-forest/v1`): every node's split predicate and
    /// leaf value, the base score, scale, and objective. Bit-identical
    /// forests — and only those — digest equal; incident dumps and
    /// explanation provenance use it to tie an artifact to the exact
    /// model that produced it.
    pub fn content_digest(&self) -> u64 {
        let mut d = gef_trace::hash::Digest::new("gef-forest/v1");
        d.write_u64(self.num_features as u64);
        d.write_f64(self.base_score);
        d.write_f64(self.scale);
        d.write_str(match self.objective {
            Objective::RegressionL2 => "regression_l2",
            Objective::BinaryLogistic => "binary_logistic",
        });
        d.write_u64(self.trees.len() as u64);
        for tree in &self.trees {
            d.write_u64(tree.nodes.len() as u64);
            for n in &tree.nodes {
                d.write_u64(n.feature as i64 as u64);
                d.write_f64(n.threshold);
                d.write_u64(u64::from(n.left));
                d.write_u64(u64::from(n.right));
                d.write_f64(n.value);
            }
        }
        d.finish()
    }
}

/// What a batch label is: the raw margin, or the response scale with
/// or without the walker's node-visit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelScale {
    /// Raw margin, `base_score + scale · Σ trees` ([`Forest::predict_raw`]).
    Raw,
    /// Response scale ([`Forest::predict`]).
    Response,
    /// Response scale, plus the node visits the walker would count
    /// ([`Forest::predict_raw_counted`]).
    Counted,
}

/// How a plan labels rows.
enum Route {
    /// The per-row recursive walker.
    Walker,
    /// The kernel, ranking the materialized `f64` rows.
    Rows(Arc<FlatForest>),
    /// The kernel, reading ranks from domain-code tables.
    Codes(Arc<FlatForest>, kernel::CodeTables),
}

/// A route, a scale and the serial-or-pool choice, fixed for a batch
/// or for a whole `D*`.
struct LabelPlan<'a> {
    forest: &'a Forest,
    route: Route,
    parallel: bool,
    scale: LabelScale,
}

impl<'a> LabelPlan<'a> {
    /// [`Forest::predict_batch`]'s plan for `n_rows` rows: the kernel
    /// when the layout is valid, no fault is armed and the batch clears
    /// the kernel floor, else the walker; the pool when the batch is
    /// large enough. With `domains`, the kernel reads code tables
    /// instead of the rows whenever every domain fits a `u16` code.
    fn new(
        forest: &'a Forest,
        n_rows: usize,
        domains: Option<&[Vec<f64>]>,
        scale: LabelScale,
    ) -> LabelPlan<'a> {
        let route = match forest.kernel_layout(n_rows) {
            Some(flat) => match domains.and_then(|d| kernel::CodeTables::build(&flat, d)) {
                Some(tables) => Route::Codes(flat, tables),
                None => Route::Rows(flat),
            },
            None => Route::Walker,
        };
        LabelPlan {
            forest,
            route,
            parallel: forest.batch_is_parallel(n_rows),
            scale,
        }
    }

    /// Label every row into `out` (`codes` is read only on the code
    /// route): serial stripes of [`KERNEL_STRIPE_ROWS`] rows with a
    /// hard-deadline check before each, or fixed chunks on the pool.
    /// Returns the node-visit total for [`LabelScale::Counted`].
    fn run(&self, codes: &[u16], xs: &[Vec<f64>], out: &mut [f64]) -> Result<u64> {
        if !self.parallel {
            let mut visited = 0u64;
            for (start, end) in stripes(out.len()) {
                if gef_trace::budget::hard_exceeded() {
                    return Err(ForestError::DeadlineExceeded { at: "predict" });
                }
                visited += self.span(codes, xs, start, &mut out[start..end]);
            }
            return Ok(visited);
        }
        let label = match self.route {
            Route::Walker => "forest.predict_batch",
            _ => "forest.kernel",
        };
        let visited = std::sync::atomic::AtomicU64::new(0);
        gef_par::for_each_chunk_mut(
            out,
            gef_par::Options::coarse().with_label(label),
            |_, start, chunk| {
                let local = self.span(codes, xs, start, chunk);
                visited.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
            },
        )?;
        Ok(visited.into_inner())
    }

    /// Label rows `start..start + out.len()` on this thread.
    fn span(&self, codes: &[u16], xs: &[Vec<f64>], start: usize, out: &mut [f64]) -> u64 {
        match &self.route {
            Route::Rows(flat) => kernel::chunk(flat, &kernel::Rows(xs), start, out, self.scale),
            Route::Codes(flat, tables) => {
                let src = kernel::Codes { codes, tables };
                kernel::chunk(flat, &src, start, out, self.scale)
            }
            Route::Walker => {
                let forest = self.forest;
                let mut visited = 0u64;
                for (o, x) in out.iter_mut().zip(&xs[start..]) {
                    *o = match self.scale {
                        LabelScale::Raw => forest.predict_raw(x),
                        LabelScale::Response => forest.predict(x),
                        LabelScale::Counted => {
                            let (raw, n) = forest.predict_raw_counted(x);
                            visited += n;
                            forest.objective.transform(raw)
                        }
                    };
                }
                visited
            }
        }
    }
}

/// Labels one `D*` block by block along a plan fixed once per `D*`
/// (see [`Forest::domain_labeler`]).
pub struct DomainLabeler<'a>(LabelPlan<'a>);

impl DomainLabeler<'_> {
    /// Whether blocks are labelled from their domain codes (rather than
    /// from their materialized rows).
    pub fn uses_codes(&self) -> bool {
        matches!(self.0.route, Route::Codes(..))
    }

    /// Label one block into `out` on the labeler's scale and return the
    /// walker-equivalent node visits ([`LabelScale::Counted`]; 0
    /// otherwise). `codes` holds the block row-major, `rows.len() ×
    /// num_features` domain indices; `rows` holds the same block as
    /// feature values. Only the route's own input is read, so `codes`
    /// may be empty when the labeler [`uses_codes`](Self::uses_codes)
    /// is false.
    ///
    /// # Errors
    /// [`ForestError::InvalidData`] when `out` and `rows` differ in
    /// length or the code route gets the wrong number of codes;
    /// [`ForestError::DeadlineExceeded`] and
    /// [`ForestError::WorkerPanicked`] as in [`Forest::predict_batch`].
    ///
    /// # Panics
    /// On the code route, if a code is outside its feature's domain;
    /// on the row routes, if a row is narrower than the forest (as
    /// [`Forest::predict_batch`] does).
    pub fn label(&self, codes: &[u16], rows: &[Vec<f64>], out: &mut [f64]) -> Result<u64> {
        let nf = self.0.forest.num_features;
        if out.len() != rows.len() || (self.uses_codes() && codes.len() != rows.len() * nf) {
            return Err(ForestError::InvalidData(format!(
                "a block of {} labels, {} rows and {} codes over {nf} features",
                out.len(),
                rows.len(),
                codes.len()
            )));
        }
        self.0.run(codes, rows, out)
    }
}

/// Errors produced while training or parsing a forest.
#[derive(Debug, Clone, PartialEq)]
pub enum ForestError {
    /// Training data is empty or inconsistently shaped.
    InvalidData(String),
    /// Invalid hyper-parameter combination.
    InvalidParams(String),
    /// Model parsing failed.
    Parse(String),
    /// The run's hard wall-clock deadline ([`gef_trace::budget`]) passed
    /// at a cooperative checkpoint (per boosting round or per predict
    /// chunk).
    DeadlineExceeded {
        /// Checkpoint that observed the trip (`"train"`, `"predict"`).
        at: &'static str,
    },
    /// A parallel worker panicked during training or batch prediction;
    /// carries the first panic's payload (see `gef_par::ParError`).
    WorkerPanicked(String),
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::InvalidData(m) => write!(f, "invalid training data: {m}"),
            ForestError::InvalidParams(m) => write!(f, "invalid parameters: {m}"),
            ForestError::Parse(m) => write!(f, "model parse error: {m}"),
            ForestError::DeadlineExceeded { at } => {
                write!(f, "hard deadline exceeded in the forest (at {at})")
            }
            ForestError::WorkerPanicked(payload) => {
                write!(f, "parallel worker panicked in the forest: {payload}")
            }
        }
    }
}

impl std::error::Error for ForestError {}

impl From<gef_par::ParError> for ForestError {
    fn from(e: gef_par::ParError) -> Self {
        match e {
            gef_par::ParError::TaskPanicked { payload } => ForestError::WorkerPanicked(payload),
            gef_par::ParError::Cancelled => ForestError::DeadlineExceeded { at: "parallel" },
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ForestError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_prediction_matches_plain() {
        let tree = Tree {
            nodes: vec![
                Node::split(0, 0.5, 1, 2, 1.0, 4),
                Node::leaf(-1.0, 2),
                Node::leaf(1.0, 2),
            ],
        };
        let forest = Forest::new(
            vec![tree.clone(), tree],
            0.25,
            1.0,
            Objective::RegressionL2,
            1,
        );
        let xs = vec![vec![0.2], vec![0.8]];
        let (preds, visited) = forest.predict_batch_counted(&xs).unwrap();
        assert_eq!(preds, forest.predict_batch(&xs).unwrap());
        // 2 rows × 2 trees × 2 nodes per root-to-leaf path.
        assert_eq!(visited, 8);
        let (raw, n) = forest.predict_raw_counted(&xs[0]);
        assert_eq!(raw, forest.predict_raw(&xs[0]));
        assert_eq!(n, 4);
    }

    #[test]
    fn content_digest_tracks_structure() {
        let tree = Tree {
            nodes: vec![
                Node::split(0, 0.5, 1, 2, 1.0, 4),
                Node::leaf(-1.0, 2),
                Node::leaf(1.0, 2),
            ],
        };
        let forest = Forest::new(vec![tree], 0.25, 1.0, Objective::RegressionL2, 1);
        let a = forest.content_digest();
        assert_eq!(a, forest.clone().content_digest(), "digest is stable");
        let mut tweaked = forest.clone();
        tweaked.trees[0].nodes[0].threshold = 0.5000001;
        assert_ne!(
            a,
            tweaked.content_digest(),
            "threshold change changes digest"
        );
        let mut relabeled = forest;
        relabeled.objective = Objective::BinaryLogistic;
        assert_ne!(
            a,
            relabeled.content_digest(),
            "objective change changes digest"
        );
    }

    #[test]
    fn sigmoid_props() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        // Stable for extreme inputs.
        assert_eq!(sigmoid(-800.0), 0.0);
        assert!((sigmoid(800.0) - 1.0).abs() < 1e-12);
        // Symmetry σ(-x) = 1 - σ(x).
        for &x in &[0.1, 1.5, 7.0] {
            assert!((sigmoid(-x) + sigmoid(x) - 1.0).abs() < 1e-12);
        }
    }
}
