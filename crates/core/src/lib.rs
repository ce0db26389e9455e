//! # gef-core
//!
//! GAM-based Explanation of Forests (GEF) — the paper's contribution.
//!
//! Given a trained forest `T` (and **nothing else**: no training data),
//! GEF builds an interpretable GAM surrogate `Γ` in five steps:
//!
//! 1. **Univariate selection** ([`selection`]): pick the top-`|F'|`
//!    features by accumulated split gain.
//! 2. **Sampling domains** ([`sampling`]): turn each feature's split
//!    thresholds `V_i` into a discrete sampling domain `D_i` with one of
//!    five strategies (*All-Thresholds*, *K-Quantile*, *Equi-Width*,
//!    *K-Means*, *Equi-Size*).
//! 3. **Synthetic dataset** ([`generate`]): sample `N` instances
//!    uniformly from `D_1 × … × D_n` and label them with the forest.
//! 4. **Interaction selection** ([`interactions`]): rank feature pairs
//!    within `F'` with *Pair-Gain*, *Count-Path*, *Gain-Path* or
//!    *H-Stat* and keep the top `|F''|`.
//! 5. **GAM fitting** ([`pipeline`]): cubic P-splines for continuous
//!    features, factor terms for detected categoricals
//!    (`|V_i| < L = 10`), penalized tensor products for `F''`, single
//!    shared λ tuned by GCV.
//!
//! ## Quick example
//!
//! ```
//! use gef_core::{GefConfig, GefExplainer};
//! use gef_forest::{GbdtParams, GbdtTrainer};
//!
//! // A forest someone else trained (we pretend the data is gone).
//! let xs: Vec<Vec<f64>> = (0..500)
//!     .map(|i| vec![(i % 71) as f64 / 71.0, (i % 53) as f64 / 53.0])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 + (x[1] * 6.0).sin()).collect();
//! let forest = GbdtTrainer::new(GbdtParams {
//!     num_trees: 60, num_leaves: 8, learning_rate: 0.2, min_data_in_leaf: 5,
//!     ..Default::default()
//! }).fit(&xs, &ys).unwrap();
//!
//! // Explain it without the data.
//! let config = GefConfig { num_univariate: 2, n_samples: 4000, ..Default::default() };
//! let explanation = GefExplainer::new(config).explain(&forest).unwrap();
//! assert_eq!(explanation.selected_features.len(), 2);
//! let err = (explanation.predict(&[0.5, 0.25]) - forest.predict(&[0.5, 0.25])).abs();
//! assert!(err < 0.35, "surrogate should track the forest, err={err}");
//! ```

// Library code must surface failures as `GefError`, never panic; tests
// are exempt. Local `#[allow]`s mark the few provably-infallible spots.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod generate;
pub mod incident;
pub mod interactions;
pub mod pipeline;
pub mod recovery;
pub mod report;
pub mod reuse;
pub mod sampling;
pub mod selection;

pub use budget::RunBudget;
pub use generate::{CodedDataset, SyntheticDataset};
pub use interactions::InteractionStrategy;
pub use pipeline::{
    GefConfig, GefExplainer, GefExplanation, LocalExplanation, Provenance, StageTimings,
};
pub use recovery::{Degradation, DegradationAction, FitFloor};
pub use report::ExplanationReport;
pub use sampling::SamplingStrategy;

/// Errors produced by the GEF pipeline.
#[derive(Debug)]
pub enum GefError {
    /// The forest has no usable structure (e.g. no split nodes).
    DegenerateForest(String),
    /// Invalid configuration.
    InvalidConfig(String),
    /// Failure in the underlying GAM fit.
    Gam(gef_gam::GamError),
    /// Too many `D*` rows carried non-finite forest labels to fit
    /// anything after scrubbing.
    NonFiniteLabels {
        /// Rows removed by the scrub.
        removed: usize,
        /// Rows before scrubbing.
        total: usize,
    },
    /// Every rung of the degradation ladder failed.
    RecoveryExhausted {
        /// Fit attempts made (full spec + each ladder rung tried).
        attempts: usize,
        /// The last attempt's failure.
        last: String,
    },
    /// The run's hard wall-clock deadline (`GEF_DEADLINE_MS` /
    /// [`budget::RunBudget`]) passed at a cooperative checkpoint.
    /// Already-completed work is abandoned cleanly — never a hang,
    /// never a panic.
    DeadlineExceeded {
        /// The checkpoint that observed the trip (a pipeline stage
        /// name, `"gcv_grid"`, `"pirls"`, `"train"`, `"predict"`, or
        /// `"parallel"` for a mid-region cancellation, or gef-serve's
        /// `"single_flight"` for a request whose deadline passed while
        /// it waited on a concurrent identical run).
        at: &'static str,
    },
    /// A non-time budget cap (e.g. `GEF_MAX_DSTAR_ROWS`) is too tight
    /// to produce any valid explanation.
    BudgetExceeded(String),
    /// A parallel worker panicked; carries the first worker's panic
    /// payload (see `gef_par::ParError`).
    WorkerPanicked(String),
    /// Failure in the underlying forest (training or batch labeling).
    Forest(gef_forest::ForestError),
}

impl std::fmt::Display for GefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GefError::DegenerateForest(m) => write!(f, "degenerate forest: {m}"),
            GefError::InvalidConfig(m) => write!(f, "invalid GEF configuration: {m}"),
            GefError::Gam(e) => write!(f, "GAM fitting failed: {e}"),
            GefError::NonFiniteLabels { removed, total } => write!(
                f,
                "{removed} of {total} D* rows had non-finite forest labels; too few remain"
            ),
            GefError::RecoveryExhausted { attempts, last } => write!(
                f,
                "degradation ladder exhausted after {attempts} attempts; last failure: {last}"
            ),
            GefError::DeadlineExceeded { at } => {
                write!(f, "hard deadline exceeded (at {at})")
            }
            GefError::BudgetExceeded(m) => write!(f, "run budget exceeded: {m}"),
            GefError::WorkerPanicked(payload) => {
                write!(f, "a parallel worker panicked: {payload}")
            }
            GefError::Forest(e) => write!(f, "forest failure: {e}"),
        }
    }
}

impl GefError {
    /// Stable machine-readable cause label, used in incident-dump file
    /// names (`<label>-<cause>.json`) and in the dump's `cause` field.
    /// One lowercase snake-case token per variant; never changes once
    /// published.
    pub fn cause_label(&self) -> &'static str {
        match self {
            GefError::DegenerateForest(_) => "degenerate_forest",
            GefError::InvalidConfig(_) => "invalid_config",
            GefError::Gam(_) => "gam",
            GefError::NonFiniteLabels { .. } => "non_finite_labels",
            GefError::RecoveryExhausted { .. } => "recovery_exhausted",
            GefError::DeadlineExceeded { .. } => "deadline",
            GefError::BudgetExceeded(_) => "budget",
            GefError::WorkerPanicked(_) => "worker_panic",
            GefError::Forest(_) => "forest",
        }
    }
}

impl std::error::Error for GefError {}

impl From<gef_gam::GamError> for GefError {
    fn from(e: gef_gam::GamError) -> Self {
        // Budget trips and worker panics keep their typed identity
        // across the layer boundary instead of vanishing into `Gam`.
        match e {
            gef_gam::GamError::DeadlineExceeded { at } => GefError::DeadlineExceeded { at },
            gef_gam::GamError::WorkerPanicked(payload) => GefError::WorkerPanicked(payload),
            e => GefError::Gam(e),
        }
    }
}

impl From<gef_forest::ForestError> for GefError {
    fn from(e: gef_forest::ForestError) -> Self {
        match e {
            gef_forest::ForestError::DeadlineExceeded { at } => GefError::DeadlineExceeded { at },
            gef_forest::ForestError::WorkerPanicked(payload) => GefError::WorkerPanicked(payload),
            e => GefError::Forest(e),
        }
    }
}

impl From<gef_par::ParError> for GefError {
    fn from(e: gef_par::ParError) -> Self {
        match e {
            gef_par::ParError::TaskPanicked { payload } => GefError::WorkerPanicked(payload),
            // A cancelled region means the hard deadline fired
            // mid-fan-out.
            gef_par::ParError::Cancelled => GefError::DeadlineExceeded { at: "parallel" },
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, GefError>;
