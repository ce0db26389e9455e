//! # gef-gam
//!
//! Penalized-spline Generalized Additive Models, built from scratch as
//! the workspace's replacement for PyGAM. A GAM models
//!
//! ```text
//! l(E[y|x]) = α + Σ_j s_j(x_j) + Σ_{(j,k)} s_jk(x_j, x_k)
//! ```
//!
//! with cubic P-spline univariate terms, one-hot factor terms for
//! categorical features, and penalized tensor-product smooths for
//! feature pairs — exactly the term menu the GEF paper uses (Sec. 3.5).
//! A single smoothing parameter λ shared by all terms is chosen by
//! Generalized Cross Validation, and Bayesian credible intervals are
//! available for every univariate component.
//!
//! ## Quick example
//!
//! ```
//! use gef_gam::{fit, GamSpec, TermSpec};
//!
//! let xs: Vec<Vec<f64>> = (0..400).map(|i| vec![i as f64 / 400.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 6.0).sin()).collect();
//! let gam = fit(&GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))]), &xs, &ys).unwrap();
//! assert!((gam.predict(&[0.25]) - (0.25f64 * 6.0).sin()).abs() < 0.05);
//! ```

// Library code must surface failures as `GamError`, never panic; tests
// are exempt. Local `#[allow]`s mark the few provably-infallible spots.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bspline;
pub mod design;
pub mod fit;
pub mod penalty;
pub mod terms;

pub use bspline::BSplineBasis;
pub use design::CodedRows;
pub use fit::{fit, fit_coded, FitSummary, Gam, GamSpec, LambdaSelection, Link};
pub use terms::{TermSpec, DEFAULT_DEGREE, DEFAULT_SPLINE_BASIS, DEFAULT_TENSOR_BASIS};

/// Errors produced while specifying or fitting a GAM.
#[derive(Debug, Clone, PartialEq)]
pub enum GamError {
    /// Invalid model specification (terms, domains, λ grid).
    InvalidSpec(String),
    /// Invalid training data.
    InvalidData(String),
    /// Numerical failure in the underlying linear algebra.
    Numerical(String),
    /// The λ grid was empty, so no candidate could be evaluated.
    EmptyLambdaGrid,
    /// Every λ candidate produced a non-finite GCV score.
    NonFiniteGcv {
        /// Number of λ candidates evaluated (and skipped).
        candidates: usize,
    },
    /// PIRLS failed to find a deviance-decreasing step at every λ.
    PirlsDiverged {
        /// Iterations completed before divergence (at the last λ tried).
        iters: usize,
        /// Last finite deviance observed, or NaN if none was.
        deviance: f64,
    },
    /// The run's hard wall-clock deadline ([`gef_trace::budget`]) passed
    /// at a cooperative checkpoint (per-λ candidate or per-PIRLS
    /// iteration). Not retryable: a cheaper spec cannot buy time back.
    DeadlineExceeded {
        /// Checkpoint that observed the trip (`"gcv_grid"`, `"pirls"`).
        at: &'static str,
    },
    /// A parallel worker panicked while evaluating the λ grid; carries
    /// the first panic's payload (see `gef_par::ParError`).
    WorkerPanicked(String),
}

impl GamError {
    /// Whether a simpler model specification could plausibly avoid this
    /// error. The recovery ladder in `gef-core` retries on exactly these
    /// variants; specification and data errors are not retried since no
    /// amount of simplification fixes a malformed input.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            GamError::Numerical(_)
                | GamError::EmptyLambdaGrid
                | GamError::NonFiniteGcv { .. }
                | GamError::PirlsDiverged { .. }
        )
    }
}

impl std::fmt::Display for GamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GamError::InvalidSpec(m) => write!(f, "invalid GAM specification: {m}"),
            GamError::InvalidData(m) => write!(f, "invalid GAM data: {m}"),
            GamError::Numerical(m) => write!(f, "numerical failure: {m}"),
            GamError::EmptyLambdaGrid => write!(f, "empty λ grid: no candidate to evaluate"),
            GamError::NonFiniteGcv { candidates } => {
                write!(f, "all {candidates} λ candidates produced non-finite GCV")
            }
            GamError::PirlsDiverged { iters, deviance } => write!(
                f,
                "PIRLS diverged after {iters} iterations (deviance {deviance})"
            ),
            GamError::DeadlineExceeded { at } => {
                write!(f, "hard deadline exceeded during GAM fit (at {at})")
            }
            GamError::WorkerPanicked(payload) => {
                write!(f, "parallel worker panicked during GAM fit: {payload}")
            }
        }
    }
}

impl std::error::Error for GamError {}

impl From<gef_linalg::LinalgError> for GamError {
    fn from(e: gef_linalg::LinalgError) -> Self {
        GamError::Numerical(e.to_string())
    }
}

impl From<gef_par::ParError> for GamError {
    fn from(e: gef_par::ParError) -> Self {
        match e {
            gef_par::ParError::TaskPanicked { payload } => GamError::WorkerPanicked(payload),
            // A cancelled region means the hard deadline fired
            // mid-dispatch.
            gef_par::ParError::Cancelled => GamError::DeadlineExceeded { at: "parallel" },
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, GamError>;
