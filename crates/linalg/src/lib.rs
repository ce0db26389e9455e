//! # gef-linalg
//!
//! Self-contained dense linear algebra and statistics kernels used across
//! the GEF workspace. The GAM solver needs symmetric positive-definite
//! solves (penalized normal equations), the forest trainer needs quantile
//! sketches, and the evaluation harness needs Welch's t-test — all of
//! which are implemented here without external numeric dependencies.
//!
//! The crate is deliberately small and row-major throughout:
//!
//! * [`Matrix`] — dense row-major `f64` matrix with the handful of
//!   operations the workspace needs (mat-mul, transpose, symmetric rank
//!   updates).
//! * [`Cholesky`] — LLᵀ factorization with solve and inverse, plus a
//!   jittered variant for nearly-singular penalized systems. The factor
//!   and the inverse work in the system's own storage, on AVX2 kernels
//!   where the machine has them, with the scalar loops' bits.
//! * [`stats`] — descriptive statistics, quantiles, Student-t and normal
//!   distribution functions, Welch's t-test.
//! * [`special`] — log-gamma and the regularized incomplete beta
//!   function backing the t-distribution CDF.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cholesky;
pub mod matrix;
pub mod special;
pub mod stats;

pub use cholesky::Cholesky;
pub use matrix::Matrix;

/// Error type for linear algebra operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Dimensions that were actually provided.
        got: (usize, usize),
        /// Dimensions that were expected.
        expected: (usize, usize),
    },
    /// Factorization failed because the matrix is not positive definite
    /// (a non-positive pivot was encountered at the given index).
    NotPositiveDefinite {
        /// Index of the offending pivot.
        pivot: usize,
        /// Value of the offending pivot.
        value: f64,
    },
    /// An input was empty where a non-empty slice is required.
    EmptyInput(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                context,
                got,
                expected,
            } => write!(
                f,
                "dimension mismatch in {context}: got {}x{}, expected {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} = {value:e}"
            ),
            LinalgError::EmptyInput(what) => write!(f, "empty input: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
