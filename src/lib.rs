//! # gef — GAM-based Explanation of Forests
//!
//! Facade crate for the GEF workspace: re-exports the public API of every
//! member crate so downstream users can depend on a single crate.
//!
//! ```
//! use gef::prelude::*;
//! ```
//!
//! See the workspace `README.md` for a quickstart and `DESIGN.md` for the
//! system inventory.

pub use gef_baselines as baselines;
pub use gef_core as core;
pub use gef_data as data;
pub use gef_forest as forest;
pub use gef_gam as gam;
pub use gef_linalg as linalg;
pub use gef_par as par;
pub use gef_serve as serve;
pub use gef_store as store;
pub use gef_trace as trace;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use gef_baselines::{shap_values, shap_values_batch, LimeConfig, LinearSurrogate};
    pub use gef_core::{
        Degradation, DegradationAction, ExplanationReport, FitFloor, GefConfig, GefExplainer,
        GefExplanation, InteractionStrategy, LocalExplanation, SamplingStrategy,
    };
    pub use gef_data::{Dataset, Task};
    pub use gef_forest::{
        Forest, GbdtParams, GbdtTrainer, Objective, RandomForestParams, RandomForestTrainer,
    };
    pub use gef_gam::{Gam, GamSpec, LambdaSelection, Link, TermSpec};
    pub use gef_serve::{ModelEntry, ServeConfig, Server};
    pub use gef_store::{CacheStats, LoadSource, Store, StoreError};
}
