//! The end-to-end GEF pipeline and its explanation artifacts.
//!
//! [`GefExplainer::explain`] runs the paper's full procedure on a
//! forest (feature selection → sampling → `D*` generation → interaction
//! selection → GAM fit) and returns a [`GefExplanation`], which serves
//! both as a **global** explanation (component curves with Bayesian
//! credible bands, term importances) and a **local** one
//! ([`GefExplanation::local`]: per-feature additive contributions for a
//! specific instance, with the spline context that shows how the
//! prediction would move under small changes of each feature — the
//! capability the paper contrasts against SHAP and LIME).

use crate::budget::RunBudget;
use crate::generate::{generate, CodedDataset, SyntheticDataset};
use crate::incident::{self, IncidentContext};
use crate::interactions::{rank_interactions, top_pairs, InteractionStrategy};
use crate::recovery::{self, fit_with_recovery, Degradation, DegradationAction, FitFloor};
use crate::sampling::SamplingStrategy;
use crate::selection::{ForestProfile, DEFAULT_CATEGORICAL_L};
use crate::{GefError, Result};
use gef_forest::{Forest, Objective};
use gef_gam::{Gam, GamSpec, LambdaSelection, Link, TermSpec};
use gef_trace::json::{self, JsonValue, JsonWriter, ReadJson, WriteJson};

/// Configuration of the GEF pipeline.
#[derive(Debug, Clone)]
pub struct GefConfig {
    /// Number of univariate components `|F'|`.
    pub num_univariate: usize,
    /// Number of bivariate components `|F''|`.
    pub num_interactions: usize,
    /// Sampling-domain strategy for the selected features.
    pub sampling: SamplingStrategy,
    /// Interaction-ranking heuristic.
    pub interaction_strategy: InteractionStrategy,
    /// Number of synthetic instances `N` in `D*`.
    pub n_samples: usize,
    /// Fraction of `D*` used for fitting (the rest measures fidelity).
    pub train_fraction: f64,
    /// Categorical-detection threshold `L` (paper: 10).
    pub categorical_l: usize,
    /// B-spline basis size per univariate term.
    pub spline_basis: usize,
    /// B-spline basis size per tensor margin.
    pub tensor_basis: usize,
    /// Smoothing-parameter selection for the GAM.
    pub lambda: LambdaSelection,
    /// Preemptive lower bound on surrogate complexity (load shedding):
    /// any floor below [`FitFloor::Full`] skips the richer spec up
    /// front and is recorded as a degradation. See [`FitFloor`].
    pub fit_floor: FitFloor,
    /// RNG seed for `D*` sampling.
    pub seed: u64,
}

impl Default for GefConfig {
    fn default() -> Self {
        GefConfig {
            num_univariate: 5,
            num_interactions: 0,
            sampling: SamplingStrategy::AllThresholds,
            interaction_strategy: InteractionStrategy::GainPath,
            n_samples: 20_000,
            train_fraction: 0.8,
            categorical_l: DEFAULT_CATEGORICAL_L,
            spline_basis: 20,
            tensor_basis: 8,
            lambda: LambdaSelection::default(),
            fit_floor: FitFloor::Full,
            seed: 0,
        }
    }
}

impl GefConfig {
    fn validate(&self) -> Result<()> {
        if self.num_univariate == 0 {
            return Err(GefError::InvalidConfig(
                "num_univariate must be >= 1".into(),
            ));
        }
        if self.n_samples < 16 {
            return Err(GefError::InvalidConfig("n_samples must be >= 16".into()));
        }
        if !(self.train_fraction > 0.0 && self.train_fraction < 1.0) {
            return Err(GefError::InvalidConfig(
                "train_fraction must be in (0,1)".into(),
            ));
        }
        // Cubic B-splines (degree 3) need at least order = degree + 1
        // basis functions; anything smaller cannot even represent a
        // single polynomial piece.
        if self.spline_basis < 4 {
            return Err(GefError::InvalidConfig(format!(
                "spline_basis ({}) is below the cubic B-spline order minimum of 4",
                self.spline_basis
            )));
        }
        if self.tensor_basis < 4 {
            return Err(GefError::InvalidConfig(format!(
                "tensor_basis ({}) is below the cubic B-spline order minimum of 4",
                self.tensor_basis
            )));
        }
        // There are only C(|F'|, 2) distinct unordered feature pairs.
        let max_pairs = self.num_univariate * self.num_univariate.saturating_sub(1) / 2;
        if self.num_interactions > max_pairs {
            return Err(GefError::InvalidConfig(format!(
                "num_interactions ({}) exceeds the {} distinct pairs available among {} univariate features",
                self.num_interactions, max_pairs, self.num_univariate
            )));
        }
        Ok(())
    }

    /// Stable 64-bit content digest of this configuration
    /// (domain-tagged `gef-core/config/v1`): every field, including the
    /// seed. Equal configurations — and only those — digest equal;
    /// incident dumps and explanation provenance use it to tie an
    /// artifact to the exact parameters that produced it.
    pub fn content_digest(&self) -> u64 {
        let mut d = gef_trace::hash::Digest::new("gef-core/config/v1");
        d.write_u64(self.num_univariate as u64);
        d.write_u64(self.num_interactions as u64);
        // Strategy/selection enums are digested via their canonical
        // Debug rendering (stable: plain data enums, no addresses).
        d.write_str(&format!("{:?}", self.sampling));
        d.write_str(&format!("{:?}", self.interaction_strategy));
        d.write_u64(self.n_samples as u64);
        d.write_f64(self.train_fraction);
        d.write_u64(self.categorical_l as u64);
        d.write_u64(self.spline_basis as u64);
        d.write_u64(self.tensor_basis as u64);
        d.write_str(&format!("{:?}", self.lambda));
        d.write_str(&format!("{:?}", self.fit_floor));
        d.write_u64(self.seed);
        d.finish()
    }
}

/// Structured provenance of one explanation: which inputs, under which
/// runtime conditions, produced it. Carried inside [`GefExplanation`]
/// and copied into [`crate::ExplanationReport`], so an archived
/// artifact can always be tied back to the exact config, model, budget
/// outcome, and degradation history of its run.
///
/// Digests are the canonical 16-hex-digit renderings of
/// [`GefConfig::content_digest`], `Forest::content_digest`, and
/// `Gam::content_digest`. Defaults (all-empty, version 0) mark archives
/// written before provenance existed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Provenance {
    /// Provenance schema version (current: 1; 0 = pre-provenance
    /// archive).
    pub schema_version: u32,
    /// Hex digest of the [`GefConfig`] used.
    pub config_digest: String,
    /// Hex digest of the explained forest's structure.
    pub forest_digest: String,
    /// Hex digest of the fitted surrogate GAM.
    pub gam_digest: String,
    /// RNG seed of the `D*` sampling.
    pub seed: u64,
    /// gef-par thread count the run used (`GEF_THREADS` resolved).
    pub threads: u64,
    /// Whether a run budget (a deadline scope) was armed.
    pub budget_armed: bool,
    /// Budget outcome: `unarmed`, `clean`, `soft_tripped`, or
    /// `hard_tripped` (a hard trip can only appear on artifacts dumped
    /// mid-incident; successful explanations never carry it).
    pub budget_outcome: String,
    /// Degradation-action labels applied during the run, in order (see
    /// [`crate::DegradationAction::label`]); the full records live in
    /// [`GefExplanation::degradations`].
    pub degradations: Vec<String>,
    /// Per-stage wall-clock of the producing run.
    pub stage_timings: StageTimings,
    /// 16-hex trace id of the request context the run executed under
    /// (`gef_trace::ctx`); empty when the run had no request scope
    /// (library callers, benchmarks) or on pre-trace archives.
    pub trace_id: String,
}

gef_trace::json_struct!(Provenance {
    schema_version,
    config_digest,
    forest_digest,
    gam_digest,
    seed,
    threads,
    budget_armed,
    budget_outcome,
    degradations,
    stage_timings;
    default trace_id
});

/// Wall-clock nanoseconds spent in each pipeline stage of one
/// [`GefExplainer::explain`] run.
///
/// Always populated (independently of whether `gef-trace` collection is
/// enabled — five clock reads are free at pipeline granularity) and
/// carried in [`Provenance::stage_timings`] so archived explanations
/// keep them. Mirrors the `pipeline.*` spans that `gef-trace` records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Forest profiling + univariate feature selection.
    pub selection_ns: u64,
    /// Sampling-domain construction.
    pub sampling_ns: u64,
    /// `D*` generation and labeling.
    pub generate_ns: u64,
    /// Interaction ranking and selection.
    pub interactions_ns: u64,
    /// GAM term construction, fitting, and fidelity evaluation.
    pub gam_fit_ns: u64,
}

gef_trace::json_struct!(StageTimings {
    selection_ns,
    sampling_ns,
    generate_ns,
    interactions_ns,
    gam_fit_ns
});

impl StageTimings {
    /// Total across all five stages.
    pub fn total_ns(&self) -> u64 {
        self.selection_ns
            + self.sampling_ns
            + self.generate_ns
            + self.interactions_ns
            + self.gam_fit_ns
    }
}

/// Run `f` under the `gef-trace` span `name`, measuring its wall time
/// into `slot` unconditionally.
fn stage<T>(name: &str, slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = std::time::Instant::now();
    let out = gef_trace::time(name, f);
    *slot = t.elapsed().as_nanos() as u64;
    out
}

/// Cooperative checkpoint at a pipeline stage boundary: abort pending
/// work (typed, never a panic or hang) once the hard deadline passed.
fn checkpoint(at: &'static str) -> Result<()> {
    if gef_trace::budget::hard_exceeded() {
        return Err(GefError::DeadlineExceeded { at });
    }
    Ok(())
}

/// The GEF explainer: runs the pipeline on a forest.
#[derive(Debug, Clone, Default)]
pub struct GefExplainer {
    config: GefConfig,
}

impl GefExplainer {
    /// Create an explainer with the given configuration.
    pub fn new(config: GefConfig) -> Self {
        GefExplainer { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &GefConfig {
        &self.config
    }

    /// Run the full pipeline on a forest, using only its structure.
    pub fn explain(&self, forest: &Forest) -> Result<GefExplanation> {
        let (explanation, _) = self.explain_coded(forest)?;
        Ok(explanation)
    }

    /// Like [`GefExplainer::explain`] but also returns the generated
    /// synthetic dataset `D*` (train split first) for inspection, its
    /// rows materialized as feature values.
    pub fn explain_with_data(&self, forest: &Forest) -> Result<(GefExplanation, SyntheticDataset)> {
        let (explanation, dstar) = self.explain_coded(forest)?;
        Ok((explanation, dstar.into_rows()))
    }

    /// The explanation with `D*` as the pipeline keeps it: domain
    /// codes, labels and domains.
    ///
    /// On any typed failure, an incident dump is written (best-effort;
    /// see [`crate::incident`]) *before* the run budget disarms, so the
    /// dump captures the trip state, the armed fault schedule, and the
    /// flight recorder's last window of activity.
    fn explain_coded(&self, forest: &Forest) -> Result<(GefExplanation, CodedDataset)> {
        // One pass over every node, shared by the incident context and
        // the provenance.
        let forest_digest = forest.content_digest();
        let ctx = IncidentContext {
            config_digest: Some(self.config.content_digest()),
            forest_digest: Some(forest_digest),
            seed: Some(self.config.seed),
        };
        // Arm the env-configured deadlines (`GEF_DEADLINE_MS` & co.) as
        // a thread-scoped budget unless the caller already armed one (a
        // scoped `RunBudget::enter`, as gef-serve does per request) —
        // the guard leaves scope when this run returns, on every path.
        let _budget_guard = (!gef_trace::budget::active()).then(|| RunBudget::from_env().enter());
        let result = self.run_pipeline(forest, forest_digest);
        if let Err(err) = &result {
            incident::dump_error(err, &ctx);
        }
        result
    }

    /// The pipeline proper, separated from [`Self::explain_coded`] so
    /// its `Err` path can be incident-dumped while the budget guard is
    /// still armed. `forest_digest` is `forest`'s content digest.
    fn run_pipeline(
        &self,
        forest: &Forest,
        forest_digest: u64,
    ) -> Result<(GefExplanation, CodedDataset)> {
        let cfg = &self.config;
        cfg.validate()?;
        let _span = gef_trace::Span::enter("pipeline.explain");
        let mut timings = StageTimings::default();
        checkpoint("selection")?;
        let (profile, selected) = stage("pipeline.selection", &mut timings.selection_ns, || {
            let profile = ForestProfile::analyze(forest);
            let selected = profile.select_univariate(cfg.num_univariate);
            (profile, selected)
        });
        if selected.is_empty() {
            return Err(GefError::DegenerateForest(
                "the forest contains no split nodes".into(),
            ));
        }
        // Sampling domains and D*. Labels are on the response scale:
        // identical to raw for regression; probabilities for
        // classification, which the logit-link GAM fits directly.
        // Categorical features (|V| < L) keep their All-Thresholds
        // domain regardless of strategy: interpolating quantiles or
        // means between a handful of discrete split points would
        // fabricate hundreds of spurious factor levels.
        let mut degradations: Vec<Degradation> = Vec::new();
        // Per-feature domain construction runs on the gef-par pool; the
        // per-feature closure is pure (it returns the fallback *cause*
        // instead of recording it), and the coordinator then records
        // degradations serially in feature order, so the ladder is
        // identical at every thread count.
        checkpoint("sampling")?;
        let per_feature = stage("pipeline.sampling", &mut timings.sampling_ns, || {
            gef_par::map(
                profile.num_features,
                gef_par::Options::coarse().with_label("pipeline.sampling_domains"),
                |f| {
                    if selected.contains(&f) && !profile.is_categorical(f, cfg.categorical_l) {
                        // Multiset thresholds: multiplicity = split density.
                        let mut dom = cfg.sampling.domain(profile.threshold_multiset(f));
                        if gef_trace::fault::fires("sampling.domain_collapse") {
                            dom.truncate(1);
                        }
                        if dom.len() < 2 {
                            // A budgeted strategy collapsed this feature's
                            // domain (e.g. K-Means centroids merging on a
                            // pathological threshold multiset). Fall back
                            // to the raw All-Thresholds domain — a
                            // non-categorical feature always has one.
                            let fallback =
                                SamplingStrategy::AllThresholds.domain(profile.thresholds(f));
                            if fallback.len() > dom.len() {
                                let cause = format!(
                                    "strategy domain for feature {f} collapsed to {} point(s)",
                                    dom.len()
                                );
                                return (fallback, Some(cause));
                            }
                        }
                        (dom, None)
                    } else {
                        (
                            SamplingStrategy::AllThresholds.domain(profile.thresholds(f)),
                            None,
                        )
                    }
                },
            )
        })?;
        let domains: Vec<Vec<f64>> = per_feature
            .into_iter()
            .enumerate()
            .map(|(f, (dom, fallback_cause))| {
                if let Some(cause) = fallback_cause {
                    Degradation::record(
                        &mut degradations,
                        "sampling",
                        DegradationAction::DomainFallback { feature: f },
                        cause,
                    );
                }
                dom
            })
            .collect();
        // The D*-row cap bounds the most memory- and labeling-hungry
        // stage. A cap tighter than requested degrades (recorded, never
        // silent); a cap below the fitting minimum cannot produce any
        // valid explanation and fails typed.
        let mut n_samples = cfg.n_samples;
        let cap = usize::try_from(gef_trace::budget::dstar_row_cap()).unwrap_or(usize::MAX);
        if cap > 0 && cap < n_samples {
            if cap < 16 {
                return Err(GefError::BudgetExceeded(format!(
                    "GEF_MAX_DSTAR_ROWS ({cap}) is below the 16-row fitting minimum"
                )));
            }
            Degradation::record(
                &mut degradations,
                "generate",
                DegradationAction::CappedDstarRows {
                    requested: n_samples,
                    capped: cap,
                },
                format!("GEF_MAX_DSTAR_ROWS caps D* at {cap} of {n_samples} requested rows"),
            );
            n_samples = cap;
        }
        checkpoint("generate")?;
        let mut dataset = stage("pipeline.generate", &mut timings.generate_ns, || {
            generate(forest, &domains, n_samples, false, cfg.seed)
        })?;
        // Scrub rows the forest labelled with NaN/Inf (a hostile model
        // file can hold non-finite leaf values) — never fit on them.
        let removed = dataset.scrub_non_finite_labels();
        if removed > 0 {
            let total = removed + dataset.len();
            if dataset.len() < 16 {
                return Err(GefError::NonFiniteLabels { removed, total });
            }
            Degradation::record(
                &mut degradations,
                "labeling",
                DegradationAction::ScrubbedNonFiniteLabels { removed, total },
                format!("{removed} of {total} forest labels were non-finite"),
            );
        }

        // Interaction selection (independent of the sampled data except
        // for H-Stat, per the paper). A fit floor below Full sheds this
        // stage entirely — the floored spec carries no tensor terms, so
        // ranking candidates for them would be pure waste under load.
        checkpoint("interactions")?;
        let floored = cfg.fit_floor != FitFloor::Full;
        let interaction_ranking = stage(
            "pipeline.interactions",
            &mut timings.interactions_ns,
            || {
                if !floored && (cfg.num_interactions > 0 || selected.len() >= 2) {
                    rank_interactions(
                        forest,
                        &profile,
                        &selected,
                        cfg.interaction_strategy,
                        Some(&dataset),
                    )
                } else {
                    Ok(Vec::new())
                }
            },
        )?;
        let interactions = top_pairs(&interaction_ranking, cfg.num_interactions);
        if floored && cfg.num_interactions > 0 {
            // Preemptive degradation is still degradation: the caller
            // asked for tensors and the floor withheld them.
            Degradation::record(
                &mut degradations,
                "interactions",
                DegradationAction::UnivariateOnly,
                format!(
                    "fit floor '{}' sheds the {} requested tensor term(s) preemptively",
                    cfg.fit_floor.label(),
                    cfg.num_interactions
                ),
            );
        }

        // Build GAM terms and fit (one stage: the fit dominates).
        checkpoint("gam_fit")?;
        let fit_result = stage(
            "pipeline.gam_fit",
            &mut timings.gam_fit_ns,
            || -> Result<_> {
                let mut terms = Vec::with_capacity(selected.len() + interactions.len());
                let mut categorical = Vec::with_capacity(selected.len());
                for &f in &selected {
                    let dom = &domains[f];
                    let is_cat = profile.is_categorical(f, cfg.categorical_l);
                    categorical.push(is_cat);
                    if is_cat || dom.len() < cfg.spline_basis.max(4) {
                        terms.push(TermSpec::factor(f, dom.clone()));
                    } else {
                        // Knots anchored on the sampling domain: every knot
                        // span receives an equal share of D*'s support, which
                        // keeps the spline well-conditioned on skewed domains.
                        terms.push(TermSpec::SplineAnchored {
                            feature: f,
                            num_basis: cfg.spline_basis,
                            degree: 3,
                            anchors: dom.clone(),
                        });
                    }
                }
                for &(i, j) in &interactions {
                    let (di, dj) = (&domains[i], &domains[j]);
                    terms.push(TermSpec::TensorAnchored {
                        features: (i, j),
                        num_basis: (
                            cfg.tensor_basis.min(di.len().max(4)),
                            cfg.tensor_basis.min(dj.len().max(4)),
                        ),
                        anchors: (di.clone(), dj.clone()),
                        degree: 3,
                    });
                }

                let link = match forest.objective {
                    Objective::RegressionL2 => Link::Identity,
                    Objective::BinaryLogistic => Link::Logit,
                };
                let mut spec = GamSpec {
                    terms,
                    link,
                    lambda: cfg.lambda.clone(),
                    ..GamSpec::regression(Vec::new())
                };
                if cfg.fit_floor == FitFloor::LinearSurrogate {
                    // Jump straight to the ladder's last rung: the
                    // cheapest spec that is still an explanation.
                    spec = recovery::linear_surrogate(&spec);
                    Degradation::record(
                        &mut degradations,
                        "gam_fit",
                        DegradationAction::LinearSurrogate,
                        format!(
                            "fit floor '{}' starts at the linear-surrogate rung preemptively",
                            cfg.fit_floor.label()
                        ),
                    );
                }
                // Train on D*'s first rows and score on the rest, as
                // `split` would, reading the codes in place.
                let cut = dataset.train_rows(cfg.train_fraction);
                // Fit with the degradation ladder: numerical failures
                // walk the spec down (drop worst tensor → shrink bases →
                // widen λ grid → univariate-only → linear surrogate)
                // instead of failing the whole pipeline. Fidelity of Γ
                // vs the forest on held-out D* comes back with the fit.
                let (gam, fidelity_rmse, fidelity_r2) =
                    fit_with_recovery(&spec, &dataset, cut, &mut degradations)?;
                Ok((gam, categorical, fidelity_rmse, fidelity_r2))
            },
        )?;
        let (gam, categorical, fidelity_rmse, fidelity_r2) = fit_result;
        if gef_trace::enabled() {
            let t = gef_trace::global();
            t.gauge("pipeline.fidelity_rmse", fidelity_rmse);
            t.gauge("pipeline.fidelity_r2", fidelity_r2);
            t.gauge("pipeline.degradation_count", degradations.len() as f64);
        }
        let budget_armed = gef_trace::budget::active();
        let budget_outcome = if gef_trace::budget::hard_tripped() {
            "hard_tripped"
        } else if gef_trace::budget::soft_tripped() {
            "soft_tripped"
        } else if budget_armed {
            "clean"
        } else {
            "unarmed"
        };
        let provenance = Provenance {
            schema_version: 1,
            config_digest: gef_trace::hash::to_hex(cfg.content_digest()),
            forest_digest: gef_trace::hash::to_hex(forest_digest),
            gam_digest: gef_trace::hash::to_hex(gam.content_digest()),
            seed: cfg.seed,
            threads: gef_par::threads() as u64,
            budget_armed,
            budget_outcome: budget_outcome.to_string(),
            degradations: degradations
                .iter()
                .map(|d| d.action.label().to_string())
                .collect(),
            stage_timings: timings,
            trace_id: gef_trace::ctx::current_hex().unwrap_or_default(),
        };

        Ok((
            GefExplanation {
                gam,
                selected_features: selected,
                categorical,
                interactions,
                interaction_ranking,
                domains,
                profile,
                fidelity_rmse,
                fidelity_r2,
                objective: forest.objective,
                degradations,
                provenance,
            },
            dataset,
        ))
    }
}

/// The GAM explanation `Γ` of a forest, with everything needed for
/// global and local analysis.
#[derive(Debug, Clone)]
pub struct GefExplanation {
    /// The fitted surrogate GAM.
    pub gam: Gam,
    /// Selected univariate features `F'`, most important first.
    pub selected_features: Vec<usize>,
    /// Per-selected-feature categorical flags.
    pub categorical: Vec<bool>,
    /// Selected interactions `F''`.
    pub interactions: Vec<(usize, usize)>,
    /// Full interaction ranking (pair, score), descending.
    pub interaction_ranking: Vec<((usize, usize), f64)>,
    /// Per-feature sampling domains.
    pub domains: Vec<Vec<f64>>,
    /// The forest profile (gains, thresholds).
    pub profile: ForestProfile,
    /// RMSE of Γ vs the forest on the held-out part of `D*`.
    pub fidelity_rmse: f64,
    /// R² of Γ vs the forest on the held-out part of `D*`.
    pub fidelity_r2: f64,
    /// Objective of the explained forest.
    pub objective: Objective,
    /// Graceful degradations applied while producing this explanation
    /// (domain fallbacks, label scrubbing, GAM ladder rungs). Empty on
    /// a clean run; defaults to empty for archives written before the
    /// recovery ladder existed.
    pub degradations: Vec<Degradation>,
    /// Structured provenance of the producing run (digests, seed,
    /// threads, budget outcome). Defaults to the all-empty version-0
    /// block for archives written before provenance existed.
    pub provenance: Provenance,
}

impl WriteJson for GefExplanation {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("gam", &self.gam);
        w.field("selected_features", &self.selected_features);
        w.field("categorical", &self.categorical);
        w.field("interactions", &self.interactions);
        w.field("interaction_ranking", &self.interaction_ranking);
        w.field("domains", &self.domains);
        w.field("profile", &self.profile);
        w.field("fidelity_rmse", &self.fidelity_rmse);
        w.field("fidelity_r2", &self.fidelity_r2);
        w.field("objective", &self.objective);
        w.field("degradations", &self.degradations);
        w.field("provenance", &self.provenance);
        w.end_object();
    }
}

impl ReadJson for GefExplanation {
    fn read_json(v: &JsonValue) -> std::result::Result<GefExplanation, String> {
        let exp = GefExplanation {
            gam: v.req("gam")?,
            selected_features: v.req("selected_features")?,
            categorical: v.req("categorical")?,
            interactions: v.req("interactions")?,
            interaction_ranking: v.req("interaction_ranking")?,
            domains: v.req("domains")?,
            profile: v.req("profile")?,
            fidelity_rmse: v.req("fidelity_rmse")?,
            fidelity_r2: v.req("fidelity_r2")?,
            objective: v.req("objective")?,
            degradations: v.opt("degradations")?,
            provenance: v.opt("provenance")?,
        };
        // Selected feature `i` is GAM term `i`, indexes `categorical`,
        // and reads its domain and gain by feature index.
        let selected = exp.selected_features.len();
        if exp.categorical.len() != selected || exp.gam.num_terms() < selected {
            return Err(format!(
                "{selected} selected features, {} categorical flags, {} GAM terms",
                exp.categorical.len(),
                exp.gam.num_terms()
            ));
        }
        let known = exp.domains.len().min(exp.profile.stats.gain.len());
        if let Some(f) = exp.selected_features.iter().find(|&&f| f >= known) {
            return Err(format!(
                "selected feature {f} has no domain or profile entry"
            ));
        }
        Ok(exp)
    }
}

impl GefExplanation {
    /// Surrogate prediction on the response scale.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.gam.predict(x)
    }

    /// Index of the GAM term modelling a selected feature.
    pub fn term_of_feature(&self, feature: usize) -> Option<usize> {
        self.selected_features.iter().position(|&f| f == feature)
    }

    /// The global component curve of a selected feature: `(value,
    /// estimate, lower, upper)` over its sampling domain (95% band).
    pub fn component_curve(
        &self,
        feature: usize,
        grid: usize,
    ) -> Result<Vec<(f64, f64, f64, f64)>> {
        let term = self
            .term_of_feature(feature)
            .ok_or_else(|| GefError::InvalidConfig(format!("feature {feature} is not in F'")))?;
        let dom = &self.domains[feature];
        let values: Vec<f64> = if self.categorical[term] || dom.len() <= grid {
            dom.clone()
        } else {
            gef_linalg::stats::linspace(dom[0], dom[dom.len() - 1], grid)
        };
        let curve = self.gam.univariate_curve(term, &values, 1.96)?;
        Ok(values
            .into_iter()
            .zip(curve)
            .map(|(v, (e, lo, hi))| (v, e, lo, hi))
            .collect())
    }

    /// Local explanation of one instance: per-term centered additive
    /// contributions with standard errors, sorted by |contribution|.
    pub fn local(&self, x: &[f64]) -> LocalExplanation {
        let mut contributions = Vec::with_capacity(self.gam.num_terms());
        for t in 0..self.gam.num_terms() {
            let (est, se) = self.gam.component_with_se(t, x);
            let features = self.gam.term_specs()[t].features();
            contributions.push(TermContribution {
                term: t,
                label: self.gam.term_label(t),
                features: features.clone(),
                values: features.iter().map(|&f| x[f]).collect(),
                contribution: est,
                std_error: se,
            });
        }
        contributions.sort_by(|a, b| b.contribution.abs().total_cmp(&a.contribution.abs()));
        LocalExplanation {
            prediction: self.gam.predict(x),
            linear_predictor: self.gam.predict_raw(x),
            baseline: self.gam.effective_intercept(),
            contributions,
        }
    }

    /// Render the local explanation as text (the console analogue of
    /// the paper's Fig. 11), resolving feature names when provided.
    pub fn format_local(&self, local: &LocalExplanation, names: Option<&[String]>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Writing to a String cannot fail; the Result is only fmt API shape.
        let _ = writeln!(
            out,
            "prediction = {:.4}  (baseline {:.4}, linear predictor {:.4})",
            local.prediction, local.baseline, local.linear_predictor
        );
        for c in &local.contributions {
            let desc: Vec<String> = c
                .features
                .iter()
                .zip(&c.values)
                .map(|(&f, &v)| {
                    let name = names
                        .and_then(|n| n.get(f).cloned())
                        .unwrap_or_else(|| format!("x{f}"));
                    format!("{name}={v:.4}")
                })
                .collect();
            let sign = if c.contribution >= 0.0 { '+' } else { '-' };
            let _ = writeln!(
                out,
                "  {sign} {:>9.4}  ± {:>7.4}  {:10}  [{}]",
                c.contribution.abs(),
                1.96 * c.std_error,
                c.label,
                desc.join(", ")
            );
        }
        out
    }

    /// Term indices of the fitted GAM sorted by importance (descending
    /// standard deviation of the component over `D*`).
    pub fn terms_by_importance(&self) -> Vec<usize> {
        self.gam.terms_by_importance()
    }

    /// Serialize the whole explanation (fitted GAM, selections,
    /// domains, profile) to JSON so it can be archived and reloaded
    /// without re-running the pipeline.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Reload an explanation from [`GefExplanation::to_json`] output. A
    /// missing required field or inconsistent lengths are an
    /// [`GefError::InvalidConfig`], never a later index panic.
    pub fn from_json(s: &str) -> Result<GefExplanation> {
        json::from_str(s).map_err(|e| GefError::InvalidConfig(format!("explanation json: {e}")))
    }
}

/// One term's contribution to a local explanation.
#[derive(Debug, Clone)]
pub struct TermContribution {
    /// GAM term index.
    pub term: usize,
    /// Term label, e.g. `s(3)` / `te(1,4)`.
    pub label: String,
    /// Features the term reads.
    pub features: Vec<usize>,
    /// The instance's values of those features.
    pub values: Vec<f64>,
    /// Centered additive contribution on the linear-predictor scale.
    pub contribution: f64,
    /// Bayesian standard error of the contribution.
    pub std_error: f64,
}

/// A local explanation: additive decomposition of one prediction.
#[derive(Debug, Clone)]
pub struct LocalExplanation {
    /// Response-scale prediction of the surrogate.
    pub prediction: f64,
    /// Linear predictor (log-odds for classification).
    pub linear_predictor: f64,
    /// Effective intercept (baseline): linear predictor of an "average"
    /// instance; contributions are deviations from it.
    pub baseline: f64,
    /// Per-term contributions, sorted by absolute magnitude.
    pub contributions: Vec<TermContribution>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gef_forest::{GbdtParams, GbdtTrainer};

    fn make_forest(f: impl Fn(&[f64]) -> f64, d: usize, objective: Objective) -> Forest {
        let mut state = 77u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let xs: Vec<Vec<f64>> = (0..2000)
            .map(|_| (0..d).map(|_| next()).collect())
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        GbdtTrainer::new(GbdtParams {
            num_trees: 80,
            num_leaves: 16,
            learning_rate: 0.15,
            min_data_in_leaf: 10,
            objective,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap()
    }

    #[test]
    fn regression_pipeline_high_fidelity() {
        let forest = make_forest(
            |x| x[0] * 2.0 + (x[1] * 6.0).sin() - x[2],
            3,
            Objective::RegressionL2,
        );
        let cfg = GefConfig {
            num_univariate: 3,
            n_samples: 8000,
            sampling: SamplingStrategy::EquiSize(60),
            ..Default::default()
        };
        let exp = GefExplainer::new(cfg).explain(&forest).unwrap();
        assert_eq!(exp.selected_features.len(), 3);
        assert!(exp.fidelity_r2 > 0.9, "r2={}", exp.fidelity_r2);
        // Surrogate tracks the forest on a fresh point.
        let x = [0.3, 0.6, 0.2];
        assert!((exp.predict(&x) - forest.predict(&x)).abs() < 0.3);
    }

    #[test]
    fn interactions_included_when_requested() {
        let forest = make_forest(|x| 4.0 * x[0] * x[1] + x[2], 3, Objective::RegressionL2);
        let cfg = GefConfig {
            num_univariate: 3,
            num_interactions: 1,
            n_samples: 6000,
            interaction_strategy: InteractionStrategy::GainPath,
            ..Default::default()
        };
        let exp = GefExplainer::new(cfg).explain(&forest).unwrap();
        assert_eq!(exp.interactions, vec![(0, 1)]);
        // GAM has 3 univariate + 1 tensor term.
        assert_eq!(exp.gam.num_terms(), 4);
    }

    #[test]
    fn univariate_fit_floor_sheds_tensors_and_records_it() {
        let forest = make_forest(|x| 4.0 * x[0] * x[1] + x[2], 3, Objective::RegressionL2);
        let cfg = GefConfig {
            num_univariate: 3,
            num_interactions: 1,
            n_samples: 6000,
            fit_floor: FitFloor::UnivariateOnly,
            ..Default::default()
        };
        let exp = GefExplainer::new(cfg).explain(&forest).unwrap();
        assert!(exp.interactions.is_empty(), "floor sheds the tensor");
        assert!(exp.interaction_ranking.is_empty(), "ranking is skipped");
        assert_eq!(exp.gam.num_terms(), 3, "univariate smooths only");
        assert!(
            exp.degradations
                .iter()
                .any(|d| d.action == DegradationAction::UnivariateOnly),
            "preemptive shedding is recorded: {:?}",
            exp.degradations
        );
    }

    #[test]
    fn linear_surrogate_fit_floor_starts_at_last_rung() {
        let forest = make_forest(|x| 2.0 * x[0] - x[1], 2, Objective::RegressionL2);
        let cfg = GefConfig {
            num_univariate: 2,
            n_samples: 2000,
            fit_floor: FitFloor::LinearSurrogate,
            ..Default::default()
        };
        let exp = GefExplainer::new(cfg).explain(&forest).unwrap();
        assert!(
            exp.degradations
                .iter()
                .any(|d| d.action == DegradationAction::LinearSurrogate),
            "preemptive floor is recorded: {:?}",
            exp.degradations
        );
        // A linear surrogate of a linear forest is still faithful.
        assert!(exp.fidelity_r2 > 0.8, "r2={}", exp.fidelity_r2);
    }

    /// `explain` fits on the coded `D*`; `explain_with_data` hands the
    /// same `D*` back as rows. Both give the same GAM, the rows re-label
    /// to the labels, and `gef_gam::fit` on the rows reproduces the GAM,
    /// for a regression forest with a tensor term and for a classifier.
    #[test]
    fn explain_and_explain_with_data_agree() {
        let cases = [
            (
                make_forest(|x| 4.0 * x[0] * x[1] + x[2], 3, Objective::RegressionL2),
                1,
            ),
            (
                make_forest(
                    |x| f64::from(x[0] + x[1] > 1.0),
                    2,
                    Objective::BinaryLogistic,
                ),
                0,
            ),
        ];
        for (forest, num_interactions) in cases {
            let cfg = GefConfig {
                num_univariate: forest.num_features,
                num_interactions,
                n_samples: 3000,
                ..Default::default()
            };
            let explainer = GefExplainer::new(cfg.clone());
            let coded = explainer.explain(&forest).unwrap();
            let (exp, dstar) = explainer.explain_with_data(&forest).unwrap();
            assert_eq!(coded.provenance.gam_digest, exp.provenance.gam_digest);
            assert_eq!(exp.gam.num_terms(), forest.num_features + num_interactions);
            assert_eq!(dstar.len(), 3000);
            let labels = forest.predict_batch(&dstar.xs).unwrap();
            let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&labels), bits(&dstar.ys));
            let spec = GamSpec {
                terms: exp.gam.term_specs().to_vec(),
                link: exp.gam.link(),
                lambda: cfg.lambda.clone(),
                ..GamSpec::regression(Vec::new())
            };
            let (train, _) = dstar.split(cfg.train_fraction);
            let refit = gef_gam::fit(&spec, &train.xs, &train.ys).unwrap();
            assert_eq!(refit.content_digest(), exp.gam.content_digest());
        }
    }

    #[test]
    fn classification_pipeline_outputs_probabilities() {
        let forest = make_forest(
            |x| f64::from(x[0] + x[1] > 1.0),
            2,
            Objective::BinaryLogistic,
        );
        let cfg = GefConfig {
            num_univariate: 2,
            n_samples: 4000,
            ..Default::default()
        };
        let exp = GefExplainer::new(cfg).explain(&forest).unwrap();
        let p = exp.predict(&[0.9, 0.9]);
        assert!((0.0..=1.0).contains(&p));
        assert!(p > 0.6, "p={p}");
        assert!(exp.predict(&[0.05, 0.05]) < 0.4);
    }

    #[test]
    fn component_curve_covers_domain() {
        let forest = make_forest(|x| (x[0] * 6.0).sin(), 1, Objective::RegressionL2);
        let exp = GefExplainer::new(GefConfig {
            num_univariate: 1,
            n_samples: 4000,
            ..Default::default()
        })
        .explain(&forest)
        .unwrap();
        let curve = exp.component_curve(0, 50).unwrap();
        assert!(curve.len() >= 2);
        for (_, e, lo, hi) in &curve {
            assert!(lo <= e && e <= hi);
        }
        // Curve spans the sine's range approximately.
        let max = curve.iter().map(|c| c.1).fold(f64::MIN, f64::max);
        let min = curve.iter().map(|c| c.1).fold(f64::MAX, f64::min);
        assert!(max - min > 1.2, "range {min}..{max}");
        // Unknown feature errors.
        assert!(exp.component_curve(99, 10).is_err());
    }

    #[test]
    fn local_explanation_decomposes_prediction() {
        let forest = make_forest(|x| 3.0 * x[0] - 2.0 * x[1], 2, Objective::RegressionL2);
        let exp = GefExplainer::new(GefConfig {
            num_univariate: 2,
            n_samples: 4000,
            ..Default::default()
        })
        .explain(&forest)
        .unwrap();
        let x = [0.9, 0.1];
        let local = exp.local(&x);
        let sum: f64 = local.contributions.iter().map(|c| c.contribution).sum();
        assert!(
            (local.baseline + sum - local.linear_predictor).abs() < 1e-9,
            "decomposition must be exact"
        );
        // Both features push the prediction up at this point.
        assert!(local.contributions[0].contribution > 0.0);
        // Text rendering mentions the features.
        let txt = exp.format_local(&local, Some(&["alpha".into(), "beta".into()]));
        assert!(txt.contains("alpha"));
        assert!(txt.contains("prediction"));
    }

    #[test]
    fn explanation_json_round_trip() {
        let forest = make_forest(|x| 2.0 * x[0] - x[1], 2, Objective::RegressionL2);
        let exp = GefExplainer::new(GefConfig {
            num_univariate: 2,
            n_samples: 3000,
            ..Default::default()
        })
        .explain(&forest)
        .unwrap();
        let json = exp.to_json();
        let reloaded = GefExplanation::from_json(&json).unwrap();
        assert_eq!(reloaded.selected_features, exp.selected_features);
        let x = [0.3, 0.7];
        assert_eq!(reloaded.predict(&x), exp.predict(&x));
        let (a, b) = (exp.local(&x), reloaded.local(&x));
        assert_eq!(a.prediction, b.prediction);
        assert_eq!(
            a.contributions[0].contribution,
            b.contributions[0].contribution
        );
        assert!(GefExplanation::from_json("nope").is_err());
    }

    /// `json` with the top-level field `key` removed, then set to
    /// `value` when given.
    fn with_field(json: &str, key: &str, value: Option<JsonValue>) -> String {
        let Ok(JsonValue::Object(mut pairs)) = gef_trace::json::parse(json) else {
            panic!("not an object: {json}");
        };
        pairs.retain(|(k, _)| k != key);
        pairs.extend(value.map(|v| (key.to_string(), v)));
        JsonValue::Object(pairs).to_json()
    }

    #[test]
    fn explanation_json_is_exact_and_checked() {
        let forest = make_forest(|x| 2.0 * x[0] - x[1] * x[2], 3, Objective::RegressionL2);
        let mut exp = GefExplainer::new(GefConfig {
            num_univariate: 3,
            num_interactions: 1,
            n_samples: 3000,
            ..Default::default()
        })
        .explain(&forest)
        .unwrap();
        let bits = |v: f64| v.to_bits();
        for seed in [u64::MAX, (1 << 53) + 1] {
            exp.provenance.seed = seed;
            let json = exp.to_json();
            let reloaded = GefExplanation::from_json(&json).unwrap();
            assert_eq!(reloaded.provenance.seed, seed);
            assert_eq!(reloaded.provenance, exp.provenance);
            assert_eq!(reloaded.gam.content_digest(), exp.gam.content_digest());
            assert_eq!(
                reloaded.to_json(),
                json,
                "re-serialization is byte-identical"
            );
            for x in [[0.3, 0.7, 0.1], [0.9, 0.05, 0.5], [-1.0, 2.0, 0.5]] {
                let (a, b) = (exp.local(&x), reloaded.local(&x));
                assert_eq!(bits(a.prediction), bits(b.prediction));
                for (ca, cb) in a.contributions.iter().zip(&b.contributions) {
                    assert_eq!(ca.label, cb.label);
                    assert_eq!(bits(ca.contribution), bits(cb.contribution));
                    assert_eq!(bits(ca.std_error), bits(cb.std_error));
                }
            }
        }
        let json = exp.to_json();
        // Archives from before the recovery ladder and provenance
        // existed load with those blocks defaulted.
        let mut legacy = json.clone();
        for key in ["degradations", "provenance"] {
            legacy = with_field(&legacy, key, None);
        }
        let reloaded = GefExplanation::from_json(&legacy).unwrap();
        assert_eq!(reloaded.provenance, Provenance::default());
        assert!(reloaded.degradations.is_empty());
        // Archives that still hold the stage timings a second time, as
        // the top-level `telemetry` key, load with the same field values;
        // new output writes them only under `provenance`.
        assert!(!json.contains("\"telemetry\""), "{json}");
        let timings = gef_trace::json::to_string(&exp.provenance.stage_timings);
        let telemetry = gef_trace::json::parse(&timings).unwrap();
        let old = with_field(&json, "telemetry", Some(telemetry));
        let reloaded = GefExplanation::from_json(&old).unwrap();
        assert_eq!(reloaded.provenance, exp.provenance);
        assert_eq!(reloaded.to_json(), json);
        // Missing required fields and inconsistent lengths are typed
        // errors, not later index panics.
        let short = JsonValue::Array(vec![JsonValue::Bool(false)]);
        for (what, bad) in [
            ("no gam", with_field(&json, "gam", None)),
            ("no domains", with_field(&json, "domains", None)),
            (
                "short categorical",
                with_field(&json, "categorical", Some(short)),
            ),
            (
                "no domains for F'",
                with_field(&json, "domains", Some(JsonValue::Array(vec![]))),
            ),
        ] {
            match GefExplanation::from_json(&bad) {
                Err(GefError::InvalidConfig(msg)) => {
                    assert!(msg.starts_with("explanation json: "), "{what}: {msg}")
                }
                other => panic!(
                    "{what}: expected InvalidConfig, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }

    #[test]
    fn rejects_degenerate_forest() {
        let forest = Forest::new(vec![], 1.0, 1.0, Objective::RegressionL2, 2);
        let r = GefExplainer::new(GefConfig {
            n_samples: 100,
            ..Default::default()
        })
        .explain(&forest);
        assert!(matches!(r, Err(GefError::DegenerateForest(_))));
    }

    #[test]
    fn rejects_bad_config() {
        let forest = make_forest(|x| x[0], 1, Objective::RegressionL2);
        for cfg in [
            GefConfig {
                num_univariate: 0,
                ..Default::default()
            },
            GefConfig {
                n_samples: 2,
                ..Default::default()
            },
            GefConfig {
                train_fraction: 1.5,
                ..Default::default()
            },
            GefConfig {
                spline_basis: 2,
                ..Default::default()
            },
        ] {
            assert!(GefExplainer::new(cfg).explain(&forest).is_err());
        }
    }

    #[test]
    fn validate_rejects_degenerate_spline_basis() {
        let cfg = GefConfig {
            spline_basis: 3,
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("spline_basis"), "{err}");
    }

    #[test]
    fn validate_rejects_degenerate_tensor_basis() {
        let cfg = GefConfig {
            tensor_basis: 2,
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("tensor_basis"), "{err}");
    }

    #[test]
    fn validate_rejects_impossible_interaction_count() {
        // 3 univariate features admit only C(3,2) = 3 pairs.
        let cfg = GefConfig {
            num_univariate: 3,
            num_interactions: 4,
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("num_interactions"), "{err}");
        // The boundary (exactly all pairs) is allowed…
        assert!(GefConfig {
            num_univariate: 3,
            num_interactions: 3,
            ..Default::default()
        }
        .validate()
        .is_ok());
        // …and a single feature admits no interactions at all.
        assert!(GefConfig {
            num_univariate: 1,
            num_interactions: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn stage_timings_total_sums_stages() {
        let t = StageTimings {
            selection_ns: 1,
            sampling_ns: 2,
            generate_ns: 3,
            interactions_ns: 4,
            gam_fit_ns: 5,
        };
        assert_eq!(t.total_ns(), 15);
        assert_eq!(StageTimings::default().total_ns(), 0);
    }

    #[test]
    fn explanation_records_stage_timings() {
        let forest = make_forest(|x| 2.0 * x[0], 1, Objective::RegressionL2);
        let exp = GefExplainer::new(GefConfig {
            num_univariate: 1,
            n_samples: 1000,
            ..Default::default()
        })
        .explain(&forest)
        .unwrap();
        // Generation and fitting always take measurable time.
        let t = exp.provenance.stage_timings;
        assert!(t.generate_ns > 0);
        assert!(t.gam_fit_ns > 0);
        assert!(t.total_ns() > 0);
    }

    #[test]
    fn config_digest_is_stable_and_field_sensitive() {
        let a = GefConfig::default();
        assert_eq!(a.content_digest(), GefConfig::default().content_digest());
        let b = GefConfig {
            seed: 1,
            ..Default::default()
        };
        assert_ne!(a.content_digest(), b.content_digest());
        let c = GefConfig {
            sampling: SamplingStrategy::EquiSize(60),
            ..Default::default()
        };
        assert_ne!(a.content_digest(), c.content_digest());
    }

    #[test]
    fn explanation_carries_provenance() {
        let forest = make_forest(|x| 2.0 * x[0], 1, Objective::RegressionL2);
        let cfg = GefConfig {
            num_univariate: 1,
            n_samples: 1000,
            seed: 9,
            ..Default::default()
        };
        let exp = GefExplainer::new(cfg.clone()).explain(&forest).unwrap();
        let p = &exp.provenance;
        assert_eq!(p.schema_version, 1);
        assert_eq!(
            p.config_digest,
            gef_trace::hash::to_hex(cfg.content_digest())
        );
        assert_eq!(
            p.forest_digest,
            gef_trace::hash::to_hex(forest.content_digest())
        );
        assert_eq!(
            p.gam_digest,
            gef_trace::hash::to_hex(exp.gam.content_digest())
        );
        assert_eq!(p.seed, 9);
        assert!(p.threads >= 1);
        assert_eq!(p.degradations.len(), exp.degradations.len());
        // JSON round-trip preserves provenance; legacy archives (no
        // provenance key) default to the version-0 block.
        let reloaded = GefExplanation::from_json(&exp.to_json()).unwrap();
        assert_eq!(reloaded.provenance, exp.provenance);
    }

    #[test]
    fn categorical_feature_gets_factor_term() {
        // Feature 1 takes only 3 distinct values in the training data,
        // so the forest can use at most 2 distinct thresholds for it.
        let xs: Vec<Vec<f64>> = (0..1500)
            .map(|i| vec![(i % 97) as f64 / 97.0, (i % 3) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + 2.0 * x[1]).collect();
        let forest = GbdtTrainer::new(GbdtParams {
            num_trees: 60,
            num_leaves: 12,
            learning_rate: 0.2,
            min_data_in_leaf: 10,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        let exp = GefExplainer::new(GefConfig {
            num_univariate: 2,
            n_samples: 4000,
            ..Default::default()
        })
        .explain(&forest)
        .unwrap();
        let term1 = exp.term_of_feature(1).unwrap();
        assert!(exp.categorical[term1]);
        assert!(exp.gam.term_label(term1).starts_with("f("));
    }
}
