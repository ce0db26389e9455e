//! Graceful-degradation ladder around the GAM-fit stage.
//!
//! A production explainer must degrade predictably instead of failing
//! outright when one term of the surrogate is numerically hostile (a
//! near-singular tensor on a skewed domain, PIRLS divergence on
//! near-separable labels, an all-non-finite GCV grid). When the fit of
//! the full specification fails with a *retryable* error (see
//! [`gef_gam::GamError::is_retryable`]) — or succeeds but produces
//! non-finite held-out fidelity — `fit_with_recovery` (crate-internal)
//! retries with
//! progressively simpler specifications:
//!
//! 1. **full** — the requested specification, unmodified;
//! 2. **drop worst tensor** — remove the tensor term with the least
//!    anchor slack (fewest distinct anchor points relative to its basis
//!    size), the usual conditioning culprit;
//! 3. **shrink bases** — halve every spline basis (floor 4, tensor
//!    margins included), trading resolution for conditioning;
//! 4. **widen λ grid** — rescan GCV over `[1e-8, 1e8]` so much heavier
//!    smoothing becomes reachable;
//! 5. **univariate only** — drop all remaining tensor terms;
//! 6. **linear surrogate** — last resort: degree-1, two-basis splines
//!    (straight lines) per continuous feature, factors kept.
//!
//! Every step taken is recorded as a [`Degradation`] — **never
//! silently** — on the returned explanation, emitted as a `gef_trace`
//! event, and counted under `pipeline.degradations`. The ladder also
//! publishes its attempt index via [`gef_trace::fault::set_stage`], so
//! fault-injection tests can make exactly the first *r* rungs fail with
//! `Trigger::StageBelow(r)`.

use crate::generate::CodedDataset;
use crate::{GefError, Result};
use gef_data::metrics;
use gef_gam::{Gam, GamSpec, LambdaSelection, TermSpec};
use gef_trace::json::{JsonValue, JsonWriter, ReadJson, WriteJson};

/// A **preemptive** lower bound on the surrogate's complexity: where
/// the fit *starts*, not where it may end up. The recovery ladder
/// reaches the same rungs reactively (after failed attempts); a fit
/// floor jumps there up front, skipping the cost of the richer spec
/// entirely. This is the load-shedding hook `gef-serve` arms as queue
/// depth rises (serve a cheaper explanation instead of a 503) and its
/// circuit breaker trips to after repeated fit failures.
///
/// Any floor below [`FitFloor::Full`] is recorded as a [`Degradation`]
/// on the returned explanation — preemptive degradation is still
/// degradation, never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum FitFloor {
    /// No floor: the full requested specification (tensors included).
    #[default]
    Full,
    /// Skip interaction ranking and tensor terms; univariate smooths
    /// only (the ladder's rung 5 entered preemptively).
    UnivariateOnly,
    /// Straight lines per continuous feature, factors kept — the
    /// ladder's last rung, and the cheapest explanation that is still
    /// an explanation.
    LinearSurrogate,
}

impl FitFloor {
    /// Short machine-readable label (telemetry, server stats).
    pub fn label(&self) -> &'static str {
        match self {
            FitFloor::Full => "full",
            FitFloor::UnivariateOnly => "univariate_only",
            FitFloor::LinearSurrogate => "linear_surrogate",
        }
    }
}

/// What one recovery (or input-hardening) step did to the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationAction {
    /// Removed the worst-conditioned tensor term.
    DroppedTensor {
        /// The feature pair of the removed term.
        features: (usize, usize),
    },
    /// Halved every spline basis (floor 4).
    ShrunkBases {
        /// Largest univariate basis size after shrinking.
        spline_basis: usize,
        /// Largest tensor margin basis size after shrinking.
        tensor_basis: usize,
    },
    /// Replaced the λ grid with a much wider one.
    WidenedLambdaGrid {
        /// Low end of the new grid.
        lo: f64,
        /// High end of the new grid.
        hi: f64,
    },
    /// Dropped every remaining tensor term.
    UnivariateOnly,
    /// Replaced all smooths with straight lines (factors kept).
    LinearSurrogate,
    /// Removed `D*` rows whose forest label was NaN or infinite.
    ScrubbedNonFiniteLabels {
        /// Rows removed.
        removed: usize,
        /// Rows before scrubbing.
        total: usize,
    },
    /// A selected feature's sampling domain collapsed (< 2 points);
    /// fell back to its All-Thresholds domain.
    DomainFallback {
        /// The affected feature.
        feature: usize,
    },
    /// The `GEF_MAX_DSTAR_ROWS` budget capped `D*` below the requested
    /// size.
    CappedDstarRows {
        /// Rows the configuration asked for.
        requested: usize,
        /// Rows actually generated.
        capped: usize,
    },
}

impl DegradationAction {
    /// Short machine-readable label (used in reports and telemetry).
    pub fn label(&self) -> &'static str {
        match self {
            DegradationAction::DroppedTensor { .. } => "dropped_tensor",
            DegradationAction::ShrunkBases { .. } => "shrunk_bases",
            DegradationAction::WidenedLambdaGrid { .. } => "widened_lambda_grid",
            DegradationAction::UnivariateOnly => "univariate_only",
            DegradationAction::LinearSurrogate => "linear_surrogate",
            DegradationAction::ScrubbedNonFiniteLabels { .. } => "scrubbed_non_finite_labels",
            DegradationAction::DomainFallback { .. } => "domain_fallback",
            DegradationAction::CappedDstarRows { .. } => "capped_dstar_rows",
        }
    }
}

/// One recorded degradation: which stage gave up what, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Pipeline stage that degraded (`sampling`, `labeling`, `gam_fit`).
    pub stage: String,
    /// What was changed.
    pub action: DegradationAction,
    /// Human-readable cause (the error or anomaly that triggered it).
    pub cause: String,
}

/// Externally tagged: `"UnivariateOnly"`, or e.g.
/// `{"DroppedTensor": {"features": [1, 2]}}`.
impl WriteJson for DegradationAction {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            DegradationAction::DroppedTensor { features } => {
                w.begin_variant("DroppedTensor");
                w.field("features", features);
            }
            DegradationAction::ShrunkBases {
                spline_basis,
                tensor_basis,
            } => {
                w.begin_variant("ShrunkBases");
                w.field("spline_basis", spline_basis);
                w.field("tensor_basis", tensor_basis);
            }
            DegradationAction::WidenedLambdaGrid { lo, hi } => {
                w.begin_variant("WidenedLambdaGrid");
                w.field("lo", lo);
                w.field("hi", hi);
            }
            DegradationAction::UnivariateOnly => return w.value_str("UnivariateOnly"),
            DegradationAction::LinearSurrogate => return w.value_str("LinearSurrogate"),
            DegradationAction::ScrubbedNonFiniteLabels { removed, total } => {
                w.begin_variant("ScrubbedNonFiniteLabels");
                w.field("removed", removed);
                w.field("total", total);
            }
            DegradationAction::DomainFallback { feature } => {
                w.begin_variant("DomainFallback");
                w.field("feature", feature);
            }
            DegradationAction::CappedDstarRows { requested, capped } => {
                w.begin_variant("CappedDstarRows");
                w.field("requested", requested);
                w.field("capped", capped);
            }
        }
        w.end_variant();
    }
}

impl ReadJson for DegradationAction {
    fn read_json(v: &JsonValue) -> std::result::Result<DegradationAction, String> {
        let (tag, b) = v.variant()?;
        Ok(match tag {
            "DroppedTensor" => DegradationAction::DroppedTensor {
                features: b.req("features")?,
            },
            "ShrunkBases" => DegradationAction::ShrunkBases {
                spline_basis: b.req("spline_basis")?,
                tensor_basis: b.req("tensor_basis")?,
            },
            "WidenedLambdaGrid" => DegradationAction::WidenedLambdaGrid {
                lo: b.req("lo")?,
                hi: b.req("hi")?,
            },
            "UnivariateOnly" => DegradationAction::UnivariateOnly,
            "LinearSurrogate" => DegradationAction::LinearSurrogate,
            "ScrubbedNonFiniteLabels" => DegradationAction::ScrubbedNonFiniteLabels {
                removed: b.req("removed")?,
                total: b.req("total")?,
            },
            "DomainFallback" => DegradationAction::DomainFallback {
                feature: b.req("feature")?,
            },
            "CappedDstarRows" => DegradationAction::CappedDstarRows {
                requested: b.req("requested")?,
                capped: b.req("capped")?,
            },
            other => return Err(format!("unknown degradation action `{other}`")),
        })
    }
}

gef_trace::json_struct!(Degradation {
    stage,
    action,
    cause
});

impl Degradation {
    /// Record a degradation: push it and emit the matching telemetry.
    pub(crate) fn record(
        list: &mut Vec<Degradation>,
        stage: &str,
        action: DegradationAction,
        cause: String,
    ) {
        if gef_trace::enabled() {
            gef_trace::counter!("pipeline.degradations").incr();
            gef_trace::global().event(
                "pipeline.degradation",
                &[("count", (list.len() + 1) as f64)],
            );
        }
        // Always leave a breadcrumb in the flight recorder (independent
        // of GEF_TRACE) so incident dumps carry the ladder history.
        gef_trace::recorder::note(
            gef_trace::recorder::Kind::Degradation,
            action.label(),
            &format!("{stage}: {cause}"),
        );
        list.push(Degradation {
            stage: stage.to_string(),
            action,
            cause,
        });
    }
}

/// Anchor slack of a tensor term: how many more distinct anchor points
/// than basis functions its tightest margin has. Small (or negative)
/// slack means the penalized system is at risk of near-singularity —
/// that tensor is dropped first.
fn tensor_slack(term: &TermSpec) -> i64 {
    match term {
        TermSpec::TensorAnchored {
            num_basis, anchors, ..
        } => {
            let a = anchors.0.len() as i64 - num_basis.0 as i64;
            let b = anchors.1.len() as i64 - num_basis.1 as i64;
            a.min(b)
        }
        // Range-based tensors carry no anchor information; treat them
        // as moderately conditioned.
        TermSpec::Tensor { .. } => i64::MAX / 2,
        _ => i64::MAX,
    }
}

fn is_tensor(term: &TermSpec) -> bool {
    matches!(
        term,
        TermSpec::Tensor { .. } | TermSpec::TensorAnchored { .. }
    )
}

fn tensor_features(term: &TermSpec) -> (usize, usize) {
    match term {
        TermSpec::Tensor { features, .. } | TermSpec::TensorAnchored { features, .. } => *features,
        _ => (0, 0),
    }
}

/// Drop the tensor term with the smallest anchor slack. Returns the
/// simplified spec and the dropped pair, or `None` if no tensor exists.
fn drop_worst_tensor(spec: &GamSpec) -> Option<(GamSpec, (usize, usize))> {
    let worst = spec
        .terms
        .iter()
        .enumerate()
        .filter(|(_, t)| is_tensor(t))
        .min_by_key(|(_, t)| tensor_slack(t))?;
    let (idx, features) = (worst.0, tensor_features(worst.1));
    let mut out = spec.clone();
    out.terms.remove(idx);
    Some((out, features))
}

/// Halve every spline basis (floor 4, the cubic B-spline order).
/// Returns the simplified spec and the resulting largest basis sizes,
/// or `None` if nothing shrank.
fn shrink_bases(spec: &GamSpec) -> Option<(GamSpec, usize, usize)> {
    let mut out = spec.clone();
    let mut changed = false;
    let (mut max_spline, mut max_tensor) = (0usize, 0usize);
    let halve = |k: usize, changed: &mut bool| {
        let h = (k / 2).max(4);
        if h < k {
            *changed = true;
        }
        h
    };
    for term in &mut out.terms {
        match term {
            TermSpec::Spline { num_basis, .. } | TermSpec::SplineAnchored { num_basis, .. } => {
                *num_basis = halve(*num_basis, &mut changed);
                max_spline = max_spline.max(*num_basis);
            }
            TermSpec::Tensor { num_basis, .. } | TermSpec::TensorAnchored { num_basis, .. } => {
                num_basis.0 = halve(num_basis.0, &mut changed);
                num_basis.1 = halve(num_basis.1, &mut changed);
                max_tensor = max_tensor.max(num_basis.0).max(num_basis.1);
            }
            TermSpec::Factor { .. } => {}
        }
    }
    changed.then_some((out, max_spline, max_tensor))
}

/// Bounds of the widened λ grid (vs the default `[1e-4, 1e4]`).
const WIDE_LAMBDA: (f64, f64, usize) = (1e-8, 1e8, 17);

/// Rescan GCV over a much wider λ grid.
fn widen_lambda(spec: &GamSpec) -> GamSpec {
    let (lo, hi, n) = WIDE_LAMBDA;
    let mut out = spec.clone();
    out.lambda = LambdaSelection::GcvGrid(gef_linalg::stats::logspace(lo, hi, n));
    out
}

/// Drop every tensor term. Returns `None` if there is none left.
fn univariate_only(spec: &GamSpec) -> Option<GamSpec> {
    if !spec.terms.iter().any(is_tensor) {
        return None;
    }
    let mut out = spec.clone();
    out.terms.retain(|t| !is_tensor(t));
    Some(out)
}

/// Last resort: straight lines (degree-1, two-basis splines) for every
/// continuous feature; factor terms kept; tensors dropped. Also the
/// [`FitFloor::LinearSurrogate`] entry point, so the pipeline can jump
/// here preemptively.
pub(crate) fn linear_surrogate(spec: &GamSpec) -> GamSpec {
    let mut out = spec.clone();
    let mut terms = Vec::with_capacity(out.terms.len());
    for term in &out.terms {
        match term {
            TermSpec::Factor { .. } => terms.push(term.clone()),
            TermSpec::Spline { feature, range, .. } => terms.push(TermSpec::Spline {
                feature: *feature,
                num_basis: 2,
                degree: 1,
                range: *range,
            }),
            TermSpec::SplineAnchored {
                feature, anchors, ..
            } => {
                let (lo, hi) = (
                    anchors.first().copied().unwrap_or(0.0),
                    anchors.last().copied().unwrap_or(1.0),
                );
                if hi > lo {
                    terms.push(TermSpec::Spline {
                        feature: *feature,
                        num_basis: 2,
                        degree: 1,
                        range: (lo, hi),
                    });
                } else {
                    // Degenerate single-point domain: a one-level factor
                    // (a constant offset) is the only sane term left.
                    terms.push(TermSpec::Factor {
                        feature: *feature,
                        levels: vec![lo],
                    });
                }
            }
            TermSpec::Tensor { .. } | TermSpec::TensorAnchored { .. } => {}
        }
    }
    out.terms = terms;
    out
}

/// Why one fit attempt failed: descend the ladder, or abort typed.
enum AttemptFailure {
    /// Abort now with this error — budget trips and worker panics keep
    /// their typed identity; non-retryable data/spec errors stop the
    /// ladder immediately.
    Fatal(GefError),
    /// Numerically hostile but worth retrying on a simpler spec.
    Retryable(String),
}

/// One fit attempt: fit on `D*`'s rows before `cut`, score fidelity on
/// the rest with the checked metrics, and fail retryably when the score
/// is not a real number.
fn attempt(
    spec: &GamSpec,
    dstar: &CodedDataset,
    cut: usize,
) -> std::result::Result<(Gam, f64, f64), AttemptFailure> {
    use gef_gam::GamError;
    let gam = match dstar.fit_gam(spec, 0..cut) {
        Ok(g) => g,
        Err(e @ (GamError::DeadlineExceeded { .. } | GamError::WorkerPanicked(_))) => {
            return Err(AttemptFailure::Fatal(e.into()))
        }
        Err(e) if e.is_retryable() => return Err(AttemptFailure::Retryable(e.to_string())),
        Err(e) => {
            return Err(AttemptFailure::Fatal(GefError::Gam(GamError::InvalidData(
                e.to_string(),
            ))))
        }
    };
    let preds = dstar
        .predict_gam(&gam, cut..dstar.len())
        .map_err(|e| AttemptFailure::Fatal(e.into()))?;
    let test = &dstar.labels()[cut..];
    let rmse = metrics::try_rmse(&preds, test)
        .map_err(|e| AttemptFailure::Retryable(format!("non-finite fidelity: {e}")))?;
    let r2 = metrics::try_r2(&preds, test)
        .map_err(|e| AttemptFailure::Retryable(format!("non-finite fidelity: {e}")))?;
    Ok((gam, rmse, r2))
}

/// Advance `rung` to the next *applicable* simplification of `current`
/// and return the simplified spec with its degradation action. Rungs
/// that would not change the spec (no tensor to drop, nothing left to
/// shrink) are skipped; `None` means the ladder is exhausted.
fn next_rung(current: &GamSpec, rung: &mut usize) -> Option<(GamSpec, DegradationAction)> {
    loop {
        *rung += 1;
        match *rung {
            1 => {
                if let Some((next, features)) = drop_worst_tensor(current) {
                    return Some((next, DegradationAction::DroppedTensor { features }));
                }
            }
            2 => {
                if let Some((next, sb, tb)) = shrink_bases(current) {
                    return Some((
                        next,
                        DegradationAction::ShrunkBases {
                            spline_basis: sb,
                            tensor_basis: tb,
                        },
                    ));
                }
            }
            3 => {
                return Some((
                    widen_lambda(current),
                    DegradationAction::WidenedLambdaGrid {
                        lo: WIDE_LAMBDA.0,
                        hi: WIDE_LAMBDA.1,
                    },
                ));
            }
            4 => {
                if let Some(next) = univariate_only(current) {
                    return Some((next, DegradationAction::UnivariateOnly));
                }
            }
            5 => {
                return Some((
                    linear_surrogate(current),
                    DegradationAction::LinearSurrogate,
                ));
            }
            _ => return None,
        }
    }
}

/// Fit `spec` on `D*`'s rows before `cut`, descending the degradation
/// ladder on retryable failure.
///
/// On success returns the fitted GAM with its fidelity `(rmse, r2)` on
/// the rows from `cut` on; every rung descended is appended to
/// `degradations`. Non-retryable errors (bad data, bad spec) abort
/// immediately; an exhausted ladder returns
/// [`GefError::RecoveryExhausted`].
pub(crate) fn fit_with_recovery(
    spec: &GamSpec,
    dstar: &CodedDataset,
    cut: usize,
    degradations: &mut Vec<Degradation>,
) -> Result<(Gam, f64, f64)> {
    let mut current = spec.clone();
    // Ladder rung currently being *prepared* (0 = full spec). Rungs
    // that would not change the spec (no tensor to drop, nothing to
    // shrink) are skipped without counting as attempts.
    let mut rung = 0usize;
    let mut attempts = 0usize;
    // Soft-deadline pressure descends the ladder preemptively, at most
    // once per run: trade resolution for time *before* the hard
    // deadline forces an abort.
    let mut soft_stepped = false;
    loop {
        // Attempt-boundary checkpoints: the hard deadline aborts typed,
        // the soft one steers the next attempt to a cheaper spec.
        if gef_trace::budget::hard_exceeded() {
            gef_trace::fault::set_stage(0);
            return Err(GefError::DeadlineExceeded { at: "gam_fit" });
        }
        if !soft_stepped && gef_trace::budget::soft_exceeded() {
            soft_stepped = true;
            if let Some((next, action)) = next_rung(&current, &mut rung) {
                if gef_trace::enabled() {
                    gef_trace::global().event("pipeline.soft_deadline", &[("rung", rung as f64)]);
                }
                Degradation::record(
                    degradations,
                    "gam_fit",
                    action,
                    "soft deadline exceeded; descending to a cheaper spec preemptively".into(),
                );
                current = next;
            }
        }
        gef_trace::fault::set_stage(attempts as u32);
        let _span = gef_trace::Span::enter("pipeline.fit_attempt");
        match attempt(&current, dstar, cut) {
            Ok(out) => {
                gef_trace::fault::set_stage(0);
                return Ok(out);
            }
            Err(AttemptFailure::Fatal(e)) => {
                gef_trace::fault::set_stage(0);
                return Err(e);
            }
            Err(AttemptFailure::Retryable(cause)) => {
                attempts += 1;
                let Some((next, action)) = next_rung(&current, &mut rung) else {
                    gef_trace::fault::set_stage(0);
                    return Err(GefError::RecoveryExhausted {
                        attempts,
                        last: cause,
                    });
                };
                Degradation::record(degradations, "gam_fit", action, cause);
                current = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gef_gam::Link;

    fn base_spec() -> GamSpec {
        let anchors: Vec<f64> = (0..30).map(|i| i as f64 / 29.0).collect();
        GamSpec {
            terms: vec![
                TermSpec::SplineAnchored {
                    feature: 0,
                    num_basis: 12,
                    degree: 3,
                    anchors: anchors.clone(),
                },
                TermSpec::SplineAnchored {
                    feature: 1,
                    num_basis: 12,
                    degree: 3,
                    anchors: anchors.clone(),
                },
                TermSpec::TensorAnchored {
                    features: (0, 1),
                    num_basis: (6, 6),
                    anchors: (anchors.clone(), anchors.clone()),
                    degree: 3,
                },
                TermSpec::TensorAnchored {
                    features: (0, 1),
                    num_basis: (8, 8),
                    anchors: (anchors[..10].to_vec(), anchors[..10].to_vec()),
                    degree: 3,
                },
            ],
            link: Link::Identity,
            lambda: LambdaSelection::default(),
            penalty_order: 2,
            max_pirls_iter: 25,
            tol: 1e-8,
        }
    }

    #[test]
    fn drops_least_slack_tensor_first() {
        let spec = base_spec();
        // Second tensor: 10 anchors vs 8 basis functions (slack 2); the
        // first has 30 vs 6 (slack 24). The tight one must go first.
        let (next, features) = drop_worst_tensor(&spec).unwrap();
        assert_eq!(features, (0, 1));
        assert_eq!(next.terms.len(), 3);
        assert!(next.terms.iter().any(|t| matches!(
            t,
            TermSpec::TensorAnchored {
                num_basis: (6, 6),
                ..
            }
        )));
        assert!(!next.terms.iter().any(|t| matches!(
            t,
            TermSpec::TensorAnchored {
                num_basis: (8, 8),
                ..
            }
        )));
    }

    #[test]
    fn shrinking_halves_with_floor_four() {
        let (next, sb, tb) = shrink_bases(&base_spec()).unwrap();
        assert_eq!(sb, 6); // 12 → 6
        assert_eq!(tb, 4); // 8 → 4, 6 → 4 (floored)
                           // A fully shrunk spec (everything at the floor) has nothing
                           // left to shrink.
        let again = shrink_bases(&next).and_then(|(s, _, _)| shrink_bases(&s));
        assert!(again.is_none());
    }

    #[test]
    fn univariate_only_strips_tensors() {
        let next = univariate_only(&base_spec()).unwrap();
        assert_eq!(next.terms.len(), 2);
        assert!(univariate_only(&next).is_none());
    }

    #[test]
    fn linear_surrogate_uses_straight_lines() {
        let lin = linear_surrogate(&base_spec());
        assert_eq!(lin.terms.len(), 2);
        for t in &lin.terms {
            assert!(matches!(
                t,
                TermSpec::Spline {
                    num_basis: 2,
                    degree: 1,
                    ..
                }
            ));
        }
    }

    #[test]
    fn widened_grid_covers_heavier_smoothing() {
        let wide = widen_lambda(&base_spec());
        let LambdaSelection::GcvGrid(g) = &wide.lambda else {
            panic!("expected a grid");
        };
        assert_eq!(g.len(), WIDE_LAMBDA.2);
        assert!(g[0] <= 1e-8 * 1.01);
        assert!(g[g.len() - 1] >= 1e8 * 0.99);
    }

    #[test]
    fn clean_fit_records_no_degradations() {
        let domains: Vec<Vec<f64>> = [31, 17]
            .iter()
            .map(|&k| (0..k).map(|i| i as f64 / k as f64).collect())
            .collect();
        let codes: Vec<u16> = (0..400u16).flat_map(|i| [i % 31, i % 17]).collect();
        let ys: Vec<f64> = (0..400)
            .map(|i| domains[0][i % 31] * 2.0 - domains[1][i % 17])
            .collect();
        let dstar = CodedDataset {
            codes: crate::generate::Codes::U16(codes),
            ys,
            domains,
        };
        let spec = GamSpec::regression(vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::spline(1, (0.0, 1.0)),
        ]);
        let mut degradations = Vec::new();
        let (gam, rmse, r2) = fit_with_recovery(&spec, &dstar, 300, &mut degradations).unwrap();
        assert!(degradations.is_empty());
        assert!(rmse.is_finite() && r2.is_finite());
        assert!(gam.num_terms() == 2);
    }
}
