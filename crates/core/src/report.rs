//! Serializable explanation reports.
//!
//! [`ExplanationReport`] is a self-contained JSON-friendly summary of a
//! [`crate::GefExplanation`]: selected features, interaction ranking,
//! fidelity, and the component curves with credible bands. It is what a
//! certification authority would archive next to the audited model, and
//! what downstream plotting tools consume.

use crate::pipeline::{GefExplanation, Provenance};
use crate::recovery::Degradation;
use gef_trace::json;

/// One univariate component curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Feature value.
    pub x: f64,
    /// Centered component estimate.
    pub estimate: f64,
    /// Lower 95% credible bound.
    pub lo: f64,
    /// Upper 95% credible bound.
    pub hi: f64,
}

/// One selected feature with its curve.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureReport {
    /// Feature index in the model's input space.
    pub feature: usize,
    /// Feature name, when available.
    pub name: Option<String>,
    /// Accumulated forest gain (why it was selected).
    pub gain: f64,
    /// Whether it was modelled as a factor (categorical) term.
    pub categorical: bool,
    /// Term importance (sd of the component over `D*`).
    pub importance: f64,
    /// Component curve over the sampling domain.
    pub curve: Vec<CurvePoint>,
}

/// A ranked interaction candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionReport {
    /// The feature pair.
    pub features: (usize, usize),
    /// Heuristic importance score.
    pub score: f64,
    /// Whether the pair was included as a tensor term.
    pub selected: bool,
}

/// Serializable summary of a GEF explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationReport {
    /// Report format version.
    pub version: u32,
    /// Selected univariate features with their curves.
    pub features: Vec<FeatureReport>,
    /// Full interaction ranking.
    pub interactions: Vec<InteractionReport>,
    /// RMSE of the surrogate vs the forest on held-out `D*`.
    pub fidelity_rmse: f64,
    /// R² of the surrogate vs the forest on held-out `D*`.
    pub fidelity_r2: f64,
    /// Graceful degradations applied while producing the explanation.
    /// An auditor reading the report can tell at a glance whether the
    /// fidelity numbers come from the full model or a degraded one.
    /// Defaults to empty for reports archived before the recovery
    /// ladder existed.
    pub degradations: Vec<Degradation>,
    /// Structured provenance of the producing run (config / forest /
    /// GAM digests, seed, threads, budget outcome, stage timings).
    /// Defaults to the all-empty version-0 block for reports archived
    /// before provenance existed.
    pub provenance: Provenance,
}

gef_trace::json_struct!(CurvePoint {
    x,
    estimate,
    lo,
    hi
});
// serde read an absent `Option` field as `None`.
gef_trace::json_struct!(FeatureReport {
    feature,
    gain,
    categorical,
    importance,
    curve;
    default name
});
gef_trace::json_struct!(InteractionReport {
    features,
    score,
    selected
});
gef_trace::json_struct!(ExplanationReport {
    version,
    features,
    interactions,
    fidelity_rmse,
    fidelity_r2;
    default degradations,
    provenance
});

impl ExplanationReport {
    /// Build a report from an explanation; `names` (if given) resolves
    /// feature indices to names, `grid` controls curve resolution.
    pub fn from_explanation(exp: &GefExplanation, names: Option<&[String]>, grid: usize) -> Self {
        let features = exp
            .selected_features
            .iter()
            .enumerate()
            .map(|(term, &f)| FeatureReport {
                feature: f,
                name: names.and_then(|n| n.get(f).cloned()),
                gain: exp.profile.gain(f),
                categorical: exp.categorical[term],
                importance: exp.gam.term_importance(term),
                curve: exp
                    .component_curve(f, grid)
                    .map(|c| {
                        c.into_iter()
                            .map(|(x, estimate, lo, hi)| CurvePoint {
                                x,
                                estimate,
                                lo,
                                hi,
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect();
        let interactions = exp
            .interaction_ranking
            .iter()
            .map(|&(pair, score)| InteractionReport {
                features: pair,
                score,
                selected: exp.interactions.contains(&pair),
            })
            .collect();
        ExplanationReport {
            version: 1,
            features,
            interactions,
            fidelity_rmse: exp.fidelity_rmse,
            fidelity_r2: exp.fidelity_r2,
            degradations: exp.degradations.clone(),
            provenance: exp.provenance.clone(),
        }
    }

    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parse a report back from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GefConfig, GefExplainer};
    use gef_forest::{GbdtParams, GbdtTrainer};

    fn explanation() -> GefExplanation {
        let xs: Vec<Vec<f64>> = (0..800)
            .map(|i| vec![(i % 53) as f64 / 53.0, (i % 29) as f64 / 29.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 - x[1]).collect();
        let forest = GbdtTrainer::new(GbdtParams {
            num_trees: 40,
            num_leaves: 8,
            learning_rate: 0.2,
            min_data_in_leaf: 5,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        GefExplainer::new(GefConfig {
            num_univariate: 2,
            num_interactions: 1,
            n_samples: 3000,
            ..Default::default()
        })
        .explain(&forest)
        .unwrap()
    }

    #[test]
    fn report_round_trips_through_json() {
        let exp = explanation();
        let names = vec!["alpha".to_string(), "beta".to_string()];
        let report = ExplanationReport::from_explanation(&exp, Some(&names), 11);
        let json = report.to_json();
        let parsed = ExplanationReport::from_json(&json).unwrap();
        assert_eq!(report, parsed);
        // Reports archived with a top-level copy of the provenance
        // block's stage timings (`stage_timings`) load with the same
        // field values; new output writes them only under `provenance`.
        let Ok(json::JsonValue::Object(mut pairs)) = json::parse(&json) else {
            panic!("not an object: {json}");
        };
        assert!(pairs.iter().all(|(k, _)| k != "stage_timings"), "{json}");
        let timings = json::to_string(&exp.provenance.stage_timings);
        pairs.push(("stage_timings".to_string(), json::parse(&timings).unwrap()));
        let old = json::JsonValue::Object(pairs).to_json();
        assert_eq!(ExplanationReport::from_json(&old).unwrap(), report);
    }

    #[test]
    fn report_contents_match_explanation() {
        let exp = explanation();
        let report = ExplanationReport::from_explanation(&exp, None, 11);
        assert_eq!(report.features.len(), exp.selected_features.len());
        assert_eq!(report.interactions.len(), exp.interaction_ranking.len());
        assert_eq!(report.fidelity_rmse, exp.fidelity_rmse);
        // Selected interactions are flagged.
        let n_selected = report.interactions.iter().filter(|i| i.selected).count();
        assert_eq!(n_selected, exp.interactions.len());
        // Curves have the requested resolution (continuous features).
        for f in &report.features {
            if !f.categorical {
                assert_eq!(f.curve.len(), 11);
            }
            assert!(f
                .curve
                .iter()
                .all(|p| p.lo <= p.estimate && p.estimate <= p.hi));
        }
        assert!(report.features[0].name.is_none());
        // Degradations are carried over.
        assert_eq!(report.degradations, exp.degradations);
        assert!(
            report.degradations.is_empty(),
            "clean run should not degrade"
        );
        // Provenance is copied through verbatim.
        assert_eq!(report.provenance, exp.provenance);
        assert_eq!(report.provenance.schema_version, 1);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(ExplanationReport::from_json("{").is_err());
        assert!(ExplanationReport::from_json("{}").is_err());
    }
}
