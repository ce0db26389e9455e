//! Evaluation metrics: RMSE, R², Average Precision, ROC AUC, accuracy.
//!
//! [`average_precision`] is the ranking metric the paper borrows to
//! score interaction-detection heuristics (Fig. 6 / Table 1): candidate
//! pairs are ranked by estimated importance and scored against the set
//! of truly injected pairs.
//!
//! ## NaN/Inf policy
//!
//! The plain metrics ([`rmse`], [`r2`], …) assume finite, non-empty
//! inputs: they `assert!` on empty/mismatched slices and **propagate
//! NaN arithmetically** when fed non-finite values. Pipeline code that
//! can meet hostile numerics (the GEF recovery ladder scoring a
//! possibly-degenerate fit) should use the checked variants
//! [`try_rmse`] / [`try_r2`], which return a [`MetricError`] instead of
//! a sentinel or a panic.

use std::fmt;

/// Why a checked metric could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricError {
    /// Input slices were empty.
    Empty,
    /// Input slices had different lengths.
    LengthMismatch {
        /// Length of the prediction slice.
        pred: usize,
        /// Length of the truth slice.
        truth: usize,
    },
    /// An input value (or the resulting score) was NaN or infinite.
    NonFinite {
        /// Index of the first offending value, if attributable.
        index: Option<usize>,
    },
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::Empty => write!(f, "metric on empty input"),
            MetricError::LengthMismatch { pred, truth } => {
                write!(
                    f,
                    "metric length mismatch: {pred} predictions vs {truth} truths"
                )
            }
            MetricError::NonFinite { index: Some(i) } => {
                write!(f, "non-finite metric input at index {i}")
            }
            MetricError::NonFinite { index: None } => write!(f, "non-finite metric value"),
        }
    }
}

impl std::error::Error for MetricError {}

fn check_pair(pred: &[f64], truth: &[f64]) -> Result<(), MetricError> {
    if pred.len() != truth.len() {
        return Err(MetricError::LengthMismatch {
            pred: pred.len(),
            truth: truth.len(),
        });
    }
    if pred.is_empty() {
        return Err(MetricError::Empty);
    }
    for (i, (p, t)) in pred.iter().zip(truth).enumerate() {
        if !p.is_finite() || !t.is_finite() {
            return Err(MetricError::NonFinite { index: Some(i) });
        }
    }
    Ok(())
}

/// Checked [`rmse`]: errors on empty, mismatched, or non-finite input.
pub fn try_rmse(pred: &[f64], truth: &[f64]) -> Result<f64, MetricError> {
    check_pair(pred, truth)?;
    let v = rmse(pred, truth);
    if v.is_finite() {
        Ok(v)
    } else {
        // Finite inputs can still overflow the sum of squares.
        Err(MetricError::NonFinite { index: None })
    }
}

/// Checked [`r2`]: errors on empty, mismatched, or non-finite input.
///
/// The constant-truth sentinel (`NEG_INFINITY` for an imperfect fit on
/// zero-variance truth) is reported as [`MetricError::NonFinite`] so
/// callers never mistake it for a real score.
pub fn try_r2(pred: &[f64], truth: &[f64]) -> Result<f64, MetricError> {
    check_pair(pred, truth)?;
    let v = r2(pred, truth);
    if v.is_finite() {
        Ok(v)
    } else {
        Err(MetricError::NonFinite { index: None })
    }
}

/// Root mean squared error.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty(), "rmse of empty slices");
    let mse = pred
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64;
    mse.sqrt()
}

/// Coefficient of determination R² = 1 − SS_res / SS_tot.
///
/// Negative values (predictor worse than the mean) are meaningful and
/// returned as-is. A constant truth yields 1.0 when predicted exactly
/// and `f64::NEG_INFINITY` otherwise.
pub fn r2(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty(), "r2 of empty slices");
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        };
    }
    1.0 - ss_res / ss_tot
}

/// Average Precision of a ranking.
///
/// `ranked_relevance[k]` is `true` when the item at rank `k` (0 = top)
/// is relevant. `AP = (1/R) Σ_k rel_k · P@(k+1)` where `R` is the total
/// number of relevant items in the ranking.
pub fn average_precision(ranked_relevance: &[bool]) -> f64 {
    let total_relevant = ranked_relevance.iter().filter(|&&r| r).count();
    if total_relevant == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum = 0.0;
    for (k, &rel) in ranked_relevance.iter().enumerate() {
        if rel {
            hits += 1;
            sum += hits as f64 / (k + 1) as f64;
        }
    }
    sum / total_relevant as f64
}

/// ROC AUC via the rank-sum (Mann–Whitney) formulation; ties share
/// fractional ranks. `labels` must be 0/1.
pub fn roc_auc(scores: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let n_pos = labels.iter().filter(|&&l| l > 0.5).count();
    let n_neg = labels.len() - n_pos;
    assert!(n_pos > 0 && n_neg > 0, "roc_auc needs both classes");
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
    // Fractional ranks with tie handling.
    let mut ranks = vec![0.0; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &id in &idx[i..=j] {
            ranks[id] = avg_rank;
        }
        i = j + 1;
    }
    let sum_pos: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l > 0.5)
        .map(|(&r, _)| r)
        .sum();
    (sum_pos - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

/// Classification accuracy at a 0.5 threshold.
pub fn accuracy(probs: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(probs.len(), labels.len());
    assert!(!probs.is_empty());
    probs
        .iter()
        .zip(labels)
        .filter(|(&p, &y)| (p > 0.5) == (y > 0.5))
        .count() as f64
        / probs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn r2_reference() {
        // Perfect fit.
        assert_eq!(r2(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 1.0);
        // Predicting the mean gives 0.
        assert!((r2(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0])).abs() < 1e-12);
        // Worse than the mean is negative.
        assert!(r2(&[3.0, 2.0, 1.0], &[1.0, 2.0, 3.0]) < 0.0);
        // Constant truth.
        assert_eq!(r2(&[5.0, 5.0], &[5.0, 5.0]), 1.0);
        assert_eq!(r2(&[5.0, 6.0], &[5.0, 5.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn ap_reference_values() {
        // Relevant at ranks 1 and 3 (1-based): AP = (1/2)(1/1 + 2/3).
        let ap = average_precision(&[true, false, true, false]);
        assert!((ap - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
        // All relevant on top.
        assert_eq!(average_precision(&[true, true, false]), 1.0);
        // Nothing relevant.
        assert_eq!(average_precision(&[false, false]), 0.0);
        // Worst case: 3 relevant at the bottom of 10 — the paper's
        // Table 1 minimum of 0.216 is exactly this configuration.
        let mut v = vec![false; 7];
        v.extend([true, true, true]);
        let worst = average_precision(&v);
        assert!((worst - (1.0 / 8.0 + 2.0 / 9.0 + 3.0 / 10.0) / 3.0).abs() < 1e-12);
        assert!((worst - 0.2158).abs() < 1e-3);
    }

    #[test]
    fn auc_reference() {
        // Perfect separation.
        assert_eq!(roc_auc(&[0.1, 0.2, 0.8, 0.9], &[0.0, 0.0, 1.0, 1.0]), 1.0);
        // Perfectly wrong.
        assert_eq!(roc_auc(&[0.9, 0.8, 0.2, 0.1], &[0.0, 0.0, 1.0, 1.0]), 0.0);
        // All scores tied: 0.5.
        assert_eq!(roc_auc(&[0.5, 0.5, 0.5, 0.5], &[0.0, 1.0, 0.0, 1.0]), 0.5);
    }

    #[test]
    fn accuracy_at_one_half() {
        let probs = [0.9, 0.1, 0.8, 0.35];
        let labels = [1.0, 0.0, 1.0, 0.0];
        assert_eq!(accuracy(&probs, &labels), 1.0);
        assert_eq!(accuracy(&[0.9, 0.9], &[1.0, 0.0]), 0.5);
    }

    #[test]
    #[should_panic]
    fn auc_requires_both_classes() {
        roc_auc(&[0.5, 0.6], &[1.0, 1.0]);
    }

    #[test]
    fn try_metrics_reject_empty() {
        assert_eq!(try_rmse(&[], &[]), Err(MetricError::Empty));
        assert_eq!(try_r2(&[], &[]), Err(MetricError::Empty));
    }

    #[test]
    fn try_metrics_reject_mismatch() {
        assert_eq!(
            try_rmse(&[1.0], &[1.0, 2.0]),
            Err(MetricError::LengthMismatch { pred: 1, truth: 2 })
        );
    }

    #[test]
    fn try_metrics_reject_non_finite() {
        assert_eq!(
            try_rmse(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(MetricError::NonFinite { index: Some(1) })
        );
        assert_eq!(
            try_r2(&[f64::INFINITY], &[1.0]),
            Err(MetricError::NonFinite { index: Some(0) })
        );
        // Plain rmse propagates NaN silently — the documented contrast.
        assert!(rmse(&[f64::NAN], &[1.0]).is_nan());
    }

    #[test]
    fn try_r2_constant_truth_edge_cases() {
        // Perfect fit on constant truth is a real score.
        assert_eq!(try_r2(&[5.0, 5.0], &[5.0, 5.0]), Ok(1.0));
        // Imperfect fit on constant truth: the NEG_INFINITY sentinel
        // becomes an error.
        assert_eq!(
            try_r2(&[5.0, 6.0], &[5.0, 5.0]),
            Err(MetricError::NonFinite { index: None })
        );
    }
}
