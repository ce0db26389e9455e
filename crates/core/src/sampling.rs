//! Sampling-domain construction (paper Sec. 3.3).
//!
//! Each feature's sorted threshold list `V_i` (elicited from the
//! forest) is turned into a discrete *sampling domain* `D_i` by one of
//! five strategies. All strategies except *All-Thresholds* take a
//! budget `K` bounding the domain size. The `ε` domain extension is
//! `0.05 · (v_t − v_1)` as in the paper.

/// Fraction of the threshold span used to extend the domain beyond the
/// extreme thresholds (the paper's ε).
pub const EPSILON_FRACTION: f64 = 0.05;

/// A sampling-domain construction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Midpoints of all consecutive thresholds plus `v₁ − ε` and
    /// `v_t + ε` (Cohen et al.'s approach; the paper's baseline).
    AllThresholds,
    /// The `K` quantiles of the threshold list.
    KQuantile(usize),
    /// `K` evenly spaced points over `[v₁ − ε, v_t + ε]`.
    EquiWidth(usize),
    /// Centroids of a `k = min(K, |V|)`-means clustering of the
    /// thresholds.
    KMeans(usize),
    /// Split the sorted thresholds into `K` contiguous equal-size
    /// sublists and take each sublist's mean.
    EquiSize(usize),
}

impl SamplingStrategy {
    /// Human-readable name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingStrategy::AllThresholds => "All-Thresholds",
            SamplingStrategy::KQuantile(_) => "K-Quantile",
            SamplingStrategy::EquiWidth(_) => "Equi-Width",
            SamplingStrategy::KMeans(_) => "K-Means",
            SamplingStrategy::EquiSize(_) => "Equi-Size",
        }
    }

    /// The strategy's point budget `K` (`None` for All-Thresholds).
    pub fn k(&self) -> Option<usize> {
        match *self {
            SamplingStrategy::AllThresholds => None,
            SamplingStrategy::KQuantile(k)
            | SamplingStrategy::EquiWidth(k)
            | SamplingStrategy::KMeans(k)
            | SamplingStrategy::EquiSize(k) => Some(k),
        }
    }

    /// Build the sampling domain for a sorted threshold list, which may
    /// contain duplicates (the paper's `V_i` is the multiset of
    /// thresholds across split nodes; the density-aware strategies use
    /// the multiplicity). Returns a sorted, de-duplicated, non-empty
    /// domain; returns an empty vector only when `thresholds` is empty.
    pub fn domain(&self, thresholds: &[f64]) -> Vec<f64> {
        if thresholds.is_empty() {
            return Vec::new();
        }
        debug_assert!(
            thresholds.windows(2).all(|w| w[0] <= w[1]),
            "thresholds must be sorted"
        );
        let mut out = match *self {
            SamplingStrategy::AllThresholds => all_thresholds(thresholds),
            SamplingStrategy::KQuantile(k) => k_quantile(thresholds, k),
            SamplingStrategy::EquiWidth(k) => equi_width(thresholds, k),
            SamplingStrategy::KMeans(k) => k_means_1d(thresholds, k),
            SamplingStrategy::EquiSize(k) => equi_size(thresholds, k),
        };
        out.sort_by(f64::total_cmp);
        out.dedup();
        out
    }
}

/// ε extension for a threshold list (5% of the span, with a fallback
/// for a single threshold so the domain still has width).
fn epsilon(thresholds: &[f64]) -> f64 {
    let span = thresholds[thresholds.len() - 1] - thresholds[0];
    if span > 0.0 {
        EPSILON_FRACTION * span
    } else {
        EPSILON_FRACTION * thresholds[0].abs().max(1.0)
    }
}

fn all_thresholds(v: &[f64]) -> Vec<f64> {
    let eps = epsilon(v);
    let mut out = Vec::with_capacity(v.len() + 1);
    out.push(v[0] - eps);
    out.extend(v.windows(2).map(|w| 0.5 * (w[0] + w[1])));
    out.push(v[v.len() - 1] + eps);
    out
}

fn k_quantile(v: &[f64], k: usize) -> Vec<f64> {
    let k = k.max(1);
    if k == 1 {
        return vec![gef_linalg::stats::quantile_sorted(v, 0.5)];
    }
    (0..k)
        .map(|j| gef_linalg::stats::quantile_sorted(v, j as f64 / (k - 1) as f64))
        .collect()
}

fn equi_width(v: &[f64], k: usize) -> Vec<f64> {
    let eps = epsilon(v);
    gef_linalg::stats::linspace(v[0] - eps, v[v.len() - 1] + eps, k.max(1))
}

/// Weighted Lloyd's algorithm in 1-D.
///
/// The multiset is collapsed to `(distinct value, multiplicity)` pairs
/// and `k` is capped at the number of *distinct* values (the paper's
/// `k = min(|V_i|, K)`): asking for more centroids than distinct
/// thresholds degenerates to the full threshold set. Centroids are
/// initialized at quantiles of the distinct values and updated with
/// multiplicity weights, so dense split regions attract centroids —
/// the strategy's stated goal — without centroids collapsing into
/// each other (empty clusters retain their previous position).
fn k_means_1d(v: &[f64], k: usize) -> Vec<f64> {
    // Collapse to weighted distinct values.
    let mut distinct: Vec<(f64, f64)> = Vec::new();
    for &x in v {
        match distinct.last_mut() {
            Some((val, w)) if *val == x => *w += 1.0,
            _ => distinct.push((x, 1.0)),
        }
    }
    let k = k.clamp(1, distinct.len());
    if k == distinct.len() {
        return distinct.into_iter().map(|(x, _)| x).collect();
    }
    let values: Vec<f64> = distinct.iter().map(|&(x, _)| x).collect();
    let mut centroids = k_quantile(&values, k);
    centroids.dedup();
    for _ in 0..100 {
        // Assign each distinct value to its nearest centroid (both
        // sorted, so a forward pointer suffices).
        let m = centroids.len();
        let mut sums = vec![0.0; m];
        let mut weights = vec![0.0; m];
        let mut c = 0usize;
        for &(x, w) in &distinct {
            while c + 1 < m && (centroids[c + 1] - x).abs() < (centroids[c] - x).abs() {
                c += 1;
            }
            sums[c] += w * x;
            weights[c] += w;
        }
        let mut moved = false;
        let mut next = Vec::with_capacity(m);
        for i in 0..m {
            let updated = if weights[i] > 0.0 {
                sums[i] / weights[i]
            } else {
                // Empty cluster: keep its previous position.
                centroids[i]
            };
            if (updated - centroids[i]).abs() > 1e-12 {
                moved = true;
            }
            next.push(updated);
        }
        next.sort_by(f64::total_cmp);
        centroids = next;
        if !moved {
            break;
        }
    }
    centroids.dedup();
    centroids
}

fn equi_size(v: &[f64], k: usize) -> Vec<f64> {
    let k = k.clamp(1, v.len());
    let n = v.len();
    (0..k)
        .map(|j| {
            let lo = j * n / k;
            let hi = ((j + 1) * n / k).max(lo + 1);
            v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thresholds() -> Vec<f64> {
        // Concentrated around 0.5 like the Fig. 3 sigmoid forest.
        vec![
            0.1, 0.42, 0.45, 0.47, 0.49, 0.5, 0.51, 0.53, 0.55, 0.58, 0.9,
        ]
    }

    #[test]
    fn all_thresholds_midpoints_and_extension() {
        let v = vec![0.0, 1.0, 3.0];
        let d = SamplingStrategy::AllThresholds.domain(&v);
        // ε = 0.05 * 3 = 0.15
        let expect = [-0.15, 0.5, 2.0, 3.15];
        assert_eq!(d.len(), expect.len());
        for (a, b) in d.iter().zip(expect) {
            assert!((a - b).abs() < 1e-12, "{d:?}");
        }
    }

    #[test]
    fn all_thresholds_single_value() {
        let d = SamplingStrategy::AllThresholds.domain(&[2.0]);
        assert_eq!(d.len(), 2);
        assert!(d[0] < 2.0 && d[1] > 2.0);
    }

    #[test]
    fn k_quantile_includes_extremes() {
        let v = thresholds();
        let d = SamplingStrategy::KQuantile(5).domain(&v);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], 0.1);
        assert_eq!(d[4], 0.9);
        // Quantiles concentrate where thresholds concentrate.
        let in_center = d.iter().filter(|&&x| (0.4..=0.6).contains(&x)).count();
        assert!(in_center >= 3, "domain={d:?}");
    }

    #[test]
    fn equi_width_is_evenly_spaced() {
        let v = thresholds();
        let d = SamplingStrategy::EquiWidth(9).domain(&v);
        assert_eq!(d.len(), 9);
        let step = d[1] - d[0];
        for w in d.windows(2) {
            assert!((w[1] - w[0] - step).abs() < 1e-12);
        }
        // Covers the ε-extended span.
        assert!(d[0] < 0.1 && d[8] > 0.9);
    }

    #[test]
    fn k_means_follows_density() {
        let v = thresholds();
        let d = SamplingStrategy::KMeans(4).domain(&v);
        assert!(d.len() <= 4 && !d.is_empty());
        // Most centroids land in the dense center region.
        let in_center = d.iter().filter(|&&x| (0.4..=0.6).contains(&x)).count();
        assert!(in_center >= 2, "domain={d:?}");
    }

    #[test]
    fn k_means_caps_at_value_count() {
        let v = vec![1.0, 2.0, 3.0];
        let d = SamplingStrategy::KMeans(10).domain(&v);
        assert_eq!(d, v);
    }

    #[test]
    fn equi_size_means_of_sublists() {
        let v: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let d = SamplingStrategy::EquiSize(4).domain(&v);
        assert_eq!(d, vec![0.5, 2.5, 4.5, 6.5]);
        // K > |V| caps at |V|.
        let d2 = SamplingStrategy::EquiSize(99).domain(&v);
        assert_eq!(d2, v);
    }

    #[test]
    fn domains_are_sorted_deduped_nonempty() {
        let v = thresholds();
        for strat in [
            SamplingStrategy::AllThresholds,
            SamplingStrategy::KQuantile(6),
            SamplingStrategy::EquiWidth(6),
            SamplingStrategy::KMeans(6),
            SamplingStrategy::EquiSize(6),
        ] {
            let d = strat.domain(&v);
            assert!(!d.is_empty(), "{}", strat.name());
            for w in d.windows(2) {
                assert!(w[0] < w[1], "{} not sorted/deduped: {d:?}", strat.name());
            }
        }
    }

    #[test]
    fn empty_thresholds_give_empty_domain() {
        for strat in [
            SamplingStrategy::AllThresholds,
            SamplingStrategy::KQuantile(4),
            SamplingStrategy::EquiWidth(4),
            SamplingStrategy::KMeans(4),
            SamplingStrategy::EquiSize(4),
        ] {
            assert!(strat.domain(&[]).is_empty());
        }
    }

    #[test]
    fn k_accessors() {
        assert_eq!(SamplingStrategy::AllThresholds.k(), None);
        assert_eq!(SamplingStrategy::KQuantile(7).k(), Some(7));
    }

    #[test]
    fn k_one_degenerate_cases() {
        let v = thresholds();
        for strat in [
            SamplingStrategy::KQuantile(1),
            SamplingStrategy::EquiWidth(1),
            SamplingStrategy::KMeans(1),
            SamplingStrategy::EquiSize(1),
        ] {
            let d = strat.domain(&v);
            assert_eq!(d.len(), 1, "{}", strat.name());
        }
    }
}
