//! Descriptive statistics, quantiles, and Welch's t-test.
//!
//! The paper compares interaction-detection strategies with a two-tailed
//! Welch t-test at α = 0.05 (Table 1 discussion); [`welch_t_test`]
//! reproduces that analysis. Quantile helpers back the `K-Quantile`
//! sampling strategy and the histogram binning of the GBDT trainer.

use crate::special::student_t_cdf;

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (denominator n-1). Returns 0.0 for n < 2.
pub fn variance(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
}

/// Sample standard deviation (sqrt of [`variance`]).
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolation quantile of a **sorted** slice, `q` in [0, 1]
/// (type-7, the numpy default).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = h - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Pearson correlation coefficient of two equal-length slices.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Result of a Welch two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchResult {
    /// The t statistic.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-tailed p-value.
    pub p_value: f64,
}

/// Two-tailed Welch's t-test for unequal variances.
///
/// Both samples must contain at least two observations. If both sample
/// variances are zero the test is degenerate: p = 1.0 when the means are
/// equal, p = 0.0 otherwise.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> WelchResult {
    assert!(a.len() >= 2 && b.len() >= 2, "welch_t_test needs n >= 2");
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    let se2 = va / na + vb / nb;
    if se2 == 0.0 {
        let equal = (ma - mb).abs() < f64::EPSILON;
        return WelchResult {
            t: if equal { 0.0 } else { f64::INFINITY },
            df: na + nb - 2.0,
            p_value: if equal { 1.0 } else { 0.0 },
        };
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    let p = 2.0 * (1.0 - student_t_cdf(t.abs(), df));
    WelchResult {
        t,
        df,
        p_value: p.clamp(0.0, 1.0),
    }
}

/// Evenly spaced grid of `n` points from `lo` to `hi` inclusive.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![(lo + hi) / 2.0],
        _ => {
            let step = (hi - lo) / (n - 1) as f64;
            (0..n).map(|i| lo + step * i as f64).collect()
        }
    }
}

/// Log-spaced grid of `n` points from `lo` to `hi` inclusive (both > 0).
///
/// ```
/// let grid = gef_linalg::stats::logspace(1e-2, 1e2, 5);
/// assert_eq!(grid.len(), 5);
/// for (g, want) in grid.iter().zip([1e-2, 1e-1, 1.0, 1e1, 1e2]) {
///     assert!((g - want).abs() < 1e-9 * want);
/// }
/// ```
pub fn logspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > 0.0, "logspace needs positive bounds");
    linspace(lo.ln(), hi.ln(), n)
        .into_iter()
        .map(f64::exp)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn quantile_type7() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 4.0);
        assert!((quantile_sorted(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile_sorted(&xs, 0.25) - 1.75).abs() < 1e-12); // numpy: 1.75
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn welch_matches_scipy_reference() {
        // Reference (scipy.stats.ttest_ind(a, b, equal_var=False)):
        // t = -2.835264, df = 27.71363, p = 0.0084527.
        let a = [
            27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7,
            21.4,
        ];
        let b = [
            27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.0,
            23.9,
        ];
        let r = welch_t_test(&a, &b);
        assert!((r.t + 2.835_264).abs() < 1e-5, "t={}", r.t);
        assert!((r.df - 27.713_626).abs() < 1e-4, "df={}", r.df);
        assert!((r.p_value - 0.008_452_7).abs() < 1e-6, "p={}", r.p_value);
    }

    #[test]
    fn welch_identical_samples() {
        let a = [1.0, 2.0, 3.0];
        let r = welch_t_test(&a, &a);
        assert!(r.t.abs() < 1e-12);
        assert!((r.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn welch_zero_variance() {
        let a = [5.0, 5.0];
        let b = [7.0, 7.0];
        let r = welch_t_test(&a, &b);
        assert_eq!(r.p_value, 0.0);
        let r2 = welch_t_test(&a, &a);
        assert_eq!(r2.p_value, 1.0);
    }

    #[test]
    fn linspace_logspace() {
        assert_eq!(linspace(0.0, 1.0, 5), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(linspace(0.0, 1.0, 0), Vec::<f64>::new());
        assert_eq!(linspace(2.0, 4.0, 1), vec![3.0]);
        let ls = logspace(1e-3, 1e3, 7);
        assert!((ls[0] - 1e-3).abs() < 1e-12);
        assert!((ls[3] - 1.0).abs() < 1e-12);
        assert!((ls[6] - 1e3).abs() < 1e-9);
    }
}
