//! B-spline bases on uniform knots (P-spline convention).
//!
//! A [`BSplineBasis`] with `num_basis = k` functions of degree `d` over
//! `[lo, hi]` uses `k − d` uniform inner intervals with `d` extra knots
//! extended past each boundary (Eilers & Marx P-splines). Evaluation
//! returns the `d + 1` non-zero basis values and the index of the first
//! one — the sparse row block that keeps GAM fitting cheap.

use crate::GamError;

/// A univariate B-spline basis on uniform knots.
#[derive(Debug, Clone, PartialEq)]
pub struct BSplineBasis {
    /// Number of basis functions.
    num_basis: usize,
    /// Polynomial degree (3 = cubic).
    degree: usize,
    /// Domain lower bound.
    lo: f64,
    /// Domain upper bound.
    hi: f64,
    /// Full knot vector (length `num_basis + degree + 1`).
    knots: Vec<f64>,
}

impl BSplineBasis {
    /// Create a basis of `num_basis` functions of `degree` with
    /// **uniform** knots over `[lo, hi]`.
    ///
    /// Requires `num_basis > degree` and `hi > lo`.
    pub fn new(num_basis: usize, degree: usize, lo: f64, hi: f64) -> Result<Self, GamError> {
        if num_basis <= degree {
            return Err(GamError::InvalidSpec(format!(
                "num_basis ({num_basis}) must exceed degree ({degree})"
            )));
        }
        // `!(hi > lo)` deliberately rejects NaN alongside empty ranges.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(hi > lo) || !lo.is_finite() || !hi.is_finite() {
            return Err(GamError::InvalidSpec(format!(
                "invalid domain [{lo}, {hi}]"
            )));
        }
        let segments = num_basis - degree;
        let h = (hi - lo) / segments as f64;
        let n_knots = num_basis + degree + 1;
        let knots = (0..n_knots)
            .map(|i| lo + h * (i as f64 - degree as f64))
            .collect();
        Ok(BSplineBasis {
            num_basis,
            degree,
            lo,
            hi,
            knots,
        })
    }

    /// Create a basis with interior knots at **quantiles of anchor
    /// values** (sorted, duplicates allowed).
    ///
    /// Uniform knots on a heavily skewed domain leave long spans with
    /// no training support, where a penalized fit extrapolates linearly
    /// and can run away; anchoring each knot span to an equal share of
    /// the anchor mass guarantees support everywhere the anchors live.
    /// Falls back to uniform spacing over the anchor range when the
    /// anchors provide too few distinct quantiles.
    pub fn from_anchors(
        num_basis: usize,
        degree: usize,
        anchors: &[f64],
    ) -> Result<Self, GamError> {
        if num_basis <= degree {
            return Err(GamError::InvalidSpec(format!(
                "num_basis ({num_basis}) must exceed degree ({degree})"
            )));
        }
        if anchors.len() < 2 {
            return Err(GamError::InvalidSpec(
                "need at least 2 anchor values".into(),
            ));
        }
        debug_assert!(
            anchors.windows(2).all(|w| w[0] <= w[1]),
            "anchors must be sorted"
        );
        let lo = anchors[0];
        let hi = anchors[anchors.len() - 1];
        // `!(hi > lo)` deliberately rejects NaN alongside empty ranges.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(hi > lo) || !lo.is_finite() || !hi.is_finite() {
            return Err(GamError::InvalidSpec(format!(
                "degenerate anchor range [{lo}, {hi}]"
            )));
        }
        let segments = num_basis - degree;
        // Quantile breakpoints, repaired to be strictly increasing.
        let mut breaks: Vec<f64> = (0..=segments)
            .map(|i| gef_linalg::stats::quantile_sorted(anchors, i as f64 / segments as f64))
            .collect();
        let min_gap = (hi - lo) * 1e-9;
        let mut strictly_increasing = true;
        for i in 1..breaks.len() {
            if breaks[i] <= breaks[i - 1] + min_gap {
                strictly_increasing = false;
                break;
            }
        }
        if !strictly_increasing {
            // Blend quantile and uniform placement until valid; at
            // w = 1.0 this is exactly the uniform basis.
            let mut w = 0.5;
            loop {
                let mut ok = true;
                let blended: Vec<f64> = (0..=segments)
                    .map(|i| {
                        let u = lo + (hi - lo) * i as f64 / segments as f64;
                        breaks[i] * (1.0 - w) + u * w
                    })
                    .collect();
                for i in 1..blended.len() {
                    if blended[i] <= blended[i - 1] + min_gap {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    breaks = blended;
                    break;
                }
                w = (w + 1.0) / 2.0;
                if w > 0.999999 {
                    return Self::new(num_basis, degree, lo, hi);
                }
            }
        }
        // Extend by `degree` knots beyond each boundary, spaced by the
        // adjacent interior gap (keeps all spans non-degenerate).
        let first_gap = breaks[1] - breaks[0];
        let last_gap = breaks[segments] - breaks[segments - 1];
        let mut knots = Vec::with_capacity(num_basis + degree + 1);
        for i in (1..=degree).rev() {
            knots.push(lo - first_gap * i as f64);
        }
        knots.extend_from_slice(&breaks);
        for i in 1..=degree {
            knots.push(hi + last_gap * i as f64);
        }
        Ok(BSplineBasis {
            num_basis,
            degree,
            lo,
            hi,
            knots,
        })
    }

    /// Number of basis functions (columns this basis contributes).
    pub fn num_basis(&self) -> usize {
        self.num_basis
    }

    /// Polynomial degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Domain of the basis.
    pub fn domain(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Evaluate the basis at `x`, returning `(first, values)` where
    /// `values` holds the `degree + 1` consecutive non-zero basis
    /// function values starting at basis index `first`.
    ///
    /// `x` is clamped to the domain, so extrapolation beyond `[lo, hi]`
    /// freezes at the boundary value (safe behaviour for an explainer).
    pub fn eval_sparse(&self, x: f64) -> (usize, Vec<f64>) {
        let mut vals = vec![0.0; self.degree + 1];
        let first = self.eval_into(x, &mut vals);
        (first, vals)
    }

    /// [`BSplineBasis::eval_sparse`] without allocating: writes the
    /// `degree + 1` non-zero values into `n` (exactly that long) and
    /// returns the index of the first. Every design row is built by
    /// this one evaluator.
    pub(crate) fn eval_into(&self, x: f64, n: &mut [f64]) -> usize {
        let d = self.degree;
        debug_assert_eq!(n.len(), d + 1);
        let x = x.clamp(self.lo, self.hi);
        // Locate the knot span: largest `mu` with knots[mu] <= x,
        // clamped to valid polynomial segments [d, num_basis - 1].
        // Binary search handles both uniform and anchored knots.
        let mu = self.knots[..=self.num_basis]
            .partition_point(|&k| k <= x)
            .saturating_sub(1)
            .clamp(d, self.num_basis - 1);

        // Cox–de Boor triangular scheme: N[j] holds values of the
        // degree-r basis functions non-zero on this span.
        n[0] = 1.0;
        #[allow(clippy::needless_range_loop)] // triangular de Boor indices
        for r in 1..=d {
            // Work backwards to update in place.
            let mut saved = 0.0;
            for j in 0..r {
                // Basis function index: mu - r + 1 + j .. but we use the
                // standard formulation with left/right knot differences.
                let left = self.knots[mu + 1 + j] - x;
                let right = x - self.knots[mu + 1 + j - r];
                let term = n[j] / (left + right);
                n[j] = saved + left * term;
                saved = right * term;
            }
            n[r] = saved;
        }
        mu - d
    }

    /// Evaluate the full (dense) basis vector at `x`.
    pub fn eval_dense(&self, x: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.num_basis];
        let (first, vals) = self.eval_sparse(x);
        out[first..first + vals.len()].copy_from_slice(&vals);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_of_unity() {
        let b = BSplineBasis::new(12, 3, 0.0, 1.0).unwrap();
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            let (_, vals) = b.eval_sparse(x);
            assert_eq!(vals.len(), 4);
            let s: f64 = vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "x={x}, sum={s}");
            assert!(vals.iter().all(|&v| v >= -1e-12), "negative basis value");
        }
    }

    #[test]
    fn partition_of_unity_other_degrees() {
        for degree in [0usize, 1, 2, 4] {
            let b = BSplineBasis::new(degree + 5, degree, -2.0, 3.0).unwrap();
            for i in 0..=50 {
                let x = -2.0 + 5.0 * i as f64 / 50.0;
                let s: f64 = b.eval_dense(x).iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "degree={degree} x={x}");
            }
        }
    }

    #[test]
    fn sparse_matches_dense() {
        let b = BSplineBasis::new(15, 3, 0.0, 10.0).unwrap();
        for i in 0..=40 {
            let x = 10.0 * i as f64 / 40.0;
            let dense = b.eval_dense(x);
            let (first, vals) = b.eval_sparse(x);
            for (j, &dv) in dense.iter().enumerate() {
                let sv = if j >= first && j < first + vals.len() {
                    vals[j - first]
                } else {
                    0.0
                };
                assert_eq!(dv, sv);
            }
        }
    }

    #[test]
    fn clamps_out_of_domain() {
        let b = BSplineBasis::new(8, 3, 0.0, 1.0).unwrap();
        assert_eq!(b.eval_sparse(-5.0), b.eval_sparse(0.0));
        assert_eq!(b.eval_sparse(7.0), b.eval_sparse(1.0));
    }

    #[test]
    fn boundary_values_within_index_range() {
        let b = BSplineBasis::new(10, 3, 0.0, 1.0).unwrap();
        let (f0, v0) = b.eval_sparse(0.0);
        assert_eq!(f0, 0);
        assert_eq!(v0.len(), 4);
        let (f1, v1) = b.eval_sparse(1.0);
        assert_eq!(f1 + v1.len(), 10);
    }

    #[test]
    fn can_reproduce_a_line() {
        // Degree >= 1 B-splines reproduce polynomials of their degree;
        // check that a least-squares fit to a line is exact.
        let b = BSplineBasis::new(8, 3, 0.0, 1.0).unwrap();
        // Greville abscissae give the coefficients that reproduce x.
        // Simpler check: fit via normal equations on a fine grid.
        let n = 200;
        let mut xtx = vec![vec![0.0; 8]; 8];
        let mut xty = vec![0.0; 8];
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            let row = b.eval_dense(x);
            let y = 3.0 * x - 1.0;
            for j in 0..8 {
                xty[j] += row[j] * y;
                for k in 0..8 {
                    xtx[j][k] += row[j] * row[k];
                }
            }
        }
        // Solve with Gaussian elimination (small system).
        let mut a = xtx;
        let mut rhs = xty;
        #[allow(clippy::needless_range_loop)] // Gaussian elimination indices
        for p in 0..8 {
            let piv = a[p][p];
            for j in p..8 {
                a[p][j] /= piv;
            }
            rhs[p] /= piv;
            for i in 0..8 {
                if i != p {
                    let f = a[i][p];
                    for j in p..8 {
                        a[i][j] -= f * a[p][j];
                    }
                    rhs[i] -= f * rhs[p];
                }
            }
        }
        // Verify the fit reproduces the line everywhere.
        for i in 0..=50 {
            let x = i as f64 / 50.0;
            let row = b.eval_dense(x);
            let fit: f64 = row.iter().zip(&rhs).map(|(r, c)| r * c).sum();
            assert!((fit - (3.0 * x - 1.0)).abs() < 1e-8, "x={x} fit={fit}");
        }
    }

    #[test]
    fn rejects_bad_spec() {
        assert!(BSplineBasis::new(3, 3, 0.0, 1.0).is_err());
        assert!(BSplineBasis::new(8, 3, 1.0, 1.0).is_err());
        assert!(BSplineBasis::new(8, 3, 2.0, 1.0).is_err());
        assert!(BSplineBasis::new(8, 3, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn anchored_partition_of_unity_and_support() {
        // Heavily skewed anchors: most mass near 0, tail to 100.
        let mut anchors: Vec<f64> = (0..500)
            .map(|i| (i as f64 / 500.0).powi(4) * 100.0)
            .collect();
        anchors.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let b = BSplineBasis::from_anchors(12, 3, &anchors).unwrap();
        for i in 0..=100 {
            let x = i as f64;
            let s: f64 = b.eval_dense(x).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "x={x} sum={s}");
        }
        // Knot spans share anchor mass: the span containing the median
        // anchor is far narrower than the last span.
        let med = gef_linalg::stats::quantile_sorted(&anchors, 0.5);
        let (first_med, _) = b.eval_sparse(med);
        let (first_tail, _) = b.eval_sparse(99.0);
        assert!(first_med < first_tail);
    }

    #[test]
    fn anchored_with_uniform_anchors_close_to_uniform_basis() {
        let anchors: Vec<f64> = (0..=1000).map(|i| i as f64 / 1000.0).collect();
        let a = BSplineBasis::from_anchors(10, 3, &anchors).unwrap();
        let u = BSplineBasis::new(10, 3, 0.0, 1.0).unwrap();
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let (fa, va) = a.eval_sparse(x);
            let (fu, vu) = u.eval_sparse(x);
            assert_eq!(fa, fu, "x={x}");
            for (p, q) in va.iter().zip(&vu) {
                assert!((p - q).abs() < 0.02, "x={x}: {va:?} vs {vu:?}");
            }
        }
    }

    #[test]
    fn anchored_falls_back_on_degenerate_quantiles() {
        // Almost all anchors identical: quantiles collapse; must still
        // build a valid basis (blended/uniform fallback).
        let mut anchors = vec![5.0; 400];
        anchors.push(6.0);
        let b = BSplineBasis::from_anchors(8, 3, &anchors).unwrap();
        let s: f64 = b.eval_dense(5.5).iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        // Fully constant anchors are rejected.
        assert!(BSplineBasis::from_anchors(8, 3, &[1.0; 10]).is_err());
        assert!(BSplineBasis::from_anchors(8, 3, &[1.0]).is_err());
    }

    #[test]
    fn local_support_moves_with_x() {
        let b = BSplineBasis::new(20, 3, 0.0, 1.0).unwrap();
        let (f_lo, _) = b.eval_sparse(0.05);
        let (f_hi, _) = b.eval_sparse(0.95);
        assert!(f_lo < f_hi, "support should advance with x");
    }
}
