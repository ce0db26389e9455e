//! Seeded property sweeps for the linear-algebra kernels. Each test
//! checks `CASES` inputs drawn from `Rng::seed(seed)`; a failure names
//! its case seed.

use gef_linalg::{stats, Cholesky, Matrix};
use gef_trace::rng::Rng;

const CASES: u64 = 64;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.unit()
}

fn uniform_vec(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| uniform(rng, lo, hi)).collect()
}

/// Random SPD matrix A = MᵀM + n·I from a flat coefficient vector.
fn spd_from(coeffs: &[f64], n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = coeffs[i * n + j];
        }
    }
    let mut a = m.gram();
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

#[test]
fn cholesky_solves_random_spd_systems() {
    for seed in 0..CASES {
        let mut rng = Rng::seed(seed);
        let coeffs = uniform_vec(&mut rng, 25, -3.0, 3.0);
        let rhs = uniform_vec(&mut rng, 5, -10.0, 10.0);
        let a = spd_from(&coeffs, 5);
        let ch = Cholesky::factor(&a).expect("SPD by construction");
        let x = ch.solve(&rhs).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (p, q) in ax.iter().zip(&rhs) {
            assert!((p - q).abs() < 1e-8, "seed {seed}: residual too large");
        }
        // The inverse is symmetric.
        let inv = ch.inverse();
        for i in 0..5 {
            for j in 0..5 {
                assert!((inv[(i, j)] - inv[(j, i)]).abs() < 1e-8, "seed {seed}");
            }
        }
    }
}

#[test]
fn quantiles_are_monotone_and_bounded() {
    for seed in 0..CASES {
        let mut rng = Rng::seed(seed);
        let len = 1 + rng.below(49) as usize;
        let mut xs = uniform_vec(&mut rng, len, -100.0, 100.0);
        let (q1, q2) = (rng.unit(), rng.unit());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = (xs[0], xs[xs.len() - 1]);
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let va = stats::quantile_sorted(&xs, qa);
        let vb = stats::quantile_sorted(&xs, qb);
        assert!(va <= vb + 1e-12, "seed {seed}");
        assert!(va >= lo && vb <= hi, "seed {seed}");
    }
}

#[test]
fn welch_p_value_is_symmetric_and_valid() {
    for seed in 0..CASES {
        let mut rng = Rng::seed(seed);
        let na = 3 + rng.below(17) as usize;
        let a = uniform_vec(&mut rng, na, -10.0, 10.0);
        let nb = 3 + rng.below(17) as usize;
        let b = uniform_vec(&mut rng, nb, -10.0, 10.0);
        let r1 = stats::welch_t_test(&a, &b);
        let r2 = stats::welch_t_test(&b, &a);
        assert!((0.0..=1.0).contains(&r1.p_value), "seed {seed}");
        assert!((r1.p_value - r2.p_value).abs() < 1e-9, "seed {seed}");
        assert!((r1.t + r2.t).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn student_t_cdf_is_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::seed(seed);
        let t1 = uniform(&mut rng, -20.0, 20.0);
        let t2 = uniform(&mut rng, -20.0, 20.0);
        let df = uniform(&mut rng, 1.0, 100.0);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let ca = gef_linalg::special::student_t_cdf(lo, df);
        let cb = gef_linalg::special::student_t_cdf(hi, df);
        assert!(ca <= cb + 1e-12, "seed {seed}");
        assert!((0.0..=1.0).contains(&ca), "seed {seed}");
    }
}

#[test]
fn norm_ppf_inverts_cdf() {
    for seed in 0..CASES {
        let p = uniform(&mut Rng::seed(seed), 0.001, 0.999);
        let x = gef_linalg::special::norm_ppf(p);
        assert!(
            (gef_linalg::special::norm_cdf(x) - p).abs() < 1e-6,
            "seed {seed}: p = {p}"
        );
    }
}

#[test]
fn gram_matrix_is_psd() {
    for seed in 0..CASES {
        let mut rng = Rng::seed(seed);
        let coeffs = uniform_vec(&mut rng, 12, -5.0, 5.0);
        let v = uniform_vec(&mut rng, 3, -3.0, 3.0);
        // 4x3 matrix -> 3x3 gram; vᵀGv = ||Mv||² >= 0.
        let m = Matrix::from_vec(4, 3, coeffs).unwrap();
        let g = m.gram();
        let gv = g.matvec(&v).unwrap();
        let quad: f64 = v.iter().zip(&gv).map(|(a, b)| a * b).sum();
        assert!(quad >= -1e-9, "seed {seed}");
    }
}
