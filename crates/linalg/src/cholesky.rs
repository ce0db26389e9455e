//! Cholesky (LLᵀ) factorization of symmetric positive-definite matrices.
//!
//! The GAM fitter solves penalized normal equations `(XᵀWX + λS) β = XᵀWz`
//! repeatedly while scanning λ for GCV; each candidate λ is one Cholesky
//! factorization, a solve for β, and one inverse (its trace against
//! `XᵀWX` is the GCV edf; the winner's is the covariance). The penalized
//! system is symmetric positive definite for λ > 0 (up to identifiability
//! constraints handled upstream), so Cholesky is both the fastest and the
//! most numerically honest choice.
//!
//! The factor and the inverse work in place: the system's own storage
//! becomes `L`, then `L⁻¹`, then `A⁻¹`. Their inner loops run on AVX2
//! kernels where the machine has them, picked at run time (the build
//! targets baseline x86-64), and on scalar loops elsewhere. Both give
//! the same bits: each AVX2 lane adds the products the scalar loop adds
//! to that entry, in the same order, as a multiply then an add.

use crate::matrix::dot;
use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor stored densely (upper part is zero).
    l: Matrix,
}

impl Cholesky {
    /// Factorize a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Fails with
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is ≤ 0 (within a
    /// small tolerance scaled by the matrix magnitude).
    pub fn factor(a: &Matrix) -> Result<Self> {
        let mut l = a.clone();
        factor_in_place(&mut l)?;
        Ok(Cholesky { l })
    }

    /// Factorize with an escalating ridge jitter added to the diagonal.
    ///
    /// Penalized GAM systems can be semi-definite along penalty null
    /// spaces when λ is tiny; a jitter of `base * tr(A)/n` (escalated
    /// ×10 up to `max_tries` times) restores definiteness with a
    /// perturbation far below the statistical noise floor.
    pub fn factor_jittered(a: &Matrix, base: f64, max_tries: u32) -> Result<Self> {
        Self::factor_jittered_in_place(a.clone(), base, max_tries, |m| {
            m.data_mut().copy_from_slice(a.data())
        })
    }

    /// [`Cholesky::factor_jittered`] in the system's own storage: `a`
    /// becomes the factor, and no copy of the system is kept. A failed
    /// attempt leaves `a` partly overwritten, so after each one
    /// `rebuild` must write the system into it again.
    pub fn factor_jittered_in_place(
        mut a: Matrix,
        base: f64,
        max_tries: u32,
        mut rebuild: impl FnMut(&mut Matrix),
    ) -> Result<Self> {
        let _span = gef_trace::Span::enter("linalg.cholesky_jittered");
        match factor_in_place(&mut a) {
            Ok(()) => return Ok(Cholesky { l: a }),
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e),
        }
        let n = a.rows();
        rebuild(&mut a);
        let mean_diag = (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n.max(1) as f64;
        let mut jitter = base * mean_diag.max(f64::MIN_POSITIVE);
        let mut last = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        for _ in 0..max_tries {
            gef_trace::counter!("linalg.cholesky_jitter_retries").incr();
            for i in 0..n {
                a[(i, i)] += jitter;
            }
            match factor_in_place(&mut a) {
                Ok(()) => return Ok(Cholesky { l: a }),
                Err(e) => last = e,
            }
            rebuild(&mut a);
            jitter *= 10.0;
        }
        Err(last)
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A x = b` in place: forward then backward substitution.
    pub fn solve_into(&self, b: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky::solve",
                got: (b.len(), 1),
                expected: (n, 1),
            });
        }
        let data = self.l.data();
        // Forward: L y = b
        for i in 0..n {
            let row = &data[i * n..i * n + i];
            let mut s = b[i];
            for (k, &lik) in row.iter().enumerate() {
                s -= lik * b[k];
            }
            b[i] = s / data[i * n + i];
        }
        // Backward: Lᵀ x = y, sweeping rows of L upward: once x[i] is
        // known, the contiguous row-i prefix of L updates every earlier
        // right-hand side entry.
        for i in (0..n).rev() {
            let xi = b[i] / data[i * n + i];
            b[i] = xi;
            for (bk, &lik) in b[..i].iter_mut().zip(&data[i * n..i * n + i]) {
                *bk -= lik * xi;
            }
        }
        Ok(())
    }

    /// Solve `A x = b`, returning a fresh vector.
    ///
    /// ```
    /// use gef_linalg::{Cholesky, Matrix};
    ///
    /// // A = [[4, 2], [2, 3]] is symmetric positive definite.
    /// let mut a = Matrix::zeros(2, 2);
    /// a[(0, 0)] = 4.0;
    /// a[(0, 1)] = 2.0;
    /// a[(1, 0)] = 2.0;
    /// a[(1, 1)] = 3.0;
    /// let chol = Cholesky::factor(&a).unwrap();
    /// let x = chol.solve(&[10.0, 8.0]).unwrap();
    /// // Check A·x = b.
    /// assert!((4.0 * x[0] + 2.0 * x[1] - 10.0).abs() < 1e-12);
    /// assert!((2.0 * x[0] + 3.0 * x[1] - 8.0).abs() < 1e-12);
    /// ```
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_into(&mut x)?;
        Ok(x)
    }

    /// Full inverse `A⁻¹` (the GAM's Bayesian covariance up to scale),
    /// exactly symmetric, formed in the factor's own storage.
    ///
    /// Two sweeps over contiguous rows, about n³/3 multiply-adds in all:
    /// `M = L⁻¹` row by row, then `A⁻¹ = Mᵀ M`, one output row at a time
    /// on the upper triangle, mirrored into the lower one. Each row
    /// accumulates in one n-length scratch row.
    ///
    /// ```
    /// use gef_linalg::{Cholesky, Matrix};
    ///
    /// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
    /// let inv = Cholesky::factor(&a).unwrap().inverse();
    /// // det A = 8, so A⁻¹ = [[3, -2], [-2, 4]] / 8.
    /// assert!((inv[(0, 0)] - 0.375).abs() < 1e-15);
    /// assert!((inv[(1, 1)] - 0.5).abs() < 1e-15);
    /// assert_eq!(inv[(0, 1)], inv[(1, 0)]);
    /// ```
    pub fn inverse(self) -> Matrix {
        let mut m = self.l;
        let n = m.rows();
        let (simd, mut scratch) = (Avx2::detect(), vec![0.0; n]);
        lower_inverse(m.data_mut(), n, &mut scratch, simd);
        upper_gram(m.data_mut(), n, &mut scratch, simd);
        m.mirror_upper();
        m
    }
}

/// Proof that the AVX2 kernels can run on this machine: only
/// [`Avx2::detect`] makes one, at run time, as the build targets
/// baseline x86-64. The sweeps take an `Option<Avx2>`, so the tests can
/// run the scalar loops on any machine, and safe code cannot pick the
/// AVX2 kernels where they would fault.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Avx2(());

impl Avx2 {
    #[inline]
    fn detect() -> Option<Avx2> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }
}

/// Factor the square matrix `a` in place: its lower triangle becomes
/// `L` and its upper one is cleared. On failure `a` is partly
/// overwritten.
fn factor_in_place(a: &mut Matrix) -> Result<()> {
    if gef_trace::fault::fires("chol.factor") {
        return Err(LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: f64::NAN,
        });
    }
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            context: "Cholesky::factor (non-square)",
            got: (a.rows(), a.cols()),
            expected: (a.rows(), a.rows()),
        });
    }
    let n = a.rows();
    factor_rows(a.data_mut(), n, Avx2::detect())
}

/// The factor's column sweep over the row-major n×n `m`. Column `j`
/// reads only `m`'s lower triangle and the finished columns left of it,
/// so `L` can overwrite the system entry by entry.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn factor_rows(m: &mut [f64], n: usize, simd: Option<Avx2>) -> Result<()> {
    for j in 0..n {
        let (top, below) = m.split_at_mut((j + 1) * n);
        let row = &mut top[j * n..];
        let d = row[j] - dot(&row[..j], &row[..j]);
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
        }
        let dsqrt = d.sqrt();
        row[j] = dsqrt;
        // Nothing reads row j's upper part again: clear it, so that `m`
        // ends as `L` itself.
        row[j + 1..].fill(0.0);
        let lj = &row[..j];
        #[cfg(target_arch = "x86_64")]
        if simd.is_some() {
            // SAFETY: an `Avx2` exists only where AVX2 was detected, and
            // `lj` holds j < n entries.
            unsafe { avx2::column(below, n, lj, dsqrt) };
            continue;
        }
        column(below, n, lj, dsqrt);
    }
    Ok(())
}

/// One factor column below the diagonal: for every n-long row of
/// `below`, `row[j] = (row[j] − row[..j]·lj) / dsqrt` with `j =
/// lj.len()`, the dot of the contiguous row-i and row-j prefixes.
fn column(below: &mut [f64], n: usize, lj: &[f64], dsqrt: f64) {
    let j = lj.len();
    for row in below.chunks_exact_mut(n) {
        let s = row[j] - dot(&row[..j], lj);
        row[j] = s / dsqrt;
    }
}

/// `L` → `M = L⁻¹` in place in the row-major n×n `m`, whose upper
/// triangle stays zero; `scratch` holds at least n entries.
///
/// Row i of L·M = I: M[i][..i] = −(Σ_{k<i} L[i][k]·M[k][..i]) / L[i][i]
/// and M[i][i] = 1 / L[i][i]; row k of M is zero beyond column k. Row i
/// reads L's row i and M's rows above it, so M overwrites L row by row.
fn lower_inverse(m: &mut [f64], n: usize, scratch: &mut [f64], simd: Option<Avx2>) {
    for i in 0..n {
        let acc = &mut scratch[..i];
        acc.fill(0.0);
        tri_update(acc, m, n, 0, i * n, 1, simd);
        let lii = m[i * n + i];
        for (x, &r) in m[i * n..i * n + i].iter_mut().zip(acc.iter()) {
            *x = -r / lii;
        }
        m[i * n + i] = 1.0 / lii;
    }
}

/// Lower-triangular `M` → the upper triangle of `Mᵀ M`, in place in the
/// row-major n×n `m` (its lower triangle is left stale); `scratch` holds
/// at least n entries.
///
/// (Mᵀ M)[a][b] = Σ_{k ≥ b} M[k][a]·M[k][b] for b ≥ a: output row a adds
/// M[k][a]·M[k][a..=k] for every k ≥ a. It reads only M's rows from a
/// down, so it overwrites row a's upper part once it is summed; the one
/// M entry there, M[a][a], is not read again.
fn upper_gram(m: &mut [f64], n: usize, scratch: &mut [f64], simd: Option<Avx2>) {
    for a in 0..n {
        let acc = &mut scratch[..n - a];
        acc.fill(0.0);
        let diag = a * n + a;
        tri_update(acc, m, n, diag, diag, n, simd);
        m[diag..(a + 1) * n].copy_from_slice(acc);
    }
}

/// The inner loop of both inverse sweeps: for t = 0, 1, … below
/// `acc.len()`, in that order, `acc[..=t] += m[coefs + t·coef_step] ·
/// m[rows + t·n..=rows + t·n + t]` (row t is a triangle row, one entry
/// longer than row t − 1).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn tri_update(
    acc: &mut [f64],
    m: &[f64],
    n: usize,
    rows: usize,
    coefs: usize,
    coef_step: usize,
    simd: Option<Avx2>,
) {
    #[cfg(target_arch = "x86_64")]
    if simd.is_some() {
        // SAFETY: an `Avx2` exists only where AVX2 was detected.
        unsafe { avx2::tri_update(acc, m, n, rows, coefs, coef_step) };
        return;
    }
    for t in 0..acc.len() {
        let c = m[coefs + t * coef_step];
        let row = &m[rows + t * n..=rows + t * n + t];
        for (o, &r) in acc[..=t].iter_mut().zip(row) {
            *o += c * r;
        }
    }
}

/// The AVX2 kernels. Each keeps the scalar loops' arithmetic entry by
/// entry: a 256-bit register holds four independent entries (four
/// `dot` lanes, or four accumulator columns), each step is a
/// `_mm256_mul_pd` then a `_mm256_add_pd` (no FMA: the fused form rounds
/// once, the scalar loops twice), and every entry receives its products
/// in the scalar order. What changes is how many loads and stores the
/// same operations take.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// `((l0 + l1) + l2) + l3`: the order `dot` joins its lanes in.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn join_lanes(v: __m256d) -> f64 {
        let mut l = [0.0; 4];
        // SAFETY: `l` holds four f64.
        unsafe { _mm256_storeu_pd(l.as_mut_ptr(), v) };
        l[0] + l[1] + l[2] + l[3]
    }

    /// [`super::column`], four rows per pass: each row's four `dot`
    /// lanes sit in one register, and the four rows share every load of
    /// `lj`.
    ///
    /// # Safety
    /// AVX2 must be available, `below.len()` a multiple of n, and
    /// `lj.len() < n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn column(below: &mut [f64], n: usize, lj: &[f64], dsqrt: f64) {
        let j = lj.len();
        let body = j / 4 * 4;
        let mut quads = below.chunks_exact_mut(4 * n);
        for quad in &mut quads {
            let x = quad.as_ptr();
            let y = lj.as_ptr();
            let mut acc = [_mm256_setzero_pd(); 4];
            for k in (0..body).step_by(4) {
                // SAFETY: k + 4 <= body <= j < n, so every load stays in
                // `lj` or in the j-long prefix of one of the four rows.
                let yv = unsafe { _mm256_loadu_pd(y.add(k)) };
                for (r, a) in acc.iter_mut().enumerate() {
                    let xv = unsafe { _mm256_loadu_pd(x.add(r * n + k)) };
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(xv, yv));
                }
            }
            for (row, a) in quad.chunks_exact_mut(n).zip(acc) {
                let mut s = join_lanes(a);
                for (x, y) in row[body..j].iter().zip(&lj[body..]) {
                    s += x * y;
                }
                row[j] = (row[j] - s) / dsqrt;
            }
        }
        super::column(quads.into_remainder(), n, lj, dsqrt);
    }

    /// [`super::tri_update`], four triangle rows per pass: each
    /// accumulator register takes the four rows' updates between one
    /// load and one store. The body columns (those all four rows reach)
    /// go four at a time; the fringe, where each row is one entry longer
    /// than the last, and up to three leftover body columns go one entry
    /// at a time, every entry still taking its updates in ascending row
    /// order. The last `acc.len() % 4` rows go one at a time.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tri_update(
        acc: &mut [f64],
        m: &[f64],
        n: usize,
        rows: usize,
        coefs: usize,
        coef_step: usize,
    ) {
        let len = acc.len();
        // Every accumulator access below goes through `o`, below `len`.
        let o = acc.as_mut_ptr();
        let mut t = 0;
        while t + 4 <= len {
            let c = [
                m[coefs + t * coef_step],
                m[coefs + (t + 1) * coef_step],
                m[coefs + (t + 2) * coef_step],
                m[coefs + (t + 3) * coef_step],
            ];
            let cv = c.map(|c| _mm256_set1_pd(c));
            // Triangle rows t..t + 4: row t + q is entry q·n of `r` and
            // holds t + q + 1 entries.
            let r = &m[rows + t * n..=rows + (t + 3) * n + t + 3];
            let body = (t + 1) / 4 * 4;
            for col in (0..body).step_by(4) {
                // SAFETY: col + 4 <= body <= t + 1 <= len, inside every
                // row's entries and the accumulator.
                unsafe {
                    let mut v = _mm256_loadu_pd(o.add(col));
                    for (q, cq) in cv.iter().enumerate() {
                        let rv = _mm256_loadu_pd(r.as_ptr().add(q * n + col));
                        v = _mm256_add_pd(v, _mm256_mul_pd(*cq, rv));
                    }
                    _mm256_storeu_pd(o.add(col), v);
                }
            }
            for col in body..t + 4 {
                // SAFETY: col < t + 4 <= len.
                let a = unsafe { &mut *o.add(col) };
                // Row t + q reaches column col when q >= col − t.
                for (q, &cq) in c.iter().enumerate().skip(col.saturating_sub(t)) {
                    *a += cq * r[q * n + col];
                }
            }
            t += 4;
        }
        while t < len {
            let c = m[coefs + t * coef_step];
            let cv = _mm256_set1_pd(c);
            let r = &m[rows + t * n..=rows + t * n + t];
            let body = (t + 1) / 4 * 4;
            for col in (0..body).step_by(4) {
                // SAFETY: col + 4 <= body <= t + 1 = r.len() <= len.
                unsafe {
                    let v = _mm256_loadu_pd(o.add(col));
                    let rv = _mm256_loadu_pd(r.as_ptr().add(col));
                    _mm256_storeu_pd(o.add(col), _mm256_add_pd(v, _mm256_mul_pd(cv, rv)));
                }
            }
            for (col, &x) in r.iter().enumerate().skip(body) {
                // SAFETY: col <= t < len.
                unsafe { *o.add(col) += c * x };
            }
            t += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gef_trace::rng::Rng;

    /// Build a random-ish SPD matrix deterministically: A = MᵀM + n·I.
    fn spd(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        let mut state = 42u64;
        for i in 0..n {
            for j in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                m[(i, j)] = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            }
        }
        let mut a = m.gram();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_and_reconstruct() {
        let a = spd(6);
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.l().clone();
        let lt = l.transpose();
        let rec = l.matmul(&lt).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_residual_small() {
        let a = spd(8);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..8).map(|i| (i as f64).cos()).collect();
        let x = ch.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 PSD matrix: xxᵀ with x = (1,1).
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        let ch = Cholesky::factor_jittered(&a, 1e-10, 12).unwrap();
        assert_eq!(ch.dim(), 2);
    }

    #[test]
    fn jitter_exhaustion_returns_last_error() {
        // Strongly indefinite: diagonal -1, so every jittered attempt
        // (base 1e-10 escalated ×10, at most 3 tries → ≤ 1e-8) still has
        // a negative pivot. All tries must be consumed and the final
        // NotPositiveDefinite error returned instead of a panic.
        let a = Matrix::from_rows(&[vec![-1.0, 0.0], vec![0.0, -1.0]]).unwrap();
        let err = Cholesky::factor_jittered(&a, 1e-10, 3).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::NotPositiveDefinite { pivot: 0, value } if value < 0.0
        ));
    }

    /// A jitter retry in place rebuilds the system and factors it plus
    /// the jitter: the factor is the one of the jittered copy, and the
    /// rebuild runs once per failed attempt.
    #[test]
    fn in_place_jitter_retry_rebuilds_the_system() {
        let mut a = spd(9);
        for j in 0..9 {
            a[(4, j)] = a[(3, j)];
            a[(j, 4)] = a[(j, 3)];
        }
        // Rows 3 and 4 agree off the diagonal, where row 4 is 1 lower:
        // the pivot at 4 is about −1.
        a[(4, 4)] = a[(3, 3)] - 1.0;
        let mut rebuilds = 0;
        let ch = Cholesky::factor_jittered_in_place(a.clone(), 1e-10, 14, |m| {
            rebuilds += 1;
            m.data_mut().copy_from_slice(a.data());
        })
        .unwrap();
        let mut jittered = a.clone();
        let mean_diag = (0..9).map(|i| a[(i, i)].abs()).sum::<f64>() / 9.0;
        let (mut jitter, mut failed) = (1e-10 * mean_diag, 0);
        let want = loop {
            for i in 0..9 {
                jittered[(i, i)] = a[(i, i)] + jitter;
            }
            if let Ok(c) = Cholesky::factor(&jittered) {
                break c;
            }
            jitter *= 10.0;
            failed += 1;
        };
        assert_eq!(bits(ch.l().data()), bits(want.l().data()));
        assert_eq!(rebuilds, 1 + failed);
        assert!(failed > 0);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        for n in [1, 2, 7, 64, 293] {
            let a = spd(n);
            let ch = Cholesky::factor(&a).unwrap();
            let inv = ch.clone().inverse();
            let scale = inv.data().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            let prod = a.matmul(&inv).unwrap();
            let mut residual = 0.0f64; // ‖A·A⁻¹ − I‖∞ (max row sum)
            for i in 0..n {
                let mut row_sum = 0.0;
                for j in 0..n {
                    assert_eq!(inv[(i, j)].to_bits(), inv[(j, i)].to_bits(), "n={n}");
                    row_sum += (prod[(i, j)] - if i == j { 1.0 } else { 0.0 }).abs();
                }
                residual = residual.max(row_sum);
            }
            assert!(residual < 1e-10, "n={n}: ‖A·A⁻¹ − I‖∞ = {residual:e}");
            // Column j of A⁻¹ is the solution of A x = e_j.
            let mut e = vec![0.0; n];
            for j in 0..n {
                e[j] = 1.0;
                let col = ch.solve(&e).unwrap();
                e[j] = 0.0;
                for (i, &x) in col.iter().enumerate() {
                    let rel = (inv[(i, j)] - x).abs() / scale;
                    assert!(rel < 1e-10, "n={n} ({i},{j}): rel err {rel:e}");
                }
            }
        }
    }

    #[test]
    fn inverse_solves_multiple_rhs() {
        let a = spd(4);
        let inv = Cholesky::factor(&a).unwrap().inverse();
        let b = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, -1.0],
            vec![0.5, 0.5],
        ])
        .unwrap();
        let x = inv.matmul(&b).unwrap();
        let ax = a.matmul(&x).unwrap();
        for i in 0..4 {
            for j in 0..2 {
                assert!((ax[(i, j)] - b[(i, j)]).abs() < 1e-9);
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A = D (MᵀM + n·I) D with M uniform in [−1, 1) and D a diagonal of
    /// scales from 10⁻³ to 10³, so the entries span many binades.
    fn scaled_spd(n: usize, rng: &mut Rng) -> Matrix {
        let m = Matrix::from_vec(n, n, (0..n * n).map(|_| 2.0 * rng.unit() - 1.0).collect());
        let mut a = m.unwrap().gram();
        let d: Vec<f64> = (0..n).map(|_| 10f64.powf(6.0 * rng.unit() - 3.0)).collect();
        for i in 0..n {
            a[(i, i)] += n as f64;
            for j in 0..n {
                a[(i, j)] *= d[i] * d[j];
            }
        }
        a
    }

    /// The k cubic B-splines on uniform knots over [0, 1] at x: the
    /// index of the first of the four that are non-zero, and their
    /// values.
    fn cubic_bspline(x: f64, k: usize) -> (usize, [f64; 4]) {
        let u = x * (k - 3) as f64;
        let s = (u.floor() as usize).min(k - 4);
        let f = u - s as f64;
        let g = 1.0 - f;
        let cubes = [
            g * g * g,
            3.0 * f * f * f - 6.0 * f * f + 4.0,
            -3.0 * f * f * f + 3.0 * f * f + 3.0 * f + 1.0,
            f * f * f,
        ];
        (s, cubes.map(|c| c / 6.0))
    }

    /// Second-order difference penalty `DᵀD` on k coefficients.
    fn difference_penalty(k: usize) -> Matrix {
        let mut s = Matrix::zeros(k, k);
        for r in 0..k - 2 {
            for (a, da) in [(r, 1.0), (r + 1, -2.0), (r + 2, 1.0)] {
                for (b, db) in [(r, 1.0), (r + 1, -2.0), (r + 2, 1.0)] {
                    s[(a, b)] += da * db;
                }
            }
        }
        s
    }

    /// A penalized P-spline GAM system of `distill_tensor`'s shape
    /// (p = 293): an intercept, five cubic splines of 20 and three 8×8
    /// cubic tensors over 2,000 seeded rows. `XᵀX + λS + κK + ridge·I`,
    /// with second-difference penalties (`S₁ ⊗ I + I ⊗ S₂` on a tensor),
    /// a sum-to-zero constraint `c cᵀ / ‖c‖²` per term, λ = 10⁻³, κ ten
    /// times and the ridge 10⁻⁷ times `XᵀX`'s mean diagonal.
    fn gam_system() -> Matrix {
        const K: usize = 20;
        const KT: usize = 8;
        let splines = [0, 1, 2, 3, 4];
        let tensors = [(0, 1), (2, 3), (1, 4)];
        let mut blocks = vec![];
        let mut col = 1;
        for _ in splines {
            blocks.push((col, K));
            col += K;
        }
        for _ in tensors {
            blocks.push((col, KT * KT));
            col += KT * KT;
        }
        let p = col;
        let mut rng = Rng::seed(293);
        let mut c = Matrix::zeros(p, p);
        let mut means = vec![0.0; p];
        let rows = 2000;
        for _ in 0..rows {
            let x: Vec<f64> = (0..5).map(|_| rng.unit()).collect();
            let mut nz = vec![(0, 1.0)];
            for (&f, &(off, _)) in splines.iter().zip(&blocks) {
                let (s, b) = cubic_bspline(x[f], K);
                nz.extend((0..4).map(|q| (off + s + q, b[q])));
            }
            for (&(fa, fb), &(off, _)) in tensors.iter().zip(&blocks[splines.len()..]) {
                let ((sa, ba), (sb, bb)) = (cubic_bspline(x[fa], KT), cubic_bspline(x[fb], KT));
                for (qa, &va) in ba.iter().enumerate() {
                    nz.extend((0..4).map(|qb| (off + (sa + qa) * KT + sb + qb, va * bb[qb])));
                }
            }
            for &(j, v) in &nz {
                means[j] += v / rows as f64;
            }
            c.syr_upper_sparse(&nz, 1.0);
        }
        c.mirror_upper();
        let mean_diag = (0..p).map(|i| c[(i, i)]).sum::<f64>() / p as f64;
        let (lambda, kappa) = (1e-3, 10.0 * mean_diag);
        let (s1, st) = (difference_penalty(K), difference_penalty(KT));
        for &(off, k) in &blocks {
            let norm2: f64 = means[off..off + k].iter().map(|m| m * m).sum();
            for a in 0..k {
                for b in 0..k {
                    let s = if k == K {
                        s1[(a, b)]
                    } else {
                        let (ia, ja, ib, jb) = (a / KT, a % KT, b / KT, b % KT);
                        f64::from(ja == jb) * st[(ia, ib)] + f64::from(ia == ib) * st[(ja, jb)]
                    };
                    let constraint = means[off + a] * means[off + b] / norm2;
                    c[(off + a, off + b)] += lambda * s + kappa * constraint;
                }
            }
        }
        for i in 0..p {
            c[(i, i)] += 1e-7 * mean_diag;
        }
        c
    }

    /// What one path gives on a system, as bits.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        /// The failing pivot, its value and the partly factored matrix.
        Failed(usize, u64, Vec<u64>),
        /// The factor, a solve on it, `L⁻¹` and `A⁻¹`, the last two in
        /// the factor's storage.
        Factored([Vec<u64>; 4]),
    }

    /// The factor, the solve and both inverse sweeps on one path. The
    /// inverse must also equal [`two_buffer_inverse`]'s, bit for bit.
    fn run_path(a: &Matrix, simd: Option<Avx2>) -> Outcome {
        let n = a.rows();
        let mut m = a.data().to_vec();
        match factor_rows(&mut m, n, simd) {
            Ok(()) => {}
            Err(LinalgError::NotPositiveDefinite { pivot, value }) => {
                return Outcome::Failed(pivot, value.to_bits(), bits(&m))
            }
            Err(e) => panic!("{e}"),
        }
        let ch = Cholesky {
            l: Matrix::from_vec(n, n, m.clone()).unwrap(),
        };
        let x = ch.solve(&(0..n).map(|i| i as f64 - 3.5).collect::<Vec<_>>());
        let mut scratch = vec![0.0; n];
        lower_inverse(&mut m, n, &mut scratch, simd);
        let lower = bits(&m);
        upper_gram(&mut m, n, &mut scratch, simd);
        let mut inv = Matrix::from_vec(n, n, m).unwrap();
        inv.mirror_upper();
        let inverse = bits(inv.data());
        assert_eq!(inverse, bits(two_buffer_inverse(ch.l()).data()), "n={n}");
        Outcome::Factored([bits(ch.l().data()), bits(&x.unwrap()), lower, inverse])
    }

    /// The inverse as two separate buffers: `M = L⁻¹` in a zeroed matrix,
    /// then `MᵀM` into another. It is the algorithm the in-place sweeps
    /// restate, kept here to show that they keep its bits.
    fn two_buffer_inverse(l: &Matrix) -> Matrix {
        let n = l.rows();
        let l = l.data();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            let (done, rest) = m.data_mut().split_at_mut(i * n);
            let row = &mut rest[..=i];
            for (k, &lik) in l[i * n..i * n + i].iter().enumerate() {
                for (r, &mkj) in row[..=k].iter_mut().zip(&done[k * n..=k * n + k]) {
                    *r += lik * mkj;
                }
            }
            let lii = l[i * n + i];
            for r in &mut row[..i] {
                *r = -*r / lii;
            }
            row[i] = 1.0 / lii;
        }
        let mut inv = Matrix::zeros(n, n);
        let md = m.data();
        for (a, out) in inv.data_mut().chunks_exact_mut(n.max(1)).enumerate() {
            let out = &mut out[a..];
            for k in a..n {
                let mk = &md[k * n + a..=k * n + k];
                for (o, &mkb) in out.iter_mut().zip(mk) {
                    *o += mk[0] * mkb;
                }
            }
        }
        inv.mirror_upper();
        inv
    }

    /// The AVX2 kernels give the scalar loops' bits: the factor, a solve
    /// on it, `L⁻¹`, `A⁻¹`, and the failing pivot and its value, at every
    /// size up to 40 (each residue mod 4, in every kernel's row and
    /// column blocking), 64–67, the GAM sizes 73, 101 and 293, and on a
    /// penalized GAM system. The scalar inverse keeps the two-buffer
    /// algorithm's bits. Without AVX2 only the scalar half runs.
    #[test]
    fn avx2_kernels_match_the_scalar_loops_bit_for_bit() {
        let simd = Avx2::detect();
        if simd.is_none() {
            eprintln!("no AVX2 on this machine: checking the scalar loops only");
        }
        let mut rng = Rng::seed(0xc401);
        let sizes = (0..=40).chain(64..=67).chain([73, 101, 293]);
        let mut cases: Vec<(String, Matrix)> = sizes
            .flat_map(|n| {
                let a = scaled_spd(n, &mut rng);
                // A pivot that fails: with A[k][k] negative, the pivot
                // A[k][k] − ‖L[k][..k]‖² is negative too.
                let mut bad = a.clone();
                if n > 0 {
                    let k = rng.below(n as u64) as usize;
                    bad[(k, k)] *= -0.5;
                }
                [
                    (format!("spd n={n}"), a),
                    (format!("indefinite n={n}"), bad),
                ]
            })
            .collect();
        cases.push(("GAM system".into(), gam_system()));
        for (name, a) in &cases {
            let scalar = run_path(a, None);
            if let Outcome::Failed(pivot, ..) = scalar {
                assert!(name.starts_with("indefinite"), "{name}: pivot {pivot}");
            }
            if simd.is_some() {
                assert_eq!(run_path(a, simd), scalar, "{name}");
            }
        }
    }
}
