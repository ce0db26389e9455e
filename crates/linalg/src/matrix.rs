//! Dense row-major matrix.
//!
//! [`Matrix`] implements exactly the operations the GEF workspace needs:
//! construction, indexed access, mat-vec and mat-mat products, transpose,
//! and symmetric accumulation (`A += x xᵀ`, the row-by-row reference the
//! GAM's blocked normal equations are tested against).

use crate::{LinalgError, Result};
use gef_trace::json::{JsonValue, JsonWriter, ReadJson, WriteJson};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// `{"rows": r, "cols": c, "data": [row-major entries]}`.
impl WriteJson for Matrix {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("rows", &self.rows);
        w.field("cols", &self.cols);
        w.field("data", &self.data);
        w.end_object();
    }
}

impl ReadJson for Matrix {
    fn read_json(v: &JsonValue) -> std::result::Result<Matrix, String> {
        let (rows, cols): (usize, usize) = (v.req("rows")?, v.req("cols")?);
        let data: Vec<f64> = v.req("data")?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(format!("{rows}x{cols} matrix with {} entries", data.len()));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Matrix {
    /// Create a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::from_vec",
                got: (data.len(), 1),
                expected: (rows * cols, 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build a matrix from nested rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::EmptyInput("Matrix::from_rows"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    context: "Matrix::from_rows (ragged rows)",
                    got: (1, r.len()),
                    expected: (1, cols),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matvec",
                got: (x.len(), 1),
                expected: (self.cols, 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            *o = dot(row, x);
        }
        Ok(out)
    }

    /// Matrix-matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matmul",
                got: (other.rows, other.cols),
                expected: (self.cols, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // rows of `other` and `out` (cache-friendly for row-major data).
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// `selfᵀ * self` (Gram matrix), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            g.syr_upper(row, 1.0);
        }
        g.mirror_upper();
        g
    }

    /// Symmetric rank-1 update of the upper triangle: `self += w * x xᵀ`
    /// (upper triangle only; call [`Matrix::mirror_upper`] to complete).
    #[inline]
    pub fn syr_upper(&mut self, x: &[f64], w: f64) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(self.rows, self.cols);
        let n = self.cols;
        for (j, &xj) in x.iter().enumerate() {
            let wxj = w * xj;
            if wxj == 0.0 {
                continue;
            }
            let row = &mut self.data[j * n..(j + 1) * n];
            for (rk, &xk) in row[j..].iter_mut().zip(&x[j..]) {
                *rk += wxj * xk;
            }
        }
    }

    /// Sparse symmetric rank-1 update of the upper triangle using only
    /// the non-zero entries `(index, value)` of `x`: `self += w * x xᵀ`.
    ///
    /// `nz` must be sorted by index; the update is O(nnz²) instead of
    /// O(p²). gef-gam builds its Gram one term-pair block at a time
    /// instead and tests that build against this one, bit for bit.
    #[inline]
    pub fn syr_upper_sparse(&mut self, nz: &[(usize, f64)], w: f64) {
        debug_assert_eq!(self.rows, self.cols);
        let n = self.cols;
        for (a, &(j, xj)) in nz.iter().enumerate() {
            let wxj = w * xj;
            for &(k, xk) in &nz[a..] {
                self.data[j * n + k] += wxj * xk;
            }
        }
    }

    /// Copy the upper triangle into the lower one, making the matrix
    /// fully symmetric after a sequence of `syr_upper*` updates.
    pub fn mirror_upper(&mut self) {
        debug_assert_eq!(self.rows, self.cols);
        let n = self.cols;
        for i in 1..n {
            for j in 0..i {
                self.data[i * n + j] = self.data[j * n + i];
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Manually unrolled 4-way accumulation: breaks the sequential FP
    // dependency chain and lets the compiler vectorize (exact chunks
    // carry no bounds checks).
    let (ca, cb) = (a.chunks_exact(4), b.chunks_exact(4));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (x, y) in ca.zip(cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut s = s0 + s1 + s2 + s3;
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn matvec_works() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let y = m.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let p = m.matmul(&Matrix::identity(2)).unwrap();
        assert_eq!(p, m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(approx(c[(0, 0)], 19.0));
        assert!(approx(c[(0, 1)], 22.0));
        assert!(approx(c[(1, 0)], 43.0));
        assert!(approx(c[(1, 1)], 50.0));
    }

    #[test]
    fn gram_equals_explicit_product() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![-1.0, 0.5]]).unwrap();
        let g = m.gram();
        let e = m.transpose().matmul(&m).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(g[(i, j)], e[(i, j)]), "({i},{j})");
            }
        }
    }

    #[test]
    fn syr_sparse_matches_dense() {
        let mut a = Matrix::zeros(4, 4);
        let mut b = Matrix::zeros(4, 4);
        let x = [0.0, 2.0, 0.0, -3.0];
        a.syr_upper(&x, 0.5);
        b.syr_upper_sparse(&[(1, 2.0), (3, -3.0)], 0.5);
        a.mirror_upper();
        b.mirror_upper();
        assert_eq!(a, b);
    }

    #[test]
    fn dot_unrolled_matches_naive() {
        let a: Vec<f64> = (0..13).map(|i| i as f64 * 0.3 - 1.0).collect();
        let b: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot_sums_four_lanes_then_the_tail() {
        // The summation order is part of the result: Cholesky factors,
        // and so every fitted GAM's digest, depend on it bit for bit.
        for len in [0usize, 1, 3, 4, 7, 13, 64, 293] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 1.3).cos() * 1e3).collect();
            let body = len / 4 * 4;
            let mut lanes = [0.0; 4];
            for i in 0..body {
                lanes[i % 4] += a[i] * b[i];
            }
            let mut want = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for i in body..len {
                want += a[i] * b[i];
            }
            assert_eq!(dot(&a, &b).to_bits(), want.to_bits(), "len={len}");
        }
    }
}
