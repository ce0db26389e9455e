//! Design-matrix assembly for a GAM.
//!
//! Column 0 is the unpenalized intercept; each term occupies a
//! contiguous block of columns after it. A term's non-zero entries in
//! one row come in *runs* of contiguous columns: a cubic spline is one
//! run of 4, a factor one run of 1, a cubic tensor smooth four runs of 4
//! (one per non-zero first-margin basis function).
//!
//! A fit evaluates its rows once into a `DesignMatrix`, stored
//! term-major: for each term, every row's run starts and run values,
//! one flat array each. Everything the fit computes from the rows reads
//! it: the column means, `XᵀWX` and `XᵀWu`, the linear predictor and the
//! component statistics. `XᵀWX` is built one term pair at a time into a
//! dense block (`GramBlock`) that stays in L1. Each block sums its
//! rows in row order, so every entry receives the same products in the
//! same order as a row-by-row [`gef_linalg::Matrix::syr_upper_sparse`]
//! over `Design::row` rows: the blocked build is bit-identical to that
//! reference, and so at any thread count.
//!
//! `Design::row` gives one instance's entries as sorted
//! `(column, value)` pairs, in the order the running sums use. Every
//! path evaluates bases through one allocation-free evaluator,
//! `BuiltTerm::fill_runs`.

use crate::terms::{BuiltTerm, TermSpec, TermTable};
use crate::GamError;
use gef_linalg::Matrix;

/// Compiled design: terms, column layout, and the block-diagonal
/// penalty matrix.
#[derive(Debug, Clone)]
pub(crate) struct Design {
    pub(crate) terms: Vec<BuiltTerm>,
    /// Column offset of each term; the intercept is column 0.
    pub(crate) offsets: Vec<usize>,
    /// Total number of columns (1 + Σ term widths).
    pub(crate) num_cols: usize,
    /// Block-diagonal penalty (zero row/column for the intercept).
    pub(crate) penalty: Matrix,
    /// Features a row needs: one past the largest feature index a term
    /// reads.
    pub(crate) min_width: usize,
}

impl Design {
    /// Compile term specifications into a design.
    pub(crate) fn compile(specs: &[TermSpec], penalty_order: usize) -> Result<Self, GamError> {
        if specs.is_empty() {
            return Err(GamError::InvalidSpec(
                "a GAM needs at least one term".into(),
            ));
        }
        if penalty_order == 0 {
            return Err(GamError::InvalidSpec(
                "the difference-penalty order must be at least 1".into(),
            ));
        }
        let terms: Vec<BuiltTerm> = specs
            .iter()
            .map(BuiltTerm::build)
            .collect::<Result<_, _>>()?;
        let mut offsets = Vec::with_capacity(terms.len());
        let mut col = 1usize; // 0 = intercept
        for t in &terms {
            offsets.push(col);
            col += t.num_cols();
        }
        let num_cols = col;
        // Design rows store run starts as u32.
        if u32::try_from(num_cols).is_err() {
            return Err(GamError::InvalidSpec(format!(
                "the terms need {num_cols} columns, more than a design row can index"
            )));
        }
        let mut penalty = Matrix::zeros(num_cols, num_cols);
        for (t, &off) in terms.iter().zip(&offsets) {
            let p = t.penalty(penalty_order);
            let k = t.num_cols();
            for i in 0..k {
                for j in 0..k {
                    let v = p[(i, j)];
                    if v != 0.0 {
                        penalty[(off + i, off + j)] = v;
                    }
                }
            }
        }
        let min_width = 1 + specs.iter().flat_map(TermSpec::features).max().unwrap_or(0);
        Ok(Design {
            terms,
            offsets,
            num_cols,
            penalty,
            min_width,
        })
    }

    /// Sparse design row for instance `x` (sorted by column; starts with
    /// the intercept).
    pub(crate) fn row(&self, x: &[f64]) -> Vec<(usize, f64)> {
        let len = 1 + self
            .terms
            .iter()
            .map(|t| {
                let (runs, len) = t.run_shape();
                runs * len
            })
            .sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.push((0usize, 1.0));
        for (t, &off) in self.terms.iter().zip(&self.offsets) {
            t.fill_row(x, off, &mut out);
        }
        out
    }

    /// Sparse design entries of a single term only (columns are shifted
    /// to the term's global offset).
    pub(crate) fn term_row(&self, term: usize, x: &[f64]) -> Vec<(usize, f64)> {
        let t = &self.terms[term];
        let (runs, len) = t.run_shape();
        let mut out = Vec::with_capacity(runs * len);
        t.fill_row(x, self.offsets[term], &mut out);
        out
    }

    /// Column range `[start, end)` of a term.
    pub(crate) fn term_cols(&self, term: usize) -> (usize, usize) {
        let start = self.offsets[term];
        (start, start + self.terms[term].num_cols())
    }
}

/// Dot product of a sparse row with a dense coefficient vector.
#[inline]
pub(crate) fn sparse_dot(row: &[(usize, f64)], beta: &[f64]) -> f64 {
    row.iter().map(|&(c, v)| v * beta[c]).sum()
}

/// Where [`DesignMatrix::build`] reads each row's feature values: `f64`
/// rows, or domain codes ([`CodedRows`]). The fill of one term's runs
/// in one row is the only step that differs; the build is one body.
pub(crate) trait Cells: Sync {
    /// What the fill reads besides the cells, prepared once per design.
    type Tables: Sync;

    /// Number of rows.
    fn rows(&self) -> usize;

    /// Check that `design`'s terms can read every row, and prepare the
    /// fill's tables.
    fn prepare(&self, design: &Design) -> Result<Self::Tables, GamError>;

    /// Term `t`'s runs of row `r`, as [`BuiltTerm::fill_runs`] lays
    /// them out.
    fn fill(
        &self,
        tables: &Self::Tables,
        t: (usize, &BuiltTerm),
        r: usize,
        firsts: &mut [u32],
        values: &mut [f64],
        scratch: &mut [f64],
    );
}

/// Rows of feature values: each term evaluates its bases per row.
impl Cells for [Vec<f64>] {
    type Tables = ();

    fn rows(&self) -> usize {
        self.len()
    }

    fn prepare(&self, design: &Design) -> Result<(), GamError> {
        match self.iter().position(|x| x.len() < design.min_width) {
            Some(r) => Err(GamError::InvalidData(format!(
                "row {r} has {} features, but the terms read feature {}",
                self[r].len(),
                design.min_width - 1
            ))),
            None => Ok(()),
        }
    }

    #[inline]
    fn fill(
        &self,
        _: &(),
        (_, term): (usize, &BuiltTerm),
        r: usize,
        firsts: &mut [u32],
        values: &mut [f64],
        scratch: &mut [f64],
    ) {
        term.fill_runs(&self[r], firsts, values, scratch);
    }
}

/// Rows given as domain codes: row `r`'s feature `f` is
/// `domains[f][codes[r · d + f]]`, row-major over `d = domains.len()`
/// features, and an empty domain stands for the constant 0.0 at code 0.
/// This is how `D*` is stored (every cell is one value of its feature's
/// sampling domain). A design reads such rows by evaluating each term
/// once per domain value and copying, which gives the same design, bit
/// for bit, as the rows the codes stand for.
#[derive(Debug, Clone, Copy)]
pub struct CodedRows<'a, C> {
    /// Row-major domain codes, `rows × domains.len()`.
    pub codes: &'a [C],
    /// One sampling domain per feature.
    pub domains: &'a [Vec<f64>],
}

impl<C: Copy + Into<u32> + Sync> Cells for CodedRows<'_, C> {
    /// One table per term.
    type Tables = Vec<TermTable>;

    fn rows(&self) -> usize {
        self.codes
            .len()
            .checked_div(self.domains.len())
            .unwrap_or(0)
    }

    fn prepare(&self, design: &Design) -> Result<Vec<TermTable>, GamError> {
        let d = self.domains.len();
        if d < design.min_width {
            return Err(GamError::InvalidData(format!(
                "rows have {d} features, but the terms read feature {}",
                design.min_width - 1
            )));
        }
        if !self.codes.len().is_multiple_of(d) {
            return Err(GamError::InvalidData(format!(
                "{} codes do not make rows of {d} features",
                self.codes.len()
            )));
        }
        let tables: Vec<TermTable> = design.terms.iter().map(|t| t.table(self.domains)).collect();
        let mut sizes: Vec<(usize, usize)> =
            tables.iter().flat_map(TermTable::domain_sizes).collect();
        sizes.sort_unstable();
        sizes.dedup();
        for (r, row) in self.codes.chunks_exact(d).enumerate() {
            if let Some(&(f, size)) = sizes
                .iter()
                .find(|&&(f, size)| row[f].into() as usize >= size)
            {
                return Err(GamError::InvalidData(format!(
                    "row {r} has code {} for feature {f}, whose domain holds {size}",
                    row[f].into()
                )));
            }
        }
        Ok(tables)
    }

    #[inline]
    fn fill(
        &self,
        tables: &Vec<TermTable>,
        (t, _): (usize, &BuiltTerm),
        r: usize,
        firsts: &mut [u32],
        values: &mut [f64],
        _: &mut [f64],
    ) {
        let d = self.domains.len();
        let row = &self.codes[r * d..(r + 1) * d];
        tables[t].fill(|f| row[f].into() as usize, firsts, values);
    }
}

/// The design evaluated over a set of rows, term-major. Block 0 is the
/// intercept (one run holding 1.0 per row); block `t + 1` is term `t`.
#[derive(Debug)]
pub(crate) struct DesignMatrix {
    rows: usize,
    blocks: Vec<TermBlock>,
}

/// One term's entries over every row of a [`DesignMatrix`].
#[derive(Debug)]
struct TermBlock {
    /// Global column of the term's first column.
    offset: usize,
    /// Number of columns of the term.
    cols: usize,
    /// Runs per row.
    runs: usize,
    /// Columns per run.
    run_len: usize,
    /// Row `r`'s run starts, relative to `offset`, at
    /// `[r * runs..][..runs]`.
    firsts: Vec<u32>,
    /// Row `r`'s run values at `[r * runs * run_len..][..runs * run_len]`.
    values: Vec<f64>,
}

impl TermBlock {
    /// Zeroed arrays for `rows` rows; sizes past `usize` are an error.
    fn zeros(
        offset: usize,
        cols: usize,
        (runs, run_len): (usize, usize),
        rows: usize,
    ) -> Result<Self, GamError> {
        let too_many = || GamError::InvalidData(format!("{rows} rows overflow a design array"));
        let firsts = rows.checked_mul(runs).ok_or_else(too_many)?;
        let values = firsts.checked_mul(run_len).ok_or_else(too_many)?;
        Ok(TermBlock {
            offset,
            cols,
            runs,
            run_len,
            firsts: vec![0; firsts],
            values: vec![0.0; values],
        })
    }

    /// Row `r`'s entries as `(global column, value)`, in
    /// [`Design::row`] order.
    fn entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let width = self.runs * self.run_len;
        let firsts = &self.firsts[r * self.runs..(r + 1) * self.runs];
        let values = &self.values[r * width..(r + 1) * width];
        firsts
            .iter()
            .zip(values.chunks_exact(self.run_len))
            .flat_map(move |(&f, run)| {
                let first = self.offset + f as usize;
                run.iter().enumerate().map(move |(j, &v)| (first + j, v))
            })
    }
}

impl DesignMatrix {
    /// Evaluate `design` at every row of `cells`, in row chunks on the
    /// gef-par pool. Cells the terms cannot read (a row narrower than
    /// they need, a code outside its domain) are an
    /// [`GamError::InvalidData`].
    pub(crate) fn build<S: Cells + ?Sized>(design: &Design, cells: &S) -> Result<Self, GamError> {
        let tables = cells.prepare(design)?;
        let rows = cells.rows();
        let mut intercept = TermBlock::zeros(0, 1, (1, 1), rows)?;
        intercept.values.fill(1.0);
        let mut blocks = vec![intercept];
        for (t, &offset) in design.terms.iter().zip(&design.offsets) {
            blocks.push(TermBlock::zeros(offset, t.num_cols(), t.run_shape(), rows)?);
        }
        // Hand each row chunk its slice of every term's arrays.
        let size = gef_par::chunk_size(rows);
        let mut chunks: Vec<Vec<(&mut [u32], &mut [f64])>> = (0..rows.div_ceil(size))
            .map(|_| Vec::with_capacity(design.terms.len()))
            .collect();
        for b in &mut blocks[1..] {
            let width = b.runs * b.run_len;
            let pieces = b
                .firsts
                .chunks_mut(size * b.runs)
                .zip(b.values.chunks_mut(size * width));
            for (chunk, piece) in chunks.iter_mut().zip(pieces) {
                chunk.push(piece);
            }
        }
        let scratch_len = design.terms.iter().map(BuiltTerm::scratch_len).max();
        let scratch_len = scratch_len.unwrap_or(0);
        gef_par::for_each_task(
            chunks,
            gef_par::Options::default().with_label("gam.design_rows"),
            |ci, mut pieces| {
                let mut scratch = vec![0.0; scratch_len];
                for i in 0..size.min(rows - ci * size) {
                    let terms = design.terms.iter().zip(pieces.iter_mut()).enumerate();
                    for (t, (term, (firsts, values))) in terms {
                        let (runs, len) = term.run_shape();
                        cells.fill(
                            &tables,
                            (t, term),
                            ci * size + i,
                            &mut firsts[i * runs..(i + 1) * runs],
                            &mut values[i * runs * len..(i + 1) * runs * len],
                            &mut scratch[..term.scratch_len()],
                        );
                    }
                }
            },
        )?;
        // The Gram kernels rely on every run lying inside its term's
        // columns, which `BuiltTerm::fill_runs` guarantees; check it here,
        // beside them.
        for b in &blocks {
            if b.firsts.iter().any(|&f| f as usize + b.run_len > b.cols) {
                return Err(GamError::Numerical(format!(
                    "a design run leaves the {} columns of its term",
                    b.cols
                )));
            }
        }
        Ok(DesignMatrix { rows, blocks })
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// `x_r · β` as one running sum in [`Design::row`] order, intercept
    /// first: bit-equal to [`sparse_dot`] of that row.
    pub(crate) fn row_dot(&self, r: usize, beta: &[f64]) -> f64 {
        self.blocks
            .iter()
            .flat_map(|b| b.entries(r))
            .map(|(c, v)| v * beta[c])
            .sum()
    }

    /// Row `r`'s contribution `x_r,t · β_t` of term `t`: bit-equal to
    /// [`sparse_dot`] of [`Design::term_row`].
    pub(crate) fn term_dot(&self, term: usize, r: usize, beta: &[f64]) -> f64 {
        self.blocks[1 + term]
            .entries(r)
            .map(|(c, v)| v * beta[c])
            .sum()
    }

    /// Column sums `Xᵀ1`, each over the rows in row order.
    pub(crate) fn column_sums(&self) -> Result<Vec<f64>, GamError> {
        let sums = gef_par::map(
            self.blocks.len(),
            gef_par::Options::default().with_label("gam.column_sums"),
            |t| {
                let b = &self.blocks[t];
                let mut sums = vec![0.0; b.cols];
                for r in 0..self.rows {
                    for (c, v) in b.entries(r) {
                        sums[c - b.offset] += v;
                    }
                }
                sums
            },
        )?;
        Ok(sums.concat())
    }

    /// One zeroed [`GramBlock`] per term pair `(a, b)`, `a ≤ b`,
    /// intercept included, heaviest first (so a pool claiming tasks in
    /// order ends on light ones).
    pub(crate) fn gram_blocks(&self) -> Vec<GramBlock> {
        let nb = self.blocks.len();
        let mut pairs: Vec<(usize, usize)> =
            (0..nb).flat_map(|a| (a..nb).map(move |b| (a, b))).collect();
        let work = |t: usize| self.blocks[t].runs * self.blocks[t].run_len;
        pairs.sort_by_key(|&(a, b)| std::cmp::Reverse(work(a) * work(b)));
        pairs
            .into_iter()
            .map(|(a, b)| GramBlock {
                a,
                b,
                data: vec![0.0; self.blocks[a].cols * self.blocks[b].cols],
                xtu: vec![0.0; if a == b { self.blocks[a].cols } else { 0 }],
            })
            .collect()
    }

    /// Zero `block`, then accumulate its part of `XᵀWX` with row weights
    /// `w`, and for a diagonal block the term's part of `XᵀWu`, in the
    /// same pass over the rows.
    pub(crate) fn accumulate(&self, block: &mut GramBlock, w: &[f64], u: &[f64]) {
        let (a, b) = (&self.blocks[block.a], &self.blocks[block.b]);
        // The kernels index without bounds checks and rely on these.
        assert_eq!(
            block.data.len(),
            a.cols * b.cols,
            "Gram block of another design"
        );
        let diagonal = if block.a == block.b { a.cols } else { 0 };
        assert_eq!(block.xtu.len(), diagonal, "Gram block of another design");
        let (w, u) = (&w[..self.rows], &u[..self.rows]);
        block.data.fill(0.0);
        block.xtu.fill(0.0);
        let (out, xtu) = (&mut block.data[..], &mut block.xtu[..]);
        // The kernels inline into each arm, specialized for the intercept
        // and factors (one run of one), cubic splines (one run of four)
        // and cubic tensors (four runs of four); any other shape takes
        // the generic loop.
        let (sa, sb) = ((a.runs, a.run_len), (b.runs, b.run_len));
        if block.a == block.b {
            match sa {
                (1, 1) => diag(a, (1, 1), w, u, out, xtu),
                (1, 4) => diag(a, (1, 4), w, u, out, xtu),
                (4, 4) => diag(a, (4, 4), w, u, out, xtu),
                shape => diag(a, shape, w, u, out, xtu),
            }
        } else {
            match (sa, sb) {
                ((1, 1), (1, 1)) => cross(a, b, (1, 1), (1, 1), w, out),
                ((1, 1), (1, 4)) => cross(a, b, (1, 1), (1, 4), w, out),
                ((1, 1), (4, 4)) => cross(a, b, (1, 1), (4, 4), w, out),
                ((1, 4), (1, 1)) => cross(a, b, (1, 4), (1, 1), w, out),
                ((1, 4), (1, 4)) => cross(a, b, (1, 4), (1, 4), w, out),
                ((1, 4), (4, 4)) => cross(a, b, (1, 4), (4, 4), w, out),
                ((4, 4), (1, 1)) => cross(a, b, (4, 4), (1, 1), w, out),
                ((4, 4), (1, 4)) => cross(a, b, (4, 4), (1, 4), w, out),
                ((4, 4), (4, 4)) => cross(a, b, (4, 4), (4, 4), w, out),
                (sa, sb) => cross(a, b, sa, sb, w, out),
            }
        }
    }

    /// Gather accumulated blocks into the mirrored `p × p` `XᵀWX` and
    /// `XᵀWu`.
    pub(crate) fn assemble(&self, blocks: &[GramBlock]) -> (Matrix, Vec<f64>) {
        let p: usize = self.blocks.iter().map(|b| b.cols).sum();
        let mut g = Matrix::zeros(p, p);
        let mut xtu = vec![0.0; p];
        for block in blocks {
            let (a, b) = (&self.blocks[block.a], &self.blocks[block.b]);
            for (i, src) in block.data.chunks_exact(b.cols).enumerate() {
                g.row_mut(a.offset + i)[b.offset..b.offset + b.cols].copy_from_slice(src);
            }
            if block.a == block.b {
                xtu[a.offset..a.offset + a.cols].copy_from_slice(&block.xtu);
            }
        }
        g.mirror_upper();
        (g, xtu)
    }
}

/// One term-pair block `(a, b)`, `a ≤ b`, of `XᵀWX` (row-major, term
/// `a`'s columns by term `b`'s; upper triangle only when `a == b`), and
/// on the diagonal term `a`'s part of `XᵀWu`.
#[derive(Debug)]
pub(crate) struct GramBlock {
    a: usize,
    b: usize,
    data: Vec<f64>,
    xtu: Vec<f64>,
}

/// A block's layout in one row: `(runs, run_len)`.
type Shape = (usize, usize);

// The kernels below index without bounds checks: with the checks, or
// with rows walked by `chunks_exact`, a census-sized PIRLS Gram took
// about a third longer. Every index they form is in range because of
// conditions the rest of this module keeps:
// * a `TermBlock` holds exactly `runs` firsts and `runs * run_len`
//   values per row, and their products with `rows` do not overflow
//   (`TermBlock::zeros`); the kernels visit rows `0..w.len()` with
//   `w.len() == rows` (`DesignMatrix::accumulate`);
// * every run lies inside its term's columns, `first + run_len ≤ cols`
//   (checked by `DesignMatrix::build`);
// * `out` is `cols(a) × cols(b)` and `xtu` is `cols(a)` long
//   (`DesignMatrix::accumulate` asserts it), and the shape passed is the
//   blocks' own.
// So a row index `fa + i` with `i < la` is below `cols(a)`, a column
// index `fb + j` with `j < lb` below `cols(b)`, and `(fa + i)·cols(b) +
// fb + lb ≤ cols(a)·cols(b)`.

/// `out += Σ_r w_r x_ra x_rbᵀ` for two different terms, `a` before `b`.
/// Each product is `(w·x_a)·x_b`, the smaller column's value weighted
/// first, as `syr_upper_sparse` forms it.
#[inline(always)]
fn cross(
    a: &TermBlock,
    b: &TermBlock,
    (ra, la): Shape,
    (rb, lb): Shape,
    w: &[f64],
    out: &mut [f64],
) {
    let stride = b.cols;
    for (r, &wr) in w.iter().enumerate() {
        // SAFETY: row r < rows of both blocks (see above the kernels).
        let (fa, va, fb, vb) = unsafe {
            (
                a.firsts.get_unchecked(r * ra..(r + 1) * ra),
                a.values.get_unchecked(r * ra * la..(r + 1) * ra * la),
                b.firsts.get_unchecked(r * rb..(r + 1) * rb),
                b.values.get_unchecked(r * rb * lb..(r + 1) * rb * lb),
            )
        };
        for (&fa, va) in fa.iter().zip(va.chunks_exact(la)) {
            for (i, &x) in va.iter().enumerate() {
                let wx = wr * x;
                let row = (fa as usize + i) * stride;
                for (&fb, vb) in fb.iter().zip(vb.chunks_exact(lb)) {
                    let start = row + fb as usize;
                    // SAFETY: fa + i < cols(a) and fb + lb ≤ cols(b), so
                    // the run ends inside `out` (see above the kernels).
                    let seg = unsafe { out.get_unchecked_mut(start..start + lb) };
                    for (o, &y) in seg.iter_mut().zip(vb) {
                        *o += wx * y;
                    }
                }
            }
        }
    }
}

/// The upper triangle of `out += Σ_r w_r x_r x_rᵀ` over one term's
/// columns, and `xtu += Σ_r x_r u_r`. Runs of one row are in column
/// order, so a pair of runs is either one run's triangle or a full
/// product of an earlier run with a later one.
#[inline(always)]
fn diag(t: &TermBlock, (runs, len): Shape, w: &[f64], u: &[f64], out: &mut [f64], xtu: &mut [f64]) {
    let stride = t.cols;
    for (r, (&wr, &ur)) in w.iter().zip(u).enumerate() {
        // SAFETY: row r < rows of the block (see above `cross`).
        let (firsts, vals) = unsafe {
            (
                t.firsts.get_unchecked(r * runs..(r + 1) * runs),
                t.values.get_unchecked(r * runs * len..(r + 1) * runs * len),
            )
        };
        for (ra, (&fa, va)) in firsts.iter().zip(vals.chunks_exact(len)).enumerate() {
            let fa = fa as usize;
            // SAFETY: fa + len ≤ cols = xtu.len() (see above `cross`).
            let xtu_run = unsafe { xtu.get_unchecked_mut(fa..fa + len) };
            for (o, &x) in xtu_run.iter_mut().zip(va) {
                *o += x * ur;
            }
            for (i, &x) in va.iter().enumerate() {
                let wx = wr * x;
                let start = (fa + i) * stride + fa + i;
                // SAFETY: fa + i < cols and fa + len ≤ cols (see above
                // `cross`).
                let seg = unsafe { out.get_unchecked_mut(start..start + len - i) };
                for (o, &y) in seg.iter_mut().zip(&va[i..]) {
                    *o += wx * y;
                }
            }
            let later = firsts[ra + 1..]
                .iter()
                .zip(vals[(ra + 1) * len..].chunks_exact(len));
            for (&fb, vb) in later {
                for (i, &x) in va.iter().enumerate() {
                    let wx = wr * x;
                    let start = (fa + i) * stride + fb as usize;
                    // SAFETY: fa + i < cols and fb + len ≤ cols (see
                    // above `cross`).
                    let seg = unsafe { out.get_unchecked_mut(start..start + len) };
                    for (o, &y) in seg.iter_mut().zip(vb) {
                        *o += wx * y;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<TermSpec> {
        vec![
            TermSpec::spline(0, (0.0, 1.0)),                    // 20 cols
            TermSpec::factor(1, vec![0.0, 1.0, 2.0]),           // 3 cols
            TermSpec::tensor((0, 2), ((0.0, 1.0), (0.0, 1.0))), // 64 cols
        ]
    }

    #[test]
    fn column_layout() {
        let d = Design::compile(&specs(), 2).unwrap();
        assert_eq!(d.offsets, vec![1, 21, 24]);
        assert_eq!(d.num_cols, 88);
        assert_eq!(d.term_cols(1), (21, 24));
        assert_eq!(d.term_cols(2), (24, 88));
    }

    #[test]
    fn row_is_sorted_and_intercept_first() {
        let d = Design::compile(&specs(), 2).unwrap();
        let row = d.row(&[0.5, 1.0, 0.25]);
        assert_eq!(row[0], (0, 1.0));
        for w in row.windows(2) {
            assert!(w[0].0 < w[1].0, "row not sorted: {row:?}");
        }
        // 1 intercept + 4 spline + 1 factor + 16 tensor
        assert_eq!(row.len(), 22);
    }

    #[test]
    fn row_reserves_its_exact_width() {
        let quadratic_tensor = TermSpec::Tensor {
            features: (1, 2),
            num_basis: (6, 5),
            ranges: ((0.0, 1.0), (0.0, 1.0)),
            degree: 2,
        };
        let mixes = [
            vec![TermSpec::spline(0, (0.0, 1.0))],
            vec![TermSpec::factor(1, vec![0.0, 1.0, 2.0])],
            vec![TermSpec::tensor((0, 2), ((0.0, 1.0), (0.0, 1.0)))],
            specs(),
            vec![
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::spline(2, (0.0, 1.0)),
                TermSpec::tensor((0, 1), ((0.0, 1.0), (0.0, 1.0))),
                TermSpec::tensor((0, 2), ((0.0, 1.0), (0.0, 1.0))),
                TermSpec::tensor((1, 2), ((0.0, 1.0), (0.0, 1.0))),
                quadratic_tensor,
            ],
        ];
        for mix in &mixes {
            let d = Design::compile(mix, 2).unwrap();
            for x in [[0.0, 0.0, 0.0], [0.5, 1.0, 0.25], [1.0, 2.0, 1.0]] {
                let row = d.row(&x);
                assert_eq!(row.len(), row.capacity(), "{mix:?}");
                for t in 0..d.terms.len() {
                    let term = d.term_row(t, &x);
                    assert_eq!(term.len(), term.capacity(), "{mix:?}");
                }
            }
        }
    }

    #[test]
    fn penalty_is_block_diagonal_with_free_intercept() {
        let d = Design::compile(&specs(), 2).unwrap();
        // Intercept row/col all zero.
        for j in 0..d.num_cols {
            assert_eq!(d.penalty[(0, j)], 0.0);
            assert_eq!(d.penalty[(j, 0)], 0.0);
        }
        // No cross-term coupling.
        let (s1, e1) = d.term_cols(0);
        let (s2, e2) = d.term_cols(1);
        for i in s1..e1 {
            for j in s2..e2 {
                assert_eq!(d.penalty[(i, j)], 0.0);
            }
        }
    }

    /// A spline, a factor, a cubic and a degree-2 tensor: Gram blocks of
    /// the 4×4, 4×1, 1×4 and 1×1 kernels and of the generic fallback.
    fn every_block_shape() -> Vec<TermSpec> {
        vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::factor(1, vec![0.0, 1.0, 2.0]),
            TermSpec::tensor((0, 2), ((0.0, 1.0), (0.0, 1.0))),
            TermSpec::Tensor {
                features: (2, 0),
                num_basis: (6, 5),
                ranges: ((0.0, 1.0), (0.0, 1.0)),
                degree: 2,
            },
        ]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// [`every_block_shape`] on features 0–2, plus the terms the
    /// recovery ladder builds and the domains `D*` can hold: an
    /// anchored spline whose knots sit on domain values, the linear
    /// surrogate's degree-1 two-basis spline and one-level factor, and
    /// terms on an empty domain (feature 3, the constant 0.0) and on a
    /// one-value domain (feature 4). Returns the terms, the domains and
    /// 500 rows of codes. Feature 0's domain holds the ends of `[0, 1]`
    /// and the uniform spline's knots, where basis values are zero.
    fn coded_mix() -> (Vec<TermSpec>, Vec<Vec<f64>>, Vec<u16>) {
        let mut dom0: Vec<f64> = (0..=100).map(|k| k as f64 / 100.0).collect();
        dom0.extend((0..=17).map(|j| 1.0 / 17.0 * j as f64));
        dom0.sort_by(f64::total_cmp);
        dom0.dedup();
        let dom2: Vec<f64> = (0..97).map(|k| k as f64 / 96.0).collect();
        let domains = vec![dom0, vec![0.0, 1.0, 2.0], dom2.clone(), vec![], vec![0.3]];
        let mut specs = every_block_shape();
        specs.extend([
            TermSpec::SplineAnchored {
                feature: 2,
                num_basis: 7,
                degree: 3,
                anchors: dom2,
            },
            TermSpec::Spline {
                feature: 3,
                num_basis: 2,
                degree: 1,
                range: (-1.0, 1.0),
            },
            TermSpec::factor(4, vec![0.3]),
            TermSpec::Tensor {
                features: (4, 3),
                num_basis: (4, 5),
                ranges: ((0.0, 1.0), (-1.0, 1.0)),
                degree: 3,
            },
        ]);
        let len0 = domains[0].len();
        let codes = (0..500)
            .flat_map(|i| {
                [
                    (i * 37 % len0) as u16,
                    (i % 3) as u16,
                    (i * 53 % 97) as u16,
                    0,
                    0,
                ]
            })
            .collect();
        (specs, domains, codes)
    }

    #[test]
    fn design_matrix_matches_design_rows_bitwise() {
        let (specs, domains, codes) = coded_mix();
        let d = Design::compile(&specs, 2).unwrap();
        let p = d.num_cols;
        let xs: Vec<Vec<f64>> = codes
            .chunks_exact(domains.len())
            .map(|row| {
                row.iter()
                    .zip(&domains)
                    .map(|(&k, dom)| dom.get(usize::from(k)).copied().unwrap_or(0.0))
                    .collect()
            })
            .collect();
        let coded = CodedRows {
            codes: &codes,
            domains: &domains,
        };
        let from_rows = DesignMatrix::build(&d, &xs[..]).unwrap();
        let from_codes = DesignMatrix::build(&d, &coded).unwrap();
        for m in [from_rows, from_codes] {
            let beta: Vec<f64> = (0..p).map(|c| (c as f64 * 0.7).sin()).collect();
            let mut sums = vec![0.0; p];
            for (r, x) in xs.iter().enumerate() {
                let row = d.row(x);
                assert_eq!(
                    m.row_dot(r, &beta).to_bits(),
                    sparse_dot(&row, &beta).to_bits()
                );
                for t in 0..d.terms.len() {
                    let want = sparse_dot(&d.term_row(t, x), &beta);
                    assert_eq!(m.term_dot(t, r, &beta).to_bits(), want.to_bits());
                }
                for &(c, v) in &row {
                    sums[c] += v;
                }
            }
            assert_eq!(bits(&m.column_sums().unwrap()), bits(&sums));

            // XᵀX with Xᵀy (the Gaussian fit) and XᵀWX with XᵀWz (a PIRLS
            // iteration) against row-by-row rank-1 updates.
            let ones = vec![1.0; xs.len()];
            let ys: Vec<f64> = xs.iter().map(|x| x[0] - 2.0 * x[2] * x[0]).collect();
            let w: Vec<f64> = (0..xs.len())
                .map(|r| 0.01 + (r % 7) as f64 / 29.0)
                .collect();
            let wz: Vec<f64> = ys.iter().zip(&w).map(|(y, w)| w * (y - 0.3)).collect();
            let mut blocks = m.gram_blocks();
            for (w, u) in [(&ones, &ys), (&w, &wz)] {
                let mut g = Matrix::zeros(p, p);
                let mut b = vec![0.0; p];
                for ((x, &wr), &ur) in xs.iter().zip(w).zip(u) {
                    let row = d.row(x);
                    g.syr_upper_sparse(&row, wr);
                    for &(c, v) in &row {
                        b[c] += v * ur;
                    }
                }
                g.mirror_upper();
                // Buffers are reused, as PIRLS reuses them across iterations.
                for block in &mut blocks {
                    m.accumulate(block, w, u);
                }
                let (blocked, xtu) = m.assemble(&blocks);
                assert_eq!(bits(blocked.data()), bits(g.data()));
                assert_eq!(bits(&xtu), bits(&b));
            }
        }
    }

    /// Codes the terms cannot read are typed errors, not panics.
    #[test]
    fn coded_rows_out_of_range_are_invalid_data() {
        let (specs, domains, mut codes) = coded_mix();
        let d = Design::compile(&specs, 2).unwrap();
        let narrow = CodedRows {
            codes: &codes[..],
            domains: &domains[..4],
        };
        assert!(matches!(
            DesignMatrix::build(&d, &narrow),
            Err(GamError::InvalidData(_))
        ));
        let ragged = CodedRows {
            codes: &codes[..codes.len() - 1],
            domains: &domains,
        };
        assert!(matches!(
            DesignMatrix::build(&d, &ragged),
            Err(GamError::InvalidData(_))
        ));
        // Code 1 of the empty domain, then code 3 of the 3-level factor.
        for (cell, code) in [(5 * 7 + 3, 1), (5 * 9 + 1, 3)] {
            let saved = codes[cell];
            codes[cell] = code;
            let bad = CodedRows {
                codes: &codes,
                domains: &domains,
            };
            assert!(matches!(
                DesignMatrix::build(&d, &bad),
                Err(GamError::InvalidData(_))
            ));
            codes[cell] = saved;
        }
    }

    #[test]
    fn rejects_empty_spec() {
        assert!(Design::compile(&[], 2).is_err());
    }

    #[test]
    fn sparse_dot_matches_dense() {
        let row = vec![(0usize, 1.0), (3, 0.5), (7, -2.0)];
        let beta = vec![1.0, 9.0, 9.0, 2.0, 9.0, 9.0, 9.0, 0.25];
        assert!((sparse_dot(&row, &beta) - (1.0 + 1.0 - 0.5)).abs() < 1e-12);
    }
}
