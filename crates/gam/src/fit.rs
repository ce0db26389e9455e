//! Penalized GAM fitting: PIRLS with a GCV-tuned shared smoothing
//! parameter.
//!
//! Following the paper (Sec. 3.5), all penalized terms share a single
//! smoothing coefficient λ (`λ₁ = … = λ_{p+q}`), selected by
//! Generalized Cross Validation over a log-spaced grid. The Gaussian /
//! identity case reduces to one penalized least-squares solve per λ
//! candidate (with the normal equations accumulated once); the Binomial
//! / logit case runs a full penalized IRLS per candidate. Every
//! candidate inverts its penalized system once: the inverse gives the
//! effective degrees of freedom for the GCV score and, for the winner,
//! the covariance below.
//!
//! Bayesian credible intervals use the posterior covariance
//! `Vβ = (XᵀWX + λS)⁻¹ φ` (Wood 2006), the same construction PyGAM uses
//! for the intervals shown in the paper's spline plots.

use crate::design::{sparse_dot, Cells, CodedRows, Design, DesignMatrix};
use crate::terms::TermSpec;
use crate::{GamError, Result};
use gef_linalg::{Cholesky, Matrix};
use gef_trace::json::{self, JsonValue, JsonWriter, ReadJson, WriteJson};
use std::sync::Mutex;

/// Link function (with its implied error distribution, as in the paper:
/// identity/Normal for regression, logit/Binomial for classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Identity link, Gaussian errors.
    Identity,
    /// Logit link, Binomial errors; responses must lie in `[0, 1]`.
    Logit,
}

impl Link {
    /// Inverse link: map a linear predictor to the response scale.
    #[inline]
    pub fn inverse(&self, eta: f64) -> f64 {
        match self {
            Link::Identity => eta,
            Link::Logit => {
                if eta >= 0.0 {
                    1.0 / (1.0 + (-eta).exp())
                } else {
                    let e = eta.exp();
                    e / (1.0 + e)
                }
            }
        }
    }
}

/// How λ is chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum LambdaSelection {
    /// Use a fixed λ.
    Fixed(f64),
    /// Minimize GCV over the given grid of λ candidates.
    GcvGrid(Vec<f64>),
}

impl Default for LambdaSelection {
    /// 13 log-spaced candidates in `[1e-4, 1e4]`.
    fn default() -> Self {
        LambdaSelection::GcvGrid(gef_linalg::stats::logspace(1e-4, 1e4, 13))
    }
}

/// Full specification of a GAM to fit.
#[derive(Debug, Clone)]
pub struct GamSpec {
    /// Additive terms (at least one).
    pub terms: Vec<TermSpec>,
    /// Link / distribution.
    pub link: Link,
    /// Smoothing-parameter selection.
    pub lambda: LambdaSelection,
    /// Difference-penalty order (2 = curvature, the default).
    pub penalty_order: usize,
    /// Maximum PIRLS iterations (logit only).
    pub max_pirls_iter: usize,
    /// PIRLS convergence tolerance on coefficients.
    pub tol: f64,
}

impl GamSpec {
    /// A regression (identity link) spec with default λ selection.
    pub fn regression(terms: Vec<TermSpec>) -> Self {
        GamSpec {
            terms,
            link: Link::Identity,
            lambda: LambdaSelection::default(),
            penalty_order: 2,
            max_pirls_iter: 25,
            tol: 1e-8,
        }
    }

    /// A binary-classification (logit link) spec with default λ
    /// selection.
    pub fn classification(terms: Vec<TermSpec>) -> Self {
        GamSpec {
            link: Link::Logit,
            ..GamSpec::regression(terms)
        }
    }
}

/// Summary statistics of a fit.
#[derive(Debug, Clone, Copy)]
pub struct FitSummary {
    /// Selected smoothing parameter.
    pub lambda: f64,
    /// GCV score at the selected λ.
    pub gcv: f64,
    /// Effective degrees of freedom `tr(A)`.
    pub edf: f64,
    /// Scale parameter φ (σ̂² for Gaussian, 1 for Binomial).
    pub scale: f64,
    /// Residual sum of squares (Gaussian) or deviance (Binomial).
    pub deviance: f64,
    /// Number of training observations.
    pub n_obs: usize,
    /// PIRLS iterations used at the selected λ (1 for Gaussian).
    pub pirls_iters: usize,
    /// Step-halvings taken by PIRLS at the selected λ (0 for Gaussian
    /// and for cleanly converging logit fits). Defaults to 0 when
    /// reading archives written before it existed.
    pub step_halvings: usize,
}

/// A fitted Generalized Additive Model.
///
/// Its JSON form ([`Gam::to_json`]) stores the term specifications,
/// penalty order, link, β, covariance, fit summary and component
/// statistics; [`Gam::from_json`] recompiles the design from the specs
/// with the same design compilation the fit used.
#[derive(Debug, Clone)]
pub struct Gam {
    design: Design,
    specs: Vec<TermSpec>,
    /// Difference-penalty order the design was compiled with.
    penalty_order: usize,
    link: Link,
    beta: Vec<f64>,
    /// Posterior covariance of β (Bayesian, Wood 2006).
    cov: Matrix,
    summary: FitSummary,
    /// Mean training contribution of each term (used to center
    /// component plots, as the paper does in Fig. 4).
    component_means: Vec<f64>,
    /// Standard deviation of each term's training contribution — used
    /// as the term importance for sorting components.
    component_sds: Vec<f64>,
}

/// Fit a GAM.
///
/// `xs` are row-major instances, `ys` the responses (in `[0, 1]` for
/// [`Link::Logit`]).
pub fn fit(spec: &GamSpec, xs: &[Vec<f64>], ys: &[f64]) -> Result<Gam> {
    fit_on(spec, xs, ys)
}

/// [`fit`] on rows given as domain codes. Each term is evaluated once
/// per domain value instead of once per row; the fitted GAM is
/// bit-identical to [`fit`] on the rows the codes stand for.
pub fn fit_coded<C: Copy + Into<u32> + Sync>(
    spec: &GamSpec,
    rows: CodedRows<'_, C>,
    ys: &[f64],
) -> Result<Gam> {
    fit_on(spec, &rows, ys)
}

/// The fit, on either kind of rows.
fn fit_on<S: Cells + ?Sized>(spec: &GamSpec, xs: &S, ys: &[f64]) -> Result<Gam> {
    let _span = gef_trace::Span::enter("gam.fit");
    if xs.rows() != ys.len() {
        return Err(GamError::InvalidData(format!(
            "{} rows but {} responses",
            xs.rows(),
            ys.len()
        )));
    }
    if xs.rows() == 0 {
        return Err(GamError::InvalidData("empty training set".into()));
    }
    if spec.link == Link::Logit && ys.iter().any(|&y| !(0.0..=1.0).contains(&y)) {
        return Err(GamError::InvalidData(
            "logit link requires responses in [0, 1]".into(),
        ));
    }
    if ys.iter().any(|y| !y.is_finite()) {
        return Err(GamError::InvalidData("non-finite response".into()));
    }
    let design = gef_trace::time("gam.design_compile", || {
        Design::compile(&spec.terms, spec.penalty_order)
    })?;
    let n = xs.rows();
    let p = design.num_cols;
    if n < p {
        // Penalization makes this solvable, but warn via error for the
        // clearly degenerate case of fewer rows than a single term.
        if n < 8 {
            return Err(GamError::InvalidData(format!(
                "{n} rows is too few to fit {p} coefficients"
            )));
        }
    }
    // Evaluate the design once; every later pass reads it. This also
    // checks the width of every row.
    let rows = gef_trace::time("gam.design_rows", || DesignMatrix::build(&design, xs))?;

    let grid: Vec<f64> = match &spec.lambda {
        LambdaSelection::Fixed(l) => vec![*l],
        LambdaSelection::GcvGrid(g) => {
            if g.is_empty() {
                return Err(GamError::EmptyLambdaGrid);
            }
            g.clone()
        }
    };
    for &l in &grid {
        // `!(l >= 0)` deliberately rejects NaN alongside negatives.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(l >= 0.0) || !l.is_finite() {
            return Err(GamError::InvalidSpec(format!("invalid λ {l}")));
        }
    }

    // Soft sum-to-zero constraints: each smooth term's basis spans the
    // constant function (B-splines are a partition of unity; factor
    // one-hots sum to 1), which aliases the intercept. We pin each
    // term's *mean training contribution* to zero with a λ-independent
    // quadratic penalty κ·(c_t c_tᵀ), where c_t is the term's training
    // column-mean vector. This keeps the design rows sparse (unlike a
    // reparameterization) while making both the point estimates and the
    // Bayesian covariance identifiable.
    let constraint = constraint_penalty(&design, &rows)?;

    let normal = match spec.link {
        Link::Identity => Some(NormalEquations::accumulate(&rows, ys)?),
        Link::Logit => None,
    };
    let (lambda, best) = {
        let _grid_span = gef_trace::Span::enter("gam.gcv_grid");
        // Each λ candidate owns one p×p buffer, which holds its system,
        // then the factor, then the inverse, so the grid evaluates on the
        // gef-par pool. A finished candidate takes the best slot only if
        // it [`beats`] the holder; a loser drops its β and inverse at
        // once, so at most one buffer per running task plus the winner's
        // inverse is alive. The light records come back in grid order
        // for telemetry. A candidate whose linear algebra fails (or, for
        // logit, whose PIRLS run diverges — typically a small λ on
        // near-separable data) is skipped, not fatal: better-conditioned
        // λ values may still produce a usable fit.
        let best: Mutex<Option<(usize, Candidate)>> = Mutex::new(None);
        let records = gef_par::map(
            grid.len(),
            gef_par::Options::coarse().with_label("gam.gcv_candidate"),
            |gi| {
                let _eval_span = gef_trace::Span::enter("gam.gcv_eval");
                // Per-λ cooperative checkpoint (PIRLS adds a per-iteration
                // one): a passed hard deadline stops the grid search with a
                // typed error instead of grinding on.
                if gef_trace::budget::hard_exceeded() {
                    return Err(GamError::DeadlineExceeded { at: "gcv_grid" });
                }
                let cand = match &normal {
                    Some(ne) => gaussian_candidate(ne, &design, grid[gi], &constraint)?,
                    None => logit_candidate(
                        &design,
                        &rows,
                        ys,
                        grid[gi],
                        spec.max_pirls_iter,
                        spec.tol,
                        &constraint,
                    )?,
                };
                let record = cand.record;
                let loser = {
                    let mut slot = best.lock().unwrap_or_else(|e| e.into_inner());
                    if beats(
                        record.gcv,
                        gi,
                        slot.as_ref().map(|(i, c)| (c.record.gcv, *i)),
                    ) {
                        slot.replace((gi, cand)).map(|(_, old)| old)
                    } else {
                        Some(cand)
                    }
                };
                drop(loser);
                Ok(record)
            },
        )?;
        let best = best.into_inner().unwrap_or_else(|e| e.into_inner());
        select_candidate(&grid, &records, best, spec.link)?
    };
    // The winner's inverse is the posterior covariance up to the scale φ:
    // σ̂² for Gaussian, 1 for Binomial.
    let mut cov = best.inverse;
    let fit = best.record;
    let scale = match spec.link {
        Link::Identity => {
            let scale = fit.deviance / (n as f64 - fit.edf).max(1.0);
            for v in cov.data_mut() {
                *v *= scale;
            }
            scale
        }
        Link::Logit => 1.0,
    };
    let summary = FitSummary {
        lambda,
        gcv: fit.gcv,
        edf: fit.edf,
        scale,
        deviance: fit.deviance,
        n_obs: n,
        pirls_iters: fit.iters,
        step_halvings: fit.step_halvings,
    };
    let beta = best.beta;
    if gef_trace::enabled() {
        let t = gef_trace::global();
        t.gauge("gam.lambda", summary.lambda);
        t.gauge("gam.gcv", summary.gcv);
        t.gauge("gam.edf", summary.edf);
        t.gauge("gam.deviance", summary.deviance);
        t.gauge("gam.pirls_iters", summary.pirls_iters as f64);
    }

    // Per-term training contributions (for centering and importance).
    let (component_means, component_sds) = gef_trace::time("gam.component_stats", || {
        component_stats(&design, &rows, &beta)
    })?;

    Ok(Gam {
        design,
        specs: spec.terms.clone(),
        penalty_order: spec.penalty_order,
        link: spec.link,
        beta,
        cov,
        summary,
        component_means,
        component_sds,
    })
}

/// Mean and standard deviation of each term's training contribution
/// `x_t·β_t`, one term per pool task, each summed over the rows in row
/// order.
fn component_stats(
    design: &Design,
    rows: &DesignMatrix,
    beta: &[f64],
) -> Result<(Vec<f64>, Vec<f64>)> {
    let sums = gef_par::map(
        design.terms.len(),
        gef_par::Options::default().with_label("gam.component_stats"),
        |t| {
            let (mut sum, mut sq_sum) = (0.0, 0.0);
            for r in 0..rows.rows() {
                let c = rows.term_dot(t, r, beta);
                sum += c;
                sq_sum += c * c;
            }
            (sum, sq_sum)
        },
    )?;
    let n = rows.rows() as f64;
    let means: Vec<f64> = sums.iter().map(|(s, _)| s / n).collect();
    let sds = sums
        .iter()
        .zip(&means)
        .map(|(&(_, sq), &m)| (sq / n - m * m).max(0.0).sqrt())
        .collect();
    Ok((means, sds))
}

/// Build the block-diagonal soft identifiability-constraint matrix.
///
/// * Univariate terms get the outer product of their (unit-normalized)
///   training column means: penalizing `βᵀ (c cᵀ) β` drives the term's
///   average contribution to zero without densifying the design rows.
/// * Tensor terms instead get **marginal-mean** constraints
///   `(ā āᵀ) ⊗ I + I ⊗ (b̄ b̄ᵀ)`, where `ā`/`b̄` are the training means
///   of the marginal bases. A tensor basis spans pure univariate
///   functions of either feature; without these constraints it aliases
///   the main-effect splines (inflating their credible bands and
///   scrambling the functional decomposition). This is the
///   soft-constraint analogue of mgcv's `ti()` interaction smooths.
///   Because each marginal basis is a partition of unity, the marginal
///   means are exact row/column sums of the tensor's column means.
fn constraint_penalty(design: &Design, rows: &DesignMatrix) -> Result<Matrix> {
    let p = design.num_cols;
    let n = rows.rows() as f64;
    let mut means = rows.column_sums()?;
    for m in &mut means {
        *m /= n;
    }
    let mut sc = Matrix::zeros(p, p);
    for t in 0..design.terms.len() {
        let (start, end) = design.term_cols(t);
        if let crate::terms::BuiltTerm::Tensor {
            basis_a, basis_b, ..
        } = &design.terms[t]
        {
            let ka = basis_a.num_basis();
            let kb = basis_b.num_basis();
            // Marginal means: ā_i = Σ_j c[(i,j)], b̄_j = Σ_i c[(i,j)].
            let mut a_bar = vec![0.0; ka];
            let mut b_bar = vec![0.0; kb];
            for i in 0..ka {
                for j in 0..kb {
                    let c = means[start + i * kb + j];
                    a_bar[i] += c;
                    b_bar[j] += c;
                }
            }
            let a2: f64 = a_bar.iter().map(|v| v * v).sum();
            let b2: f64 = b_bar.iter().map(|v| v * v).sum();
            // (ā āᵀ) ⊗ I: kills pure functions of feature b.
            if a2 > 0.0 {
                for i1 in 0..ka {
                    for i2 in 0..ka {
                        let v = a_bar[i1] * a_bar[i2] / a2;
                        if v != 0.0 {
                            for j in 0..kb {
                                sc[(start + i1 * kb + j, start + i2 * kb + j)] += v;
                            }
                        }
                    }
                }
            }
            // I ⊗ (b̄ b̄ᵀ): kills pure functions of feature a.
            if b2 > 0.0 {
                for i in 0..ka {
                    for j1 in 0..kb {
                        for j2 in 0..kb {
                            let v = b_bar[j1] * b_bar[j2] / b2;
                            if v != 0.0 {
                                sc[(start + i * kb + j1, start + i * kb + j2)] += v;
                            }
                        }
                    }
                }
            }
            continue;
        }
        let norm2: f64 = means[start..end].iter().map(|m| m * m).sum();
        if norm2 <= 0.0 {
            continue;
        }
        for i in start..end {
            for j in start..end {
                sc[(i, j)] += means[i] * means[j] / norm2;
            }
        }
    }
    Ok(sc)
}

/// The two diagonal shifts of a penalized system, both scaled to `G`'s
/// mean absolute diagonal.
#[derive(Clone, Copy)]
struct Shifts {
    /// λ-independent constraint strength: strong enough to pin the
    /// aliased constant directions, orders of magnitude above the data
    /// curvature along them (which is shared with the intercept).
    kappa: f64,
    /// Small deterministic ridge keeping the penalized system positive
    /// definite along term-vs-intercept constant directions (each spline
    /// basis is a partition of unity, so its constant direction aliases
    /// the intercept; the difference penalty does not remove it).
    ridge: f64,
}

impl Shifts {
    fn of(g: &Matrix) -> Shifts {
        let p = g.rows();
        let diag = (0..p).map(|i| g[(i, i)].abs()).sum::<f64>();
        Shifts {
            kappa: 10.0 * diag / p as f64,
            ridge: 1e-7 * (diag / p as f64).max(f64::MIN_POSITIVE),
        }
    }
}

/// `c += λS + κK`, then the ridge on the diagonal, where `c` holds `G`.
///
/// The penalty `S` and the constraint `K` are zero outside the
/// term-diagonal blocks, so they are added on those blocks only. That
/// is the dense sum bit for bit: there `λ·0 + κ·0` is +0 for finite κ,
/// and x + (+0) = x for every x but −0.0, which a Gram summed from +0.0
/// never holds.
fn add_penalties(
    c: &mut Matrix,
    design: &Design,
    constraint: &Matrix,
    lambda: f64,
    shifts: Shifts,
) {
    let p = c.rows();
    for t in 0..design.terms.len() {
        let (start, end) = design.term_cols(t);
        for i in start..end {
            let row = i * p + start..i * p + end;
            let (pen, con) = (
                &design.penalty.data()[row.clone()],
                &constraint.data()[row.clone()],
            );
            for ((x, &a), &b) in c.data_mut()[row].iter_mut().zip(pen).zip(con) {
                *x = *x + lambda * a + shifts.kappa * b;
            }
        }
    }
    for i in 0..p {
        c[(i, i)] += shifts.ridge;
    }
}

/// Factor the penalized system `C = G + λS + κK + ridge·I` in one p×p
/// buffer. A jitter retry rebuilds `C` from `G` in that buffer.
fn penalized_chol(
    g: &Matrix,
    design: &Design,
    constraint: &Matrix,
    lambda: f64,
    shifts: Shifts,
) -> Result<Cholesky> {
    let mut c = g.clone();
    add_penalties(&mut c, design, constraint, lambda, shifts);
    let rebuild = |c: &mut Matrix| {
        c.data_mut().copy_from_slice(g.data());
        add_penalties(c, design, constraint, lambda, shifts);
    };
    Ok(Cholesky::factor_jittered_in_place(c, 1e-10, 14, rebuild)?)
}

/// What the grid-order telemetry and the fit summary read of one
/// evaluated λ candidate: everything but its β and inverse.
#[derive(Debug, Clone, Copy)]
struct CandidateRecord {
    gcv: f64,
    /// Residual sum of squares (Gaussian) or deviance (Binomial).
    deviance: f64,
    edf: f64,
    /// PIRLS iterations (1 for Gaussian).
    iters: usize,
    step_halvings: usize,
    /// Max-norm coefficient change of the last accepted PIRLS step,
    /// carried out so the coordinator can emit the `gam.pirls` event in
    /// grid order.
    final_delta: f64,
}

/// One evaluated λ candidate: its record plus the coefficients and
/// inverse that only the winner keeps.
struct Candidate {
    record: CandidateRecord,
    beta: Vec<f64>,
    /// `C⁻¹` of the candidate's penalized system `C = XᵀWX + λS + κK`;
    /// the winner's, times the scale φ, is the posterior covariance.
    inverse: Matrix,
}

/// Whether a candidate scoring `gcv` at grid index `index` takes the
/// best slot from its holder `slot` (`(gcv, grid index)`, `None` when
/// empty). Only a finite score can win, and it must be lower, or equal
/// at an earlier grid index. Candidates finish in any order on the
/// pool, yet the slot ends on the first finite minimum in grid order,
/// the rule a serial scan with a strict `<` applies.
fn beats(gcv: f64, index: usize, slot: Option<(f64, usize)>) -> bool {
    gcv.is_finite() && slot.is_none_or(|(held, at)| gcv < held || (gcv == held && index < at))
}

/// Invert the factored penalized system once, in the factor's buffer;
/// the inverse gives the effective degrees of freedom `tr(C⁻¹G) = ⟨C⁻¹,
/// G⟩` (a Frobenius product, as `G` is symmetric) and, for the winner,
/// the covariance.
fn inverse_and_edf(chol: Cholesky, g: &Matrix) -> (Matrix, f64) {
    let inverse = gef_trace::time("gam.inverse", || chol.inverse());
    let edf = gef_linalg::matrix::dot(inverse.data(), g.data());
    (inverse, edf)
}

/// `n·D / (n − edf)²`, with the denominator floored at 1.
fn gcv_score(n: usize, deviance: f64, edf: f64) -> f64 {
    let denom = (n as f64 - edf).max(1.0);
    n as f64 * deviance / (denom * denom)
}

/// The λ-independent Gaussian normal equations, accumulated once.
struct NormalEquations {
    /// `XᵀX` (mirrored, exactly symmetric).
    g: Matrix,
    /// `Xᵀy`.
    b: Vec<f64>,
    yty: f64,
    n: usize,
    shifts: Shifts,
}

impl NormalEquations {
    /// `XᵀX` and `Xᵀy` one term-pair block per pool task.
    fn accumulate(rows: &DesignMatrix, ys: &[f64]) -> Result<Self> {
        let _span = gef_trace::Span::enter("gam.gram");
        let ones = vec![1.0; rows.rows()];
        let mut blocks = rows.gram_blocks();
        gef_par::for_each_task(
            blocks.iter_mut().collect(),
            gef_par::Options::default().with_label("gam.gram_block"),
            |_, block| rows.accumulate(block, &ones, ys),
        )?;
        let (g, b) = rows.assemble(&blocks);
        let mut yty = 0.0;
        for &y in ys {
            yty += y * y;
        }
        Ok(NormalEquations {
            shifts: Shifts::of(&g),
            g,
            b,
            yty,
            n: rows.rows(),
        })
    }
}

/// One penalized least-squares solve at `lambda`.
fn gaussian_candidate(
    ne: &NormalEquations,
    design: &Design,
    lambda: f64,
    constraint: &Matrix,
) -> Result<Candidate> {
    let chol = penalized_chol(&ne.g, design, constraint, lambda, ne.shifts)?;
    let beta = chol.solve(&ne.b)?;
    let bt_b: f64 = beta.iter().zip(&ne.b).map(|(x, y)| x * y).sum();
    let g_beta = ne.g.matvec(&beta)?;
    let bt_g_b: f64 = beta.iter().zip(&g_beta).map(|(x, y)| x * y).sum();
    let rss = (ne.yty - 2.0 * bt_b + bt_g_b).max(0.0);
    let (inverse, edf) = inverse_and_edf(chol, &ne.g);
    Ok(Candidate {
        record: CandidateRecord {
            gcv: gcv_score(ne.n, rss, edf),
            deviance: rss,
            edf,
            iters: 1,
            step_halvings: 0,
            final_delta: 0.0,
        },
        beta,
        inverse,
    })
}

/// One penalized IRLS run at `lambda`, scored at its final weights.
#[allow(clippy::too_many_arguments)]
fn logit_candidate(
    design: &Design,
    rows: &DesignMatrix,
    ys: &[f64],
    lambda: f64,
    max_iter: usize,
    tol: f64,
    constraint: &Matrix,
) -> Result<Candidate> {
    let run = pirls_logit(design, rows, ys, lambda, max_iter, tol, constraint)?;
    let (inverse, edf) = inverse_and_edf(run.chol, &run.weighted_gram);
    Ok(Candidate {
        record: CandidateRecord {
            gcv: gcv_score(rows.rows(), run.deviance, edf),
            deviance: run.deviance,
            edf,
            iters: run.iters,
            step_halvings: run.step_halvings,
            final_delta: run.final_delta,
        },
        beta: run.beta,
        inverse,
    })
}

/// Emit per-candidate telemetry from the grid-order `records` and hand
/// back the winner the pool left in the best slot. This runs serially
/// and in grid order, so the event stream is identical at every thread
/// count.
fn select_candidate(
    grid: &[f64],
    records: &[Result<CandidateRecord>],
    best: Option<(usize, Candidate)>,
    link: Link,
) -> Result<(f64, Candidate)> {
    let mut last_err: Option<&GamError> = None;
    let mut evaluated = 0usize;
    for (&lambda, record) in grid.iter().zip(records) {
        let cand = match record {
            Ok(c) => c,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        evaluated += 1;
        if gef_trace::enabled() {
            if link == Link::Logit {
                gef_trace::counter!("gam.pirls_iterations").add(cand.iters as u64);
                if cand.step_halvings > 0 {
                    gef_trace::counter!("gam.pirls_step_halvings").add(cand.step_halvings as u64);
                }
                gef_trace::global().event(
                    "gam.pirls",
                    &[
                        ("lambda", lambda),
                        ("iters", cand.iters as f64),
                        ("final_delta", cand.final_delta),
                        ("step_halvings", cand.step_halvings as f64),
                    ],
                );
            }
            gef_trace::global().event(
                "gam.gcv",
                &[
                    ("lambda", lambda),
                    ("gcv", cand.gcv),
                    ("edf", cand.edf),
                    ("deviance", cand.deviance),
                    ("pirls_iters", cand.iters as f64),
                ],
            );
        }
    }
    match best {
        Some((gi, cand)) => Ok((grid[gi], cand)),
        // Every candidate died in linear algebra before producing a GCV
        // score: surface the underlying numerical failure.
        None => Err(match last_err {
            Some(e) if evaluated == 0 => e.clone(),
            _ => GamError::NonFiniteGcv {
                candidates: grid.len(),
            },
        }),
    }
}

/// Result of one penalized IRLS run at a fixed λ.
struct Pirls {
    beta: Vec<f64>,
    chol: Cholesky,
    /// Final weighted Gram matrix `XᵀWX` (needed for the edf trace).
    weighted_gram: Matrix,
    deviance: f64,
    iters: usize,
    step_halvings: usize,
    /// Max-norm coefficient change of the last accepted step.
    final_delta: f64,
}

/// Binomial deviance of the responses under linear predictors `eta`;
/// `mu` receives `μ = logit⁻¹(η)` per row, unclamped (the deviance
/// clamps its own copy).
fn binomial_deviance(ys: &[f64], eta: &[f64], mu: &mut [f64]) -> f64 {
    ys.iter()
        .zip(eta)
        .zip(mu)
        .map(|((&y, &e), m)| {
            *m = Link::Logit.inverse(e);
            let mu = m.clamp(1e-12, 1.0 - 1e-12);
            let term_y = if y > 0.0 { y * (y / mu).ln() } else { 0.0 };
            let term_n = if y < 1.0 {
                (1.0 - y) * ((1.0 - y) / (1.0 - mu)).ln()
            } else {
                0.0
            };
            2.0 * (term_y + term_n)
        })
        .sum()
}

/// Maximum step-halvings per PIRLS iteration before giving up on the
/// candidate step.
const MAX_STEP_HALVINGS: usize = 12;

/// One penalized IRLS run for the logit link at a fixed λ.
///
/// Each Newton/IRLS step is guarded by **step-halving** (mgcv-style):
/// if the candidate coefficients raise the penalized-model deviance (or
/// make it non-finite), the step is repeatedly halved back toward the
/// previous iterate. A step that stays non-finite after
/// [`MAX_STEP_HALVINGS`] halvings aborts the run with
/// [`GamError::PirlsDiverged`]; a finite but non-improving step keeps
/// the previous iterate and stops early (best-effort convergence on
/// e.g. separable data).
#[allow(clippy::too_many_arguments)]
fn pirls_logit(
    design: &Design,
    rows: &DesignMatrix,
    ys: &[f64],
    lambda: f64,
    max_iter: usize,
    tol: f64,
    constraint: &Matrix,
) -> Result<Pirls> {
    let p = design.num_cols;
    // Initialize the linear predictor from shrunken responses.
    let mut eta: Vec<f64> = ys
        .iter()
        .map(|&y| {
            let mu = (0.5 * (y + 0.5)).clamp(0.05, 0.95);
            (mu / (1.0 - mu)).ln()
        })
        .collect();
    // μ = logit⁻¹(η) of the current iterate, the weights' input. The
    // deviance of a candidate step computes it into `cand_mu`, and an
    // accepted step carries it forward instead of evaluating it again.
    let mut mu: Vec<f64> = eta.iter().map(|&e| Link::Logit.inverse(e)).collect();
    let mut cand_mu = vec![0.0; ys.len()];
    let mut beta = vec![0.0; p];
    let mut result: Option<(Cholesky, Matrix)> = None;
    let mut iters = 0;
    let mut last_delta = f64::INFINITY;
    // The initial eta is a heuristic warm start, not X·β for any β, so
    // the first accepted step has no previous deviance to compare
    // against: any finite deviance is accepted.
    let mut prev_dev = f64::INFINITY;
    let mut step_halvings = 0usize;
    // Buffers every iteration refills: the IRLS weights w and working
    // responses times weights w·z, and the Gram blocks.
    let mut w = vec![0.0; ys.len()];
    let mut wz = vec![0.0; ys.len()];
    let mut blocks = rows.gram_blocks();
    // Budget cap on PIRLS iterations (0 = unlimited): a process-wide
    // clamp on top of the spec's own `max_pirls_iter`.
    let max_iter = match gef_trace::budget::pirls_iter_cap() {
        0 => max_iter,
        cap => max_iter.min(cap as usize),
    };
    for it in 0..max_iter {
        // Per-iteration cooperative checkpoint: one relaxed load when no
        // budget is armed, so unbudgeted runs stay bit-identical.
        if gef_trace::budget::hard_exceeded() {
            return Err(GamError::DeadlineExceeded { at: "pirls" });
        }
        if gef_trace::fault::fires("pirls.stall") {
            // Simulated wedged iteration: burns wall-clock without any
            // numeric effect, so only a deadline can bound the run.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        iters = it + 1;
        // XᵀWX and XᵀWz, serially: the λ grid around this run is what
        // runs on the pool.
        let gram_span = gef_trace::Span::enter("gam.gram");
        for (((w, wz), &y), (&e, &mu)) in w.iter_mut().zip(&mut wz).zip(ys).zip(eta.iter().zip(&mu))
        {
            *w = (mu * (1.0 - mu)).max(1e-6);
            let z = e + (y - mu) / *w;
            *wz = *w * z;
        }
        for block in &mut blocks {
            rows.accumulate(block, &w, &wz);
        }
        let (g, b) = rows.assemble(&blocks);
        drop(gram_span);
        let chol = penalized_chol(&g, design, constraint, lambda, Shifts::of(&g))?;
        let mut new_beta = chol.solve(&b)?;
        if gef_trace::fault::fires("pirls.iter") {
            // Simulated solver corruption: non-finite coefficients.
            new_beta.fill(f64::NAN);
        }
        if gef_trace::fault::fires("pirls.step") {
            // Simulated overshoot: finite but wildly overscaled step,
            // recoverable by step-halving.
            for v in &mut new_beta {
                *v = *v * 64.0 + 64.0;
            }
        }
        // Step-halving: walk the candidate back toward the previous
        // iterate while it makes the deviance worse or non-finite.
        let mut halved = 0usize;
        let (new_eta, dev, accepted) = loop {
            let cand_eta: Vec<f64> = (0..rows.rows())
                .map(|r| rows.row_dot(r, &new_beta).clamp(-30.0, 30.0))
                .collect();
            let dev = binomial_deviance(ys, &cand_eta, &mut cand_mu);
            if dev.is_finite() && dev <= prev_dev + 1e-6 * (1.0 + prev_dev.abs()) {
                break (cand_eta, dev, true);
            }
            if halved >= MAX_STEP_HALVINGS {
                if !dev.is_finite() {
                    return Err(GamError::PirlsDiverged {
                        iters,
                        deviance: dev,
                    });
                }
                // Finite but no improvement even at a tiny step: the
                // previous iterate is (numerically) the optimum.
                break (eta.clone(), prev_dev, false);
            }
            halved += 1;
            for (nb, ob) in new_beta.iter_mut().zip(&beta) {
                *nb = 0.5 * (*nb + *ob);
            }
        };
        step_halvings += halved;
        if !accepted {
            // Kept the previous iterate; its factorization is already in
            // `result` (the first iteration always either accepts a
            // finite step or diverges above).
            last_delta = 0.0;
            break;
        }
        let delta = new_beta
            .iter()
            .zip(&beta)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let scale_ref = new_beta.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        beta = new_beta;
        eta = new_eta;
        std::mem::swap(&mut mu, &mut cand_mu);
        prev_dev = dev;
        result = Some((chol, g));
        last_delta = delta;
        if delta < tol * (1.0 + scale_ref) {
            break;
        }
    }
    let Some((chol, weighted_gram)) = result else {
        // Only reachable when the very first iteration exhausted its
        // halvings without a finite improvement.
        return Err(GamError::PirlsDiverged {
            iters,
            deviance: prev_dev,
        });
    };
    Ok(Pirls {
        beta,
        chol,
        weighted_gram,
        deviance: prev_dev,
        iters,
        step_halvings,
        final_delta: last_delta,
    })
}

impl Gam {
    /// Linear predictor η(x).
    pub fn predict_raw(&self, x: &[f64]) -> f64 {
        sparse_dot(&self.design.row(x), &self.beta)
    }

    /// Response-scale prediction (identity or inverse-logit).
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.link.inverse(self.predict_raw(x))
    }

    /// Batch response-scale predictions, bit-equal to [`Gam::predict`]
    /// on each row. The design is evaluated on the gef-par pool; a row
    /// narrower than the terms need is an [`GamError::InvalidData`].
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.predict_on(xs)
    }

    /// [`Gam::predict_batch`] on rows given as domain codes, bit-equal
    /// to it on the rows the codes stand for.
    pub fn predict_batch_coded<C: Copy + Into<u32> + Sync>(
        &self,
        rows: CodedRows<'_, C>,
    ) -> Result<Vec<f64>> {
        self.predict_on(&rows)
    }

    fn predict_on<S: Cells + ?Sized>(&self, xs: &S) -> Result<Vec<f64>> {
        let rows = DesignMatrix::build(&self.design, xs)?;
        Ok((0..rows.rows())
            .map(|r| self.link.inverse(rows.row_dot(r, &self.beta)))
            .collect())
    }

    /// Number of additive terms.
    pub fn num_terms(&self) -> usize {
        self.design.terms.len()
    }

    /// The term specifications this model was fitted with.
    pub fn term_specs(&self) -> &[TermSpec] {
        &self.specs
    }

    /// Label of a term, e.g. `s(3)`.
    pub fn term_label(&self, term: usize) -> String {
        self.specs[term].label()
    }

    /// Link function of the model.
    pub fn link(&self) -> Link {
        self.link
    }

    /// Fit summary (λ, GCV, edf, scale, deviance).
    pub fn summary(&self) -> &FitSummary {
        &self.summary
    }

    /// Coefficient vector (intercept first).
    pub fn coefficients(&self) -> &[f64] {
        &self.beta
    }

    /// Stable 64-bit content digest of the fitted model (domain-tagged
    /// `gef-gam/v1`): term labels, link, selected λ, and every
    /// coefficient's exact bit pattern. Bit-identical fits — and only
    /// those — digest equal; explanation provenance uses it to
    /// fingerprint the surrogate independently of its JSON encoding.
    pub fn content_digest(&self) -> u64 {
        let mut d = gef_trace::hash::Digest::new("gef-gam/v1");
        d.write_str(match self.link {
            Link::Identity => "identity",
            Link::Logit => "logit",
        });
        d.write_u64(self.specs.len() as u64);
        for spec in &self.specs {
            d.write_str(&spec.label());
        }
        d.write_f64(self.summary.lambda);
        d.write_f64s(&self.beta);
        d.finish()
    }

    /// Effective intercept on the linear-predictor scale: the raw
    /// intercept plus every term's (training) mean contribution, so
    /// `predict_raw(x) = effective_intercept() + Σ component(t, x)`.
    pub fn effective_intercept(&self) -> f64 {
        self.beta[0] + self.component_means.iter().sum::<f64>()
    }

    /// Centered contribution of one term at instance `x` (the paper's
    /// component value: the spline evaluated at `x`, centered on its
    /// training mean).
    pub fn component(&self, term: usize, x: &[f64]) -> f64 {
        let row = self.design.term_row(term, x);
        sparse_dot(&row, &self.beta) - self.component_means[term]
    }

    /// Centered contribution and its Bayesian standard error.
    pub fn component_with_se(&self, term: usize, x: &[f64]) -> (f64, f64) {
        let row = self.design.term_row(term, x);
        let est = sparse_dot(&row, &self.beta) - self.component_means[term];
        // se² = bᵀ V_block b over the term's columns.
        let mut se2 = 0.0;
        for &(ci, vi) in &row {
            for &(cj, vj) in &row {
                se2 += vi * vj * self.cov[(ci, cj)];
            }
        }
        (est, se2.max(0.0).sqrt())
    }

    /// Evaluate a univariate term's centered curve with a symmetric
    /// credible band at the given feature values. `z` is the normal
    /// quantile (1.96 for a 95% band).
    ///
    /// Returns `(estimate, lower, upper)` per value. Errors if the term
    /// is a tensor (bivariate) term.
    pub fn univariate_curve(
        &self,
        term: usize,
        values: &[f64],
        z: f64,
    ) -> Result<Vec<(f64, f64, f64)>> {
        let feats = self.specs[term].features();
        if feats.len() != 1 {
            return Err(GamError::InvalidSpec(format!(
                "term {term} ({}) is not univariate",
                self.term_label(term)
            )));
        }
        let f = feats[0];
        let mut x = vec![0.0; f + 1];
        Ok(values
            .iter()
            .map(|&v| {
                x[f] = v;
                let (est, se) = self.component_with_se(term, &x);
                (est, est - z * se, est + z * se)
            })
            .collect())
    }

    /// Importance of a term: the standard deviation of its contribution
    /// over the training data (used to sort component plots).
    pub fn term_importance(&self, term: usize) -> f64 {
        self.component_sds[term]
    }

    /// Serialize the fitted model (terms, coefficients, covariance) to
    /// JSON, so a surrogate can be archived and reloaded without
    /// refitting.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Reload a fitted model from [`Gam::to_json`] output. A missing
    /// field, or a β, covariance or component list whose length does
    /// not match the terms, is an [`GamError::InvalidData`].
    pub fn from_json(s: &str) -> Result<Gam> {
        json::from_str(s).map_err(|e| GamError::InvalidData(format!("json: {e}")))
    }

    /// Terms sorted by descending importance.
    pub fn terms_by_importance(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.num_terms()).collect();
        idx.sort_by(|&a, &b| self.component_sds[b].total_cmp(&self.component_sds[a]));
        idx
    }
}

impl WriteJson for Link {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_str(match self {
            Link::Identity => "Identity",
            Link::Logit => "Logit",
        });
    }
}

impl ReadJson for Link {
    fn read_json(v: &JsonValue) -> std::result::Result<Link, String> {
        match v.variant()?.0 {
            "Identity" => Ok(Link::Identity),
            "Logit" => Ok(Link::Logit),
            other => Err(format!("unknown link `{other}`")),
        }
    }
}

gef_trace::json_struct!(FitSummary {
    lambda,
    gcv,
    edf,
    scale,
    deviance,
    n_obs,
    pirls_iters;
    default step_halvings
});

impl WriteJson for Gam {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("specs", &self.specs);
        w.field("penalty_order", &self.penalty_order);
        w.field("link", &self.link);
        w.field("beta", &self.beta);
        w.field("cov", &self.cov);
        w.field("summary", &self.summary);
        w.field("component_means", &self.component_means);
        w.field("component_sds", &self.component_sds);
        w.end_object();
    }
}

impl ReadJson for Gam {
    fn read_json(v: &JsonValue) -> std::result::Result<Gam, String> {
        let specs: Vec<TermSpec> = v.req("specs")?;
        let beta: Vec<f64> = v.req("beta")?;
        let cov: Matrix = v.req("cov")?;
        let p = beta.len();
        if cov.rows() != p || cov.cols() != p {
            return Err(format!(
                "cov is {}x{} for {p} coefficients",
                cov.rows(),
                cov.cols()
            ));
        }
        // Compiling allocates a p×p penalty from the specs' declared
        // basis sizes: bound them by the coefficients actually present
        // first, so a small archive cannot claim a huge design.
        if !matches!(min_cols(&specs), Some(m) if m <= p) {
            return Err(format!("the terms need more than {p} coefficients"));
        }
        // Archives from before the order was stored carry a compiled
        // `design` instead (ignored); they were all fitted with the
        // default curvature penalty.
        let penalty_order = match v.get("penalty_order") {
            Some(_) => v.req("penalty_order")?,
            None => 2,
        };
        let design = Design::compile(&specs, penalty_order).map_err(|e| e.to_string())?;
        if design.num_cols != p {
            return Err(format!(
                "beta has {p} coefficients, the terms need {}",
                design.num_cols
            ));
        }
        let gam = Gam {
            design,
            specs,
            penalty_order,
            link: v.req("link")?,
            beta,
            cov,
            summary: v.req("summary")?,
            component_means: v.req("component_means")?,
            component_sds: v.req("component_sds")?,
        };
        let t = gam.specs.len();
        if gam.component_means.len() != t || gam.component_sds.len() != t {
            return Err(format!("component stats do not cover the {t} terms"));
        }
        Ok(gam)
    }
}

/// A lower bound on the design width `specs` compile to, without
/// allocating: the intercept, each spline's and tensor's declared basis
/// size, and one column per factor (its de-duplicated levels). `None`
/// on overflow.
fn min_cols(specs: &[TermSpec]) -> Option<usize> {
    specs.iter().try_fold(1usize, |cols, spec| {
        let width = match spec {
            TermSpec::Spline { num_basis, .. } | TermSpec::SplineAnchored { num_basis, .. } => {
                *num_basis
            }
            TermSpec::Factor { .. } => 1,
            TermSpec::Tensor { num_basis, .. } | TermSpec::TensorAnchored { num_basis, .. } => {
                num_basis.0.checked_mul(num_basis.1)?
            }
        };
        cols.checked_add(width)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
    }

    #[test]
    fn recovers_sine_plus_line() {
        let xs = uniform(2000, 2, 1);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 2.0 * x[0] + (x[1] * std::f64::consts::PI * 2.0).sin())
            .collect();
        let spec = GamSpec::regression(vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::spline(1, (0.0, 1.0)),
        ]);
        let gam = fit(&spec, &xs, &ys).unwrap();
        let rmse: f64 = (xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (gam.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64)
            .sqrt();
        assert!(rmse < 0.02, "rmse={rmse}");
        // The component of term 1 should look like the sine (centered).
        let c_low = gam.component(1, &[0.0, 0.25]);
        let c_high = gam.component(1, &[0.0, 0.75]);
        assert!((c_low - 1.0).abs() < 0.1, "c(0.25)={c_low}");
        assert!((c_high + 1.0).abs() < 0.1, "c(0.75)={c_high}");
    }

    #[test]
    fn components_sum_to_prediction() {
        let xs = uniform(500, 2, 3);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] - 0.5 * x[1] + 1.0).collect();
        let spec = GamSpec::regression(vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::spline(1, (0.0, 1.0)),
        ]);
        let gam = fit(&spec, &xs, &ys).unwrap();
        for x in xs.iter().take(20) {
            let sum = gam.effective_intercept() + gam.component(0, x) + gam.component(1, x);
            assert!((sum - gam.predict_raw(x)).abs() < 1e-9);
        }
    }

    #[test]
    fn heavy_smoothing_flattens_curve() {
        let xs = uniform(800, 1, 5);
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 20.0).sin()).collect();
        let smooth = fit(
            &GamSpec {
                lambda: LambdaSelection::Fixed(1e8),
                ..GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))])
            },
            &xs,
            &ys,
        )
        .unwrap();
        let wiggly = fit(
            &GamSpec {
                lambda: LambdaSelection::Fixed(1e-6),
                ..GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))])
            },
            &xs,
            &ys,
        )
        .unwrap();
        // With huge λ the component collapses toward a line; its sd is
        // far below the wiggly fit's.
        assert!(smooth.term_importance(0) < 0.5 * wiggly.term_importance(0));
        assert!(smooth.summary().edf < wiggly.summary().edf);
    }

    #[test]
    fn gcv_picks_reasonable_lambda() {
        let xs = uniform(1500, 1, 7);
        // Noisy smooth signal: GCV should neither pin to the smallest
        // nor necessarily the largest λ, and fit must track the signal.
        let mut state = 17u64;
        let mut noise = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.4
        };
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 6.0).sin() + noise()).collect();
        let gam = fit(
            &GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))]),
            &xs,
            &ys,
        )
        .unwrap();
        // Residual rmse close to the noise floor (sd ≈ 0.115).
        let rmse = (gam.summary().deviance / xs.len() as f64).sqrt();
        assert!(rmse > 0.08 && rmse < 0.16, "rmse={rmse}");
        assert!(gam.summary().lambda > 0.0);
    }

    #[test]
    fn factor_term_fits_group_means() {
        let n = 600;
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 3) as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| match x[0] as usize {
                0 => 1.0,
                1 => -2.0,
                _ => 0.5,
            })
            .collect();
        let spec = GamSpec {
            lambda: LambdaSelection::Fixed(1e-6),
            ..GamSpec::regression(vec![TermSpec::factor(0, vec![0.0, 1.0, 2.0])])
        };
        let gam = fit(&spec, &xs, &ys).unwrap();
        assert!((gam.predict(&[0.0]) - 1.0).abs() < 1e-3);
        assert!((gam.predict(&[1.0]) + 2.0).abs() < 1e-3);
        assert!((gam.predict(&[2.0]) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn tensor_term_captures_interaction() {
        let xs = uniform(3000, 2, 11);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1]).collect();
        // Univariate-only model cannot represent x0*x1; adding the
        // tensor term must cut the error dramatically.
        let uni = fit(
            &GamSpec::regression(vec![
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::spline(1, (0.0, 1.0)),
            ]),
            &xs,
            &ys,
        )
        .unwrap();
        let with_te = fit(
            &GamSpec::regression(vec![
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::spline(1, (0.0, 1.0)),
                TermSpec::tensor((0, 1), ((0.0, 1.0), (0.0, 1.0))),
            ]),
            &xs,
            &ys,
        )
        .unwrap();
        let rss_uni = uni.summary().deviance;
        let rss_te = with_te.summary().deviance;
        assert!(
            rss_te < 0.2 * rss_uni,
            "tensor should capture interaction: {rss_te} vs {rss_uni}"
        );
    }

    #[test]
    fn logit_link_learns_probability() {
        let xs = uniform(2000, 1, 13);
        let ys: Vec<f64> = xs.iter().map(|x| f64::from(x[0] > 0.5)).collect();
        let gam = fit(
            &GamSpec::classification(vec![TermSpec::spline(0, (0.0, 1.0))]),
            &xs,
            &ys,
        )
        .unwrap();
        assert!(gam.predict(&[0.9]) > 0.9);
        assert!(gam.predict(&[0.1]) < 0.1);
        assert!(gam.summary().pirls_iters >= 2);
        assert_eq!(gam.summary().scale, 1.0);
    }

    #[test]
    fn credible_band_contains_estimate_and_grows_with_z() {
        let xs = uniform(500, 1, 21);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
        let gam = fit(
            &GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))]),
            &xs,
            &ys,
        )
        .unwrap();
        let grid: Vec<f64> = (0..21).map(|i| i as f64 / 20.0).collect();
        let band95 = gam.univariate_curve(0, &grid, 1.96).unwrap();
        let band50 = gam.univariate_curve(0, &grid, 0.674).unwrap();
        for ((e95, lo95, hi95), (_, lo50, hi50)) in band95.iter().zip(&band50) {
            assert!(lo95 <= e95 && e95 <= hi95);
            assert!(lo95 <= lo50 && hi50 <= hi95);
        }
    }

    #[test]
    fn curve_errors_on_tensor_term() {
        let xs = uniform(300, 2, 23);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1]).collect();
        let gam = fit(
            &GamSpec::regression(vec![TermSpec::tensor((0, 1), ((0.0, 1.0), (0.0, 1.0)))]),
            &xs,
            &ys,
        )
        .unwrap();
        assert!(gam.univariate_curve(0, &[0.5], 1.96).is_err());
    }

    #[test]
    fn importance_ranks_strong_term_first() {
        let xs = uniform(1000, 2, 29);
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 * x[0] + 0.1 * x[1]).collect();
        let gam = fit(
            &GamSpec::regression(vec![
                TermSpec::spline(1, (0.0, 1.0)),
                TermSpec::spline(0, (0.0, 1.0)),
            ]),
            &xs,
            &ys,
        )
        .unwrap();
        // Term index 1 is the spline on feature 0 (the strong one).
        assert_eq!(gam.terms_by_importance()[0], 1);
        assert!(gam.term_importance(1) > 5.0 * gam.term_importance(0));
    }

    #[test]
    fn tensor_does_not_steal_main_effects() {
        // y = sin(2πx0) + 3·(x0−.5)(x1−.5): with marginal constraints
        // the spline on x0 must keep the sine and the tensor must hold
        // only the product structure.
        let xs = uniform(4000, 2, 77);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] * std::f64::consts::PI * 2.0).sin() + 3.0 * (x[0] - 0.5) * (x[1] - 0.5))
            .collect();
        let gam = fit(
            &GamSpec::regression(vec![
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::spline(1, (0.0, 1.0)),
                TermSpec::tensor((0, 1), ((0.0, 1.0), (0.0, 1.0))),
            ]),
            &xs,
            &ys,
        )
        .unwrap();
        // Spline on x0 carries the sine: check two probe points.
        let c_quarter = gam.component(0, &[0.25, 0.0]);
        let c_three_q = gam.component(0, &[0.75, 0.0]);
        assert!((c_quarter - 1.0).abs() < 0.15, "c(0.25)={c_quarter}");
        assert!((c_three_q + 1.0).abs() < 0.15, "c(0.75)={c_three_q}");
        // The spline's standard error stays modest (no aliasing blowup).
        let (_, se) = gam.component_with_se(0, &[0.5, 0.5]);
        assert!(se < 0.2, "se={se}");
        // The tensor term is (approximately) free of main effects: its
        // average over x1 at fixed x0 is near zero.
        let te = gam
            .term_specs()
            .iter()
            .position(|t| matches!(t, TermSpec::Tensor { .. }))
            .unwrap();
        for &a in &[0.2, 0.5, 0.8] {
            let avg: f64 = (0..21)
                .map(|i| gam.component(te, &[a, i as f64 / 20.0]))
                .sum::<f64>()
                / 21.0;
            assert!(avg.abs() < 0.12, "tensor marginal at x0={a}: {avg}");
        }
        // And it still captures the interaction (nonzero corners).
        let corner = gam.component(te, &[0.95, 0.95]);
        assert!(corner > 0.3, "tensor corner = {corner}");
    }

    #[test]
    fn gam_json_round_trip_preserves_predictions() {
        let (xs, ys) = mixed_data(500, 41);
        let gam = fit(&mixed_spec(), &xs, &ys).unwrap();
        let json = gam.to_json();
        let reloaded = Gam::from_json(&json).unwrap();
        for x in xs.iter().take(25) {
            assert_eq!(gam.predict(x).to_bits(), reloaded.predict(x).to_bits());
            for t in 0..gam.num_terms() {
                let (e1, s1) = gam.component_with_se(t, x);
                let (e2, s2) = reloaded.component_with_se(t, x);
                assert_eq!((e1.to_bits(), s1.to_bits()), (e2.to_bits(), s2.to_bits()));
            }
        }
        assert_eq!(gam.content_digest(), reloaded.content_digest());
        assert_eq!(reloaded.to_json(), json);
        assert!(Gam::from_json("{").is_err());
    }

    /// `json` with the top-level field `key` removed, then set to
    /// `value` when given.
    fn with_field(json: &str, key: &str, value: Option<JsonValue>) -> String {
        let Ok(JsonValue::Object(mut pairs)) = json::parse(json) else {
            panic!("not an object: {json}");
        };
        pairs.retain(|(k, _)| k != key);
        pairs.extend(value.map(|v| (key.to_string(), v)));
        JsonValue::Object(pairs).to_json()
    }

    #[test]
    fn gam_json_inconsistent_archives_are_typed_errors() {
        let (xs, ys) = mixed_data(300, 5);
        let gam = fit(&mixed_spec(), &xs, &ys).unwrap();
        let json = gam.to_json();
        let doc = json::parse(&json).unwrap();
        let mut beta = doc
            .get("beta")
            .and_then(JsonValue::as_array)
            .unwrap()
            .to_vec();
        beta.pop();
        let mut cov = doc.get("cov").unwrap().clone();
        if let JsonValue::Object(pairs) = &mut cov {
            pairs[0].1 = JsonValue::UInt(3);
        }
        // A spec claiming a basis far larger than the coefficients
        // present is rejected before anything is allocated for it.
        let huge = json::parse(
            r#"[{"Spline":{"feature":0,"num_basis":1099511627776,"degree":3,"range":[0.0,1.0]}}]"#,
        )
        .unwrap();
        let cases = [
            ("huge basis", with_field(&json, "specs", Some(huge))),
            (
                "truncated beta",
                with_field(&json, "beta", Some(JsonValue::Array(beta))),
            ),
            ("wrong-length cov", with_field(&json, "cov", Some(cov))),
            ("missing summary", with_field(&json, "summary", None)),
            ("missing specs", with_field(&json, "specs", None)),
            (
                "zero penalty order",
                with_field(&json, "penalty_order", Some(JsonValue::UInt(0))),
            ),
        ];
        for (what, bad) in cases {
            match Gam::from_json(&bad) {
                Err(GamError::InvalidData(msg)) => {
                    assert!(msg.starts_with("json: "), "{what}: {msg}")
                }
                other => panic!("{what}: expected InvalidData, got {other:?}"),
            }
        }
        // Archives written before the penalty order was stored carry a
        // compiled `design` instead; they load, ignoring it.
        let legacy = with_field(&json, "penalty_order", None);
        let legacy = with_field(&legacy, "design", Some(JsonValue::Object(Vec::new())));
        let reloaded = Gam::from_json(&legacy).unwrap();
        assert_eq!(reloaded.to_json(), json);
    }

    fn mixed_spec() -> GamSpec {
        GamSpec::regression(vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::factor(1, vec![0.0, 1.0, 2.0]),
            TermSpec::tensor((0, 2), ((0.0, 1.0), (0.0, 1.0))),
        ])
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Spline + factor + tensor training set: feature 1 takes the levels
    /// 0, 1, 2.
    fn mixed_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = uniform(n, 3, seed)
            .into_iter()
            .map(|mut x| {
                x[1] = (x[1] * 3.0).floor();
                x
            })
            .collect();
        let ys = xs
            .iter()
            .map(|x| (x[0] * 5.0).sin() + 0.5 * x[1] + 2.0 * x[0] * x[2])
            .collect();
        (xs, ys)
    }

    #[test]
    fn component_stats_match_term_row_path_bitwise() {
        let (xs, ys) = mixed_data(700, 43);
        let gam = fit(&mixed_spec(), &xs, &ys).unwrap();
        // The per-instance path: one `term_row` per term per row.
        let t = gam.num_terms();
        let (mut sums, mut sq_sums) = (vec![0.0; t], vec![0.0; t]);
        for x in &xs {
            for ti in 0..t {
                let c = sparse_dot(&gam.design.term_row(ti, x), &gam.beta);
                sums[ti] += c;
                sq_sums[ti] += c * c;
            }
        }
        let n = xs.len() as f64;
        let means: Vec<f64> = sums.iter().map(|s| s / n).collect();
        let sds: Vec<f64> = sq_sums
            .iter()
            .zip(&means)
            .map(|(&sq, &m)| (sq / n - m * m).max(0.0).sqrt())
            .collect();
        assert_eq!(bits(&gam.component_means), bits(&means));
        assert_eq!(bits(&gam.component_sds), bits(&sds));
    }

    /// `Σᵢ (C⁻¹G)ᵢᵢ` from one `chol.solve` per column of `G`.
    fn edf_by_column_solves(chol: &Cholesky, g: &Matrix) -> f64 {
        let p = g.rows();
        let mut col = vec![0.0; p];
        let mut trace = 0.0;
        for j in 0..p {
            for (i, c) in col.iter_mut().enumerate() {
                *c = g[(i, j)];
            }
            chol.solve_into(&mut col).unwrap();
            trace += col[j];
        }
        trace
    }

    /// Compile the design, evaluate its rows and build the constraint
    /// exactly as `fit` does.
    fn prepare(spec: &GamSpec, xs: &[Vec<f64>]) -> (Design, DesignMatrix, Matrix) {
        let design = Design::compile(&spec.terms, spec.penalty_order).unwrap();
        let rows = DesignMatrix::build(&design, xs).unwrap();
        let constraint = constraint_penalty(&design, &rows).unwrap();
        (design, rows, constraint)
    }

    fn default_grid() -> Vec<f64> {
        match LambdaSelection::default() {
            LambdaSelection::GcvGrid(g) => g,
            LambdaSelection::Fixed(l) => vec![l],
        }
    }

    /// Check one candidate's Frobenius-product edf against the oracle and
    /// return the GCV score the oracle edf gives.
    fn check_edf(lambda: f64, cand: &Candidate, oracle: f64, n: usize) -> f64 {
        let rel = (cand.record.edf - oracle).abs() / oracle.abs();
        assert!(
            rel < 1e-9,
            "λ={lambda}: ⟨C⁻¹, G⟩ = {} vs Σ(C⁻¹G)ᵢᵢ = {oracle} (rel {rel:e})",
            cand.record.edf
        );
        gcv_score(n, cand.record.deviance, oracle)
    }

    #[test]
    fn gaussian_edf_matches_column_solve_oracle() {
        let xs = uniform(1200, 3, 51);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] * 6.0).sin() + 3.0 * (x[1] - 0.5) * (x[2] - 0.5))
            .collect();
        let spec = GamSpec::regression(vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::spline(1, (0.0, 1.0)),
            TermSpec::tensor((1, 2), ((0.0, 1.0), (0.0, 1.0))),
        ]);
        let (design, rows, constraint) = prepare(&spec, &xs);
        let ne = NormalEquations::accumulate(&rows, &ys).unwrap();
        let mut oracle_best = (f64::INFINITY, f64::NAN);
        for lambda in default_grid() {
            let cand = gaussian_candidate(&ne, &design, lambda, &constraint).unwrap();
            let chol = penalized_chol(&ne.g, &design, &constraint, lambda, ne.shifts).unwrap();
            let gcv = check_edf(lambda, &cand, edf_by_column_solves(&chol, &ne.g), ne.n);
            if gcv < oracle_best.0 {
                oracle_best = (gcv, lambda);
            }
        }
        let gam = fit(&spec, &xs, &ys).unwrap();
        assert_eq!(gam.summary().lambda, oracle_best.1);
    }

    #[test]
    fn logit_edf_matches_column_solve_oracle() {
        let xs = uniform(1200, 2, 53);
        let noise = uniform(1200, 1, 59);
        let ys: Vec<f64> = xs
            .iter()
            .zip(&noise)
            .map(|(x, e)| f64::from(x[0] + 0.4 * (x[1] * 5.0).sin() + 0.6 * e[0] > 0.8))
            .collect();
        let spec = GamSpec::classification(vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::spline(1, (0.0, 1.0)),
        ]);
        let (design, rows, constraint) = prepare(&spec, &xs);
        let mut oracle_best = (f64::INFINITY, f64::NAN);
        for lambda in default_grid() {
            let (max_iter, tol) = (spec.max_pirls_iter, spec.tol);
            let cand =
                logit_candidate(&design, &rows, &ys, lambda, max_iter, tol, &constraint).unwrap();
            let run = pirls_logit(&design, &rows, &ys, lambda, max_iter, tol, &constraint).unwrap();
            let oracle = edf_by_column_solves(&run.chol, &run.weighted_gram);
            let gcv = check_edf(lambda, &cand, oracle, rows.rows());
            if gcv < oracle_best.0 {
                oracle_best = (gcv, lambda);
            }
        }
        let gam = fit(&spec, &xs, &ys).unwrap();
        assert_eq!(gam.summary().lambda, oracle_best.1);
    }

    /// The spline, factor, cubic- and degree-2-tensor spec on seeded data
    /// with a polynomial response and a literal λ grid, so the fit uses
    /// only correctly rounded arithmetic and digests alike everywhere.
    #[test]
    fn gaussian_fit_digest_is_pinned() {
        let xs: Vec<Vec<f64>> = uniform(600, 3, 97)
            .into_iter()
            .map(|mut x| {
                x[1] = (x[1] * 3.0).floor();
                x
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x[0] * x[0] - 0.5 * x[1] + 2.0 * x[0] * x[2] - x[2])
            .collect();
        let spec = GamSpec {
            lambda: LambdaSelection::GcvGrid(vec![1e-3, 1e-2, 1e-1, 1.0, 10.0]),
            ..GamSpec::regression(vec![
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::factor(1, vec![0.0, 1.0, 2.0]),
                TermSpec::tensor((0, 2), ((0.0, 1.0), (0.0, 1.0))),
                TermSpec::Tensor {
                    features: (2, 0),
                    num_basis: (6, 5),
                    ranges: ((0.0, 1.0), (0.0, 1.0)),
                    degree: 2,
                },
            ])
        };
        let gam = fit(&spec, &xs, &ys).unwrap();
        assert_eq!(gam.content_digest(), 0x72f6_b3da_ed7a_74dc);
    }

    /// The coded fit is the row fit: on rows given as domain codes,
    /// `fit_coded` and `predict_batch_coded` give the GAM (same content
    /// digest) and the predictions that `fit` and `predict_batch` give
    /// on the rows the codes stand for, on both links, at 1 and 4
    /// threads. The terms are the pipeline's: anchored splines and
    /// tensors on the sampling domains, and a factor.
    #[test]
    fn coded_fit_matches_row_fit() {
        let domains: Vec<Vec<f64>> = vec![
            (0..40).map(|k| k as f64 / 39.0).collect(),
            vec![0.0, 1.0, 2.0],
            (0..25).map(|k| (k as f64 / 24.0).powi(2)).collect(),
        ];
        let mut rng = gef_trace::rng::Rng::seed(61);
        let codes: Vec<u16> = (0..900)
            .flat_map(|_| {
                domains
                    .iter()
                    .map(|dom| rng.below(dom.len() as u64) as u16)
                    .collect::<Vec<_>>()
            })
            .collect();
        let xs: Vec<Vec<f64>> = codes
            .chunks_exact(3)
            .map(|row| {
                row.iter()
                    .zip(&domains)
                    .map(|(&k, dom)| dom[usize::from(k)])
                    .collect()
            })
            .collect();
        let coded = CodedRows {
            codes: &codes,
            domains: &domains,
        };
        let eta: Vec<f64> = xs
            .iter()
            .map(|x| (4.0 * x[0]).sin() + 0.5 * x[1] - 2.0 * x[0] * x[2])
            .collect();
        let terms = vec![
            TermSpec::SplineAnchored {
                feature: 0,
                num_basis: 10,
                degree: 3,
                anchors: domains[0].clone(),
            },
            TermSpec::factor(1, domains[1].clone()),
            TermSpec::TensorAnchored {
                features: (0, 2),
                num_basis: (5, 5),
                anchors: (domains[0].clone(), domains[2].clone()),
                degree: 3,
            },
        ];
        for link in [Link::Identity, Link::Logit] {
            let ys: Vec<f64> = eta.iter().map(|&e| link.inverse(e)).collect();
            let spec = GamSpec {
                terms: terms.clone(),
                link,
                ..GamSpec::regression(Vec::new())
            };
            let want = fit(&spec, &xs, &ys).unwrap();
            let want_preds = bits(&want.predict_batch(&xs).unwrap());
            for threads in [1, 4] {
                gef_par::set_threads(threads);
                let got = fit_coded(&spec, coded, &ys).unwrap();
                let preds = got.predict_batch_coded(coded).unwrap();
                gef_par::set_threads(1);
                assert_eq!(
                    got.content_digest(),
                    want.content_digest(),
                    "{link:?} at {threads} threads"
                );
                assert_eq!(bits(&preds), want_preds, "{link:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let spec = GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))]);
        assert!(fit(&spec, &[], &[]).is_err());
        assert!(fit(&spec, &[vec![0.1]], &[1.0, 2.0]).is_err());
        // Term references out-of-range feature.
        let spec2 = GamSpec::regression(vec![TermSpec::spline(3, (0.0, 1.0))]);
        let xs = uniform(100, 1, 31);
        let ys = vec![0.0; 100];
        assert!(fit(&spec2, &xs, &ys).is_err());
        // Logit with out-of-range responses.
        let spec3 = GamSpec::classification(vec![TermSpec::spline(0, (0.0, 1.0))]);
        assert!(fit(&spec3, &xs, &vec![2.0; 100]).is_err());
        // NaN responses.
        assert!(fit(&spec, &xs, &vec![f64::NAN; 100]).is_err());
        // Empty λ grid.
        let spec4 = GamSpec {
            lambda: LambdaSelection::GcvGrid(vec![]),
            ..GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))])
        };
        assert!(fit(&spec4, &xs, &ys).is_err());
        // A row shorter than the terms need, after full ones, is named
        // by both the fit and batch prediction.
        let spec5 = GamSpec::regression(vec![TermSpec::spline(1, (0.0, 1.0))]);
        let mut ragged = uniform(100, 2, 37);
        let gam = fit(&spec5, &ragged, &ys).unwrap();
        ragged[57].truncate(1);
        for got in [
            fit(&spec5, &ragged, &ys).map(|_| ()),
            gam.predict_batch(&ragged).map(|_| ()),
        ] {
            match got {
                Err(GamError::InvalidData(msg)) => assert!(msg.starts_with("row 57 "), "{msg}"),
                other => panic!("expected InvalidData, got {other:?}"),
            }
        }
    }

    /// Every ordering of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for at in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(at, n - 1);
                out.push(p);
            }
        }
        out
    }

    /// The GCV grid's best slot ends on the candidate the serial scan
    /// picks (grid order, non-finite skipped, replaced only on a strict
    /// `<`) whatever order the candidates finish in: seeded score
    /// vectors with ties, ±0, NaN, ±inf and failed entries, each in
    /// every arrival order.
    #[test]
    fn best_slot_matches_the_serial_rule_in_every_arrival_order() {
        let pool = [
            0.5,
            0.5,
            1.0,
            -0.0,
            0.0,
            2.0,
            1e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for case in 0..300u64 {
            let mut rng = gef_trace::rng::Rng::seed(case);
            let n = 1 + rng.below(6) as usize;
            // `None` is a candidate whose linear algebra failed.
            let scores: Vec<Option<f64>> = (0..n)
                .map(|_| pool.get(rng.below(pool.len() as u64 + 1) as usize).copied())
                .collect();
            let mut serial: Option<(usize, f64)> = None;
            for (i, g) in scores.iter().enumerate() {
                if let Some(g) = *g {
                    if g.is_finite() && serial.is_none_or(|(_, held)| g < held) {
                        serial = Some((i, g));
                    }
                }
            }
            for order in permutations(n) {
                let mut slot: Option<(f64, usize)> = None;
                for &i in &order {
                    if let Some(g) = scores[i] {
                        if beats(g, i, slot) {
                            slot = Some((g, i));
                        }
                    }
                }
                assert_eq!(
                    slot.map(|(_, i)| i),
                    serial.map(|(i, _)| i),
                    "case {case}: scores {scores:?}, arrival order {order:?}"
                );
            }
        }
    }
}
