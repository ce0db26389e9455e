//! GAM term types: univariate P-splines, categorical factors, and
//! bivariate tensor-product smooths.
//!
//! These mirror the paper's Sec. 3.5 modelling choices: "third-order
//! spline terms with a fixed number of p-spline basis for each
//! continuous feature in F′, factor terms for each categorical variable
//! in F′, and penalized tensor products for each variable in F″".

use crate::bspline::BSplineBasis;
use crate::penalty::{difference_penalty, ridge_penalty, tensor_penalty};
use crate::GamError;
use gef_linalg::Matrix;
use gef_trace::json::{JsonValue, JsonWriter, ReadJson, WriteJson};

/// Default number of basis functions for a univariate spline term.
pub const DEFAULT_SPLINE_BASIS: usize = 20;
/// Default number of basis functions per margin of a tensor term.
pub const DEFAULT_TENSOR_BASIS: usize = 8;
/// Default spline degree (cubic, third-order as in the paper).
pub const DEFAULT_DEGREE: usize = 3;

/// Specification of one additive term.
#[derive(Debug, Clone, PartialEq)]
pub enum TermSpec {
    /// Penalized cubic spline on one continuous feature.
    Spline {
        /// Feature index into the instance vector.
        feature: usize,
        /// Number of B-spline basis functions.
        num_basis: usize,
        /// Polynomial degree.
        degree: usize,
        /// Domain `(lo, hi)` over which knots are placed.
        range: (f64, f64),
    },
    /// One-hot factor term for a categorical feature (ridge-penalized).
    Factor {
        /// Feature index into the instance vector.
        feature: usize,
        /// Sorted distinct levels; an input is matched to its nearest
        /// level.
        levels: Vec<f64>,
    },
    /// Penalized tensor-product smooth on a feature pair.
    Tensor {
        /// The two feature indices.
        features: (usize, usize),
        /// Basis sizes per margin.
        num_basis: (usize, usize),
        /// Domains per margin.
        ranges: ((f64, f64), (f64, f64)),
        /// Marginal spline degree.
        degree: usize,
    },
    /// Penalized cubic spline with knots placed at quantiles of the
    /// given (sorted) anchor values — robust for skewed domains, where
    /// uniform knots would leave long spans without training support.
    SplineAnchored {
        /// Feature index into the instance vector.
        feature: usize,
        /// Number of B-spline basis functions.
        num_basis: usize,
        /// Polynomial degree.
        degree: usize,
        /// Sorted anchor values (e.g. the feature's sampling domain).
        anchors: Vec<f64>,
    },
    /// Tensor-product smooth with anchored marginal knots.
    TensorAnchored {
        /// The two feature indices.
        features: (usize, usize),
        /// Basis sizes per margin.
        num_basis: (usize, usize),
        /// Sorted anchors per margin.
        anchors: (Vec<f64>, Vec<f64>),
        /// Marginal spline degree.
        degree: usize,
    },
}

impl TermSpec {
    /// Convenience constructor: cubic spline with default basis size.
    pub fn spline(feature: usize, range: (f64, f64)) -> Self {
        TermSpec::Spline {
            feature,
            num_basis: DEFAULT_SPLINE_BASIS,
            degree: DEFAULT_DEGREE,
            range,
        }
    }

    /// Convenience constructor: factor term.
    pub fn factor(feature: usize, levels: Vec<f64>) -> Self {
        TermSpec::Factor { feature, levels }
    }

    /// Convenience constructor: tensor smooth with default marginal
    /// basis sizes.
    pub fn tensor(features: (usize, usize), ranges: ((f64, f64), (f64, f64))) -> Self {
        TermSpec::Tensor {
            features,
            num_basis: (DEFAULT_TENSOR_BASIS, DEFAULT_TENSOR_BASIS),
            ranges,
            degree: DEFAULT_DEGREE,
        }
    }

    /// Features referenced by this term.
    pub fn features(&self) -> Vec<usize> {
        match self {
            TermSpec::Spline { feature, .. }
            | TermSpec::SplineAnchored { feature, .. }
            | TermSpec::Factor { feature, .. } => vec![*feature],
            TermSpec::Tensor { features, .. } | TermSpec::TensorAnchored { features, .. } => {
                vec![features.0, features.1]
            }
        }
    }

    /// A short human-readable label, e.g. `s(3)` or `te(1,4)`.
    pub fn label(&self) -> String {
        match self {
            TermSpec::Spline { feature, .. } | TermSpec::SplineAnchored { feature, .. } => {
                format!("s({feature})")
            }
            TermSpec::Factor { feature, .. } => format!("f({feature})"),
            TermSpec::Tensor { features, .. } | TermSpec::TensorAnchored { features, .. } => {
                format!("te({},{})", features.0, features.1)
            }
        }
    }
}

/// Externally tagged, e.g. `{"Spline": {"feature": 0, "num_basis": 20,
/// "degree": 3, "range": [0.0, 1.0]}}`.
impl WriteJson for TermSpec {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            TermSpec::Spline {
                feature,
                num_basis,
                degree,
                range,
            } => {
                w.begin_variant("Spline");
                w.field("feature", feature);
                w.field("num_basis", num_basis);
                w.field("degree", degree);
                w.field("range", range);
            }
            TermSpec::Factor { feature, levels } => {
                w.begin_variant("Factor");
                w.field("feature", feature);
                w.field("levels", levels);
            }
            TermSpec::Tensor {
                features,
                num_basis,
                ranges,
                degree,
            } => {
                w.begin_variant("Tensor");
                w.field("features", features);
                w.field("num_basis", num_basis);
                w.field("ranges", ranges);
                w.field("degree", degree);
            }
            TermSpec::SplineAnchored {
                feature,
                num_basis,
                degree,
                anchors,
            } => {
                w.begin_variant("SplineAnchored");
                w.field("feature", feature);
                w.field("num_basis", num_basis);
                w.field("degree", degree);
                w.field("anchors", anchors);
            }
            TermSpec::TensorAnchored {
                features,
                num_basis,
                anchors,
                degree,
            } => {
                w.begin_variant("TensorAnchored");
                w.field("features", features);
                w.field("num_basis", num_basis);
                w.field("anchors", anchors);
                w.field("degree", degree);
            }
        }
        w.end_variant();
    }
}

impl ReadJson for TermSpec {
    fn read_json(v: &JsonValue) -> Result<TermSpec, String> {
        let (tag, b) = v.variant()?;
        Ok(match tag {
            "Spline" => TermSpec::Spline {
                feature: b.req("feature")?,
                num_basis: b.req("num_basis")?,
                degree: b.req("degree")?,
                range: b.req("range")?,
            },
            "Factor" => TermSpec::Factor {
                feature: b.req("feature")?,
                levels: b.req("levels")?,
            },
            "Tensor" => TermSpec::Tensor {
                features: b.req("features")?,
                num_basis: b.req("num_basis")?,
                ranges: b.req("ranges")?,
                degree: b.req("degree")?,
            },
            "SplineAnchored" => TermSpec::SplineAnchored {
                feature: b.req("feature")?,
                num_basis: b.req("num_basis")?,
                degree: b.req("degree")?,
                anchors: b.req("anchors")?,
            },
            "TensorAnchored" => TermSpec::TensorAnchored {
                features: b.req("features")?,
                num_basis: b.req("num_basis")?,
                anchors: b.req("anchors")?,
                degree: b.req("degree")?,
            },
            other => return Err(format!("unknown term kind `{other}`")),
        })
    }
}

/// A term compiled into its basis/penalty machinery.
#[derive(Debug, Clone)]
pub(crate) enum BuiltTerm {
    Spline {
        feature: usize,
        basis: BSplineBasis,
    },
    Factor {
        feature: usize,
        levels: Vec<f64>,
    },
    Tensor {
        features: (usize, usize),
        basis_a: BSplineBasis,
        basis_b: BSplineBasis,
    },
}

impl BuiltTerm {
    pub(crate) fn build(spec: &TermSpec) -> Result<Self, GamError> {
        match spec {
            TermSpec::Spline {
                feature,
                num_basis,
                degree,
                range,
            } => Ok(BuiltTerm::Spline {
                feature: *feature,
                basis: BSplineBasis::new(*num_basis, *degree, range.0, range.1)?,
            }),
            TermSpec::Factor { feature, levels } => {
                if levels.is_empty() {
                    return Err(GamError::InvalidSpec(format!(
                        "factor term on feature {feature} has no levels"
                    )));
                }
                let mut sorted = levels.clone();
                sorted.sort_by(f64::total_cmp);
                sorted.dedup();
                Ok(BuiltTerm::Factor {
                    feature: *feature,
                    levels: sorted,
                })
            }
            TermSpec::Tensor {
                features,
                num_basis,
                ranges,
                degree,
            } => Ok(BuiltTerm::Tensor {
                features: *features,
                basis_a: BSplineBasis::new(num_basis.0, *degree, ranges.0 .0, ranges.0 .1)?,
                basis_b: BSplineBasis::new(num_basis.1, *degree, ranges.1 .0, ranges.1 .1)?,
            }),
            TermSpec::SplineAnchored {
                feature,
                num_basis,
                degree,
                anchors,
            } => Ok(BuiltTerm::Spline {
                feature: *feature,
                basis: BSplineBasis::from_anchors(*num_basis, *degree, anchors)?,
            }),
            TermSpec::TensorAnchored {
                features,
                num_basis,
                anchors,
                degree,
            } => Ok(BuiltTerm::Tensor {
                features: *features,
                basis_a: BSplineBasis::from_anchors(num_basis.0, *degree, &anchors.0)?,
                basis_b: BSplineBasis::from_anchors(num_basis.1, *degree, &anchors.1)?,
            }),
        }
    }

    /// Number of coefficient columns contributed by the term.
    pub(crate) fn num_cols(&self) -> usize {
        match self {
            BuiltTerm::Spline { basis, .. } => basis.num_basis(),
            BuiltTerm::Factor { levels, .. } => levels.len(),
            BuiltTerm::Tensor {
                basis_a, basis_b, ..
            } => basis_a.num_basis() * basis_b.num_basis(),
        }
    }

    /// Shape of the term's non-zero entries in one row, `(runs,
    /// run_len)`: runs of `run_len` contiguous columns. A spline is one
    /// run of `degree + 1`, a factor one run of 1, and a tensor one run
    /// of `db + 1` per non-zero first-margin basis function (`da + 1`
    /// runs).
    pub(crate) fn run_shape(&self) -> (usize, usize) {
        match self {
            BuiltTerm::Spline { basis, .. } => (1, basis.degree() + 1),
            BuiltTerm::Factor { .. } => (1, 1),
            BuiltTerm::Tensor {
                basis_a, basis_b, ..
            } => (basis_a.degree() + 1, basis_b.degree() + 1),
        }
    }

    /// Length of the scratch [`BuiltTerm::fill_runs`] needs: a tensor's
    /// two margins' values.
    pub(crate) fn scratch_len(&self) -> usize {
        match self {
            BuiltTerm::Tensor {
                basis_a, basis_b, ..
            } => basis_a.degree() + basis_b.degree() + 2,
            BuiltTerm::Spline { .. } | BuiltTerm::Factor { .. } => 0,
        }
    }

    /// Evaluate the term at instance `x` without allocating: each run's
    /// first column, relative to the term's first column, goes to
    /// `firsts` and its values to `vals`, run after run (the lengths
    /// [`BuiltTerm::run_shape`] gives). `scratch` is
    /// [`BuiltTerm::scratch_len`] long. Columns fit in `u32`: the
    /// design rejects wider terms when it compiles.
    pub(crate) fn fill_runs(
        &self,
        x: &[f64],
        firsts: &mut [u32],
        vals: &mut [f64],
        scratch: &mut [f64],
    ) {
        match self {
            BuiltTerm::Spline { feature, basis } => {
                firsts[0] = basis.eval_into(x[*feature], vals) as u32;
            }
            BuiltTerm::Factor { feature, levels } => {
                firsts[0] = nearest_level(levels, x[*feature]) as u32;
                vals[0] = 1.0;
            }
            BuiltTerm::Tensor {
                features,
                basis_a,
                basis_b,
            } => {
                let (a, b) = scratch.split_at_mut(basis_a.degree() + 1);
                let fa = basis_a.eval_into(x[features.0], a);
                let fb = basis_b.eval_into(x[features.1], b);
                tensor_runs((fa, a), (fb, b), basis_b.num_basis(), firsts, vals);
            }
        }
    }

    /// The term's runs at every value of its features' domains, for
    /// rows given as domain codes (see [`TermTable`]). `domains` holds
    /// one domain per feature; an empty one stands for the constant 0.0
    /// at code 0.
    pub(crate) fn table(&self, domains: &[Vec<f64>]) -> TermTable {
        let values = |f: usize| -> &[f64] {
            match domains[f].as_slice() {
                [] => &[0.0],
                dom => dom,
            }
        };
        match self {
            BuiltTerm::Spline { feature, .. } | BuiltTerm::Factor { feature, .. } => {
                let mut x = vec![0.0; feature + 1];
                let mut first = [0];
                let table = PerValue::new(values(*feature), self.run_shape().1, |v, vals| {
                    x[*feature] = v;
                    self.fill_runs(&x, &mut first, vals, &mut []);
                    first[0]
                });
                TermTable::Run {
                    feature: *feature,
                    table,
                }
            }
            BuiltTerm::Tensor {
                features,
                basis_a,
                basis_b,
            } => {
                let margin = |basis: &BSplineBasis, f: usize| {
                    PerValue::new(values(f), basis.degree() + 1, |v, vals| {
                        basis.eval_into(v, vals) as u32
                    })
                };
                TermTable::Tensor {
                    features: *features,
                    a: margin(basis_a, features.0),
                    b: margin(basis_b, features.1),
                    kb: basis_b.num_basis(),
                }
            }
        }
    }

    /// Append this term's non-zero design entries for instance `x`, as
    /// sorted `(column, value)` pairs with columns shifted by `offset`.
    pub(crate) fn fill_row(&self, x: &[f64], offset: usize, out: &mut Vec<(usize, f64)>) {
        let (runs, len) = self.run_shape();
        let mut firsts = vec![0u32; runs];
        let mut vals = vec![0.0; runs * len];
        let mut scratch = vec![0.0; self.scratch_len()];
        self.fill_runs(x, &mut firsts, &mut vals, &mut scratch);
        for (&first, run) in firsts.iter().zip(vals.chunks_exact(len)) {
            let first = offset + first as usize;
            out.extend(run.iter().enumerate().map(|(j, &v)| (first + j, v)));
        }
    }

    /// The term's penalty block (square, `num_cols` wide).
    pub(crate) fn penalty(&self, order: usize) -> Matrix {
        match self {
            BuiltTerm::Spline { basis, .. } => difference_penalty(basis.num_basis(), order),
            BuiltTerm::Factor { levels, .. } => ridge_penalty(levels.len()),
            BuiltTerm::Tensor {
                basis_a, basis_b, ..
            } => {
                let pa = difference_penalty(basis_a.num_basis(), order);
                let pb = difference_penalty(basis_b.num_basis(), order);
                tensor_penalty(&pa, &pb)
            }
        }
    }
}

/// A tensor's runs from its two margins' non-zero basis values at one
/// point, `(first, values)` each: run `i` holds `a_i·b_j` over `j`, and
/// starts at column `(first_a + i)·kb + first_b`, `kb` being the second
/// margin's basis size.
fn tensor_runs(
    (fa, a): (usize, &[f64]),
    (fb, b): (usize, &[f64]),
    kb: usize,
    firsts: &mut [u32],
    vals: &mut [f64],
) {
    for (i, (run, &ai)) in vals.chunks_exact_mut(b.len()).zip(a).enumerate() {
        for (v, &bj) in run.iter_mut().zip(b) {
            *v = ai * bj;
        }
        firsts[i] = ((fa + i) * kb + fb) as u32;
    }
}

/// A term's runs at every value of its features' sampling domains,
/// evaluated once by [`BuiltTerm::table`], for rows given as domain
/// codes. A row's runs are then bit-equal to [`BuiltTerm::fill_runs`]
/// at the values its codes stand for.
#[derive(Debug)]
pub(crate) enum TermTable {
    /// A spline or a factor (one run a row): [`BuiltTerm::fill_runs`]
    /// at each value of the feature's domain.
    Run { feature: usize, table: PerValue },
    /// A tensor: each margin's basis at each value of its feature's
    /// domain; a row multiplies its two margins as
    /// [`BuiltTerm::fill_runs`] does.
    Tensor {
        features: (usize, usize),
        a: PerValue,
        b: PerValue,
        kb: usize,
    },
}

impl TermTable {
    /// Fill the term's runs of one row, whose feature `f` has code
    /// `code(f)`. A code must be below its domain's length (1 for an
    /// empty domain).
    #[inline]
    pub(crate) fn fill(&self, code: impl Fn(usize) -> usize, firsts: &mut [u32], vals: &mut [f64]) {
        match self {
            TermTable::Run { feature, table } => {
                let (first, run) = table.at(code(*feature));
                firsts[0] = first as u32;
                vals.copy_from_slice(run);
            }
            TermTable::Tensor { features, a, b, kb } => {
                let a = a.at(code(features.0));
                let b = b.at(code(features.1));
                tensor_runs(a, b, *kb, firsts, vals);
            }
        }
    }

    /// The features whose codes the term reads, each with the number
    /// of codes its domain holds.
    pub(crate) fn domain_sizes(&self) -> Vec<(usize, usize)> {
        match self {
            TermTable::Run { feature, table } => vec![(*feature, table.firsts.len())],
            TermTable::Tensor { features, a, b, .. } => {
                vec![(features.0, a.firsts.len()), (features.1, b.firsts.len())]
            }
        }
    }
}

/// One run evaluated at every value of a domain: value `k`'s first
/// column and its `len` values.
#[derive(Debug)]
pub(crate) struct PerValue {
    firsts: Vec<u32>,
    vals: Vec<f64>,
    len: usize,
}

impl PerValue {
    /// `eval(v, vals)`, which returns the first column, at every value
    /// `v` of `dom`.
    fn new(dom: &[f64], len: usize, mut eval: impl FnMut(f64, &mut [f64]) -> u32) -> PerValue {
        let mut vals = vec![0.0; dom.len() * len];
        let firsts = dom
            .iter()
            .zip(vals.chunks_exact_mut(len))
            .map(|(&v, run)| eval(v, run))
            .collect();
        PerValue { firsts, vals, len }
    }

    #[inline]
    fn at(&self, k: usize) -> (usize, &[f64]) {
        let run = &self.vals[k * self.len..(k + 1) * self.len];
        (self.firsts[k] as usize, run)
    }
}

/// Index of the level nearest to `v` (ties break to the lower level).
pub(crate) fn nearest_level(levels: &[f64], v: f64) -> usize {
    debug_assert!(!levels.is_empty());
    match levels.binary_search_by(|l| l.total_cmp(&v)) {
        Ok(i) => i,
        Err(0) => 0,
        Err(i) if i == levels.len() => levels.len() - 1,
        Err(i) => {
            if (v - levels[i - 1]) <= (levels[i] - v) {
                i - 1
            } else {
                i
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spline_row_has_degree_plus_one_entries() {
        let t = BuiltTerm::build(&TermSpec::spline(0, (0.0, 1.0))).unwrap();
        let mut row = Vec::new();
        t.fill_row(&[0.35], 5, &mut row);
        assert_eq!(row.len(), 4);
        assert!(row.iter().all(|&(c, _)| (5..25).contains(&c)));
        let s: f64 = row.iter().map(|&(_, v)| v).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factor_row_is_one_hot_nearest() {
        let t = BuiltTerm::build(&TermSpec::factor(1, vec![0.0, 1.0, 2.0])).unwrap();
        let mut row = Vec::new();
        t.fill_row(&[9.9, 1.2], 0, &mut row);
        assert_eq!(row, vec![(1, 1.0)]);
        row.clear();
        t.fill_row(&[0.0, 5.0], 0, &mut row);
        assert_eq!(row, vec![(2, 1.0)]);
        row.clear();
        t.fill_row(&[0.0, -3.0], 0, &mut row);
        assert_eq!(row, vec![(0, 1.0)]);
    }

    #[test]
    fn tensor_row_is_outer_product() {
        let spec = TermSpec::Tensor {
            features: (0, 1),
            num_basis: (6, 5),
            ranges: ((0.0, 1.0), (0.0, 1.0)),
            degree: 2,
        };
        let t = BuiltTerm::build(&spec).unwrap();
        assert_eq!(t.num_cols(), 30);
        let mut row = Vec::new();
        t.fill_row(&[0.4, 0.7], 0, &mut row);
        assert_eq!(row.len(), 9); // (degree+1)^2
        let s: f64 = row.iter().map(|&(_, v)| v).sum();
        assert!((s - 1.0).abs() < 1e-12); // product of two partitions of unity
    }

    #[test]
    fn nearest_level_tie_breaks_low() {
        let levels = [0.0, 1.0];
        assert_eq!(nearest_level(&levels, 0.5), 0);
        assert_eq!(nearest_level(&levels, 0.51), 1);
        assert_eq!(nearest_level(&levels, 1.0), 1);
    }

    #[test]
    fn factor_levels_sorted_and_deduped() {
        let t = BuiltTerm::build(&TermSpec::factor(0, vec![2.0, 0.0, 2.0, 1.0])).unwrap();
        assert_eq!(t.num_cols(), 3);
    }

    #[test]
    fn rejects_empty_factor() {
        assert!(BuiltTerm::build(&TermSpec::factor(0, vec![])).is_err());
    }

    #[test]
    fn labels_and_features() {
        assert_eq!(TermSpec::spline(3, (0.0, 1.0)).label(), "s(3)");
        assert_eq!(TermSpec::factor(2, vec![0.0]).label(), "f(2)");
        let te = TermSpec::tensor((1, 4), ((0.0, 1.0), (0.0, 1.0)));
        assert_eq!(te.label(), "te(1,4)");
        assert_eq!(te.features(), vec![1, 4]);
    }

    #[test]
    fn penalty_dimensions_match_cols() {
        for spec in [
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::factor(0, vec![0.0, 1.0, 2.0]),
            TermSpec::tensor((0, 1), ((0.0, 1.0), (0.0, 1.0))),
        ] {
            let t = BuiltTerm::build(&spec).unwrap();
            let p = t.penalty(2);
            assert_eq!(p.rows(), t.num_cols());
            assert_eq!(p.cols(), t.num_cols());
        }
    }
}
