//! Synthetic dataset generation (paper Sec. 3.3, *Random Sampling*).
//!
//! An instance of `D*` is built by drawing, independently for every
//! feature, one value uniformly at random from that feature's sampling
//! domain, then querying the forest for the label. Features outside
//! `F'` still need values for the forest query; they are sampled from
//! their own *All-Thresholds* domains so the surrogate marginalizes
//! over them instead of conditioning on an arbitrary constant (features
//! the forest never splits on are fixed at 0 — the forest is constant
//! in them by construction).

use crate::sampling::SamplingStrategy;
use crate::selection::ForestProfile;
use crate::{GefError, Result};
use gef_forest::{Forest, LabelScale};
use gef_gam::{CodedRows, Gam, GamSpec};
use gef_trace::rng::Rng;
use std::ops::Range;

/// The synthetic dataset `D*` with its rows materialized as feature
/// values, as [`crate::GefExplainer::explain_with_data`] returns it.
/// The pipeline itself keeps `D*` as a [`CodedDataset`].
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// Sampled instances (full feature width of the forest).
    pub xs: Vec<Vec<f64>>,
    /// Forest labels (response scale: raw for regression, probability
    /// for classification — see [`generate`]'s `raw_labels` flag).
    pub ys: Vec<f64>,
    /// Per-feature sampling domains (empty for unused features).
    pub domains: Vec<Vec<f64>>,
}

/// [`SyntheticDataset::train_rows`] for `len` rows.
fn train_rows(len: usize, train_fraction: f64) -> usize {
    ((len as f64 * train_fraction).round() as usize).clamp(1, len.saturating_sub(1).max(1))
}

impl SyntheticDataset {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Rows in the train part of a split at `train_fraction`: the first
    /// `round(len · train_fraction)` rows, leaving at least one row on
    /// each side when there are two.
    pub fn train_rows(&self, train_fraction: f64) -> usize {
        train_rows(self.len(), train_fraction)
    }

    /// Split into train/test parts (no shuffle needed: rows are i.i.d.
    /// by construction).
    pub fn split(&self, train_fraction: f64) -> (SyntheticDataset, SyntheticDataset) {
        assert!(train_fraction > 0.0 && train_fraction < 1.0);
        let cut = self.train_rows(train_fraction);
        let mk = |xs: &[Vec<f64>], ys: &[f64]| SyntheticDataset {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            domains: self.domains.clone(),
        };
        (
            mk(&self.xs[..cut], &self.ys[..cut]),
            mk(&self.xs[cut..], &self.ys[cut..]),
        )
    }
}

/// `D*`'s cells as domain codes, row-major: `u16` when every domain
/// has at most 65,536 values, else `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Codes {
    /// Two bytes a cell.
    U16(Vec<u16>),
    /// Four bytes a cell, for a `D*` whose widest domain does not fit
    /// a `u16` code.
    U32(Vec<u32>),
}

/// Most values a domain may hold for `D*` to take `u16` codes.
const MAX_U16_DOMAIN: usize = 1 << 16;

/// Bind `$c` to the codes as a slice (or vector) of their own width
/// and evaluate `$body`, which is generic over that width.
macro_rules! with_codes {
    ($codes:expr, $c:ident => $body:expr) => {
        match $codes {
            Codes::U16($c) => $body,
            Codes::U32($c) => $body,
        }
    };
}

/// The synthetic dataset `D*` as the pipeline keeps it: every cell is
/// one value of its feature's sampling domain, so a cell is stored as
/// that value's index in the domain (its *domain code*), with the
/// forest's labels and the domains themselves. Only the rows a consumer
/// needs as feature values are materialized ([`CodedDataset::rows`]).
#[derive(Debug, Clone)]
pub struct CodedDataset {
    /// Row-major, `len() × domains.len()` codes. An empty domain
    /// stands for the constant 0.0 at code 0.
    pub(crate) codes: Codes,
    /// Forest labels, one per row.
    pub(crate) ys: Vec<f64>,
    /// Per-feature sampling domains (empty for unused features).
    pub(crate) domains: Vec<Vec<f64>>,
}

impl CodedDataset {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// The domain codes, row-major.
    pub fn codes(&self) -> &Codes {
        &self.codes
    }

    /// The forest labels (see [`generate`]'s `raw_labels` flag).
    pub fn labels(&self) -> &[f64] {
        &self.ys
    }

    /// Rows `range`, materialized as feature values.
    ///
    /// # Panics
    /// If `range` reaches past the last row.
    pub fn rows(&self, range: Range<usize>) -> Vec<Vec<f64>> {
        let d = self.domains.len();
        with_codes!(&self.codes, c => {
            range
                .map(|r| {
                    c[r * d..(r + 1) * d]
                        .iter()
                        .zip(&self.domains)
                        .map(|(&k, dom)| dom.get(k as usize).copied().unwrap_or(0.0))
                        .collect()
                })
                .collect()
        })
    }

    /// Every row materialized as feature values, with the labels and
    /// domains.
    pub(crate) fn into_rows(self) -> SyntheticDataset {
        SyntheticDataset {
            xs: self.rows(0..self.len()),
            ys: self.ys,
            domains: self.domains,
        }
    }

    /// Rows in the train part of a split at `train_fraction`: the first
    /// `round(len · train_fraction)` rows, leaving at least one row on
    /// each side when there are two. The explain pipeline fits on the
    /// rows before this cut and scores fidelity on the rest.
    pub(crate) fn train_rows(&self, train_fraction: f64) -> usize {
        train_rows(self.len(), train_fraction)
    }

    /// Remove every row whose label is NaN or infinite (a forest fed a
    /// hostile model file, or an injected prediction fault, can produce
    /// them), codes and label together. Returns the number of rows
    /// removed.
    pub(crate) fn scrub_non_finite_labels(&mut self) -> usize {
        let before = self.ys.len();
        if self.ys.iter().all(|y| y.is_finite()) {
            return 0;
        }
        let d = self.domains.len();
        with_codes!(&mut self.codes, c => {
            let mut kept = 0;
            for r in 0..before {
                if self.ys[r].is_finite() {
                    c.copy_within(r * d..(r + 1) * d, kept * d);
                    kept += 1;
                }
            }
            c.truncate(kept * d);
        });
        self.ys.retain(|y| y.is_finite());
        before - self.ys.len()
    }

    /// Fit `spec` on rows `range`, read as codes.
    pub(crate) fn fit_gam(&self, spec: &GamSpec, range: Range<usize>) -> gef_gam::Result<Gam> {
        let d = self.domains.len();
        let ys = &self.ys[range.clone()];
        with_codes!(&self.codes, c => {
            let rows = CodedRows {
                codes: &c[range.start * d..range.end * d],
                domains: &self.domains,
            };
            gef_gam::fit_coded(spec, rows, ys)
        })
    }

    /// `gam`'s predictions on rows `range`, read as codes.
    pub(crate) fn predict_gam(&self, gam: &Gam, range: Range<usize>) -> gef_gam::Result<Vec<f64>> {
        let d = self.domains.len();
        with_codes!(&self.codes, c => {
            gam.predict_batch_coded(CodedRows {
                codes: &c[range.start * d..range.end * d],
                domains: &self.domains,
            })
        })
    }
}

/// Build the per-feature sampling domains: `strategy` for the selected
/// features, All-Thresholds for the other features the forest uses.
///
/// Features are independent, so construction fans out on the gef-par
/// pool; results return in feature order regardless of thread count.
pub fn build_domains(
    profile: &ForestProfile,
    selected: &[usize],
    strategy: SamplingStrategy,
) -> Result<Vec<Vec<f64>>> {
    let domains = gef_par::map(
        profile.num_features,
        gef_par::Options::coarse().with_label("pipeline.sampling_domains"),
        |f| {
            if selected.contains(&f) {
                // The multiset carries the split-density signal the
                // budgeted strategies rely on.
                strategy.domain(profile.threshold_multiset(f))
            } else {
                SamplingStrategy::AllThresholds.domain(profile.thresholds(f))
            }
        },
    )?;
    Ok(domains)
}

/// Rows sampled and labelled together: a block's codes are labelled
/// while they are still in cache, and the hard deadline is checked
/// between blocks. A constant, so blocks are a pure function of `n`.
const BLOCK_ROWS: usize = 4096;

/// Generate `n` labelled instances from the given domains, one per
/// feature of `forest`.
///
/// `raw_labels` chooses the label scale: `true` queries the forest's
/// raw margin (log-odds for classification — what a logit-link GAM
/// should be fitted on is the *probability*, so the pipeline uses
/// `false` there), `false` the response scale.
///
/// Every cell is one draw `rng.below(|dom_f|)` into its feature's
/// domain, row by row, and the drawn index is stored as the cell's
/// *domain code* (`u16`, or `u32` when a domain has more than 65,536
/// values). 4,096 rows at a time are drawn, then labelled from their
/// codes by one call to the forest's
/// [`DomainLabeler`](gef_forest::DomainLabeler).
///
/// # Errors
/// [`GefError::InvalidConfig`] when `domains` does not hold one domain
/// per feature of `forest`; the labeler's deadline and worker errors.
pub fn generate(
    forest: &Forest,
    domains: &[Vec<f64>],
    n: usize,
    raw_labels: bool,
    seed: u64,
) -> Result<CodedDataset> {
    let _span = gef_trace::Span::enter("core.generate");
    let d = forest.num_features;
    if domains.len() != d {
        return Err(GefError::InvalidConfig(format!(
            "{} sampling domains for a forest of {d} features",
            domains.len()
        )));
    }
    let widest = domains.iter().map(Vec::len).max().unwrap_or(0);
    let (codes, ys) = if widest <= MAX_U16_DOMAIN {
        let (codes, ys) = sample::<u16>(forest, domains, n, raw_labels, seed)?;
        (Codes::U16(codes), ys)
    } else if u32::try_from(widest - 1).is_ok() {
        let (codes, ys) = sample::<u32>(forest, domains, n, raw_labels, seed)?;
        (Codes::U32(codes), ys)
    } else {
        return Err(GefError::InvalidConfig(format!(
            "a sampling domain of {widest} values is too wide for a domain code"
        )));
    };
    Ok(CodedDataset {
        codes,
        ys,
        domains: domains.to_vec(),
    })
}

/// [`generate`]'s codes and labels, at one code width.
fn sample<C: Copy + Default + Into<u32> + TryFrom<u64> + Sync>(
    forest: &Forest,
    domains: &[Vec<f64>],
    n: usize,
    raw_labels: bool,
    seed: u64,
) -> Result<(Vec<C>, Vec<f64>)> {
    let d = domains.len();
    let traced = gef_trace::enabled();
    let scale = if raw_labels {
        // Raw labels are only requested on ancillary paths; counting is
        // reserved for the response-scale D* labeling.
        LabelScale::Raw
    } else if traced {
        LabelScale::Counted
    } else {
        LabelScale::Response
    };
    let cells = n.checked_mul(d).ok_or_else(|| {
        GefError::InvalidConfig(format!("a D* of {n} rows × {d} features overflows"))
    })?;
    let labeler = forest.domain_labeler(domains, n, scale);
    let lens: Vec<u64> = domains.iter().map(|dom| dom.len() as u64).collect();
    let mut rng = Rng::seed(seed);
    let mut codes = vec![C::default(); cells];
    let mut ys = vec![0.0; n];
    let mut visited = 0u64;
    for start in (0..n).step_by(BLOCK_ROWS) {
        let end = (start + BLOCK_ROWS).min(n);
        let block = &mut codes[start * d..end * d];
        if d > 0 {
            let _sample_span = gef_trace::Span::enter("core.generate.sample");
            for row in block.chunks_exact_mut(d) {
                for (code, &len) in row.iter_mut().zip(&lens) {
                    // An empty domain keeps code 0, the constant 0.0.
                    // `generate` chose a width that holds every draw.
                    if len > 0 {
                        *code = C::try_from(rng.below(len)).unwrap_or_default();
                    }
                }
            }
        }
        let _label_span = gef_trace::Span::enter("core.generate.label");
        visited += labeler.label(block, &mut ys[start..end])?;
    }
    if traced {
        if scale == LabelScale::Counted {
            gef_trace::counter!("forest.nodes_visited").add(visited);
        }
        gef_trace::counter!("core.dstar_rows").add(n as u64);
    }
    Ok((codes, ys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gef_forest::{GbdtParams, GbdtTrainer, Objective};

    fn forest() -> Forest {
        let xs: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i % 31) as f64 / 31.0, (i % 17) as f64 / 17.0, 7.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + 2.0 * x[1]).collect();
        GbdtTrainer::new(GbdtParams {
            num_trees: 20,
            num_leaves: 8,
            learning_rate: 0.3,
            min_data_in_leaf: 5,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap()
    }

    fn all_rows(ds: &CodedDataset) -> Vec<Vec<f64>> {
        ds.rows(0..ds.len())
    }

    #[test]
    fn instances_use_only_domain_values() {
        let f = forest();
        let profile = ForestProfile::analyze(&f);
        let selected = profile.select_univariate(2);
        let domains = build_domains(&profile, &selected, SamplingStrategy::EquiSize(5)).unwrap();
        let ds = generate(&f, &domains, 500, false, 1).unwrap();
        assert_eq!(ds.len(), 500);
        assert!(matches!(ds.codes(), Codes::U16(c) if c.len() == 500 * 3));
        for x in &all_rows(&ds) {
            for (fi, &v) in x.iter().enumerate() {
                if domains[fi].is_empty() {
                    assert_eq!(v, 0.0);
                } else {
                    assert!(
                        domains[fi].contains(&v),
                        "value {v} not in domain of feature {fi}"
                    );
                }
            }
        }
    }

    #[test]
    fn labels_match_forest_predictions() {
        let f = forest();
        let profile = ForestProfile::analyze(&f);
        let domains = build_domains(&profile, &[0, 1], SamplingStrategy::AllThresholds).unwrap();
        let ds = generate(&f, &domains, 50, false, 3).unwrap();
        for (x, &y) in all_rows(&ds).iter().zip(ds.labels()) {
            assert_eq!(y, f.predict(x));
        }
    }

    #[test]
    fn raw_labels_use_margin_scale() {
        // Classification forest: raw = log-odds, response = probability.
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| f64::from(x[0] > 0.5)).collect();
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 10,
            num_leaves: 4,
            min_data_in_leaf: 5,
            objective: Objective::BinaryLogistic,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        let profile = ForestProfile::analyze(&f);
        let domains = build_domains(&profile, &[0], SamplingStrategy::AllThresholds).unwrap();
        let raw = generate(&f, &domains, 40, true, 5).unwrap();
        let resp = generate(&f, &domains, 40, false, 5).unwrap();
        // Same instances (same seed), different label scales.
        assert_eq!(raw.codes(), resp.codes());
        for (&r, &p) in raw.labels().iter().zip(resp.labels()) {
            assert!((gef_forest::sigmoid(r) - p).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn unused_feature_fixed_at_zero() {
        let f = forest(); // feature 2 is constant 7.0 -> never split
        let profile = ForestProfile::analyze(&f);
        let domains = build_domains(&profile, &[0, 1], SamplingStrategy::EquiWidth(4)).unwrap();
        assert!(domains[2].is_empty());
        let ds = generate(&f, &domains, 20, false, 9).unwrap();
        assert!(all_rows(&ds).iter().all(|x| x[2] == 0.0));
    }

    #[test]
    fn split_fractions() {
        let f = forest();
        let profile = ForestProfile::analyze(&f);
        let domains = build_domains(&profile, &[0], SamplingStrategy::EquiSize(3)).unwrap();
        let ds = generate(&f, &domains, 100, false, 11).unwrap();
        assert_eq!(ds.train_rows(0.8), 80);
        let (tr, te) = ds.into_rows().split(0.8);
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
    }

    #[test]
    fn deterministic_per_seed() {
        let f = forest();
        let profile = ForestProfile::analyze(&f);
        let domains = build_domains(&profile, &[0, 1], SamplingStrategy::KQuantile(6)).unwrap();
        let a = generate(&f, &domains, 30, false, 42).unwrap();
        let b = generate(&f, &domains, 30, false, 42).unwrap();
        assert_eq!(a.codes(), b.codes());
        let c = generate(&f, &domains, 30, false, 43).unwrap();
        assert_ne!(a.codes(), c.codes());
    }

    /// Domains that do not match the forest's features one to one are a
    /// typed error, below the kernel floor (the walker) and above it
    /// (the kernel), not an index out of bounds.
    #[test]
    fn mismatched_domains_are_a_typed_error() {
        let f = forest();
        let profile = ForestProfile::analyze(&f);
        let domains = build_domains(&profile, &[0, 1], SamplingStrategy::AllThresholds).unwrap();
        let mut long = domains.clone();
        long.push(vec![0.5]);
        for doms in [&domains[..2], &long[..]] {
            for n in [50, 5_000] {
                let result = generate(&f, doms, n, false, 1);
                assert!(
                    matches!(result, Err(GefError::InvalidConfig(_))),
                    "{} domains, {n} rows: {:?}",
                    doms.len(),
                    result.map(|ds| ds.len())
                );
            }
        }
    }

    /// A `D*` whose widest domain holds 65,536 values takes `u16` codes,
    /// one value more takes `u32` codes; both label as the walker does
    /// on the rows the codes stand for.
    #[test]
    fn domains_past_u16_take_u32_codes() {
        let f = forest();
        for (size, wide) in [(1usize << 16, false), ((1 << 16) + 1, true)] {
            let big: Vec<f64> = (0..size).map(|k| k as f64 / size as f64).collect();
            let domains = vec![big, vec![0.25, 0.75], Vec::new()];
            let ds = generate(&f, &domains, 3_000, false, 4).unwrap();
            assert_eq!(matches!(ds.codes(), Codes::U32(_)), wide, "{size} values");
            let rows = all_rows(&ds);
            let want: Vec<f64> = rows.iter().map(|x| f.predict(x)).collect();
            assert_eq!(ds.labels(), &want[..], "{size} values");
        }
    }

    /// A forest with a NaN leaf labels some rows NaN; the scrub removes
    /// those rows' codes and labels together, and keeps every other row
    /// in order.
    #[test]
    fn scrub_removes_codes_and_labels_together() {
        let mut f = forest();
        let leaf = f.trees[0].nodes.iter().position(|n| n.is_leaf()).unwrap();
        f.trees[0].nodes[leaf].value = f64::NAN;
        let profile = ForestProfile::analyze(&f);
        let domains = build_domains(&profile, &[0, 1], SamplingStrategy::AllThresholds).unwrap();
        for n in [50, 5_000] {
            let mut ds = generate(&f, &domains, n, false, 6).unwrap();
            let rows = all_rows(&ds);
            let labels = ds.labels().to_vec();
            let nan = labels.iter().filter(|y| y.is_nan()).count();
            assert!(nan > 0 && nan < n, "{nan} NaN labels of {n}");
            assert_eq!(ds.scrub_non_finite_labels(), nan);
            let (want_rows, want_labels): (Vec<_>, Vec<_>) = rows
                .into_iter()
                .zip(labels)
                .filter(|(_, y)| y.is_finite())
                .unzip();
            assert_eq!(ds.len(), n - nan);
            assert_eq!(all_rows(&ds), want_rows);
            assert_eq!(ds.labels(), &want_labels[..]);
            let Codes::U16(codes) = ds.codes() else {
                panic!("narrow domains take u16 codes");
            };
            assert_eq!(codes.len(), ds.len() * 3);
            assert_eq!(ds.scrub_non_finite_labels(), 0);
        }
    }

    /// D* is part of the reproducibility contract: the same forest,
    /// domains and seed give the same rows and labels, bit for bit, on
    /// the QuickScorer layout (8-leaf trees) and on the descent layout
    /// (48-leaf trees), on both label scales, over three blocks. The
    /// digest is over the rows the codes stand for and the labels, and
    /// was computed before labels were read from domain codes.
    #[test]
    fn dstar_digest_is_pinned() {
        let wide = {
            let xs: Vec<Vec<f64>> = (0..400)
                .map(|i| vec![(i % 37) as f64 / 37.0, (i % 23) as f64 / 23.0, 7.0])
                .collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| (9.0 * x[0]).sin() + x[1] * x[0])
                .collect();
            GbdtTrainer::new(GbdtParams {
                num_trees: 6,
                num_leaves: 48,
                learning_rate: 0.3,
                min_data_in_leaf: 2,
                ..Default::default()
            })
            .fit(&xs, &ys)
            .unwrap()
        };
        let mut d = gef_trace::hash::Digest::new("gef-core/generate-test");
        for f in [forest(), wide] {
            let profile = ForestProfile::analyze(&f);
            let domains =
                build_domains(&profile, &[0, 1], SamplingStrategy::AllThresholds).unwrap();
            for raw in [false, true] {
                assert!(f
                    .domain_labeler(&domains, 10_000, LabelScale::Raw)
                    .uses_codes());
                let ds = generate(&f, &domains, 10_000, raw, 17).unwrap();
                for x in &all_rows(&ds) {
                    d.write_f64s(x);
                }
                d.write_f64s(ds.labels());
            }
        }
        assert_eq!(d.finish(), 0x4fae_7b2a_aba9_86f4);
    }

    /// A hard deadline that passes while D* is being built ends
    /// `generate` with a typed error, not a partial data set.
    #[test]
    fn deadline_tripped_mid_dstar_is_typed() {
        let f = forest();
        let profile = ForestProfile::analyze(&f);
        let domains = build_domains(&profile, &[0, 1], SamplingStrategy::AllThresholds).unwrap();
        let budget =
            gef_trace::budget::Budget::armed(Some(std::time::Duration::from_millis(1)), None);
        let _scope = budget.enter();
        let started = std::time::Instant::now();
        // Far more rows than can be drawn and labelled in 1 ms.
        let result = generate(&f, &domains, 400_000, false, 5);
        assert!(
            matches!(result, Err(crate::GefError::DeadlineExceeded { .. })),
            "{:?}",
            result.map(|ds| ds.len())
        );
        assert!(started.elapsed() >= std::time::Duration::from_millis(1));
    }
}
