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
use crate::Result;
use gef_forest::{Forest, LabelScale};
use gef_trace::rng::Rng;

/// The synthetic dataset `D*` together with the domains that produced
/// it.
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

impl SyntheticDataset {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Remove every row whose label is NaN or infinite (a forest fed a
    /// hostile model file, or an injected prediction fault, can produce
    /// them). Returns the number of rows removed.
    pub fn scrub_non_finite_labels(&mut self) -> usize {
        let before = self.ys.len();
        let keep: Vec<bool> = self.ys.iter().map(|y| y.is_finite()).collect();
        if keep.iter().all(|&k| k) {
            return 0;
        }
        let mut it = keep.iter();
        self.xs.retain(|_| *it.next().unwrap_or(&true));
        let mut it = keep.iter();
        self.ys.retain(|_| *it.next().unwrap_or(&true));
        before - self.ys.len()
    }

    /// Rows in the train part of a split at `train_fraction`: the first
    /// `round(len · train_fraction)` rows, leaving at least one row on
    /// each side when there are two. [`SyntheticDataset::split`] and
    /// the explain pipeline, which fits on slices of `xs`, both cut here.
    pub fn train_rows(&self, train_fraction: f64) -> usize {
        ((self.len() as f64 * train_fraction).round() as usize)
            .clamp(1, self.len().saturating_sub(1).max(1))
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

/// Rows sampled and labelled together. Labelling reads each block's
/// domain codes (`u16`, row-major), so the code buffer holds one block,
/// 4,096 × 81 × 2 B ≈ 0.66 MB at `distill_wide`'s width, where a
/// whole-`D*` buffer would add 8 MB to its peak. A constant, so blocks
/// are a pure function of `n`.
const BLOCK_ROWS: usize = 4096;

/// Generate `n` labelled instances from the given domains.
///
/// `raw_labels` chooses the label scale: `true` queries the forest's
/// raw margin (log-odds for classification — what a logit-link GAM
/// should be fitted on is the *probability*, so the pipeline uses
/// `false` there), `false` the response scale.
///
/// Every cell is one draw `rng.below(|dom_f|)` into its feature's
/// domain, row by row. The drawn index is the cell's *domain code*:
/// 4,096 rows at a time are drawn into a code buffer and into `xs`,
/// then labelled by one call to the forest's
/// [`DomainLabeler`](gef_forest::DomainLabeler), which reads the codes
/// when it can and the rows when it cannot; the labels are the same
/// either way.
pub fn generate(
    forest: &Forest,
    domains: &[Vec<f64>],
    n: usize,
    raw_labels: bool,
    seed: u64,
) -> Result<SyntheticDataset> {
    let _span = gef_trace::Span::enter("core.generate");
    let mut rng = Rng::seed(seed);
    let d = forest.num_features;
    debug_assert_eq!(domains.len(), d);
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
    let labeler = forest.domain_labeler(domains, n, scale);
    let mut xs = Vec::with_capacity(n);
    let mut ys = vec![0.0; n];
    let mut codes = vec![0u16; BLOCK_ROWS.min(n) * d];
    let mut visited = 0u64;
    for start in (0..n).step_by(BLOCK_ROWS) {
        let end = (start + BLOCK_ROWS).min(n);
        let codes = &mut codes[..(end - start) * d];
        {
            let _sample_span = gef_trace::Span::enter("core.generate.sample");
            for row in 0..end - start {
                let row_codes = &mut codes[row * d..(row + 1) * d];
                let x: Vec<f64> = domains
                    .iter()
                    .zip(row_codes)
                    .map(|(dom, code)| {
                        if dom.is_empty() {
                            *code = 0;
                            0.0
                        } else {
                            let k = rng.below(dom.len() as u64) as usize;
                            // Codes are read only when every domain
                            // fits a u16, where this cast is exact.
                            *code = k as u16;
                            dom[k]
                        }
                    })
                    .collect();
                xs.push(x);
            }
        }
        let _label_span = gef_trace::Span::enter("core.generate.label");
        visited += labeler.label(codes, &xs[start..end], &mut ys[start..end])?;
    }
    if traced {
        if scale == LabelScale::Counted {
            gef_trace::counter!("forest.nodes_visited").add(visited);
        }
        gef_trace::counter!("core.dstar_rows").add(n as u64);
    }
    Ok(SyntheticDataset {
        xs,
        ys,
        domains: domains.to_vec(),
    })
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

    #[test]
    fn instances_use_only_domain_values() {
        let f = forest();
        let profile = ForestProfile::analyze(&f);
        let selected = profile.select_univariate(2);
        let domains = build_domains(&profile, &selected, SamplingStrategy::EquiSize(5)).unwrap();
        let ds = generate(&f, &domains, 500, false, 1).unwrap();
        assert_eq!(ds.len(), 500);
        for x in &ds.xs {
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
        for (x, &y) in ds.xs.iter().zip(&ds.ys) {
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
        assert_eq!(raw.xs, resp.xs);
        for (&r, &p) in raw.ys.iter().zip(&resp.ys) {
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
        assert!(ds.xs.iter().all(|x| x[2] == 0.0));
    }

    #[test]
    fn split_fractions() {
        let f = forest();
        let profile = ForestProfile::analyze(&f);
        let domains = build_domains(&profile, &[0], SamplingStrategy::EquiSize(3)).unwrap();
        let ds = generate(&f, &domains, 100, false, 11).unwrap();
        let (tr, te) = ds.split(0.8);
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
        assert_eq!(a.xs, b.xs);
        let c = generate(&f, &domains, 30, false, 43).unwrap();
        assert_ne!(a.xs, c.xs);
    }

    /// D* is part of the reproducibility contract: the same forest,
    /// domains and seed give the same rows and labels, bit for bit, on
    /// the QuickScorer layout (8-leaf trees) and on the descent layout
    /// (48-leaf trees), on both label scales, over three blocks. The
    /// digest was computed before labels were read from domain codes.
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
                for x in &ds.xs {
                    d.write_f64s(x);
                }
                d.write_f64s(&ds.ys);
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
