//! Univariate component selection (paper Sec. 3.2) and the categorical
//! heuristic (Sec. 3.5).
//!
//! The most important features `F'` are chosen by accumulating each
//! feature's training-time loss reduction across every split node in
//! the forest. A feature with fewer than `L` distinct thresholds is
//! treated as categorical (the paper uses `L = 10`).

use gef_forest::importance::FeatureStats;
use gef_forest::Forest;

/// Default categorical-detection threshold (the paper's `L`).
pub const DEFAULT_CATEGORICAL_L: usize = 10;

/// The feature signals GEF elicits from a forest.
#[derive(Debug, Clone)]
pub struct ForestProfile {
    /// Per-feature statistics (gain, split counts, thresholds).
    pub stats: FeatureStats,
    /// Total number of features of the forest's input space.
    pub num_features: usize,
}

gef_trace::json_struct!(ForestProfile {
    stats,
    num_features
});

impl ForestProfile {
    /// Analyze a forest in a single pass.
    pub fn analyze(forest: &Forest) -> Self {
        ForestProfile {
            stats: FeatureStats::collect(forest),
            num_features: forest.num_features,
        }
    }

    /// The top-`k` features by accumulated gain (the paper's `F'`),
    /// most important first. Features never used by the forest are
    /// excluded, so the result may be shorter than `k`.
    pub fn select_univariate(&self, k: usize) -> Vec<usize> {
        self.stats.top_features(k)
    }

    /// Whether a feature should be modelled as categorical: fewer than
    /// `l` distinct thresholds appear in the forest.
    pub fn is_categorical(&self, feature: usize, l: usize) -> bool {
        self.stats.thresholds[feature].len() < l
    }

    /// Sorted, de-duplicated thresholds of a feature (used for
    /// categorical detection and factor levels).
    pub fn thresholds(&self, feature: usize) -> &[f64] {
        &self.stats.thresholds[feature]
    }

    /// Sorted thresholds of a feature **with multiplicity** — the
    /// paper's `V_i`, one entry per split node. This is what the
    /// sampling strategies consume: the multiplicity encodes where the
    /// forest concentrates its splits.
    pub fn threshold_multiset(&self, feature: usize) -> &[f64] {
        &self.stats.threshold_multiset[feature]
    }

    /// Accumulated gain importance of a feature.
    pub fn gain(&self, feature: usize) -> f64 {
        self.stats.gain[feature]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gef_forest::{GbdtParams, GbdtTrainer};

    fn forest_with_strong_f0() -> Forest {
        let xs: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                vec![
                    (i % 97) as f64 / 97.0,
                    (i % 13) as f64 / 13.0,
                    f64::from(i % 2), // binary feature -> few thresholds
                ]
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 10.0 * (x[0] * 3.0).sin() + 0.5 * x[1] + 0.3 * x[2])
            .collect();
        GbdtTrainer::new(GbdtParams {
            num_trees: 40,
            num_leaves: 12,
            learning_rate: 0.2,
            min_data_in_leaf: 5,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap()
    }

    #[test]
    fn dominant_feature_selected_first() {
        let f = forest_with_strong_f0();
        let p = ForestProfile::analyze(&f);
        assert_eq!(p.select_univariate(1), vec![0]);
        let top2 = p.select_univariate(3);
        assert_eq!(top2[0], 0);
    }

    #[test]
    fn binary_feature_detected_categorical() {
        let f = forest_with_strong_f0();
        let p = ForestProfile::analyze(&f);
        // Feature 2 takes 2 values -> at most 1 distinct threshold.
        assert!(p.is_categorical(2, DEFAULT_CATEGORICAL_L));
        // Feature 0 is continuous with many thresholds.
        assert!(!p.is_categorical(0, DEFAULT_CATEGORICAL_L));
        assert!(p.thresholds(0).len() >= DEFAULT_CATEGORICAL_L);
    }

    #[test]
    fn gain_ranks_the_strong_feature_first() {
        let f = forest_with_strong_f0();
        let p = ForestProfile::analyze(&f);
        assert!(p.gain(0) > p.gain(1));
        assert!(p.gain(0) > 0.0);
    }

    #[test]
    fn selection_excludes_unused_features() {
        // Train on data where feature 1 is pure noise with no signal
        // and constant — never split on.
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64, 5.0]).collect();
        let ys: Vec<f64> = (0..200).map(|i| (i % 7) as f64).collect();
        let f = GbdtTrainer::new(GbdtParams {
            num_trees: 10,
            num_leaves: 4,
            min_data_in_leaf: 5,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap();
        let p = ForestProfile::analyze(&f);
        let sel = p.select_univariate(5);
        assert_eq!(sel, vec![0]);
    }
}
