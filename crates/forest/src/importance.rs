//! Forest introspection: gain-based feature importance and split
//! threshold extraction.
//!
//! [`FeatureStats::collect`] elicits, in one pass over the split nodes,
//! the signals GEF uses in place of the (unavailable) training data:
//!
//! * per-feature accumulated loss reduction across all split nodes
//!   (paper Sec. 3.2, univariate component selection);
//! * the number of splits per feature;
//! * the split thresholds per feature, sorted, both de-duplicated and
//!   with multiplicity — the paper's `V_i` (Sec. 3.3, sampling domains).

use crate::Forest;
use gef_trace::json::{JsonValue, JsonWriter, ReadJson, WriteJson};

/// Per-feature statistics elicited from a forest in a single pass.
#[derive(Debug, Clone)]
pub struct FeatureStats {
    /// Accumulated split gain per feature.
    pub gain: Vec<f64>,
    /// Number of split nodes per feature.
    pub split_count: Vec<usize>,
    /// Sorted, de-duplicated split thresholds per feature.
    pub thresholds: Vec<Vec<f64>>,
    /// Sorted split thresholds per feature **with multiplicity** — one
    /// entry per split node (the paper's `V_i`). The multiplicity is
    /// the sampling signal: regions where the forest splits often are
    /// regions of high prediction variability, and the density-aware
    /// strategies (K-Quantile, K-Means, Equi-Size) rely on it.
    pub threshold_multiset: Vec<Vec<f64>>,
}

impl WriteJson for FeatureStats {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("gain", &self.gain);
        w.field("split_count", &self.split_count);
        w.field("thresholds", &self.thresholds);
        w.field("threshold_multiset", &self.threshold_multiset);
        w.end_object();
    }
}

impl ReadJson for FeatureStats {
    fn read_json(v: &JsonValue) -> Result<FeatureStats, String> {
        let stats = FeatureStats {
            gain: v.req("gain")?,
            split_count: v.req("split_count")?,
            thresholds: v.req("thresholds")?,
            threshold_multiset: v.req("threshold_multiset")?,
        };
        let d = stats.gain.len();
        if stats.split_count.len() != d
            || stats.thresholds.len() != d
            || stats.threshold_multiset.len() != d
        {
            return Err(format!("per-feature lists disagree with {d} gains"));
        }
        Ok(stats)
    }
}

impl FeatureStats {
    /// Collect statistics from a forest.
    pub fn collect(forest: &Forest) -> Self {
        let d = forest.num_features;
        let mut gain = vec![0.0; d];
        let mut split_count = vec![0usize; d];
        let mut threshold_multiset: Vec<Vec<f64>> = vec![Vec::new(); d];
        for tree in &forest.trees {
            for node in &tree.nodes {
                if node.is_leaf() {
                    continue;
                }
                let f = node.feature as usize;
                gain[f] += node.gain;
                split_count[f] += 1;
                threshold_multiset[f].push(node.threshold);
            }
        }
        let mut thresholds = Vec::with_capacity(d);
        for v in &mut threshold_multiset {
            v.sort_by(|a, b| a.total_cmp(b));
            let mut dedup = v.clone();
            dedup.dedup();
            thresholds.push(dedup);
        }
        FeatureStats {
            gain,
            split_count,
            thresholds,
            threshold_multiset,
        }
    }

    /// Features sorted by descending gain (index, gain), with zero-gain
    /// (never used) features excluded.
    pub fn ranked_by_gain(&self) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self
            .gain
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, g)| g > 0.0)
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Indices of the top-`k` features by gain (the paper's `F'`).
    pub fn top_features(&self, k: usize) -> Vec<usize> {
        self.ranked_by_gain()
            .into_iter()
            .take(k)
            .map(|(f, _)| f)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Node, Tree};
    use crate::Objective;

    fn two_tree_forest() -> Forest {
        // Tree A: split on f0 @ 0.5 (gain 4), then f1 @ 0.2 (gain 1).
        let a = Tree {
            nodes: vec![
                Node::split(0, 0.5, 1, 2, 4.0, 10),
                Node::split(1, 0.2, 3, 4, 1.0, 6),
                Node::leaf(1.0, 4),
                Node::leaf(-1.0, 3),
                Node::leaf(0.5, 3),
            ],
        };
        // Tree B: split on f0 @ 0.7 (gain 2).
        let b = Tree {
            nodes: vec![
                Node::split(0, 0.7, 1, 2, 2.0, 10),
                Node::leaf(0.0, 5),
                Node::leaf(1.0, 5),
            ],
        };
        Forest::new(vec![a, b], 0.0, 1.0, Objective::RegressionL2, 3)
    }

    #[test]
    fn gain_accumulates_across_trees() {
        let stats = FeatureStats::collect(&two_tree_forest());
        assert_eq!(stats.gain, vec![6.0, 1.0, 0.0]);
        assert_eq!(stats.split_count, vec![2, 1, 0]);
    }

    #[test]
    fn thresholds_sorted_and_deduped() {
        let stats = FeatureStats::collect(&two_tree_forest());
        assert_eq!(stats.thresholds, vec![vec![0.5, 0.7], vec![0.2], vec![]]);
    }

    #[test]
    fn ranking_and_top_features() {
        let f = two_tree_forest();
        let stats = FeatureStats::collect(&f);
        assert_eq!(stats.ranked_by_gain(), vec![(0, 6.0), (1, 1.0)]);
        assert_eq!(stats.top_features(1), vec![0]);
        assert_eq!(stats.top_features(5), vec![0, 1]); // unused f2 excluded
    }

    #[test]
    fn duplicate_thresholds_collapse() {
        let mut f = two_tree_forest();
        f.trees[1].nodes[0].threshold = 0.5; // same as tree A's root
        let stats = FeatureStats::collect(&f);
        assert_eq!(stats.thresholds[0], vec![0.5]);
        assert_eq!(stats.threshold_multiset[0], vec![0.5, 0.5]);
    }
}
