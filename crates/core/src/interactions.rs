//! Bi-variate component selection (paper Sec. 3.4).
//!
//! Candidate pairs are drawn from `F' × F'` (the *heredity principle*:
//! an interaction is considered only if both features are already main
//! effects). Four importance heuristics are provided, from cheapest to
//! most expensive:
//!
//! * **Pair-Gain** — `I(f_i, f_j) = I(f_i) + I(f_j)` from the
//!   univariate gains (a quick baseline);
//! * **Count-Path** — number of ancestor/descendant node pairs testing
//!   the two features on the same decision path, summed over trees;
//! * **Gain-Path** — the same paths weighted by `min(gain_a, gain_b)`;
//! * **H-Stat** — Friedman & Popescu's H statistic computed from
//!   partial-dependence functions estimated on a sample of `D*`
//!   (the only data-driven strategy, and the expensive one:
//!   `O(N·|F'|²)` forest evaluations versus `O(|T|)` for the others).

use crate::generate::CodedDataset;
use crate::selection::ForestProfile;
use crate::{GefError, Result};
use gef_forest::{Forest, Tree};
use std::collections::HashMap;

/// Strategy for ranking candidate feature interactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InteractionStrategy {
    /// Sum of univariate gain importances.
    PairGain,
    /// Count of same-path node pairs.
    CountPath,
    /// Same-path node pairs weighted by the minimum node gain.
    GainPath,
    /// Friedman's H statistic estimated from a `D*` sample.
    HStat {
        /// Number of evaluation points (rows of `D*`).
        eval_points: usize,
        /// Number of background rows used for partial dependence.
        background: usize,
    },
}

impl InteractionStrategy {
    /// Human-readable name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            InteractionStrategy::PairGain => "Pair-Gain",
            InteractionStrategy::CountPath => "Count-Path",
            InteractionStrategy::GainPath => "Gain-Path",
            InteractionStrategy::HStat { .. } => "H-Stat",
        }
    }

    /// Default H-Stat configuration (100 eval points × 100 background
    /// rows, the ballpark of "a sample of `D*`").
    pub fn h_stat_default() -> Self {
        InteractionStrategy::HStat {
            eval_points: 100,
            background: 100,
        }
    }
}

/// Rank every unordered pair from `selected` by interaction importance,
/// descending. `data` is required for [`InteractionStrategy::HStat`].
pub fn rank_interactions(
    forest: &Forest,
    profile: &ForestProfile,
    selected: &[usize],
    strategy: InteractionStrategy,
    data: Option<&CodedDataset>,
) -> Result<Vec<((usize, usize), f64)>> {
    if selected.len() < 2 {
        return Ok(Vec::new());
    }
    let mut scores: Vec<((usize, usize), f64)> = match strategy {
        InteractionStrategy::PairGain => pairs_of(selected)
            .into_iter()
            .map(|(i, j)| ((i, j), profile.gain(i) + profile.gain(j)))
            .collect(),
        InteractionStrategy::CountPath => path_scores(forest, selected, |_, _| 1.0),
        InteractionStrategy::GainPath => path_scores(forest, selected, |ga, gb| ga.min(gb)),
        InteractionStrategy::HStat {
            eval_points,
            background,
        } => {
            let data = data.ok_or_else(|| {
                GefError::InvalidConfig("H-Stat requires a synthetic dataset sample".into())
            })?;
            if data.is_empty() {
                return Err(GefError::InvalidConfig(
                    "H-Stat requires a non-empty dataset".into(),
                ));
            }
            h_stat_scores(forest, selected, data, eval_points, background)
        }
    };
    scores.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(scores)
}

/// Keep the top-`k` pairs of a ranking (the paper's `F''`).
pub fn top_pairs(ranked: &[((usize, usize), f64)], k: usize) -> Vec<(usize, usize)> {
    ranked.iter().take(k).map(|&(p, _)| p).collect()
}

fn pairs_of(selected: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (a, &i) in selected.iter().enumerate() {
        for &j in &selected[a + 1..] {
            out.push((i.min(j), i.max(j)));
        }
    }
    out
}

/// Shared skeleton for Count-Path / Gain-Path: accumulate `weight(gain_a,
/// gain_b)` over every ancestor/descendant pair of split nodes whose
/// features differ, restricted to the selected features.
fn path_scores(
    forest: &Forest,
    selected: &[usize],
    weight: impl Fn(f64, f64) -> f64,
) -> Vec<((usize, usize), f64)> {
    let in_sel: Vec<bool> = {
        let max_f = forest.num_features;
        let mut v = vec![false; max_f];
        for &f in selected {
            v[f] = true;
        }
        v
    };
    let mut acc: HashMap<(usize, usize), f64> = HashMap::new();
    for tree in &forest.trees {
        accumulate_tree(tree, &in_sel, &weight, &mut acc);
    }
    // Ensure every candidate pair appears (zero score when never
    // co-occurring).
    let mut out: Vec<((usize, usize), f64)> = pairs_of(selected)
        .into_iter()
        .map(|p| (p, acc.get(&p).copied().unwrap_or(0.0)))
        .collect();
    out.sort_by_key(|a| a.0);
    out
}

fn accumulate_tree(
    tree: &Tree,
    in_sel: &[bool],
    weight: &impl Fn(f64, f64) -> f64,
    acc: &mut HashMap<(usize, usize), f64>,
) {
    // DFS maintaining the stack of ancestor (feature, gain) pairs.
    fn rec(
        tree: &Tree,
        idx: usize,
        ancestors: &mut Vec<(usize, f64)>,
        in_sel: &[bool],
        weight: &impl Fn(f64, f64) -> f64,
        acc: &mut HashMap<(usize, usize), f64>,
    ) {
        let node = &tree.nodes[idx];
        if node.is_leaf() {
            return;
        }
        let f = node.feature as usize;
        if in_sel[f] {
            for &(af, ag) in ancestors.iter() {
                if af != f {
                    let key = (af.min(f), af.max(f));
                    *acc.entry(key).or_insert(0.0) += weight(ag, node.gain);
                }
            }
        }
        let push = in_sel[f];
        if push {
            ancestors.push((f, node.gain));
        }
        rec(tree, node.left as usize, ancestors, in_sel, weight, acc);
        rec(tree, node.right as usize, ancestors, in_sel, weight, acc);
        if push {
            ancestors.pop();
        }
    }
    let mut ancestors = Vec::with_capacity(32);
    rec(tree, 0, &mut ancestors, in_sel, weight, acc);
}

/// Friedman–Popescu H² for every candidate pair.
fn h_stat_scores(
    forest: &Forest,
    selected: &[usize],
    data: &CodedDataset,
    eval_points: usize,
    background: usize,
) -> Vec<((usize, usize), f64)> {
    let n = data.len();
    let e = eval_points.clamp(1, n);
    let b = background.clamp(1, n);
    // Only the eval and background rows are materialized.
    let eval = data.rows(0..e);
    // Use the tail of the dataset as background (disjoint when large
    // enough, harmlessly overlapping otherwise).
    let bg = data.rows(n - b..n);
    let (eval, bg) = (&eval[..], &bg[..]);

    // Univariate PD of each selected feature at the eval points.
    let mut pd_uni: HashMap<usize, Vec<f64>> = HashMap::new();
    let mut buf: Vec<Vec<f64>> = bg.to_vec();
    for &f in selected {
        let mut pd = Vec::with_capacity(e);
        for xk in eval {
            for (row, orig) in buf.iter_mut().zip(bg) {
                row.clone_from(orig);
                row[f] = xk[f];
            }
            let mean = buf.iter().map(|r| forest.predict_raw(r)).sum::<f64>() / b as f64;
            pd.push(mean);
        }
        center(&mut pd);
        pd_uni.insert(f, pd);
    }

    pairs_of(selected)
        .into_iter()
        .map(|(i, j)| {
            let mut pd_ij = Vec::with_capacity(e);
            for xk in eval {
                for (row, orig) in buf.iter_mut().zip(bg) {
                    row.clone_from(orig);
                    row[i] = xk[i];
                    row[j] = xk[j];
                }
                let mean = buf.iter().map(|r| forest.predict_raw(r)).sum::<f64>() / b as f64;
                pd_ij.push(mean);
            }
            center(&mut pd_ij);
            let pi = &pd_uni[&i];
            let pj = &pd_uni[&j];
            let mut num = 0.0;
            let mut den = 0.0;
            for k in 0..e {
                let d = pd_ij[k] - pi[k] - pj[k];
                num += d * d;
                den += pd_ij[k] * pd_ij[k];
            }
            let h2 = if den > 0.0 { num / den } else { 0.0 };
            ((i, j), h2)
        })
        .collect()
}

fn center(v: &mut [f64]) {
    let m = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{build_domains, generate};
    use crate::sampling::SamplingStrategy;
    use gef_forest::{GbdtParams, GbdtTrainer};

    /// Forest on y = x0*x1 (strong interaction) + x2 (no interaction).
    fn interacting_forest() -> Forest {
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let xs: Vec<Vec<f64>> = (0..1500).map(|_| vec![next(), next(), next()]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 * x[0] * x[1] + x[2]).collect();
        GbdtTrainer::new(GbdtParams {
            num_trees: 80,
            num_leaves: 16,
            learning_rate: 0.15,
            min_data_in_leaf: 5,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap()
    }

    fn ranked_with(strategy: InteractionStrategy) -> Vec<((usize, usize), f64)> {
        let f = interacting_forest();
        let profile = ForestProfile::analyze(&f);
        let selected = vec![0, 1, 2];
        let data = if matches!(strategy, InteractionStrategy::HStat { .. }) {
            let domains =
                build_domains(&profile, &selected, SamplingStrategy::AllThresholds).unwrap();
            Some(generate(&f, &domains, 400, true, 7).unwrap())
        } else {
            None
        };
        rank_interactions(&f, &profile, &selected, strategy, data.as_ref()).unwrap()
    }

    #[test]
    fn count_path_ranks_true_interaction_first() {
        let ranked = ranked_with(InteractionStrategy::CountPath);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].0, (0, 1), "ranked={ranked:?}");
        assert!(ranked[0].1 > ranked[2].1);
    }

    #[test]
    fn gain_path_ranks_true_interaction_first() {
        let ranked = ranked_with(InteractionStrategy::GainPath);
        assert_eq!(ranked[0].0, (0, 1), "ranked={ranked:?}");
    }

    #[test]
    fn h_stat_ranks_true_interaction_first() {
        let ranked = ranked_with(InteractionStrategy::h_stat_default());
        assert_eq!(ranked[0].0, (0, 1), "ranked={ranked:?}");
        // H² of the true pair well above the null pairs.
        assert!(
            ranked[0].1 > 3.0 * ranked[1].1.max(1e-9),
            "ranked={ranked:?}"
        );
    }

    #[test]
    fn pair_gain_is_sum_of_gains() {
        let f = interacting_forest();
        let profile = ForestProfile::analyze(&f);
        let ranked = rank_interactions(
            &f,
            &profile,
            &[0, 1, 2],
            InteractionStrategy::PairGain,
            None,
        )
        .unwrap();
        for &((i, j), s) in &ranked {
            assert!((s - (profile.gain(i) + profile.gain(j))).abs() < 1e-9);
        }
    }

    #[test]
    fn h_stat_without_data_errors() {
        let f = interacting_forest();
        let profile = ForestProfile::analyze(&f);
        let r = rank_interactions(
            &f,
            &profile,
            &[0, 1],
            InteractionStrategy::h_stat_default(),
            None,
        );
        assert!(r.is_err());
    }

    #[test]
    fn fewer_than_two_features_gives_empty() {
        let f = interacting_forest();
        let profile = ForestProfile::analyze(&f);
        let r =
            rank_interactions(&f, &profile, &[0], InteractionStrategy::CountPath, None).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn top_pairs_takes_prefix() {
        let ranked = vec![((0, 1), 5.0), ((1, 2), 3.0), ((0, 2), 1.0)];
        assert_eq!(top_pairs(&ranked, 2), vec![(0, 1), (1, 2)]);
        assert_eq!(top_pairs(&ranked, 0), Vec::<(usize, usize)>::new());
        assert_eq!(top_pairs(&ranked, 99).len(), 3);
    }

    #[test]
    fn count_path_on_known_tree() {
        use gef_forest::tree::Node;
        // Root f0; left child f1 (with two leaf children); right leaf.
        // Ancestor/descendant pairs: (f0,f1) once.
        let tree = Tree {
            nodes: vec![
                Node::split(0, 0.5, 1, 2, 10.0, 100),
                Node::split(1, 0.3, 3, 4, 4.0, 60),
                Node::leaf(1.0, 40),
                Node::leaf(0.0, 30),
                Node::leaf(2.0, 30),
            ],
        };
        let forest = Forest::new(vec![tree], 0.0, 1.0, gef_forest::Objective::RegressionL2, 2);
        let profile = ForestProfile::analyze(&forest);
        let count = rank_interactions(
            &forest,
            &profile,
            &[0, 1],
            InteractionStrategy::CountPath,
            None,
        )
        .unwrap();
        assert_eq!(count, vec![((0, 1), 1.0)]);
        let gain = rank_interactions(
            &forest,
            &profile,
            &[0, 1],
            InteractionStrategy::GainPath,
            None,
        )
        .unwrap();
        assert_eq!(gain, vec![((0, 1), 4.0)]); // min(10, 4)
    }

    #[test]
    fn same_feature_pairs_excluded() {
        use gef_forest::tree::Node;
        // Root f0 with child also f0: contributes nothing.
        let tree = Tree {
            nodes: vec![
                Node::split(0, 0.5, 1, 2, 10.0, 100),
                Node::split(0, 0.25, 3, 4, 4.0, 60),
                Node::leaf(1.0, 40),
                Node::leaf(0.0, 30),
                Node::leaf(2.0, 30),
            ],
        };
        let forest = Forest::new(vec![tree], 0.0, 1.0, gef_forest::Objective::RegressionL2, 2);
        let profile = ForestProfile::analyze(&forest);
        let ranked = rank_interactions(
            &forest,
            &profile,
            &[0, 1],
            InteractionStrategy::CountPath,
            None,
        )
        .unwrap();
        assert_eq!(ranked, vec![((0, 1), 0.0)]);
    }
}
