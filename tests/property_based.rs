//! Seeded property sweeps on cross-crate invariants over random
//! forests, datasets, and instances. Each test checks `CASES` inputs
//! drawn from `Rng::seed(case)`; a failure names its case seed.

use gef::baselines::treeshap::{brute_force_shap, shap_values};
use gef::forest::codec::{from_binary, to_binary};
use gef::forest::io::{from_text, to_text};
use gef::forest::tree::{Node, Tree};
use gef::prelude::*;
use gef::trace::rng::Rng;

const CASES: u64 = 48;

/// An arbitrary `i16`, scaled to hundredths.
fn hundredths(rng: &mut Rng) -> f64 {
    f64::from(rng.next_u64() as u16 as i16) / 100.0
}

/// A random valid binary tree with up to `depth` levels of splits on
/// `d` features, with consistent covers: a leaf, or (half the time
/// while depth remains) a split over two random subtrees.
fn arb_tree(rng: &mut Rng, d: usize, depth: u32) -> Tree {
    if depth == 0 || rng.below(2) == 0 {
        let value = hundredths(rng);
        return Tree {
            nodes: vec![Node::leaf(value, 1 + rng.below(49) as u32)],
        };
    }
    let left = arb_tree(rng, d, depth - 1);
    let right = arb_tree(rng, d, depth - 1);
    let feature = rng.below(d as u64) as usize;
    let thr = hundredths(rng);
    let gain = 10.0 * rng.unit();
    // Merge: re-index children into a single node array.
    let mut nodes = Vec::with_capacity(1 + left.nodes.len() + right.nodes.len());
    let count: u32 = left.nodes[0].count + right.nodes[0].count;
    nodes.push(Node::split(
        feature,
        thr,
        1,
        1 + left.nodes.len() as u32,
        gain,
        count,
    ));
    for (sub, off) in [(&left, 1u32), (&right, 1 + left.nodes.len() as u32)] {
        for n in &sub.nodes {
            let mut n = *n;
            if !n.is_leaf() {
                n.left += off;
                n.right += off;
            }
            nodes.push(n);
        }
    }
    Tree { nodes }
}

/// 1–4 random trees of depth ≤ 4 and a base score in `[-1, 1)`.
fn arb_forest(rng: &mut Rng, d: usize) -> Forest {
    let trees = (0..1 + rng.below(4)).map(|_| arb_tree(rng, d, 4)).collect();
    let base = (rng.below(20) as f64 - 10.0) / 10.0;
    Forest::new(trees, base, 1.0, Objective::RegressionL2, d)
}

#[test]
fn random_trees_are_structurally_valid() {
    for case in 0..CASES {
        let tree = arb_tree(&mut Rng::seed(case), 3, 5);
        assert!(
            tree.validate().is_ok(),
            "case {case}: {:?}",
            tree.validate()
        );
    }
}

#[test]
fn forest_io_round_trips() {
    for case in 0..CASES {
        let forest = arb_forest(&mut Rng::seed(case), 3);
        let text = to_text(&forest);
        let parsed = from_text(&text).expect("text parses");
        let decoded = from_binary(&to_binary(&forest)).expect("GFB1 decodes");
        for x in [[0.0, 0.5, 1.0], [0.25, 0.25, 0.25], [-1.0, 2.0, 0.1]] {
            let p = forest.predict(&x);
            assert_eq!(
                p.to_bits(),
                parsed.predict(&x).to_bits(),
                "case {case}: text"
            );
            assert_eq!(
                p.to_bits(),
                decoded.predict(&x).to_bits(),
                "case {case}: GFB1"
            );
        }
    }
}

#[test]
fn treeshap_local_accuracy_on_random_forests() {
    for case in 0..CASES {
        let mut rng = Rng::seed(case);
        let forest = arb_forest(&mut rng, 3);
        let x = [rng.unit(), rng.unit(), rng.unit()];
        let (phi, base) = shap_values(&forest, &x);
        let total = base + phi.iter().sum::<f64>();
        assert!(
            (total - forest.predict_raw(&x)).abs() < 1e-8,
            "case {case}: local accuracy: {total} vs {}",
            forest.predict_raw(&x)
        );
    }
}

#[test]
fn treeshap_matches_brute_force_on_random_trees() {
    for case in 0..CASES {
        let mut rng = Rng::seed(case);
        let tree = arb_tree(&mut rng, 3, 4);
        let x = [rng.unit(), rng.unit(), rng.unit()];
        let forest = Forest::new(vec![tree.clone()], 0.0, 1.0, Objective::RegressionL2, 3);
        let (fast, _) = shap_values(&forest, &x);
        let slow = brute_force_shap(&tree, &x, 3);
        for (a, b) in fast.iter().zip(&slow) {
            assert!(
                (a - b).abs() < 1e-9,
                "case {case}: fast={fast:?} slow={slow:?}"
            );
        }
    }
}

#[test]
fn sampling_domains_sorted_within_extended_range() {
    for case in 0..CASES {
        let mut rng = Rng::seed(case);
        let mut thresholds: Vec<f64> = (0..1 + rng.below(59))
            .map(|_| -100.0 + 200.0 * rng.unit())
            .collect();
        let k = 1 + rng.below(39) as usize;
        thresholds.sort_by(|a, b| a.partial_cmp(b).unwrap());
        thresholds.dedup();
        let lo = thresholds[0];
        let hi = thresholds[thresholds.len() - 1];
        let eps = 0.05 * (hi - lo).max(lo.abs().max(1.0));
        for strategy in [
            SamplingStrategy::AllThresholds,
            SamplingStrategy::KQuantile(k),
            SamplingStrategy::EquiWidth(k),
            SamplingStrategy::KMeans(k),
            SamplingStrategy::EquiSize(k),
        ] {
            let d = strategy.domain(&thresholds);
            assert!(
                !d.is_empty(),
                "case {case}: {} domain empty",
                strategy.name()
            );
            for w in d.windows(2) {
                assert!(
                    w[0] < w[1],
                    "case {case}: {} domain unsorted",
                    strategy.name()
                );
            }
            for &v in &d {
                assert!(
                    v >= lo - eps - 1e-9 && v <= hi + eps + 1e-9,
                    "case {case}: {} produced {v} outside [{}, {}]",
                    strategy.name(),
                    lo - eps,
                    hi + eps
                );
            }
        }
    }
}

#[test]
fn gam_decomposition_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng::seed(case);
        let seed = rng.below(1000);
        let x = [rng.unit(), rng.unit()];
        // Small fixed GAM; the additive decomposition must hold for any
        // query point.
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let a = ((i as u64).wrapping_mul(seed + 7) % 101) as f64 / 101.0;
                let b = ((i as u64).wrapping_mul(seed + 31) % 89) as f64 / 89.0;
                vec![a, b]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] - r[1]).collect();
        let gam = gef::gam::fit(
            &GamSpec {
                lambda: LambdaSelection::Fixed(1.0),
                ..GamSpec::regression(vec![
                    TermSpec::spline(0, (0.0, 1.0)),
                    TermSpec::spline(1, (0.0, 1.0)),
                ])
            },
            &xs,
            &ys,
        )
        .expect("fit succeeds");
        let sum = gam.effective_intercept() + gam.component(0, &x) + gam.component(1, &x);
        assert!(
            (sum - gam.predict_raw(&x)).abs() < 1e-9,
            "case {case}: {sum} vs {}",
            gam.predict_raw(&x)
        );
    }
}
