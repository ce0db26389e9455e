//! Differential-oracle suite for the flattened branchless kernel.
//!
//! The recursive walker ([`Forest::predict`] / [`Forest::predict_raw`])
//! is the oracle: for every generated forest and batch, the flattened
//! kernel must produce **bit-identical** predictions ([`f64::to_bits`],
//! not a tolerance) at `threads = 1` (serial striped path) and
//! `threads = 4` (gef-par chunked path), including NaN-feature rows
//! (which route right at every split, on both paths) and degenerate
//! single-leaf trees (zero descent iterations).
//!
//! Each test also asserts the kernel path was *actually taken*
//! ([`Forest::layout_cached`]) — a silent fallback to the walker would
//! make the comparison vacuous. The generated-forest tests check
//! `CASES` inputs drawn from `Rng::seed(case)`; a failure names its
//! case seed.

use gef_forest::{Forest, GbdtParams, GbdtTrainer, LabelScale, Node, Objective, Tree};
use gef_trace::rng::Rng;
use std::sync::Mutex;

const CASES: u64 = 16;

/// `gef_par::set_threads` is process-global; serialise the tests that
/// touch it and restore serial mode on exit.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_thread_control<T>(f: impl FnOnce() -> T) -> T {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out = f();
    gef_par::set_threads(1);
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Walker reference: per-row response-scale predictions (the per-row
/// entry points never dispatch to the kernel).
fn walker_response(forest: &Forest, xs: &[Vec<f64>]) -> Vec<f64> {
    xs.iter().map(|x| forest.predict(x)).collect()
}

/// An arbitrary `i16`, scaled to hundredths.
fn hundredths(rng: &mut Rng) -> f64 {
    f64::from(rng.next_u64() as u16 as i16) / 100.0
}

/// Random valid binary tree with up to `depth` levels of splits on `d`
/// features: a leaf, or (half the time while depth remains) a split
/// over two random subtrees (same merge construction as
/// `tests/property_based.rs`).
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

/// A feature value: usually finite, sometimes NaN, with signed zeros
/// and exact-threshold hits in the mix.
fn arb_feature(rng: &mut Rng) -> f64 {
    match rng.below(11) {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        _ => -1.5 + 3.0 * rng.unit(),
    }
}

/// `lo..hi` random trees and rows of `d` random features.
fn arb_forest_and_rows(
    rng: &mut Rng,
    d: usize,
    depth: u32,
    trees: (u64, u64),
    rows: (u64, u64),
) -> (Vec<Tree>, Vec<Vec<f64>>) {
    let n_trees = trees.0 + rng.below(trees.1 - trees.0);
    let trees = (0..n_trees).map(|_| arb_tree(rng, d, depth)).collect();
    let n_rows = rows.0 + rng.below(rows.1 - rows.0);
    let rows = (0..n_rows)
        .map(|_| (0..d).map(|_| arb_feature(rng)).collect())
        .collect();
    (trees, rows)
}

/// Structured random forests: kernel == walker, bit for bit, at
/// threads 1 and 4, NaN features included.
#[test]
fn kernel_matches_walker_on_random_forests() {
    for case in 0..CASES {
        let mut rng = Rng::seed(case);
        let (trees, rows) = arb_forest_and_rows(&mut rng, 3, 4, (4, 7), (2048, 2100));
        let base = -10.0 + rng.below(20) as f64;
        let objective = if rng.below(2) == 1 {
            Objective::BinaryLogistic
        } else {
            Objective::RegressionL2
        };
        let forest = Forest::new(trees, base / 10.0, 1.0, objective, 3);
        // rows × trees ≥ 2048 × 4 = 8192: clears the kernel work floor.
        let want = walker_response(&forest, &rows);
        with_thread_control(|| {
            for t in [1, 4] {
                gef_par::set_threads(t);
                let got = forest.predict_batch(&rows).expect("no deadline armed");
                assert!(
                    forest.layout_cached(),
                    "case {case}: kernel path not taken at threads={t}"
                );
                assert_eq!(bits(&got), bits(&want), "case {case}: threads={t}");
            }
        });
        // Raw-margin batch path too (infallible entry point).
        let want_raw: Vec<f64> = rows.iter().map(|x| forest.predict_raw(x)).collect();
        assert_eq!(
            bits(&forest.predict_raw_batch(&rows)),
            bits(&want_raw),
            "case {case}"
        );
    }
}

/// Degenerate single-leaf trees (zero descent iterations) mixed
/// with real trees: the kernel must park rows at the root leaf.
#[test]
fn kernel_handles_single_leaf_trees() {
    for case in 0..CASES {
        let mut rng = Rng::seed(case);
        let n_trees = 120 + rng.below(20);
        let trees: Vec<Tree> = (0..n_trees)
            .map(|_| Tree::constant((rng.below(200) as f64 - 100.0) / 10.0, 1))
            .collect();
        let scale = 1 + rng.below(3);
        let forest = Forest::new(trees, 0.25, 1.0 / scale as f64, Objective::RegressionL2, 0);
        // 64 rows × ≥120 trees ≥ 8192 with zero-width feature rows.
        let rows: Vec<Vec<f64>> = vec![vec![]; 70];
        let want = walker_response(&forest, &rows);
        let got = forest.predict_batch(&rows).expect("no deadline armed");
        assert!(
            forest.layout_cached(),
            "case {case}: kernel path not taken ({n_trees} trees)"
        );
        assert_eq!(bits(&got), bits(&want), "case {case}");
    }
}

/// The counted batch path must reproduce the walker's exact
/// node-visit totals (the `forest.nodes_visited` telemetry).
#[test]
fn counted_kernel_reproduces_walker_visits() {
    for case in 0..CASES {
        let mut rng = Rng::seed(case);
        let (trees, rows) = arb_forest_and_rows(&mut rng, 2, 5, (4, 6), (2048, 2080));
        let forest = Forest::new(trees, 0.0, 1.0, Objective::RegressionL2, 2);
        let mut want_visits = 0u64;
        let mut want = Vec::with_capacity(rows.len());
        for x in &rows {
            let (raw, n) = forest.predict_raw_counted(x);
            want_visits += n;
            want.push(forest.objective.transform(raw));
        }
        let (got, visits) = forest
            .predict_batch_counted(&rows)
            .expect("no deadline armed");
        assert!(forest.layout_cached(), "case {case}: kernel path not taken");
        assert_eq!(bits(&got), bits(&want), "case {case}");
        assert_eq!(visits, want_visits, "case {case}");
    }
}

/// A trained paper-scale forest, big enough that the kernel rides the
/// gef-par pool (`rows × trees ≥ 2^18`): serial and 4-thread kernel
/// outputs and the walker all agree bitwise.
#[test]
fn trained_forest_kernel_is_thread_count_invariant() {
    let mut state = 0xC0FFEEu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let xs: Vec<Vec<f64>> = (0..2000).map(|_| vec![next(), next(), next()]).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 2.0 * x[0] - x[1] * x[2] + 0.1 * next())
        .collect();
    let forest = GbdtTrainer::new(GbdtParams {
        num_trees: 80,
        num_leaves: 16,
        min_data_in_leaf: 10,
        ..Default::default()
    })
    .fit(&xs, &ys)
    .expect("training succeeds");

    // 4000 rows × 80 trees = 320k ≥ 2^18: pooled kernel at threads=4.
    let batch: Vec<Vec<f64>> = (0..4000)
        .map(|i| {
            if i % 97 == 0 {
                vec![f64::NAN, next(), next()]
            } else {
                vec![next(), next(), next()]
            }
        })
        .collect();
    let want = walker_response(&forest, &batch);
    with_thread_control(|| {
        for t in [1, 4] {
            gef_par::set_threads(t);
            let got = forest.predict_batch(&batch).expect("no deadline armed");
            assert!(
                forest.layout_cached(),
                "kernel path not taken at threads={t}"
            );
            assert_eq!(bits(&got), bits(&want), "threads={t}");
        }
    });
}

/// Trees wider than 32 leaves cannot ride the QuickScorer bitvector
/// path (one `u32` bit per leaf) and take the predicated-descent path
/// instead — which must be just as bit-exact, at both thread counts.
#[test]
fn wide_leaf_trees_take_descent_path_bitwise() {
    // A right-spine chain of 40 splits = 41 leaves > 32: split i sits
    // at index 2i with its left leaf at 2i+1; its right child 2i+2 is
    // the next split (or, after the loop, the final leaf at 80).
    let spine = |shift: f64| {
        let mut nodes = Vec::new();
        for i in 0..40u32 {
            nodes.push(Node::split(
                (i % 3) as usize,
                shift + i as f64 / 40.0,
                2 * i + 1,
                2 * i + 2,
                1.0,
                41 - i,
            ));
            nodes.push(Node::leaf(i as f64 / 10.0 - 2.0, 1));
        }
        nodes.push(Node::leaf(4.0 + shift, 1));
        Tree { nodes }
    };
    let forest = Forest::new(
        vec![spine(0.0), spine(0.1), spine(-0.2)],
        0.5,
        0.75,
        Objective::RegressionL2,
        3,
    );

    let mut state = 0xBEEFu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 * 2.0 - 0.5
    };
    // 4000 rows × 3 trees ≥ 8192: clears the kernel work floor.
    let batch: Vec<Vec<f64>> = (0..4000)
        .map(|i| {
            if i % 89 == 0 {
                vec![f64::NAN, next(), next()]
            } else {
                vec![next(), next(), next()]
            }
        })
        .collect();
    let want = walker_response(&forest, &batch);
    with_thread_control(|| {
        for t in [1, 4] {
            gef_par::set_threads(t);
            let got = forest.predict_batch(&batch).expect("no deadline armed");
            assert!(
                forest.layout_cached(),
                "kernel path not taken at threads={t}"
            );
            assert_eq!(bits(&got), bits(&want), "threads={t}");
        }
    });
    // The counted path descends too: walker visit totals must match.
    let mut want_visits = 0u64;
    for x in &batch {
        want_visits += forest.predict_raw_counted(x).1;
    }
    let (_, visits) = forest
        .predict_batch_counted(&batch)
        .expect("no deadline armed");
    assert_eq!(visits, want_visits);
}

/// Repeated batches reuse the cached layout snapshot; an in-place model
/// mutation invalidates it and changes predictions on the next call.
#[test]
fn cached_layout_survives_warm_iterations_and_tracks_mutation() {
    let trees: Vec<Tree> = (0..130).map(|i| Tree::constant(i as f64, 1)).collect();
    let mut forest = Forest::new(trees, 0.0, 1.0, Objective::RegressionL2, 0);
    let rows: Vec<Vec<f64>> = vec![vec![]; 64];

    let first = forest.predict_batch(&rows).expect("no deadline armed");
    assert!(forest.layout_cached());
    for _ in 0..3 {
        let again = forest.predict_batch(&rows).expect("no deadline armed");
        assert_eq!(bits(&again), bits(&first), "warm iteration changed output");
    }

    forest.trees[0].nodes[0].value += 1.0;
    let mutated = forest.predict_batch(&rows).expect("no deadline armed");
    assert_eq!(
        bits(&mutated),
        bits(&walker_response(&forest, &rows)),
        "stale snapshot served after in-place mutation"
    );
    assert_ne!(bits(&mutated), bits(&first));
}

/// Small batches stay on the walker (no layout build at all) — the
/// kernel's fixed costs must not be paid for single-row predicts.
#[test]
fn tiny_batches_stay_on_the_walker() {
    let tree = Tree {
        nodes: vec![
            Node::split(0, 0.5, 1, 2, 1.0, 2),
            Node::leaf(-1.0, 1),
            Node::leaf(1.0, 1),
        ],
    };
    let forest = Forest::new(vec![tree], 0.0, 1.0, Objective::RegressionL2, 1);
    let out = forest
        .predict_batch(&[vec![0.2]])
        .expect("no deadline armed");
    assert_eq!(out, vec![-1.0]);
    assert!(!forest.layout_cached(), "tiny batch built a layout");
}

/// Split thresholds from a pool of nine values, so trees share
/// thresholds and a feature repeats them.
fn pooled_threshold(rng: &mut Rng) -> f64 {
    (rng.below(9) as f64 - 4.0) / 4.0
}

/// A tree that splits on pooled thresholds: complete to `depth` when
/// `full` (2^depth leaves), else a random shape as in [`arb_tree`].
fn pooled_tree(rng: &mut Rng, d: usize, depth: u32, full: bool) -> Tree {
    if depth == 0 || (!full && rng.below(2) == 0) {
        return Tree {
            nodes: vec![Node::leaf(hundredths(rng), 1)],
        };
    }
    let left = pooled_tree(rng, d, depth - 1, full);
    let right = pooled_tree(rng, d, depth - 1, full);
    let feature = rng.below(d as u64) as usize;
    let mut nodes = vec![Node::split(
        feature,
        pooled_threshold(rng),
        1,
        1 + left.nodes.len() as u32,
        1.0,
        2,
    )];
    for (sub, off) in [(&left, 1u32), (&right, 1 + left.nodes.len() as u32)] {
        nodes.extend(sub.nodes.iter().map(|n| {
            let mut n = *n;
            if !n.is_leaf() {
                n.left += off;
                n.right += off;
            }
            n
        }));
    }
    Tree { nodes }
}

/// Domains over `d` features: one empty (the constant 0.0), one with a
/// single value, the rest holding every pooled threshold, values
/// between them, values below and above every threshold, ±0.0 and NaN.
fn pooled_domains(rng: &mut Rng, d: usize) -> Vec<Vec<f64>> {
    let empty = rng.below(d as u64) as usize;
    let single = (empty + 1) % d;
    (0..d)
        .map(|f| {
            if f == empty {
                Vec::new()
            } else if f == single {
                vec![pooled_threshold(rng)]
            } else {
                let mut dom: Vec<f64> = (0..9).map(|k| (k as f64 - 4.0) / 4.0).collect();
                dom.extend((0..8).map(|k| (k as f64 - 3.5) / 4.0));
                dom.extend([-7.0, 7.0, 0.0, -0.0, f64::NAN]);
                dom
            }
        })
        .collect()
}

/// Draw `n` rows as codes and as the values they stand for.
fn coded_rows(rng: &mut Rng, domains: &[Vec<f64>], n: usize) -> (Vec<u16>, Vec<Vec<f64>>) {
    let mut codes = Vec::with_capacity(n * domains.len());
    let rows = (0..n)
        .map(|_| {
            domains
                .iter()
                .map(|dom| {
                    if dom.is_empty() {
                        codes.push(0);
                        0.0
                    } else {
                        let k = rng.below(dom.len() as u64) as usize;
                        codes.push(k as u16);
                        dom[k]
                    }
                })
                .collect()
        })
        .collect();
    (codes, rows)
}

/// Label `rows` in two blocks through `forest.domain_labeler`, as
/// `gef_core::generate` does.
fn label_in_blocks(
    forest: &Forest,
    domains: &[Vec<f64>],
    codes: &[u16],
    rows: &[Vec<f64>],
    scale: LabelScale,
) -> (Vec<f64>, u64, bool) {
    let labeler = forest.domain_labeler(domains, rows.len(), scale);
    let nf = forest.num_features;
    let cut = rows.len() / 3;
    let mut out = vec![0.0; rows.len()];
    let (head, tail) = out.split_at_mut(cut);
    let mut visits = labeler
        .label(&codes[..cut * nf], &rows[..cut], head)
        .expect("no deadline armed");
    visits += labeler
        .label(&codes[cut * nf..], &rows[cut..], tail)
        .expect("no deadline armed");
    (out, visits, labeler.uses_codes())
}

/// Labels read from domain codes equal `predict_batch` on the
/// materialized rows and the walker, bit for bit, on every scale and
/// with the walker's visit counts: QuickScorer forests (≤ 32 leaves)
/// and descent forests (64-leaf trees), shared thresholds, domain
/// values on, between, below and above them, empty and one-value
/// domains, at threads 1 and 4 (64+ trees × 4,096 rows, so the pool
/// path runs).
#[test]
fn code_labels_match_rows_and_walker() {
    for case in 0..CASES {
        let mut rng = Rng::seed(case);
        let d = 4;
        let wide = case % 2 == 1;
        let n_trees = 64 + rng.below(6);
        let trees: Vec<Tree> = (0..n_trees)
            .map(|t| {
                pooled_tree(
                    &mut rng,
                    d,
                    if wide && t == 0 { 6 } else { 4 },
                    wide && t == 0,
                )
            })
            .collect();
        let objective = if rng.below(2) == 1 {
            Objective::BinaryLogistic
        } else {
            Objective::RegressionL2
        };
        let forest = Forest::new(trees, 0.125, 1.0, objective, d);
        let domains = pooled_domains(&mut rng, d);
        let n_rows = 4096 + rng.below(40) as usize;
        let (codes, rows) = coded_rows(&mut rng, &domains, n_rows);

        let mut want_visits = 0u64;
        let mut want_raw = Vec::with_capacity(rows.len());
        for x in &rows {
            let (raw, n) = forest.predict_raw_counted(x);
            want_visits += n;
            want_raw.push(raw);
        }
        let want_resp: Vec<f64> = want_raw.iter().map(|&r| objective.transform(r)).collect();
        assert_eq!(bits(&forest.predict_raw_batch(&rows)), bits(&want_raw));
        with_thread_control(|| {
            for t in [1, 4] {
                gef_par::set_threads(t);
                let by_rows = forest.predict_batch(&rows).expect("no deadline armed");
                assert_eq!(bits(&by_rows), bits(&want_resp), "case {case}: threads={t}");
                for (scale, want) in [
                    (LabelScale::Raw, &want_raw),
                    (LabelScale::Response, &want_resp),
                    (LabelScale::Counted, &want_resp),
                ] {
                    let (got, visits, coded) =
                        label_in_blocks(&forest, &domains, &codes, &rows, scale);
                    assert!(coded, "case {case}: code path not taken");
                    assert_eq!(bits(&got), bits(want), "case {case}: {scale:?} threads={t}");
                    let want_visits = if scale == LabelScale::Counted {
                        want_visits
                    } else {
                        0
                    };
                    assert_eq!(visits, want_visits, "case {case}: {scale:?} threads={t}");
                }
            }
        });
        let flat = forest.flattened().expect("valid forest flattens");
        assert_eq!(
            flat.max_depth() >= 6,
            wide,
            "case {case}: descent forest expected"
        );
    }
}

/// A domain too large for a `u16` code sends the whole `D*` down the
/// rows path, with identical labels; 65,536 values still fit.
#[test]
fn domains_past_u16_label_from_rows() {
    let mut rng = Rng::seed(99);
    let trees: Vec<Tree> = (0..8).map(|_| pooled_tree(&mut rng, 2, 4, false)).collect();
    let forest = Forest::new(trees, 0.0, 1.0, Objective::RegressionL2, 2);
    for (size, coded) in [(1usize << 16, true), ((1 << 16) + 1, false)] {
        let big: Vec<f64> = (0..size)
            .map(|k| k as f64 / size as f64 * 4.0 - 2.0)
            .collect();
        let domains = vec![big, vec![-0.5, 0.5]];
        let rows: Vec<Vec<f64>> = (0..3000)
            .map(|_| {
                domains
                    .iter()
                    .map(|dom| dom[rng.below(dom.len() as u64) as usize])
                    .collect()
            })
            .collect();
        let labeler = forest.domain_labeler(&domains, rows.len(), LabelScale::Response);
        assert_eq!(labeler.uses_codes(), coded, "{size} values");
        let codes: Vec<u16> = if coded {
            rows.iter()
                .zip(std::iter::repeat(&domains))
                .flat_map(|(x, doms)| {
                    x.iter()
                        .zip(doms)
                        .map(|(v, dom)| dom.iter().position(|d| d == v).unwrap() as u16)
                        .collect::<Vec<_>>()
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut got = vec![0.0; rows.len()];
        labeler
            .label(&codes, &rows, &mut got)
            .expect("no deadline armed");
        assert_eq!(bits(&got), bits(&walker_response(&forest, &rows)), "{size}");
        assert!(
            forest.layout_cached(),
            "{size}: rows path still rides the kernel"
        );
    }
}
