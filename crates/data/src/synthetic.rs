//! The paper's synthetic generators (Sec. 4.1).
//!
//! * [`g_prime`] — five univariate generator functions on `[0, 1]⁵`,
//!   each bounded roughly in `[-1, 2]` so none dominates;
//! * [`h_interaction`] — the Gaussian-bump pairwise interaction;
//! * [`g_second`] — `g'` plus injected interactions over a set `Π` of
//!   feature pairs;
//! * [`make_d_prime`] / [`make_d_second`] — the datasets `D'` and `D''`
//!   (10,000 instances in `[0,1]⁵`, per-component `N(0, 0.1²)` noise);
//! * [`sigmoid_example`] — the steep sigmoid used to illustrate the
//!   sampling strategies in Fig. 3;
//! * [`all_interaction_triples`] — the 120 3-subsets of the
//!   `C(5,2) = 10` candidate pairs used in the interaction-detection
//!   experiment (Fig. 6 / Table 1).

use crate::dataset::{Dataset, Task};
use crate::sample_normal;
use gef_trace::rng::Rng;

/// Number of features in the synthetic datasets.
pub const NUM_FEATURES: usize = 5;

/// Evaluate the `i`-th (0-based) univariate generator at `v`.
///
/// Mirrors the paper's `g'` components: linear, fast sine, steep
/// sigmoid, arctan-minus-sine, and hyperbola.
pub fn generator(i: usize, v: f64) -> f64 {
    match i {
        0 => v,
        1 => (20.0 * v).sin(),
        2 => {
            let e = (50.0 * (v - 0.5)).exp();
            e / (e + 1.0)
        }
        3 => ((10.0 * v).atan() - (10.0 * v).sin()) / 2.0,
        4 => 2.0 / (v + 1.0),
        _ => panic!("generator index {i} out of range (0..5)"),
    }
}

/// The paper's base target function `g'(x)` on `[0,1]⁵`.
pub fn g_prime(x: &[f64]) -> f64 {
    (0..NUM_FEATURES).map(|i| generator(i, x[i])).sum()
}

/// The paper's pairwise interaction bump
/// `h(a, b) = 2·exp(−((a−0.5)² + (b−0.5)²) / (2·√(2π)))`.
pub fn h_interaction(a: f64, b: f64) -> f64 {
    let da = a - 0.5;
    let db = b - 0.5;
    let norm = (2.0 * std::f64::consts::PI).sqrt();
    2.0 * (-(da * da + db * db) / (2.0 * norm)).exp()
}

/// `g''_Π(x) = g'(x) + Σ_{(i,j)∈Π} h(x_i, x_j)` with 0-based pairs.
pub fn g_second(x: &[f64], pairs: &[(usize, usize)]) -> f64 {
    g_prime(x)
        + pairs
            .iter()
            .map(|&(i, j)| h_interaction(x[i], x[j]))
            .sum::<f64>()
}

/// All `C(5,2) = 10` candidate feature pairs, ordered lexicographically.
pub fn candidate_pairs() -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(10);
    for i in 0..NUM_FEATURES {
        for j in i + 1..NUM_FEATURES {
            out.push((i, j));
        }
    }
    out
}

/// All `C(10,3) = 120` triples of candidate pairs — the paper evaluates
/// interaction detection across every one of them.
pub fn all_interaction_triples() -> Vec<[(usize, usize); 3]> {
    let pairs = candidate_pairs();
    let mut out = Vec::with_capacity(120);
    for a in 0..pairs.len() {
        for b in a + 1..pairs.len() {
            for c in b + 1..pairs.len() {
                out.push([pairs[a], pairs[b], pairs[c]]);
            }
        }
    }
    out
}

/// Sample `n` instances uniformly in `[0,1]⁵` and label with `g'` plus
/// per-component Gaussian noise (`σ = 0.1` on each of the 5 generators,
/// as in the paper).
pub fn make_d_prime(n: usize, seed: u64) -> Dataset {
    make_with(n, seed, &[])
}

/// Like [`make_d_prime`] but with interactions `Π` injected (`D''`).
/// Interaction components also receive `N(0, 0.1²)` noise each.
pub fn make_d_second(n: usize, pairs: &[(usize, usize)], seed: u64) -> Dataset {
    make_with(n, seed, pairs)
}

fn make_with(n: usize, seed: u64, pairs: &[(usize, usize)]) -> Dataset {
    let _span = gef_trace::Span::enter("data.synthetic");
    gef_trace::counter!("data.rows_generated").add(n as u64);
    let mut rng = Rng::seed(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let x: Vec<f64> = (0..NUM_FEATURES).map(|_| rng.unit()).collect();
        let mut y = 0.0;
        for (i, &v) in x.iter().enumerate() {
            y += generator(i, v) + 0.1 * sample_normal(&mut rng);
        }
        for &(i, j) in pairs {
            y += h_interaction(x[i], x[j]) + 0.1 * sample_normal(&mut rng);
        }
        xs.push(x);
        ys.push(y);
    }
    let names = (1..=NUM_FEATURES).map(|i| format!("x{i}")).collect();
    Dataset::new(xs, ys, names, Task::Regression).expect("consistent shapes")
}

/// The steep sigmoid `y = e^{50(x−0.5)} / (e^{50(x−0.5)} + 1)` used in
/// Fig. 3 to illustrate how the sampling strategies treat a threshold
/// distribution concentrated in the high-variability region.
pub fn sigmoid_example(x: f64) -> f64 {
    generator(2, x)
}

/// Dataset of `n` points `(x, sigmoid_example(x))` on `[0, 1]` (no
/// noise) — the forest trained on this produces the threshold
/// distribution shown in Fig. 3.
pub fn make_sigmoid_dataset(n: usize, seed: u64) -> Dataset {
    let _span = gef_trace::Span::enter("data.synthetic");
    gef_trace::counter!("data.rows_generated").add(n as u64);
    let mut rng = Rng::seed(seed);
    let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.unit()]).collect();
    let ys = xs.iter().map(|x| sigmoid_example(x[0])).collect();
    Dataset::new(xs, ys, vec!["x".into()], Task::Regression).expect("consistent shapes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_bounded() {
        // The paper bounds each component roughly within [-1, 2].
        for i in 0..NUM_FEATURES {
            for k in 0..=100 {
                let v = k as f64 / 100.0;
                let y = generator(i, v);
                assert!((-1.05..=2.05).contains(&y), "g{i}({v}) = {y}");
            }
        }
    }

    #[test]
    fn g_prime_is_sum_of_generators() {
        let x = [0.3, 0.7, 0.5, 0.1, 0.9];
        let sum: f64 = (0..5).map(|i| generator(i, x[i])).sum();
        assert!((g_prime(&x) - sum).abs() < 1e-12);
    }

    #[test]
    fn interaction_peaks_at_center() {
        let center = h_interaction(0.5, 0.5);
        assert!((center - 2.0).abs() < 1e-12);
        assert!(h_interaction(0.0, 0.0) < center);
        assert!(h_interaction(1.0, 0.2) < center);
        // Symmetric.
        assert_eq!(h_interaction(0.2, 0.8), h_interaction(0.8, 0.2));
    }

    /// fANOVA split of `h` on a 400×400 midpoint grid: `h` minus its row
    /// and column means plus the grand mean is the pure-interaction part,
    /// the only part a pair ranking can detect. The bump is so wide that
    /// this part is tiny, which is why the planted pairs of `D''` are
    /// nearly invisible (EXPERIMENTS.md "Known failures").
    #[test]
    fn interaction_bump_is_almost_additive() {
        const N: usize = 400;
        let grid: Vec<f64> = (0..N).map(|i| (i as f64 + 0.5) / N as f64).collect();
        let h: Vec<f64> = grid
            .iter()
            .flat_map(|&a| grid.iter().map(move |&b| h_interaction(a, b)))
            .collect();
        let mean = |v: &mut dyn Iterator<Item = f64>| v.sum::<f64>() / N as f64;
        let rows: Vec<f64> = (0..N)
            .map(|i| mean(&mut h[i * N..][..N].iter().copied()))
            .collect();
        let cols: Vec<f64> = (0..N)
            .map(|j| mean(&mut (0..N).map(|i| h[i * N + j])))
            .collect();
        let grand = rows.iter().sum::<f64>() / N as f64;
        let cells = (N * N) as f64;
        let var_h = h.iter().map(|v| (v - grand).powi(2)).sum::<f64>() / cells;
        let var_pure = (0..N * N)
            .map(|k| (h[k] - rows[k / N] - cols[k % N] + grand).powi(2))
            .sum::<f64>()
            / cells;
        let close = |got: f64, want: f64| (got / want - 1.0).abs() <= 0.02;
        assert!(close(var_pure.sqrt(), 4.24e-4), "sd {:e}", var_pure.sqrt());
        assert!(
            close(var_pure / var_h, 1.09e-4),
            "share {:e}",
            var_pure / var_h
        );
        // Three planted pairs against D'''s label noise: eight N(0, 0.1²)
        // terms per row.
        let noise = 8.0 * 0.1 * 0.1;
        assert!(
            close(3.0 * var_pure / noise, 6.7e-6),
            "{:e}",
            3.0 * var_pure / noise
        );
    }

    #[test]
    fn g_second_adds_bumps() {
        let x = [0.5; 5];
        let pairs = [(0, 1), (2, 3)];
        assert!((g_second(&x, &pairs) - (g_prime(&x) + 4.0)).abs() < 1e-12);
        assert_eq!(g_second(&x, &[]), g_prime(&x));
    }

    #[test]
    fn combinatorics_counts() {
        assert_eq!(candidate_pairs().len(), 10);
        let triples = all_interaction_triples();
        assert_eq!(triples.len(), 120);
        // All triples distinct.
        let mut seen = std::collections::HashSet::new();
        for t in &triples {
            assert!(seen.insert(*t));
        }
    }

    #[test]
    fn datasets_have_right_shape_and_noise() {
        let d = make_d_prime(2000, 7);
        assert_eq!(d.len(), 2000);
        assert_eq!(d.num_features(), 5);
        assert!(d
            .xs
            .iter()
            .all(|r| r.iter().all(|&v| (0.0..=1.0).contains(&v))));
        // Residual vs true function should have sd ≈ 0.1·√5 ≈ 0.224.
        let resid: Vec<f64> =
            d.xs.iter()
                .zip(&d.ys)
                .map(|(x, y)| y - g_prime(x))
                .collect();
        let var = resid.iter().map(|r| r * r).sum::<f64>() / resid.len() as f64;
        assert!((var.sqrt() - 0.2236).abs() < 0.02, "sd={}", var.sqrt());
    }

    #[test]
    fn d_second_contains_interaction_signal() {
        let pairs = [(0, 1), (0, 4), (1, 4)];
        let d = make_d_second(3000, &pairs, 11);
        let resid_noise: Vec<f64> =
            d.xs.iter()
                .zip(&d.ys)
                .map(|(x, y)| y - g_second(x, &pairs))
                .collect();
        let var = resid_noise.iter().map(|r| r * r).sum::<f64>() / resid_noise.len() as f64;
        // 8 noise components (5 generators + 3 interactions), each σ=0.1.
        assert!((var.sqrt() - (8f64).sqrt() * 0.1).abs() < 0.02);
    }

    #[test]
    fn datasets_deterministic_by_seed() {
        let a = make_d_prime(50, 3);
        let b = make_d_prime(50, 3);
        assert_eq!(a.xs, b.xs);
        assert_eq!(a.ys, b.ys);
        let c = make_d_prime(50, 4);
        assert_ne!(a.xs, c.xs);
    }

    #[test]
    fn sigmoid_example_shape() {
        assert!(sigmoid_example(0.0) < 1e-8);
        assert!((sigmoid_example(0.5) - 0.5).abs() < 1e-12);
        assert!(sigmoid_example(1.0) > 1.0 - 1e-8);
        let d = make_sigmoid_dataset(100, 1);
        assert_eq!(d.num_features(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn generator_panics_out_of_range() {
        generator(5, 0.5);
    }
}
