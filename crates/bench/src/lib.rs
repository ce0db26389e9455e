//! # gef-bench
//!
//! Experiment harness reproducing every table and figure of the GEF
//! paper. Each `xp_*` binary in `src/bin/` regenerates one artifact and
//! prints the same rows/series the paper reports. The paper's cost
//! claims are timed with [`timed_run_warmed`] in the binaries that
//! produce the matching results: `xp_fig6_table1` (*Gain-Path* is
//! `O(|T|)` while *H-Stat* is `O(N·|F'|²)`) and `xp_fig11_13` (one-off
//! GEF explain vs per-instance TreeSHAP/LIME).
//!
//! Every binary accepts:
//!
//! * `--quick` — a reduced-size smoke run (seconds);
//! * `--full`  — the paper's exact sizes (minutes);
//! * no flag   — a medium configuration that preserves the paper's
//!   qualitative shape at a fraction of the cost.

use gef_forest::{Forest, GbdtParams, GbdtTrainer, Objective};

pub mod chaos;

/// Run size selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSize {
    /// Smoke test: seconds.
    Quick,
    /// Medium: the default; preserves the paper's shape.
    Medium,
    /// The paper's exact sizes.
    Full,
}

impl RunSize {
    /// Parse from `std::env::args()` (`--quick` / `--full`).
    pub fn from_args() -> RunSize {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            RunSize::Quick
        } else if args.iter().any(|a| a == "--full") {
            RunSize::Full
        } else {
            RunSize::Medium
        }
    }

    /// Pick one of three values by run size.
    pub fn pick<T>(&self, quick: T, medium: T, full: T) -> T {
        match self {
            RunSize::Quick => quick,
            RunSize::Medium => medium,
            RunSize::Full => full,
        }
    }
}

/// GBDT hyper-parameters approximating the paper's tuned configuration
/// (1000 trees × 32 leaves, lr 0.01) scaled by run size. Shorter runs
/// use fewer, faster-learning trees — the forests stay accurate enough
/// for every qualitative result.
pub fn paper_gbdt_params(size: RunSize, objective: Objective) -> GbdtParams {
    let (num_trees, learning_rate) = match size {
        RunSize::Quick => (60, 0.1),
        RunSize::Medium => (300, 0.05),
        RunSize::Full => (1000, 0.01),
    };
    GbdtParams {
        num_trees,
        num_leaves: 32,
        learning_rate,
        min_data_in_leaf: 20,
        early_stopping_rounds: Some(50),
        objective,
        ..Default::default()
    }
}

/// Train a forest the way the paper does: 25% of the training split
/// held out for early stopping.
pub fn train_paper_forest(
    xs: &[Vec<f64>],
    ys: &[f64],
    size: RunSize,
    objective: Objective,
) -> Forest {
    let params = paper_gbdt_params(size, objective);
    let cut = xs.len() * 3 / 4;
    GbdtTrainer::new(params)
        .fit_with_valid(&xs[..cut], &ys[..cut], &xs[cut..], &ys[cut..])
        .expect("forest training succeeds on well-formed data")
}

/// A strategy-independent fidelity test set: instances sampled
/// uniformly (continuously) within each feature's ε-extended threshold
/// range, labelled by the forest. Evaluating every sampling strategy's
/// surrogate on this *common* set makes the Fig. 5 / Fig. 8 comparisons
/// apples-to-apples (a strategy's own grid-shaped `D*` test split would
/// otherwise reward coarse grids with artificially easy test points).
pub fn common_fidelity_set(forest: &Forest, n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let stats = gef_forest::importance::FeatureStats::collect(forest);
    let ranges: Vec<Option<(f64, f64)>> = stats
        .thresholds
        .iter()
        .map(|v| {
            if v.is_empty() {
                None
            } else {
                let lo = v[0];
                let hi = v[v.len() - 1];
                let eps = 0.05 * (hi - lo).max(lo.abs().max(1.0) * 0.01);
                Some((lo - eps, hi + eps))
            }
        })
        .collect();
    let mut rng = gef_trace::rng::Rng::seed(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            ranges
                .iter()
                .map(|r| match r {
                    Some((lo, hi)) => lo + (hi - lo) * rng.unit(),
                    None => 0.0,
                })
                .collect()
        })
        .collect();
    let ys = forest
        .predict_batch(&xs)
        .expect("benchmark labeling runs without a deadline");
    (xs, ys)
}

/// Wall-clock statistics for one measurement, over however many timed
/// iterations the helper ran. Every `BENCH_*.json` artifact records the
/// iteration count alongside the seconds so a reader can tell a
/// median-of-5 from a single cold run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median wall-clock seconds — the headline number (robust to a
    /// single descheduled iteration).
    pub median_s: f64,
    /// Fastest iteration — the best case the machine demonstrated.
    pub min_s: f64,
    /// Mean over iterations.
    pub mean_s: f64,
    /// Population standard deviation over iterations (0 when `iters`
    /// is 1) — the noise floor regression thresholds scale with.
    pub stddev_s: f64,
    /// Number of timed iterations aggregated (warmup excluded).
    pub iters: usize,
}

impl Timing {
    /// Aggregate raw per-iteration seconds. Panics on an empty slice.
    pub fn from_samples(samples: &[f64]) -> Timing {
        assert!(!samples.is_empty(), "Timing needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let n = sorted.len();
        let median_s = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        let mean_s = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|s| (s - mean_s).powi(2)).sum::<f64>() / n as f64;
        Timing {
            median_s,
            min_s: sorted[0],
            mean_s,
            stddev_s: var.sqrt(),
            iters: n,
        }
    }
}

/// Timed iterations per measurement for [`timed_run_warmed`]
/// (`GEF_BENCH_ITERS` override, default 3, minimum 1).
pub fn bench_iters() -> usize {
    std::env::var("GEF_BENCH_ITERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

/// Run `f` once under a gef-trace span named `span` and return its
/// result together with the measured [`Timing`] (`iters == 1`,
/// `stddev_s == 0`) — the shared timing helper for the `xp_*` binaries
/// (each used to roll its own `Instant` bookkeeping).
///
/// The span lands in the process-wide [`gef_trace`] registry, so a
/// `GEF_TRACE=json` run of any experiment gets the same per-phase
/// breakdown as the library pipeline itself.
///
/// The gef-par worker pool is spawned (idempotently) *before* the clock
/// starts, so the first parallel measurement in a process is not
/// charged for thread start-up.
pub fn timed_run<T>(span: &str, f: impl FnOnce() -> T) -> (T, Timing) {
    gef_par::prestart();
    let t0 = std::time::Instant::now();
    let out = gef_trace::time(span, f);
    let s = t0.elapsed().as_secs_f64();
    (
        out,
        Timing {
            median_s: s,
            min_s: s,
            mean_s: s,
            stddev_s: 0.0,
            iters: 1,
        },
    )
}

/// Like [`timed_run`], but runs `f` once untimed first (after
/// prestarting the pool) so caches, allocator arenas, and branch
/// predictors are warm, then times [`bench_iters`] iterations and
/// aggregates them (median / min / stddev) — the measurement protocol
/// of the `xp_regress` gate. Returns the last iteration's value.
pub fn timed_run_warmed<T>(span: &str, mut f: impl FnMut() -> T) -> (T, Timing) {
    gef_par::prestart();
    let _warmup = f();
    let iters = bench_iters();
    let mut samples = Vec::with_capacity(iters);
    let mut out = None;
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        out = Some(gef_trace::time(span, &mut f));
        samples.push(t0.elapsed().as_secs_f64());
    }
    (
        out.expect("bench_iters() >= 1"),
        Timing::from_samples(&samples),
    )
}

/// Format a wall-clock duration the way the experiment tables do.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.2}s")
}

/// Emit the collected telemetry for an experiment binary under `label`.
///
/// Honours `GEF_TRACE`: with `summary` the table goes to stderr (so it
/// never corrupts the experiment's stdout artifact), with `json` a
/// [`gef_trace::report::TelemetryReport`] lands in `results/telemetry/`.
/// Disabled mode does nothing — call it unconditionally at the end of
/// `main`.
pub fn emit_telemetry(label: &str) {
    let _ = gef_trace::global().emit(label);
}

/// Warn (on stderr, so stdout artifacts stay clean) when an explanation
/// was produced through graceful degradation, so experiment tables
/// can't silently mix degraded fits with clean ones. Returns the
/// degradation count.
pub fn note_degradations(label: &str, exp: &gef_core::GefExplanation) -> usize {
    let n = exp.degradations.len();
    if n > 0 {
        let actions: Vec<&str> = exp.degradations.iter().map(|d| d.action.label()).collect();
        eprintln!(
            "[{label}] explanation degraded {n} time(s): {}",
            actions.join(", ")
        );
    }
    n
}

/// Print a Markdown-ish table: header row, separator, data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        fmt_row(row);
    }
}

/// Format a float with 3 decimals (the paper's table precision).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_size_pick() {
        assert_eq!(RunSize::Quick.pick(1, 2, 3), 1);
        assert_eq!(RunSize::Medium.pick(1, 2, 3), 2);
        assert_eq!(RunSize::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn paper_params_match_paper_at_full() {
        let p = paper_gbdt_params(RunSize::Full, Objective::RegressionL2);
        assert_eq!(p.num_trees, 1000);
        assert_eq!(p.num_leaves, 32);
        assert!((p.learning_rate - 0.01).abs() < 1e-12);
    }

    #[test]
    fn timing_from_samples_stats() {
        let t = Timing::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(t.median_s, 2.0);
        assert_eq!(t.min_s, 1.0);
        assert_eq!(t.iters, 3);
        assert!((t.mean_s - 2.0).abs() < 1e-12);
        // Even count: median averages the middle pair.
        let e = Timing::from_samples(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(e.median_s, 2.5);
        // Single sample: no spread.
        let s = Timing::from_samples(&[0.5]);
        assert_eq!(s.stddev_s, 0.0);
        assert_eq!(s.iters, 1);
    }

    #[test]
    fn train_paper_forest_smoke() {
        let xs: Vec<Vec<f64>> = (0..400).map(|i| vec![(i % 37) as f64 / 37.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
        let f = train_paper_forest(&xs, &ys, RunSize::Quick, Objective::RegressionL2);
        assert!(!f.trees.is_empty());
        assert!((f.predict(&[0.5]) - 1.0).abs() < 0.2);
    }
}
