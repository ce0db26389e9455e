//! Parallel-determinism suite: the gef-par contract says every result
//! is **bit-identical** at any thread count.
//!
//! Each test runs the same workload at `threads = 1` (the serial
//! fallback path, no pool dispatch at all) and `threads = 4` (chunked
//! fan-out over the worker pool) and compares outputs with
//! [`f64::to_bits`] — not a tolerance. The chunk boundaries and ordered
//! reductions in gef-par are derived from input length alone, so any
//! difference here is a real nondeterminism bug.
//!
//! `gef_par::set_threads` is process-global, so every test serialises
//! behind one mutex and restores `threads = 1` on exit.

use gef::core::generate::generate;
use gef::data::synthetic::{make_d_prime, NUM_FEATURES};
use gef::gam::fit;
use gef::par;
use gef::prelude::*;
use std::sync::Mutex;

static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with exclusive ownership of the global thread-count setting,
/// restoring serial mode afterwards.
fn with_thread_control<T>(f: impl FnOnce() -> T) -> T {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out = f();
    par::set_threads(1);
    out
}

/// Run `f` at a given thread count (inside [`with_thread_control`]).
fn at_threads<T>(t: usize, f: impl FnOnce() -> T) -> T {
    par::set_threads(t);
    let out = f();
    par::set_threads(1);
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// A training set big enough that the histogram build and batched
/// prediction both clear their parallel-dispatch thresholds
/// (`rows × features ≥ 2^14`, `rows × trees ≥ 2^18`).
fn training_data() -> gef::data::Dataset {
    make_d_prime(4_000, 1)
}

fn train(data: &gef::data::Dataset) -> Forest {
    GbdtTrainer::new(GbdtParams {
        num_trees: 80,
        num_leaves: 16,
        learning_rate: 0.1,
        min_data_in_leaf: 10,
        ..Default::default()
    })
    .fit(&data.xs, &data.ys)
    .expect("training succeeds")
}

#[test]
fn forest_training_is_bit_identical_across_thread_counts() {
    with_thread_control(|| {
        let data = training_data();
        let serial = at_threads(1, || train(&data));
        let parallel = at_threads(4, || train(&data));
        assert_eq!(serial.trees.len(), parallel.trees.len());
        // Identical trees ⇒ identical predictions, bit for bit. Predict
        // serially on both so only training differs between the runs.
        let ps: Vec<f64> = data.xs.iter().map(|x| serial.predict(x)).collect();
        let pp: Vec<f64> = data.xs.iter().map(|x| parallel.predict(x)).collect();
        assert_eq!(bits(&ps), bits(&pp));
    });
}

#[test]
fn dstar_labeling_is_bit_identical_across_thread_counts() {
    with_thread_control(|| {
        let data = training_data();
        let forest = at_threads(1, || train(&data));
        // Per-row serial prediction is the reference semantics.
        let reference: Vec<f64> = data.xs.iter().map(|x| forest.predict(x)).collect();
        let serial = at_threads(1, || forest.predict_batch(&data.xs).unwrap());
        let parallel = at_threads(4, || forest.predict_batch(&data.xs).unwrap());
        assert_eq!(bits(&serial), bits(&reference));
        assert_eq!(bits(&parallel), bits(&reference));

        // D* itself: 8,000 rows × 80 trees run on the pool at 4 threads,
        // labelled block by block from domain codes.
        let profile = gef::core::selection::ForestProfile::analyze(&forest);
        let domains =
            gef::core::generate::build_domains(&profile, &[0, 1, 2], SamplingStrategy::EquiSize(8))
                .unwrap();
        assert!(forest
            .domain_labeler(&domains, 8_000, gef::forest::LabelScale::Response)
            .uses_codes());
        let dstar = |t| at_threads(t, || generate(&forest, &domains, 8_000, false, 21).unwrap());
        let (one, four) = (dstar(1), dstar(4));
        assert_eq!(one.codes(), four.codes());
        assert_eq!(bits(one.labels()), bits(four.labels()));
        let reference: Vec<f64> = one
            .rows(0..one.len())
            .iter()
            .map(|x| forest.predict(x))
            .collect();
        assert_eq!(bits(one.labels()), bits(&reference));
    });
}

/// With a fault armed, the forest labels `D*` on the walker, one row at
/// a time materialized from its codes (see `Forest::domain_labeler`).
/// A site armed on no hit changes no label, so the walker's `D*` must
/// equal the kernel's from code tables, codes and labels, at 1 and 4
/// threads.
#[cfg(feature = "fault-injection")]
#[test]
fn dstar_walker_route_from_codes_matches_code_tables() {
    use gef::core::faults::{self, Trigger};
    with_thread_control(|| {
        let data = training_data();
        let forest = at_threads(1, || train(&data));
        let profile = gef::core::selection::ForestProfile::analyze(&forest);
        let domains =
            gef::core::generate::build_domains(&profile, &[0, 1, 2], SamplingStrategy::EquiSize(8))
                .unwrap();
        let labeler = || forest.domain_labeler(&domains, 8_000, gef::forest::LabelScale::Response);
        assert!(labeler().uses_codes());
        let tables = at_threads(4, || generate(&forest, &domains, 8_000, false, 21).unwrap());
        for t in [1, 4] {
            faults::reset();
            faults::arm(faults::FOREST_PREDICT_NAN, Trigger::Hits(Vec::new()));
            assert!(!labeler().uses_codes(), "an armed fault walks");
            let walked = at_threads(t, || generate(&forest, &domains, 8_000, false, 21).unwrap());
            let hits = faults::hit_count(faults::FOREST_PREDICT_NAN);
            faults::reset();
            assert_eq!(hits, 8_000, "threads={t}: one walker call per row");
            assert_eq!(walked.codes(), tables.codes(), "threads={t}");
            assert_eq!(bits(walked.labels()), bits(tables.labels()), "threads={t}");
        }
    });
}

/// Fit `spec` at 1 and 4 threads and require the selected λ, its GCV
/// score and edf, and every prediction to agree bit for bit, batched
/// and per row.
fn assert_fit_bit_identical(spec: &GamSpec, xs: &[Vec<f64>], ys: &[f64]) {
    let serial = at_threads(1, || fit(spec, xs, ys).unwrap());
    let parallel = at_threads(4, || fit(spec, xs, ys).unwrap());
    assert_eq!(
        serial.summary().lambda.to_bits(),
        parallel.summary().lambda.to_bits(),
        "λ selection must not depend on thread count"
    );
    assert_eq!(
        serial.summary().gcv.to_bits(),
        parallel.summary().gcv.to_bits()
    );
    assert_eq!(
        serial.summary().edf.to_bits(),
        parallel.summary().edf.to_bits()
    );
    let ps = at_threads(1, || serial.predict_batch(xs).unwrap());
    let pp = at_threads(4, || parallel.predict_batch(xs).unwrap());
    assert_eq!(bits(&ps), bits(&pp));
    let per_row: Vec<f64> = xs.iter().map(|x| serial.predict(x)).collect();
    assert_eq!(bits(&ps), bits(&per_row));
}

#[test]
fn gcv_lambda_selection_is_bit_identical_across_thread_counts() {
    with_thread_control(|| {
        let xs: Vec<Vec<f64>> = (0..600)
            .map(|i| {
                vec![
                    (i % 97) as f64 / 97.0,
                    (i % 41) as f64 / 41.0,
                    (i % 23) as f64 / 23.0,
                    (i % 3) as f64,
                ]
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (6.0 * x[0]).sin() + x[1] * x[1])
            .collect();
        let splines = vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::spline(1, (0.0, 1.0)),
        ];
        assert_fit_bit_identical(&GamSpec::regression(splines.clone()), &xs, &ys);

        // Gaussian with a tensor term.
        let mut with_tensor = splines.clone();
        with_tensor.push(TermSpec::tensor((1, 2), ((0.0, 1.0), (0.0, 1.0))));
        let ys_te: Vec<f64> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| y + 2.0 * (x[1] - 0.5) * (x[2] - 0.5))
            .collect();
        assert_fit_bit_identical(&GamSpec::regression(with_tensor), &xs, &ys_te);

        // Logit: every λ runs its own PIRLS.
        let labels: Vec<f64> = ys.iter().map(|&y| f64::from(y > 0.3)).collect();
        assert_fit_bit_identical(&GamSpec::classification(splines), &xs, &labels);

        // A factor and a degree-2 tensor beside the cubic tensor: every
        // Gram block shape, the generic one included, Gaussian and logit.
        let mixed = vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::factor(3, vec![0.0, 1.0, 2.0]),
            TermSpec::tensor((1, 2), ((0.0, 1.0), (0.0, 1.0))),
            TermSpec::Tensor {
                features: (0, 2),
                num_basis: (6, 5),
                ranges: ((0.0, 1.0), (0.0, 1.0)),
                degree: 2,
            },
        ];
        let ys_mixed: Vec<f64> = xs
            .iter()
            .zip(&ys_te)
            .map(|(x, y)| y + 0.5 * x[3] - x[0] * x[2])
            .collect();
        assert_fit_bit_identical(&GamSpec::regression(mixed.clone()), &xs, &ys_mixed);
        let labels: Vec<f64> = ys_mixed.iter().map(|&y| f64::from(y > 0.8)).collect();
        assert_fit_bit_identical(&GamSpec::classification(mixed), &xs, &labels);
    });
}

#[test]
fn full_pipeline_explanation_is_bit_identical_across_thread_counts() {
    with_thread_control(|| {
        let data = training_data();
        let forest = at_threads(1, || train(&data));
        let explain = || {
            GefExplainer::new(GefConfig {
                num_univariate: NUM_FEATURES,
                num_interactions: 1,
                sampling: SamplingStrategy::EquiSize(400),
                n_samples: 6_000,
                seed: 3,
                ..Default::default()
            })
            .explain(&forest)
            .expect("pipeline succeeds")
        };
        let serial = at_threads(1, explain);
        let parallel = at_threads(4, explain);

        assert_eq!(serial.selected_features, parallel.selected_features);
        assert_eq!(
            serial.gam.summary().lambda.to_bits(),
            parallel.gam.summary().lambda.to_bits()
        );
        assert_eq!(
            serial.fidelity_rmse.to_bits(),
            parallel.fidelity_rmse.to_bits()
        );
        assert_eq!(serial.fidelity_r2.to_bits(), parallel.fidelity_r2.to_bits());
        // The degradation ladder (none expected here, but compared
        // structurally either way) must also be thread-count-invariant.
        assert_eq!(serial.degradations, parallel.degradations);
        let ps: Vec<f64> = data.xs.iter().map(|x| serial.predict(x)).collect();
        let pp: Vec<f64> = data.xs.iter().map(|x| parallel.predict(x)).collect();
        assert_eq!(bits(&ps), bits(&pp));
    });
}

/// A panicking task inside a four-thread region must come back as the
/// typed `GefError::WorkerPanicked` (the runtime never re-raises the
/// payload), and the pool must stay usable — and bit-identical across
/// thread counts — afterwards.
#[test]
fn worker_panic_surfaces_typed_error_and_pool_stays_deterministic() {
    use gef::core::GefError;

    with_thread_control(|| {
        let err = at_threads(4, || {
            par::for_each_index(64, par::Options::default(), |i| {
                assert!(i != 23, "injected worker panic");
            })
            .map_err(GefError::from)
            .expect_err("the panicking region must fail")
        });
        match &err {
            GefError::WorkerPanicked(payload) => assert!(
                payload.contains("injected worker panic"),
                "payload should carry the panic message: {payload:?}"
            ),
            other => panic!("expected WorkerPanicked, got: {other}"),
        }

        // The pool is not poisoned: the same forest workload still runs
        // and stays bit-identical between serial and four threads.
        let data = training_data();
        let forest = at_threads(1, || train(&data));
        let serial = at_threads(1, || forest.predict_batch(&data.xs).unwrap());
        let parallel = at_threads(4, || forest.predict_batch(&data.xs).unwrap());
        assert_eq!(bits(&serial), bits(&parallel));
    });
}

/// Acceptance check for the run budget: with the `pirls.stall` site
/// wedging every PIRLS iteration (a 5ms sleep each), a hard deadline
/// must abort the run with the typed `DeadlineExceeded` — never a hang
/// — at any thread count. The 60ms deadline sits below the stall cost
/// of even a minimal successful fit (13 λ candidates × ≥1 stalled
/// iteration × 5ms = 65ms of pure sleep), so no machine can outrun it.
#[cfg(feature = "fault-injection")]
#[test]
fn pirls_stall_hits_the_hard_deadline_instead_of_hanging() {
    use gef::core::faults::{self, Trigger};
    use gef::core::{GefError, RunBudget};
    use std::time::{Duration, Instant};

    // A binary-classification forest so the logit PIRLS loop (where the
    // stall site lives) actually runs.
    let xs: Vec<Vec<f64>> = (0..600)
        .map(|i| vec![(i % 41) as f64 / 41.0, (i % 13) as f64 / 13.0])
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| f64::from(x[0] + 0.5 * x[1] > 0.7))
        .collect();
    with_thread_control(|| {
        let forest = at_threads(1, || {
            GbdtTrainer::new(GbdtParams {
                num_trees: 30,
                num_leaves: 6,
                learning_rate: 0.2,
                min_data_in_leaf: 5,
                objective: Objective::BinaryLogistic,
                ..Default::default()
            })
            .fit(&xs, &ys)
            .unwrap()
        });
        for t in [1, 4] {
            faults::reset();
            faults::arm(faults::PIRLS_STALL, Trigger::Always);
            let budget = RunBudget {
                hard_deadline: Some(Duration::from_millis(60)),
                ..RunBudget::default()
            };
            let start = Instant::now();
            let result = at_threads(t, || {
                let _armed = budget.enter();
                GefExplainer::new(GefConfig {
                    num_univariate: 2,
                    num_interactions: 1,
                    n_samples: 1_500,
                    spline_basis: 10,
                    tensor_basis: 5,
                    ..Default::default()
                })
                .explain(&forest)
            });
            let elapsed = start.elapsed();
            faults::reset();
            match result {
                Err(GefError::DeadlineExceeded { .. }) => {}
                Err(other) => panic!("threads={t}: expected DeadlineExceeded, got: {other}"),
                Ok(_) => panic!("threads={t}: the stalled run outran its deadline"),
            }
            assert!(
                elapsed < Duration::from_secs(20),
                "threads={t}: deadline abort must not hang (took {elapsed:?})"
            );
        }
    });
}

/// With a fault armed, gef-par falls back to serial dispatch (fault
/// triggers are hit-counted, so ordering must not depend on worker
/// interleaving): the whole run — hit counts, fired counts, and the
/// resulting degradation ladder — must be identical at any thread
/// count.
#[cfg(feature = "fault-injection")]
#[test]
fn fault_ordering_is_invariant_across_thread_counts() {
    use gef::core::faults::{self, Trigger};

    // PIRLS only runs for logit links, so use a binary-classification
    // forest (same shape as the robustness suite's).
    let xs: Vec<Vec<f64>> = (0..600)
        .map(|i| vec![(i % 41) as f64 / 41.0, (i % 13) as f64 / 13.0])
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| f64::from(x[0] + 0.5 * x[1] > 0.7))
        .collect();
    with_thread_control(|| {
        let forest = at_threads(1, || {
            GbdtTrainer::new(GbdtParams {
                num_trees: 30,
                num_leaves: 6,
                learning_rate: 0.2,
                min_data_in_leaf: 5,
                objective: Objective::BinaryLogistic,
                ..Default::default()
            })
            .fit(&xs, &ys)
            .unwrap()
        });
        let run = || {
            faults::reset();
            faults::arm(faults::PIRLS_ITER, Trigger::StageBelow(1));
            let exp = GefExplainer::new(GefConfig {
                num_univariate: 2,
                num_interactions: 1,
                n_samples: 1_500,
                spline_basis: 10,
                tensor_basis: 5,
                ..Default::default()
            })
            .explain(&forest)
            .expect("pipeline degrades gracefully");
            let counts = (
                faults::hit_count(faults::PIRLS_ITER),
                faults::fired_count(faults::PIRLS_ITER),
            );
            faults::reset();
            (exp, counts)
        };
        let (serial, serial_counts) = at_threads(1, run);
        let (parallel, parallel_counts) = at_threads(4, run);

        assert_eq!(serial_counts, parallel_counts, "fault hit/fire counts");
        assert!(serial_counts.1 > 0, "the armed fault must actually fire");
        assert_eq!(serial.degradations, parallel.degradations);
        assert!(!serial.degradations.is_empty(), "ladder must engage");
        assert_eq!(
            serial.gam.summary().lambda.to_bits(),
            parallel.gam.summary().lambda.to_bits()
        );
        assert_eq!(
            serial.fidelity_rmse.to_bits(),
            parallel.fidelity_rmse.to_bits()
        );
    });
}
