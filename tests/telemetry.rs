//! Integration test for the gef-trace instrumentation of the full
//! pipeline: a complete `GefExplainer::explain` run must emit all five
//! stage spans with nonzero durations, and the PIRLS iteration count
//! recorded by gef-trace must agree with the `FitSummary`.
//!
//! Also proves the observation-only contract: with tracing *and*
//! profiling off the pipeline records nothing and its numeric outputs
//! are bit-identical to a fully instrumented run, and the disabled
//! span fast path is cheap enough to leave in hot loops.

use gef_core::{GefConfig, GefExplainer};
use gef_forest::{Forest, GbdtParams, GbdtTrainer};
use std::sync::Mutex;

/// Tracing/profiling state is process-global and the tests in this
/// binary toggle it; serialize them.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// The five pipeline stages, in execution order.
const STAGES: [&str; 5] = [
    "pipeline.selection",
    "pipeline.sampling",
    "pipeline.generate",
    "pipeline.interactions",
    "pipeline.gam_fit",
];

#[test]
fn explain_emits_all_stage_spans_and_consistent_pirls_count() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Enable tracing for this process and start from a clean registry.
    gef_trace::set_enabled(true);
    gef_trace::global().reset();

    let xs: Vec<Vec<f64>> = (0..900)
        .map(|i| {
            vec![
                (i % 47) as f64 / 47.0,
                (i % 31) as f64 / 31.0,
                (i % 13) as f64 / 13.0,
            ]
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 2.0 * x[0] - x[1] + 0.5 * x[0] * x[2])
        .collect();
    let forest = GbdtTrainer::new(GbdtParams {
        num_trees: 30,
        num_leaves: 8,
        learning_rate: 0.2,
        min_data_in_leaf: 5,
        ..Default::default()
    })
    .fit(&xs, &ys)
    .unwrap();

    let exp = GefExplainer::new(GefConfig {
        num_univariate: 3,
        num_interactions: 1,
        n_samples: 3000,
        ..Default::default()
    })
    .explain(&forest)
    .unwrap();

    let t = gef_trace::global();

    // Every stage span fired exactly once with a nonzero duration.
    // Stages run nested under `pipeline.explain`, so match on the leaf
    // segment of the hierarchical span path.
    for stage in STAGES {
        assert_eq!(t.span_leaf_count(stage), 1, "span {stage} should fire once");
        assert!(
            t.span_leaf_total_ns(stage) > 0,
            "span {stage} has zero duration"
        );
    }
    // The wrapper span covers the whole run.
    assert_eq!(t.span_count("pipeline.explain"), 1);
    let stage_sum: u64 = STAGES.iter().map(|s| t.span_leaf_total_ns(s)).sum();
    assert!(t.span_total_ns("pipeline.explain") >= stage_sum);

    // The always-on StageTimings agree with the trace (same stages ran).
    let timings = exp.provenance.stage_timings;
    assert!(timings.generate_ns > 0);
    assert!(timings.gam_fit_ns > 0);
    assert!(timings.total_ns() <= t.span_total_ns("pipeline.explain"));

    // FitSummary's PIRLS iteration count matches the recorded gauge.
    let recorded = t.gauge_value("gam.pirls_iters").expect("gauge recorded");
    assert_eq!(recorded, exp.gam.summary().pirls_iters as f64);

    // Forest labeling was counted: one D* row costs at least one node
    // visit per tree queried.
    assert!(t.counter_value("forest.nodes_visited") > 0);
    assert_eq!(t.counter_value("core.dstar_rows"), 3000);

    // Per-lambda GCV events carry the model-selection trail.
    let gcv_events = t.events_named("gam.gcv");
    assert!(!gcv_events.is_empty(), "no gam.gcv events recorded");
    for ev in &gcv_events {
        let has = |k: &str| ev.fields.iter().any(|(n, _)| n == k);
        assert!(has("lambda") && has("gcv") && has("edf") && has("deviance"));
    }

    // The JSON snapshot is valid and mentions every stage span.
    let report = t.snapshot("telemetry-integration");
    let json = report.to_json();
    gef_trace::json::validate(&json).expect("snapshot JSON must be valid");
    for stage in STAGES {
        assert!(json.contains(stage), "JSON report missing {stage}");
    }
    // Timing aggregates now carry the full percentile ladder.
    assert!(json.contains("\"p50_ns\":"));
    assert!(json.contains("\"p95_ns\":"));
    assert!(json.contains("\"p99_ns\":"));
}

/// A small deterministic forest + config pair shared by the
/// observation-only tests below.
fn small_problem() -> (Forest, GefConfig) {
    let xs: Vec<Vec<f64>> = (0..600)
        .map(|i| vec![(i % 41) as f64 / 41.0, (i % 17) as f64 / 17.0])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0] * 1.5 - 0.7 * x[1]).collect();
    let forest = GbdtTrainer::new(GbdtParams {
        num_trees: 20,
        num_leaves: 8,
        learning_rate: 0.2,
        min_data_in_leaf: 5,
        ..Default::default()
    })
    .fit(&xs, &ys)
    .unwrap();
    let config = GefConfig {
        num_univariate: 2,
        num_interactions: 1,
        n_samples: 2000,
        seed: 11,
        ..Default::default()
    };
    (forest, config)
}

/// With `GEF_TRACE` and `GEF_PROF` both off the pipeline must record
/// *nothing* — no telemetry, no timeline events — and produce outputs
/// bit-identical to a run with both fully on: the instrumentation
/// observes, it never participates.
#[test]
fn disabled_observability_records_nothing_and_outputs_are_bit_identical() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (forest, config) = small_problem();
    let probe: Vec<Vec<f64>> = (0..50)
        .map(|i| vec![i as f64 / 50.0, 1.0 - i as f64 / 50.0])
        .collect();

    // Everything off, clean slates.
    gef_trace::set_enabled(false);
    gef_trace::timeline::set_prof_enabled(false);
    gef_trace::global().reset();
    gef_trace::timeline::reset();
    let events_before = gef_trace::timeline::event_count();
    let off = GefExplainer::new(config.clone()).explain(&forest).unwrap();
    assert_eq!(
        gef_trace::timeline::event_count(),
        events_before,
        "disabled profiling must not record timeline events"
    );
    let t = gef_trace::global();
    assert_eq!(t.span_count("pipeline.explain"), 0);
    assert!(t.events_named("gam.gcv").is_empty());

    // Everything on: tracing, timeline, the works.
    gef_trace::set_enabled(true);
    gef_trace::timeline::set_prof_enabled(true);
    let on = GefExplainer::new(config).explain(&forest).unwrap();
    assert!(
        gef_trace::timeline::event_count() > 0,
        "enabled profiling should record timeline events"
    );

    // Numeric outputs must agree to the bit.
    assert_eq!(off.fidelity_rmse.to_bits(), on.fidelity_rmse.to_bits());
    assert_eq!(off.fidelity_r2.to_bits(), on.fidelity_r2.to_bits());
    for x in &probe {
        assert_eq!(
            off.gam.predict(x).to_bits(),
            on.gam.predict(x).to_bits(),
            "GAM prediction differs between instrumented and dark runs"
        );
    }

    gef_trace::timeline::set_prof_enabled(false);
    gef_trace::set_enabled(false);
    gef_trace::global().reset();
    gef_trace::timeline::reset();
}

/// The disabled span path must stay cheap enough to leave on every hot
/// loop: one early-out branch, no allocation, no clock read. A million
/// disabled spans in a debug build finishing inside two seconds bounds
/// the fast path at ~2µs apiece — two orders of magnitude above its
/// real cost, so the assertion only fires if the fast path regresses to
/// doing real work (allocating, taking a lock, reading the clock).
#[test]
fn disabled_span_fast_path_is_cheap() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gef_trace::set_enabled(false);
    gef_trace::timeline::set_prof_enabled(false);
    let t0 = std::time::Instant::now();
    let mut acc = 0u64;
    for i in 0..1_000_000u64 {
        acc = acc.wrapping_add(gef_trace::time("micro.disabled_span", || i));
    }
    let elapsed = t0.elapsed();
    assert_eq!(acc, 499_999_500_000);
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "1M disabled spans took {elapsed:?} — the disabled fast path has regressed"
    );
}
