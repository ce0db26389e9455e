//! Bench-regression gate: a quick fixed-seed suite timed against a
//! committed baseline (see DESIGN.md, "Profiling and the regression
//! gate").
//!
//! ```text
//! xp_regress [--ci] [--write-baseline] [--baseline <path>] [--trajectory <path>]
//! ```
//!
//! Four phases — forest training, D* labeling, the λ-grid GCV search
//! (logit, so it sweeps PIRLS), and an end-to-end pipeline explanation —
//! each measured with [`gef_bench::timed_run_warmed`] (warmup + median
//! of [`gef_bench::bench_iters`] iterations) at `GEF_THREADS` 1 and 4
//! in-process. Measurement keys are `<phase>@t<threads>`.
//!
//! * Default / `--ci`: compare against `BENCH_baseline.json`. A phase
//!   regresses when its median slows down relative to baseline by more
//!   than a noise-aware threshold (see [`rel_limit`]). Exits 1 naming
//!   every regressed phase, 0 otherwise. `--ci` uses the reduced
//!   (`--quick`) sizes.
//! * `--write-baseline`: (re)write the baseline from this run instead
//!   of gating. Do this on the reference machine after an intentional
//!   performance change.
//!
//! The gate only fires when the stored machine profile (logical cores,
//! OS, arch) matches this host — on any other machine it warns, skips
//! the comparison, and exits 0, so the committed baseline never fails
//! someone else's laptop.
//!
//! Every run (gating or not) appends an entry to
//! `BENCH_trajectory.json`, building a commit-over-commit timing series.
//! With `GEF_PROF=1` the run also exports a Chrome-trace timeline under
//! `results/profiles/`. Telemetry is collected per thread pass and
//! emitted as `xp_regress_t1` / `xp_regress_t4`: the two passes run the
//! same seeded work, so `telemetry_diff` must find their reports equal
//! on every deterministic field.
//!
//! Fault injection: when built with `--features fault-injection`, the
//! `GEF_FAULTS` variable is armed before measuring (e.g.
//! `GEF_FAULTS=pirls.stall=always` slows the GCV search enough to trip
//! the gate — the self-test `ci.sh` could run to prove the gate fires).

use gef_bench::{bench_iters, timed_run_warmed, train_paper_forest, RunSize, Timing};
use gef_core::{GefConfig, GefExplainer, SamplingStrategy};
use gef_data::synthetic::{make_d_prime, NUM_FEATURES};
use gef_forest::Objective;
use gef_gam::{fit, GamSpec, TermSpec};
use gef_trace::json::{parse, JsonValue, JsonWriter};

// With `--features alloc-track`, every run is also allocation-profiled:
// spans attribute alloc/byte deltas, and GEF_PROF traces gain a
// heap-in-use counter track. Timings under the tracking allocator are
// *not* comparable to a baseline recorded without it — keep the feature
// off for gating runs.
#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: gef_trace::mem::TrackingAlloc = gef_trace::mem::TrackingAlloc;

const BASELINE_SCHEMA: &str = "gef-bench/regress-baseline/v1";
const TRAJECTORY_SCHEMA: &str = "gef-bench/regress-trajectory/v1";

/// Thread counts every phase is measured at (in-process via
/// [`gef_par::set_threads`], matching the `ci.sh` test matrix).
const THREADS: [usize; 2] = [1, 4];

struct Measurement {
    key: String,
    timing: Timing,
}

struct Machine {
    logical_cores: u64,
    os: String,
    arch: String,
}

impl Machine {
    fn current() -> Machine {
        Machine {
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter().position(|a| a == name).map(|p| {
            args[p + 1..]
                .first()
                .expect("flag requires a value")
                .clone()
        })
    };
    let write_baseline = flag("--write-baseline");
    let size = if flag("--ci") {
        RunSize::Quick
    } else {
        RunSize::from_args()
    };
    let baseline_path = opt("--baseline").unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let trajectory_path =
        opt("--trajectory").unwrap_or_else(|| "BENCH_trajectory.json".to_string());

    #[cfg(feature = "fault-injection")]
    match gef_core::faults::arm_from_env() {
        Ok(0) => {}
        Ok(n) => eprintln!("xp_regress: armed {n} fault site(s) from GEF_FAULTS"),
        Err(e) => {
            eprintln!("xp_regress: {e}");
            std::process::exit(2);
        }
    }
    #[cfg(not(feature = "fault-injection"))]
    if std::env::var("GEF_FAULTS").is_ok() {
        eprintln!("xp_regress: GEF_FAULTS set but the fault-injection feature is off (ignored)");
    }

    let machine = Machine::current();
    println!(
        "# xp_regress ({:?} run, {} iteration(s) per phase, {} logical core(s))",
        size,
        bench_iters(),
        machine.logical_cores
    );

    let measurements = run_suite(size);
    for m in &measurements {
        println!(
            "{:<20} median {:.4}s  min {:.4}s  stddev {:.4}s  (n={})",
            m.key, m.timing.median_s, m.timing.min_s, m.timing.stddev_s, m.timing.iters
        );
    }

    if let Some(path) = gef_trace::timeline::emit("xp_regress") {
        println!("wrote chrome trace: {}", path.display());
    }

    let mut gate = "pass";
    let mut regressions: Vec<String> = Vec::new();
    if write_baseline {
        std::fs::write(
            &baseline_path,
            render_baseline(size, &machine, &measurements),
        )
        .unwrap_or_else(|e| panic!("write {baseline_path}: {e}"));
        println!("wrote {baseline_path}");
        gate = "baseline";
    } else {
        match check_against_baseline(&baseline_path, size, &machine, &measurements) {
            GateOutcome::Pass => println!("regression gate: PASS"),
            GateOutcome::Skipped(reason) => {
                gate = "skipped";
                eprintln!("regression gate skipped: {reason}");
            }
            GateOutcome::Regressed(names) => {
                gate = "fail";
                regressions = names;
            }
        }
    }

    append_trajectory(
        &trajectory_path,
        size,
        &machine,
        &measurements,
        gate,
        &regressions,
    );
    println!("appended to {trajectory_path}");

    if gate == "fail" {
        for r in &regressions {
            eprintln!("REGRESSION: {r}");
        }
        std::process::exit(1);
    }
}

/// Time the four-phase suite at each sweep thread count, emitting one
/// telemetry report per thread count.
fn run_suite(size: RunSize) -> Vec<Measurement> {
    // Shared inputs, built once so every thread count measures identical
    // work.
    let data = make_d_prime(size.pick(2_000, 8_000, 20_000), 1);
    let label_n = size.pick(20_000, 80_000, 300_000);
    let gam_n = size.pick(2_000, 8_000, 20_000);

    let mut out = Vec::new();
    for &t in &THREADS {
        gef_par::set_threads(t);
        gef_par::prestart();
        gef_trace::global().reset();

        let (forest, train) = timed_run_warmed("xp.regress.forest_train", || {
            train_paper_forest(&data.xs, &data.ys, size, Objective::RegressionL2)
        });
        out.push(Measurement {
            key: format!("forest_train@t{t}"),
            timing: train,
        });

        let (label_xs, labels) = gef_bench::common_fidelity_set(&forest, label_n, 7);
        let (_, label) = timed_run_warmed("xp.regress.dstar_label", || {
            forest.predict_batch(&label_xs).expect("no deadline armed")
        });
        // Kernel-phase expectation: a batch this size must have ridden
        // the flattened kernel (the whole point of the dstar_label
        // phase). A silent fallback to the recursive walker would keep
        // timings honest but measure the wrong code path — fail loudly.
        // (Armed fault schedules intentionally force the walker, so the
        // expectation only applies to clean runs.)
        if !gef_trace::fault::any_armed() && !forest.layout_cached() {
            eprintln!(
                "EXPECTATION FAILED: dstar_label@t{t} did not use the flattened kernel \
                 (no layout cached after {} rows)",
                label_xs.len()
            );
            std::process::exit(1);
        }
        out.push(Measurement {
            key: format!("dstar_label@t{t}"),
            timing: label,
        });

        // Logit GCV search: binary labels from the forest's median
        // prediction, λ-grid over spline terms. Runs the full PIRLS
        // solver per candidate, so a `pirls.stall` fault (or a real
        // PIRLS slowdown) lands here.
        let gam_xs = &label_xs[..gam_n.min(label_xs.len())];
        let cut = {
            let mut sorted = labels[..gam_xs.len()].to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("forest outputs are finite"));
            sorted[sorted.len() / 2]
        };
        let gam_ys: Vec<f64> = labels[..gam_xs.len()]
            .iter()
            .map(|&y| if y > cut { 1.0 } else { 0.0 })
            .collect();
        let terms: Vec<TermSpec> = (0..NUM_FEATURES)
            .map(|f| {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for x in gam_xs {
                    lo = lo.min(x[f]);
                    hi = hi.max(x[f]);
                }
                TermSpec::spline(f, (lo, hi))
            })
            .collect();
        let spec = GamSpec::classification(terms);
        let (_, gcv) = timed_run_warmed("xp.regress.gcv_search", || {
            fit(&spec, gam_xs, &gam_ys).expect("logit GAM fit succeeds")
        });
        out.push(Measurement {
            key: format!("gcv_search@t{t}"),
            timing: gcv,
        });

        let (_, e2e) = timed_run_warmed("xp.regress.explain_e2e", || {
            GefExplainer::new(GefConfig {
                num_univariate: NUM_FEATURES,
                num_interactions: 1,
                sampling: SamplingStrategy::EquiSize(size.pick(200, 800, 3_000)),
                n_samples: size.pick(3_000, 12_000, 40_000),
                seed: 3,
                ..Default::default()
            })
            .explain(&forest)
            .expect("pipeline succeeds")
        });
        out.push(Measurement {
            key: format!("explain_e2e@t{t}"),
            timing: e2e,
        });
        gef_bench::emit_telemetry(&format!("xp_regress_t{t}"));
    }
    gef_par::set_threads(1);
    out
}

/// Relative-slowdown limit for one phase: generous enough that scheduler
/// noise never trips it (50% floor), scaled up when either run was
/// measurably noisy (4 standard deviations relative to the baseline
/// median).
fn rel_limit(base_median: f64, base_stddev: f64, cur_stddev: f64) -> f64 {
    let noise = 4.0 * base_stddev.max(cur_stddev) / base_median.max(1e-9);
    noise.max(0.5)
}

enum GateOutcome {
    Pass,
    Skipped(String),
    Regressed(Vec<String>),
}

fn check_against_baseline(
    path: &str,
    size: RunSize,
    machine: &Machine,
    measurements: &[Measurement],
) -> GateOutcome {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => {
            return GateOutcome::Skipped(format!(
                "no baseline at {path} (run `xp_regress --write-baseline` to create one)"
            ))
        }
    };
    let base = match parse(&text) {
        Ok(v) => v,
        Err(e) => return GateOutcome::Skipped(format!("unparseable baseline {path}: {e}")),
    };

    let base_size = base
        .get("run_size")
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_default();
    if base_size != format!("{size:?}") {
        return GateOutcome::Skipped(format!(
            "run-size mismatch (baseline {base_size:?}, this run {size:?})"
        ));
    }

    let bm = |key: &str| base.get("machine").and_then(|m| m.get(key).cloned());
    let base_cores = bm("logical_cores").and_then(|v| v.as_f64()).unwrap_or(-1.0) as i64;
    let base_os = bm("os")
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_default();
    let base_arch = bm("arch")
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_default();
    if base_cores != machine.logical_cores as i64
        || base_os != machine.os
        || base_arch != machine.arch
    {
        return GateOutcome::Skipped(format!(
            "machine profile mismatch (baseline {base_cores} cores/{base_os}/{base_arch}, \
             host {} cores/{}/{})",
            machine.logical_cores, machine.os, machine.arch
        ));
    }

    let empty: Vec<JsonValue> = Vec::new();
    let base_measurements = base
        .get("measurements")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or(empty);
    let mut regressions = Vec::new();
    for m in measurements {
        let Some(entry) = base_measurements
            .iter()
            .find(|e| e.get("key").and_then(JsonValue::as_str) == Some(m.key.as_str()))
        else {
            eprintln!("xp_regress: no baseline entry for {} (not gated)", m.key);
            continue;
        };
        let num = |k: &str| entry.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
        let base_median = num("median_s");
        let base_stddev = num("stddev_s");
        // NaN-safe: a missing or non-positive baseline median is not
        // gateable.
        if !(base_median.is_finite() && base_median > 0.0) {
            continue;
        }
        let rel = m.timing.median_s / base_median - 1.0;
        let limit = rel_limit(base_median, base_stddev, m.timing.stddev_s);
        if rel > limit {
            regressions.push(format!(
                "{}: {:.4}s vs baseline {:.4}s (+{:.0}%, limit +{:.0}%)",
                m.key,
                m.timing.median_s,
                base_median,
                rel * 100.0,
                limit * 100.0
            ));
        }
    }
    if regressions.is_empty() {
        GateOutcome::Pass
    } else {
        GateOutcome::Regressed(regressions)
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

fn write_machine(w: &mut JsonWriter, machine: &Machine) {
    w.key("machine");
    w.begin_object();
    w.field_u64("logical_cores", machine.logical_cores);
    w.field_str("os", &machine.os);
    w.field_str("arch", &machine.arch);
    w.end_object();
}

fn write_measurements(w: &mut JsonWriter, measurements: &[Measurement]) {
    w.key("measurements");
    w.begin_array();
    for m in measurements {
        w.begin_object();
        w.field_str("key", &m.key);
        w.field_f64("median_s", m.timing.median_s);
        w.field_f64("min_s", m.timing.min_s);
        w.field_f64("stddev_s", m.timing.stddev_s);
        w.field_u64("iters", m.timing.iters as u64);
        w.end_object();
    }
    w.end_array();
}

fn render_baseline(size: RunSize, machine: &Machine, measurements: &[Measurement]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", BASELINE_SCHEMA);
    w.field_u64("created_unix_ms", unix_ms());
    w.field_str("run_size", &format!("{size:?}"));
    write_machine(&mut w, machine);
    write_measurements(&mut w, measurements);
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

/// Most recent entries kept per machine profile in the trajectory file.
/// The file is a commit-over-commit series that every CI run appends
/// to; without a cap it grows without bound and drowns the recent
/// history the series exists to show.
const TRAJECTORY_KEEP: usize = 100;

/// Machine-profile key of one trajectory entry (cores/os/arch, the same
/// triple the gate matches baselines on). Entries written before the
/// machine block existed collapse onto one shared key.
fn profile_key(entry: &JsonValue) -> String {
    let m = |k: &str| -> String {
        entry
            .get("machine")
            .and_then(|m| m.get(k).cloned())
            .map(|v| match v {
                JsonValue::String(s) => s,
                JsonValue::Number(n) => format!("{n}"),
                _ => String::new(),
            })
            .unwrap_or_default()
    };
    format!("{}/{}/{}", m("logical_cores"), m("os"), m("arch"))
}

/// Drop all but the most recent [`TRAJECTORY_KEEP`] entries *per machine
/// profile*, preserving order. Appended entries are already in time
/// order, so "most recent" is "last in the array"; scanning from the
/// end keeps exactly the newest N of each profile.
fn prune_trajectory(entries: &mut Vec<JsonValue>) {
    let mut kept_per_profile: Vec<(String, usize)> = Vec::new();
    let mut keep = vec![false; entries.len()];
    for (i, e) in entries.iter().enumerate().rev() {
        let key = profile_key(e);
        let count = match kept_per_profile.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => n,
            None => {
                kept_per_profile.push((key, 0));
                &mut kept_per_profile.last_mut().expect("just pushed").1
            }
        };
        if *count < TRAJECTORY_KEEP {
            *count += 1;
            keep[i] = true;
        }
    }
    let dropped = keep.iter().filter(|k| !**k).count();
    if dropped > 0 {
        let mut i = 0;
        entries.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        eprintln!(
            "xp_regress: pruned {dropped} trajectory entr{} (keeping the newest \
             {TRAJECTORY_KEEP} per machine profile)",
            if dropped == 1 { "y" } else { "ies" }
        );
    }
}

/// Append one entry to the trajectory file (read-modify-write through
/// [`gef_trace::json`]; a missing or corrupt file starts a fresh one),
/// then prune to the newest [`TRAJECTORY_KEEP`] entries per machine
/// profile.
fn append_trajectory(
    path: &str,
    size: RunSize,
    machine: &Machine,
    measurements: &[Measurement],
    gate: &str,
    regressions: &[String],
) {
    // Render the new entry with JsonWriter, then splice it into the
    // parsed document as a JsonValue.
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("created_unix_ms", unix_ms());
    w.field_str("run_size", &format!("{size:?}"));
    w.field_str("gate", gate);
    write_machine(&mut w, machine);
    w.key("regressions");
    w.begin_array();
    for r in regressions {
        w.value_str(r);
    }
    w.end_array();
    write_measurements(&mut w, measurements);
    w.end_object();
    let entry = parse(&w.finish()).expect("JsonWriter output parses");

    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| parse(&t).ok())
        .filter(|v| matches!(v, JsonValue::Object(_)))
        .unwrap_or_else(|| {
            JsonValue::Object(vec![
                (
                    "schema".to_string(),
                    JsonValue::String(TRAJECTORY_SCHEMA.to_string()),
                ),
                ("entries".to_string(), JsonValue::Array(Vec::new())),
            ])
        });
    if let JsonValue::Object(pairs) = &mut doc {
        match pairs.iter_mut().find(|(k, _)| k == "entries") {
            Some((_, JsonValue::Array(entries))) => {
                entries.push(entry);
                prune_trajectory(entries);
            }
            Some((_, other)) => *other = JsonValue::Array(vec![entry]),
            None => pairs.push(("entries".to_string(), JsonValue::Array(vec![entry]))),
        }
    }
    let mut out = doc.to_json();
    out.push('\n');
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
}
