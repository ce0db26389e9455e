//! `gef-trace` — zero-dependency structured telemetry for the GEF workspace.
//!
//! Every crate in the workspace (pipeline orchestration, forest training,
//! GAM fitting, data generation) reports into one process-wide registry
//! ([`Telemetry`], reachable via [`global`]). The registry offers four
//! primitive kinds:
//!
//! * **Spans** — hierarchical wall-clock timers. [`Span::enter`] returns an
//!   RAII guard; nested spans are recorded under a `/`-joined path
//!   (`pipeline.gam_fit/gam.gcv_grid`). Durations land in log-linear
//!   [`hist::Histogram`]s, so each site reports count, total, mean,
//!   p50/p95/p99, and min/max.
//! * **Counters** — monotonically increasing `u64`s behind [`Counter`]
//!   handles (one relaxed atomic add per increment). Use the [`counter!`]
//!   macro for a cached per-callsite handle.
//! * **Gauges** — last-value-wins `f64`s for convergence-style facts
//!   (`gam.pirls_iters`, final deviance, …).
//! * **Events** — a bounded log of named records with numeric fields
//!   (per-λ GCV evaluations, per-boosting-round losses, …), kept in a
//!   [`recorder`] ring of [`EVENT_CAP`] records.
//!
//! # Enabling
//!
//! Telemetry is **off by default** and every instrumentation call first
//! checks [`enabled`] (a single relaxed atomic load). It turns on via the
//! `GEF_TRACE` environment variable:
//!
//! | `GEF_TRACE` | effect |
//! |---|---|
//! | unset, `""`, `0`, `off` | disabled (default) |
//! | `1`, `on`, `summary` | collect, print a human-readable table on [`Telemetry::emit`] |
//! | `json` | collect, write a [`report::TelemetryReport`] JSON file on [`Telemetry::emit`] |
//!
//! Tests and embedding applications can override the environment with
//! [`set_mode`] / [`set_enabled`].
//!
//! Compiling with the `noop` cargo feature pins [`enabled`] to a constant
//! `false`, letting the optimizer delete instrumentation from hot paths
//! entirely.
//!
//! Orthogonal to the aggregate registry, the [`recorder`] module holds
//! the crate's one record type and one ring type: the *always-on*
//! per-thread flight recorder that incident dumps drain on failure
//! (gated only by the `noop` feature), the per-thread `GEF_PROF` profile
//! rings that [`timeline`] exports as Chrome Trace Event Format JSON,
//! and the event log above. [`ctx`] holds the one per-thread [`ctx::Scope`]
//! stack (run budget, trace id, span path), and [`mem`] the allocation
//! counters and the `alloc-track` feature's tracking allocator. [`json`]
//! is the workspace's one JSON stack (writer, parser, typed reads) and
//! [`rng`] its one seeded random-number generator.
//!
//! # Example
//!
//! ```
//! gef_trace::set_enabled(true);
//! {
//!     let _span = gef_trace::Span::enter("gam.fit");
//!     gef_trace::counter!("gam.pirls_iterations").add(7);
//!     gef_trace::global().event("gam.gcv", &[("lambda", 0.1), ("gcv", 1.23)]);
//! }
//! let report = gef_trace::global().snapshot("example");
//! assert_eq!(report.spans[0].name, "gam.fit");
//! gef_trace::set_enabled(false);
//! # gef_trace::global().reset();
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod ctx;
pub mod env;
pub mod fault;
pub mod hash;
pub mod hist;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod rng;
pub mod timeline;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use hist::Histogram;
use recorder::{Kind, Record, Ring, Sinks};
use report::TelemetryReport;

/// Capacity of the [`Telemetry`] event log; beyond it the oldest events
/// are overwritten (and counted as dropped).
pub const EVENT_CAP: usize = 10_000;

/// Nanoseconds since the crate's one monotonic epoch (first use wins):
/// the clock behind every record timestamp and budget deadline.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Lock `m`, recovering the data from a poisoned lock: telemetry must
/// never turn a panic elsewhere into a second one.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the tracer does with collected data on [`Telemetry::emit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Collection disabled; instrumentation is a single atomic load.
    Disabled,
    /// Collect and print a human-readable summary table to stderr.
    Summary,
    /// Collect and write a JSON [`report::TelemetryReport`].
    Json,
}

// 0 = uninitialised (read GEF_TRACE on first use), then Mode + 1.
static MODE: AtomicU8 = AtomicU8::new(0);

fn mode_from_env() -> Mode {
    match std::env::var("GEF_TRACE") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "false" => Mode::Disabled,
            "json" => Mode::Json,
            _ => Mode::Summary,
        },
        Err(_) => Mode::Disabled,
    }
}

fn encode(m: Mode) -> u8 {
    match m {
        Mode::Disabled => 1,
        Mode::Summary => 2,
        Mode::Json => 3,
    }
}

/// Current tracing mode (resolving `GEF_TRACE` on first call).
pub fn mode() -> Mode {
    if cfg!(feature = "noop") {
        return Mode::Disabled;
    }
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Disabled,
        2 => Mode::Summary,
        3 => Mode::Json,
        _ => {
            let m = mode_from_env();
            MODE.store(encode(m), Ordering::Relaxed);
            m
        }
    }
}

/// Force a tracing mode, overriding `GEF_TRACE`.
pub fn set_mode(m: Mode) {
    MODE.store(encode(m), Ordering::Relaxed);
}

/// Convenience wrapper around [`set_mode`]: `true` → [`Mode::Summary`],
/// `false` → [`Mode::Disabled`].
pub fn set_enabled(on: bool) {
    set_mode(if on { Mode::Summary } else { Mode::Disabled });
}

/// Whether instrumentation is currently collecting.
///
/// With the `noop` cargo feature this is a constant `false` and every
/// guarded instrumentation block compiles away.
#[inline(always)]
pub fn enabled() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    // Fast path: one relaxed load once initialised.
    match MODE.load(Ordering::Relaxed) {
        0 => mode() != Mode::Disabled,
        1 => false,
        _ => true,
    }
}

/// Handle to a named monotonically increasing counter.
///
/// Cloning is cheap (an `Arc` bump); increments are relaxed atomic adds and
/// become no-ops while tracing is disabled.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one (no-op while disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Process-wide telemetry registry.
///
/// Obtain the shared instance with [`global`]. All methods are thread-safe;
/// stores are keyed by name in `BTreeMap`s so snapshots and reports are
/// deterministically ordered.
pub struct Telemetry {
    start: Mutex<Instant>,
    spans: Mutex<BTreeMap<String, Histogram>>,
    values: Mutex<BTreeMap<String, Histogram>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    events: Mutex<Ring>,
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-wide [`Telemetry`] registry.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::new)
}

impl Telemetry {
    fn new() -> Self {
        Telemetry {
            start: Mutex::new(Instant::now()),
            spans: Mutex::new(BTreeMap::new()),
            values: Mutex::new(BTreeMap::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            events: Mutex::new(Ring::new(EVENT_CAP)),
        }
    }

    /// Clear all collected data (counters are reset to zero but existing
    /// [`Counter`] handles stay valid). Intended for tests and for
    /// reusing one process for several independently reported runs.
    pub fn reset(&self) {
        *lock(&self.start) = Instant::now();
        lock(&self.spans).clear();
        lock(&self.values).clear();
        for c in lock(&self.counters).values() {
            c.store(0, Ordering::Relaxed);
        }
        lock(&self.gauges).clear();
        lock(&self.events).clear();
    }

    /// Record a completed span duration under `path` (no-op while disabled).
    pub fn record_span_ns(&self, path: &str, ns: u64) {
        if !enabled() {
            return;
        }
        lock(&self.spans)
            .entry(path.to_string())
            .or_default()
            .record(ns);
    }

    /// Record a raw value into the named histogram (no-op while disabled).
    ///
    /// Use for non-span distributions: batch sizes, per-tree leaf counts,
    /// accumulated sub-phase nanoseconds, ….
    pub fn record_value(&self, name: &str, value: u64) {
        if !enabled() {
            return;
        }
        lock(&self.values)
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Get (or create) the named counter. Prefer the [`counter!`] macro on
    /// hot paths — it caches the handle per call site.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(Arc::clone(
            lock(&self.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        ))
    }

    /// Add `n` to the named counter (no-op while disabled). Convenience
    /// for cold paths; hot paths should hold a [`Counter`].
    pub fn add(&self, name: &str, n: u64) {
        if !enabled() {
            return;
        }
        self.counter(name).add(n);
    }

    /// Set a last-value-wins gauge (no-op while disabled).
    pub fn gauge(&self, name: &str, value: f64) {
        if !enabled() {
            return;
        }
        lock(&self.gauges).insert(name.to_string(), value);
    }

    /// Record an event with numeric fields. One [`Record`] goes to every
    /// ring that is on: this log while tracing is [`enabled`] (the
    /// newest [`EVENT_CAP`] are kept), the thread's profile ring as an
    /// instant while profiling ([`timeline::prof_enabled`]), and the
    /// always-on [`recorder`] regardless of `GEF_TRACE` / `GEF_PROF`.
    pub fn event(&self, name: &str, fields: &[(&str, f64)]) {
        let to = Sinks {
            recent: recorder::active(),
            profile: timeline::prof_enabled(),
            log: enabled(),
        };
        if let Some(r) = recorder::append(to, Kind::Event, name, fields, None) {
            lock(&self.events).push(r);
        }
    }

    /// Total nanoseconds recorded for the exact span path, or 0.
    pub fn span_total_ns(&self, path: &str) -> u64 {
        lock(&self.spans).get(path).map_or(0, |h| h.sum())
    }

    /// Number of completions recorded for the exact span path.
    pub fn span_count(&self, path: &str) -> u64 {
        lock(&self.spans).get(path).map_or(0, |h| h.count())
    }

    /// Total nanoseconds recorded for every span whose *leaf* segment
    /// (the part after the last `/`) equals `leaf`, regardless of where
    /// in the hierarchy the span was entered.
    pub fn span_leaf_total_ns(&self, leaf: &str) -> u64 {
        lock(&self.spans)
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .map(|(_, h)| h.sum())
            .sum()
    }

    /// Number of completions recorded for every span whose leaf segment
    /// equals `leaf` (see [`Telemetry::span_leaf_total_ns`]).
    pub fn span_leaf_count(&self, leaf: &str) -> u64 {
        lock(&self.spans)
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .map(|(_, h)| h.count())
            .sum()
    }

    /// Current value of the named counter, or 0 if never created.
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.counters)
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Current value of the named gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        lock(&self.gauges).get(name).copied()
    }

    /// Retained events whose name matches exactly, in insertion order.
    pub fn events_named(&self, name: &str) -> Vec<Record> {
        lock(&self.events)
            .records
            .iter()
            .filter(|e| e.name == name)
            .cloned()
            .collect()
    }

    /// Snapshot everything collected so far into a serializable
    /// [`TelemetryReport`] labelled `label`.
    pub fn snapshot(&self, label: &str) -> TelemetryReport {
        let wall_ns = lock(&self.start).elapsed().as_nanos() as u64;
        let spans = lock(&self.spans)
            .iter()
            .map(|(name, h)| report::SpanStats::from_hist(name, h))
            .collect();
        let histograms = lock(&self.values)
            .iter()
            .map(|(name, h)| report::HistStats::from_hist(name, h))
            .collect();
        let counters = lock(&self.counters)
            .iter()
            .map(|(name, c)| report::CounterStat {
                name: name.clone(),
                value: c.load(Ordering::Relaxed),
            })
            .collect();
        let mut gauges: Vec<report::GaugeStat> = lock(&self.gauges)
            .iter()
            .map(|(name, v)| report::GaugeStat {
                name: name.clone(),
                value: *v,
            })
            .collect();
        if mem::tracking() {
            // Surface the allocator totals whenever the tracking
            // allocator is feeding them (the `mem.*` namespace is
            // excluded from CI determinism diffs, like `par.*`).
            let m = mem::stats();
            gauges.push(report::GaugeStat {
                name: "mem.allocs_total".to_string(),
                value: m.allocs as f64,
            });
            gauges.push(report::GaugeStat {
                name: "mem.bytes_allocated_total".to_string(),
                value: m.bytes_allocated as f64,
            });
            gauges.push(report::GaugeStat {
                name: "mem.in_use_bytes".to_string(),
                value: m.in_use_bytes as f64,
            });
            gauges.push(report::GaugeStat {
                name: "mem.peak_bytes".to_string(),
                value: m.peak_bytes as f64,
            });
        }
        let log = lock(&self.events);
        TelemetryReport {
            schema_version: report::SCHEMA_VERSION,
            label: label.to_string(),
            created_unix_ms: report::unix_millis(),
            wall_ns,
            spans,
            histograms,
            counters,
            gauges,
            events: log.records.iter().cloned().collect(),
            events_dropped: log.overwritten,
        }
    }

    /// Act on collected data according to the current [`mode`]:
    ///
    /// * [`Mode::Disabled`] — do nothing, return `None`.
    /// * [`Mode::Summary`] — print [`TelemetryReport::summary`] to stderr.
    /// * [`Mode::Json`] — write `results/telemetry/<label>.json` (creating
    ///   directories) and return its path.
    pub fn emit(&self, label: &str) -> Option<std::path::PathBuf> {
        match mode() {
            Mode::Disabled => None,
            Mode::Summary => {
                eprintln!("{}", self.snapshot(label).summary());
                None
            }
            Mode::Json => match self.write_report(label) {
                Ok(path) => {
                    eprintln!("gef-trace: wrote {}", path.display());
                    Some(path)
                }
                Err(e) => {
                    eprintln!("gef-trace: failed to write report: {e}");
                    None
                }
            },
        }
    }

    /// Write the current snapshot as JSON under `results/telemetry/`.
    pub fn write_report(&self, label: &str) -> std::io::Result<std::path::PathBuf> {
        self.write_report_to(std::path::Path::new("results/telemetry"), label)
    }

    /// Write the current snapshot as JSON as `<dir>/<label>.json`
    /// (`label` is sanitised to `[A-Za-z0-9._-]`).
    pub fn write_report_to(
        &self,
        dir: &std::path::Path,
        label: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let safe: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.join(format!("{safe}.json"));
        std::fs::write(&path, self.snapshot(label).to_json())?;
        Ok(path)
    }
}

/// RAII wall-clock timer. Created with [`Span::enter`]; the elapsed time is
/// recorded into the global registry when the guard drops.
///
/// Spans nest per thread: a span entered while another is open on the same
/// thread is recorded under `parent_path/name` (the path lives in the
/// thread's [`ctx::Scope`], so gef-par tasks nest under the span that
/// dispatched them). While tracing, profiling and the recorder are all
/// off, `enter` takes no clock reading and `drop` records nothing.
///
/// ```
/// gef_trace::set_enabled(true);
/// {
///     let outer = gef_trace::Span::enter("pipeline.gam_fit");
///     assert_eq!(outer.path(), "pipeline.gam_fit");
///     let inner = gef_trace::Span::enter("gam.gcv_grid");
///     assert_eq!(inner.path(), "pipeline.gam_fit/gam.gcv_grid");
/// } // both guards drop here, recording their durations
/// assert_eq!(gef_trace::global().span_count("pipeline.gam_fit/gam.gcv_grid"), 1);
/// gef_trace::set_enabled(false);
/// # gef_trace::global().reset();
/// ```
#[must_use = "a span records on drop — bind it with `let _span = …`"]
pub struct Span {
    /// The span name, kept for the end record (empty when nothing
    /// records this span).
    name: String,
    /// Rings that took the begin record and take the end record: the
    /// flight [`recorder`] (always on unless suppressed or `noop`) and
    /// the profile ring ([`timeline::prof_enabled`] at enter).
    rings: Sinks,
    /// Aggregate recording ([`enabled`]) was on at enter.
    trace: bool,
    /// Start time and full path, while tracing or profiling.
    timed: Option<(Instant, Arc<str>)>,
    /// The scope entry that makes this span the parent of new ones.
    _scope: Option<ctx::ScopeGuard>,
    /// Allocation counters at enter, when the tracking allocator is
    /// installed — drop records the span-attributed deltas.
    mem0: Option<mem::MemStats>,
}

impl Span {
    /// Open a span named `name` (e.g. `"pipeline.gam_fit"`).
    ///
    /// The flight [`recorder`] always logs the begin/end pair. Aggregate
    /// tracing ([`enabled`]) records the duration histogram at the
    /// hierarchical path; timeline profiling ([`timeline::prof_enabled`])
    /// puts the begin/end pair in this thread's profile ring.
    pub fn enter(name: &str) -> Span {
        let trace = enabled();
        let rings = Sinks {
            recent: recorder::active(),
            profile: timeline::prof_enabled(),
            log: false,
        };
        let recorded = rings.recent || rings.profile;
        if recorded {
            recorder::append(rings, Kind::SpanBegin, name, &[], None);
        }
        let (mut timed, mut scope, mut mem0) = (None, None, None);
        if trace || rings.profile {
            let path: Arc<str> = match ctx::with_current(|s| s.path.clone()) {
                Some(parent) => format!("{parent}/{name}").into(),
                None => name.into(),
            };
            scope = Some(ctx::push_with(|s| s.path = Some(Arc::clone(&path))));
            mem0 = mem::tracking().then(mem::stats);
            timed = Some((Instant::now(), path));
        }
        Span {
            name: if recorded {
                name.to_string()
            } else {
                String::new()
            },
            rings,
            trace,
            timed,
            _scope: scope,
            mem0,
        }
    }

    /// The full hierarchical path this span records under (empty while
    /// tracing and profiling are off).
    pub fn path(&self) -> &str {
        self.timed.as_ref().map_or("", |(_, path)| path)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, path)) = &self.timed {
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(m0) = self.mem0 {
                let m1 = mem::stats();
                if self.trace {
                    let g = global();
                    g.record_value(
                        &format!("mem.allocs/{path}"),
                        m1.allocs.saturating_sub(m0.allocs),
                    );
                    g.record_value(
                        &format!("mem.bytes/{path}"),
                        m1.bytes_allocated.saturating_sub(m0.bytes_allocated),
                    );
                    let peak_rise = m1.peak_bytes.saturating_sub(m0.peak_bytes);
                    if peak_rise > 0 {
                        g.record_value(&format!("mem.peak_rise/{path}"), peak_rise);
                    }
                }
                if self.rings.profile {
                    timeline::counter_sample("heap.in_use_bytes", m1.in_use_bytes as f64);
                }
            }
            if self.trace {
                global().record_span_ns(path, ns);
            }
        }
        if self.rings.recent || self.rings.profile {
            recorder::append(self.rings, Kind::SpanEnd, &self.name, &[], None);
        }
    }
}

/// Time a closure under a span: `gef_trace::time("forest.train", || fit(..))`.
pub fn time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = Span::enter(name);
    f()
}

/// Per-call-site cached [`Counter`] handle:
///
/// ```
/// gef_trace::set_enabled(true);
/// gef_trace::counter!("forest.nodes_visited").add(12);
/// assert_eq!(gef_trace::global().counter_value("forest.nodes_visited"), 12);
/// gef_trace::set_enabled(false);
/// # gef_trace::global().reset();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __GEF_TRACE_COUNTER: ::std::sync::OnceLock<$crate::Counter> =
            ::std::sync::OnceLock::new();
        __GEF_TRACE_COUNTER.get_or_init(|| $crate::global().counter($name))
    }};
}

// Tracing and profiling state is process-global, and enabling either
// (set_enabled / timeline::set_prof_enabled) affects instrumentation
// running on *any* thread — e.g. Telemetry::event mirrors onto the
// timeline while profiling is on. In-crate tests that touch that state
// therefore all serialise on this one lock.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LOCK;

    fn with_tracing<T>(f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        global().reset();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        global().reset();
        out
    }

    #[test]
    fn spans_nest_into_paths() {
        with_tracing(|| {
            {
                let outer = Span::enter("outer");
                assert_eq!(outer.path(), "outer");
                let inner = Span::enter("inner");
                assert_eq!(inner.path(), "outer/inner");
            }
            assert_eq!(global().span_count("outer"), 1);
            assert_eq!(global().span_count("outer/inner"), 1);
            // Sibling after both closed is top-level again.
            {
                let _s = Span::enter("sibling");
            }
            assert_eq!(global().span_count("sibling"), 1);
        });
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        global().reset();
        set_enabled(false);
        {
            let span = Span::enter("ghost");
            assert_eq!(span.path(), "");
        }
        global().add("ghost.counter", 5);
        global().gauge("ghost.gauge", 1.0);
        global().event("ghost.event", &[("x", 1.0)]);
        global().record_value("ghost.hist", 9);
        assert_eq!(global().span_count("ghost"), 0);
        assert_eq!(global().counter_value("ghost.counter"), 0);
        assert_eq!(global().gauge_value("ghost.gauge"), None);
        assert!(global().events_named("ghost.event").is_empty());
        global().reset();
    }

    #[test]
    fn counters_and_gauges_register() {
        with_tracing(|| {
            let c = global().counter("t.counter");
            c.add(3);
            c.incr();
            counter!("t.counter").add(6);
            assert_eq!(global().counter_value("t.counter"), 10);
            global().gauge("t.gauge", 2.5);
            global().gauge("t.gauge", 3.5);
            assert_eq!(global().gauge_value("t.gauge"), Some(3.5));
        });
    }

    #[test]
    fn events_are_bounded() {
        with_tracing(|| {
            for i in 0..(EVENT_CAP + 7) {
                global().event("t.evt", &[("i", i as f64)]);
            }
            let snap = global().snapshot("bounded");
            assert_eq!(snap.events.len(), EVENT_CAP);
            assert_eq!(snap.events_dropped, 7);
            // Overwrite-oldest: the newest events survive.
            assert_eq!(snap.events[0].fields[0].1, 7.0);
            assert_eq!(
                snap.events[EVENT_CAP - 1].fields[0].1,
                (EVENT_CAP + 6) as f64
            );
        });
    }

    #[test]
    fn counters_survive_reset_as_zero() {
        with_tracing(|| {
            let c = global().counter("t.reset");
            c.add(5);
            global().reset();
            assert_eq!(c.get(), 0);
            c.add(2);
            assert_eq!(global().counter_value("t.reset"), 2);
        });
    }

    #[test]
    fn threaded_counter_increments_are_not_lost() {
        with_tracing(|| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(|| {
                        let c = global().counter("t.mt");
                        for _ in 0..1000 {
                            c.incr();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(global().counter_value("t.mt"), 4000);
        });
    }

    #[test]
    fn time_helper_records_and_returns() {
        with_tracing(|| {
            let v = time("t.timed", || 41 + 1);
            assert_eq!(v, 42);
            assert_eq!(global().span_count("t.timed"), 1);
        });
    }
}
