//! Time-resolved profiling: per-thread profile rings exported as Chrome
//! Trace Event Format JSON.
//!
//! Where the rest of `gef-trace` records *aggregates* (a span's count
//! and duration distribution), this module records *when* things ran
//! and on *which thread* — enough to reconstruct a per-worker gantt in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) and see a
//! lopsided histogram-build region or a deadline trip as a shape, not a
//! sum.
//!
//! # Enabling
//!
//! Recording is **off by default** and every hook first checks
//! [`prof_enabled`] (a single relaxed atomic load). It turns on via the
//! `GEF_PROF` environment variable:
//!
//! | `GEF_PROF` | effect |
//! |---|---|
//! | unset, `""`, `0`, `off`, `false` | disabled (default) |
//! | anything else (`1`, `on`, …) | record timelines |
//!
//! Tests and embedders can override the environment with
//! [`set_prof_enabled`]. The `noop` cargo feature pins [`prof_enabled`]
//! to a constant `false`, exactly like [`crate::enabled`].
//!
//! # Model
//!
//! Profile records are [`crate::recorder::Record`]s in each thread's
//! *profile ring* ([`crate::recorder`]): begin/end pairs from
//! [`crate::Span`] and from gef-par tasks, instants from
//! [`crate::Telemetry::event`], and counter samples such as
//! heap-in-use. The ring holds [`TIMELINE_CAP`] records and overwrites
//! its oldest on overflow, so a long-running process keeps profiling
//! its most recent requests. Rings survive their thread, so worker
//! records are still there after the pool idles; thread ids follow the
//! recorder's stable logical scheme.
//!
//! # Export
//!
//! [`chrome_trace_json`] merges every profile ring into one Chrome
//! Trace Event Format document (`ph` `B`/`E`/`i`/`C` plus `thread_name`
//! metadata, `ts` in microseconds); an `E` whose `B` was overwritten is
//! skipped, so the export stays balanced. [`emit`] writes it under
//! `results/profiles/`. Load the file in Perfetto or `chrome://tracing`
//! as-is.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::json::JsonWriter;
use crate::recorder::{self, Kind, Sinks, Which};

/// Profile-ring capacity per thread; beyond this the oldest records
/// are overwritten (and counted).
pub const TIMELINE_CAP: usize = 1 << 16;

// 0 = uninitialised (read GEF_PROF on first use), 1 = off, 2 = on.
static PROF: AtomicU8 = AtomicU8::new(0);

fn prof_from_env() -> bool {
    match std::env::var("GEF_PROF") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "" | "0" | "off" | "false"
        ),
        Err(_) => false,
    }
}

/// Whether timeline recording is on (resolving `GEF_PROF` on first
/// call). With the `noop` cargo feature this is a constant `false`.
#[inline(always)]
pub fn prof_enabled() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    match PROF.load(Ordering::Relaxed) {
        0 => {
            let on = prof_from_env();
            PROF.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        1 => false,
        _ => true,
    }
}

/// Force timeline recording on or off, overriding `GEF_PROF`.
pub fn set_prof_enabled(on: bool) {
    PROF.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

fn profile(kind: Kind, name: &str, args: &[(&str, f64)]) {
    if prof_enabled() {
        let to = Sinks {
            profile: true,
            ..Sinks::default()
        };
        recorder::append(to, kind, name, args, None);
    }
}

/// Record a duration-begin event (`ph: "B"`) with numeric arguments
/// (chunk index, region id, …) that show in the trace viewer's detail
/// pane. Pair with [`end`]. No-op while [`prof_enabled`] is false.
#[inline]
pub fn begin_with(name: &str, args: &[(&str, f64)]) {
    profile(Kind::SpanBegin, name, args);
}

/// Record the duration-end event (`ph: "E"`) matching the innermost
/// open [`begin_with`] of the same name on this thread. No-op while
/// [`prof_enabled`] is false.
#[inline]
pub fn end(name: &str) {
    profile(Kind::SpanEnd, name, &[]);
}

/// Record a counter sample (`ph: "C"`): the named counter track shows
/// `value` from this timestamp on. No-op while [`prof_enabled`] is
/// false.
#[inline]
pub fn counter_sample(name: &str, value: f64) {
    profile(Kind::Counter, name, &[("value", value)]);
}

/// Clear every thread's profile records and overwrite counts
/// (thread/tid registrations are kept). Intended for tests and for
/// reusing one process for several independently exported profiles.
pub fn reset() {
    recorder::clear(Which::Profile);
}

/// Total profile records currently held across all threads.
pub fn event_count() -> usize {
    recorder::total(Which::Profile, |r| r.records.len() as u64) as usize
}

/// Total profile records overwritten (rings at [`TIMELINE_CAP`])
/// across all threads.
pub fn dropped_total() -> u64 {
    recorder::total(Which::Profile, |r| r.overwritten)
}

/// Sorted logical thread ids that currently hold at least one profile
/// record.
pub fn tids_with_events() -> Vec<u64> {
    let mut tids = Vec::new();
    recorder::each_thread(|t| {
        if !t.ring(Which::Profile).records.is_empty() {
            tids.push(t.tid);
        }
    });
    tids.sort_unstable();
    tids.dedup();
    tids
}

/// Serialize every thread's profile as one Chrome Trace Event Format
/// document.
///
/// The document is an object with a `traceEvents` array — `thread_name`
/// / `thread_sort_index` metadata first, then all events merged and
/// sorted by timestamp (`ts` in microseconds, tie-broken by record
/// order) — plus a top-level `droppedEvents` count. It loads directly
/// in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json() -> String {
    render_chrome_trace(None)
}

/// Like [`chrome_trace_json`], but keeping only events stamped with
/// `trace` (see [`crate::ctx`]) — one request's stage and task spans
/// across every thread, as a loadable Chrome-trace fragment. Threads
/// with no matching events are omitted entirely.
pub fn chrome_trace_fragment(trace: u64) -> String {
    render_chrome_trace(Some(trace))
}

fn render_chrome_trace(filter: Option<u64>) -> String {
    let mut records = recorder::merged(Which::Profile, |r| filter.is_none_or(|t| r.trace == t));
    // A thread's records keep their order in the merge, so a per-thread
    // depth count finds every `E` whose `B` was overwritten.
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    records.retain(|r| {
        let depth = open.entry(r.tid).or_default();
        match r.kind {
            Kind::SpanBegin => *depth += 1,
            Kind::SpanEnd if *depth == 0 => return false,
            Kind::SpanEnd => *depth -= 1,
            _ => {}
        }
        true
    });
    let threads: BTreeMap<u64, Arc<str>> = records
        .iter()
        .map(|r| (r.tid, Arc::clone(&r.thread)))
        .collect();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    // Process + thread metadata so the viewer names and orders tracks.
    fn meta(w: &mut JsonWriter, name: &str, tid: u64, fill_args: impl FnOnce(&mut JsonWriter)) {
        w.begin_object();
        w.field_str("name", name);
        w.field_str("ph", "M");
        w.field_u64("pid", 1);
        w.field_u64("tid", tid);
        w.key("args");
        w.begin_object();
        fill_args(w);
        w.end_object();
        w.end_object();
    }
    meta(&mut w, "process_name", 0, |w| w.field_str("name", "gef"));
    for (&tid, name) in &threads {
        meta(&mut w, "thread_name", tid, |w| w.field_str("name", name));
        meta(&mut w, "thread_sort_index", tid, |w| {
            w.field_f64("sort_index", tid as f64);
        });
    }
    for r in &records {
        w.begin_object();
        w.field_str("name", &r.name);
        let ph = match r.kind {
            Kind::SpanBegin => "B",
            Kind::SpanEnd => "E",
            Kind::Counter => "C",
            _ => "i",
        };
        w.field_str("ph", ph);
        // Chrome trace timestamps are microseconds.
        w.field_f64("ts", r.ts_ns as f64 / 1_000.0);
        w.field_u64("pid", 1);
        w.field_u64("tid", r.tid);
        if ph == "i" {
            // Thread-scoped instant (a tick on that thread's track).
            w.field_str("s", "t");
        }
        if r.trace != 0 {
            // Non-standard field, ignored by trace viewers; lets tools
            // slice an unfiltered export by request after the fact.
            w.field_str("trace", &crate::hash::to_hex(r.trace));
        }
        if !r.fields.is_empty() {
            w.key("args");
            w.begin_object();
            for (k, v) in &r.fields {
                w.field_f64(k, *v);
            }
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.field_str("displayTimeUnit", "ms");
    w.field_u64("droppedEvents", dropped_total());
    w.end_object();
    w.finish()
}

/// Write [`chrome_trace_json`] as `<dir>/<label>.trace.json` (`label`
/// sanitised to `[A-Za-z0-9._-]`), creating directories.
pub fn export_chrome_to(dir: &std::path::Path, label: &str) -> std::io::Result<std::path::PathBuf> {
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
    let path = dir.join(format!("{safe}.trace.json"));
    std::fs::write(&path, chrome_trace_json())?;
    Ok(path)
}

/// If profiling is on, write the merged timeline under
/// `results/profiles/` and return the path (logging it to stderr);
/// otherwise do nothing. Call once at the end of a profiled run.
pub fn emit(label: &str) -> Option<std::path::PathBuf> {
    if !prof_enabled() {
        return None;
    }
    match export_chrome_to(std::path::Path::new("results/profiles"), label) {
        Ok(path) => {
            eprintln!("gef-trace: wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("gef-trace: failed to write chrome trace: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    // Profiling state and rings are process-global, and enabling
    // profiling turns on the Telemetry::event profile mirror for every
    // thread — so these tests share the crate-wide test lock.
    use crate::TEST_LOCK;

    fn with_prof<T>(f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_prof_enabled(true);
        let out = f();
        set_prof_enabled(false);
        reset();
        out
    }

    /// The non-metadata events of a Chrome-trace document, as
    /// `(name, ph)` pairs.
    fn events_of(doc: &str) -> Vec<(String, String)> {
        crate::json::validate(doc).unwrap_or_else(|e| panic!("invalid: {e}\n{doc}"));
        let v = parse(doc).unwrap();
        let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) != Some("M"))
            .map(|e| {
                let s = |k| e.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (s("name"), s("ph"))
            })
            .collect()
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_prof_enabled(false);
        let before = event_count();
        begin_with("ghost", &[]);
        end("ghost");
        counter_sample("ghost.counter", 2.0);
        crate::global().event("ghost.tick", &[("x", 1.0)]);
        assert_eq!(event_count(), before);
    }

    #[test]
    fn begin_end_pairs_survive_export() {
        with_prof(|| {
            begin_with("phase", &[("chunk", 3.0)]);
            crate::global().event("tick", &[]);
            end("phase");
            let doc = chrome_trace_json();
            let phases: Vec<String> = events_of(&doc)
                .into_iter()
                .filter(|(name, _)| name == "phase")
                .map(|(_, ph)| ph)
                .collect();
            assert_eq!(phases, ["B", "E"]);
            // Every event carries the required CTF fields.
            let v = parse(&doc).unwrap();
            for e in v.get("traceEvents").and_then(JsonValue::as_array).unwrap() {
                for k in ["name", "ph", "pid", "tid"] {
                    assert!(e.get(k).is_some(), "missing {k}");
                }
            }
        });
    }

    #[test]
    fn buffers_are_bounded_and_count_drops() {
        with_prof(|| {
            for i in 0..(TIMELINE_CAP + 5) {
                counter_sample("flood", i as f64);
            }
            assert_eq!(dropped_total(), 5);
            assert_eq!(event_count(), TIMELINE_CAP);
            // Overwrite-oldest: the newest records survive.
            let kept = recorder::merged(Which::Profile, |r| r.name == "flood");
            assert_eq!(kept[0].fields[0].1, 5.0);
            assert_eq!(kept[kept.len() - 1].fields[0].1, (TIMELINE_CAP + 4) as f64);
        });
    }

    #[test]
    fn full_ring_still_profiles_new_requests() {
        with_prof(|| {
            // An open span whose `B` the flood below overwrites.
            begin_with("stale", &[]);
            for _ in 0..TIMELINE_CAP {
                counter_sample("flood", 0.0);
            }
            end("stale");
            {
                let _req = crate::ctx::enter_trace(0xf1);
                begin_with("fresh", &[]);
                end("fresh");
            }
            let fragment = events_of(&chrome_trace_fragment(0xf1));
            let pair = [("fresh", "B"), ("fresh", "E")].map(|(n, p)| (n.into(), p.into()));
            assert_eq!(fragment, pair);
            // The full export skips the `E` whose `B` was overwritten.
            assert!(events_of(&chrome_trace_json())
                .iter()
                .all(|(name, _)| name != "stale"));
        });
    }

    #[test]
    fn unregistered_and_worker_tids_are_disjoint_and_stable() {
        with_prof(|| {
            counter_sample("main.tick", 0.0);
            let t = std::thread::spawn(|| {
                recorder::register_worker(2);
                counter_sample("worker.tick", 0.0);
            });
            t.join().unwrap();
            let tids = tids_with_events();
            // This (unregistered) thread claimed tid 0 or an overflow
            // tid >= 1000 — never a worker slot.
            assert!(
                tids.iter().any(|&t| t == 0 || t >= 1000),
                "unregistered thread outside worker range: {tids:?}"
            );
            assert!(tids.contains(&3), "worker 2 maps to tid 3: {tids:?}");
            // Re-recording lands on the same tid set (stability).
            counter_sample("main.tick2", 0.0);
            assert_eq!(tids_with_events(), tids);
        });
    }

    #[test]
    fn fragment_keeps_only_one_requests_events() {
        with_prof(|| {
            counter_sample("ambient", 0.0);
            {
                let _a = crate::ctx::enter_trace(0xa1);
                begin_with("req.a", &[]);
                end("req.a");
            }
            {
                let _b = crate::ctx::enter_trace(0xb2);
                begin_with("req.b", &[]);
                end("req.b");
            }
            let doc = chrome_trace_fragment(0xa1);
            let named: Vec<String> = events_of(&doc).into_iter().map(|(n, _)| n).collect();
            assert_eq!(named, ["req.a", "req.a"]);
            // Every non-metadata event is stamped with the request id.
            let v = parse(&doc).unwrap();
            for e in v
                .get("traceEvents")
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .filter(|e| e.get("ph").and_then(JsonValue::as_str) != Some("M"))
            {
                assert_eq!(
                    e.get("trace").and_then(JsonValue::as_str),
                    Some(crate::hash::to_hex(0xa1).as_str())
                );
            }
        });
    }

    #[test]
    fn recent_and_profile_rings_share_one_time_base() {
        with_prof(|| {
            crate::recorder::set_suppressed(false);
            let _req = crate::ctx::enter_trace(0x7b);
            drop(crate::Span::enter("timebase.span"));
            let begin = recorder::snapshot_trace(usize::MAX, 0x7b)
                .into_iter()
                .find(|r| r.kind == Kind::SpanBegin)
                .expect("recent ring holds the span_begin");
            let v = parse(&chrome_trace_fragment(0x7b)).unwrap();
            let b = v
                .get("traceEvents")
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("B"))
                .expect("profile ring holds the B");
            let ts_us = b.get("ts").and_then(JsonValue::as_f64).unwrap();
            assert!(
                (ts_us * 1_000.0 - begin.ts_ns as f64).abs() <= 1.0,
                "profile B at {ts_us} µs vs recent span_begin at {} ns",
                begin.ts_ns
            );
            crate::recorder::reset();
        });
    }

    #[test]
    fn reset_clears_events_but_keeps_registrations() {
        with_prof(|| {
            counter_sample("pre", 0.0);
            assert!(event_count() >= 1);
            reset();
            assert_eq!(event_count(), 0);
            counter_sample("post", 0.0);
            assert!(!tids_with_events().is_empty());
        });
    }
}
