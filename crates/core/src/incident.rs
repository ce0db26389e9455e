//! Incident dumps: the flight recorder's crash-box output.
//!
//! When a pipeline run fails with a typed [`GefError`] — or when a tool
//! wants a snapshot on demand — this module drains the always-on
//! [`gef_trace::recorder`] and writes one self-contained JSON document
//! to `results/incidents/<label>-<cause>.json`. The dump carries
//! everything a post-mortem needs with **all opt-in telemetry off**:
//!
//! * the last [`EVENT_WINDOW`] flight-recorder records, merged across
//!   threads in global order (span transitions, events, degradations,
//!   budget trips, fault fires, contained panics);
//! * config / forest content digests tying the incident to the exact
//!   inputs (see [`gef_trace::hash::Digest`]);
//! * a replayable `GEF_FAULTS` string reconstructed from the armed
//!   fault schedule, plus per-site hit/fired counters;
//! * budget state (armed, remaining, trip latches, iteration caps),
//!   thread count, and the degradation history.
//!
//! # Schema
//!
//! Documents are versioned by the `schema` field ([`SCHEMA`]); the full
//! field list is documented in the workspace `DESIGN.md`. Dumps are
//! written with [`gef_trace::json::JsonWriter`] and are valid JSON by
//! construction — `gef_trace::json::parse` round-trips them, which CI
//! asserts.
//!
//! # Knobs
//!
//! | variable | effect |
//! |----------|--------|
//! | `GEF_INCIDENT_DIR` | output directory (default `results/incidents`) |
//! | `GEF_INCIDENTS=0` / `off` | disable dumping entirely |
//!
//! Dumping is best-effort and infallible from the caller's view: any
//! I/O failure is reported on stderr and swallowed ([`dump_error`]
//! returns `None`), because an incident writer that can itself crash
//! the process would be worse than no incident writer.

use crate::GefError;
use gef_trace::hash::to_hex;
use gef_trace::json::JsonWriter;
use gef_trace::recorder;
use std::path::PathBuf;
use std::sync::Mutex;

/// Schema identifier stamped into every dump (`schema` field).
pub const SCHEMA: &str = "gef-core/incident/v1";

/// Schema identifier of slow-request capture artifacts (see
/// [`render_slow`]): the trace-id-filtered recorder slice plus timeline
/// fragment a request leaves behind when it exceeds the serve layer's
/// `GEF_SERVE_SLOW_MS` threshold.
pub const SLOW_SCHEMA: &str = "gef-core/slowreq/v1";

/// How many of the most recent flight-recorder records a dump carries.
pub const EVENT_WINDOW: usize = 200;

/// How many dumps per label the incident directory retains. Mirrors
/// the `BENCH_trajectory.json` pruning: after every successful write,
/// dumps whose file name shares the current label prefix are pruned to
/// the newest [`INCIDENT_KEEP`] by modification time, so a long chaos
/// campaign (or a crash-looping service) cannot grow
/// `results/incidents/` without bound.
pub const INCIDENT_KEEP: usize = 50;

static LABEL: Mutex<Option<String>> = Mutex::new(None);

/// Set the process-wide incident label (the `<label>` half of the dump
/// file name). Experiment binaries set this to their run identifier
/// (e.g. `xp_chaos` sets one per schedule); unset, dumps are labelled
/// `incident`.
pub fn set_label(label: &str) {
    let mut slot = LABEL.lock().unwrap_or_else(|e| e.into_inner());
    *slot = Some(label.to_string());
}

/// The current incident label (default `incident`).
pub fn label() -> String {
    LABEL
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_else(|| "incident".to_string())
}

/// Whether dumping is enabled (`GEF_INCIDENTS=0`/`off`/`false`
/// disables). Unit-test builds never dump: the suite deliberately
/// drives error paths, and each would litter a `results/incidents/`
/// under the crate root. Integration tests and binaries link the
/// non-`cfg(test)` library, so they exercise real dumps.
pub fn enabled() -> bool {
    if cfg!(test) {
        return false;
    }
    match std::env::var("GEF_INCIDENTS") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "0" || v == "off" || v == "false")
        }
        Err(_) => true,
    }
}

/// The directory incident dumps land in: `GEF_INCIDENT_DIR` when set,
/// else `results/incidents` under the current working directory.
pub fn incident_dir() -> PathBuf {
    match std::env::var("GEF_INCIDENT_DIR") {
        Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("results").join("incidents"),
    }
}

/// Restrict a file-name fragment to `[A-Za-z0-9._-]`, mapping everything
/// else to `_` (labels may come from CLI args or env).
fn sanitize(s: &str) -> String {
    let cleaned: String = s
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "incident".to_string()
    } else {
        cleaned
    }
}

/// Everything the dump knows about the run beyond what the process
/// globals (recorder, fault registry, budget) already hold. All fields
/// are optional: a dump with no context is still a valid incident.
#[derive(Debug, Clone, Default)]
pub struct IncidentContext {
    /// `GefConfig::content_digest` of the run's configuration.
    pub config_digest: Option<u64>,
    /// `Forest::content_digest` of the explained model.
    pub forest_digest: Option<u64>,
    /// The run's RNG seed.
    pub seed: Option<u64>,
}

/// Render the incident document for `cause`/`error` as a JSON string.
/// Pure with respect to the filesystem (reads only process globals), so
/// tests can validate the schema without touching disk.
pub fn render(cause: &str, error: &str, ctx: &IncidentContext) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SCHEMA);
    w.field_str("label", &label());
    w.field_str("cause", cause);
    w.field_str("error", error);
    // The trace id of the request scope active at dump time — ties the
    // incident to one HTTP response's X-Gef-Trace-Id. Empty outside any
    // request scope (library callers, CLI tools).
    w.field_str(
        "trace_id",
        &gef_trace::ctx::current_hex().unwrap_or_default(),
    );
    w.field_u64("created_unix_ms", unix_ms());
    w.field_u64("threads", gef_par::threads() as u64);
    match ctx.config_digest {
        Some(d) => w.field_str("config_digest", &to_hex(d)),
        None => {
            w.key("config_digest");
            w.value_raw("null");
        }
    }
    match ctx.forest_digest {
        Some(d) => w.field_str("forest_digest", &to_hex(d)),
        None => {
            w.key("forest_digest");
            w.value_raw("null");
        }
    }
    match ctx.seed {
        Some(s) => w.field_u64("seed", s),
        None => {
            w.key("seed");
            w.value_raw("null");
        }
    }

    // Replayable fault schedule: the armed sites rendered back into the
    // GEF_FAULTS grammar, plus what each site actually did.
    w.field_str("replay_faults", &gef_trace::fault::armed_spec());
    w.key("faults_fired");
    w.begin_array();
    for (site, hits, fired) in gef_trace::fault::armed_counts() {
        w.begin_object();
        w.field_str("site", &site);
        w.field_u64("hits", hits);
        w.field_u64("fired", fired);
        w.end_object();
    }
    w.end_array();

    // Budget state at dump time (the pipeline dumps while its budget
    // guard is still armed, so trips are visible here), with the
    // process-wide iteration caps.
    w.key("budget");
    w.begin_object();
    w.key("active");
    w.value_raw(if gef_trace::budget::active() {
        "true"
    } else {
        "false"
    });
    match gef_trace::budget::remaining_ms() {
        Some(ms) => w.field_u64("remaining_ms", ms),
        None => {
            w.key("remaining_ms");
            w.value_raw("null");
        }
    }
    w.key("hard_tripped");
    w.value_raw(if gef_trace::budget::hard_tripped() {
        "true"
    } else {
        "false"
    });
    w.key("soft_tripped");
    w.value_raw(if gef_trace::budget::soft_tripped() {
        "true"
    } else {
        "false"
    });
    w.field_u64("boost_round_cap", gef_trace::budget::boost_round_cap());
    w.field_u64("pirls_iter_cap", gef_trace::budget::pirls_iter_cap());
    w.end_object();

    // Drain the flight recorder: the most recent window, globally
    // ordered, plus the degradation subset pulled out for quick triage.
    let records = recorder::snapshot_last(EVENT_WINDOW);
    w.key("degradations");
    w.begin_array();
    for r in records
        .iter()
        .filter(|r| r.kind == recorder::Kind::Degradation)
    {
        w.begin_object();
        w.field_str("action", &r.name);
        w.field_str("detail", r.detail.as_deref().unwrap_or(""));
        w.end_object();
    }
    w.end_array();
    write_events(&mut w, &records);
    w.field_u64("events_overwritten", recorder::overwritten_total());
    w.end_object();
    w.finish()
}

/// Emit an `events` array of flight-recorder records (shared by
/// incident and slow-request documents).
fn write_events(w: &mut JsonWriter, records: &[recorder::Record]) {
    w.key("events");
    w.begin_array();
    for r in records {
        w.begin_object();
        w.field_str("kind", r.kind.label());
        w.field_u64("tid", r.tid);
        w.field_str("thread", &r.thread);
        w.field_u64("ts_ns", r.ts_ns);
        w.field_u64("seq", r.seq);
        w.field_str("name", &r.name);
        if r.trace != 0 {
            w.field_str("trace", &to_hex(r.trace));
        }
        if !r.fields.is_empty() {
            w.key("fields");
            w.begin_object();
            for (k, v) in &r.fields {
                w.field_f64(k, *v);
            }
            w.end_object();
        }
        if let Some(detail) = &r.detail {
            w.field_str("detail", detail);
        }
        w.end_object();
    }
    w.end_array();
}

/// Render a slow-request capture for the request `trace`: the
/// trace-id-filtered flight-recorder slice plus (when profiling is on)
/// the request's Chrome-trace timeline fragment. Pure with respect to
/// the filesystem, like [`render`].
pub fn render_slow(trace: u64, elapsed_ms: u64, threshold_ms: u64, detail: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SLOW_SCHEMA);
    w.field_str("label", &label());
    w.field_str("cause", "slow_request");
    w.field_str("trace_id", &to_hex(trace));
    w.field_str("detail", detail);
    w.field_u64("elapsed_ms", elapsed_ms);
    w.field_u64("threshold_ms", threshold_ms);
    w.field_u64("created_unix_ms", unix_ms());
    w.field_u64("threads", gef_par::threads() as u64);
    write_events(&mut w, &recorder::snapshot_trace(EVENT_WINDOW, trace));
    w.field_u64("events_overwritten", recorder::overwritten_total());
    w.key("timeline");
    if gef_trace::timeline::prof_enabled() {
        // A valid Chrome-trace JSON document, embedded verbatim.
        w.value_raw(&gef_trace::timeline::chrome_trace_fragment(trace));
    } else {
        w.value_raw("null");
    }
    w.end_object();
    w.finish()
}

/// Dump a slow-request capture under the incident directory as
/// `<label>-slow_<trace>.json` — pruned by the same newest-
/// [`INCIDENT_KEEP`] per-label policy as incident dumps. Best-effort;
/// returns the written path, or `None` when dumping is disabled or the
/// write failed.
pub fn dump_slow(trace: u64, elapsed_ms: u64, threshold_ms: u64, detail: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let doc = render_slow(trace, elapsed_ms, threshold_ms, detail);
    let dir = incident_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "gef-core: cannot create incident dir {}: {e}",
            dir.display()
        );
        return None;
    }
    let path = dump_path(&format!("slow_{}", to_hex(trace)));
    match std::fs::write(&path, doc) {
        Ok(()) => {
            eprintln!("gef-core: wrote slow-request capture {}", path.display());
            prune_label_dumps(&dir);
            Some(path)
        }
        Err(e) => {
            eprintln!(
                "gef-core: cannot write slow-request capture {}: {e}",
                path.display()
            );
            None
        }
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn write_dump(cause: &str, error: &str, ctx: &IncidentContext) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let doc = render(cause, error, ctx);
    let dir = incident_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "gef-core: cannot create incident dir {}: {e}",
            dir.display()
        );
        return None;
    }
    let path = dump_path(cause);
    match std::fs::write(&path, doc) {
        Ok(()) => {
            eprintln!("gef-core: wrote incident dump {}", path.display());
            prune_label_dumps(&dir);
            Some(path)
        }
        Err(e) => {
            eprintln!(
                "gef-core: cannot write incident dump {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// Bound incident-directory growth: keep only the newest
/// [`INCIDENT_KEEP`] dumps sharing the current label prefix, deleting
/// older ones (by modification time). Best-effort, like everything on
/// the incident path; when it fires it leaves a
/// [`gef_trace::recorder::Kind::Store`] note with the delete count.
fn prune_label_dumps(dir: &std::path::Path) {
    prune_with_prefix(dir, &format!("{}-", sanitize(&label())));
}

fn prune_with_prefix(dir: &std::path::Path, prefix: &str) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut dumps: Vec<(std::time::SystemTime, PathBuf)> = rd
        .flatten()
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(prefix) && name.ends_with(".json")
        })
        .filter_map(|e| {
            let mtime = e.metadata().and_then(|m| m.modified()).ok()?;
            Some((mtime, e.path()))
        })
        .collect();
    if dumps.len() <= INCIDENT_KEEP {
        return;
    }
    // Newest first; everything past the keep horizon goes.
    dumps.sort_by_key(|d| std::cmp::Reverse(d.0));
    let mut pruned = 0u64;
    for (_, path) in dumps.drain(INCIDENT_KEEP..) {
        if std::fs::remove_file(&path).is_ok() {
            pruned += 1;
        }
    }
    if pruned > 0 {
        recorder::note(
            recorder::Kind::Store,
            "incident.pruned",
            &format!("{pruned} dump(s) past keep={INCIDENT_KEEP} for label prefix {prefix:?}"),
        );
    }
}

/// The path a dump with the current label and the given cause lands at
/// (whether or not it has been written yet): harnesses archiving
/// incidents use this to reference dumps that `GefExplainer::explain`
/// wrote internally.
pub fn dump_path(cause: &str) -> PathBuf {
    incident_dir().join(format!("{}-{}.json", sanitize(&label()), sanitize(cause)))
}

/// Dump an incident for a typed pipeline error. Called by
/// `GefExplainer::explain` on every `Err` path (while its budget guard
/// is still armed, so the dump sees the trip state). Best-effort:
/// returns the written path, or `None` when dumping is disabled or the
/// write failed.
pub fn dump_error(err: &GefError, ctx: &IncidentContext) -> Option<PathBuf> {
    write_dump(err.cause_label(), &err.to_string(), ctx)
}

/// Dump an incident on demand (no error object), e.g. from an operator
/// tool taking a snapshot of a live process. `cause` becomes the file
/// name's cause half; `detail` the `error` field.
pub fn dump_now(cause: &str, detail: &str) -> Option<PathBuf> {
    write_dump(cause, detail, &IncidentContext::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gef_trace::json::{parse, JsonValue};

    #[test]
    fn render_produces_schema_valid_json() {
        let ctx = IncidentContext {
            config_digest: Some(0xabc),
            forest_digest: None,
            seed: Some(7),
        };
        recorder::note(
            recorder::Kind::Degradation,
            "shrunk_bases",
            "gam_fit: NotPositiveDefinite",
        );
        let doc = render("deadline", "hard deadline exceeded (at pirls)", &ctx);
        let v = parse(&doc).unwrap_or_else(|e| panic!("invalid incident json: {e}\n{doc}"));
        assert_eq!(v.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        assert_eq!(v.get("cause").and_then(JsonValue::as_str), Some("deadline"));
        assert_eq!(
            v.get("config_digest").and_then(JsonValue::as_str),
            Some("0000000000000abc")
        );
        assert_eq!(v.get("forest_digest"), Some(&JsonValue::Null));
        assert_eq!(v.get("seed").and_then(JsonValue::as_f64), Some(7.0));
        assert!(v.get("budget").is_some());
        assert!(v.get("events").and_then(JsonValue::as_array).is_some());
        assert!(v.get("replay_faults").and_then(JsonValue::as_str).is_some());
    }

    #[test]
    fn render_stamps_the_active_trace_scope() {
        {
            let _scope = gef_trace::ctx::enter_trace(0xfeed);
            let doc = render("deadline", "boom", &IncidentContext::default());
            let v = parse(&doc).unwrap();
            assert_eq!(
                v.get("trace_id").and_then(JsonValue::as_str),
                Some("000000000000feed")
            );
        }
        let doc = render("deadline", "boom", &IncidentContext::default());
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("trace_id").and_then(JsonValue::as_str), Some(""));
    }

    #[test]
    fn render_slow_filters_events_to_the_request() {
        let trace = 0xbeefu64;
        {
            let _scope = gef_trace::ctx::enter_trace(trace);
            recorder::note(recorder::Kind::Event, "slow.mine", "in scope");
        }
        recorder::note(recorder::Kind::Event, "slow.other", "out of scope");
        let doc = render_slow(trace, 950, 500, "POST /explain");
        let v = parse(&doc).unwrap_or_else(|e| panic!("invalid slow json: {e}\n{doc}"));
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some(SLOW_SCHEMA)
        );
        assert_eq!(
            v.get("trace_id").and_then(JsonValue::as_str),
            Some("000000000000beef")
        );
        assert_eq!(v.get("elapsed_ms").and_then(JsonValue::as_f64), Some(950.0));
        let events = v.get("events").and_then(JsonValue::as_array).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("slow.mine")));
        assert!(events
            .iter()
            .all(|e| e.get("name").and_then(JsonValue::as_str) != Some("slow.other")));
        // Profiling is off in unit tests, so the timeline slot is null.
        assert_eq!(v.get("timeline"), Some(&JsonValue::Null));
    }

    #[test]
    fn sanitize_restricts_charset() {
        assert_eq!(sanitize("ok-file_1.json"), "ok-file_1.json");
        assert_eq!(sanitize("a/b\\c d!"), "a_b_c_d_");
        assert_eq!(sanitize(""), "incident");
    }

    #[test]
    fn pruning_keeps_newest_per_label_and_spares_other_labels() {
        let dir = std::env::temp_dir().join(format!(
            "gef-incident-prune-{}-{}",
            std::process::id(),
            unix_ms()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..INCIDENT_KEEP + 5 {
            std::fs::write(dir.join(format!("sweep-c{i:03}.json")), b"{}").unwrap();
        }
        std::fs::write(dir.join("other-label.json"), b"{}").unwrap();
        std::fs::write(dir.join("sweep-not-a-dump.txt"), b"x").unwrap();
        prune_with_prefix(&dir, "sweep-");
        let remaining: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        let sweep_dumps = remaining
            .iter()
            .filter(|n| n.starts_with("sweep-") && n.ends_with(".json"))
            .count();
        assert_eq!(sweep_dumps, INCIDENT_KEEP);
        assert!(remaining.contains(&"other-label.json".to_string()));
        assert!(remaining.contains(&"sweep-not-a-dump.txt".to_string()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn label_defaults_and_sets() {
        // Label state is process-global; keep this the only test that
        // mutates it, and restore the default afterwards.
        let before = label();
        set_label("chaos-042");
        assert_eq!(label(), "chaos-042");
        set_label(&before);
    }
}
