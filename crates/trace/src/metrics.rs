//! Zero-dependency Prometheus text exposition and rolling SLO windows.
//!
//! Two pieces, both dependency-free:
//!
//! - [`PromWriter`] renders the Prometheus text format (version 0.0.4:
//!   `# HELP` / `# TYPE` comments followed by `name{labels} value`
//!   samples) for the serve layer's `GET /metrics` endpoint. Histogram
//!   families come from [`Histogram`], rendered on a fixed power-of-two
//!   `le` ladder that sits on its bucket edges, so every count is exact.
//! - [`SloWindow`] keeps a ring of per-second slots so `/metrics` and
//!   `/stats` can report *rolling* 1-min / 5-min success, shed, and
//!   degraded rates plus a windowed p99, instead of lifetime
//!   aggregates that never move again after a traffic shift.
//!
//! [`validate`] parses an exposition back — line format, known types,
//! histogram bucket monotonicity, `+Inf` terminal bucket — and returns
//! the samples so harnesses (`xp_serve`, `metrics_check`) can both lint
//! the format and reconcile counter values against client-side tallies.

use crate::hist::Histogram;
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

/// Exponents `k` of the `le` ladder [`PromWriter::histogram`] renders:
/// `le = 2^k − 1`, the largest integer below the bucket edge `2^k`, so
/// `≤ le` counts exactly the integer observations below the edge. On a
/// microsecond histogram the ladder runs from 127 µs to about 8.4 s.
const LADDER_POW2: std::ops::RangeInclusive<u32> = 7..=23;

// ----------------------------------------------------------------------
// Rolling SLO windows
// ----------------------------------------------------------------------

/// How a request finished, for windowed SLO accounting. `Degraded`
/// counts as a success that served a reduced answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// 200 with the full fidelity floor.
    Ok,
    /// 200 but the recovery ladder or pressure floor degraded the answer.
    Degraded,
    /// 429 — load shedding.
    Shed,
    /// Any other typed error (4xx/5xx/504).
    Error,
}

#[derive(Clone)]
struct Slot {
    sec: u64,
    total: u64,
    ok: u64,
    degraded: u64,
    shed: u64,
    errors: u64,
    latency: Histogram,
}

impl Slot {
    fn empty(sec: u64) -> Slot {
        Slot {
            sec,
            total: 0,
            ok: 0,
            degraded: 0,
            shed: 0,
            errors: 0,
            latency: Histogram::new(),
        }
    }
}

/// Aggregate view over a rolling window.
#[derive(Clone, Default, Debug)]
pub struct WindowSummary {
    /// Window width that was asked for, in seconds.
    pub window_secs: u64,
    /// Requests finished inside the window.
    pub total: u64,
    /// Full-fidelity successes.
    pub ok: u64,
    /// Degraded successes.
    pub degraded: u64,
    /// Shed (429) answers.
    pub shed: u64,
    /// Typed errors.
    pub errors: u64,
    /// `(ok + degraded) / total` (1.0 on an empty window — no traffic
    /// is not an SLO breach).
    pub success_rate: f64,
    /// `shed / total` (0.0 on an empty window).
    pub shed_rate: f64,
    /// `degraded / total` (0.0 on an empty window).
    pub degraded_rate: f64,
    /// p99 latency (µs) of requests that recorded one: the floor of the
    /// [`Histogram`] bucket holding the 99th-percentile observation (up to
    /// 25% below it), clamped to the observed range. Not an upper bound.
    pub p99_us: u64,
    /// Observations behind `p99_us`.
    pub latency_count: u64,
}

/// The longest window any caller may ask for, in seconds.
pub const MAX_WINDOW_SECS: u64 = 300;

/// A ring of [`MAX_WINDOW_SECS`] per-second slots. A slot's latency
/// histogram allocates its buckets on its first observation, so an idle
/// ring costs no bucket arrays. Internally locked:
/// server worker threads record concurrently, `/metrics` scrapes
/// summarize concurrently. Time is monotonic (process-relative), so
/// wall-clock jumps never corrupt the ring.
pub struct SloWindow {
    slots: Mutex<Vec<Slot>>,
}

fn monotonic_sec() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs()
}

impl Default for SloWindow {
    fn default() -> Self {
        SloWindow::new()
    }
}

impl SloWindow {
    /// An empty window ring.
    pub fn new() -> SloWindow {
        SloWindow {
            slots: Mutex::new(
                (0..MAX_WINDOW_SECS as usize)
                    .map(|_| Slot::empty(u64::MAX))
                    .collect(),
            ),
        }
    }

    /// Record one finished request at the current (monotonic) second.
    pub fn record(&self, outcome: Outcome, latency_us: Option<u64>) {
        self.record_at(monotonic_sec(), outcome, latency_us);
    }

    /// Record at an explicit second — the testable entry point.
    pub fn record_at(&self, sec: u64, outcome: Outcome, latency_us: Option<u64>) {
        let mut slots = crate::lock(&self.slots);
        let idx = (sec % MAX_WINDOW_SECS) as usize;
        if slots[idx].sec != sec {
            slots[idx] = Slot::empty(sec);
        }
        let slot = &mut slots[idx];
        slot.total += 1;
        match outcome {
            Outcome::Ok => slot.ok += 1,
            Outcome::Degraded => slot.degraded += 1,
            Outcome::Shed => slot.shed += 1,
            Outcome::Error => slot.errors += 1,
        }
        if let Some(us) = latency_us {
            slot.latency.record(us);
        }
    }

    /// Summarize the last `window_secs` seconds (clamped to
    /// [`MAX_WINDOW_SECS`]) ending now.
    pub fn summary(&self, window_secs: u64) -> WindowSummary {
        self.summary_at(monotonic_sec(), window_secs)
    }

    /// Summarize ending at an explicit second — the testable entry
    /// point. A slot is inside the window when `now - sec < window`.
    pub fn summary_at(&self, now_sec: u64, window_secs: u64) -> WindowSummary {
        let window_secs = window_secs.clamp(1, MAX_WINDOW_SECS);
        let mut out = WindowSummary {
            window_secs,
            ..WindowSummary::default()
        };
        let mut latency = Histogram::new();
        {
            let slots = crate::lock(&self.slots);
            for slot in slots.iter() {
                if slot.sec > now_sec || now_sec - slot.sec >= window_secs {
                    continue;
                }
                out.total += slot.total;
                out.ok += slot.ok;
                out.degraded += slot.degraded;
                out.shed += slot.shed;
                out.errors += slot.errors;
                latency.merge(&slot.latency);
            }
        }
        if out.total > 0 {
            out.success_rate = (out.ok + out.degraded) as f64 / out.total as f64;
            out.shed_rate = out.shed as f64 / out.total as f64;
            out.degraded_rate = out.degraded as f64 / out.total as f64;
        } else {
            out.success_rate = 1.0;
        }
        out.p99_us = latency.quantile(0.99);
        out.latency_count = latency.count();
        out
    }
}

// ----------------------------------------------------------------------
// Prometheus text writer
// ----------------------------------------------------------------------

/// Renders the Prometheus text exposition format (0.0.4). Call
/// [`metric`](PromWriter::metric) once per metric family to emit the
/// `# HELP` / `# TYPE` header, then one or more samples.
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Emit the `# HELP` / `# TYPE` header for a metric family.
    /// `kind` is one of `counter`, `gauge`, `histogram`.
    pub fn metric(&mut self, name: &str, kind: &str, help: &str) {
        self.out
            .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Emit one sample line with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&fmt_value(value));
        self.out.push('\n');
    }

    /// Emit one integer sample.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.sample(name, labels, value as f64);
    }

    /// Emit a full histogram family: the header, cumulative `_bucket`
    /// series at `le = 2^k − 1` for `k` in 7..=23 plus `+Inf`, `_sum` and
    /// `_count`. Each `2^k` is a [`Histogram`] bucket edge, so every
    /// rung's count is exact.
    pub fn histogram(&mut self, name: &str, help: &str, hist: &Histogram) {
        self.metric(name, "histogram", help);
        let bucket = format!("{name}_bucket");
        for k in LADDER_POW2 {
            let le = ((1u64 << k) - 1).to_string();
            self.sample_u64(&bucket, &[("le", &le)], hist.count_below_pow2(k));
        }
        self.sample_u64(&bucket, &[("le", "+Inf")], hist.count());
        self.sample_u64(&format!("{name}_sum"), &[], hist.sum());
        self.sample_u64(&format!("{name}_count"), &[], hist.count());
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.out
    }
}

// ----------------------------------------------------------------------
// Exposition validator
// ----------------------------------------------------------------------

/// One parsed sample line of an exposition.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Sample name as written (`foo_bucket`, not the family `foo`).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample's value.
    pub value: f64,
}

impl Sample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed, validated exposition.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    /// Every sample line, in source order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// All samples named `name`.
    pub fn named(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// The single value of `name` with no label filter; `None` when
    /// absent or ambiguous.
    pub fn value(&self, name: &str) -> Option<f64> {
        let matches = self.named(name);
        match matches.as_slice() {
            [one] => Some(one.value),
            _ => None,
        }
    }

    /// Sum of every sample named `name` (0.0 when absent).
    pub fn sum(&self, name: &str) -> f64 {
        self.named(name).iter().map(|s| s.value).sum()
    }
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_' || b == b':')
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

fn parse_labels(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let eq = raw[i..]
            .find('=')
            .map(|p| i + p)
            .ok_or_else(|| format!("label without '=': {:?}", &raw[i..]))?;
        let key = raw[i..eq].trim().to_string();
        if !valid_label_name(&key) {
            return Err(format!("bad label name {key:?}"));
        }
        if bytes.get(eq + 1) != Some(&b'"') {
            return Err(format!("label value for {key:?} is not quoted"));
        }
        let mut j = eq + 2;
        // Collect raw bytes and decode once, so a multi-byte UTF-8
        // value reads back as written.
        let mut val = Vec::new();
        loop {
            match bytes.get(j) {
                None => return Err(format!("unterminated label value for {key:?}")),
                Some(b'\\') => {
                    match bytes.get(j + 1) {
                        Some(&b @ (b'\\' | b'"')) => val.push(b),
                        Some(b'n') => val.push(b'\n'),
                        other => return Err(format!("bad escape {other:?} in {key:?}")),
                    }
                    j += 2;
                }
                Some(b'"') => {
                    j += 1;
                    break;
                }
                Some(&b) => {
                    val.push(b);
                    j += 1;
                }
            }
        }
        let val = String::from_utf8(val)
            .map_err(|e| format!("label value for {key:?} is not UTF-8: {e}"))?;
        out.push((key, val));
        match bytes.get(j) {
            None => break,
            Some(b',') => i = j + 1,
            Some(&b) => return Err(format!("unexpected {:?} after label value", b as char)),
        }
    }
    Ok(out)
}

fn histogram_problems(exposition: &Exposition, family: &str) -> Option<String> {
    let bucket_name = format!("{family}_bucket");
    let buckets = exposition.named(&bucket_name);
    if buckets.is_empty() {
        return Some(format!("histogram {family} has no _bucket samples"));
    }
    let mut prev = None::<(f64, f64)>; // (le, cumulative)
    let mut saw_inf = false;
    let mut last_cumulative = 0.0;
    for b in &buckets {
        let le = match b.label("le") {
            Some("+Inf") => f64::INFINITY,
            Some(v) => match v.parse::<f64>() {
                Ok(f) => f,
                Err(_) => return Some(format!("{bucket_name} has unparseable le={v:?}")),
            },
            None => return Some(format!("{bucket_name} sample missing le label")),
        };
        if let Some((ple, pcum)) = prev {
            if le <= ple {
                return Some(format!("{bucket_name} le values not increasing at le={le}"));
            }
            if b.value < pcum {
                return Some(format!(
                    "{bucket_name} cumulative counts decrease at le={le}"
                ));
            }
        }
        saw_inf |= le.is_infinite();
        last_cumulative = b.value;
        prev = Some((le, b.value));
    }
    if !saw_inf {
        return Some(format!("{bucket_name} missing the le=\"+Inf\" bucket"));
    }
    if let Some(count) = exposition.value(&format!("{family}_count")) {
        if (count - last_cumulative).abs() > 0.0 {
            return Some(format!(
                "{family}_count {count} != +Inf bucket {last_cumulative}"
            ));
        }
    } else {
        return Some(format!("histogram {family} missing _count"));
    }
    if exposition.value(&format!("{family}_sum")).is_none() {
        return Some(format!("histogram {family} missing _sum"));
    }
    None
}

/// Parse and lint a Prometheus text exposition. Checks: line format,
/// `# TYPE` declared (with a known type) before any sample of the
/// family, metric/label name charset, parseable finite sample values,
/// non-negative counters, and for histograms: increasing `le` ladder,
/// non-decreasing cumulative buckets, a terminal `+Inf` bucket that
/// equals `_count`, and `_sum` present. Returns the parsed samples on
/// success so callers can reconcile values.
pub fn validate(text: &str) -> Result<Exposition, String> {
    let mut types: Vec<(String, String)> = Vec::new(); // family -> type
    let mut exposition = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.splitn(2, ' ');
                let family = parts.next().unwrap_or("").to_string();
                let kind = parts.next().unwrap_or("").trim().to_string();
                if !valid_metric_name(&family) {
                    return Err(format!("line {n}: bad metric name in TYPE: {family:?}"));
                }
                if !matches!(
                    kind.as_str(),
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown metric type {kind:?}"));
                }
                types.push((family, kind));
            } else if !rest.starts_with("HELP ") {
                return Err(format!("line {n}: unknown comment directive: {line:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: comment without '# ' prefix: {line:?}"));
        }
        // A sample: name[{labels}] value
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(p) => (&line[..p], &line[p..]),
            None => return Err(format!("line {n}: sample without a value: {line:?}")),
        };
        if !valid_metric_name(name_part) {
            return Err(format!("line {n}: bad metric name {name_part:?}"));
        }
        let (labels, value_str) = if let Some(inner) = rest.strip_prefix('{') {
            let close = inner
                .rfind('}')
                .ok_or_else(|| format!("line {n}: unterminated label set"))?;
            (
                parse_labels(&inner[..close]).map_err(|e| format!("line {n}: {e}"))?,
                inner[close + 1..].trim(),
            )
        } else {
            (Vec::new(), rest.trim())
        };
        // Ignore an optional timestamp after the value.
        let value_tok = value_str.split_whitespace().next().unwrap_or("");
        let value = match value_tok {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            tok => tok
                .parse::<f64>()
                .map_err(|_| format!("line {n}: unparseable value {tok:?}"))?,
        };
        if value.is_nan() {
            return Err(format!("line {n}: NaN sample value for {name_part}"));
        }
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let base = name_part.strip_suffix(suf)?;
                types
                    .iter()
                    .any(|(f, k)| f == base && k == "histogram")
                    .then(|| base.to_string())
            })
            .unwrap_or_else(|| name_part.to_string());
        let declared = types.iter().find(|(f, _)| *f == family);
        let Some((_, kind)) = declared else {
            return Err(format!(
                "line {n}: sample {name_part} has no preceding # TYPE"
            ));
        };
        if kind == "counter" && value < 0.0 {
            return Err(format!("line {n}: negative counter {name_part}"));
        }
        exposition.samples.push(Sample {
            name: name_part.to_string(),
            labels,
            value,
        });
    }
    for (family, kind) in &types {
        if kind == "histogram" {
            if let Some(problem) = histogram_problems(&exposition, family) {
                return Err(problem);
            }
        }
    }
    Ok(exposition)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_window_rolls_and_rates() {
        let w = SloWindow::new();
        // 10 requests at t=100: 8 ok, 1 degraded, 1 shed.
        for _ in 0..8 {
            w.record_at(100, Outcome::Ok, Some(1_000));
        }
        w.record_at(100, Outcome::Degraded, Some(2_000));
        w.record_at(100, Outcome::Shed, None);
        let s = w.summary_at(100, 60);
        assert_eq!(s.total, 10);
        assert_eq!(s.ok, 8);
        assert_eq!(s.degraded, 1);
        assert_eq!(s.shed, 1);
        assert!((s.success_rate - 0.9).abs() < 1e-12);
        assert!((s.shed_rate - 0.1).abs() < 1e-12);
        assert_eq!(s.latency_count, 9);
        // 60s later the 1-min window is empty again (success_rate
        // defaults to 1.0), but the 5-min window still sees them.
        let later = w.summary_at(160, 60);
        assert_eq!(later.total, 0);
        assert!((later.success_rate - 1.0).abs() < 1e-12);
        assert_eq!(w.summary_at(160, 300).total, 10);
        // Wrapping past MAX_WINDOW_SECS reclaims the slot.
        w.record_at(100 + MAX_WINDOW_SECS, Outcome::Error, None);
        let wrapped = w.summary_at(100 + MAX_WINDOW_SECS, 1);
        assert_eq!(wrapped.total, 1);
        assert_eq!(wrapped.errors, 1);
    }

    #[test]
    fn writer_output_validates_round_trip() {
        let mut h = Histogram::new();
        h.record(700);
        h.record(90);
        let mut w = PromWriter::new();
        w.metric("gef_demo_requests_total", "counter", "Requests seen.");
        w.sample_u64("gef_demo_requests_total", &[("outcome", "ok")], 12);
        w.sample_u64("gef_demo_requests_total", &[("outcome", "shed")], 3);
        w.metric("gef_demo_queue_depth", "gauge", "Queued connections.");
        w.sample_u64("gef_demo_queue_depth", &[], 2);
        w.histogram("gef_demo_latency_us", "Latency (µs).", &h);
        let text = w.finish();
        let parsed = validate(&text).expect("writer output validates");
        assert_eq!(parsed.sum("gef_demo_requests_total"), 15.0);
        assert_eq!(parsed.value("gef_demo_queue_depth"), Some(2.0));
        assert_eq!(parsed.value("gef_demo_latency_us_count"), Some(2.0));
        let buckets = parsed.named("gef_demo_latency_us_bucket");
        assert_eq!(buckets.len(), LADDER_POW2.count() + 1);
        assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        let untyped = "gef_x_total 3\n";
        assert!(validate(untyped).unwrap_err().contains("no preceding"));
        let bad_value = "# TYPE gef_x gauge\ngef_x abc\n";
        assert!(validate(bad_value).unwrap_err().contains("unparseable"));
        let neg_counter = "# TYPE gef_x counter\ngef_x -1\n";
        assert!(validate(neg_counter).unwrap_err().contains("negative"));
        let bad_hist = "# TYPE gef_h histogram\n\
                        gef_h_bucket{le=\"100\"} 5\n\
                        gef_h_bucket{le=\"200\"} 3\n\
                        gef_h_bucket{le=\"+Inf\"} 5\n\
                        gef_h_sum 10\ngef_h_count 5\n";
        assert!(validate(bad_hist).unwrap_err().contains("decrease"));
        let no_inf = "# TYPE gef_h histogram\n\
                      gef_h_bucket{le=\"100\"} 5\ngef_h_sum 1\ngef_h_count 5\n";
        assert!(validate(no_inf).unwrap_err().contains("+Inf"));
        let bad_type = "# TYPE gef_x widget\ngef_x 1\n";
        assert!(validate(bad_type)
            .unwrap_err()
            .contains("unknown metric type"));
    }

    #[test]
    fn validator_handles_labels_and_escapes() {
        let text = "# HELP gef_y a\\nmultiline help\n# TYPE gef_y gauge\n\
                    gef_y{path=\"a\\\"b\\\\c\",kind=\"x\"} 1.5\n\
                    gef_y{path=\"é\"} 2\n";
        let parsed = validate(text).expect("escaped labels parse");
        let s = &parsed.samples[0];
        assert_eq!(s.label("path"), Some("a\"b\\c"));
        assert_eq!(s.label("kind"), Some("x"));
        assert!((s.value - 1.5).abs() < 1e-12);
        assert_eq!(parsed.samples[1].label("path"), Some("é"));
    }
}
