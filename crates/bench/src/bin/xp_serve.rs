//! Seeded closed-loop load generator for the gef-serve explanation
//! service, with an overload phase and a fault-schedule sweep.
//!
//! Boots an in-process [`gef_serve::Server`] on an ephemeral port with a
//! deliberately small queue, then hammers it with concurrent closed-loop
//! clients (each sends the next request only after reading the previous
//! response). Three phases:
//!
//! 1. **warmup** — a few sequential requests so allocator arenas and the
//!    worker pool are warm before anything is measured;
//! 2. **load** — `--clients` threads × `--requests` requests each, a
//!    seeded mix of generous-deadline explains, tight-deadline explains,
//!    predicts, and malformed requests — run **twice**: once with a
//!    fresh `Connection: close` socket per request, once with
//!    keep-alive clients that hold one connection each (responses
//!    framed by `content-length`, reconnecting whenever the server
//!    closes), so per-request connection cost is measured separately
//!    from service time;
//! 3. **idle** — `workers + 1` keep-alive clients each get one answer
//!    and then hold their sockets open without sending, and fresh
//!    `Connection: close` `/predict`s are timed behind them, each with
//!    the queue wait the server reports (`x-gef-queue-wait-us`): idle
//!    sockets must not hold workers, so the front end's own cost shows;
//! 4. **faults** — `--schedules` random `GEF_FAULTS` schedules (same
//!    generator as `xp_chaos`; requires `--features fault-injection`,
//!    otherwise the phase is skipped with a note), each armed
//!    process-wide while a small client fleet keeps load on the server.
//!
//! The robustness invariant checked on **every** response:
//!
//! > The status is one of the service's typed answers (200 / 400 / 404 /
//! > 405 / 413 / 429 / 500 / 501 / 504), a 429 carries `Retry-After`,
//! > the body is JSON with `"ok"` or `"error"`, and the socket never
//! > hangs — and after `shutdown()` the drained server answers nothing.
//!
//! The server's `/metrics` exposition is scraped mid-run and again
//! after the fault sweep: both scrapes must validate as Prometheus
//! text, counters must only move forwards between them, and on a
//! clean (zero-violation) run the `gef_serve_responses_total` sum must
//! reconcile exactly with the client-side request count. The final
//! scrape is written to `BENCH_metrics.prom` (the `metrics_check` ci
//! gate re-validates it).
//!
//! Results land in `BENCH_serve.json` (client-observed latency
//! p50/p95/p99 in µs, exact nearest-rank quantiles of the raw samples —
//! overall and per connection mode — requests-per-second,
//! shed/degraded/error counts, the idle phase, violations first). Exits
//! nonzero when any response violates the invariant. Under `--ci` the
//! idle phase is gated too: a fresh request whose server-reported queue
//! wait exceeds [`MAX_IDLE_QUEUE_WAIT_US`], or a fresh close-mode
//! `/predict` p50 of [`MAX_IDLE_PREDICT_P50_US`] or more, is a
//! violation.
//!
//! Flags: `--ci` (fixed small load: 4 clients × 40 requests, 1 fault
//! schedule — the ci.sh gate), `--clients N` (default 8),
//! `--requests N` per client (default 50), `--schedules N` (default
//! 100), `--seed S` (default 7).

use gef_bench::chaos::SplitMix;
use gef_core::GefConfig;
use gef_forest::{GbdtParams, GbdtTrainer, Objective};
use gef_serve::{ModelEntry, ServeConfig, Server};
use gef_trace::json::JsonWriter;
use gef_trace::metrics::Exposition;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `--ci` gate: the most queue wait the server may report for a fresh
/// request while `workers + 1` keep-alive sockets sit idle.
const MAX_IDLE_QUEUE_WAIT_US: u64 = 5_000;

/// `--ci` gate: fresh close-mode `/predict`s of the idle phase must
/// answer below this p50.
const MAX_IDLE_PREDICT_P50_US: u64 = 1_000;

/// Fresh requests timed in the idle phase.
const IDLE_FRESH_REQUESTS: usize = 40;

/// The `/predict` body every predict request sends.
const PREDICT: &str = r#"{"instance":[0.3,0.7,0.2]}"#;

struct Args {
    clients: usize,
    requests: usize,
    schedules: usize,
    seed: u64,
    ci: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        clients: 8,
        requests: 50,
        schedules: 100,
        seed: 7,
        ci: false,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let val = |j: usize| -> u64 {
            argv.get(j)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{} requires an integer argument", argv[j - 1]))
        };
        match argv[i].as_str() {
            "--ci" => {
                out.ci = true;
                out.clients = 4;
                out.requests = 40;
                out.schedules = 1;
                i += 1;
            }
            "--clients" => {
                out.clients = val(i + 1) as usize;
                i += 2;
            }
            "--requests" => {
                out.requests = val(i + 1) as usize;
                i += 2;
            }
            "--schedules" => {
                out.schedules = val(i + 1) as usize;
                i += 2;
            }
            "--seed" => {
                out.seed = val(i + 1);
                i += 2;
            }
            other => panic!(
                "unknown flag {other:?} (expected --ci/--clients/--requests/--schedules/--seed)"
            ),
        }
    }
    out
}

/// Everything the sweep counts, merged from every client thread under
/// one lock (clients tally locally and merge once per phase).
#[derive(Default)]
struct Tally {
    requests: u64,
    ok: u64,
    degraded: u64,
    shed: u64,
    deadline_trips: u64,
    client_errors: u64,
    server_errors: u64,
    violations: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.deadline_trips += other.deadline_trips;
        self.client_errors += other.client_errors;
        self.server_errors += other.server_errors;
        self.violations.extend(other.violations);
    }
}

fn train_model() -> ModelEntry {
    let mut rng = SplitMix(13);
    let xs: Vec<Vec<f64>> = (0..600)
        .map(|_| (0..3).map(|_| rng.unit()).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 2.0 * x[0] - x[1] + (x[2] * 4.0).sin())
        .collect();
    let forest = GbdtTrainer::new(GbdtParams {
        num_trees: 40,
        num_leaves: 8,
        learning_rate: 0.15,
        min_data_in_leaf: 10,
        objective: Objective::RegressionL2,
        ..Default::default()
    })
    .fit(&xs, &ys)
    .expect("load-test forest trains");
    ModelEntry {
        name: "bench".into(),
        forest,
        config: GefConfig {
            num_univariate: 3,
            n_samples: 600,
            seed: 11,
            ..Default::default()
        },
    }
}

/// Connection discipline for the load generator.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A fresh socket + `Connection: close` per request (connection
    /// setup cost on every request — the worst case).
    Close,
    /// One held connection per client, responses framed by
    /// `content-length`, re-dialing whenever the server closes.
    KeepAlive,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Close => "close",
            Mode::KeepAlive => "keepalive",
        }
    }

    /// The `Connection` header line requests under this mode carry
    /// (HTTP/1.1 defaults to keep-alive when absent).
    fn conn_header(self) -> &'static str {
        match self {
            Mode::Close => "connection: close\r\n",
            Mode::KeepAlive => "",
        }
    }
}

/// A framing failure while reading a keep-alive response.
enum FrameError {
    /// The held socket died before any response byte arrived — the
    /// server closed it between requests (drain, shed, prior
    /// `Connection: close`). Protocol, not a violation: re-dial once.
    Stale(String),
    /// The connection failed *mid-response* — an invariant violation
    /// for an admitted request.
    Violation(String),
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One client's transport: owns the (optional) persistent stream.
struct Conn {
    port: u16,
    mode: Mode,
    stream: Option<TcpStream>,
}

impl Conn {
    fn new(port: u16, mode: Mode) -> Conn {
        Conn {
            port,
            mode,
            stream: None,
        }
    }

    fn dial(port: u16) -> Result<TcpStream, String> {
        let s = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("connect failed mid-run: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        Ok(s)
    }

    fn status_of(raw: &str) -> Result<u16, String> {
        raw.split(' ')
            .nth(1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("unparseable status line: {:?}", raw.lines().next()))
    }

    /// Read one `content-length`-framed response off a held stream.
    fn read_framed(s: &mut TcpStream) -> Result<String, FrameError> {
        let mut buf: Vec<u8> = Vec::new();
        let mut tmp = [0u8; 4096];
        let header_end = loop {
            if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
                break pos + 4;
            }
            match s.read(&mut tmp) {
                Ok(0) if buf.is_empty() => {
                    return Err(FrameError::Stale("clean EOF before the response".into()))
                }
                Ok(0) => {
                    return Err(FrameError::Violation(
                        "connection closed mid-headers".into(),
                    ))
                }
                Ok(n) => buf.extend_from_slice(&tmp[..n]),
                Err(e) if buf.is_empty() => return Err(FrameError::Stale(format!("read: {e}"))),
                Err(e) => {
                    return Err(FrameError::Violation(format!(
                        "response read failed (hang?): {e}"
                    )))
                }
            }
        };
        let head = String::from_utf8_lossy(&buf[..header_end]).to_ascii_lowercase();
        let need = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        while buf.len() < header_end + need {
            match s.read(&mut tmp) {
                Ok(0) => return Err(FrameError::Violation("connection closed mid-body".into())),
                Ok(n) => buf.extend_from_slice(&tmp[..n]),
                Err(e) => return Err(FrameError::Violation(format!("body read failed: {e}"))),
            }
        }
        Ok(String::from_utf8_lossy(&buf[..header_end + need]).into_owned())
    }

    /// One raw HTTP/1.1 exchange. Returns `(status, raw_response,
    /// latency)` or a violation string (I/O failure or a hang are
    /// invariant violations for an admitted connection — the *server*
    /// may refuse or shed, but never strand a client).
    fn exchange(&mut self, request: &[u8]) -> Result<(u16, String, Duration), String> {
        let t0 = Instant::now();
        if self.mode == Mode::Close {
            let mut s = Self::dial(self.port)?;
            s.write_all(request)
                .map_err(|e| format!("request write failed: {e}"))?;
            let mut raw = String::new();
            s.read_to_string(&mut raw)
                .map_err(|e| format!("response read failed (hang?): {e}"))?;
            return Ok((Self::status_of(&raw)?, raw, t0.elapsed()));
        }
        let mut retried = false;
        loop {
            if self.stream.is_none() {
                self.stream = Some(Self::dial(self.port)?);
            }
            let s = self.stream.as_mut().ok_or("stream just dialed")?;
            let raw = match s.write_all(request) {
                Ok(()) => Self::read_framed(s),
                // A write onto a socket the server already closed: a
                // stale-stream race, same as EOF-before-response.
                Err(e) => Err(FrameError::Stale(format!("write: {e}"))),
            };
            match raw {
                Ok(raw) => {
                    // Honor the server's close decision before reuse.
                    let head = raw
                        .split("\r\n\r\n")
                        .next()
                        .unwrap_or("")
                        .to_ascii_lowercase();
                    if head.contains("connection: close") {
                        self.stream = None;
                    }
                    return Ok((Self::status_of(&raw)?, raw, t0.elapsed()));
                }
                Err(FrameError::Stale(e)) => {
                    self.stream = None;
                    if retried {
                        return Err(format!("keep-alive socket failed twice: {e}"));
                    }
                    retried = true;
                }
                Err(FrameError::Violation(v)) => {
                    self.stream = None;
                    return Err(v);
                }
            }
        }
    }
}

fn post(path: &str, body: &str, extra: &str, conn_header: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\n{conn_header}{extra}content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const ALLOWED: [u16; 9] = [200, 400, 404, 405, 413, 429, 500, 501, 504];

/// `GET /metrics` over a fresh connection; returns the exposition body.
fn scrape_metrics(port: u16) -> Result<String, String> {
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n")
        .map_err(|e| format!("scrape write: {e}"))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)
        .map_err(|e| format!("scrape read: {e}"))?;
    if !raw.starts_with("HTTP/1.1 200 ") {
        return Err(format!(
            "scrape answered {:?}",
            raw.lines().next().unwrap_or("")
        ));
    }
    raw.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| "scrape response has no body".to_string())
}

/// Scrape + validate; a failure of either is an invariant violation.
fn scrape_validated(port: u16, tally: &Mutex<Tally>) -> Option<(String, Exposition)> {
    let text = match scrape_metrics(port) {
        Ok(t) => t,
        Err(e) => {
            tally
                .lock()
                .expect("tally lock")
                .violations
                .push(format!("[metrics] {e}"));
            return None;
        }
    };
    match gef_trace::metrics::validate(&text) {
        Ok(exp) => Some((text, exp)),
        Err(e) => {
            tally
                .lock()
                .expect("tally lock")
                .violations
                .push(format!("[metrics] exposition failed validation: {e}"));
            None
        }
    }
}

/// Every `*_total` counter of `prev` must still exist and be >= in
/// `next` — Prometheus counters never move backwards across scrapes.
fn check_monotonic(prev: &Exposition, next: &Exposition, tally: &Mutex<Tally>) {
    let mut t = tally.lock().expect("tally lock");
    for s1 in prev.samples.iter().filter(|s| s.name.ends_with("_total")) {
        match next
            .samples
            .iter()
            .find(|s2| s2.name == s1.name && s2.labels == s1.labels)
        {
            Some(s2) if s2.value >= s1.value => {}
            Some(s2) => t.violations.push(format!(
                "[metrics] counter {}{:?} went backwards: {} -> {}",
                s1.name, s1.labels, s1.value, s2.value
            )),
            None => t.violations.push(format!(
                "[metrics] counter {}{:?} vanished between scrapes",
                s1.name, s1.labels
            )),
        }
    }
}

/// Send one seeded request from the closed-loop mix and classify the
/// answer into the tally. Any invariant breach lands in
/// `tally.violations` with a replayable description.
fn one_request(conn: &mut Conn, rng: &mut SplitMix, tally: &mut Tally, latency: &mut Vec<u64>) {
    let ch = conn.mode.conn_header();
    let (request, kind) = match rng.below(10) {
        // A malformed frame: the parser must answer 400, not the
        // pipeline (always `Connection: close` — the body is unframed,
        // so the server cannot keep the stream).
        0 => (
            b"POST /explain HTTP/1.1\r\nconnection: close\r\ncontent-length: nope\r\n\r\n".to_vec(),
            "malformed",
        ),
        // A deadline that (almost) nothing survives: 504 or a fast 200,
        // never anything untyped.
        1 => (
            post(
                "/explain",
                r#"{"instance":[0.5,0.5,0.5],"deadline_ms":1}"#,
                "",
                ch,
            ),
            "tight",
        ),
        2 => (post("/predict", PREDICT, "", ch), "predict"),
        _ => {
            let x: Vec<String> = (0..3).map(|_| format!("{:.3}", rng.unit())).collect();
            (
                post(
                    "/explain",
                    &format!(r#"{{"instance":[{}],"deadline_ms":8000}}"#, x.join(",")),
                    "",
                    ch,
                ),
                "explain",
            )
        }
    };
    send(conn, &request, kind, tally, latency);
}

/// Send one request, time it into `latency`, check the answer against
/// the invariant and count it into the tally. Returns the raw response
/// when one arrived.
fn send(
    conn: &mut Conn,
    request: &[u8],
    kind: &str,
    tally: &mut Tally,
    latency: &mut Vec<u64>,
) -> Option<String> {
    tally.requests += 1;
    let mode = conn.mode.label();
    let (status, raw, took) = match conn.exchange(request) {
        Ok(ok) => ok,
        Err(v) => {
            tally.violations.push(format!("[{kind}/{mode}] {v}"));
            return None;
        }
    };
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    latency.push(took.as_micros() as u64);
    if status == 429 && !raw.to_ascii_lowercase().contains("retry-after:") {
        tally
            .violations
            .push(format!("[{kind}/{mode}] 429 without a Retry-After header"));
        return Some(raw);
    }
    if !ALLOWED.contains(&status) {
        tally.violations.push(format!(
            "[{kind}/{mode}] unexpected status {status}: {body}"
        ));
        return Some(raw);
    }
    if !(body.contains("\"ok\"") || body.contains("\"error\"")) {
        tally.violations.push(format!(
            "[{kind}/{mode}] body is not a typed envelope: {body:?}"
        ));
        return Some(raw);
    }
    match status {
        200 => {
            tally.ok += 1;
            // Only /explain answers carry a floor; degraded means the
            // floor was raised or the recovery ladder stepped mid-fit.
            let explain_degraded = body.contains("\"floor\"")
                && (!body.contains("\"floor\":\"full\"") || !body.contains("\"degradations\":[]"));
            if explain_degraded {
                tally.degraded += 1;
            }
        }
        429 => tally.shed += 1,
        504 => tally.deadline_trips += 1,
        400 | 404 | 405 | 413 | 501 => tally.client_errors += 1,
        _ => tally.server_errors += 1,
    }
    Some(raw)
}

/// What the idle phase measured.
struct IdlePhase {
    /// Keep-alive sockets held idle while the fresh requests ran.
    sockets: usize,
    /// Client latency of each fresh `/predict` (µs), ascending.
    predict_us: Vec<u64>,
    /// The largest queue wait the server reported for a fresh request.
    queue_wait_max_us: u64,
}

/// The numeric value of response header `name` (any case) in a raw
/// response.
fn header_u64(raw: &str, name: &str) -> Option<u64> {
    let head = raw.split("\r\n\r\n").next()?;
    head.lines().skip(1).find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.eq_ignore_ascii_case(name)
            .then(|| v.trim().parse().ok())
            .flatten()
    })
}

/// `sockets` keep-alive clients each get one `/predict` answer and then
/// sit idle with their sockets open; [`IDLE_FRESH_REQUESTS`] fresh
/// close-mode `/predict`s are then timed one after another. A server
/// that held a worker per idle socket would queue every fresh request
/// behind a read timeout.
fn idle_phase(port: u16, sockets: usize, tally: &Mutex<Tally>) -> IdlePhase {
    let mut t = Tally::default();
    let mut held = Vec::with_capacity(sockets);
    for _ in 0..sockets {
        let mut conn = Conn::new(port, Mode::KeepAlive);
        let request = post("/predict", PREDICT, "", Mode::KeepAlive.conn_header());
        send(&mut conn, &request, "idle", &mut t, &mut Vec::new());
        held.push(conn);
    }
    let mut predict_us = Vec::with_capacity(IDLE_FRESH_REQUESTS);
    let mut queue_wait_max_us = 0;
    let mut fresh = Conn::new(port, Mode::Close);
    let request = post("/predict", PREDICT, "", Mode::Close.conn_header());
    for _ in 0..IDLE_FRESH_REQUESTS {
        let Some(raw) = send(&mut fresh, &request, "fresh", &mut t, &mut predict_us) else {
            continue;
        };
        match header_u64(&raw, "x-gef-queue-wait-us") {
            Some(us) => queue_wait_max_us = queue_wait_max_us.max(us),
            None => t
                .violations
                .push("[fresh/close] answer without x-gef-queue-wait-us".into()),
        }
    }
    drop(held);
    predict_us.sort_unstable();
    tally.lock().expect("tally lock").merge(t);
    IdlePhase {
        sockets,
        predict_us,
        queue_wait_max_us,
    }
}

/// Nearest-rank `q`-quantile of ascending `sorted` samples (0 when
/// empty): the smallest sample with at least `q·n` samples at or below
/// it, so every reported quantile is a latency a client saw.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0)
}

/// Run `clients` closed-loop threads of `requests` requests each under
/// the given connection mode and merge their tallies and raw latencies
/// into the shared state.
fn run_fleet(
    port: u16,
    mode: Mode,
    clients: usize,
    requests: usize,
    seed: u64,
    tally: &Mutex<Tally>,
    latency: &Mutex<Vec<u64>>,
) {
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut rng = SplitMix(seed ^ (0x5eed ^ c as u64).wrapping_mul(0x9e37));
                let mut conn = Conn::new(port, mode);
                let mut local = Tally::default();
                let mut samples = Vec::with_capacity(requests);
                for _ in 0..requests {
                    one_request(&mut conn, &mut rng, &mut local, &mut samples);
                }
                tally.lock().expect("tally lock").merge(local);
                latency.lock().expect("latency lock").extend(samples);
            });
        }
    });
}

#[cfg(feature = "fault-injection")]
fn fault_sweep(
    port: u16,
    args: &Args,
    tally: &Mutex<Tally>,
    latency: &Mutex<Vec<u64>>,
) -> Vec<String> {
    use gef_core::faults;
    let mut rng = SplitMix(args.seed);
    let mut schedules = Vec::with_capacity(args.schedules);
    let clients = args.clients.clamp(1, 3);
    let requests = if args.ci { 4 } else { 3 };
    for index in 0..args.schedules {
        let schedule = gef_bench::chaos::random_schedule(&mut rng);
        let entries = match faults::parse_spec(&schedule) {
            Ok(e) => e,
            Err(err) => {
                tally
                    .lock()
                    .expect("tally lock")
                    .violations
                    .push(format!("schedule {index} failed to parse: {err}"));
                continue;
            }
        };
        faults::reset();
        for (site, trigger) in entries {
            faults::arm(&site, trigger);
        }
        run_fleet(
            port,
            Mode::Close,
            clients,
            requests,
            args.seed ^ index as u64,
            tally,
            latency,
        );
        faults::reset();
        schedules.push(schedule);
    }
    schedules
}

#[cfg(not(feature = "fault-injection"))]
fn fault_sweep(
    _port: u16,
    _args: &Args,
    _tally: &Mutex<Tally>,
    _latency: &Mutex<Vec<u64>>,
) -> Vec<String> {
    eprintln!(
        "xp_serve: built without --features fault-injection; skipping the fault-schedule sweep"
    );
    Vec::new()
}

fn main() {
    let args = parse_args();
    // Deadline trips and injected faults are *expected* under this
    // sweep; keep their incident dumps out of the working tree unless
    // the operator pointed GEF_INCIDENT_DIR somewhere deliberately.
    if std::env::var_os("GEF_INCIDENT_DIR").is_none() {
        std::env::set_var(
            "GEF_INCIDENT_DIR",
            std::env::temp_dir().join("gef-serve-incidents"),
        );
    }
    let model = train_model();
    // A small queue and few workers so the overload phase actually
    // overloads: shedding and preemptive degradation must both fire.
    let workers = 2;
    let cfg = ServeConfig {
        workers,
        queue_depth: 2,
        deadline_ms: 8_000,
        breaker_threshold: 5,
        breaker_cooldown_ms: 500,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, vec![model]).expect("server boots on an ephemeral port");
    let port = server.port();
    println!(
        "# xp_serve: port {port}, {} clients x {} requests, {} fault schedule(s), seed {}",
        args.clients, args.requests, args.schedules, args.seed
    );

    let tally = Mutex::new(Tally::default());
    let latency = Mutex::new(Vec::new());

    // Warmup: sequential, untallied-latency requests (counted for
    // invariants only — a warmup violation is still a violation).
    {
        let mut warm = Tally::default();
        let mut rng = SplitMix(args.seed ^ 0xcafe);
        let mut conn = Conn::new(port, Mode::Close);
        for _ in 0..3 {
            one_request(&mut conn, &mut rng, &mut warm, &mut Vec::new());
        }
        tally.lock().expect("tally lock").merge(warm);
    }

    // The load phase runs once per connection mode, with its own
    // latency samples, so the per-request connection-setup cost is
    // visible: keep-alive p50 should sit below the close-per-request
    // p50 on the same request mix.
    struct ModeStats {
        mode: &'static str,
        p50: u64,
        p95: u64,
        p99: u64,
        rps: f64,
    }
    let mut mode_stats: Vec<ModeStats> = Vec::new();
    let mut load_elapsed = 0.0f64;
    for mode in [Mode::Close, Mode::KeepAlive] {
        let samples = Mutex::new(Vec::new());
        let t_load = Instant::now();
        run_fleet(
            port,
            mode,
            args.clients,
            args.requests,
            args.seed ^ (mode as u64) << 32,
            &tally,
            &samples,
        );
        let elapsed = t_load.elapsed().as_secs_f64();
        load_elapsed += elapsed;
        let mut samples = samples.into_inner().expect("mode latency lock");
        samples.sort_unstable();
        let requests = (args.clients * args.requests) as f64;
        mode_stats.push(ModeStats {
            mode: mode.label(),
            p50: nearest_rank(&samples, 0.50),
            p95: nearest_rank(&samples, 0.95),
            p99: nearest_rank(&samples, 0.99),
            rps: if elapsed > 0.0 {
                requests / elapsed
            } else {
                0.0
            },
        });
        latency.lock().expect("latency lock").extend(samples);
    }

    let idle = idle_phase(port, workers + 1, &tally);
    let idle_p50 = nearest_rank(&idle.predict_us, 0.50);
    if args.ci {
        let mut t = tally.lock().expect("tally lock");
        if idle.queue_wait_max_us > MAX_IDLE_QUEUE_WAIT_US {
            t.violations.push(format!(
                "[idle] a fresh request waited {} us in the queue behind {} idle sockets \
                 (gate {MAX_IDLE_QUEUE_WAIT_US} us)",
                idle.queue_wait_max_us, idle.sockets
            ));
        }
        if idle_p50 >= MAX_IDLE_PREDICT_P50_US {
            t.violations.push(format!(
                "[idle] fresh close-mode /predict p50 {idle_p50} us (gate < {MAX_IDLE_PREDICT_P50_US} us)"
            ));
        }
    }

    // Mid-run scrape: the exposition must parse while the server is
    // hot, and baselines the monotonicity check of the final scrape.
    // Each successful scrape is itself one served response, which the
    // reconciliation below accounts for.
    let mut scrapes = 0u64;
    let mid = scrape_validated(port, &tally);
    if mid.is_some() {
        scrapes += 1;
    }

    let schedules = fault_sweep(port, &args, &tally, &latency);

    // Final scrape (before shutdown): validate, check counters moved
    // only forwards, and reconcile the server's per-status response
    // tallies against what the clients actually counted.
    let mut metrics_text = String::new();
    let mut responses_exported = 0u64;
    if let Some((text, exp)) = scrape_validated(port, &tally) {
        if let Some((_, ref mid_exp)) = mid {
            check_monotonic(mid_exp, &exp, &tally);
        }
        responses_exported = exp.sum("gef_serve_responses_total") as u64;
        let mut t = tally.lock().expect("tally lock");
        // Reconcile only on a clean run: any earlier violation means a
        // request went unanswered, so the tallies legitimately differ.
        if t.violations.is_empty() {
            let client_requests = t.requests;
            let expected = client_requests + scrapes;
            if responses_exported != expected {
                t.violations.push(format!(
                    "[metrics] gef_serve_responses_total sums to {responses_exported}, \
                     but clients counted {expected} answered requests \
                     ({client_requests} requests + {scrapes} scrape(s))"
                ));
            }
        }
        metrics_text = text;
    }

    // Graceful drain, then the drained server must answer nothing.
    server.shutdown();
    {
        let mut t = tally.lock().expect("tally lock");
        if let Ok(mut s) = TcpStream::connect(("127.0.0.1", port)) {
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
            let mut buf = String::new();
            if s.read_to_string(&mut buf).unwrap_or(0) > 0 {
                t.violations
                    .push(format!("drained server still answers: {buf:?}"));
            }
        }
    }

    let tally = tally.into_inner().expect("tally lock");
    let mut latency = latency.into_inner().expect("latency lock");
    latency.sort_unstable();
    let (p50, p95, p99) = (
        nearest_rank(&latency, 0.50),
        nearest_rank(&latency, 0.95),
        nearest_rank(&latency, 0.99),
    );
    // Two load passes: one per connection mode.
    let load_requests = (2 * args.clients * args.requests) as f64;
    let rps = if load_elapsed > 0.0 {
        load_requests / load_elapsed
    } else {
        0.0
    };

    println!(
        "# {} requests: {} ok ({} degraded), {} shed, {} deadline trips, {} client errors, \
         {} server errors, {} violations",
        tally.requests,
        tally.ok,
        tally.degraded,
        tally.shed,
        tally.deadline_trips,
        tally.client_errors,
        tally.server_errors,
        tally.violations.len()
    );
    if !latency.is_empty() {
        println!(
            "# latency: p50 {p50} us, p95 {p95} us, p99 {p99} us \
             ({rps:.1} req/s over the load phases)"
        );
        for m in &mode_stats {
            println!(
                "#   {}: p50 {} us, p95 {} us, p99 {} us ({:.1} req/s)",
                m.mode, m.p50, m.p95, m.p99, m.rps
            );
        }
    }
    println!(
        "# idle: {} sockets held, fresh close-mode /predict p50 {idle_p50} us, p99 {} us, \
         max server queue wait {} us",
        idle.sockets,
        nearest_rank(&idle.predict_us, 0.99),
        idle.queue_wait_max_us
    );
    for v in &tally.violations {
        println!("VIOLATION: {v}");
    }

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("seed", args.seed);
    w.field_u64("clients", args.clients as u64);
    w.field_u64("requests_per_client", args.requests as u64);
    w.field_u64("schedules", schedules.len() as u64);
    w.field_u64("total_requests", tally.requests);
    w.field_u64("ok", tally.ok);
    w.field_u64("degraded", tally.degraded);
    w.field_u64("shed", tally.shed);
    w.field_u64("deadline_trips", tally.deadline_trips);
    w.field_u64("client_errors", tally.client_errors);
    w.field_u64("server_errors", tally.server_errors);
    w.field_f64("load_rps", rps);
    w.field_u64("latency_p50_us", p50);
    w.field_u64("latency_p95_us", p95);
    w.field_u64("latency_p99_us", p99);
    w.key("modes");
    w.begin_array();
    for m in &mode_stats {
        w.begin_object();
        w.field_str("mode", m.mode);
        w.field_u64("latency_p50_us", m.p50);
        w.field_u64("latency_p95_us", m.p95);
        w.field_u64("latency_p99_us", m.p99);
        w.field_f64("rps", m.rps);
        w.end_object();
    }
    w.end_array();
    w.key("idle");
    w.begin_object();
    w.field_u64("sockets", idle.sockets as u64);
    w.field_u64("fresh_requests", idle.predict_us.len() as u64);
    w.field_u64("predict_p50_us", idle_p50);
    w.field_u64("predict_p99_us", nearest_rank(&idle.predict_us, 0.99));
    w.field_u64("queue_wait_max_us", idle.queue_wait_max_us);
    w.end_object();
    w.field_u64("metrics_responses_total", responses_exported);
    w.field_u64("violations", tally.violations.len() as u64);
    w.key("violation_details");
    w.begin_array();
    for v in &tally.violations {
        w.value_str(v);
    }
    w.end_array();
    w.key("fault_schedules");
    w.begin_array();
    for s in &schedules {
        w.value_str(s);
    }
    w.end_array();
    w.end_object();
    std::fs::write("BENCH_serve.json", w.finish()).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
    if !metrics_text.is_empty() {
        std::fs::write("BENCH_metrics.prom", &metrics_text).expect("write BENCH_metrics.prom");
        println!("wrote BENCH_metrics.prom");
    }

    gef_bench::emit_telemetry("xp_serve");
    if !tally.violations.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&v, 0.50), 100);
        assert_eq!(nearest_rank(&v, 0.95), 190);
        assert_eq!(nearest_rank(&v, 0.99), 198);
        assert_eq!(nearest_rank(&v, 1.0), 200);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }
}
