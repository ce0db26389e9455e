//! The server proper: admission control, request workers, single-flight
//! explains, circuit breaker, and graceful drain. The sockets live in
//! the reactor (`reactor.rs`).
//!
//! # State machine
//!
//! ```text
//!          reactor (one thread, poll(2))                 request workers
//!  conn ──▶ queue.len() < bound? ──no──▶ 429 + Retry-After (shed, no byte read)
//!              │ yes
//!              ▼
//!        parked ◀─────────────────────────────┐  keep-alive answer: the
//!          │ bytes arrive; idle 2 s → close    │  connection comes back with
//!          ▼                                   │  any pipelined bytes
//!        frame (http parser, same caps)        │
//!          ├─ malformed → typed 400/413/501, close
//!          ├─ buffers past the cap → 429, close
//!          ▼                                   │
//!        request queue ──▶ worker pops ──▶ per-request scoped budget
//!              │                               │
//!        depth ≥ ½ bound: FitFloor ≥ UnivariateOnly (degrade, not 503)
//!        depth ≥ ¾ bound: FitFloor = LinearSurrogate
//!              │                               │
//!              │              single flight per (model, config digest)
//!              │                     catch_unwind(explain)
//!              │                  ┌─ Ok(exp)  → 200, breaker.success
//!              │                  ├─ deadline → 504 typed
//!              │                  ├─ fit err  → 500 typed, breaker.failure
//!              │                  └─ panic    → 500 typed + incident dump
//!              │                               │
//!        breaker open (K consecutive fit failures, cooldown-timed):
//!        every admitted /explain runs at the LinearSurrogate floor
//! ```
//!
//! Shutdown: the reactor drops the listener (new connections are
//! refused), queues every request whose bytes already arrived and closes
//! the idle connections; workers answer every queued request with
//! `Connection: close`, then exit; the reactor drains the last closing
//! sockets and exits — a drain, not an abort.

use crate::flight::{Flights, Landing, Role};
use crate::http::{self, Request};
use crate::reactor::{self, Conn, SocketWriter};
use crate::ServeConfig;
use gef_core::budget::RunBudget;
use gef_core::reuse::CacheOutcome;
use gef_core::{incident, FitFloor, GefConfig, GefError, GefExplainer};
use gef_forest::Forest;
use gef_store::Store;
use gef_trace::ctx;
use gef_trace::hash::to_hex;
use gef_trace::hist::Histogram;
use gef_trace::json::{self, JsonValue, JsonWriter};
use gef_trace::metrics::{Outcome, PromWriter, SloWindow};
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle limit on a parked connection, and the longest a worker waits to
/// write an answer: a stalled peer can hold a socket for at most this
/// long, never forever, and never holds a worker while idle.
pub(crate) const SOCKET_TIMEOUT_MS: u64 = 2_000;

/// One preloaded model the server explains.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Name clients address the model by (`"model"` request field).
    pub name: String,
    /// The forest to explain/predict.
    pub forest: Forest,
    /// Pipeline configuration used for its explanations. The server
    /// may *raise* `fit_floor` under load — never lower it.
    pub config: GefConfig,
}

/// Every status the server answers with. `GET /metrics` exports one
/// `gef_serve_responses_total{code=...}` counter per entry (plus an
/// `other` bucket), incremented only when the response bytes were
/// actually written — the series load clients reconcile their own
/// request tallies against.
const STATUS_CODES: [u16; 9] = [200, 400, 404, 405, 413, 429, 500, 501, 504];

/// Index into [`Counters::responses`] for `status` (last slot = other).
fn status_slot(status: u16) -> usize {
    STATUS_CODES
        .iter()
        .position(|&c| c == status)
        .unwrap_or(STATUS_CODES.len())
}

/// Request counters, all monotonic (reported by `GET /stats` and
/// `GET /metrics`).
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) received: AtomicU64,
    served_ok: AtomicU64,
    degraded: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) client_errors: AtomicU64,
    server_errors: AtomicU64,
    deadline_trips: AtomicU64,
    panics_contained: AtomicU64,
    breaker_trips: AtomicU64,
    /// `/explain`s that adopted a concurrent leader's run.
    explain_coalesced: AtomicU64,
    /// Per-request soft-budget trips (80% of the deadline), read at
    /// budget-scope exit.
    budget_soft_trips: AtomicU64,
    /// Per-request hard-budget trips; counts alongside
    /// `deadline_trips` but also catches runs that tripped hard yet
    /// still returned (e.g. a race with completion).
    budget_hard_trips: AtomicU64,
    /// Responses written, indexed by [`status_slot`].
    responses: [AtomicU64; STATUS_CODES.len() + 1],
}

impl Counters {
    /// Count one response of `status` actually written to a socket.
    pub(crate) fn count_response(&self, status: u16) {
        self.responses[status_slot(status)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Circuit breaker over consecutive GAM-fit failures: open trips every
/// admitted `/explain` to the linear-surrogate floor for a cooldown,
/// then closes fully.
struct Breaker {
    threshold: u32,
    cooldown: Duration,
    state: Mutex<BreakerState>,
}

struct BreakerState {
    consecutive: u32,
    open_until: Option<Instant>,
}

impl Breaker {
    fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            state: Mutex::new(BreakerState {
                consecutive: 0,
                open_until: None,
            }),
        }
    }

    fn is_open(&self) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match s.open_until {
            Some(t) if Instant::now() < t => true,
            Some(_) => {
                // Cooldown over: close fully and start counting afresh.
                s.open_until = None;
                s.consecutive = 0;
                false
            }
            None => false,
        }
    }

    /// Record a fit failure; returns true when this one tripped the
    /// breaker open.
    fn record_failure(&self) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.consecutive = s.consecutive.saturating_add(1);
        if s.open_until.is_none() && s.consecutive >= self.threshold {
            s.open_until = Some(Instant::now() + self.cooldown);
            gef_trace::recorder::note(
                gef_trace::recorder::Kind::Event,
                "serve.breaker_open",
                &format!("{} consecutive fit failures", s.consecutive),
            );
            return true;
        }
        false
    }

    fn record_success(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.open_until.is_none() {
            s.consecutive = 0;
        }
    }
}

/// A framed request waiting for a worker, with the connection it came
/// on.
pub(crate) struct Job {
    pub(crate) conn: Conn,
    pub(crate) req: Request,
    /// When the reactor queued it (the start of its queue wait).
    pub(crate) enqueued: Instant,
}

/// The admission queue: requests, not connections.
struct Queue {
    jobs: VecDeque<Job>,
    /// Cleared once the reactor has stopped framing at shutdown: workers
    /// exit when the queue is closed and empty.
    open: bool,
}

/// State shared by the reactor and the request workers.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    models: Vec<ModelEntry>,
    /// Artifact store backing model loads and explanation reuse; `None`
    /// runs the server store-less (every explain computes from scratch).
    store: Option<Arc<Store>>,
    queue: Mutex<Queue>,
    queue_ready: Condvar,
    /// Connections workers hand back to the reactor.
    pub(crate) returns: Mutex<Vec<Conn>>,
    /// Write end of the reactor's wake socket.
    wake: UnixStream,
    pub(crate) shutdown: AtomicBool,
    /// Set once every worker has exited; the reactor then finishes.
    pub(crate) workers_done: AtomicBool,
    pub(crate) counters: Counters,
    /// `/explain` latency (µs) behind `/stats` and the `/metrics`
    /// histogram family.
    latency: Mutex<Histogram>,
    /// Per-request wait (µs) from the reactor's enqueue to a worker's
    /// pop.
    queue_wait: Mutex<Histogram>,
    /// Connections parked in the reactor, waiting for request bytes.
    pub(crate) parked: AtomicU64,
    /// Rolling per-second SLO accounting behind `/stats`'s `window`
    /// object and the `gef_serve_window_*` gauges.
    pub(crate) window: SloWindow,
    breaker: Breaker,
    flights: Flights,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn queue_depth(&self) -> usize {
        self.lock_queue().jobs.len()
    }

    /// Whether admission control sheds new work now.
    pub(crate) fn queue_full(&self) -> bool {
        self.queue_depth() >= self.cfg.queue_depth
    }

    /// Queue `job` for a worker, or hand its connection back when the
    /// queue is at its bound. `draining` (shutdown) admits past the
    /// bound: those requests arrived before the drain began.
    pub(crate) fn enqueue(&self, job: Job, draining: bool) -> Result<(), Conn> {
        let mut q = self.lock_queue();
        if !draining && q.jobs.len() >= self.cfg.queue_depth {
            return Err(job.conn);
        }
        q.jobs.push_back(job);
        drop(q);
        self.queue_ready.notify_one();
        Ok(())
    }

    /// No more requests are coming: let idle workers exit.
    pub(crate) fn stop_queue(&self) {
        self.lock_queue().open = false;
        self.queue_ready.notify_all();
    }

    /// Give a connection back to the reactor and wake it.
    fn hand_back(&self, conn: Conn) {
        self.returns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(conn);
        self.wake_reactor();
    }

    fn wake_reactor(&self) {
        // Non-blocking: a full wake socket already holds a pending wake.
        let _ = (&self.wake).write(&[1]);
    }

    /// The preemptive degradation floor for a request admitted *now*:
    /// an open breaker forces the last rung; otherwise queue pressure
    /// walks the ladder (½ bound → univariate-only, ¾ → linear).
    fn pressure_floor(&self) -> FitFloor {
        if self.breaker.is_open() {
            return FitFloor::LinearSurrogate;
        }
        let depth = self.queue_depth();
        let bound = self.cfg.queue_depth.max(1);
        if depth * 4 >= bound * 3 {
            FitFloor::LinearSurrogate
        } else if depth * 2 >= bound {
            FitFloor::UnivariateOnly
        } else {
            FitFloor::Full
        }
    }
}

/// A running explanation server. Dropping it without
/// [`Server::shutdown`] detaches the threads (the process exit reaps
/// them); call `shutdown` for a graceful drain.
pub struct Server {
    shared: Arc<Shared>,
    port: u16,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind on loopback and start serving `models`. Returns once the
    /// listener is bound and workers are up; [`Server::port`] has the
    /// (possibly ephemeral) port.
    pub fn start(cfg: ServeConfig, models: Vec<ModelEntry>) -> std::io::Result<Server> {
        Server::start_with_store(cfg, models, None)
    }

    /// Like [`Server::start`], but backed by an artifact store:
    /// `/explain` reuses digest-verified cached explanations
    /// ([`gef_core::reuse`]), and `GET /models` reports the store's
    /// MRU-cache state alongside the model digests.
    pub fn start_with_store(
        cfg: ServeConfig,
        models: Vec<ModelEntry>,
        store: Option<Arc<Store>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        // The reactor accepts only when poll(2) reports a pending
        // connection, and must never block in accept.
        listener.set_nonblocking(true)?;
        let (wake, wake_rx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        if cfg.profile {
            // `/explain?profile=1` serves per-request timeline
            // fragments; recording must be on for spans to exist.
            gef_trace::timeline::set_prof_enabled(true);
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
            }),
            queue_ready: Condvar::new(),
            returns: Mutex::new(Vec::new()),
            wake,
            shutdown: AtomicBool::new(false),
            workers_done: AtomicBool::new(false),
            counters: Counters::default(),
            latency: Mutex::new(Histogram::new()),
            queue_wait: Mutex::new(Histogram::new()),
            parked: AtomicU64::new(0),
            window: SloWindow::new(),
            flights: Flights::default(),
            breaker: Breaker::new(
                cfg.breaker_threshold,
                Duration::from_millis(cfg.breaker_cooldown_ms),
            ),
            models,
            store,
            cfg,
        });
        let reactor_shared = Arc::clone(&shared);
        let reactor = std::thread::Builder::new()
            .name("gef-serve-reactor".into())
            .spawn(move || reactor::run(&reactor_shared, listener, wake_rx))?;
        let mut workers = Vec::with_capacity(shared.cfg.workers);
        for i in 0..shared.cfg.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gef-serve-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))?,
            );
        }
        gef_trace::recorder::note(
            gef_trace::recorder::Kind::Event,
            "serve.started",
            &format!("port {port}"),
        );
        Ok(Server {
            shared,
            port,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Graceful drain: stop accepting, let workers answer every request
    /// that already arrived, join all threads. In-flight requests
    /// complete; new connections are refused once the listener closes.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.wake_reactor();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.workers_done.store(true, Ordering::Relaxed);
        self.shared.wake_reactor();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        gef_trace::recorder::note(gef_trace::recorder::Kind::Event, "serve.drained", "");
    }
}

fn worker_loop(shared: &Shared) {
    // The last answered connection goes back to the reactor only once
    // this worker has taken its next job off the queue, or found none:
    // a client that sends again (or reconnects) the moment it has its
    // answer must not find the queue slot still taken and be shed.
    let mut answered: Option<Conn> = None;
    loop {
        let job = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if let Some(conn) = answered.take() {
                    drop(q);
                    shared.hand_back(conn);
                    q = shared.lock_queue();
                    continue;
                }
                if !q.open {
                    // Queue drained and no more arrivals: clean exit.
                    return;
                }
                q = shared
                    .queue_ready
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        if let Some(conn) = answered.take() {
            shared.hand_back(conn);
        }
        let waited_us = job.enqueued.elapsed().as_micros() as u64;
        shared
            .queue_wait
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(waited_us);
        answered = Some(serve(shared, job.conn, &job.req, waited_us));
    }
}

/// Answer one framed request on its connection. Returns the connection
/// for the reactor: re-armed for keep-alive, marked closing otherwise.
fn serve(shared: &Shared, conn: Conn, req: &Request, waited_us: u64) -> Conn {
    let close = req.wants_close() || shared.shutdown.load(Ordering::Relaxed);
    // Honor a well-formed client-supplied id (16 hex chars), mint
    // otherwise. The scope makes the id reach every recorder entry,
    // timeline span, and gef-par task this request produces.
    let trace = req
        .header("x-gef-trace-id")
        .and_then(ctx::parse_hex)
        .unwrap_or_else(ctx::new_id);
    let hex = to_hex(trace);
    let response = {
        let _ctx = ctx::enter_trace(trace);
        dispatch(shared, req)
    };
    let waited = waited_us.to_string();
    let write_ok = http::write_response(
        &mut SocketWriter::new(&conn.stream, Duration::from_millis(SOCKET_TIMEOUT_MS)),
        response.status,
        response.reason,
        response.content_type,
        &[
            ("connection", if close { "close" } else { "keep-alive" }),
            ("x-gef-trace-id", &hex),
            ("x-gef-queue-wait-us", &waited),
        ],
        response.wire_body(&hex).as_bytes(),
    )
    .is_ok();
    if write_ok {
        shared.counters.count_response(response.status);
    }
    if close || !write_ok {
        conn.into_closing()
    } else {
        conn.rearm()
    }
}

/// A fully-formed response (status line + body).
struct Response {
    status: u16,
    reason: &'static str,
    body: String,
    /// `Content-Type` of `body`: JSON everywhere except `/metrics`.
    content_type: &'static str,
    /// A 200 that served a reduced answer (non-empty degradation
    /// history) — feeds the SLO window's degraded rate.
    degraded: bool,
}

impl Response {
    fn ok(body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            body,
            content_type: "application/json",
            degraded: false,
        }
    }

    fn error(status: u16, reason: &'static str, cause: &str, detail: &str) -> Response {
        Response {
            status,
            reason,
            body: error_body(cause, detail),
            content_type: "application/json",
            degraded: false,
        }
    }

    /// The bytes that go on the wire: JSON bodies get the request's
    /// `trace_id` spliced in as their first field; non-JSON bodies
    /// (`/metrics`) pass through untouched.
    fn wire_body(&self, trace_hex: &str) -> String {
        if self.content_type != "application/json" {
            return self.body.clone();
        }
        stamp_trace_id(&self.body, trace_hex)
    }
}

/// Splice `"trace_id":"<hex>"` in as the first field of a rendered
/// JSON object. Every handler body is an object, so prefix splicing
/// keeps the field present on every answer without threading the id
/// through each `JsonWriter` call site.
pub(crate) fn stamp_trace_id(body: &str, trace_hex: &str) -> String {
    match body.strip_prefix('{') {
        Some("}") => format!("{{\"trace_id\":\"{trace_hex}\"}}"),
        Some(rest) => format!("{{\"trace_id\":\"{trace_hex}\",{rest}"),
        None => body.to_string(),
    }
}

/// The SLO-window classification of a finished `/explain`/`/predict`.
fn outcome_of(resp: &Response) -> Outcome {
    match resp.status {
        200 if resp.degraded => Outcome::Degraded,
        200 => Outcome::Ok,
        500..=599 => Outcome::Error,
        // Client errors are the caller's fault, not an availability
        // breach: they don't dent the window's success rate.
        _ => Outcome::Ok,
    }
}

/// `{"error":{"cause":...,"detail":...}}`
pub(crate) fn error_body(cause: &str, detail: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("error");
    w.begin_object();
    w.field_str("cause", cause);
    w.field_str("detail", detail);
    w.end_object();
    w.end_object();
    w.finish()
}

fn dispatch(shared: &Shared, req: &Request) -> Response {
    // `target` may carry a query string (`/explain?profile=1`): route
    // on the path, hand the query to the handler.
    let (path, query) = match req.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.target.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/stats") => handle_stats(shared),
        ("GET", "/models") => handle_models(shared),
        ("GET", "/metrics") => handle_metrics(shared),
        ("POST", "/explain") => {
            let profile = shared.cfg.profile && query.split('&').any(|p| p == "profile=1");
            let t = Instant::now();
            let resp = handle_explain(shared, req, profile);
            let elapsed_us = t.elapsed().as_micros() as u64;
            shared
                .latency
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .record(elapsed_us);
            shared.window.record(outcome_of(&resp), Some(elapsed_us));
            count_status(shared, resp.status);
            let elapsed_ms = elapsed_us / 1_000;
            if shared.cfg.slow_ms > 0 && elapsed_ms >= shared.cfg.slow_ms {
                // Slow-request capture: the trace-id-filtered recorder
                // slice (+ timeline when profiling) as an incident-style
                // artifact, while the evidence is still in the ring.
                let trace = ctx::current_id();
                if trace != 0 {
                    let _ = incident::dump_slow(trace, elapsed_ms, shared.cfg.slow_ms, path);
                }
            }
            resp
        }
        ("POST", "/predict") => {
            let resp = handle_predict(shared, req);
            shared.window.record(outcome_of(&resp), None);
            count_status(shared, resp.status);
            resp
        }
        (_, "/healthz" | "/stats" | "/models" | "/metrics" | "/explain" | "/predict") => {
            Response::error(
                405,
                "Method Not Allowed",
                "method_not_allowed",
                &format!("{} is not valid here", req.method),
            )
        }
        _ => Response::error(404, "Not Found", "not_found", &req.target.clone()),
    }
}

fn count_status(shared: &Shared, status: u16) {
    let c = &shared.counters;
    match status {
        200 => {
            c.served_ok.fetch_add(1, Ordering::Relaxed);
        }
        400..=499 => {
            c.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        _ => {
            c.server_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn handle_healthz(shared: &Shared) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("ok");
    w.value_raw("true");
    w.field_str(
        "status",
        if shared.shutdown.load(Ordering::Relaxed) {
            "draining"
        } else {
            "serving"
        },
    );
    w.field_u64("models", shared.models.len() as u64);
    w.end_object();
    Response::ok(w.finish())
}

fn handle_stats(shared: &Shared) -> Response {
    let c = &shared.counters;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("received", c.received.load(Ordering::Relaxed));
    w.field_u64("served_ok", c.served_ok.load(Ordering::Relaxed));
    w.field_u64("degraded", c.degraded.load(Ordering::Relaxed));
    w.field_u64("shed", c.shed.load(Ordering::Relaxed));
    w.field_u64("client_errors", c.client_errors.load(Ordering::Relaxed));
    w.field_u64("server_errors", c.server_errors.load(Ordering::Relaxed));
    w.field_u64("deadline_trips", c.deadline_trips.load(Ordering::Relaxed));
    w.field_u64(
        "panics_contained",
        c.panics_contained.load(Ordering::Relaxed),
    );
    w.field_u64("breaker_trips", c.breaker_trips.load(Ordering::Relaxed));
    w.field_u64(
        "explain_coalesced",
        c.explain_coalesced.load(Ordering::Relaxed),
    );
    w.key("breaker_open");
    w.value_raw(if shared.breaker.is_open() {
        "true"
    } else {
        "false"
    });
    w.field_u64("queue_depth", shared.queue_depth() as u64);
    w.field_u64("queue_bound", shared.cfg.queue_depth as u64);
    w.field_u64("parked_connections", shared.parked.load(Ordering::Relaxed));
    w.field_str("pressure_floor", shared.pressure_floor().label());
    {
        let h = shared.latency.lock().unwrap_or_else(|e| e.into_inner());
        w.key("explain_latency_us");
        w.begin_object();
        w.field_u64("count", h.count());
        if h.count() > 0 {
            w.field_f64("mean", h.mean());
            w.field_u64("p50", h.quantile(0.50));
            w.field_u64("p95", h.quantile(0.95));
            w.field_u64("p99", h.quantile(0.99));
        }
        w.end_object();
    }
    {
        let h = shared.queue_wait.lock().unwrap_or_else(|e| e.into_inner());
        w.key("queue_wait_us");
        w.begin_object();
        w.field_u64("count", h.count());
        if h.count() > 0 {
            w.field_u64("p50", h.quantile(0.50));
            w.field_u64("p99", h.quantile(0.99));
        }
        w.end_object();
    }
    {
        // Rolling last-minute view, same machinery as /metrics'
        // gef_serve_window_* gauges.
        let s = shared.window.summary(60);
        w.key("window");
        w.begin_object();
        w.field_u64("window_secs", s.window_secs);
        w.field_u64("requests", s.total);
        w.field_u64("ok", s.ok);
        w.field_u64("degraded", s.degraded);
        w.field_u64("shed", s.shed);
        w.field_u64("errors", s.errors);
        w.field_f64("success_rate", s.success_rate);
        w.field_f64("shed_rate", s.shed_rate);
        w.field_f64("degraded_rate", s.degraded_rate);
        w.field_u64("p99_us", s.p99_us);
        w.end_object();
    }
    w.end_object();
    Response::ok(w.finish())
}

/// `GET /metrics`: the Prometheus text exposition (format 0.0.4) of
/// the server's counters, per-status response tallies, the `/explain`
/// latency histogram (a power-of-two `le` ladder), rolling SLO windows,
/// breaker/queue gauges, and — when store-backed — MRU-cache and
/// quarantine gauges.
fn handle_metrics(shared: &Shared) -> Response {
    let c = &shared.counters;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let mut w = PromWriter::new();

    w.metric(
        "gef_serve_connections_received_total",
        "counter",
        "Connections accepted by the reactor, admitted or shed.",
    );
    w.sample_u64(
        "gef_serve_connections_received_total",
        &[],
        load(&c.received),
    );

    w.metric(
        "gef_serve_responses_total",
        "counter",
        "Responses written to sockets, by HTTP status code.",
    );
    for (i, &code) in STATUS_CODES.iter().enumerate() {
        let code_s = code.to_string();
        w.sample_u64(
            "gef_serve_responses_total",
            &[("code", &code_s)],
            load(&c.responses[i]),
        );
    }
    w.sample_u64(
        "gef_serve_responses_total",
        &[("code", "other")],
        load(&c.responses[STATUS_CODES.len()]),
    );

    let singles: [(&str, &str, u64); 9] = [
        (
            "gef_serve_served_ok_total",
            "200 answers to /explain and /predict.",
            load(&c.served_ok),
        ),
        (
            "gef_serve_degraded_total",
            "200 answers that served a degraded explanation.",
            load(&c.degraded),
        ),
        (
            "gef_serve_shed_total",
            "Connections shed with 429 by admission control or the reactor's buffer cap.",
            load(&c.shed),
        ),
        (
            "gef_serve_client_errors_total",
            "4xx answers (malformed requests included).",
            load(&c.client_errors),
        ),
        (
            "gef_serve_server_errors_total",
            "5xx answers to /explain and /predict.",
            load(&c.server_errors),
        ),
        (
            "gef_serve_deadline_trips_total",
            "Requests that tripped their hard deadline (504).",
            load(&c.deadline_trips),
        ),
        (
            "gef_serve_panics_contained_total",
            "Worker panics contained by catch_unwind.",
            load(&c.panics_contained),
        ),
        (
            "gef_serve_breaker_trips_total",
            "Times the circuit breaker tripped open.",
            load(&c.breaker_trips),
        ),
        (
            "gef_serve_explain_coalesced_total",
            "/explain requests answered from a concurrent identical run (single flight).",
            load(&c.explain_coalesced),
        ),
    ];
    for (name, help, v) in singles {
        w.metric(name, "counter", help);
        w.sample_u64(name, &[], v);
    }

    w.metric(
        "gef_serve_budget_trips_total",
        "counter",
        "Per-request run-budget trips observed at budget-scope exit.",
    );
    w.sample_u64(
        "gef_serve_budget_trips_total",
        &[("kind", "soft")],
        load(&c.budget_soft_trips),
    );
    w.sample_u64(
        "gef_serve_budget_trips_total",
        &[("kind", "hard")],
        load(&c.budget_hard_trips),
    );

    {
        let h = shared.latency.lock().unwrap_or_else(|e| e.into_inner());
        w.histogram(
            "gef_serve_explain_latency_us",
            "Wall-clock /explain latency in microseconds.",
            &h,
        );
    }
    {
        let h = shared.queue_wait.lock().unwrap_or_else(|e| e.into_inner());
        w.histogram(
            "gef_serve_queue_wait_us",
            "Per-request wait in the admission queue (microseconds), enqueue to worker pop.",
            &h,
        );
    }

    w.metric(
        "gef_serve_breaker_open",
        "gauge",
        "1 while the circuit breaker is open.",
    );
    w.sample_u64(
        "gef_serve_breaker_open",
        &[],
        u64::from(shared.breaker.is_open()),
    );
    w.metric(
        "gef_serve_queue_depth",
        "gauge",
        "Requests waiting in the admission queue.",
    );
    w.sample_u64("gef_serve_queue_depth", &[], shared.queue_depth() as u64);
    w.metric(
        "gef_serve_parked_connections",
        "gauge",
        "Connections parked in the reactor, waiting for request bytes.",
    );
    w.sample_u64(
        "gef_serve_parked_connections",
        &[],
        shared.parked.load(Ordering::Relaxed),
    );
    w.metric(
        "gef_serve_queue_bound",
        "gauge",
        "Admission queue bound (shed above this).",
    );
    w.sample_u64("gef_serve_queue_bound", &[], shared.cfg.queue_depth as u64);
    w.metric(
        "gef_serve_pressure_floor",
        "gauge",
        "Preemptive degradation floor (0=full, 1=univariate_only, 2=linear_surrogate).",
    );
    w.sample_u64(
        "gef_serve_pressure_floor",
        &[],
        match shared.pressure_floor() {
            FitFloor::Full => 0,
            FitFloor::UnivariateOnly => 1,
            FitFloor::LinearSurrogate => 2,
        },
    );

    if let Some(store) = &shared.store {
        let s = store.cache_stats();
        let cache: [(&str, &str, &str, u64); 6] = [
            (
                "gef_serve_store_cache_hits_total",
                "counter",
                "Model loads served from the MRU cache.",
                s.hits,
            ),
            (
                "gef_serve_store_cache_misses_total",
                "counter",
                "Model loads that went to disk.",
                s.misses,
            ),
            (
                "gef_serve_store_cache_evictions_total",
                "counter",
                "MRU cache evictions.",
                s.evictions,
            ),
            (
                "gef_serve_store_cache_entries",
                "gauge",
                "Models resident in the MRU cache.",
                s.entries as u64,
            ),
            (
                "gef_serve_store_cache_resident_bytes",
                "gauge",
                "Bytes resident in the MRU cache.",
                s.resident_bytes,
            ),
            (
                "gef_serve_store_cache_capacity_bytes",
                "gauge",
                "MRU cache capacity in bytes.",
                s.capacity_bytes,
            ),
        ];
        for (name, kind, help, v) in cache {
            w.metric(name, kind, help);
            w.sample_u64(name, &[], v);
        }
        w.metric(
            "gef_serve_store_quarantined",
            "gauge",
            "Artifacts quarantined by the store after digest mismatches.",
        );
        w.sample_u64(
            "gef_serve_store_quarantined",
            &[],
            store.quarantined().len() as u64,
        );
    }

    let windows = [
        ("1m", shared.window.summary(60)),
        ("5m", shared.window.summary(300)),
    ];
    w.metric(
        "gef_serve_window_requests",
        "gauge",
        "Requests finished inside the rolling window.",
    );
    for (label, s) in &windows {
        w.sample_u64("gef_serve_window_requests", &[("window", label)], s.total);
    }
    w.metric(
        "gef_serve_window_success_ratio",
        "gauge",
        "Rolling (ok+degraded)/total; 1 when idle.",
    );
    for (label, s) in &windows {
        w.sample(
            "gef_serve_window_success_ratio",
            &[("window", label)],
            s.success_rate,
        );
    }
    w.metric(
        "gef_serve_window_shed_ratio",
        "gauge",
        "Rolling shed/total.",
    );
    for (label, s) in &windows {
        w.sample(
            "gef_serve_window_shed_ratio",
            &[("window", label)],
            s.shed_rate,
        );
    }
    w.metric(
        "gef_serve_window_degraded_ratio",
        "gauge",
        "Rolling degraded/total.",
    );
    for (label, s) in &windows {
        w.sample(
            "gef_serve_window_degraded_ratio",
            &[("window", label)],
            s.degraded_rate,
        );
    }
    w.metric(
        "gef_serve_window_p99_us",
        "gauge",
        "Rolling p99 /explain latency (microseconds): its histogram bucket's floor.",
    );
    for (label, s) in &windows {
        w.sample_u64("gef_serve_window_p99_us", &[("window", label)], s.p99_us);
    }

    Response {
        status: 200,
        reason: "OK",
        body: w.finish(),
        content_type: "text/plain; version=0.0.4",
        degraded: false,
    }
}

/// `GET /models`: every loaded model's name + content digests, plus —
/// when the server is store-backed — the store's MRU-cache state and
/// quarantine count, so operators can see recovery activity without
/// shelling into the store directory.
fn handle_models(shared: &Shared) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("models");
    w.begin_array();
    for m in &shared.models {
        w.begin_object();
        w.field_str("name", &m.name);
        w.field_str("digest", &to_hex(m.forest.content_digest()));
        w.field_str("config_digest", &to_hex(m.config.content_digest()));
        w.field_u64("num_trees", m.forest.trees.len() as u64);
        w.field_u64("num_features", m.forest.num_features as u64);
        w.end_object();
    }
    w.end_array();
    w.key("cache");
    match &shared.store {
        Some(store) => {
            let s = store.cache_stats();
            w.begin_object();
            w.field_u64("hits", s.hits);
            w.field_u64("misses", s.misses);
            w.field_u64("evictions", s.evictions);
            w.field_u64("entries", s.entries as u64);
            w.field_u64("resident_bytes", s.resident_bytes);
            w.field_u64("capacity_bytes", s.capacity_bytes);
            w.end_object();
            w.field_u64("quarantined", store.quarantined().len() as u64);
        }
        None => {
            w.value_raw("null");
            w.field_u64("quarantined", 0);
        }
    }
    w.end_object();
    Response::ok(w.finish())
}

/// Parse the request body and resolve the target model and instance.
fn parse_instance<'a>(
    shared: &'a Shared,
    req: &Request,
) -> Result<(&'a ModelEntry, Vec<f64>, JsonValue), Response> {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Err(Response::error(
            400,
            "Bad Request",
            "bad_json",
            "body is not valid UTF-8",
        ));
    };
    let body =
        json::parse(text).map_err(|e| Response::error(400, "Bad Request", "bad_json", &e))?;
    let model = match body.get("model").and_then(|m| m.as_str()) {
        Some(name) => shared
            .models
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| {
                Response::error(
                    404,
                    "Not Found",
                    "model_not_found",
                    &format!("no model named {name:?}"),
                )
            })?,
        None if shared.models.len() == 1 => &shared.models[0],
        None => {
            return Err(Response::error(
                400,
                "Bad Request",
                "bad_instance",
                "a 'model' field is required when several models are loaded",
            ))
        }
    };
    let Some(values) = body.get("instance").and_then(|i| i.as_array()) else {
        return Err(Response::error(
            400,
            "Bad Request",
            "bad_instance",
            "an 'instance' array of numbers is required",
        ));
    };
    let mut instance = Vec::with_capacity(values.len());
    for v in values {
        match v.as_f64() {
            Some(x) if x.is_finite() => instance.push(x),
            _ => {
                return Err(Response::error(
                    400,
                    "Bad Request",
                    "bad_instance",
                    "instance values must be finite numbers",
                ))
            }
        }
    }
    if instance.len() != model.forest.num_features {
        return Err(Response::error(
            400,
            "Bad Request",
            "bad_instance",
            &format!(
                "instance has {} values; model {:?} expects {}",
                instance.len(),
                model.name,
                model.forest.num_features
            ),
        ));
    }
    Ok((model, instance, body))
}

fn handle_predict(shared: &Shared, req: &Request) -> Response {
    let (model, instance, _) = match parse_instance(shared, req) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    // Unified batch entry point: single rows take the walker, but any
    // armed budget still trips a typed error instead of a partial
    // answer, and larger batches (future multi-instance bodies) ride
    // the flattened kernel transparently.
    let prediction = match model.forest.predict_batch(std::slice::from_ref(&instance)) {
        Ok(preds) => preds[0],
        Err(err @ gef_forest::ForestError::DeadlineExceeded { .. }) => {
            shared
                .counters
                .deadline_trips
                .fetch_add(1, Ordering::Relaxed);
            return Response::error(504, "Gateway Timeout", "deadline", &err.to_string());
        }
        Err(err) => {
            return Response::error(500, "Internal Server Error", "predict", &err.to_string())
        }
    };
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("ok");
    w.value_raw("true");
    w.field_str("model", &model.name);
    w.field_f64("prediction", prediction);
    w.end_object();
    Response::ok(w.finish())
}

/// Whether this error means "the GAM fit itself is failing" — the
/// signal the circuit breaker integrates.
fn is_fit_failure(cause: &str) -> bool {
    matches!(
        cause,
        "gam" | "recovery_exhausted" | "non_finite_labels" | "worker_panic"
    )
}

fn handle_explain(shared: &Shared, req: &Request, profile: bool) -> Response {
    let (model, instance, body) = match parse_instance(shared, req) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    // Per-request hard deadline: the request may lower the server
    // default, never raise it. Soft pressure at 80%, mirroring
    // RunBudget::from_env.
    let deadline_ms = body
        .get("deadline_ms")
        .and_then(|d| d.as_f64())
        .filter(|&d| d >= 1.0)
        .map(|d| (d as u64).min(shared.cfg.deadline_ms))
        .unwrap_or(shared.cfg.deadline_ms);
    let floor = shared.pressure_floor();
    let mut config = model.config.clone();
    config.fit_floor = config.fit_floor.max(floor);
    let budget = RunBudget {
        hard_deadline: Some(Duration::from_millis(deadline_ms)),
        soft_deadline: Some(Duration::from_millis(deadline_ms.saturating_mul(4) / 5)),
    };
    let outcome = {
        // The scope guard lives exactly as long as the run, so an early
        // return can never leak this request's deadline to the next.
        let scope = budget.enter();
        let hard_deadline = Instant::now() + Duration::from_millis(deadline_ms);
        let result = catch_unwind(AssertUnwindSafe(|| {
            if shared.cfg.test_hooks {
                match req.header("x-gef-test") {
                    Some("panic") => panic!("test hook: deliberate worker panic"),
                    Some("sleep") => {
                        // Deterministically holds this worker busy so
                        // admission-control tests can fill the queue.
                        let ms = req
                            .header("x-gef-test-ms")
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(200)
                            .min(10_000);
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    _ => {}
                }
            }
            let run = || {
                let explainer = GefExplainer::new(config.clone());
                match &shared.store {
                    // Store-backed: reuse a digest-verified cached
                    // explanation when one exists for this exact
                    // (model, config) pair. Pressure-raised floors change
                    // the config digest, and deadline-degraded runs are
                    // never published (nor served from cache), so
                    // degraded and full explanations cannot alias.
                    Some(store) => explainer
                        .explain_cached(&model.forest, store)
                        .map(|(exp, outcome)| Arc::new((exp, Some(outcome)))),
                    None => explainer
                        .explain(&model.forest)
                        .map(|exp| Arc::new((exp, None))),
                }
            };
            if profile {
                // A profiled request must record its own spans.
                return run();
            }
            // The explanation depends only on (model, config): the same
            // key computes the same bits, so concurrent requests share
            // one run. Each still computes its own `local(x)` below.
            match shared.flights.join(&model.name, config.content_digest()) {
                Role::Leader(mut lead) => {
                    let answer = run();
                    let b = scope.budget();
                    if let Ok(a) = &answer {
                        if !b.soft_tripped() && !b.hard_tripped() {
                            lead.share(Arc::clone(a));
                        }
                    }
                    answer
                }
                Role::Follower(flight) => match flight.wait(hard_deadline) {
                    Landing::Adopt(a) => {
                        shared
                            .counters
                            .explain_coalesced
                            .fetch_add(1, Ordering::Relaxed);
                        Ok(a)
                    }
                    Landing::RunOwn => run(),
                    Landing::TimedOut => {
                        // Latch the trip on this request's budget, as a
                        // pipeline checkpoint would.
                        scope.budget().hard_exceeded();
                        Err(GefError::DeadlineExceeded {
                            at: "single_flight",
                        })
                    }
                },
            }
        }));
        // Read the trip flags while this request's budget is still the
        // one in scope; after the guard drops the thread is unbudgeted
        // again.
        if scope.budget().soft_tripped() {
            shared
                .counters
                .budget_soft_trips
                .fetch_add(1, Ordering::Relaxed);
        }
        if scope.budget().hard_tripped() {
            shared
                .counters
                .budget_hard_trips
                .fetch_add(1, Ordering::Relaxed);
        }
        result
    };
    match outcome {
        Err(payload) => {
            // Fault containment: typed 500 + incident dump, never a
            // dead worker.
            shared
                .counters
                .panics_contained
                .fetch_add(1, Ordering::Relaxed);
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            incident::dump_now("serve_panic", &detail);
            if shared.breaker.record_failure() {
                shared
                    .counters
                    .breaker_trips
                    .fetch_add(1, Ordering::Relaxed);
            }
            Response::error(500, "Internal Server Error", "worker_panic", &detail)
        }
        Ok(Err(err)) => {
            let cause = err.cause_label();
            if matches!(
                err,
                GefError::DeadlineExceeded { .. } | GefError::BudgetExceeded(_)
            ) {
                shared
                    .counters
                    .deadline_trips
                    .fetch_add(1, Ordering::Relaxed);
                return Response::error(504, "Gateway Timeout", cause, &err.to_string());
            }
            if is_fit_failure(cause) && shared.breaker.record_failure() {
                shared
                    .counters
                    .breaker_trips
                    .fetch_add(1, Ordering::Relaxed);
            }
            Response::error(500, "Internal Server Error", cause, &err.to_string())
        }
        Ok(Ok(answer)) => {
            let (exp, cache_outcome) = &*answer;
            shared.breaker.record_success();
            if !exp.degradations.is_empty() {
                shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
            }
            let local = exp.local(&instance);
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("ok");
            w.value_raw("true");
            w.field_str("model", &model.name);
            w.field_f64("prediction", local.prediction);
            w.field_f64("baseline", local.baseline);
            w.field_f64("fidelity_r2", exp.fidelity_r2);
            w.field_str("floor", config.fit_floor.label());
            w.field_str("budget_outcome", &exp.provenance.budget_outcome);
            w.field_str(
                "cache",
                cache_outcome
                    .as_ref()
                    .map(CacheOutcome::label)
                    .unwrap_or("off"),
            );
            w.key("degradations");
            w.begin_array();
            for d in &exp.degradations {
                w.value_str(d.action.label());
            }
            w.end_array();
            w.key("contributions");
            w.begin_array();
            for c in &local.contributions {
                w.begin_object();
                w.field_str("term", &c.label);
                w.key("features");
                w.begin_array();
                for &f in &c.features {
                    w.value_u64(f as u64);
                }
                w.end_array();
                w.key("values");
                w.begin_array();
                for &v in &c.values {
                    w.value_f64(v);
                }
                w.end_array();
                w.field_f64("contribution", c.contribution);
                w.field_f64("std_error", c.std_error);
                w.end_object();
            }
            w.end_array();
            if profile {
                // The request's own flame view: the merged timeline
                // filtered down to spans stamped with this trace id
                // (a complete Chrome-trace document, embeddable raw).
                let trace = ctx::current_id();
                w.key("profile");
                if gef_trace::timeline::prof_enabled() && trace != 0 {
                    w.value_raw(&gef_trace::timeline::chrome_trace_fragment(trace));
                } else {
                    w.value_raw("null");
                }
            }
            w.end_object();
            let mut resp = Response::ok(w.finish());
            resp.degraded = !exp.degradations.is_empty();
            resp
        }
    }
}
