//! End-to-end tests of the explanation service over real sockets:
//! per-request (not shared) deadlines, admission-control shedding,
//! panic containment, circuit breaking, and graceful drain.

use gef_core::GefConfig;
use gef_forest::{Forest, GbdtParams, GbdtTrainer};
use gef_serve::{ModelEntry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn train_forest() -> Forest {
    let mut state = 42u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let xs: Vec<Vec<f64>> = (0..400).map(|_| (0..3).map(|_| next()).collect()).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + x[2]).collect();
    GbdtTrainer::new(GbdtParams {
        num_trees: 30,
        num_leaves: 8,
        learning_rate: 0.2,
        min_data_in_leaf: 5,
        ..Default::default()
    })
    .fit(&xs, &ys)
    .unwrap()
}

fn model(n_samples: usize) -> ModelEntry {
    ModelEntry {
        name: "m".into(),
        forest: train_forest(),
        config: GefConfig {
            num_univariate: 3,
            n_samples,
            ..Default::default()
        },
    }
}

fn start(cfg: ServeConfig, n_samples: usize) -> Server {
    // Keep incident dumps from error-path tests out of the repo tree.
    std::env::set_var("GEF_INCIDENT_DIR", env!("CARGO_TARGET_TMPDIR"));
    Server::start(cfg, vec![model(n_samples)]).expect("server start")
}

/// Minimal HTTP/1.1 client: one request, `Connection: close`, returns
/// `(status, body)`.
fn roundtrip(port: u16, request: &str) -> (u16, String) {
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(port: u16, path: &str, body: &str, extra: &str) -> (u16, String) {
    roundtrip(
        port,
        &format!(
            "POST {path} HTTP/1.1\r\nconnection: close\r\n{extra}content-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(port: u16, path: &str) -> (u16, String) {
    roundtrip(
        port,
        &format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n"),
    )
}

/// Like [`roundtrip`], but returns the raw response (status line +
/// headers + body) for tests that inspect headers.
fn roundtrip_raw(port: u16, request: &str) -> String {
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    raw
}

/// The value of response header `name` (case-insensitive), if present.
fn header_value(raw: &str, name: &str) -> Option<String> {
    let head = raw.split("\r\n\r\n").next()?;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case(name) {
                return Some(v.trim().to_string());
            }
        }
    }
    None
}

/// The string value of a `"key":"value"` pair in a JSON body (enough
/// for the flat fields these tests read).
fn json_str_field(body: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = body.find(&pat)? + pat.len();
    let rest = &body[start..];
    Some(rest[..rest.find('"')?].to_string())
}

#[test]
fn predict_healthz_stats_and_404() {
    let server = start(ServeConfig::default(), 1000);
    let port = server.port();

    let (status, body) = get(port, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"serving\""), "{body}");

    let (status, body) = post(port, "/predict", r#"{"instance":[0.5,0.5,0.5]}"#, "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"prediction\""), "{body}");

    let (status, body) = post(port, "/predict", r#"{"instance":[0.5]}"#, "");
    assert_eq!(status, 400);
    assert!(body.contains("bad_instance"), "{body}");

    let (status, _) = get(port, "/nowhere");
    assert_eq!(status, 404);

    let (status, _) = get(port, "/predict");
    assert_eq!(status, 405);

    let (status, body) = get(port, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"queue_bound\""), "{body}");

    server.shutdown();
}

#[test]
fn explain_returns_contributions() {
    let server = start(ServeConfig::default(), 1500);
    let port = server.port();
    let (status, body) = post(port, "/explain", r#"{"instance":[0.2,0.8,0.5]}"#, "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"), "{body}");
    assert!(body.contains("\"contributions\""), "{body}");
    assert!(body.contains("\"fidelity_r2\""), "{body}");
    server.shutdown();
}

/// THE scoping acceptance criterion: a request with a 1 ms deadline
/// hard-trips to a typed 504 while a simultaneous request with a
/// generous deadline completes clean — deadlines are per-request, not
/// process-global.
#[test]
fn concurrent_requests_hold_independent_deadlines() {
    let server = start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        4000,
    );
    let port = server.port();
    let tight = std::thread::spawn(move || {
        post(
            port,
            "/explain",
            r#"{"instance":[0.5,0.5,0.5],"deadline_ms":1}"#,
            "",
        )
    });
    let roomy = std::thread::spawn(move || {
        post(
            port,
            "/explain",
            r#"{"instance":[0.5,0.5,0.5],"deadline_ms":9000}"#,
            "",
        )
    });
    let (tight_status, tight_body) = tight.join().unwrap();
    let (roomy_status, roomy_body) = roomy.join().unwrap();
    assert_eq!(tight_status, 504, "tight must trip: {tight_body}");
    assert!(tight_body.contains("\"deadline\""), "{tight_body}");
    assert_eq!(roomy_status, 200, "roomy must complete: {roomy_body}");
    assert!(roomy_body.contains("\"ok\":true"), "{roomy_body}");
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    let server = start(
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            test_hooks: true,
            ..ServeConfig::default()
        },
        1000,
    );
    let port = server.port();
    // Hold the single worker busy for 1.5 s.
    let busy = std::thread::spawn(move || {
        post(
            port,
            "/explain",
            r#"{"instance":[0.5,0.5,0.5]}"#,
            "x-gef-test: sleep\r\nx-gef-test-ms: 1500\r\n",
        )
    });
    std::thread::sleep(Duration::from_millis(300));
    // Fill the queue (depth 1) with a second held connection…
    let queued = std::thread::spawn(move || get(port, "/healthz"));
    std::thread::sleep(Duration::from_millis(100));
    // …so further arrivals must be shed.
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read shed response");
    assert!(raw.starts_with("HTTP/1.1 429 "), "{raw}");
    assert!(raw.to_ascii_lowercase().contains("retry-after: 1"), "{raw}");
    assert!(raw.contains("overloaded"), "{raw}");
    // The held requests still complete (shed is a rejection of the
    // *new* arrival, not an abort of admitted work).
    let (busy_status, _) = busy.join().unwrap();
    assert_eq!(busy_status, 200);
    let (queued_status, _) = queued.join().unwrap();
    assert_eq!(queued_status, 200);
    server.shutdown();
}

#[test]
fn panics_are_contained_and_breaker_trips_to_linear_floor() {
    let server = start(
        ServeConfig {
            workers: 1,
            breaker_threshold: 2,
            breaker_cooldown_ms: 60_000,
            test_hooks: true,
            ..ServeConfig::default()
        },
        1000,
    );
    let port = server.port();
    for _ in 0..2 {
        let (status, body) = post(
            port,
            "/explain",
            r#"{"instance":[0.5,0.5,0.5]}"#,
            "x-gef-test: panic\r\n",
        );
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("worker_panic"), "{body}");
    }
    // The server survived both panics…
    let (status, _) = get(port, "/healthz");
    assert_eq!(status, 200);
    // …and two consecutive failures opened the breaker: the next
    // explanation is served, degraded to the linear-surrogate floor.
    let (status, body) = get(port, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"breaker_open\":true"), "{body}");
    let (status, body) = post(port, "/explain", r#"{"instance":[0.5,0.5,0.5]}"#, "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"floor\":\"linear_surrogate\""), "{body}");
    assert!(body.contains("linear_surrogate"), "{body}");
    server.shutdown();
}

#[test]
fn shutdown_drains_and_refuses_new_connections() {
    let server = start(ServeConfig::default(), 1000);
    let port = server.port();
    let (status, _) = post(port, "/predict", r#"{"instance":[0.1,0.2,0.3]}"#, "");
    assert_eq!(status, 200);
    server.shutdown();
    // The listener is gone: new connections must be refused (or at
    // least never answered by a live server).
    match TcpStream::connect(("127.0.0.1", port)) {
        Err(_) => {}
        Ok(mut s) => {
            // Rare race: the OS may still complete the handshake from
            // the backlog; a read must then see EOF, never a response.
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
            let mut buf = String::new();
            let n = s.read_to_string(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "a drained server must not answer: {buf}");
        }
    }
}

#[test]
fn malformed_requests_answer_typed_and_server_survives() {
    let server = start(ServeConfig::default(), 1000);
    let port = server.port();
    let cases: [(&str, u16); 4] = [
        ("BOGUS LINE\r\n\r\n", 400),
        (
            "POST /explain HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
            400,
        ),
        (
            "POST /explain HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
            413,
        ),
        (
            "POST /explain HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            501,
        ),
    ];
    for (raw, want) in cases {
        let (status, body) = roundtrip(port, raw);
        assert_eq!(status, want, "{raw:?} → {body}");
        assert!(body.contains("\"error\""), "{body}");
    }
    // A body nested past the JSON depth bound is a 400, not a stack
    // overflow that takes the whole server down.
    let deep = "[".repeat(512 * 1024);
    let (status, body) = post(port, "/predict", &deep, "");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_json"), "{body}");
    let (status, _) = get(port, "/healthz");
    assert_eq!(status, 200, "server must survive malformed input");
    server.shutdown();
}

/// Store-backed serving: `GET /models` reports digests + cache state,
/// and two identical `/explain` requests hit the explanation cache the
/// second time (`"cache":"miss"` then `"cache":"hit"`).
#[test]
fn store_backed_explain_caches_and_models_lists_digests() {
    std::env::set_var("GEF_INCIDENT_DIR", env!("CARGO_TARGET_TMPDIR"));
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "serve-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = std::sync::Arc::new(gef_store::Store::open(&dir).expect("store open"));
    let entry = model(800);
    let digest = store.publish_forest(&entry.forest).expect("publish");
    store.tag(&entry.name, digest).expect("tag");
    let server = Server::start_with_store(ServeConfig::default(), vec![entry], Some(store.clone()))
        .expect("server start");
    let port = server.port();

    let (status, body) = get(port, "/models");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"name\":\"m\""), "{body}");
    assert!(
        body.contains(&format!(
            "\"digest\":\"{}\"",
            gef_trace::hash::to_hex(digest)
        )),
        "{body}"
    );
    assert!(body.contains("\"cache\":{"), "{body}");
    assert!(body.contains("\"quarantined\":0"), "{body}");

    let req = r#"{"instance":[0.2,0.8,0.5]}"#;
    let (status, body) = post(port, "/explain", req, "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cache\":\"miss\""), "{body}");
    let (status, body) = post(port, "/explain", req, "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cache\":\"hit\""), "{body}");
    // The reuse path survives a restart: the cached explanation lives
    // in the store, not in server memory.
    server.shutdown();
    let server2 = Server::start_with_store(
        ServeConfig::default(),
        vec![model(800)],
        Some(store.clone()),
    )
    .expect("server restart");
    let (status, body) = post(server2.port(), "/explain", req, "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cache\":\"hit\""), "{body}");
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every response echoes a trace id: minted ones are 16-hex, and a
/// well-formed client-supplied `x-gef-trace-id` is honored verbatim in
/// both the response header and the body's `trace_id` field.
#[test]
fn responses_echo_and_honor_trace_ids() {
    let server = start(ServeConfig::default(), 800);
    let port = server.port();

    let raw = roundtrip_raw(port, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    let minted = header_value(&raw, "x-gef-trace-id").expect("minted trace id header");
    assert_eq!(minted.len(), 16, "{minted}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()), "{minted}");
    assert!(raw.contains(&format!("\"trace_id\":\"{minted}\"")), "{raw}");

    let body = r#"{"instance":[0.2,0.8,0.5]}"#;
    let raw = roundtrip_raw(
        port,
        &format!(
            "POST /explain HTTP/1.1\r\nconnection: close\r\nx-gef-trace-id: 00000000deadbeef\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    assert_eq!(
        header_value(&raw, "x-gef-trace-id").as_deref(),
        Some("00000000deadbeef"),
        "{raw}"
    );
    assert!(raw.contains("\"trace_id\":\"00000000deadbeef\""), "{raw}");

    // A malformed client id (wrong length) is replaced, not echoed.
    let raw = roundtrip_raw(
        port,
        "GET /healthz HTTP/1.1\r\nconnection: close\r\nx-gef-trace-id: nope\r\n\r\n",
    );
    let replaced = header_value(&raw, "x-gef-trace-id").expect("replacement id");
    assert_ne!(replaced, "nope");
    assert_eq!(replaced.len(), 16);
    server.shutdown();
}

/// The tentpole isolation criterion: two concurrent `/explain?profile=1`
/// requests (with gef-par workers fanned out under `GEF_THREADS=4`) get
/// distinct trace ids, and each response's profile fragment contains
/// only spans stamped with its *own* id, covering the pipeline stages
/// that ran.
#[test]
fn concurrent_profiles_are_isolated_per_trace_id() {
    std::env::set_var("GEF_THREADS", "4");
    let server = start(
        ServeConfig {
            workers: 2,
            profile: true,
            ..ServeConfig::default()
        },
        2500,
    );
    let port = server.port();
    let spawn = || {
        std::thread::spawn(move || {
            post(
                port,
                "/explain?profile=1",
                r#"{"instance":[0.2,0.8,0.5]}"#,
                "",
            )
        })
    };
    let (a, b) = (spawn(), spawn());
    let (status_a, body_a) = a.join().unwrap();
    let (status_b, body_b) = b.join().unwrap();
    assert_eq!(status_a, 200, "{body_a}");
    assert_eq!(status_b, 200, "{body_b}");

    let id_a = json_str_field(&body_a, "trace_id").expect("trace id a");
    let id_b = json_str_field(&body_b, "trace_id").expect("trace id b");
    assert_ne!(id_a, id_b, "concurrent requests must get distinct ids");

    for (body, own, other) in [(&body_a, &id_a, &id_b), (&body_b, &id_b, &id_a)] {
        assert!(body.contains("\"profile\":{"), "{body}");
        // Every span in the fragment is stamped with this request's id
        // and no other request's spans leak in.
        let stamps: Vec<&str> = body
            .match_indices("\"trace\":\"")
            .map(|(i, pat)| &body[i + pat.len()..i + pat.len() + 16])
            .collect();
        assert!(
            !stamps.is_empty(),
            "fragment must contain stamped spans: {body}"
        );
        for s in &stamps {
            assert_eq!(s, own, "foreign span in fragment: {body}");
        }
        assert!(!body.contains(&format!("\"trace\":\"{other}\"")), "{body}");
        // Stage coverage: the pipeline root span ran under this id.
        assert!(body.contains("pipeline.explain"), "{body}");
    }
    server.shutdown();
}

/// `GET /metrics` serves a parseable Prometheus text exposition whose
/// counters never move backwards across scrapes, and whose per-status
/// response tallies account for the traffic in between.
#[test]
fn metrics_exposition_parses_and_counters_are_monotonic() {
    let server = start(ServeConfig::default(), 800);
    let port = server.port();

    let raw = roundtrip_raw(port, "GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    assert!(
        header_value(&raw, "content-type").is_some_and(|ct| ct.starts_with("text/plain")),
        "{raw}"
    );
    let body1 = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap();
    let exp1 = gef_trace::metrics::validate(&body1).expect("first scrape validates");
    assert!(!exp1.named("gef_serve_responses_total").is_empty());
    assert!(exp1.value("gef_serve_explain_latency_us_count").is_some());
    assert!(!exp1.named("gef_serve_window_success_ratio").is_empty());

    // Traffic between scrapes: 200 (explain), 200 (predict), 404, 405.
    let (s, _) = post(port, "/explain", r#"{"instance":[0.2,0.8,0.5]}"#, "");
    assert_eq!(s, 200);
    let (s, _) = post(port, "/predict", r#"{"instance":[0.2,0.8,0.5]}"#, "");
    assert_eq!(s, 200);
    let (s, _) = get(port, "/nowhere");
    assert_eq!(s, 404);
    let (s, _) = get(port, "/explain");
    assert_eq!(s, 405);

    let (status, body2) = get(port, "/metrics");
    assert_eq!(status, 200);
    let exp2 = gef_trace::metrics::validate(&body2).expect("second scrape validates");

    // Monotonicity: every counter sample of the first scrape is <= its
    // successor in the second.
    for s1 in exp1.samples.iter().filter(|s| s.name.ends_with("_total")) {
        let v2 = exp2
            .samples
            .iter()
            .find(|s2| s2.name == s1.name && s2.labels == s1.labels)
            .unwrap_or_else(|| panic!("{} vanished between scrapes", s1.name))
            .value;
        assert!(
            v2 >= s1.value,
            "{}{:?} went backwards: {} -> {v2}",
            s1.name,
            s1.labels,
            s1.value
        );
    }
    // The 4 probes plus the first /metrics response itself all landed
    // in the per-status tallies.
    let sum1 = exp1.sum("gef_serve_responses_total");
    let sum2 = exp2.sum("gef_serve_responses_total");
    assert!(
        sum2 >= sum1 + 5.0,
        "expected >= 5 new responses between scrapes, got {sum1} -> {sum2}"
    );
    let c404: f64 = exp2
        .named("gef_serve_responses_total")
        .iter()
        .filter(|s| s.label("code") == Some("404"))
        .map(|s| s.value)
        .sum();
    assert!(c404 >= 1.0, "{body2}");
    server.shutdown();
}

/// A request slower than `slow_ms` leaves a slow-request capture in
/// the incident directory, filed under — and filtered to — its own
/// trace id.
#[test]
fn slow_requests_dump_a_trace_filtered_capture() {
    let server = start(
        ServeConfig {
            test_hooks: true,
            slow_ms: 50,
            ..ServeConfig::default()
        },
        800,
    );
    let port = server.port();
    let hex = "feedfacecafef00d";
    let (status, body) = post(
        port,
        "/explain",
        r#"{"instance":[0.2,0.8,0.5]}"#,
        &format!("x-gef-trace-id: {hex}\r\nx-gef-test: sleep\r\nx-gef-test-ms: 200\r\n"),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_str_field(&body, "trace_id").as_deref(), Some(hex));

    // The capture is written before the response goes out, so it must
    // exist by now. Trace ids are unique, so the shared incident dir
    // (CARGO_TARGET_TMPDIR) cannot collide across tests.
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("incident-slow_{hex}.json"));
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing capture {}: {e}", path.display()));
    assert!(doc.contains("\"schema\":\"gef-core/slowreq/v1\""), "{doc}");
    assert!(doc.contains(&format!("\"trace_id\":\"{hex}\"")), "{doc}");
    assert!(doc.contains("\"threshold_ms\":50"), "{doc}");
    // The timeline slot is always present (null unless profiling was
    // on — another test in this process may have enabled it).
    assert!(doc.contains("\"timeline\":"), "{doc}");
    let _ = std::fs::remove_file(&path);
    server.shutdown();
}

/// One response read off a held connection, framed by
/// `content-length`: `(status, head, body)`. Bytes past the response
/// stay in `buf` for the next call.
fn read_framed(s: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, String, String) {
    let mut tmp = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = s.read(&mut tmp).expect("read response head");
        assert!(n > 0, "connection closed before a full head: {buf:?}");
        buf.extend_from_slice(&tmp[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let length: usize = header_value(&head, "content-length")
        .and_then(|v| v.parse().ok())
        .expect("content-length");
    while buf.len() < head_end + length {
        let n = s.read(&mut tmp).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&tmp[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + length]).into_owned();
    buf.drain(..head_end + length);
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("status");
    (status, head, body)
}

fn connect(port: u16) -> TcpStream {
    let s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

/// A keep-alive `POST` (no `connection` header).
fn keepalive_post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

const PREDICT: &str = r#"{"instance":[0.5,0.5,0.5]}"#;

/// Keep-alive answers go out as one write on a `TCP_NODELAY` socket:
/// with the head and body written separately, Nagle's algorithm held
/// each body back until the client's delayed ACK, about 40 ms per
/// answer.
#[test]
fn keepalive_predicts_answer_without_the_delayed_ack_stall() {
    let server = start(ServeConfig::default(), 800);
    let mut s = connect(server.port());
    let mut buf = Vec::new();
    let mut took = Vec::new();
    for _ in 0..20 {
        let t = std::time::Instant::now();
        s.write_all(keepalive_post("/predict", PREDICT).as_bytes())
            .unwrap();
        let (status, head, body) = read_framed(&mut s, &mut buf);
        took.push(t.elapsed());
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            header_value(&head, "connection").as_deref(),
            Some("keep-alive")
        );
    }
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median keep-alive /predict took {median:?}: {took:?}"
    );
    server.shutdown();
}

/// Idle keep-alive sockets are parked in the reactor, not held by
/// workers: after `workers + 1` clients each got one answer and went
/// quiet, a fresh request still answers at once instead of waiting out
/// a worker's read timeout.
#[test]
fn idle_keepalive_sockets_do_not_hold_workers() {
    let workers = 2;
    let server = start(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        800,
    );
    let port = server.port();
    let mut idle = Vec::new();
    for _ in 0..workers + 1 {
        let mut s = connect(port);
        s.write_all(keepalive_post("/predict", PREDICT).as_bytes())
            .unwrap();
        let (status, _, body) = read_framed(&mut s, &mut Vec::new());
        assert_eq!(status, 200, "{body}");
        idle.push(s);
    }
    let t = std::time::Instant::now();
    let (status, body) = post(port, "/predict", PREDICT, "");
    let took = t.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        took < Duration::from_millis(100),
        "a fresh /predict behind {} idle sockets took {took:?}",
        idle.len()
    );
    // A worker hands its connection back after answering, so the gauge
    // may lag the last idle answer by a moment.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, stats) = get(port, "/stats");
        if stats.contains(&format!("\"parked_connections\":{}", idle.len())) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{stats}");
    }
    server.shutdown();
}

/// The reactor frames requests from whatever the socket delivers: a
/// request cut across three writes with pauses, two pipelined requests
/// in one write (answered in order), and an oversized head and an
/// oversized body, each answered with its typed status. Another client
/// is served while they run.
#[test]
fn reactor_frames_split_pipelined_and_oversized_requests() {
    let server = start(
        ServeConfig {
            workers: 1,
            max_body_bytes: 1024,
            ..ServeConfig::default()
        },
        800,
    );
    let port = server.port();

    // Split: the head's first line, the rest of the head, the body.
    let mut split = connect(port);
    let req = keepalive_post("/predict", PREDICT);
    let (a, rest) = req.split_at(10);
    let (b, c) = rest.split_at(rest.len() - 5);
    for part in [a, b] {
        split.write_all(part.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
    // Meanwhile, another connection is served.
    let (status, _) = get(port, "/healthz");
    assert_eq!(status, 200);
    split.write_all(c.as_bytes()).unwrap();
    let (status, _, body) = read_framed(&mut split, &mut Vec::new());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"prediction\""), "{body}");

    // Pipelined: two requests in one write, answered in order.
    let mut piped = connect(port);
    let two = format!(
        "{}GET /nowhere HTTP/1.1\r\n\r\n",
        keepalive_post("/predict", PREDICT)
    );
    piped.write_all(two.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let (first, _, body) = read_framed(&mut piped, &mut buf);
    assert_eq!(first, 200, "{body}");
    assert!(body.contains("\"prediction\""), "{body}");
    let (second, _, body) = read_framed(&mut piped, &mut buf);
    assert_eq!(second, 404, "{body}");

    // Oversized head: a header line past its cap.
    let long = format!(
        "GET /healthz HTTP/1.1\r\nx-long: {}\r\n\r\n",
        "a".repeat(gef_serve::http::MAX_HEADER_LINE + 1)
    );
    let (status, body) = roundtrip(port, &long);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_header"), "{body}");
    // Oversized body: answered 413 from the head alone, though the body
    // never comes.
    let mut big = connect(port);
    big.write_all(b"POST /predict HTTP/1.1\r\ncontent-length: 4096\r\n\r\n")
        .unwrap();
    let (status, head, body) = read_framed(&mut big, &mut Vec::new());
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("body_too_large"), "{body}");
    assert_eq!(header_value(&head, "connection").as_deref(), Some("close"));

    let (status, _) = post(port, "/predict", PREDICT, "");
    assert_eq!(status, 200, "the server keeps serving");
    server.shutdown();
}

/// A JSON number field of a flat object, parsed.
fn json_f64(doc: &gef_trace::json::JsonValue, key: &str) -> f64 {
    doc.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("no number {key:?}"))
}

/// Concurrent identical `/explain`s share one pipeline run, yet every
/// answer is its own instance's local explanation, bit-equal to the
/// in-process one.
#[test]
fn concurrent_explains_share_one_run_and_answer_bit_equal() {
    let entry = model(3000);
    let reference = gef_core::GefExplainer::new(entry.config.clone())
        .explain(&entry.forest)
        .expect("in-process explain");
    std::env::set_var("GEF_INCIDENT_DIR", env!("CARGO_TARGET_TMPDIR"));
    let server = Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        vec![entry],
    )
    .expect("server start");
    let port = server.port();
    let instances = [[0.2, 0.8, 0.5], [0.7, 0.1, 0.9]];
    let coalesced = |port| {
        let (_, stats) = get(port, "/stats");
        let doc = gef_trace::json::parse(&stats).expect("stats parse");
        json_f64(&doc, "explain_coalesced")
    };
    // Two requests race for the flight; a round in which the second
    // arrives after the first finished shares nothing, so try a few.
    let mut rounds = 0;
    while coalesced(port) == 0.0 {
        rounds += 1;
        assert!(rounds <= 5, "no /explain was coalesced in 5 rounds");
        let answers: Vec<(u16, String)> = instances
            .iter()
            .map(|x| {
                let body = format!(r#"{{"instance":[{},{},{}]}}"#, x[0], x[1], x[2]);
                std::thread::spawn(move || post(port, "/explain", &body, ""))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        for ((status, body), x) in answers.iter().zip(&instances) {
            assert_eq!(*status, 200, "{body}");
            let doc = gef_trace::json::parse(body).expect("answer parses");
            let local = reference.local(x);
            assert_eq!(
                json_f64(&doc, "prediction").to_bits(),
                local.prediction.to_bits()
            );
            let contributions = doc
                .get("contributions")
                .and_then(|c| c.as_array())
                .expect("contributions");
            assert_eq!(contributions.len(), local.contributions.len());
            for (got, want) in contributions.iter().zip(&local.contributions) {
                assert_eq!(
                    json_f64(got, "contribution").to_bits(),
                    want.contribution.to_bits(),
                    "{body}"
                );
                assert_eq!(
                    json_f64(got, "std_error").to_bits(),
                    want.std_error.to_bits()
                );
            }
        }
    }
    let (_, metrics) = get(port, "/metrics");
    let exp = gef_trace::metrics::validate(&metrics).expect("exposition validates");
    assert!(
        exp.value("gef_serve_explain_coalesced_total")
            .unwrap_or(0.0)
            >= 1.0
    );
    assert!(exp.value("gef_serve_queue_wait_us_count").unwrap_or(0.0) >= 2.0);
    server.shutdown();
}

/// The bytes the reactor buffers across connections are capped (room
/// for a full request per worker and queue slot): the connection whose
/// bytes would pass the cap is answered 429 and closed, and the others
/// complete.
#[test]
fn reactor_buffers_are_capped() {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        max_body_bytes: 64,
        ..ServeConfig::default()
    };
    let cap = cfg.reactor_buffer_cap();
    let server = start(cfg, 800);
    let port = server.port();
    // Heads left open: 60 header lines of 8000 bytes each, no blank
    // line yet. Two fit under the cap, three do not, and dropping any
    // one of three leaves room for the other two.
    let header = format!("x-pad: {}\r\n", "p".repeat(8000));
    let open_head = format!("GET /healthz HTTP/1.1\r\n{}", header.repeat(60));
    assert_eq!(
        cap / open_head.len(),
        2,
        "cap {cap}, head {}",
        open_head.len()
    );
    // One reader thread per connection reports its whole answer.
    let (tx, rx) = std::sync::mpsc::channel();
    let mut writers = Vec::new();
    for k in 0..3 {
        let s = connect(port);
        let mut reader = s.try_clone().unwrap();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut raw = Vec::new();
            let _ = reader.read_to_end(&mut raw);
            let _ = tx.send((k, String::from_utf8_lossy(&raw).into_owned()));
        });
        writers.push(s);
    }
    for s in &mut writers {
        // The connection that passes the cap may be closed under a
        // write; its answer is still read.
        let _ = s.write_all(open_head.as_bytes());
    }
    // No head is complete, so the only possible answer is the cap's.
    let wait = Duration::from_secs(30);
    let (shed, raw) = rx
        .recv_timeout(wait)
        .expect("one connection passes the cap");
    assert!(raw.starts_with("HTTP/1.1 429 "), "{raw}");
    assert!(raw.contains("retry-after: 1"), "{raw}");
    assert!(raw.contains("request buffers are full"), "{raw}");
    // The other two heads were kept: finishing them gets answers.
    for (k, s) in writers.iter_mut().enumerate() {
        if k != shed {
            s.write_all(b"connection: close\r\n\r\n").unwrap();
        }
    }
    for _ in 0..2 {
        let (k, raw) = rx.recv_timeout(wait).expect("a kept head is answered");
        assert_ne!(k, shed);
        assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    }
    server.shutdown();
}
