//! Minimal, hardened HTTP/1.1 request framing and response writing.
//!
//! The parser is the server's first line of fault containment: it faces
//! raw bytes from untrusted sockets and must **never panic, never hang,
//! never allocate unboundedly** — every malformed input maps to a typed
//! [`ParseError`] that the server answers with `400`/`413`/`501`. It
//! frames one request from the front of a connection's buffered bytes
//! ([`parse_request`]) and says how much more it needs when the bytes
//! end early, so the reactor never blocks on a client. Every line is
//! capped ([`MAX_REQUEST_LINE`], [`MAX_HEADER_LINE`],
//! [`MAX_HEADER_COUNT`], so a head never exceeds [`MAX_HEAD_BYTES`]),
//! and a declared body past the caller's limit fails before any of it
//! is read. Property tests at the bottom of this module drive the
//! parser with arbitrary and adversarially-structured byte streams, cut
//! at every length.
//!
//! Supported surface: `Content-Length` bodies only (chunked
//! transfer-encoding answers `501`), no continuation (folded) headers,
//! `HTTP/1.x` request lines.

use std::io::Write;

/// Byte cap on the request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8192;
/// Byte cap on a single header line.
pub const MAX_HEADER_LINE: usize = 8192;
/// Cap on the number of headers.
pub const MAX_HEADER_COUNT: usize = 64;
/// Bytes a request head can take before the caps above reject it: the
/// request line, every header line and the blank line, each at its cap
/// plus the line feed.
pub const MAX_HEAD_BYTES: usize = (MAX_HEADER_COUNT + 2) * (MAX_HEADER_LINE + 1);

/// A typed parse failure; [`ParseError::status`] maps it to the HTTP
/// answer and [`ParseError::cause`] to the machine-readable label used
/// in error bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed or oversized request line.
    RequestLine(String),
    /// Malformed header, oversized header line, or too many headers.
    Header(String),
    /// Missing, duplicated, or unparseable `Content-Length`.
    ContentLength(String),
    /// Declared body exceeds the server's cap.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The server's cap.
        max: usize,
    },
    /// Connection closed before the declared body arrived.
    TruncatedBody {
        /// Bytes actually received.
        got: usize,
        /// Bytes declared.
        want: usize,
    },
    /// Syntactically valid but unsupported (e.g. chunked bodies).
    Unsupported(String),
}

impl ParseError {
    /// The `(status, reason)` this failure answers with: `413` for an
    /// oversized body, `501` for unsupported encodings, `400` otherwise.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            ParseError::BodyTooLarge { .. } => (413, "Payload Too Large"),
            ParseError::Unsupported(_) => (501, "Not Implemented"),
            _ => (400, "Bad Request"),
        }
    }

    /// Machine-readable cause label for the JSON error body.
    pub fn cause(&self) -> &'static str {
        match self {
            ParseError::RequestLine(_) => "bad_request_line",
            ParseError::Header(_) => "bad_header",
            ParseError::ContentLength(_) => "bad_content_length",
            ParseError::BodyTooLarge { .. } => "body_too_large",
            ParseError::TruncatedBody { .. } => "truncated_body",
            ParseError::Unsupported(_) => "unsupported",
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::RequestLine(d) => write!(f, "bad request line: {d}"),
            ParseError::Header(d) => write!(f, "bad header: {d}"),
            ParseError::ContentLength(d) => write!(f, "bad content-length: {d}"),
            ParseError::BodyTooLarge { declared, max } => {
                write!(f, "body of {declared} bytes exceeds the {max}-byte cap")
            }
            ParseError::TruncatedBody { got, want } => {
                write!(f, "body truncated at {got} of {want} bytes")
            }
            ParseError::Unsupported(d) => write!(f, "unsupported: {d}"),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Request target, verbatim (`/explain`, …).
    pub target: String,
    /// Headers in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// What a partial request needs before another parse can get further.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// The head is still open: parse again once a line feed arrives or
    /// more than `limit` bytes are buffered (the open line's cap).
    Head {
        /// Buffer length past which the open line breaks its cap.
        limit: usize,
    },
    /// The head is complete: parse again once `total` bytes (head plus
    /// declared body) are buffered.
    Body {
        /// Buffer length that completes the request.
        total: usize,
    },
}

impl Wait {
    /// Whether a buffer now `len` bytes long, whose newest bytes are
    /// `fresh`, can get a parse further than the one that returned
    /// `self`.
    pub fn ready(self, len: usize, fresh: &[u8]) -> bool {
        match self {
            Wait::Head { limit } => len > limit || fresh.contains(&b'\n'),
            Wait::Body { total } => len >= total,
        }
    }
}

/// Outcome of framing one request from the front of a byte buffer.
#[derive(Debug)]
pub enum Parse {
    /// A complete, well-formed request and the number of bytes it took
    /// from the front of the buffer (pipelined bytes follow).
    Request(Request, usize),
    /// The buffer holds a proper prefix of a request (possibly none of
    /// it) and the peer may still send the rest.
    Incomplete(Wait),
    /// The peer closed before any byte of a new request (keep-alive
    /// end).
    Eof,
    /// A typed protocol violation — answer [`ParseError::status`] and
    /// close (the stream position is no longer trustworthy).
    Malformed(ParseError),
}

/// One line of `buf` from `at`, capped at `cap` bytes before its line
/// feed, without the trailing `\r\n`.
enum Line<'a> {
    /// The line and the offset just past its line feed.
    Complete(&'a [u8], usize),
    /// No line feed yet, and the line is still within its cap.
    Open,
    /// No line feed within `cap + 1` bytes.
    TooLong,
}

fn line_at(buf: &[u8], at: usize, cap: usize) -> Line<'_> {
    let rest = &buf[at..];
    match rest[..rest.len().min(cap + 1)]
        .iter()
        .position(|&b| b == b'\n')
    {
        Some(i) => {
            let line = &rest[..i];
            Line::Complete(line.strip_suffix(b"\r").unwrap_or(line), at + i + 1)
        }
        None if rest.len() > cap => Line::TooLong,
        None => Line::Open,
    }
}

fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_graphic() && !b"()<>@,;:\\\"/[]?={} ".contains(&b))
}

/// Frame one request from the front of `buf`. `eof` says the peer has
/// closed its side, so missing bytes will never come: a cut request is
/// then malformed rather than incomplete. `max_body` caps the accepted
/// `Content-Length`; larger bodies fail with
/// [`ParseError::BodyTooLarge`] as soon as the head is complete,
/// **without waiting for the body**.
pub fn parse_request(buf: &[u8], max_body: usize, eof: bool) -> Parse {
    // --- request line ---
    let (line, mut at) = match line_at(buf, 0, MAX_REQUEST_LINE) {
        Line::Complete(l, next) => (l, next),
        Line::Open if !eof => {
            return Parse::Incomplete(Wait::Head {
                limit: MAX_REQUEST_LINE,
            })
        }
        Line::Open if buf.is_empty() => return Parse::Eof,
        Line::Open => {
            return Parse::Malformed(ParseError::RequestLine("stream ended mid-line".into()))
        }
        Line::TooLong => {
            return Parse::Malformed(ParseError::RequestLine(format!(
                "line exceeds the {MAX_REQUEST_LINE}-byte cap"
            )))
        }
    };
    let Ok(line) = std::str::from_utf8(line) else {
        return Parse::Malformed(ParseError::RequestLine("not valid UTF-8".into()));
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Parse::Malformed(ParseError::RequestLine(format!(
                "expected 'METHOD TARGET VERSION', got {} part(s)",
                line.split(' ').count()
            )))
        }
    };
    if !is_token(method) {
        return Parse::Malformed(ParseError::RequestLine("method is not a token".into()));
    }
    if target.is_empty() || !target.bytes().all(|b| b.is_ascii_graphic()) {
        return Parse::Malformed(ParseError::RequestLine("malformed target".into()));
    }
    if !version.starts_with("HTTP/1.") {
        return Parse::Malformed(ParseError::RequestLine(format!(
            "unsupported version {version:?}"
        )));
    }

    // --- headers ---
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match line_at(buf, at, MAX_HEADER_LINE) {
            Line::Complete(l, next) => {
                at = next;
                l
            }
            Line::Open if !eof => {
                return Parse::Incomplete(Wait::Head {
                    limit: at + MAX_HEADER_LINE,
                })
            }
            Line::Open if at == buf.len() => {
                return Parse::Malformed(ParseError::Header(
                    "stream ended inside the header block".into(),
                ))
            }
            Line::Open => {
                return Parse::Malformed(ParseError::Header("stream ended mid-line".into()))
            }
            Line::TooLong => {
                return Parse::Malformed(ParseError::Header(format!(
                    "line exceeds the {MAX_HEADER_LINE}-byte cap"
                )))
            }
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADER_COUNT {
            return Parse::Malformed(ParseError::Header(format!(
                "more than {MAX_HEADER_COUNT} headers"
            )));
        }
        let Ok(line) = std::str::from_utf8(line) else {
            return Parse::Malformed(ParseError::Header("not valid UTF-8".into()));
        };
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Malformed(ParseError::Header(format!(
                "no ':' in {:?}",
                line.chars().take(40).collect::<String>()
            )));
        };
        if !is_token(name) {
            return Parse::Malformed(ParseError::Header("header name is not a token".into()));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    // --- body ---
    for (k, v) in &headers {
        if k.eq_ignore_ascii_case("transfer-encoding") {
            return Parse::Malformed(ParseError::Unsupported(format!(
                "transfer-encoding {v:?} (only content-length bodies)"
            )));
        }
    }
    let lengths: Vec<&str> = headers
        .iter()
        .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.as_str())
        .collect();
    let body_len = match lengths.as_slice() {
        [] => 0,
        [one] => match one.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Parse::Malformed(ParseError::ContentLength(format!(
                    "unparseable value {one:?}"
                )))
            }
        },
        many => {
            return Parse::Malformed(ParseError::ContentLength(format!(
                "{} content-length headers",
                many.len()
            )))
        }
    };
    if body_len > max_body {
        return Parse::Malformed(ParseError::BodyTooLarge {
            declared: body_len,
            max: max_body,
        });
    }
    let got = buf.len() - at;
    if got < body_len {
        return if eof {
            Parse::Malformed(ParseError::TruncatedBody {
                got,
                want: body_len,
            })
        } else {
            Parse::Incomplete(Wait::Body {
                total: at + body_len,
            })
        };
    }
    let request = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: buf[at..at + body_len].to_vec(),
    };
    Parse::Request(request, at + body_len)
}

/// Write one `HTTP/1.1` response with `Content-Length` framing and the
/// given `Content-Type` (`application/json` for every API response;
/// `gef-serve`'s `/metrics` uses the Prometheus text type). The
/// `Connection` header must be supplied via `extra_headers` by callers
/// that want one. Head and body go out as **one** buffer in one
/// `write_all`: two writes on a keep-alive socket let Nagle's algorithm
/// hold the body until the peer's delayed ACK of the head, about 40 ms.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gef_trace::rng::Rng;

    /// Generated inputs per sweep; a failure names its case seed.
    const CASES: u64 = 256;

    /// Parse `bytes` as everything the peer sent before closing.
    fn parse(bytes: &[u8]) -> Parse {
        parse_request(bytes, 4096, true)
    }

    #[test]
    fn parses_a_wellformed_post() {
        let raw = b"POST /explain HTTP/1.1\r\ncontent-length: 4\r\nx-a: b\r\n\r\n{\"\"}";
        let Parse::Request(req, used) = parse(raw) else {
            panic!("expected a request");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/explain");
        assert_eq!(req.body, b"{\"\"}");
        assert_eq!(req.header("X-A"), Some("b"));
        assert!(!req.wants_close());
        assert_eq!(used, raw.len());
    }

    #[test]
    fn clean_eof_is_not_an_error() {
        assert!(matches!(parse(b""), Parse::Eof));
        assert!(matches!(
            parse_request(b"", 4096, false),
            Parse::Incomplete(_)
        ));
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 2\r\nContent-Length: 2\r\n\r\nab";
        let Parse::Malformed(e) = parse(raw) else {
            panic!("expected malformed");
        };
        assert_eq!(e.status().0, 400);
        assert_eq!(e.cause(), "bad_content_length");
    }

    #[test]
    fn oversized_body_is_413_without_reading_it() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n";
        // The peer has not closed and no body byte is buffered: the
        // answer still comes at once.
        let Parse::Malformed(e) = parse_request(raw, 4096, false) else {
            panic!("expected malformed");
        };
        assert_eq!(e.status().0, 413);
    }

    #[test]
    fn truncated_body_is_400() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
        let Parse::Malformed(e) = parse(raw) else {
            panic!("expected malformed");
        };
        assert_eq!(e.cause(), "truncated_body");
        assert_eq!(e.status().0, 400);
        // While the peer may still send, the same bytes wait for the
        // rest of the body.
        assert!(matches!(
            parse_request(raw, 4096, false),
            Parse::Incomplete(Wait::Body { total }) if total == raw.len() + 7
        ));
    }

    #[test]
    fn chunked_bodies_answer_501() {
        let raw = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        let Parse::Malformed(e) = parse(raw) else {
            panic!("expected malformed");
        };
        assert_eq!(e.status().0, 501);
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let Parse::Malformed(e) = parse(&raw) else {
            panic!("expected malformed");
        };
        assert_eq!(e.status().0, 400);
    }

    #[test]
    fn header_flood_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADER_COUNT + 5) {
            raw.extend_from_slice(format!("x-{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let Parse::Malformed(e) = parse(&raw) else {
            panic!("expected malformed");
        };
        assert_eq!(e.cause(), "bad_header");
    }

    #[test]
    fn response_writer_frames_with_content_length() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "Too Many Requests",
            "application/json",
            &[("retry-after", "1")],
            b"{}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// Up to `max_len` random bytes.
    fn bytes(rng: &mut Rng, max_len: u64) -> Vec<u8> {
        (0..rng.below(max_len + 1))
            .map(|_| rng.next_u64() as u8)
            .collect()
    }

    /// `min..=max` characters drawn from `alphabet`.
    fn text(rng: &mut Rng, alphabet: &str, min: u64, max: u64) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        (0..min + rng.below(max - min + 1))
            .map(|_| chars[rng.below(chars.len() as u64) as usize])
            .collect()
    }

    const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
    const DIGITS: &str = "0123456789";

    /// Arbitrary bytes never panic the parser, and every outcome is
    /// one of the four typed ones.
    #[test]
    fn arbitrary_bytes_never_panic() {
        for case in 0..CASES {
            let raw = bytes(&mut Rng::seed(case), 2047);
            match parse(&raw) {
                Parse::Request(..) | Parse::Eof | Parse::Malformed(_) => {}
                Parse::Incomplete(w) => panic!("case {case}: a closed stream waits for {w:?}"),
            }
            // Cut anywhere with the peer still open, the parser never
            // panics either.
            let cut = rng_cut(case, raw.len());
            let _ = parse_request(&raw[..cut], 4096, false);
        }
    }

    /// Structured near-miss requests (hostile request lines,
    /// header blocks, and length declarations around a valid
    /// skeleton) never panic, and any malformed outcome carries a
    /// 400/413/501 status.
    #[test]
    fn structured_garbage_maps_to_typed_statuses() {
        let upper = LOWER.to_uppercase();
        let printable: String = (' '..='~').collect();
        for case in 0..CASES {
            let mut rng = Rng::seed(case);
            let method = text(&mut rng, &format!("{LOWER}{upper} \t"), 0, 12);
            let target = text(&mut rng, &printable, 0, 40);
            let version = match rng.below(2) {
                0 => "HTTP/1.1".to_string(),
                _ => text(&mut rng, &format!("{upper}/{DIGITS}."), 0, 10),
            };
            let header_name = text(&mut rng, &format!("{LOWER}{upper}{DIGITS}:() -"), 0, 24);
            let header_val = text(&mut rng, &printable, 0, 32);
            let declared = match rng.below(3) {
                0 => "4".to_string(),
                1 => text(&mut rng, DIGITS, 1, 9),
                _ => text(&mut rng, &format!("{LOWER}-"), 1, 6),
            };
            let body = bytes(&mut rng, 15);
            let mut raw = format!("{method} {target} {version}\r\n").into_bytes();
            raw.extend_from_slice(format!("{header_name}: {header_val}\r\n").as_bytes());
            raw.extend_from_slice(format!("content-length: {declared}\r\n").as_bytes());
            raw.extend_from_slice(b"\r\n");
            raw.extend_from_slice(&body);
            match parse(&raw) {
                Parse::Malformed(e) => {
                    let (status, _) = e.status();
                    assert!(
                        status == 400 || status == 413 || status == 501,
                        "case {case}: status {status}"
                    );
                }
                Parse::Request(req, _) => {
                    // Accepted requests must have honoured the declared
                    // length exactly.
                    let want: usize = declared.parse().unwrap_or(0);
                    assert_eq!(req.body.len(), want, "case {case}");
                }
                Parse::Eof | Parse::Incomplete(_) => {}
            }
        }
    }

    /// Well-formed requests round-trip: whatever we serialize, the
    /// parser returns verbatim.
    /// A seeded well-formed `POST`: `(raw bytes, target, header count,
    /// body)`.
    fn wellformed(rng: &mut Rng) -> (Vec<u8>, String, usize, Vec<u8>) {
        let target = format!("/{}", text(rng, LOWER, 0, 12));
        let nheaders = rng.below(8) as usize;
        let body = bytes(rng, 255);
        let mut raw = format!("POST {target} HTTP/1.1\r\n").into_bytes();
        for i in 0..nheaders {
            raw.extend_from_slice(format!("x-h{i}: v{i}\r\n").as_bytes());
        }
        raw.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
        raw.extend_from_slice(&body);
        (raw, target, nheaders + 1, body)
    }

    /// A seeded cut point in `0..=len`.
    fn rng_cut(case: u64, len: usize) -> usize {
        Rng::seed(case ^ 0xc07).below(len as u64 + 1) as usize
    }

    /// Well-formed requests round-trip: whatever we serialize, the
    /// parser returns verbatim.
    #[test]
    fn wellformed_requests_roundtrip() {
        for case in 0..CASES {
            let (raw, target, nheaders, body) = wellformed(&mut Rng::seed(case));
            let Parse::Request(req, used) = parse(&raw) else {
                panic!("case {case}: expected a request");
            };
            assert_eq!(used, raw.len(), "case {case}");
            assert_eq!(req.method, "POST", "case {case}");
            assert_eq!(req.target, target, "case {case}");
            assert_eq!(req.body, body, "case {case}");
            assert_eq!(req.headers.len(), nheaders, "case {case}");
        }
    }

    /// Two pipelined well-formed requests fed one byte at a time, with a
    /// parse only when [`Wait::ready`] says one can get further: each
    /// frames exactly when its last byte arrives, never earlier and
    /// never later, and the second frames from the bytes the first left.
    #[test]
    fn byte_at_a_time_framing_frames_each_request_on_its_last_byte() {
        for case in 0..CASES / 4 {
            let mut rng = Rng::seed(case);
            let (first, _, _, first_body) = wellformed(&mut rng);
            let (second, _, _, second_body) = wellformed(&mut rng);
            let stream: Vec<u8> = first.iter().chain(&second).copied().collect();
            let mut buf = Vec::new();
            let mut wait: Option<Wait> = None;
            let mut framed = Vec::new();
            for (i, &b) in stream.iter().enumerate() {
                buf.push(b);
                if wait.is_some_and(|w| !w.ready(buf.len(), &[b])) {
                    continue;
                }
                match parse_request(&buf, 4096, false) {
                    Parse::Incomplete(w) => wait = Some(w),
                    Parse::Request(req, used) => {
                        framed.push((i + 1, req.body));
                        buf.drain(..used);
                        wait = None;
                    }
                    other => panic!("case {case}: byte {i} gave {other:?}"),
                }
            }
            assert_eq!(
                framed,
                vec![(first.len(), first_body), (stream.len(), second_body)],
                "case {case}"
            );
            assert!(buf.is_empty(), "case {case}");
        }
    }
}
