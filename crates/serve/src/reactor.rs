//! The front end: one thread that owns every socket no worker holds.
//!
//! The reactor blocks in [`poll`](crate::poll::poll) on the listener, a
//! wake socket and every parked connection. It accepts (shedding with
//! `429` when the request queue is full, before reading a byte), reads
//! whatever each readable connection sent, and frames complete
//! requests with [`http::parse_request`]. A framed request goes to the
//! request queue together with its connection; the worker that answers
//! it hands the connection back through [`Shared::hand_back`] with any
//! pipelined bytes still buffered, and writes one byte to the wake
//! socket. So no worker ever blocks on a client read, and an idle
//! keep-alive client costs one parked socket, not a worker.
//!
//! A connection is closed when it idles past
//! [`SOCKET_TIMEOUT_MS`](crate::server::SOCKET_TIMEOUT_MS), when its
//! peer closes or fails, and after a `Connection: close` or typed error
//! answer. Those answers leave through a half-close: the reactor shuts
//! the write side and discards input until end of stream or
//! [`CLOSE_DRAIN`] of silence, so unread request bytes cannot make the
//! kernel reset the answer away.
//!
//! The bytes buffered across parked connections are capped by
//! [`ServeConfig::reactor_buffer_cap`](crate::ServeConfig::reactor_buffer_cap);
//! a connection whose bytes would pass the cap is answered `429` and
//! closed.

use crate::http::{self, Parse, Request, Wait};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::server::{self, Job, Shared, SOCKET_TIMEOUT_MS};
use gef_trace::ctx;
use gef_trace::hash::to_hex;
use gef_trace::metrics::Outcome;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How long a closing connection may stay silent before it is dropped
/// without waiting for end of stream. A peer still sending is drained
/// for up to [`SOCKET_TIMEOUT_MS`] in all, so the kernel does not reset
/// the answer away while the request's unread tail keeps arriving.
const CLOSE_DRAIN: Duration = Duration::from_millis(100);

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Reads per wake-up on a closing connection.
const DRAIN_READS: usize = 8;

/// Pause after `poll` or `accept` failed for a reason other than an
/// empty backlog (e.g. out of descriptors), so a persistent failure
/// cannot spin the reactor.
const BACKOFF: Duration = Duration::from_millis(10);

/// One client connection, parked in the reactor or held by a worker.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Bytes read but not yet framed, pipelined requests included.
    buf: Vec<u8>,
    /// What the last parse of `buf` waits for; `None` parses at once.
    wait: Option<Wait>,
    /// When the connection last made progress.
    active: Instant,
    /// Set once the answer is out and the write side shut: input is
    /// discarded until end of stream, [`CLOSE_DRAIN`] of silence, or
    /// this instant.
    closing: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            wait: None,
            active: Instant::now(),
            closing: None,
        }
    }

    /// Ready to park again after a keep-alive answer: idle time counts
    /// from now, and bytes pipelined behind the answered request parse
    /// at once.
    pub(crate) fn rearm(mut self) -> Conn {
        self.active = Instant::now();
        self.wait = None;
        self
    }

    /// Mark for closing after the last answer; the reactor shuts the
    /// write side when it takes the connection and drains its input.
    pub(crate) fn into_closing(mut self) -> Conn {
        self.buf = Vec::new();
        self.active = Instant::now();
        self.closing = Some(self.active + Duration::from_millis(SOCKET_TIMEOUT_MS));
        self
    }

    /// When the reactor gives up on this connection.
    fn deadline(&self) -> Instant {
        match self.closing {
            Some(limit) => limit.min(self.active + CLOSE_DRAIN),
            None => self.active + Duration::from_millis(SOCKET_TIMEOUT_MS),
        }
    }
}

/// `Write` over a non-blocking socket that waits for room with
/// `poll(2)` until `deadline`, then fails with `TimedOut`.
pub(crate) struct SocketWriter<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> SocketWriter<'a> {
    /// A writer that may wait up to `budget` in total.
    pub(crate) fn new(stream: &'a TcpStream, budget: Duration) -> SocketWriter<'a> {
        SocketWriter {
            stream,
            deadline: Instant::now() + budget,
        }
    }
}

impl Write for SocketWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match (&*self.stream).write(buf) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let left = self.deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(ErrorKind::TimedOut.into());
                    }
                    poll::poll(&mut [PollFd::new(self.stream.as_fd(), POLLOUT)], Some(left))?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                done => return done,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a read-and-frame pass made of a parked connection.
enum Next {
    /// Still waiting for bytes.
    Park,
    /// A complete request: queue it with the connection.
    Queue(Request),
    /// Answer `429` and close: the buffer cap would be passed.
    Overflow,
    /// Answer the typed protocol error and close.
    Malformed(http::ParseError),
    /// Peer closed or failed: drop the socket.
    Drop,
}

/// Run the reactor until the server has shut down and drained.
pub(crate) fn run(shared: &Shared, listener: TcpListener, wake: UnixStream) {
    let mut reactor = Reactor {
        shared,
        listener: Some(listener),
        wake,
        conns: Vec::new(),
        scratch: vec![0; READ_CHUNK],
        buffered: 0,
        cap: shared.cfg.reactor_buffer_cap(),
    };
    reactor.run();
}

struct Reactor<'a> {
    shared: &'a Shared,
    /// Dropped at shutdown: further connects are refused.
    listener: Option<TcpListener>,
    wake: UnixStream,
    conns: Vec<Conn>,
    scratch: Vec<u8>,
    /// Bytes buffered across parked connections.
    buffered: usize,
    cap: usize,
}

impl Reactor<'_> {
    fn run(&mut self) {
        let mut readable: Vec<bool> = Vec::new();
        loop {
            if self.listener.is_some() && self.shared.shutdown.load(Ordering::Relaxed) {
                self.stop_framing();
            }
            if self.listener.is_none()
                && self.shared.workers_done.load(Ordering::Relaxed)
                && self.conns.is_empty()
            {
                return;
            }
            let now = Instant::now();
            let timeout = self
                .conns
                .iter()
                .map(Conn::deadline)
                .min()
                .map(|t| t.saturating_duration_since(now));
            readable.clear();
            {
                let mut fds = Vec::with_capacity(self.conns.len() + 2);
                fds.push(PollFd::new(self.wake.as_fd(), POLLIN));
                if let Some(l) = &self.listener {
                    fds.push(PollFd::new(l.as_fd(), POLLIN));
                }
                fds.extend(
                    self.conns
                        .iter()
                        .map(|c| PollFd::new(c.stream.as_fd(), POLLIN)),
                );
                if poll::poll(&mut fds, timeout).is_err() {
                    std::thread::sleep(BACKOFF);
                    continue;
                }
                readable.extend(fds.iter().map(PollFd::readable));
            }
            let listening = self.listener.is_some();
            let (wake_ready, listen_ready) = (readable[0], listening && readable[1]);
            let first_conn = if listening { 2 } else { 1 };
            // Reverse order, so a removal's swap only moves a connection
            // that has already been looked at.
            for i in (0..self.conns.len()).rev() {
                if readable[first_conn + i] {
                    self.service(i);
                }
            }
            if wake_ready {
                self.take_returns();
            }
            if listen_ready {
                self.accept_all();
            }
            let now = Instant::now();
            for i in (0..self.conns.len()).rev() {
                if self.conns[i].deadline() <= now {
                    self.unpark(i);
                }
            }
            let parked = self.conns.iter().filter(|c| c.closing.is_none()).count();
            self.shared.parked.store(parked as u64, Ordering::Relaxed);
        }
    }

    /// Shutdown: refuse new connections, queue every request whose
    /// bytes already arrived, drop the idle and the partial ones, and
    /// tell the workers that no more requests are coming.
    fn stop_framing(&mut self) {
        self.listener = None;
        for i in (0..self.conns.len()).rev() {
            if self.conns[i].closing.is_none() {
                self.service(i);
            }
        }
        for i in (0..self.conns.len()).rev() {
            if self.conns[i].closing.is_none() {
                self.unpark(i);
            }
        }
        self.shared.stop_queue();
    }

    /// Keep `conn` in the poll set, counting its buffered bytes.
    fn park(&mut self, conn: Conn) {
        self.buffered += conn.buf.len();
        self.conns.push(conn);
    }

    /// Take connection `i` out of the poll set; the last one takes its
    /// place.
    fn unpark(&mut self, i: usize) -> Conn {
        let conn = self.conns.swap_remove(i);
        self.buffered -= conn.buf.len();
        conn
    }

    /// Read what connection `i` sent and act on it.
    fn service(&mut self, i: usize) {
        let next = if self.conns[i].closing.is_some() {
            self.drain(i)
        } else {
            self.read_and_frame(i)
        };
        self.settle(i, next);
    }

    /// Act on what a read or a frame made of connection `i`.
    fn settle(&mut self, i: usize, next: Next) {
        if matches!(next, Next::Park) {
            return;
        }
        let conn = self.unpark(i);
        match next {
            Next::Queue(req) => self.queue(conn, req),
            Next::Malformed(e) => self.reject(conn, e),
            Next::Overflow => self.shed(conn, "request buffers are full; retry shortly"),
            Next::Park | Next::Drop => {}
        }
    }

    /// A closing connection: discard input until end of stream, a few
    /// chunks per wake-up so a fast sender cannot hold the reactor.
    fn drain(&mut self, i: usize) -> Next {
        for _ in 0..DRAIN_READS {
            match (&self.conns[i].stream).read(&mut self.scratch) {
                Ok(0) => return Next::Drop,
                Ok(_) => self.conns[i].active = Instant::now(),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Next::Park,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Next::Drop,
            }
        }
        Next::Park
    }

    /// Read until the socket is empty, then frame a request if the new
    /// bytes can complete one.
    fn read_and_frame(&mut self, i: usize) -> Next {
        let conn = &mut self.conns[i];
        let mut ready = conn.wait.is_none();
        let mut eof = false;
        loop {
            match (&conn.stream).read(&mut self.scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    if self.buffered + n > self.cap {
                        return Next::Overflow;
                    }
                    let fresh = &self.scratch[..n];
                    conn.buf.extend_from_slice(fresh);
                    self.buffered += n;
                    conn.active = Instant::now();
                    ready |= conn.wait.is_some_and(|w| w.ready(conn.buf.len(), fresh));
                    if n < self.scratch.len() {
                        // A short read emptied the socket; end of stream
                        // or more bytes show up on the next poll.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Next::Drop,
            }
        }
        if !ready && !eof {
            return Next::Park;
        }
        self.frame(i, eof)
    }

    /// Frame one request from connection `i`'s buffer.
    fn frame(&mut self, i: usize, eof: bool) -> Next {
        let conn = &mut self.conns[i];
        match http::parse_request(&conn.buf, self.shared.cfg.max_body_bytes, eof) {
            Parse::Request(req, used) => {
                conn.buf.drain(..used);
                self.buffered -= used;
                conn.wait = None;
                Next::Queue(req)
            }
            Parse::Incomplete(wait) => {
                conn.wait = Some(wait);
                Next::Park
            }
            Parse::Eof => Next::Drop,
            Parse::Malformed(e) => Next::Malformed(e),
        }
    }

    /// Hand a framed request to the workers, or shed it if the queue is
    /// full.
    fn queue(&mut self, conn: Conn, req: Request) {
        let draining = self.listener.is_none();
        if let Err(conn) = self.shared.enqueue(
            Job {
                conn,
                req,
                enqueued: Instant::now(),
            },
            draining,
        ) {
            self.shed(conn, "admission queue is full; retry shortly");
        }
    }

    /// Park connections the workers handed back; frame any pipelined
    /// bytes they carry.
    fn take_returns(&mut self) {
        while matches!((&self.wake).read(&mut self.scratch), Ok(n) if n > 0) {}
        let returned = std::mem::take(
            &mut *self
                .shared
                .returns
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for conn in returned {
            if conn.closing.is_some() {
                self.close(conn);
                continue;
            }
            if self.listener.is_none() {
                // Draining: no more requests are framed.
                continue;
            }
            let pipelined = !conn.buf.is_empty();
            self.park(conn);
            if pipelined {
                let i = self.conns.len() - 1;
                let next = self.frame(i, false);
                self.settle(i, next);
            }
        }
    }

    /// Accept every pending connection. A full request queue sheds the
    /// newcomer with `429` before any of its bytes are read.
    fn accept_all(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    std::thread::sleep(BACKOFF);
                    return;
                }
            };
            self.shared
                .counters
                .received
                .fetch_add(1, Ordering::Relaxed);
            // Answers are single writes, so Nagle's algorithm would only
            // delay them.
            if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                continue;
            }
            let conn = Conn::new(stream);
            if self.shared.queue_full() {
                self.shed(conn, "admission queue is full; retry shortly");
                continue;
            }
            // A close-mode client usually sent its request with the
            // handshake: frame it now rather than one poll later.
            self.park(conn);
            self.service(self.conns.len() - 1);
        }
    }

    /// Answer `429` + `Retry-After` and close.
    fn shed(&mut self, conn: Conn, detail: &str) {
        let c = &self.shared.counters;
        c.shed.fetch_add(1, Ordering::Relaxed);
        self.shared.window.record(Outcome::Shed, None);
        // No request was parsed, so no client trace id exists: mint one
        // so the 429 is still correlatable.
        let hex = to_hex(ctx::new_id());
        self.answer_and_close(
            conn,
            429,
            "Too Many Requests",
            &[("retry-after", "1")],
            &hex,
            &server::error_body("overloaded", detail),
        );
    }

    /// Answer a protocol violation with its typed status and close: the
    /// stream position is no longer trustworthy.
    fn reject(&mut self, conn: Conn, e: http::ParseError) {
        self.shared
            .counters
            .client_errors
            .fetch_add(1, Ordering::Relaxed);
        let (status, reason) = e.status();
        // Headers are untrustworthy too, so mint a fresh trace id.
        let hex = to_hex(ctx::new_id());
        self.answer_and_close(
            conn,
            status,
            reason,
            &[],
            &hex,
            &server::error_body(e.cause(), &e.to_string()),
        );
    }

    /// Write a small error answer without waiting (a socket the reactor
    /// parks has room for it, or its peer is not reading), then close.
    fn answer_and_close(
        &mut self,
        conn: Conn,
        status: u16,
        reason: &str,
        extra: &[(&str, &str)],
        trace_hex: &str,
        body: &str,
    ) {
        let mut headers = vec![("connection", "close"), ("x-gef-trace-id", trace_hex)];
        headers.extend_from_slice(extra);
        let wrote = http::write_response(
            &mut SocketWriter::new(&conn.stream, Duration::ZERO),
            status,
            reason,
            "application/json",
            &headers,
            server::stamp_trace_id(body, trace_hex).as_bytes(),
        )
        .is_ok();
        if wrote {
            self.shared.counters.count_response(status);
        }
        self.close(conn.into_closing());
    }

    /// Take a connection marked closing: shut its write side, which
    /// flushes the answer and sends FIN, then drain it.
    fn close(&mut self, conn: Conn) {
        let _ = conn.stream.shutdown(Shutdown::Write);
        self.park(conn);
    }
}
