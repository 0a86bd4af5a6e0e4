//! Shared-nothing connection shards: the event-loop engine behind
//! [`Server::serve_tcp`](crate::Server::serve_tcp).
//!
//! Accepted connections are handed round-robin to a fixed pool of shard
//! threads; each shard owns its subset outright (no connection is ever
//! touched by two shards) and pumps all of them through one
//! non-blocking readiness loop over a [`netpoll::Poller`]. No
//! connection owns a thread or a lock: partial request lines accumulate
//! in a [`RecvBuffer`] until their newline arrives (the stdin pump,
//! [`Server::serve`], frames its lines with the same buffer), and
//! responses queue in a [`SendBuffer`] that drains as far as the socket
//! accepts and parks the rest behind write-readiness. Every request is
//! answered on the shard thread that read it, through
//! [`Server::answer`] — the same path the stdin pump takes — and the
//! shard thread never blocks on anything but the poller.
//!
//! Ordering: every connection's responses leave in arrival order,
//! tagged or not. The flip side is that a request holds its shard until
//! it is answered: a large batch or a `refine` run delays every other
//! connection that shard owns.

use crate::lock_recover;
use crate::server::{ns_since, ConnState, OpenConnGuard, Reply, Server};
use crate::telemetry::Stage;
use netpoll::{raw_fd, Interest, Poller, WAKE_TOKEN};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A request line longer than this without a newline closes the
/// connection (or ends the stdin stream): nothing in the protocol is
/// remotely this large, so the peer is broken or hostile, and the
/// alternative is unbounded buffering.
pub(crate) const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Stack scratch for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// The fixed pool of shard event loops serving one listener.
pub(crate) struct ShardSet {
    shards: Vec<Arc<Shard>>,
    next: AtomicUsize,
}

impl ShardSet {
    /// Spawns `count` shard threads (clamped to at least 1), each with
    /// its own poller and join queue.
    ///
    /// # Errors
    ///
    /// Fails when a poller cannot be created or a thread cannot spawn.
    pub(crate) fn spawn(server: &Arc<Server>, count: usize) -> io::Result<ShardSet> {
        let count = count.max(1);
        let mut shards = Vec::with_capacity(count);
        for i in 0..count {
            let shard = Arc::new(Shard {
                poller: Poller::new()?,
                joins: Mutex::new(Vec::new()),
            });
            let server = Arc::clone(server);
            let loop_shard = Arc::clone(&shard);
            std::thread::Builder::new()
                .name(format!("mps-serve-shard-{i}"))
                .spawn(move || {
                    // Lane 0 is the inline lane; shard lanes follow.
                    server.telemetry().bind_lane(1 + i);
                    shard_loop(&server, &loop_shard);
                })?;
            shards.push(shard);
        }
        Ok(ShardSet {
            shards,
            next: AtomicUsize::new(0),
        })
    }

    /// Hands one accepted connection (and its open-gauge guard) to the
    /// next shard round-robin and wakes that shard's loop.
    pub(crate) fn assign(&self, stream: TcpStream, guard: OpenConnGuard) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[i];
        lock_recover(&shard.joins).push((stream, guard));
        let _ = shard.poller.wake();
    }
}

/// One shard: a poller the loop blocks on, and the connections the
/// acceptor handed over but the loop does not own yet, each handoff
/// paired with a [`Poller::wake`].
struct Shard {
    poller: Poller,
    joins: Mutex<Vec<(TcpStream, OpenConnGuard)>>,
}

/// What [`Conn::finalize`] decided about the connection's future.
#[derive(PartialEq, Eq)]
enum ConnFate {
    Alive,
    Closed,
}

/// One connection as a shard owns it: the socket, the protocol framing
/// state, both direction buffers, and the bookkeeping that decides when
/// it can finally close.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    recv: RecvBuffer,
    out: SendBuffer,
    /// The read side is finished (EOF, read error, or oversized line).
    eof: bool,
    /// The interest currently registered with the poller, if any.
    registered: Option<Interest>,
    /// Ties the open-connection gauge to this struct's lifetime.
    _guard: OpenConnGuard,
}

impl Conn {
    fn new(stream: TcpStream, guard: OpenConnGuard) -> Conn {
        Conn {
            stream,
            state: ConnState::default(),
            recv: RecvBuffer::default(),
            out: SendBuffer::default(),
            eof: false,
            registered: None,
            _guard: guard,
        }
    }

    /// Reads until the socket would block (or ends), answering every
    /// complete line as it appears.
    fn drain_socket(&mut self, server: &Server) {
        let mut scratch = [0u8; READ_CHUNK];
        // One recv-stage sample per drain: the summed time the read()
        // syscalls themselves took, not the inline request handling
        // between them (that is parse/dispatch time, counted there).
        let telemetry_on = server.telemetry().enabled();
        let mut read_ns: u64 = 0;
        let mut did_read = false;
        while !self.eof {
            let t = telemetry_on.then(Instant::now);
            let outcome = self.stream.read(&mut scratch);
            if let Some(t) = t {
                read_ns = read_ns.saturating_add(ns_since(t));
                did_read = true;
            }
            match outcome {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.recv.extend(&scratch[..n]);
                    while let Some(line) = self.recv.next_line() {
                        self.answer(server, &line);
                    }
                    if self.recv.overflowed() {
                        self.out.push_line(&server.refuse_oversized_line());
                        self.eof = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.eof = true,
            }
        }
        if did_read {
            server.telemetry().record(Stage::Recv, read_ns);
        }
        if self.eof {
            // A final line without a trailing newline still gets its
            // answer, exactly as on the stdin pump.
            if let Some(line) = self.recv.take_trailing() {
                self.answer(server, &line);
            }
        }
    }

    /// Admits and answers one request line, queueing the reply.
    fn answer(&mut self, server: &Server, line: &str) {
        if let Some(reply) = server.answer(&mut self.state, line) {
            self.out.push_reply(&reply);
        }
    }

    /// Settles the connection after any activity: flushes as much output
    /// as the socket accepts, decides whether the connection is done,
    /// and keeps the poller registration in sync with what the
    /// connection actually waits for. A connection at EOF waits only to
    /// write, so a level-triggered EOF socket never spins the loop.
    fn finalize(&mut self, server: &Server, poller: &Poller, token: usize) -> ConnFate {
        let had_output = !self.out.is_empty();
        let t = (had_output && server.telemetry().enabled()).then(Instant::now);
        let flushed = self.out.flush_to(&mut self.stream);
        if let Some(t) = t {
            server.telemetry().record(Stage::Write, ns_since(t));
        }
        if flushed.is_err() {
            return ConnFate::Closed;
        }
        let desired = match (self.eof, self.out.is_empty()) {
            (true, true) => return ConnFate::Closed,
            (true, false) => Interest::WRITABLE,
            (false, true) => Interest::READABLE,
            (false, false) => Interest::BOTH,
        };
        if self.registered == Some(desired) {
            return ConnFate::Alive;
        }
        let fd = raw_fd(&self.stream);
        let outcome = match self.registered {
            None => poller.register(fd, token, desired),
            Some(_) => poller.reregister(fd, token, desired),
        };
        if outcome.is_err() {
            return ConnFate::Closed;
        }
        self.registered = Some(desired);
        ConnFate::Alive
    }
}

/// The heart of one shard: block on the poller, take over the
/// connections the acceptor handed in, then service readiness per
/// connection. Every iteration ends with each touched connection
/// either settled (buffers flushed as far as the socket allows,
/// registration matching its remaining interests) or closed.
fn shard_loop(server: &Server, shard: &Shard) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token: usize = 0;
    let mut events = Vec::new();
    loop {
        if shard.poller.wait(&mut events, None).is_err() {
            // Pathological (the poller fd itself failed). Back off so a
            // persistent error cannot spin the core; the join drain
            // below still makes progress.
            std::thread::sleep(Duration::from_millis(10));
        }
        let joins = std::mem::take(&mut *lock_recover(&shard.joins));
        for (stream, guard) in joins {
            if stream.set_nonblocking(true).is_err() {
                continue; // guard drops: the admission slot frees
            }
            let token = next_token;
            // WAKE_TOKEN is usize::MAX: unreachable by increment in any
            // realistic process lifetime, but skip it all the same.
            next_token = next_token.wrapping_add(1);
            if next_token == WAKE_TOKEN {
                next_token = 0;
            }
            let mut conn = Conn::new(stream, guard);
            // The socket may already hold data (or EOF) from before the
            // handoff; level-triggered registration inside finalize
            // surfaces it on the next wait either way, but draining now
            // answers the common connect-send-immediately case without
            // an extra loop turn.
            conn.drain_socket(server);
            if conn.finalize(server, &shard.poller, token) == ConnFate::Alive {
                conns.insert(token, conn);
            }
        }
        for &event in &events {
            let Some(conn) = conns.get_mut(&event.token) else {
                continue; // closed earlier this iteration
            };
            if event.readable {
                conn.drain_socket(server);
            } else if event.hangup {
                // Pure error report (no data): the next read would only
                // error; stop reading and let finalize settle the rest.
                conn.eof = true;
            }
            if conn.finalize(server, &shard.poller, event.token) == ConnFate::Closed {
                remove_conn(&shard.poller, &mut conns, event.token);
            }
        }
    }
}

/// Drops one connection, unhooking it from the poller first. Dropping
/// the [`Conn`] closes the socket and releases its open-gauge guard.
fn remove_conn(poller: &Poller, conns: &mut HashMap<usize, Conn>, token: usize) {
    if let Some(conn) = conns.remove(&token) {
        if conn.registered.is_some() {
            let _ = poller.deregister(raw_fd(&conn.stream));
        }
    }
}

/// Accumulates request bytes until a full `\n`-terminated line exists —
/// the one line framing both pumps share. The split points TCP (or a
/// pipe) chooses are invisible to the protocol layer: a line may arrive
/// in one segment with ten siblings or one byte at a time.
#[derive(Default)]
pub(crate) struct RecvBuffer {
    buf: Vec<u8>,
    /// How far the newline scan has already looked, so a long line
    /// arriving in many segments is not rescanned from the start.
    scanned: usize,
}

impl RecvBuffer {
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.scanned = 0;
    }

    /// Whether the unterminated tail outgrew [`MAX_LINE_BYTES`]; if so
    /// the bytes are dropped unparsed and the caller answers with
    /// [`Server::refuse_oversized_line`] and stops reading. Call it
    /// after taking every complete line.
    pub(crate) fn overflowed(&mut self) -> bool {
        let over = self.buf.len() > MAX_LINE_BYTES;
        if over {
            self.clear();
        }
        over
    }

    /// Takes the next complete line off the front (newline consumed, a
    /// trailing `\r` stripped), or `None` until one exists.
    pub(crate) fn next_line(&mut self) -> Option<String> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let pos = self.scanned + rel;
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                // Invalid UTF-8 flows through to the parser, which
                // answers it with a typed error; the stream lives on.
                Some(String::from_utf8_lossy(&line).into_owned())
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// At EOF: the final unterminated line, if any.
    pub(crate) fn take_trailing(&mut self) -> Option<String> {
        if self.buf.is_empty() {
            return None;
        }
        let line = String::from_utf8_lossy(&self.buf).into_owned();
        self.clear();
        Some(line)
    }
}

/// Buffers rendered response lines toward one socket, surviving partial
/// writes: `flush_to` pushes as much as the peer accepts and the
/// unwritten tail waits for the next write-readiness event.
#[derive(Default)]
struct SendBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    pos: usize,
}

impl SendBuffer {
    fn push_line(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// Queues one reply: a newline-terminated JSON line, or a binary
    /// frame's raw bytes (self-delimiting, no terminator).
    fn push_reply(&mut self, reply: &Reply) {
        match reply {
            Reply::Line(line) => self.push_line(line),
            Reply::Frame(frame) => self.buf.extend_from_slice(frame),
        }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Writes as much as `writer` accepts. `Ok(true)` means everything
    /// is out; `Ok(false)` means the socket pushed back (WouldBlock) and
    /// the rest is parked; `Err` is fatal for the connection.
    fn flush_to<W: Write>(&mut self, writer: &mut W) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match writer.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.compact();
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }

    /// Drops the already-written prefix so a long-lived slow reader
    /// cannot grow the buffer without bound.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_buffer_reassembles_a_line_split_across_segments() {
        let mut recv = RecvBuffer::default();
        recv.extend(b"{\"kind\":\"sta");
        assert_eq!(recv.next_line(), None, "no newline yet");
        recv.extend(b"ts\"}");
        assert_eq!(recv.next_line(), None, "still no newline");
        recv.extend(b"\n{\"kind\":");
        assert_eq!(recv.next_line().as_deref(), Some("{\"kind\":\"stats\"}"));
        assert_eq!(recv.next_line(), None);
        assert_eq!(
            recv.buf.len(),
            b"{\"kind\":".len(),
            "the tail stays buffered"
        );
    }

    #[test]
    fn recv_buffer_yields_multiple_lines_from_one_segment() {
        let mut recv = RecvBuffer::default();
        recv.extend(b"one\r\ntwo\n\nthree");
        assert_eq!(recv.next_line().as_deref(), Some("one"), "CR stripped");
        assert_eq!(recv.next_line().as_deref(), Some("two"));
        assert_eq!(recv.next_line().as_deref(), Some(""), "blank line kept");
        assert_eq!(recv.next_line(), None);
        assert_eq!(recv.take_trailing().as_deref(), Some("three"));
        assert_eq!(recv.take_trailing(), None);
    }

    #[test]
    fn recv_buffer_handles_byte_at_a_time_arrival() {
        let mut recv = RecvBuffer::default();
        for &b in b"{\"kind\":\"stats\"}" {
            recv.extend(&[b]);
            assert_eq!(recv.next_line(), None);
        }
        recv.extend(b"\n");
        assert_eq!(recv.next_line().as_deref(), Some("{\"kind\":\"stats\"}"));
    }

    #[test]
    fn recv_buffer_drops_a_tail_past_the_line_cap() {
        let mut recv = RecvBuffer::default();
        recv.extend(b"ok\n");
        recv.extend(&vec![b'x'; MAX_LINE_BYTES]);
        assert_eq!(recv.next_line().as_deref(), Some("ok"));
        assert_eq!(recv.next_line(), None);
        assert!(!recv.overflowed(), "exactly at the cap is still legal");
        recv.extend(b"x");
        assert!(recv.overflowed());
        assert!(recv.buf.is_empty(), "the oversized tail is dropped");
        assert_eq!(recv.take_trailing(), None);
    }

    /// A writer that accepts a budget of bytes, then reports WouldBlock
    /// — a full socket send buffer in miniature.
    struct Throttled {
        accept: usize,
        out: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.accept == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.accept);
            self.accept -= n;
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_buffer_parks_the_tail_on_a_full_socket_and_resumes() {
        let mut out = SendBuffer::default();
        out.push_line("{\"ok\":true,\"kind\":\"stats\"}");
        out.push_line("{\"ok\":true,\"kind\":\"query\"}");
        let mut sock = Throttled {
            accept: 10,
            out: Vec::new(),
        };
        assert!(!out.flush_to(&mut sock).unwrap(), "socket filled up");
        assert!(!out.is_empty());
        assert_eq!(sock.out.len(), 10);
        // The peer drained its receive queue: writability returns.
        sock.accept = usize::MAX;
        assert!(out.flush_to(&mut sock).unwrap());
        assert!(out.is_empty());
        assert_eq!(
            sock.out,
            b"{\"ok\":true,\"kind\":\"stats\"}\n{\"ok\":true,\"kind\":\"query\"}\n"
        );
    }

    #[test]
    fn send_buffer_treats_write_zero_as_fatal() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = SendBuffer::default();
        out.push_line("x");
        let err = out.flush_to(&mut Zero).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn send_buffer_retries_interrupted_writes() {
        struct InterruptOnce {
            interrupted: bool,
            out: Vec<u8>,
        }
        impl Write for InterruptOnce {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !self.interrupted {
                    self.interrupted = true;
                    return Err(io::ErrorKind::Interrupted.into());
                }
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = SendBuffer::default();
        out.push_line("ping");
        let mut sock = InterruptOnce {
            interrupted: false,
            out: Vec::new(),
        };
        assert!(out.flush_to(&mut sock).unwrap());
        assert_eq!(sock.out, b"ping\n");
    }
}
