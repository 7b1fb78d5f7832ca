//! The nonblocking reactor: sharded event loops driving pipelined
//! NDJSON connections.
//!
//! Each shard is one thread owning a [`Poller`] (epoll on Linux,
//! `poll(2)` elsewhere) and a slab of connections. The accept thread
//! hands fresh sockets to shards round-robin through an injection
//! queue; analysis work runs on the shared worker pool and comes back
//! through a per-shard completion queue; both queues wake the shard
//! through a nonblocking socketpair.
//!
//! # Pipelining and ordering
//!
//! Clients may pipeline: write many request lines without waiting.
//! Per readability event the shard drains *all* complete lines into
//! the connection's inbox, and answers the inbox strictly from its
//! head: a reply known at parse time (a malformed line), `query` and
//! `shutdown` are answered on the shard, and a maximal run of
//! analysis-class requests leaves for the pool as one batch. A
//! connection has at most one batch in flight, and nothing behind it
//! is answered until its replies are back, so replies reach the output
//! buffer in request order (the N-th response answers the N-th
//! request) and mutations from one connection commit in that order.
//! Requests on different connections run concurrently across the
//! pool; sessions stay consistent through their per-session locks.
//!
//! # Backpressure and hardening
//!
//! A connection stops being read (its read interest is dropped) while
//! `inbox + batch ≥ max_pipeline` or its output buffer exceeds the
//! high-water mark; kernel TCP backpressure propagates to the client.
//! A partial request line older than the read deadline (slow loris) or
//! a line longer than [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES)
//! closes the connection — the latter only after every earlier reply
//! and a structured `parse` error are flushed. Accepted sockets run
//! with `TCP_NODELAY` so pipelined responses are not delayed by Nagle
//! batching.

use crate::json::{Doc, Value};
use crate::proto::{error_response, ErrorCode, Request};
use crate::server::{self, ServerState, MAX_LINE_BYTES};
use crate::sys::{Event, Interest, Poller};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Poller token reserved for the shard's wake socket.
const WAKE_TOKEN: u64 = u64::MAX;

/// Output buffer size above which a connection stops being read until
/// the client drains responses.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;

/// How long the poller sleeps when idle; bounds deadline-sweep latency.
const TICK_MS: i32 = 250;

/// One finished batch: its replies for connection `(conn, gen)`, as
/// newline-terminated lines in request order.
struct Completion {
    conn: u32,
    gen: u32,
    replies: Vec<u8>,
}

/// The cross-thread half of a shard: injection + completion queues and
/// the waker that kicks the event loop.
pub(crate) struct ShardQueues {
    incoming: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
}

impl ShardQueues {
    fn wake(&self) {
        // Nonblocking one-byte nudge; a full pipe already guarantees a
        // pending wakeup and a closed one means the shard is gone.
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    /// Hands a fresh connection to the shard (acceptor side).
    pub(crate) fn push_incoming(&self, stream: TcpStream) {
        self.incoming
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(stream);
        self.wake();
    }

    /// Delivers a finished batch (worker side).
    fn complete(&self, batch: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(batch);
        self.wake();
    }

    /// Wakes the shard so it observes a state change (shutdown).
    pub(crate) fn notify(&self) {
        self.wake();
    }
}

/// A request line not yet answered on one connection.
enum InboxItem {
    /// A reply already known at parse time (a malformed line).
    Reply(Value),
    /// Analysis-class request bound for the worker pool, with its
    /// arrival instant (deadlines measure from here).
    Pooled(Request, Instant),
    /// `query`/`shutdown`: executed by the reactor itself when it
    /// reaches the head of the line.
    Control(Request),
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    gen: u32,
    /// Unconsumed input; `[..line_start]` is already processed.
    rbuf: Vec<u8>,
    line_start: usize,
    /// No b'\n' exists in `rbuf[line_start..scanned]`.
    scanned: usize,
    /// In-order responses awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Requests not yet answered or dispatched, in request order.
    inbox: VecDeque<InboxItem>,
    /// Requests in the one batch on the pool; `0` when none is.
    batch: usize,
    last_read: Instant,
    interest: Interest,
    read_closed: bool,
    close_after_flush: bool,
    shutdown_after_flush: bool,
    /// Set once the error response is flushed and our FIN is sent: the
    /// connection lingers, discarding input until the peer's EOF, so
    /// the client reads the response instead of an RST (closing with
    /// unread bytes in the receive buffer resets the connection and
    /// can discard data already in flight to the peer).
    lingering: Option<Instant>,
}

impl Conn {
    fn in_flight(&self) -> usize {
        self.inbox.len() + self.batch
    }

    /// Appends `reply` to the output as one line.
    fn answer(&mut self, reply: &Value) {
        self.out.extend_from_slice(reply.encode().as_bytes());
        self.out.push(b'\n');
    }
}

/// Runs one shard event loop until shutdown. `wake_rx` is the read end
/// of the waker socketpair whose write end lives in `queues`.
pub(crate) fn shard_loop(
    shard_id: usize,
    wake_rx: UnixStream,
    queues: Arc<ShardQueues>,
    state: Arc<ServerState>,
) {
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => Poller::new_poll_fallback(),
    };
    if wake_rx.set_nonblocking(true).is_err() {
        return;
    }
    if poller
        .register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
        .is_err()
    {
        return;
    }

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut gen_counter: u32 = shard_id as u32; // distinct seeds aid debugging
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut touched: Vec<u32> = Vec::new();
    let mut last_sweep = Instant::now();

    loop {
        if state.shutting_down() {
            return; // dropping conns closes the sockets
        }
        let _ = poller.wait(&mut events, TICK_MS);
        if state.shutting_down() {
            return;
        }

        // Drain the waker so the next wake writes a fresh byte.
        let mut sink = [0u8; 64];
        while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}

        touched.clear();

        // Adopt injected connections.
        let fresh: Vec<TcpStream> = std::mem::take(
            &mut *queues
                .incoming
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for stream in fresh {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let id = match free.pop() {
                Some(id) => id,
                None => {
                    conns.push(None);
                    (conns.len() - 1) as u32
                }
            };
            gen_counter = gen_counter.wrapping_add(1);
            let conn = Conn {
                stream,
                gen: gen_counter,
                rbuf: Vec::new(),
                line_start: 0,
                scanned: 0,
                out: Vec::new(),
                out_pos: 0,
                inbox: VecDeque::new(),
                batch: 0,
                last_read: Instant::now(),
                interest: Interest::READ,
                read_closed: false,
                close_after_flush: false,
                shutdown_after_flush: false,
                lingering: None,
            };
            if poller
                .register(conn.stream.as_raw_fd(), u64::from(id), Interest::READ)
                .is_ok()
            {
                conns[id as usize] = Some(conn);
            }
        }

        // Append finished batches to their connections' output.
        let completed: Vec<Completion> = std::mem::take(
            &mut *queues
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for c in completed {
            let Some(conn) = conns.get_mut(c.conn as usize).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != c.gen {
                continue; // response for a previous occupant of this slot
            }
            conn.out.extend_from_slice(&c.replies);
            conn.batch = 0;
            if !touched.contains(&c.conn) {
                touched.push(c.conn);
            }
        }

        // Socket readiness.
        for ev in std::mem::take(&mut events) {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            let id = ev.token as u32;
            let Some(conn) = conns.get_mut(id as usize).and_then(Option::as_mut) else {
                continue;
            };
            if ev.error && !ev.readable {
                close_conn(&mut poller, &mut conns, &mut free, id);
                continue;
            }
            if ev.readable {
                handle_read(conn, &mut scratch, &state);
            }
            if !touched.contains(&id) {
                touched.push(id);
            }
        }

        // Drive dispatch + flush for every connection something happened
        // to, then apply interest/teardown decisions.
        for id in std::mem::take(&mut touched) {
            let Some(conn) = conns.get_mut(id as usize).and_then(Option::as_mut) else {
                continue;
            };
            drive(conn, &state, &queues, id);
            flush(conn);
            let done_flushing = conn.out_pos >= conn.out.len();
            if conn.shutdown_after_flush && done_flushing {
                server::begin_shutdown(&state);
                return;
            }
            // Nothing owed: every request read so far is answered and
            // flushed.
            if done_flushing && conn.in_flight() == 0 {
                if conn.read_closed {
                    close_conn(&mut poller, &mut conns, &mut free, id);
                    continue;
                }
                // The peer may still be sending: half-close and linger
                // (see `Conn::lingering`) instead of resetting the
                // connection under it.
                if conn.close_after_flush && conn.lingering.is_none() {
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    conn.lingering = Some(Instant::now());
                }
            }
            // Interest: always write when output is pending; read unless
            // pipelining is saturated or the peer half-closed. A
            // lingering connection keeps reading (to discard) so it
            // observes the peer's EOF.
            let want = Interest {
                readable: !conn.read_closed
                    && (conn.lingering.is_some()
                        || (!conn.close_after_flush
                            && conn.in_flight() < state.max_pipeline()
                            && conn.out.len() - conn.out_pos < OUT_HIGH_WATER)),
                writable: !done_flushing,
            };
            if want != conn.interest {
                conn.interest = want;
                let _ = poller.modify(conn.stream.as_raw_fd(), u64::from(id), want);
            }
        }

        // Deadline sweep (slow loris, idle connections).
        if last_sweep.elapsed() >= Duration::from_millis(500) {
            last_sweep = Instant::now();
            let read_deadline = state.read_deadline();
            let idle_timeout = state.idle_timeout();
            for id in 0..conns.len() as u32 {
                let Some(conn) = conns.get_mut(id as usize).and_then(Option::as_mut) else {
                    continue;
                };
                let idle_for = conn.last_read.elapsed();
                let partial = conn.rbuf.len() > conn.line_start;
                let quiescent = !partial && conn.in_flight() == 0 && conn.out_pos >= conn.out.len();
                let loris = partial && !read_deadline.is_zero() && idle_for > read_deadline;
                let idle = quiescent && !idle_timeout.is_zero() && idle_for > idle_timeout;
                // A lingering half-closed connection gets the read
                // deadline (or 30s if that guard is off) to send its
                // EOF, then is torn down regardless.
                let linger_cap = if read_deadline.is_zero() {
                    Duration::from_secs(30)
                } else {
                    read_deadline
                };
                let lingered_out = conn.lingering.is_some_and(|t| t.elapsed() > linger_cap);
                if loris || idle || lingered_out {
                    close_conn(&mut poller, &mut conns, &mut free, id);
                }
            }
        }
    }
}

fn close_conn(poller: &mut Poller, conns: &mut [Option<Conn>], free: &mut Vec<u32>, id: u32) {
    if let Some(conn) = conns[id as usize].take() {
        poller.deregister(conn.stream.as_raw_fd());
        free.push(id);
    }
}

/// Reads everything available, frames complete lines and parses them
/// into inbox items.
fn handle_read(conn: &mut Conn, scratch: &mut [u8], state: &ServerState) {
    loop {
        if conn.close_after_flush {
            // Lingering teardown: discard everything until the peer's
            // EOF. `last_read` is deliberately not refreshed, so the
            // sweep bounds how long a peer that never stops sending can
            // hold the slot.
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read_closed = true;
                    break;
                }
            }
        }
        if conn.in_flight() >= state.max_pipeline() {
            break; // backpressure: leave the rest in the kernel buffer
        }
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.last_read = Instant::now();
                conn.rbuf.extend_from_slice(&scratch[..n]);
                frame_lines(conn, state);
                if conn.close_after_flush || conn.shutdown_after_flush {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.read_closed = true;
                conn.close_after_flush = true;
                break;
            }
        }
    }
    // Compact consumed bytes so the buffer does not grow unboundedly.
    if conn.line_start > 0 {
        conn.rbuf.drain(..conn.line_start);
        conn.scanned -= conn.line_start;
        conn.line_start = 0;
    }
}

/// Splits `rbuf` into complete lines and processes each.
fn frame_lines(conn: &mut Conn, state: &ServerState) {
    loop {
        let newline = conn.rbuf[conn.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|rel| conn.scanned + rel);
        let end = newline.unwrap_or(conn.rbuf.len());
        if end - conn.line_start > MAX_LINE_BYTES {
            // Answer the protocol error, then close: an unbounded line
            // is not worth resynchronizing.
            let reply = error_response(ErrorCode::Parse, "request line too long");
            conn.inbox.push_back(InboxItem::Reply(reply));
            conn.close_after_flush = true;
            conn.rbuf.clear();
            conn.line_start = 0;
            conn.scanned = 0;
            return;
        }
        let Some(nl) = newline else {
            conn.scanned = conn.rbuf.len();
            return;
        };
        let start = conn.line_start;
        conn.line_start = nl + 1;
        conn.scanned = nl + 1;
        process_line(conn, start..nl, state);
        if conn.shutdown_after_flush {
            return;
        }
    }
}

/// Parses one complete request line into an inbox item.
fn process_line(conn: &mut Conn, range: std::ops::Range<usize>, state: &ServerState) {
    let is_blank = conn.rbuf[range.clone()].iter().all(u8::is_ascii_whitespace);
    if is_blank {
        return;
    }
    state.count_request();
    // The request is decoded straight from the line's tape, which
    // borrows the read buffer: no `Value` tree, no string copied twice.
    let request = match std::str::from_utf8(&conn.rbuf[range]) {
        Err(_) => Err((ErrorCode::Parse, "request is not valid UTF-8".to_owned())),
        Ok(text) => match Doc::parse(text) {
            Err(e) => Err((ErrorCode::Parse, e.to_string())),
            Ok(doc) => Request::from_json(doc.root()),
        },
    };
    conn.inbox.push_back(match request {
        Err((code, msg)) => InboxItem::Reply(error_response(code, &msg)),
        Ok(req @ (Request::Query { .. } | Request::Shutdown)) => InboxItem::Control(req),
        Ok(req) => InboxItem::Pooled(req, Instant::now()),
    });
}

/// Answers the inbox from its head while no batch is in flight:
/// known replies and control requests inline, and a maximal run of
/// pooled requests as one batch, after which the rest waits for it.
fn drive(conn: &mut Conn, state: &Arc<ServerState>, queues: &Arc<ShardQueues>, conn_id: u32) {
    while conn.batch == 0 {
        let Some(item) = conn.inbox.pop_front() else {
            return;
        };
        let first = match item {
            InboxItem::Reply(reply) => {
                conn.answer(&reply);
                continue;
            }
            InboxItem::Control(Request::Query { session }) => {
                conn.answer(&server::query_response(state, session.as_deref()));
                continue;
            }
            InboxItem::Control(Request::Shutdown) => {
                conn.answer(&server::shutdown_response());
                conn.shutdown_after_flush = true;
                conn.inbox.clear();
                return;
            }
            InboxItem::Control(_) => unreachable!("only query/shutdown are control items"),
            InboxItem::Pooled(req, enqueued) => (req, enqueued),
        };
        let mut batch = vec![first];
        while let Some(InboxItem::Pooled(..)) = conn.inbox.front() {
            let Some(InboxItem::Pooled(req, enqueued)) = conn.inbox.pop_front() else {
                unreachable!()
            };
            batch.push((req, enqueued));
        }
        let n = batch.len();
        let refusal = if state.shutting_down() {
            error_response(ErrorCode::ShuttingDown, "server is shutting down")
        } else {
            let job_state = Arc::clone(state);
            let job_queues = Arc::clone(queues);
            let gen = conn.gen;
            let dispatched = state.pool().try_execute(move || {
                let mut replies = Vec::new();
                for (req, enqueued) in batch {
                    replies.extend(server::execute_pooled(req, enqueued, &job_state));
                    replies.push(b'\n');
                }
                job_queues.complete(Completion {
                    conn: conn_id,
                    gen,
                    replies,
                });
            });
            if dispatched.is_ok() {
                conn.batch = n;
                return;
            }
            state.count_overloaded(n as u64);
            error_response(
                ErrorCode::Overloaded,
                "request queue full; retry with backoff",
            )
        };
        for _ in 0..n {
            conn.answer(&refusal);
        }
    }
}

/// Writes as much of the output as the socket takes.
fn flush(conn: &mut Conn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.close_after_flush = true;
                conn.out_pos = conn.out.len();
                break;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Peer is gone; drop what we cannot deliver.
                conn.close_after_flush = true;
                conn.out_pos = conn.out.len();
                break;
            }
        }
    }
    if conn.out_pos >= conn.out.len() && !conn.out.is_empty() {
        conn.out.clear();
        conn.out_pos = 0;
    }
}

/// Builds the per-shard queue pair; the returned [`UnixStream`] is the
/// wake receiver the shard loop polls.
pub(crate) fn shard_queues() -> io::Result<(Arc<ShardQueues>, UnixStream)> {
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    Ok((
        Arc::new(ShardQueues {
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            wake_tx,
        }),
        wake_rx,
    ))
}
