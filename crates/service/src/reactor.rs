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
//! Per readability event the shard drains *all* complete lines,
//! assigns each a sequence slot, and dispatches maximal runs of
//! analysis-class requests to the pool as one batch. Responses are
//! written strictly in slot order — a later response waits in its slot
//! until every earlier one is filled — so the wire contract (N-th
//! response answers the N-th request) survives concurrency.
//!
//! Mutating requests from one connection are also *executed* in
//! order: a connection has at most one batch in flight, and follow-up
//! requests queue in its inbox until the batch completes. Requests on
//! different connections run concurrently across the pool; sessions
//! stay consistent through their per-session locks.
//!
//! # Backpressure and hardening
//!
//! A connection stops being read (its read interest is dropped) while
//! `inbox + pending ≥ max_pipeline` or its output buffer exceeds the
//! high-water mark; kernel TCP backpressure propagates to the client.
//! A partial request line older than the read deadline (slow loris) or
//! a line longer than [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES)
//! closes the connection — the latter only after a structured `parse`
//! error is flushed. Accepted sockets run with `TCP_NODELAY` so
//! pipelined responses are not delayed by Nagle batching.

use crate::json::Doc;
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

/// One finished request: the encoded response line for a sequence slot.
pub(crate) struct Completion {
    conn: u32,
    gen: u32,
    seq: u64,
    line: Vec<u8>,
    end_of_batch: bool,
}

impl Completion {
    /// Builds a completion for `(conn, gen, seq)` from a response line
    /// (newline appended here).
    pub(crate) fn new(
        conn: u32,
        gen: u32,
        seq: u64,
        mut line: Vec<u8>,
        end_of_batch: bool,
    ) -> Self {
        line.push(b'\n');
        Completion {
            conn,
            gen,
            seq,
            line,
            end_of_batch,
        }
    }
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

    /// Delivers a batch of finished responses (worker side).
    pub(crate) fn complete(&self, batch: Vec<Completion>) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(batch);
        self.wake();
    }

    /// Wakes the shard so it observes a state change (shutdown).
    pub(crate) fn notify(&self) {
        self.wake();
    }
}

/// A queued-but-undispatched request on one connection.
enum InboxItem {
    /// Analysis-class request bound for the worker pool, with its
    /// arrival instant (deadlines measure from here).
    Pooled(u64, Request, Instant),
    /// `query`/`shutdown`: executed by the reactor itself when it
    /// reaches the head of the line, preserving request order.
    Control(u64, Request),
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
    /// Coalesced in-order responses awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Sequence slots: `pending[i]` answers request `base_seq + i`.
    pending: VecDeque<Option<Vec<u8>>>,
    base_seq: u64,
    next_seq: u64,
    /// Parsed requests not yet dispatched (one batch in flight max).
    inbox: VecDeque<InboxItem>,
    batch_in_flight: bool,
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
        self.pending.len() + self.inbox.len()
    }

    fn fill_slot(&mut self, seq: u64, line: Vec<u8>) {
        debug_assert!(seq >= self.base_seq && seq < self.next_seq);
        let idx = (seq - self.base_seq) as usize;
        if let Some(slot) = self.pending.get_mut(idx) {
            *slot = Some(line);
        }
    }

    fn claim_slot(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(None);
        seq
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
                pending: VecDeque::new(),
                base_seq: 0,
                next_seq: 0,
                inbox: VecDeque::new(),
                batch_in_flight: false,
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

        // Apply completed analyses to their slots.
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
            conn.fill_slot(c.seq, c.line);
            if c.end_of_batch {
                conn.batch_in_flight = false;
            }
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
                handle_read(conn, &mut scratch, &state, &queues, id);
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
            pump(conn);
            if conn.shutdown_after_flush && conn.out_pos >= conn.out.len() {
                server::begin_shutdown(&state);
                return;
            }
            let done_flushing = conn.out_pos >= conn.out.len();
            if done_flushing && conn.close_after_flush {
                if conn.read_closed {
                    close_conn(&mut poller, &mut conns, &mut free, id);
                    continue;
                }
                // The response is flushed but the peer may still be
                // sending: half-close and linger (see `Conn::lingering`)
                // instead of resetting the connection under it.
                if conn.lingering.is_none() {
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    conn.lingering = Some(Instant::now());
                }
            } else if done_flushing && conn.read_closed && conn.in_flight() == 0 {
                close_conn(&mut poller, &mut conns, &mut free, id);
                continue;
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

/// Reads everything available, frames complete lines, parses them into
/// slots + inbox items.
fn handle_read(
    conn: &mut Conn,
    scratch: &mut [u8],
    state: &Arc<ServerState>,
    queues: &Arc<ShardQueues>,
    conn_id: u32,
) {
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
                frame_lines(conn, state, queues, conn_id);
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
fn frame_lines(conn: &mut Conn, state: &Arc<ServerState>, queues: &Arc<ShardQueues>, conn_id: u32) {
    loop {
        let search = &conn.rbuf[conn.scanned..];
        match search.iter().position(|&b| b == b'\n') {
            None => {
                conn.scanned = conn.rbuf.len();
                if conn.rbuf.len() - conn.line_start > MAX_LINE_BYTES {
                    // Answer the protocol error, then close: an
                    // unbounded line is not worth resynchronizing.
                    let seq = conn.claim_slot();
                    fill_error(conn, seq, ErrorCode::Parse, "request line too long");
                    conn.close_after_flush = true;
                    conn.rbuf.clear();
                    conn.line_start = 0;
                    conn.scanned = 0;
                }
                return;
            }
            Some(rel) => {
                let nl = conn.scanned + rel;
                let start = conn.line_start;
                conn.line_start = nl + 1;
                conn.scanned = nl + 1;
                if nl - start > MAX_LINE_BYTES {
                    let seq = conn.claim_slot();
                    fill_error(conn, seq, ErrorCode::Parse, "request line too long");
                    conn.close_after_flush = true;
                    return;
                }
                // Borrow dance: take the line out of rbuf views.
                let line_range = start..nl;
                process_line(conn, line_range, state, queues, conn_id);
                if conn.shutdown_after_flush || conn.close_after_flush {
                    return;
                }
            }
        }
    }
}

fn fill_error(conn: &mut Conn, seq: u64, code: ErrorCode, msg: &str) {
    let mut line = error_response(code, msg).encode().into_bytes();
    line.push(b'\n');
    conn.fill_slot(seq, line);
}

/// Parses one complete request line into a slot (errors), the inbox
/// (ordered execution), or both.
fn process_line(
    conn: &mut Conn,
    range: std::ops::Range<usize>,
    state: &Arc<ServerState>,
    _queues: &Arc<ShardQueues>,
    _conn_id: u32,
) {
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
    let seq = conn.claim_slot();
    match request {
        Err((code, msg)) => fill_error(conn, seq, code, &msg),
        Ok(req @ (Request::Query { .. } | Request::Shutdown)) => {
            conn.inbox.push_back(InboxItem::Control(seq, req));
        }
        Ok(req) => {
            conn.inbox
                .push_back(InboxItem::Pooled(seq, req, Instant::now()));
        }
    }
}

/// Dispatches as much of the inbox as ordering allows: control
/// requests execute inline at the head of the line; maximal runs of
/// pooled requests leave as one batch (at most one in flight).
fn drive(conn: &mut Conn, state: &Arc<ServerState>, queues: &Arc<ShardQueues>, conn_id: u32) {
    while !conn.batch_in_flight {
        match conn.inbox.front() {
            None => return,
            Some(InboxItem::Control(..)) => {
                let Some(InboxItem::Control(seq, req)) = conn.inbox.pop_front() else {
                    unreachable!()
                };
                match req {
                    Request::Query { session } => {
                        let mut line = server::query_response(state, session.as_deref())
                            .encode()
                            .into_bytes();
                        line.push(b'\n');
                        conn.fill_slot(seq, line);
                    }
                    Request::Shutdown => {
                        let mut line = server::shutdown_response().encode().into_bytes();
                        line.push(b'\n');
                        conn.fill_slot(seq, line);
                        conn.shutdown_after_flush = true;
                        conn.inbox.clear();
                        return;
                    }
                    _ => unreachable!("only query/shutdown are control items"),
                }
            }
            Some(InboxItem::Pooled(..)) => {
                let mut batch: Vec<(u64, Request, Instant)> = Vec::new();
                while matches!(conn.inbox.front(), Some(InboxItem::Pooled(..))) {
                    let Some(InboxItem::Pooled(seq, req, t)) = conn.inbox.pop_front() else {
                        unreachable!()
                    };
                    batch.push((seq, req, t));
                }
                if state.shutting_down() {
                    for (seq, ..) in batch {
                        fill_error(
                            conn,
                            seq,
                            ErrorCode::ShuttingDown,
                            "server is shutting down",
                        );
                    }
                    continue;
                }
                let job_state = Arc::clone(state);
                let job_queues = Arc::clone(queues);
                let gen = conn.gen;
                // The batch moves into the job; the overload arm below
                // answers by sequence number alone.
                let seqs: Vec<u64> = batch.iter().map(|(seq, ..)| *seq).collect();
                let dispatched = state.pool().try_execute(move || {
                    let mut out = Vec::with_capacity(batch.len());
                    let last = batch.len() - 1;
                    for (i, (seq, req, enqueued)) in batch.into_iter().enumerate() {
                        let line = server::execute_pooled(req, enqueued, &job_state);
                        out.push(Completion::new(conn_id, gen, seq, line, i == last));
                    }
                    job_queues.complete(out);
                });
                match dispatched {
                    Ok(()) => {
                        conn.batch_in_flight = true;
                        return;
                    }
                    Err(_) => {
                        state.count_overloaded(seqs.len() as u64);
                        for seq in seqs {
                            fill_error(
                                conn,
                                seq,
                                ErrorCode::Overloaded,
                                "request queue full; retry with backoff",
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Moves ready in-order responses into the output buffer and writes as
/// much as the socket takes.
fn pump(conn: &mut Conn) {
    // Coalesce every response that is next in line.
    while matches!(conn.pending.front(), Some(Some(_))) {
        let Some(Some(line)) = conn.pending.pop_front() else {
            unreachable!()
        };
        conn.base_seq += 1;
        conn.out.extend_from_slice(&line);
    }
    // Flush.
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
