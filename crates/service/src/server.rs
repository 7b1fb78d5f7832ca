//! The admission-control server: reactor shards, pooled analysis
//! execution, and the control plane.
//!
//! One thread accepts connections and deals them round-robin to N
//! `reactor` shards; each shard drives its connections with
//! nonblocking I/O and pipelined request batching.
//! *Analysis* work (`ping`, `submit`, `add-task`, `remove-task`) runs
//! on the shared [`WorkerPool`] so a bounded number of analyses run
//! regardless of connection count; `query` and `shutdown` are answered
//! by the reactor itself — introspection must keep working while the
//! pool is saturated.
//!
//! Overload and deadlines: if the pool queue is full the client gets an
//! `overloaded` error immediately; a request whose end-to-end time
//! (from the reactor parsing it to the worker finishing it) exceeds
//! [`ServerConfig::deadline`] is answered `deadline`.
//!
//! With [`ServerConfig::persist_dir`] set, every committed session
//! mutation is appended to an NDJSON journal (compacted into periodic
//! snapshots) and replayed on the next startup — see
//! [`persist`](crate::persist).

use crate::cache::{AnalysisCache, CachedAnalysis};
use crate::json::{self, Value};
use crate::persist::Persistence;
use crate::pool::WorkerPool;
use crate::proto::{error_response, ErrorCode, Request};
use crate::reactor::{self, ShardQueues};
use crate::reply::{admission_line, admission_suffix};
use crate::session::{admit, engine_verdict, engine_with, Session, SessionMap};
use crate::wire::{self, SystemSpec, TaskSpec};
use mpcp_analysis::Edit;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum accepted request-line length; longer lines are answered
/// with a `parse` error and the connection is closed.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (port 0 picks an ephemeral
    /// port; see [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Reactor shards (event-loop threads), each owning a slice of the
    /// connections.
    pub shards: usize,
    /// Worker threads running analyses.
    pub workers: usize,
    /// Bounded queue depth in front of the workers.
    pub queue_cap: usize,
    /// Per-request deadline, measured from enqueue to completion.
    pub deadline: Duration,
    /// Analysis-cache capacity (entries).
    pub cache_capacity: usize,
    /// Audit every Nth incrementally-served request against a full
    /// recompute; a divergence is answered with an `audit-divergence`
    /// error and nothing is committed. `0` disables sampling.
    pub audit_every: u64,
    /// Maximum pipelined requests in flight per connection: read but
    /// not yet dispatched, plus those in its batch on the pool. Beyond
    /// it the reactor stops reading the connection (TCP backpressure).
    pub max_pipeline: usize,
    /// How long a partially-received request line may sit before the
    /// connection is dropped (slow-loris guard). Zero disables it.
    pub read_deadline: Duration,
    /// Drop a connection with nothing in flight after this long without
    /// input. Zero (the default) keeps idle connections forever.
    pub idle_timeout: Duration,
    /// Directory for the session journal + snapshots; `None` runs
    /// in-memory only.
    pub persist_dir: Option<PathBuf>,
    /// Compact the journal into a snapshot every N appended entries.
    /// Zero never snapshots (the journal grows until restart).
    pub snapshot_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, usize::from);
        ServerConfig {
            addr: "127.0.0.1:7171".to_owned(),
            shards: cores.clamp(1, 4),
            workers: cores,
            queue_cap: 64,
            deadline: Duration::from_millis(1000),
            cache_capacity: 4096,
            audit_every: 64,
            max_pipeline: 128,
            read_deadline: Duration::from_secs(30),
            idle_timeout: Duration::ZERO,
            persist_dir: None,
            snapshot_every: 4096,
        }
    }
}

/// Counters exposed through `query`.
#[derive(Debug, Default)]
struct ServerStats {
    requests: AtomicU64,
    overloaded: AtomicU64,
    deadline_misses: AtomicU64,
    /// Requests served by the incremental engine (cache `"delta"`).
    delta: AtomicU64,
    /// Sampled incremental-vs-full audits run.
    audits: AtomicU64,
    /// Audits that caught a divergence (should stay zero forever).
    audit_failures: AtomicU64,
}

pub(crate) struct ServerState {
    sessions: SessionMap,
    cache: AnalysisCache,
    pool: WorkerPool,
    stats: ServerStats,
    shutting_down: AtomicBool,
    deadline: Duration,
    audit_every: u64,
    shard_count: usize,
    max_pipeline: usize,
    read_deadline: Duration,
    idle_timeout: Duration,
    persist: Option<Persistence>,
    local_addr: std::net::SocketAddr,
    shards: OnceLock<Vec<Arc<ShardQueues>>>,
}

impl ServerState {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    pub(crate) fn count_request(&self) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_overloaded(&self, n: u64) {
        self.stats.overloaded.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    pub(crate) fn max_pipeline(&self) -> usize {
        self.max_pipeline
    }

    pub(crate) fn read_deadline(&self) -> Duration {
        self.read_deadline
    }

    pub(crate) fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// Appends a committed mutation to the journal, if persistence is
    /// on. Called with the session lock held so journal order matches
    /// commit order per session; the journal mutex is a leaf lock.
    fn journal_commit(&self, op: &'static str, name: &str, session: &Session) {
        if let (Some(p), Some(admitted)) = (&self.persist, session.admitted) {
            // Best-effort: a full disk must not take down admission.
            let _ = p.record(name, op, session.protocol, admitted, &session.spec);
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] or send a `shutdown` request.
pub struct ServerHandle {
    local_addr: std::net::SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Requests shutdown and joins the accept loop and shards.
    pub fn shutdown(mut self) {
        begin_shutdown(&self.state);
        self.join_all();
    }

    /// Runs `request` on the calling thread through the function a pool
    /// worker calls, deadline checks included — a request without the
    /// reactor and the socket around it, for tests and measurements.
    /// `query` and `shutdown` are answered as the reactor answers them.
    pub fn execute(&self, request: Request) -> Vec<u8> {
        match request {
            Request::Query { session } => query_response(&self.state, session.as_deref())
                .encode()
                .into_bytes(),
            Request::Shutdown => {
                begin_shutdown(&self.state);
                shutdown_response().encode().into_bytes()
            }
            pooled => execute_pooled(pooled, Instant::now(), &self.state),
        }
    }

    /// Blocks until the server shuts down (via a `shutdown` request).
    pub fn join(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
    }
}

/// Flips the shutdown flag once and unblocks every thread waiting on
/// I/O: shards via their wakers, the acceptor via a throwaway connect.
pub(crate) fn begin_shutdown(state: &Arc<ServerState>) {
    if state.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Some(queues) = state.shards.get() {
        for q in queues {
            q.notify();
        }
    }
    let _ = TcpStream::connect(state.local_addr);
}

/// Binds and starts the server; returns once the listener is live and
/// any persisted sessions have been replayed.
///
/// # Errors
///
/// Any [`io::Error`] from binding the listener, spawning threads, or
/// opening the persistence directory.
pub fn spawn(config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let (persist, restored) = match &config.persist_dir {
        None => (None, Vec::new()),
        Some(dir) => {
            let (p, restored) = Persistence::open(dir, config.snapshot_every)?;
            (Some(p), restored)
        }
    };
    let shard_count = config.shards.max(1);
    let state = Arc::new(ServerState {
        sessions: SessionMap::new(),
        cache: AnalysisCache::new(config.cache_capacity),
        pool: WorkerPool::new(config.workers, config.queue_cap),
        stats: ServerStats::default(),
        shutting_down: AtomicBool::new(false),
        deadline: config.deadline,
        audit_every: config.audit_every,
        shard_count,
        max_pipeline: config.max_pipeline.max(1),
        read_deadline: config.read_deadline,
        idle_timeout: config.idle_timeout,
        persist,
        local_addr,
        shards: OnceLock::new(),
    });
    for r in restored {
        let entry = state.sessions.get_or_create(&r.name);
        let mut s = entry.lock().unwrap_or_else(PoisonError::into_inner);
        s.spec = r.spec;
        s.protocol = r.protocol;
        s.admitted = Some(r.admitted);
    }
    let mut queues = Vec::with_capacity(shard_count);
    let mut shard_handles = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let (q, wake_rx) = reactor::shard_queues()?;
        queues.push(Arc::clone(&q));
        let st = Arc::clone(&state);
        shard_handles.push(
            std::thread::Builder::new()
                .name(format!("mpcp-shard-{i}"))
                .spawn(move || reactor::shard_loop(i, wake_rx, q, st))?,
        );
    }
    state
        .shards
        .set(queues.clone())
        .unwrap_or_else(|_| unreachable!("shards set once"));
    let accept_state = Arc::clone(&state);
    let acceptor = std::thread::Builder::new()
        .name("mpcp-acceptor".to_owned())
        .spawn(move || accept_loop(&listener, &accept_state, &queues))?;
    Ok(ServerHandle {
        local_addr,
        acceptor: Some(acceptor),
        shards: shard_handles,
        state,
    })
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, queues: &[Arc<ShardQueues>]) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if state.shutting_down() {
            return;
        }
        let Ok(stream) = stream else { continue };
        queues[next % queues.len()].push_incoming(stream);
        next = next.wrapping_add(1);
    }
}

/// The `shutdown` acknowledgment (the reactor flushes it before
/// initiating shutdown, so the requester always sees it).
pub(crate) fn shutdown_response() -> Value {
    Value::obj([("ok", Value::Bool(true)), ("op", Value::str("shutdown"))])
}

/// Runs one analysis-class request on a worker thread, enforcing the
/// per-request deadline on both sides of the compute: a request that
/// waited out its deadline in the queue is not analyzed at all, and a
/// compute that finished late answers `deadline` (its session effects,
/// like the blocking design before it, still committed).
pub(crate) fn execute_pooled(
    request: Request,
    enqueued: Instant,
    state: &Arc<ServerState>,
) -> Vec<u8> {
    if enqueued.elapsed() > state.deadline {
        state.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        return error_response(ErrorCode::Deadline, "request missed its deadline")
            .encode()
            .into_bytes();
    }
    let response = run_pooled(request, state);
    if enqueued.elapsed() > state.deadline {
        state.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        return error_response(ErrorCode::Deadline, "request missed its deadline")
            .encode()
            .into_bytes();
    }
    response.into_bytes()
}

fn run_pooled(request: Request, state: &Arc<ServerState>) -> String {
    match request {
        Request::Ping { delay_ms } => {
            if delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            r#"{"ok":true,"op":"ping"}"#.to_owned()
        }
        Request::Submit {
            session,
            system,
            allocate,
            protocol,
        } => {
            let key = AnalysisCache::key(&system, allocate, protocol);
            let how = (allocate, protocol);
            let (entry, cache_hit) = state.cache.get_or_compute(key, &system, how);
            if entry.admitted {
                let slot = state.sessions.get_or_create(&session);
                let mut s = slot.lock().unwrap_or_else(PoisonError::into_inner);
                s.protocol = protocol;
                commit_full(state, "submit", &session, &mut s, &entry, system);
            }
            admission_line(
                "submit",
                &session,
                if cache_hit { "hit" } else { "miss" },
                &entry.suffix,
            )
        }
        Request::AddTask { session, task } => {
            let (op, name, add) = ("add-task", task.name.as_str(), Some(&task));
            run_edit(state, &session, &SessionEdit { op, name, add })
        }
        Request::RemoveTask { session, task } => {
            let (op, name, add) = ("remove-task", task.as_str(), None);
            run_edit(state, &session, &SessionEdit { op, name, add })
        }
        Request::Query { .. } | Request::Shutdown => unreachable!("handled by the reactor"),
    }
}

/// A full-path commit: the session takes the analyzed system whole —
/// `submitted`, the spec `entry` was looked up with, where analysis left
/// it as it was — and whatever tracked the previous one incrementally is
/// dropped.
fn commit_full(
    state: &ServerState,
    op: &'static str,
    name: &str,
    s: &mut Session,
    entry: &CachedAnalysis,
    submitted: SystemSpec,
) {
    s.spec = entry.analyzed(submitted);
    s.admitted = Some(entry.admitted);
    s.engine = None;
    s.rows.clear();
    state.journal_commit(op, name, s);
}

/// One `add-task` (`add` is the task) or `remove-task`, by reference
/// into its request.
struct SessionEdit<'a> {
    op: &'static str,
    name: &'a str,
    add: Option<&'a TaskSpec>,
}

/// The candidate spec of `edit`, as a copy: the full path's cache key
/// and the audit's input. `None` when there is no such task to remove.
fn candidate(s: &Session, edit: &SessionEdit<'_>) -> Option<SystemSpec> {
    match edit.add {
        Some(task) => Some(s.with_task(task.clone())),
        None => s.without_task(edit.name),
    }
}

fn run_edit(state: &Arc<ServerState>, session: &str, edit: &SessionEdit<'_>) -> String {
    let Some(entry) = state.sessions.get(session) else {
        return unknown_session(session).encode();
    };
    // Hold the session lock across analyze-then-commit so the check and
    // the commit are one atomic step per session.
    let mut guard = entry.lock().unwrap_or_else(PoisonError::into_inner);
    let s = &mut *guard;
    // The session's engine runs the analysis it was admitted under.
    if s.engine.is_none() {
        s.engine = engine_with(&s.spec, s.protocol);
    }
    if let Some(reply) = edit_incrementally(state, session, s, edit) {
        return reply;
    }
    let Some(candidate) = candidate(s, edit) else {
        return error_response(
            ErrorCode::UnknownTask,
            &format!("no task {:?} in session {session:?}", edit.name),
        )
        .encode();
    };
    let key = AnalysisCache::key(&candidate, None, s.protocol);
    let how = (None, s.protocol);
    let (entry, cache_hit) = state.cache.get_or_compute(key, &candidate, how);
    // Withdrawal always commits; the verdict reports the state the
    // session is now in.
    if entry.admitted || edit.add.is_none() {
        commit_full(state, edit.op, session, s, &entry, candidate);
    }
    let tag = if cache_hit { "hit" } else { "miss" };
    admission_line(edit.op, session, tag, &entry.suffix)
}

/// Serves `edit` from the session's engine, or returns `None` — the
/// session untouched — when the full path must: there is no engine, the
/// candidate is empty, repeats a name or removes an unknown one, or it
/// does not build (the full path says why). Nothing of the session is
/// written before the verdict is in: the pool survives a panicking job,
/// so a tentative write would outlive one.
fn edit_incrementally(
    state: &ServerState,
    name: &str,
    s: &mut Session,
    edit: &SessionEdit<'_>,
) -> Option<String> {
    let engine = s.engine.as_ref()?;
    let tasks = &s.spec.tasks;
    // An engine exists only for sessions without a repeated name, and
    // its system lists the spec's tasks in the spec's order: the
    // candidate repeats a name iff the new one is already there.
    let at = engine.system().task_index_by_name(edit.name);
    let empties = edit.add.is_none() && tasks.len() == 1;
    if at.is_some() == edit.add.is_some() || empties {
        return None;
    }
    let kept = (tasks.iter().enumerate())
        .filter(|(i, _)| Some(*i) != at)
        .map(|(_, t)| t);
    let system = wire::build_system(
        &s.spec.processors,
        &s.spec.resources,
        kept.chain(edit.add),
        Some(engine.system()),
    )
    .ok()?;
    let mut next = engine.clone();
    next.apply(
        system,
        &match edit.add {
            Some(_) => Edit::AddTask(edit.name.to_owned()),
            None => Edit::RemoveTask(edit.name.to_owned()),
        },
    );
    let (head, bounds) = engine_verdict(&next);
    // The session's spec is always what `SystemSpec::from_system` makes
    // of its system — the journal, `query` and the next `submit`'s cache
    // key see it. That function drops a `deadline == period` task by
    // task but spells priorities out for all tasks or none, so "the spec
    // plus or minus the one task" is its value exactly while no task
    // carries a priority; any other session takes it whole.
    let patched =
        tasks.iter().all(TaskSpec::round_trips) && edit.add.is_none_or(|t| t.priority.is_none());
    let whole = (!patched).then(|| SystemSpec::from_system(next.system()));
    let reply = s
        .rows
        .assemble((edit.op, name), &head, bounds.as_ref(), next.system());

    // Every `audit_every`-th incremental answer is checked, before
    // anything is committed, against the full analysis of a candidate
    // built the long way: the reply's bytes, and the spec about to be
    // committed.
    let served = state.stats.delta.fetch_add(1, Ordering::Relaxed);
    if state.audit_every != 0 && served.is_multiple_of(state.audit_every) {
        state.stats.audits.fetch_add(1, Ordering::Relaxed);
        let candidate = candidate(s, edit)?;
        let full = admit(&candidate, None, s.protocol);
        let mut committed = s.spec.clone();
        commit_edit(&mut committed, whole.clone(), edit, at);
        if reply != admission_line(edit.op, name, "delta", &admission_suffix(&full))
            || committed != full.analyzed.unwrap_or(candidate)
        {
            state.stats.audit_failures.fetch_add(1, Ordering::Relaxed);
            s.rows.clear();
            let what = "incremental analysis diverged from a full recompute; nothing committed";
            return Some(error_response(ErrorCode::AuditDivergence, what).encode());
        }
    }

    let joins = edit.add.is_some() && head.admitted;
    // Withdrawal always commits; the verdict reports the state the
    // session is now in.
    if joins || edit.add.is_none() {
        commit_edit(&mut s.spec, whole, edit, at);
        s.admitted = Some(head.admitted);
        s.engine = Some(next);
        state.journal_commit(edit.op, name, s);
    }
    if !joins {
        s.rows.forget(edit.name);
    }
    Some(reply)
}

/// Commits an incremental `edit` to `spec`: `whole` if given, else the
/// task pushed (its `deadline == period` dropped, as `from_system`
/// would) or the one at `at` removed.
fn commit_edit(
    spec: &mut SystemSpec,
    whole: Option<SystemSpec>,
    edit: &SessionEdit<'_>,
    at: Option<usize>,
) {
    match (whole, edit.add) {
        (Some(whole), _) => *spec = whole,
        (None, Some(task)) => spec.tasks.push(TaskSpec {
            deadline: task.deadline.filter(|d| *d != task.period),
            ..task.clone()
        }),
        (None, None) => drop(spec.tasks.remove(at.expect("a removal found its task"))),
    }
}

fn unknown_session(session: &str) -> Value {
    error_response(
        ErrorCode::UnknownSession,
        &format!("no session {session:?}; submit a system first"),
    )
}

pub(crate) fn query_response(state: &Arc<ServerState>, session: Option<&str>) -> Value {
    let cache = state.cache.stats();
    let mut pairs: Vec<(String, Value)> = vec![
        ("ok".into(), Value::Bool(true)),
        ("op".into(), Value::str("query")),
        ("sessions".into(), Value::from(state.sessions.len())),
        (
            "cache".into(),
            Value::obj([
                ("hits", Value::from(cache.hits)),
                ("misses", Value::from(cache.misses)),
                ("entries", Value::from(cache.entries)),
            ]),
        ),
        (
            "server".into(),
            Value::obj([
                (
                    "requests",
                    Value::from(state.stats.requests.load(Ordering::Relaxed)),
                ),
                (
                    "overloaded",
                    Value::from(state.stats.overloaded.load(Ordering::Relaxed)),
                ),
                (
                    "deadline_misses",
                    Value::from(state.stats.deadline_misses.load(Ordering::Relaxed)),
                ),
                (
                    "delta",
                    Value::from(state.stats.delta.load(Ordering::Relaxed)),
                ),
                (
                    "audits",
                    Value::from(state.stats.audits.load(Ordering::Relaxed)),
                ),
                (
                    "audit_failures",
                    Value::from(state.stats.audit_failures.load(Ordering::Relaxed)),
                ),
                ("workers", Value::from(state.pool.workers())),
                ("queue_cap", Value::from(state.pool.queue_cap())),
                ("shards", Value::from(state.shard_count)),
                ("max_pipeline", Value::from(state.max_pipeline)),
            ]),
        ),
    ];
    if let Some(p) = &state.persist {
        let j = p.stats();
        pairs.push((
            "persist".into(),
            Value::obj([
                ("records_full", Value::from(j.records_full)),
                ("records_delta", Value::from(j.records_delta)),
                ("bytes", Value::from(j.bytes)),
            ]),
        ));
    }
    if let Some(name) = session {
        match state.sessions.get(name) {
            None => return unknown_session(name),
            Some(entry) => {
                let s = entry.lock().unwrap_or_else(PoisonError::into_inner);
                // What the session's incremental engine has recomputed
                // and reused so far; `null` until an edit builds one.
                // Ahead of "session" so that object stays the reply's
                // tail (scripts compare it across restarts).
                pairs.push((
                    "engine".into(),
                    s.engine.as_ref().map_or(Value::Null, |e| {
                        let e = e.stats();
                        Value::obj([
                            ("updates", Value::from(e.updates)),
                            ("tasks_recomputed", Value::from(e.tasks_recomputed)),
                            ("tasks_reused", Value::from(e.tasks_reused)),
                            (
                                "processors_recomputed",
                                Value::from(e.processors_recomputed),
                            ),
                            ("processors_reused", Value::from(e.processors_reused)),
                            ("tasks_shared", Value::from(e.tasks_shared)),
                            ("tasks_rebuilt", Value::from(e.tasks_rebuilt)),
                            ("rows_rendered", Value::from(s.rows.rendered)),
                            ("rows_reused", Value::from(s.rows.reused)),
                        ])
                    }),
                ));
                pairs.push((
                    "session".into(),
                    Value::obj([
                        ("name", Value::str(name)),
                        ("tasks", Value::from(s.spec.tasks.len())),
                        ("processors", Value::from(s.spec.processors.len())),
                        (
                            "verdict",
                            match s.admitted {
                                Some(true) => Value::str("admit"),
                                Some(false) => Value::str("reject"),
                                None => Value::Null,
                            },
                        ),
                        ("system", SystemSpec::to_json(&s.spec)),
                    ]),
                ));
            }
        }
    }
    Value::Obj(pairs)
}

/// A small blocking client for tests, the load generator and scripted
/// probes: one connection, one request per call.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from connecting.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw line and reads one response line.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` if the connection closed mid-reply.
    pub fn request_raw(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Reads one response line without sending anything (for pipelined
    /// probes that wrote several requests up front).
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` if the connection closed mid-reply.
    pub fn read_response(&mut self) -> io::Result<String> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_owned())
    }

    /// Writes one raw line without waiting for the response (pipelining).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the write.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Sends a JSON request and parses the JSON response.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` when the response is not JSON.
    pub fn request(&mut self, v: &Value) -> io::Result<Value> {
        let text = self.request_raw(&v.encode())?;
        json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server(workers: usize, queue: usize, deadline_ms: u64) -> ServerHandle {
        spawn(&ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue_cap: queue,
            deadline: Duration::from_millis(deadline_ms),
            cache_capacity: 128,
            audit_every: 1,
            ..ServerConfig::default()
        })
        .expect("bind test server")
    }

    #[test]
    fn ping_and_malformed_line() {
        let server = test_server(2, 8, 2000);
        let mut c = Client::connect(server.local_addr()).unwrap();
        let pong = c
            .request(&Value::obj([("op", Value::str("ping"))]))
            .unwrap();
        assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
        let err = c.request_raw("this is not json").unwrap();
        let err = json::parse(&err).unwrap();
        assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(err.get("code").and_then(Value::as_str), Some("parse"));
        server.shutdown();
    }

    #[test]
    fn query_reports_pool_shape() {
        let server = test_server(3, 7, 2000);
        let mut c = Client::connect(server.local_addr()).unwrap();
        let q = c
            .request(&Value::obj([("op", Value::str("query"))]))
            .unwrap();
        let srv = q.get("server").unwrap();
        assert_eq!(srv.get("workers").and_then(Value::as_u64), Some(3));
        assert_eq!(srv.get("queue_cap").and_then(Value::as_u64), Some(7));
        server.shutdown();
    }

    #[test]
    fn deadline_miss_is_reported() {
        let server = test_server(1, 4, 50);
        let mut c = Client::connect(server.local_addr()).unwrap();
        let v = c
            .request(&Value::obj([
                ("op", Value::str("ping")),
                ("delay_ms", Value::from(500u64)),
            ]))
            .unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("deadline"));
        server.shutdown();
    }

    #[test]
    fn pipelined_responses_come_back_in_order() {
        // A reply's `op` when it succeeded, its error `code` otherwise.
        fn kind(c: &mut Client) -> String {
            let v = json::parse(&c.read_response().unwrap()).unwrap();
            let ok = v.get("ok").and_then(Value::as_bool) == Some(true);
            let key = if ok { "op" } else { "code" };
            v.get(key).and_then(Value::as_str).unwrap().to_owned()
        }
        const PING: &str = r#"{"op":"ping"}"#;
        const QUERY: &str = r#"{"op":"query"}"#;
        let server = test_server(4, 32, 5000);
        let mut c = Client::connect(server.local_addr()).unwrap();
        // Interleave pings and malformed lines; every response must
        // land in its request's position.
        for i in 0..20 {
            c.send_raw(if i % 3 == 0 { "not json at all" } else { PING })
                .unwrap();
        }
        for i in 0..20 {
            let expected = if i % 3 == 0 { "parse" } else { "ping" };
            assert_eq!(kind(&mut c), expected, "{i}");
        }
        // A `query` between two delayed pings is answered between them.
        let delayed = r#"{"op":"ping","delay_ms":200}"#;
        for line in [delayed, QUERY, delayed] {
            c.send_raw(line).unwrap();
        }
        for expected in ["ping", "query", "ping"] {
            assert_eq!(kind(&mut c), expected);
        }
        server.shutdown();

        // With the one worker busy and the one queue slot taken, each
        // run is shed `overloaded` in its place, around a malformed
        // line and a `query`.
        let server = test_server(1, 1, 5000);
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let pool = server.state.pool();
        pool.try_execute(move || {
            started_tx.send(()).unwrap();
            let _ = gate.recv();
        })
        .unwrap();
        started.recv().unwrap();
        let (drained_tx, drained) = std::sync::mpsc::channel();
        pool.try_execute(move || drained_tx.send(()).unwrap())
            .unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for line in [PING, "not json", PING, PING, QUERY, PING] {
            c.send_raw(line).unwrap();
        }
        let expected = [
            "overloaded",
            "parse",
            "overloaded",
            "overloaded",
            "query",
            "overloaded",
        ];
        for (i, expected) in expected.into_iter().enumerate() {
            assert_eq!(kind(&mut c), expected, "{i}");
        }
        drop(release);
        drained.recv().unwrap();
        c.send_raw(PING).unwrap();
        assert_eq!(kind(&mut c), "ping");
        server.shutdown();
    }
}
