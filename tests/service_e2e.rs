//! End-to-end tests of the admission-control service over real TCP:
//! admit/reject verdicts with blocking-bound breakdowns, transactional
//! add-task/remove-task, explicit overload shedding, cache visibility,
//! and structured errors for malformed input.

use mpcp::service::json::{self, Value};
use mpcp::service::{spawn, Client, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn server(workers: usize, queue: usize, deadline_ms: u64) -> ServerHandle {
    spawn(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_cap: queue,
        deadline: Duration::from_millis(deadline_ms),
        cache_capacity: 256,
        audit_every: 1,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

/// A server with arbitrary config overrides on top of the test default.
fn server_with(tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_cap: 16,
        deadline: Duration::from_millis(5000),
        cache_capacity: 256,
        audit_every: 1,
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    spawn(&cfg).expect("bind test server")
}

/// A unique per-test scratch directory under the system temp dir.
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpcp-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two tasks on two processors sharing one global semaphore;
/// comfortably schedulable under Theorem 3.
fn light_system() -> &'static str {
    concat!(
        r#"{"processors":["P0","P1"],"resources":["SG"],"tasks":["#,
        r#"{"name":"a","processor":0,"period":100,"body":[{"compute":10},{"critical":0,"body":[{"compute":2}]}]},"#,
        r#"{"name":"b","processor":1,"period":200,"body":[{"compute":20},{"critical":0,"body":[{"compute":5}]}]}"#,
        r#"]}"#
    )
}

/// A task whose WCET equals its period — fails Theorem 3 on sight.
fn saturating_task() -> &'static str {
    r#"{"name":"hog","processor":0,"period":50,"body":[{"compute":50}]}"#
}

fn submit_line(session: &str, system: &str) -> String {
    format!(r#"{{"op":"submit","session":"{session}","system":{system}}}"#)
}

#[test]
fn schedulable_system_is_admitted_with_breakdown() {
    let srv = server(2, 16, 5000);
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let v = json::parse(&c.request_raw(&submit_line("s1", light_system())).unwrap()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));
    assert_eq!(v.get("schedulable").and_then(Value::as_bool), Some(true));
    let tasks = v.get("tasks").and_then(Value::as_arr).unwrap();
    assert_eq!(tasks.len(), 2);
    for t in tasks {
        assert_eq!(t.get("ok").and_then(Value::as_bool), Some(true));
        let demand = t.get("demand").and_then(Value::as_f64).unwrap();
        let bound = t.get("bound").and_then(Value::as_f64).unwrap();
        assert!(demand > 0.0 && demand <= bound, "{t:?}");
    }
    // Task "a" shares SG with a remote task, so its §5.1 blocking bound
    // must be nonzero in the per-task breakdown.
    let a = &tasks[0];
    assert_eq!(a.get("name").and_then(Value::as_str), Some("a"));
    assert!(a.get("blocking").and_then(Value::as_u64).unwrap() > 0);

    // The admitted system is committed: query sees the session.
    let q = c
        .request(&Value::obj([
            ("op", Value::str("query")),
            ("session", Value::str("s1")),
        ]))
        .unwrap();
    let s = q.get("session").unwrap();
    assert_eq!(s.get("tasks").and_then(Value::as_u64), Some(2));
    assert_eq!(s.get("verdict").and_then(Value::as_str), Some("admit"));
    srv.shutdown();
}

/// The wire selector is the analysis table's own `FromStr`: `"dpcp"`
/// (which the hand-written wire enum never listed) is accepted and
/// answers with exactly the rows of the offline `Analysis::Dpcp`, and an
/// unknown name is refused with the names of `Analysis::ALL`.
#[test]
fn wire_protocol_selector_is_the_analysis_table() {
    use mpcp::analysis::{Analysis, BlockingConfig};
    use mpcp::service::SystemSpec;

    let srv = server(2, 16, 5000);
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let line = |protocol: &str| {
        format!(
            r#"{{"op":"submit","session":"d","protocol":"{protocol}","system":{}}}"#,
            light_system()
        )
    };
    let v = json::parse(&c.request_raw(&line("dpcp")).unwrap()).unwrap();
    assert_eq!(
        v.get("verdict").and_then(Value::as_str),
        Some("admit"),
        "{v:?}"
    );

    let system = SystemSpec::from_json(&json::parse(light_system()).unwrap())
        .unwrap()
        .to_system()
        .unwrap();
    let offline = Analysis::Dpcp
        .bounds(&system, BlockingConfig::paper())
        .unwrap();
    let mpcp = Analysis::Mpcp
        .bounds(&system, BlockingConfig::paper())
        .unwrap();
    assert_ne!(
        offline.blocking(),
        mpcp.blocking(),
        "the pair must tell the analyses apart"
    );
    let tasks = v.get("tasks").and_then(Value::as_arr).unwrap();
    assert_eq!(tasks.len(), offline.per_task().len());
    for (t, row) in tasks.iter().zip(offline.per_task()) {
        assert_eq!(
            t.get("name").and_then(Value::as_str),
            Some(system.task(row.task).name())
        );
        assert_eq!(
            t.get("blocking").and_then(Value::as_u64),
            Some(row.blocking.ticks())
        );
        assert_eq!(t.get("demand").and_then(Value::as_f64), Some(row.demand));
        assert_eq!(t.get("bound").and_then(Value::as_f64), Some(row.bound));
        assert_eq!(t.get("ok").and_then(Value::as_bool), Some(row.ok));
    }

    let v = json::parse(&c.request_raw(&line("pcp")).unwrap()).unwrap();
    assert_eq!(v.get("code").and_then(Value::as_str), Some("bad-request"));
    let error = v.get("error").and_then(Value::as_str).unwrap();
    let names: Vec<&str> = Analysis::ALL.iter().map(|a| a.name()).collect();
    assert!(error.contains(&names.join("|")), "{error}");
    srv.shutdown();
}

#[test]
fn unschedulable_system_is_rejected_and_not_committed() {
    let srv = server(2, 16, 5000);
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let overloaded = format!(
        r#"{{"processors":["P0"],"resources":[],"tasks":[{},{}]}}"#,
        r#"{"name":"x","processor":0,"period":50,"body":[{"compute":40}]}"#,
        r#"{"name":"y","processor":0,"period":100,"body":[{"compute":60}]}"#
    );
    let v = json::parse(&c.request_raw(&submit_line("bad", &overloaded)).unwrap()).unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("reject"));
    assert_eq!(v.get("schedulable").and_then(Value::as_bool), Some(false));
    let reasons = v.get("reasons").and_then(Value::as_arr).unwrap();
    assert!(
        reasons
            .iter()
            .any(|r| r.as_str().is_some_and(|s| s.contains("theorem3"))),
        "{reasons:?}"
    );
    // Rejected submissions must not create the session.
    let q = c
        .request(&Value::obj([
            ("op", Value::str("query")),
            ("session", Value::str("bad")),
        ]))
        .unwrap();
    assert_eq!(
        q.get("code").and_then(Value::as_str),
        Some("unknown-session")
    );
    srv.shutdown();
}

#[test]
fn add_task_past_theorem3_rejects_and_leaves_session_unchanged() {
    let srv = server(2, 16, 5000);
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let v = json::parse(&c.request_raw(&submit_line("grow", light_system())).unwrap()).unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));

    // Growing past Theorem 3 must be rejected...
    let line = format!(
        r#"{{"op":"add-task","session":"grow","task":{}}}"#,
        saturating_task()
    );
    let v = json::parse(&c.request_raw(&line).unwrap()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("reject"));

    // ...and the session must still hold the previously admitted pair.
    let q = c
        .request(&Value::obj([
            ("op", Value::str("query")),
            ("session", Value::str("grow")),
        ]))
        .unwrap();
    let s = q.get("session").unwrap();
    assert_eq!(s.get("tasks").and_then(Value::as_u64), Some(2));
    assert_eq!(s.get("verdict").and_then(Value::as_str), Some("admit"));

    // A modest compatible task is admitted and committed.
    let line = r#"{"op":"add-task","session":"grow","task":{"name":"c","processor":1,"period":400,"body":[{"compute":4}]}}"#;
    let v = json::parse(&c.request_raw(line).unwrap()).unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));
    let q = c
        .request(&Value::obj([
            ("op", Value::str("query")),
            ("session", Value::str("grow")),
        ]))
        .unwrap();
    assert_eq!(
        q.get("session")
            .unwrap()
            .get("tasks")
            .and_then(Value::as_u64),
        Some(3)
    );

    // remove-task always commits and reports the fresh verdict.
    let v = c
        .request(&Value::obj([
            ("op", Value::str("remove-task")),
            ("session", Value::str("grow")),
            ("task", Value::str("c")),
        ]))
        .unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));
    let q = c
        .request(&Value::obj([
            ("op", Value::str("query")),
            ("session", Value::str("grow")),
        ]))
        .unwrap();
    assert_eq!(
        q.get("session")
            .unwrap()
            .get("tasks")
            .and_then(Value::as_u64),
        Some(2)
    );
    srv.shutdown();
}

#[test]
fn saturated_queue_sheds_with_explicit_overload_response() {
    // One worker, one queue slot: two slow pings occupy both; the third
    // request must be answered `overloaded` immediately — well within
    // the per-request deadline — not stalled behind the backlog.
    let srv = server(1, 1, 10_000);
    let addr = srv.local_addr();
    let slow = |label: &'static str| {
        let mut c = Client::connect(addr).unwrap();
        std::thread::spawn(move || {
            let v = c
                .request(&Value::obj([
                    ("op", Value::str("ping")),
                    ("delay_ms", Value::from(1500u64)),
                ]))
                .unwrap();
            (label, v)
        })
    };
    let h1 = slow("first");
    std::thread::sleep(Duration::from_millis(300)); // worker busy
    let h2 = slow("second");
    std::thread::sleep(Duration::from_millis(300)); // queue full

    let mut c = Client::connect(addr).unwrap();
    let t0 = Instant::now();
    let v = c
        .request(&Value::obj([("op", Value::str("ping"))]))
        .unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v:?}");
    assert_eq!(v.get("code").and_then(Value::as_str), Some("overloaded"));
    assert!(
        elapsed < Duration::from_millis(1000),
        "shedding took {elapsed:?}; it must not wait for the backlog"
    );

    // Introspection stays live while the pool is saturated.
    let q = c
        .request(&Value::obj([("op", Value::str("query"))]))
        .unwrap();
    let srv_stats = q.get("server").unwrap();
    assert!(srv_stats.get("overloaded").and_then(Value::as_u64).unwrap() >= 1);

    for h in [h1, h2] {
        let (label, v) = h.join().unwrap();
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "{label} ping failed: {v:?}"
        );
    }
    srv.shutdown();
}

#[test]
fn repeat_submissions_hit_the_analysis_cache() {
    let srv = server(2, 16, 5000);
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let v = json::parse(&c.request_raw(&submit_line("c1", light_system())).unwrap()).unwrap();
    assert_eq!(v.get("cache").and_then(Value::as_str), Some("miss"));
    // Same system, different session, different whitespace: same
    // canonical submission, so the analysis is served from memory.
    let reformatted = light_system().replace(',', " , ");
    let v = json::parse(&c.request_raw(&submit_line("c2", &reformatted)).unwrap()).unwrap();
    assert_eq!(v.get("cache").and_then(Value::as_str), Some("hit"));

    let q = c
        .request(&Value::obj([("op", Value::str("query"))]))
        .unwrap();
    let cache = q.get("cache").unwrap();
    assert!(cache.get("hits").and_then(Value::as_u64).unwrap() >= 1);
    assert!(cache.get("misses").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(q.get("sessions").and_then(Value::as_u64), Some(2));
    srv.shutdown();
}

#[test]
fn malformed_lines_get_structured_errors_not_hangs() {
    let srv = server(2, 16, 5000);
    let mut c = Client::connect(srv.local_addr()).unwrap();
    for (line, code, needle) in [
        ("{not json at all", "parse", ""),
        (r#"{"op":"warp"}"#, "bad-request", "unknown op"),
        (r#"{"op":"submit","session":"s"}"#, "bad-request", "system"),
        (
            r#"{"op":"submit","session":"s","system":{"tasks":[{"name":"t"}]}}"#,
            "bad-request",
            "processor",
        ),
        (
            r#"{"op":"add-task","session":"nope","task":{"name":"t","processor":0,"period":10}}"#,
            "unknown-session",
            "nope",
        ),
    ] {
        let v = json::parse(&c.request_raw(line).unwrap()).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{line}");
        assert_eq!(v.get("code").and_then(Value::as_str), Some(code), "{line}");
        let msg = v.get("error").and_then(Value::as_str).unwrap();
        assert!(msg.contains(needle), "{line}: {msg}");
    }
    // The connection survives all of the above.
    let pong = c
        .request(&Value::obj([("op", Value::str("ping"))]))
        .unwrap();
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
    srv.shutdown();
}

#[test]
fn byte_dribbled_request_parses_identically() {
    // Reference response from a whole-line write on a fresh server.
    let srv = server(2, 16, 5000);
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let line = submit_line("drib", light_system());
    let reference = c.request_raw(&line).unwrap();
    srv.shutdown();

    // Same line on another fresh server (same cold cache), delivered
    // one byte per TCP segment: framing must reassemble it identically.
    let srv = server(2, 16, 5000);
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    for b in line.as_bytes() {
        s.write_all(std::slice::from_ref(b)).unwrap();
    }
    s.write_all(b"\n").unwrap();
    let mut r = BufReader::new(s);
    let mut resp = String::new();
    r.read_line(&mut resp).unwrap();
    assert_eq!(
        resp.trim_end(),
        reference,
        "byte-dribbled request must produce the exact whole-line response"
    );
    srv.shutdown();
}

#[test]
fn oversized_line_gets_protocol_error_then_close() {
    let srv = server(2, 16, 5000);
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    // Stream more than MAX_LINE_BYTES without ever sending a newline;
    // the server must answer a parse error, not hang up silently.
    let chunk = vec![b'x'; 64 * 1024];
    let mut written = 0usize;
    while written <= mpcp::service::server::MAX_LINE_BYTES {
        s.write_all(&chunk).unwrap();
        written += chunk.len();
    }
    let mut r = BufReader::new(s);
    let mut resp = String::new();
    r.read_line(&mut resp).unwrap();
    let v = json::parse(resp.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v:?}");
    assert_eq!(v.get("code").and_then(Value::as_str), Some("parse"));
    let msg = v.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("too long"), "{msg}");
    // After the error the connection is closed, not resynchronized.
    let mut rest = String::new();
    assert_eq!(r.read_line(&mut rest).unwrap(), 0, "expected EOF");
    srv.shutdown();
}

#[test]
fn slow_loris_partial_line_is_dropped_after_read_deadline() {
    let srv = server_with(|c| c.read_deadline = Duration::from_millis(300));
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    s.write_all(b"{\"op\":").unwrap(); // a line that never finishes
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let t0 = Instant::now();
    let mut buf = [0u8; 16];
    let n = s.read(&mut buf).expect("read should see EOF, not time out");
    assert_eq!(n, 0, "loris connection must be dropped");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drop took {:?}",
        t0.elapsed()
    );
    // The guard hits only stalled partial lines: a new well-behaved
    // connection on the same server still gets served.
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let pong = c
        .request(&Value::obj([("op", Value::str("ping"))]))
        .unwrap();
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
    srv.shutdown();
}

#[test]
fn bounded_pipeline_backpressure_loses_nothing() {
    // Pipeline depth 4, 100 requests blasted in one write burst: the
    // reactor must stop reading at depth 4 (TCP backpressure) and still
    // answer every request, in order.
    let srv = server_with(|c| c.max_pipeline = 4);
    let mut c = Client::connect(srv.local_addr()).unwrap();
    for i in 0..100 {
        if i % 7 == 0 {
            c.send_raw("garbage line").unwrap();
        } else {
            c.send_raw(r#"{"op":"ping"}"#).unwrap();
        }
    }
    for i in 0..100 {
        let v = json::parse(&c.read_response().unwrap()).unwrap();
        if i % 7 == 0 {
            assert_eq!(v.get("code").and_then(Value::as_str), Some("parse"), "{i}");
        } else {
            assert_eq!(v.get("op").and_then(Value::as_str), Some("ping"), "{i}");
        }
    }
    srv.shutdown();
}

#[test]
fn snapshot_replay_restores_sessions_byte_identically() {
    let dir = tempdir("replay");
    let boot = || {
        let d = dir.clone();
        server_with(move |c| c.persist_dir = Some(d))
    };

    let srv = boot();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let v = json::parse(&c.request_raw(&submit_line("keep", light_system())).unwrap()).unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));
    let line = r#"{"op":"add-task","session":"keep","task":{"name":"c","processor":1,"period":400,"body":[{"compute":4}]}}"#;
    let v = json::parse(&c.request_raw(line).unwrap()).unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));
    let query = Value::obj([("op", Value::str("query")), ("session", Value::str("keep"))]);
    let before = c.request(&query).unwrap().get("session").unwrap().encode();
    srv.shutdown();

    // Restart over the same directory: the committed session must come
    // back and its query view must render byte-identically.
    let srv = boot();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let after = c.request(&query).unwrap().get("session").unwrap().encode();
    assert_eq!(after, before, "replayed session diverged");
    // And the restored session keeps accepting edits.
    let v = c
        .request(&Value::obj([
            ("op", Value::str("remove-task")),
            ("session", Value::str("keep")),
            ("task", Value::str("c")),
        ]))
        .unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_tail_is_truncated_not_fatal() {
    let dir = tempdir("corrupt");
    let boot = || {
        let d = dir.clone();
        server_with(move |c| c.persist_dir = Some(d))
    };

    let srv = boot();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let v = json::parse(
        &c.request_raw(&submit_line("sturdy", light_system()))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));
    srv.shutdown();

    // Simulate a torn write: garbage with no newline at the journal's
    // tail, as a crash mid-append would leave.
    let journal = dir.join("journal.ndjson");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    f.write_all(b"{\"session\":\"sturdy\",\"op\":\"subm")
        .unwrap();
    drop(f);

    let srv = boot();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    // The valid prefix survives...
    let q = c
        .request(&Value::obj([
            ("op", Value::str("query")),
            ("session", Value::str("sturdy")),
        ]))
        .unwrap();
    let s = q.get("session").expect("session must be restored");
    assert_eq!(s.get("verdict").and_then(Value::as_str), Some("admit"));
    // ...and the truncated journal accepts new commits.
    let v = json::parse(
        &c.request_raw(&submit_line("fresh", light_system()))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `query` shows what an edit cost: a compute-only `add-task` recomputes
/// one task's blocking factors and one processor's rows in the session's
/// incremental engine, and reaches the journal as a one-task record.
#[test]
fn query_reports_engine_and_journal_work_per_edit() {
    let dir = tempdir("observe");
    let d = dir.clone();
    let srv = server_with(move |c| c.persist_dir = Some(d));
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let v = json::parse(&c.request_raw(&submit_line("seen", light_system())).unwrap()).unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));
    let query = Value::obj([("op", Value::str("query")), ("session", Value::str("seen"))]);
    let counter = |q: &Value, group: &str, key: &str| {
        q.get(group)
            .and_then(|g| g.get(key))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no {group}.{key} in {q:?}"))
    };

    let q = c.request(&query).unwrap();
    assert_eq!(
        q.get("engine"),
        Some(&Value::Null),
        "no edit, no engine yet"
    );
    assert_eq!(counter(&q, "persist", "records_full"), 1);
    assert_eq!(counter(&q, "persist", "records_delta"), 0);

    let add = |name: &str| {
        format!(
            r#"{{"op":"add-task","session":"seen","task":{{"name":"{name}","processor":1,"period":400,"body":[{{"compute":4}}]}}}}"#
        )
    };
    let v = json::parse(&c.request_raw(&add("c")).unwrap()).unwrap();
    assert_eq!(v.get("cache").and_then(Value::as_str), Some("delta"));
    let first = c.request(&query).unwrap();
    let v = json::parse(&c.request_raw(&add("d")).unwrap()).unwrap();
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("admit"));
    let second = c.request(&query).unwrap();

    let moved = |group: &str, key: &str| counter(&second, group, key) - counter(&first, group, key);
    assert_eq!(moved("engine", "updates"), 1);
    assert_eq!(moved("engine", "tasks_recomputed"), 1);
    assert_eq!(moved("engine", "tasks_reused"), 3);
    assert_eq!(moved("engine", "processors_recomputed"), 1);
    assert_eq!(moved("engine", "processors_reused"), 1);
    // The edited version shares the three tasks it did not touch with
    // the one before it, and its reply re-renders at most the rows of
    // the edited processor (b, c and d sit on P1).
    assert_eq!(moved("engine", "tasks_rebuilt"), 1);
    assert_eq!(moved("engine", "tasks_shared"), 3);
    assert!(moved("engine", "rows_rendered") <= 3, "{second:?}");
    assert_eq!(
        moved("engine", "rows_rendered") + moved("engine", "rows_reused"),
        4
    );
    assert_eq!(moved("persist", "records_delta"), 1);
    assert_eq!(moved("persist", "records_full"), 0);
    assert!(moved("persist", "bytes") < 200, "{second:?}");
    // The counters sit ahead of the session view, which stays the tail.
    let text = second.encode();
    assert!(text.find(r#""engine":"#).unwrap() < text.find(r#""session":{"#).unwrap());
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
