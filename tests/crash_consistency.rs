//! Crash consistency of the session journal (ROADMAP 4b).
//!
//! Journal lines are no longer all self-contained: a one-task edit is
//! written as that task, to be applied onto the state the earlier lines
//! replay to. So recovery is checked the adversarial way. A real server
//! records a run mixing `submit`, admitted and rejected `add-task` and
//! `remove-task` over two sessions; then, for **every byte length** of
//! the journal it left, [`Persistence::open`] must return exactly the
//! session set after some prefix of the committed records (never a state
//! that was not committed, never one older than the snapshot beside it)
//! and leave a journal that accepts and keeps a new commit.

use mpcp::service::json::{self, Value};
use mpcp::service::proto::AdmissionProtocol;
use mpcp::service::{
    spawn, Client, Persistence, RestoredSession, SegSpec, ServerConfig, SystemSpec, TaskSpec,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const JOURNAL: &str = "journal.ndjson";
const SNAPSHOT: &str = "snapshot.ndjson";

/// Session name -> (verdict, analysis, canonical system JSON).
type State = BTreeMap<String, (bool, &'static str, String)>;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpcp-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn state_of(restored: Vec<RestoredSession>) -> State {
    restored
        .into_iter()
        .map(|r| {
            let system = r.spec.to_json().encode();
            (r.name, (r.admitted, r.protocol.name(), system))
        })
        .collect()
}

const LIGHT: &str = concat!(
    r#"{"processors":["P0","P1"],"resources":["SG"],"tasks":["#,
    r#"{"name":"a","processor":0,"period":100,"body":[{"compute":10},{"critical":0,"body":[{"compute":2}]}]},"#,
    r#"{"name":"b","processor":1,"period":200,"body":[{"compute":20},{"critical":0,"body":[{"compute":5}]}]}"#,
    r#"]}"#
);
const SOLO: &str = concat!(
    r#"{"processors":["P0"],"resources":[],"tasks":["#,
    r#"{"name":"solo","processor":0,"period":50,"deadline":40,"offset":3,"#,
    r#""body":[{"compute":5},{"suspend":2},{"compute":1}]}]}"#
);

/// The recorded run: request line, the session it addresses, that
/// session's analysis, and whether the request commits a record.
fn script() -> Vec<(String, &'static str, &'static str, bool)> {
    let submit = |s: &str, extra: &str, sys: &str| {
        format!(r#"{{"op":"submit","session":"{s}"{extra},"system":{sys}}}"#)
    };
    let add = |s: &str, task: &str| format!(r#"{{"op":"add-task","session":"{s}","task":{task}}}"#);
    let remove =
        |s: &str, task: &str| format!(r#"{{"op":"remove-task","session":"{s}","task":"{task}"}}"#);
    vec![
        (submit("alpha", "", LIGHT), "alpha", "mpcp", true),
        (
            submit("beta", r#","protocol":"msrp""#, SOLO),
            "beta",
            "msrp",
            true,
        ),
        (
            add(
                "alpha",
                r#"{"name":"c","processor":0,"period":400,"body":[{"compute":8}]}"#,
            ),
            "alpha",
            "mpcp",
            true,
        ),
        // Past Theorem 3: rejected, so nothing may reach the journal.
        (
            add(
                "alpha",
                r#"{"name":"hog","processor":0,"period":50,"body":[{"compute":50}]}"#,
            ),
            "alpha",
            "mpcp",
            false,
        ),
        (
            add(
                "alpha",
                r#"{"name":"d","processor":1,"period":300,"body":[{"compute":3},{"critical":0,"body":[{"compute":1}]}]}"#,
            ),
            "alpha",
            "mpcp",
            true,
        ),
        (remove("alpha", "a"), "alpha", "mpcp", true),
        // A non-MPCP session's edits run through an engine of its own
        // analysis; its journal record is one task all the same.
        (
            add(
                "beta",
                r#"{"name":"x","processor":0,"period":500,"body":[{"compute":2}]}"#,
            ),
            "beta",
            "msrp",
            true,
        ),
        (remove("beta", "solo"), "beta", "msrp", true),
        // Replacing a session is not a one-task change: a full line.
        (submit("alpha", "", SOLO), "alpha", "mpcp", true),
        (
            add(
                "alpha",
                r#"{"name":"e","processor":0,"period":900,"body":[{"compute":1}]}"#,
            ),
            "alpha",
            "mpcp",
            true,
        ),
    ]
}

/// Runs [`script`] against a server persisting into `dir` and returns
/// the session set after each committed record (`[0]` is the empty set).
fn recorded_run(dir: &Path, snapshot_every: u64) -> Vec<State> {
    let server = spawn(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        audit_every: 1,
        persist_dir: Some(dir.to_path_buf()),
        snapshot_every,
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let mut c = Client::connect(server.local_addr()).unwrap();
    let records = |c: &mut Client| {
        let q = c
            .request(&Value::obj([("op", Value::str("query"))]))
            .unwrap();
        let p = q.get("persist").expect("persistence is on");
        let count = |k| p.get(k).and_then(Value::as_u64).unwrap();
        count("records_full") + count("records_delta")
    };
    let mut states = vec![State::new()];
    for (line, session, protocol, commits) in script() {
        let before = records(&mut c);
        let reply = json::parse(&c.request_raw(&line).unwrap()).unwrap();
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{line}"
        );
        assert_eq!(
            records(&mut c) - before,
            u64::from(commits),
            "journal records for {line}"
        );
        if !commits {
            continue;
        }
        let q = c
            .request(&Value::obj([
                ("op", Value::str("query")),
                ("session", Value::str(session)),
            ]))
            .unwrap();
        let s = q.get("session").unwrap();
        let mut next = states.last().unwrap().clone();
        next.insert(
            session.to_owned(),
            (
                s.get("verdict").and_then(Value::as_str) == Some("admit"),
                protocol,
                s.get("system").unwrap().encode(),
            ),
        );
        states.push(next);
    }
    server.shutdown();
    states
}

fn probe_spec() -> SystemSpec {
    SystemSpec {
        processors: vec!["P0".into()],
        resources: vec![],
        tasks: vec![TaskSpec {
            name: "probe".into(),
            processor: 0,
            period: 10,
            deadline: None,
            offset: 0,
            priority: None,
            body: vec![SegSpec::Compute(1)],
        }],
    }
}

/// Opens `snapshot` + the first `len` bytes of `journal` in a fresh
/// directory; returns what was restored after checking that the journal
/// left behind takes a new commit and keeps it across another open.
fn open_truncated(scratch: &Path, snapshot: Option<&[u8]>, journal: &[u8], len: usize) -> State {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).unwrap();
    if let Some(s) = snapshot {
        std::fs::write(scratch.join(SNAPSHOT), s).unwrap();
    }
    std::fs::write(scratch.join(JOURNAL), &journal[..len]).unwrap();
    let (p, restored) = Persistence::open(scratch, 0).unwrap();
    let state = state_of(restored);
    p.record(
        "probe",
        "submit",
        AdmissionProtocol::Mpcp,
        true,
        &probe_spec(),
    )
    .unwrap();
    drop(p);
    let (_, restored) = Persistence::open(scratch, 0).unwrap();
    let mut with_probe = state.clone();
    with_probe.insert(
        "probe".into(),
        (true, "mpcp", probe_spec().to_json().encode()),
    );
    assert_eq!(
        state_of(restored),
        with_probe,
        "journal cut at byte {len} lost a commit made after recovery"
    );
    state
}

/// Every byte length of `journal` restores a committed state no older
/// than `floor`, never going backwards as the journal grows, and the
/// whole journal restores the last one.
fn check_every_byte(
    tag: &str,
    snapshot: Option<&[u8]>,
    journal: &[u8],
    states: &[State],
    floor: usize,
) {
    let scratch = tempdir(tag);
    let mut reached = floor;
    for len in 0..=journal.len() {
        let state = open_truncated(&scratch, snapshot, journal, len);
        let k = (reached..states.len())
            .find(|&k| states[k] == state)
            .unwrap_or_else(|| {
                panic!("journal cut at byte {len}: restored {state:?}, which no prefix of the run at or after record {reached} committed")
            });
        reached = k;
    }
    assert_eq!(
        reached,
        states.len() - 1,
        "the whole journal restores the last commit"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn every_byte_boundary_of_the_journal_restores_a_committed_prefix() {
    let dir = tempdir("plain");
    let states = recorded_run(&dir, 0);
    let journal = std::fs::read(dir.join(JOURNAL)).unwrap();
    let text = String::from_utf8(journal.clone()).unwrap();
    assert_eq!(
        text.lines().count(),
        states.len() - 1,
        "one line per commit"
    );
    let one_task = text.lines().filter(|l| l.contains(r#""task":"#)).count();
    assert_eq!(
        one_task, 6,
        "the one-task edits are one-task lines:\n{text}"
    );
    check_every_byte("plain-cut", None, &journal, &states, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_byte_boundary_after_a_snapshot_restores_a_committed_prefix() {
    let dir = tempdir("snap");
    // Compaction after the fifth record: the journal holds the rest.
    let states = recorded_run(&dir, 5);
    let snapshot = std::fs::read(dir.join(SNAPSHOT)).expect("a snapshot was taken");
    let journal = std::fs::read(dir.join(JOURNAL)).unwrap();
    let lines = journal.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(lines, states.len() - 1 - 5);
    check_every_byte("snap-cut", Some(&snapshot), &journal, &states, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash window of compaction: the snapshot was renamed into place
/// but the journal was not truncated yet, so every record the snapshot
/// folds is still in the journal. Replaying them again must change
/// nothing — an `add-task` applied twice would duplicate its task — at
/// any byte length of that stale journal.
#[test]
fn snapshot_renamed_but_journal_not_truncated_applies_nothing_twice() {
    let dir = tempdir("window");
    let states = recorded_run(&dir, 0);
    let stale_journal = std::fs::read(dir.join(JOURNAL)).unwrap();
    let (p, _) = Persistence::open(&dir, 0).unwrap();
    p.snapshot().unwrap();
    drop(p);
    assert_eq!(std::fs::read(dir.join(JOURNAL)).unwrap().len(), 0);
    let snapshot = std::fs::read(dir.join(SNAPSHOT)).unwrap();
    let last = states.len() - 1;
    check_every_byte("window-cut", Some(&snapshot), &stale_journal, &states, last);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal written by the parent commit (PR 13): full lines without
/// `n`, one of them from before protocol selection (no `protocol`). It
/// must restore exactly what the parent restored from it — the expected
/// `query` payloads beside it were produced by the parent binary — and
/// then take one-task lines on top.
#[test]
fn a_journal_written_by_the_parent_commit_restores_unchanged() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = tempdir("parent");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixtures.join("parent_journal.ndjson"), dir.join(JOURNAL)).unwrap();
    let expected: State = std::fs::read_to_string(fixtures.join("parent_journal.sessions.ndjson"))
        .unwrap()
        .lines()
        .map(|l| {
            let v = json::parse(l).unwrap();
            let name = v.get("name").and_then(Value::as_str).unwrap().to_owned();
            let protocol = if name == "beta" { "msrp" } else { "mpcp" };
            let admitted = v.get("verdict").and_then(Value::as_str) == Some("admit");
            (
                name,
                (admitted, protocol, v.get("system").unwrap().encode()),
            )
        })
        .collect();
    assert_eq!(expected.len(), 3);

    let (p, restored) = Persistence::open(&dir, 0).unwrap();
    assert_eq!(state_of(restored.clone()), expected);
    let before = std::fs::metadata(dir.join(JOURNAL)).unwrap().len();
    // gamma's only line carries neither `n` nor `protocol`; a one-task
    // edit on top of it must still be a one-task line that replays.
    let mut gamma = restored
        .into_iter()
        .find(|r| r.name == "gamma")
        .unwrap()
        .spec;
    gamma.tasks.push(probe_spec().tasks.remove(0));
    p.record("gamma", "add-task", AdmissionProtocol::Mpcp, true, &gamma)
        .unwrap();
    drop(p);
    let grown = std::fs::metadata(dir.join(JOURNAL)).unwrap().len() - before;
    assert!(grown < 200, "a one-task line, not a spec: {grown} bytes");
    let (_, restored) = Persistence::open(&dir, 0).unwrap();
    let mut expected = expected;
    expected.get_mut("gamma").unwrap().2 = gamma.to_json().encode();
    assert_eq!(state_of(restored), expected);
    let _ = std::fs::remove_dir_all(&dir);
}
