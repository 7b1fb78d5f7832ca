//! Session snapshot/replay persistence.
//!
//! The server's sessions are admission *state*: what systems are
//! currently admitted. This module makes that state survive a restart
//! with the same NDJSON discipline as the wire protocol:
//!
//! - **Journal** (`journal.ndjson`): one line appended per committed
//!   mutation. Every line names its session, the session's sequence
//!   number `n` (1, 2, … in commit order), the verdict and the
//!   protocol, and then carries either the *full committed spec* —
//!   `{"session":"s","n":1,"op":"submit",…,"system":{...}}` — or, when
//!   the commit differs from the session's previous journal state by
//!   exactly one appended or one removed task, only that task —
//!   `…,"task":{...}}` for the appended task, `…,"task":"name"}` for the
//!   removed one. An edit costs what it touches: ~150 B for a one-task
//!   edit of a 320-task session, not the 44 KB spec.
//! - **Snapshot** (`snapshot.ndjson`): every `snapshot_every` appends,
//!   each session's state is written as one full line carrying the `n`
//!   it folds, to a temp file atomically renamed over the snapshot, and
//!   the journal is truncated.
//!
//! Startup replays the snapshot, then the journal, by three rules: a
//! line whose `n` is at most the session's current `n` is skipped (a
//! crash between the snapshot's rename and the journal's truncation
//! leaves lines the snapshot already folds, and an `add-task` must not
//! apply twice); a full line with a larger `n` replaces the state; a
//! one-task line applies only at exactly `n + 1` onto an existing state.
//! Anything else — a line that does not parse, a gap, a one-task line
//! without its base — is where the torn tail starts: the journal is cut
//! back to the last line before it and everything earlier is kept.
//! Lines without `n` were written before one-task lines existed; they
//! are full, restore last-per-session-wins as they always did, and are
//! older than any numbered line. Replay only decodes and patches specs —
//! no operation is re-executed and no analysis runs on recovery.
//!
//! Locking: the journal mutex is a *leaf* lock. [`Persistence::record`]
//! is called by workers holding a session lock (so journal order equals
//! commit order per session). The journal keeps its own materialised
//! copy of every session — the state its lines replay to — so it decides
//! between a one-task and a full line, and writes snapshots, without
//! ever reaching back into session locks, which rules the
//! snapshot-vs-commit deadlock out by construction. Because the one-task
//! test compares the spec handed in against that copy, a caller that
//! skipped a record, reordered tasks or replaced the system simply gets
//! a full line.
//!
//! Durability is flush-to-OS, not fsync-per-record: a process crash
//! loses nothing, a power failure may lose the tail — which the
//! torn-tail truncation then recovers past.

use crate::json::{self, Doc, JsonRef};
use crate::proto::AdmissionProtocol;
use crate::wire::{self, SystemSpec, TaskSpec};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

const JOURNAL: &str = "journal.ndjson";
const SNAPSHOT: &str = "snapshot.ndjson";

/// One session recovered from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoredSession {
    /// Session name.
    pub name: String,
    /// Verdict of the last committed mutation.
    pub admitted: bool,
    /// Admission analysis the session was judged under. Journals written
    /// before protocol selection existed carry no field and restore as
    /// MPCP, which is what those sessions were analyzed with.
    pub protocol: AdmissionProtocol,
    /// The committed system.
    pub spec: SystemSpec,
}

/// What the journal has written since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records written as self-contained full-spec lines.
    pub records_full: u64,
    /// Records written as one-task lines.
    pub records_delta: u64,
    /// Bytes appended to the journal.
    pub bytes: u64,
}

/// The state one session's lines replay to.
struct Committed {
    /// Sequence number of the last line folded in; 0 while only
    /// unnumbered (pre-`n`) lines have been seen.
    n: u64,
    admitted: bool,
    protocol: AdmissionProtocol,
    spec: SystemSpec,
}

struct Inner {
    dir: PathBuf,
    journal: File,
    /// Every session as the journal's own lines replay it — the base
    /// one-task lines are cut against, and the next snapshot.
    latest: HashMap<String, Committed>,
    appended: u64,
}

/// Append-only session journal with periodic snapshot compaction.
pub struct Persistence {
    snapshot_every: u64,
    inner: Mutex<Inner>,
    /// [`JournalStats`], outside the mutex so that reading them never
    /// waits for a record or a snapshot in progress.
    records_full: AtomicU64,
    records_delta: AtomicU64,
    bytes: AtomicU64,
}

impl std::fmt::Debug for Persistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Persistence")
            .field("snapshot_every", &self.snapshot_every)
            .finish_non_exhaustive()
    }
}

impl Persistence {
    /// Opens (creating if needed) the persistence directory and replays
    /// snapshot + journal into the returned sessions. A torn journal
    /// tail is truncated on disk as a side effect.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory or opening the files.
    pub fn open(
        dir: &Path,
        snapshot_every: u64,
    ) -> io::Result<(Persistence, Vec<RestoredSession>)> {
        std::fs::create_dir_all(dir)?;
        let mut latest: HashMap<String, Committed> = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(dir.join(SNAPSHOT)) {
            for line in text.lines() {
                // Snapshots are written atomically; a line that does not
                // parse is skipped rather than trusted.
                if let Some(entry) = parse_line(line) {
                    apply(&mut latest, entry);
                }
            }
        }
        let journal_path = dir.join(JOURNAL);
        let mut appended = 0u64;
        if journal_path.exists() {
            let mut bytes = Vec::new();
            File::open(&journal_path)?.read_to_end(&mut bytes)?;
            let mut good = 0usize; // byte length of the valid prefix
            while let Some(rel) = bytes[good..].iter().position(|&b| b == b'\n') {
                let line = std::str::from_utf8(&bytes[good..good + rel]).ok();
                if !line
                    .and_then(parse_line)
                    .is_some_and(|e| apply(&mut latest, e))
                {
                    break;
                }
                appended += 1;
                good += rel + 1;
            }
            if good < bytes.len() {
                // Crash tail: cut the journal back to its valid prefix.
                let f = OpenOptions::new().write(true).open(&journal_path)?;
                f.set_len(good as u64)?;
            }
        }
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)?;
        let restored = latest
            .iter()
            .map(|(name, c)| RestoredSession {
                name: name.clone(),
                admitted: c.admitted,
                protocol: c.protocol,
                spec: c.spec.clone(),
            })
            .collect();
        Ok((
            Persistence {
                snapshot_every,
                inner: Mutex::new(Inner {
                    dir: dir.to_path_buf(),
                    journal,
                    latest,
                    appended,
                }),
                records_full: AtomicU64::new(0),
                records_delta: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            },
            restored,
        ))
    }

    /// Appends one committed mutation — as a one-task line when `spec`
    /// is the session's previous journal state plus or minus one task,
    /// as a full line otherwise — and compacts into a snapshot when the
    /// configured interval is reached.
    ///
    /// # Errors
    ///
    /// I/O failures writing the journal or snapshot. The journal's copy
    /// of the session is then left as it was, so the next record of the
    /// session is cut against what the disk holds.
    pub fn record(
        &self,
        session: &str,
        op: &str,
        protocol: AdmissionProtocol,
        admitted: bool,
        spec: &SystemSpec,
    ) -> io::Result<()> {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *guard;
        let prior = inner.latest.get(session);
        let entry = Entry {
            session: session.to_owned(),
            n: Some(prior.map_or(1, |c| c.n + 1)),
            admitted,
            protocol,
            payload: prior
                .and_then(|c| one_task_delta(&c.spec, spec))
                .map_or_else(|| Payload::Full(spec.clone()), Payload::OneTask),
        };
        let mut line = String::with_capacity(256);
        entry.write(op, &mut line);
        inner.journal.write_all(line.as_bytes())?;
        inner.journal.flush()?;
        let kind = match entry.payload {
            Payload::Full(_) => &self.records_full,
            Payload::OneTask(_) => &self.records_delta,
        };
        kind.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        // The journal's copy moves exactly as a replay of the line would.
        let follows = apply(&mut inner.latest, entry);
        debug_assert!(follows, "a line cut against the copy applies to it");
        inner.appended += 1;
        if self.snapshot_every > 0 && inner.appended >= self.snapshot_every {
            snapshot_locked(inner)?;
        }
        Ok(())
    }

    /// Forces a snapshot now (tests and orderly shutdown).
    ///
    /// # Errors
    ///
    /// I/O failures writing the snapshot.
    pub fn snapshot(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        snapshot_locked(&mut inner)
    }

    /// Lines and bytes written since [`Persistence::open`].
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            records_full: self.records_full.load(Ordering::Relaxed),
            records_delta: self.records_delta.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// The one-task line that takes `old` to `new`, if there is one: `new`
/// is `old` plus a task at the end, or `old` minus a task whose name no
/// other task of `old` carries (removal replays by name). One pass over
/// the two task lists.
fn one_task_delta(old: &SystemSpec, new: &SystemSpec) -> Option<OneTask> {
    if old.processors != new.processors || old.resources != new.resources {
        return None;
    }
    let (o, n) = (&old.tasks, &new.tasks);
    if n.len() == o.len() + 1 {
        return (n[..o.len()] == o[..]).then(|| OneTask::Append(n[o.len()].clone()));
    }
    if o.len() != n.len() + 1 {
        return None;
    }
    let k = o.iter().zip(n).take_while(|(a, b)| a == b).count();
    let unique = o.iter().filter(|t| t.name == o[k].name).count() == 1;
    (unique && o[k + 1..] == n[k..]).then(|| OneTask::Remove(o[k].name.clone()))
}

/// The fields every line starts with, up to but excluding its payload.
fn write_header(
    line: &mut String,
    session: &str,
    n: u64,
    op: &str,
    protocol: AdmissionProtocol,
    admitted: bool,
) {
    line.push_str("{\"session\":");
    let _ = json::write_str(session, line);
    line.push_str(",\"n\":");
    let _ = json::write_num(n as f64, line);
    line.push_str(",\"op\":");
    let _ = json::write_str(op, line);
    line.push_str(",\"protocol\":\"");
    line.push_str(protocol.name());
    line.push_str("\",\"verdict\":\"");
    line.push_str(if admitted { "admit" } else { "reject" });
    line.push('"');
}

/// Appends `,"system":{...}}` and the newline: the tail of a full line.
fn write_system(spec: &SystemSpec, line: &mut String) {
    line.push_str(",\"system\":");
    let _ = spec.encode_canonical(line);
    line.push_str("}\n");
}

/// Writes every session as one full line to a temp file, renames it over
/// the snapshot, then truncates the journal. Runs under the persistence
/// mutex only.
fn snapshot_locked(inner: &mut Inner) -> io::Result<()> {
    let tmp = inner.dir.join("snapshot.tmp");
    {
        let mut f = File::create(&tmp)?;
        let mut line = String::new();
        for (name, c) in &inner.latest {
            line.clear();
            write_header(&mut line, name, c.n, "snapshot", c.protocol, c.admitted);
            write_system(&c.spec, &mut line);
            f.write_all(line.as_bytes())?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, inner.dir.join(SNAPSHOT))?;
    inner.journal = OpenOptions::new()
        .write(true)
        .truncate(true)
        .create(true)
        .open(inner.dir.join(JOURNAL))?;
    inner.appended = 0;
    Ok(())
}

/// What a line carries after its header.
enum Payload {
    /// `"system"`: the whole committed spec.
    Full(SystemSpec),
    /// `"task"`: the one task the commit added or removed.
    OneTask(OneTask),
}

enum OneTask {
    /// The task appended to the session's task list.
    Append(TaskSpec),
    /// The name of the task removed, unique in the list it leaves.
    Remove(String),
}

/// One parsed journal or snapshot line.
struct Entry {
    session: String,
    /// `None` on lines written before sequence numbers existed.
    n: Option<u64>,
    admitted: bool,
    protocol: AdmissionProtocol,
    payload: Payload,
}

impl Entry {
    /// Appends the line [`parse_line`] reads this entry back from.
    fn write(&self, op: &str, line: &mut String) {
        let n = self.n.expect("written lines are numbered");
        write_header(line, &self.session, n, op, self.protocol, self.admitted);
        let edit = match &self.payload {
            Payload::Full(spec) => return write_system(spec, line),
            Payload::OneTask(edit) => edit,
        };
        line.push_str(",\"task\":");
        let _ = match edit {
            OneTask::Append(task) => wire::write_task_canonical(task, line),
            OneTask::Remove(name) => json::write_str(name, line),
        };
        line.push_str("}\n");
    }
}

/// Parses one journal/snapshot line, decoding from its tape; `None`
/// marks it corrupt.
fn parse_line(line: &str) -> Option<Entry> {
    let doc = Doc::parse(line).ok()?;
    let v = doc.root();
    let admitted = match v.get("verdict")?.as_str()? {
        "admit" => true,
        "reject" => false,
        _ => return None,
    };
    let protocol = match v.get("protocol") {
        Some(p) => p.as_str()?.parse().ok()?,
        None => AdmissionProtocol::Mpcp, // pre-selection journal line
    };
    let payload = match (v.get("system"), v.get("task")) {
        (Some(system), _) => Payload::Full(SystemSpec::from_json(system).ok()?),
        (None, Some(task)) => Payload::OneTask(match task.as_str() {
            Some(name) => OneTask::Remove(name.to_owned()),
            None => OneTask::Append(wire::task_from_json(task).ok()?),
        }),
        (None, None) => return None,
    };
    Some(Entry {
        session: v.get("session")?.as_str()?.to_owned(),
        n: match v.get("n") {
            Some(n) => Some(n.as_u64()?),
            None => None,
        },
        admitted,
        protocol,
        payload,
    })
}

/// Folds one line into the replayed state by the module's three rules.
/// `false` means the line cannot follow what was read so far — the torn
/// tail starts at it.
fn apply(latest: &mut HashMap<String, Committed>, entry: Entry) -> bool {
    let prior = latest.get_mut(&entry.session);
    let stale = match (prior.as_ref().map(|c| c.n), entry.n) {
        (Some(last), Some(n)) => n <= last,
        // An unnumbered line is older than anything numbered.
        (Some(last), None) => last > 0,
        (None, _) => false,
    };
    if stale {
        return true;
    }
    let n = entry.n.unwrap_or(0);
    match entry.payload {
        Payload::Full(spec) => {
            let state = Committed {
                n,
                admitted: entry.admitted,
                protocol: entry.protocol,
                spec,
            };
            latest.insert(entry.session, state);
        }
        Payload::OneTask(edit) => {
            // Only onto the state the line was cut against.
            let Some(c) = prior.filter(|c| n == c.n + 1) else {
                return false;
            };
            match edit {
                OneTask::Append(task) => c.spec.tasks.push(task),
                OneTask::Remove(name) => {
                    let mut named =
                        (0..c.spec.tasks.len()).filter(|&k| c.spec.tasks[k].name == name);
                    let (Some(k), None) = (named.next(), named.next()) else {
                        return false;
                    };
                    c.spec.tasks.remove(k);
                }
            }
            (c.n, c.admitted, c.protocol) = (n, entry.admitted, entry.protocol);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{SegSpec, TaskSpec};

    fn spec(n_tasks: usize) -> SystemSpec {
        SystemSpec {
            processors: vec!["P0".into()],
            resources: vec![],
            tasks: (0..n_tasks)
                .map(|i| TaskSpec {
                    name: format!("t{i}"),
                    processor: 0,
                    period: 100 + i as u64,
                    deadline: None,
                    offset: 0,
                    priority: None,
                    body: vec![SegSpec::Compute(1)],
                })
                .collect(),
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpcp-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_roundtrip_last_write_wins() {
        let dir = tempdir("roundtrip");
        {
            let (p, restored) = Persistence::open(&dir, 0).unwrap();
            assert!(restored.is_empty());
            p.record("a", "submit", AdmissionProtocol::Mpcp, true, &spec(1))
                .unwrap();
            p.record("b", "submit", AdmissionProtocol::Mpcp, true, &spec(2))
                .unwrap();
            p.record("a", "add-task", AdmissionProtocol::Mpcp, true, &spec(3))
                .unwrap();
        }
        let (_, mut restored) = Persistence::open(&dir, 0).unwrap();
        restored.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[0].name, "a");
        assert_eq!(restored[0].spec.tasks.len(), 3, "last write wins");
        assert_eq!(restored[1].spec.tasks.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_truncated_not_fatal() {
        let dir = tempdir("corrupt");
        {
            let (p, _) = Persistence::open(&dir, 0).unwrap();
            p.record("a", "submit", AdmissionProtocol::Mpcp, true, &spec(2))
                .unwrap();
            p.record("b", "submit", AdmissionProtocol::Mpcp, false, &spec(1))
                .unwrap();
        }
        // Simulate a torn write: garbage with no trailing newline.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL))
                .unwrap();
            f.write_all(b"{\"session\":\"c\",\"op\":\"subm").unwrap();
        }
        let (p, restored) = Persistence::open(&dir, 0).unwrap();
        assert_eq!(restored.len(), 2, "valid prefix survives");
        assert!(restored.iter().all(|r| r.name != "c"));
        // The tail is gone from disk too: appending stays consistent.
        p.record("d", "submit", AdmissionProtocol::Mpcp, true, &spec(1))
            .unwrap();
        drop(p);
        let (_, restored) = Persistence::open(&dir, 0).unwrap();
        assert_eq!(restored.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_journal_resets() {
        let dir = tempdir("snapshot");
        let (p, _) = Persistence::open(&dir, 3).unwrap();
        for i in 0..7 {
            p.record(
                "s",
                "submit",
                AdmissionProtocol::Mpcp,
                true,
                &spec(i % 3 + 1),
            )
            .unwrap();
        }
        // 7 appends with snapshot_every=3: snapshots at 3 and 6, one
        // journal entry left over.
        assert_eq!(journal_lines(&dir).len(), 1);
        let snap = std::fs::read_to_string(dir.join(SNAPSHOT)).unwrap();
        assert_eq!(snap.lines().count(), 1, "one session, one line");
        drop(p);
        let (_, restored) = Persistence::open(&dir, 3).unwrap();
        assert_eq!(restored.len(), 1);
        // The i=6 record (spec(6 % 3 + 1) = one task) must win.
        assert_eq!(restored[0].spec.tasks.len(), 1, "last record wins");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn protocol_survives_restart_and_defaults_to_mpcp() {
        let dir = tempdir("protocol");
        {
            let (p, _) = Persistence::open(&dir, 0).unwrap();
            p.record("m", "submit", AdmissionProtocol::Msrp, true, &spec(1))
                .unwrap();
        }
        // A pre-selection journal line has no "protocol" field.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL))
                .unwrap();
            f.write_all(
                concat!(
                    r#"{"session":"old","op":"submit","verdict":"admit","#,
                    r#""system":{"processors":["P0"],"resources":[],"tasks":[]}}"#,
                    "\n"
                )
                .as_bytes(),
            )
            .unwrap();
        }
        let (_, mut restored) = Persistence::open(&dir, 0).unwrap();
        restored.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(restored[0].protocol, AdmissionProtocol::Msrp);
        assert_eq!(restored[1].name, "old");
        assert_eq!(restored[1].protocol, AdmissionProtocol::Mpcp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn journal_lines(dir: &Path) -> Vec<String> {
        std::fs::read_to_string(dir.join(JOURNAL))
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn one_task_edits_are_one_task_lines() {
        let dir = tempdir("delta");
        let mut grown = spec(40);
        {
            let (p, _) = Persistence::open(&dir, 0).unwrap();
            let mpcp = AdmissionProtocol::Mpcp;
            p.record("s", "submit", mpcp, true, &grown).unwrap();
            grown.tasks.push(spec(41).tasks.remove(40));
            p.record("s", "add-task", mpcp, true, &grown).unwrap();
            grown.tasks.remove(7);
            p.record("s", "remove-task", mpcp, false, &grown).unwrap();
            let stats = p.stats();
            assert_eq!((stats.records_full, stats.records_delta), (1, 2));
            assert_eq!(
                stats.bytes,
                std::fs::metadata(dir.join(JOURNAL)).unwrap().len()
            );
        }
        let lines = journal_lines(&dir);
        assert!(lines[0].len() > 2_000, "the first record is the whole spec");
        assert_eq!(
            lines[1],
            r#"{"session":"s","n":2,"op":"add-task","protocol":"mpcp","verdict":"admit","task":{"name":"t40","processor":0,"period":140,"body":[{"compute":1}]}}"#
        );
        assert_eq!(
            lines[2],
            r#"{"session":"s","n":3,"op":"remove-task","protocol":"mpcp","verdict":"reject","task":"t7"}"#
        );
        let (_, restored) = Persistence::open(&dir, 0).unwrap();
        assert_eq!(restored[0].spec, grown);
        assert!(!restored[0].admitted, "the last line's verdict");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn anything_but_one_task_falls_back_to_a_full_line() {
        let base = spec(5);
        let changed = |f: &dyn Fn(&mut SystemSpec)| {
            let mut s = base.clone();
            f(&mut s);
            s
        };
        assert!(one_task_delta(&base, &base).is_none(), "nothing changed");
        assert!(one_task_delta(&base, &spec(7)).is_none(), "two tasks added");
        assert!(
            one_task_delta(&base, &spec(3)).is_none(),
            "two tasks removed"
        );
        assert!(
            one_task_delta(&base, &changed(&|s| s.tasks.swap(0, 1))).is_none(),
            "reordered"
        );
        assert!(
            one_task_delta(
                &base,
                &changed(&|s| s.tasks.insert(2, spec(6).tasks.remove(5)))
            )
            .is_none(),
            "added, but not at the end"
        );
        assert!(
            one_task_delta(
                &base,
                &changed(&|s| {
                    s.tasks.pop();
                    s.tasks[0].period += 1;
                })
            )
            .is_none(),
            "one removed and one modified"
        );
        assert!(
            one_task_delta(
                &base,
                &changed(&|s| {
                    s.tasks.push(spec(6).tasks.remove(5));
                    s.resources.push("S".into());
                })
            )
            .is_none(),
            "resource table changed"
        );
        // Removal is replayed by name, so the name must identify it.
        let twins = changed(&|s| s.tasks[3].name = "t1".into());
        let minus_twin = {
            let mut s = twins.clone();
            s.tasks.remove(3);
            s
        };
        assert!(one_task_delta(&twins, &minus_twin).is_none());
        assert!(matches!(
            one_task_delta(&base, &changed(&|s| drop(s.tasks.remove(3)))),
            Some(OneTask::Remove(name)) if name == "t3"
        ));
        assert!(matches!(
            one_task_delta(&base, &spec(6)),
            Some(OneTask::Append(task)) if task.name == "t5"
        ));
    }

    #[test]
    fn a_one_task_line_without_its_base_is_the_torn_tail() {
        let dir = tempdir("gap");
        {
            let (p, _) = Persistence::open(&dir, 0).unwrap();
            let mpcp = AdmissionProtocol::Mpcp;
            p.record("s", "submit", mpcp, true, &spec(2)).unwrap();
            p.record("s", "add-task", mpcp, true, &spec(3)).unwrap();
            p.record("s", "add-task", mpcp, true, &spec(4)).unwrap();
            p.record("u", "submit", mpcp, true, &spec(1)).unwrap();
        }
        // Lose line 2 (n = 2): line 3 (n = 3) no longer follows, and
        // nothing after it can be trusted either.
        let lines = journal_lines(&dir);
        let kept = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[3]);
        std::fs::write(dir.join(JOURNAL), kept).unwrap();
        let (p, restored) = Persistence::open(&dir, 3).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].spec, spec(2));
        assert_eq!(journal_lines(&dir).len(), 1, "cut back on disk");
        // The append count resumes at the kept prefix (1): the second
        // append, not the first, reaches `snapshot_every` = 3.
        let mpcp = AdmissionProtocol::Mpcp;
        p.record("s", "add-task", mpcp, true, &spec(3)).unwrap();
        assert!(!dir.join(SNAPSHOT).exists());
        assert_eq!(journal_lines(&dir).len(), 2);
        p.record("s", "add-task", mpcp, true, &spec(4)).unwrap();
        assert!(dir.join(SNAPSHOT).exists());
        assert!(journal_lines(&dir).is_empty());
        drop(p);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_remove_commit_restores_reject_verdict() {
        let dir = tempdir("verdict");
        {
            let (p, _) = Persistence::open(&dir, 0).unwrap();
            p.record("s", "remove-task", AdmissionProtocol::Mpcp, false, &spec(2))
                .unwrap();
        }
        let (_, restored) = Persistence::open(&dir, 0).unwrap();
        assert!(!restored[0].admitted);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
