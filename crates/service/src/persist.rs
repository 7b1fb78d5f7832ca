//! Session snapshot/replay persistence.
//!
//! The server's sessions are admission *state*: what systems are
//! currently admitted. This module makes that state survive a restart
//! with the same NDJSON discipline as the wire protocol:
//!
//! - **Journal** (`journal.ndjson`): one line appended per committed
//!   mutation, carrying the *full committed spec* —
//!   `{"session":"s","op":"submit","verdict":"admit","system":{...}}`.
//!   Full specs make every line self-contained, so replay is "last
//!   line per session wins" and a snapshot is pure compaction — no
//!   operation semantics are re-executed on recovery.
//! - **Snapshot** (`snapshot.ndjson`): every `snapshot_every` appends,
//!   the in-memory last-per-session map is written to a temp file,
//!   atomically renamed over the snapshot, and the journal truncated.
//!
//! Startup replays the snapshot, then the journal. A corrupt journal
//! tail (torn write from a crash) is truncated back to the last line
//! that parses; everything before it is kept.
//!
//! Locking: the journal mutex is a *leaf* lock. [`Persistence::record`]
//! is called by workers holding a session lock (so journal order equals
//! commit order per session), and because entries are self-contained
//! the snapshot path compacts the in-memory map under the same mutex —
//! it never reaches back into session locks, which rules the
//! snapshot-vs-commit deadlock out by construction.
//!
//! Durability is flush-to-OS, not fsync-per-record: a process crash
//! loses nothing, a power failure may lose the tail — which the
//! corrupt-tail truncation then recovers past.

use crate::json::{self, Value};
use crate::proto::AdmissionProtocol;
use crate::wire::SystemSpec;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
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

struct Inner {
    dir: PathBuf,
    journal: File,
    /// Last journal line per session — the snapshot, pre-encoded.
    latest: HashMap<String, String>,
    appended: u64,
}

/// Append-only session journal with periodic snapshot compaction.
pub struct Persistence {
    snapshot_every: u64,
    inner: Mutex<Inner>,
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
    /// snapshot + journal into the returned sessions. A corrupt journal
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
        let mut latest: HashMap<String, String> = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(dir.join(SNAPSHOT)) {
            for line in text.lines() {
                // Snapshots are written atomically; a line that does not
                // parse is skipped rather than trusted.
                if let Some(entry) = parse_entry(line) {
                    latest.insert(entry.name, line.to_owned());
                }
            }
        }
        let journal_path = dir.join(JOURNAL);
        let mut appended = 0u64;
        if journal_path.exists() {
            let mut bytes = Vec::new();
            File::open(&journal_path)?.read_to_end(&mut bytes)?;
            let mut good = 0usize; // byte length of the valid prefix
            let mut pos = 0usize;
            while pos < bytes.len() {
                let Some(rel) = bytes[pos..].iter().position(|&b| b == b'\n') else {
                    break; // torn final line: no newline
                };
                let line = &bytes[pos..pos + rel];
                let parsed = std::str::from_utf8(line).ok().and_then(parse_entry);
                let Some(entry) = parsed else { break };
                latest.insert(
                    entry.name,
                    String::from_utf8(line.to_vec()).expect("checked utf8"),
                );
                appended += 1;
                pos += rel + 1;
                good = pos;
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
            .values()
            .filter_map(|line| parse_entry(line))
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
            },
            restored,
        ))
    }

    /// Appends one committed mutation; compacts into a snapshot when
    /// the configured interval is reached.
    ///
    /// # Errors
    ///
    /// I/O failures writing the journal or snapshot.
    pub fn record(
        &self,
        session: &str,
        op: &str,
        protocol: AdmissionProtocol,
        admitted: bool,
        spec: &SystemSpec,
    ) -> io::Result<()> {
        let line = Value::obj([
            ("session", Value::str(session)),
            ("op", Value::str(op)),
            ("protocol", Value::str(protocol.name())),
            (
                "verdict",
                Value::str(if admitted { "admit" } else { "reject" }),
            ),
            ("system", spec.to_json()),
        ])
        .encode();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.journal.write_all(line.as_bytes())?;
        inner.journal.write_all(b"\n")?;
        inner.journal.flush()?;
        inner.latest.insert(session.to_owned(), line);
        inner.appended += 1;
        if self.snapshot_every > 0 && inner.appended >= self.snapshot_every {
            snapshot_locked(&mut inner)?;
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

    /// Number of journal entries since the last snapshot.
    pub fn journal_len(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .appended
    }
}

/// Writes `latest` to a temp file, renames it over the snapshot, then
/// truncates the journal. Runs under the persistence mutex only.
fn snapshot_locked(inner: &mut Inner) -> io::Result<()> {
    let tmp = inner.dir.join("snapshot.tmp");
    {
        let mut f = File::create(&tmp)?;
        for line in inner.latest.values() {
            f.write_all(line.as_bytes())?;
            f.write_all(b"\n")?;
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

/// Parses one journal/snapshot line; `None` marks it corrupt.
fn parse_entry(line: &str) -> Option<RestoredSession> {
    if line.trim().is_empty() {
        return None;
    }
    let v = json::parse(line).ok()?;
    let name = v.get("session")?.as_str()?.to_owned();
    let admitted = match v.get("verdict")?.as_str()? {
        "admit" => true,
        "reject" => false,
        _ => return None,
    };
    let protocol = match v.get("protocol") {
        Some(p) => p.as_str()?.parse().ok()?,
        None => AdmissionProtocol::Mpcp, // pre-selection journal line
    };
    let spec = SystemSpec::from_json(v.get("system")?).ok()?;
    Some(RestoredSession {
        name,
        admitted,
        protocol,
        spec,
    })
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
        assert_eq!(p.journal_len(), 1);
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
