//! Wire-level differential test of `add-task` / `remove-task`.
//!
//! The benchmark reads three substrings of a 43 KB edit reply, so this
//! is where the rest of it is pinned: seeded edit scripts run against a
//! live, persisted server auditing every edit, and **every reply byte**
//! must equal the full analysis of the candidate system under the
//! session's protocol ([`analyze_with`]) rendered as a [`Value`] tree —
//! the writer the streaming one replaced and is unit-tested against —
//! while `query`'s `system` must equal the model the test keeps by the
//! documented rules (`add-task` commits when admitted, `remove-task`
//! always, both commit [`AdmissionResult::analyzed`]).

use mpcp::analysis::Analysis;
use mpcp::service::json::{self, Value};
use mpcp::service::session::analyze_with;
use mpcp::service::{
    spawn, AdmissionResult, Client, SegSpec, ServerConfig, ServerHandle, SystemSpec, TaskSpec,
};
use mpcp::taskgen::{generate, WorkloadConfig};
use mpcp_prop::Rng;
use std::path::{Path, PathBuf};
use std::time::Duration;

const SESSION: &str = "edited";

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpcp-replies-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The whole reply as the value-tree writer renders it.
fn reference_reply(op: &str, cache: &str, r: &AdmissionResult) -> String {
    let rows = r.tasks.iter().map(|t| {
        Value::obj([
            ("name", Value::str(t.name.clone())),
            ("processor", Value::str(t.processor.clone())),
            ("period", Value::from(t.period)),
            ("wcet", Value::from(t.wcet)),
            ("blocking", Value::from(t.blocking)),
            ("demand", Value::from(t.demand)),
            ("bound", Value::from(t.bound)),
            ("ok", Value::Bool(t.ok)),
        ])
    });
    Value::obj([
        ("ok", Value::Bool(true)),
        ("op", Value::str(op)),
        ("session", Value::str(SESSION)),
        ("cache", Value::str(cache)),
        (
            "verdict",
            Value::str(if r.admitted { "admit" } else { "reject" }),
        ),
        ("schedulable", Value::Bool(r.schedulable)),
        (
            "lint",
            Value::obj([
                ("errors", Value::from(r.lint_errors)),
                ("warnings", Value::from(r.lint_warnings)),
            ]),
        ),
        (
            "reasons",
            Value::Arr(r.reasons.iter().map(Value::str).collect()),
        ),
        ("tasks", Value::Arr(rows.collect())),
    ])
    .encode()
}

fn task_json(task: &TaskSpec) -> Value {
    let spec = SystemSpec {
        tasks: vec![task.clone()],
        ..SystemSpec::default()
    };
    spec.to_json().get("tasks").and_then(Value::as_arr).unwrap()[0].clone()
}

/// A live server, one client and the model of the one session.
struct Harness {
    dir: PathBuf,
    server: Option<ServerHandle>,
    client: Client,
    model: SystemSpec,
    /// The analysis the session is admitted under.
    protocol: Analysis,
    /// Edits whose candidate the full analysis refused.
    rejected: u32,
}

impl Harness {
    fn start(dir: &Path) -> (ServerHandle, Client) {
        let server = spawn(&ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_cap: 16,
            deadline: Duration::from_secs(30),
            audit_every: 1,
            persist_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        })
        .expect("bind test server");
        let client = Client::connect(server.local_addr()).unwrap();
        (server, client)
    }

    /// Starts a server and submits `spec`, which must be admitted.
    fn new(tag: &str, spec: &SystemSpec) -> Harness {
        Harness::under(Analysis::Mpcp, tag, spec)
    }

    /// [`Harness::new`] with the session admitted under `protocol` (the
    /// submit line names it unless it is the default).
    fn under(protocol: Analysis, tag: &str, spec: &SystemSpec) -> Harness {
        let dir = tempdir(tag);
        let (server, client) = Harness::start(&dir);
        let mut h = Harness {
            dir,
            server: Some(server),
            client,
            model: SystemSpec::default(),
            protocol,
            rejected: 0,
        };
        let mut line = vec![
            ("op", Value::str("submit")),
            ("session", Value::str(SESSION)),
            ("system", spec.to_json()),
        ];
        if protocol != Analysis::Mpcp {
            line.push(("protocol", Value::str(protocol.name())));
        }
        let reply = h.client.request_raw(&Value::obj(line).encode()).unwrap();
        let full = analyze_with(spec, None, protocol);
        assert!(full.admitted, "the base system is admitted: {full:?}");
        assert_eq!(reply, reference_reply("submit", "miss", &full));
        h.model = full.analyzed;
        h.check_query();
        h
    }

    /// Stops the server and starts another on the same directory.
    fn restart(&mut self) {
        self.server.take().unwrap().shutdown();
        let (server, client) = Harness::start(&self.dir);
        self.server = Some(server);
        self.client = client;
        self.check_query();
    }

    fn query(&mut self) -> String {
        let q = Value::obj([
            ("op", Value::str("query")),
            ("session", Value::str(SESSION)),
        ]);
        let reply = self.client.request(&q).unwrap();
        reply.get("session").expect("session view").encode()
    }

    /// `query`'s view of the session against the model.
    fn check_query(&mut self) {
        let view = json::parse(&self.query()).unwrap();
        assert_eq!(
            view.get("system").unwrap().encode(),
            self.model.to_json().encode()
        );
        assert_eq!(
            view.get("tasks").and_then(Value::as_u64),
            Some(self.model.tasks.len() as u64)
        );
    }

    /// Sends one edit whose candidate system is `candidate`; the reply
    /// must be the full analysis of it, byte for byte, under whichever
    /// cache tag the server chose (returned). Commits to the model as
    /// the server must.
    fn edit(&mut self, op: &str, line: &str, candidate: SystemSpec, context: &str) -> String {
        let reply = self.client.request_raw(line).unwrap();
        let full = analyze_with(&candidate, None, self.protocol);
        self.rejected += u32::from(!full.admitted);
        let cache = json::parse(&reply)
            .ok()
            .and_then(|v| v.get("cache").and_then(Value::as_str).map(str::to_owned))
            .unwrap_or_else(|| panic!("{context}: no cache tag in {reply}"));
        assert_eq!(reply, reference_reply(op, &cache, &full), "{context}");
        if op == "remove-task" || full.admitted {
            self.model = full.analyzed;
        }
        self.check_query();
        cache
    }

    fn add(&mut self, task: &TaskSpec, context: &str) -> String {
        let line = Value::obj([
            ("op", Value::str("add-task")),
            ("session", Value::str(SESSION)),
            ("task", task_json(task)),
        ])
        .encode();
        let mut candidate = self.model.clone();
        candidate.tasks.push(task.clone());
        self.edit("add-task", &line, candidate, context)
    }

    fn remove(&mut self, name: &str, context: &str) -> String {
        let line = Value::obj([
            ("op", Value::str("remove-task")),
            ("session", Value::str(SESSION)),
            ("task", Value::str(name)),
        ])
        .encode();
        let mut candidate = self.model.clone();
        candidate.tasks.retain(|t| t.name != name);
        if candidate.tasks.len() == self.model.tasks.len() {
            let reply = self.client.request_raw(&line).unwrap();
            assert!(reply.contains(r#""code":"unknown-task""#), "{reply}");
            self.check_query();
            return "error".to_owned();
        }
        self.edit("remove-task", &line, candidate, context)
    }

    fn finish(mut self) {
        self.server.take().unwrap().shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A base system of `procs` × `per_proc` tasks with local and global
/// semaphores, light enough to be admitted and to admit more.
fn base_spec(seed: u64, procs: usize, per_proc: usize) -> SystemSpec {
    base_spec_under(Analysis::Mpcp, seed, procs, per_proc)
}

/// [`base_spec`], admitted under `protocol`.
fn base_spec_under(protocol: Analysis, seed: u64, procs: usize, per_proc: usize) -> SystemSpec {
    let cfg = WorkloadConfig::default()
        .processors(procs)
        .tasks_per_processor(per_proc)
        .utilization(0.15)
        .resources(1, 2)
        .sections(0, 2)
        .global_access(0.6)
        .section_len(0.01, 0.05)
        .suspensions(0.2);
    (seed..seed + 64)
        .map(|s| SystemSpec::from_system(&generate(&cfg, s)))
        .find(|spec| analyze_with(spec, None, protocol).admitted)
        .expect("an admitted base system within 64 seeds")
}

/// A random task for `model`: compute-only or with local/global
/// sections and suspensions, sometimes heavy enough for Theorem 3 to
/// refuse it, with `deadline == period` spelled out, a shorter
/// deadline, or an offset now and then.
fn random_task(rng: &mut Rng, model: &SystemSpec, name: String) -> TaskSpec {
    let period = rng.range_u64(200, 20_000);
    let wcet = if rng.chance(0.25) {
        rng.range_u64(period / 2, period) // a Theorem 3 rejection
    } else {
        rng.range_u64(1, (period / 100).max(2))
    };
    let mut body = vec![SegSpec::Compute(wcet)];
    if !model.resources.is_empty() {
        for _ in 0..rng.range_usize(0, 2) {
            let r = rng.range_usize(0, model.resources.len() - 1);
            body.push(SegSpec::Critical(
                r,
                vec![SegSpec::Compute(rng.range_u64(1, 3))],
            ));
            if rng.chance(0.3) {
                body.push(SegSpec::Suspend(rng.range_u64(1, 5)));
            }
            body.push(SegSpec::Compute(1));
        }
    }
    TaskSpec {
        name,
        processor: rng.range_usize(0, model.processors.len() - 1),
        period,
        deadline: match rng.range_usize(0, 3) {
            0 => Some(period),
            1 => Some(period - period / 10),
            _ => None,
        },
        offset: if rng.chance(0.2) {
            rng.range_u64(1, 50)
        } else {
            0
        },
        priority: None,
        body,
    }
}

#[test]
fn seeded_edit_scripts_reply_the_full_analysis_byte_for_byte() {
    for seed in [11u64, 12, 13] {
        let mut rng = Rng::new(seed);
        let mut h = Harness::new(&format!("script{seed}"), &base_spec(seed * 100, 3, 3));
        let mut delta = 0;
        for step in 0..40 {
            let context = format!("seed {seed}, step {step}");
            let tag = match rng.range_usize(0, 9) {
                // Removals from the front, the middle and the end.
                0 if h.model.tasks.len() > 1 => {
                    let name = h.model.tasks[0].name.clone();
                    h.remove(&name, &context)
                }
                1 if h.model.tasks.len() > 2 => {
                    let name = h.model.tasks[h.model.tasks.len() / 2].name.clone();
                    h.remove(&name, &context)
                }
                2 if h.model.tasks.len() > 1 => {
                    let name = h.model.tasks.last().unwrap().name.clone();
                    h.remove(&name, &context)
                }
                3 => h.remove("no-such-task", &context),
                // A name the session already has: no incremental story,
                // and a removal takes every task of that name with it.
                4 => {
                    let name = rng.choice(&h.model.tasks).name.clone();
                    let task = random_task(&mut rng, &h.model, name.clone());
                    let tag = h.add(&task, &context);
                    assert_ne!(tag, "delta", "{context}: duplicate names");
                    if h.model.tasks.iter().filter(|t| t.name == name).count() == 2 {
                        let tag = h.remove(&name, &context);
                        assert_ne!(tag, "delta", "{context}: duplicate names");
                    }
                    tag
                }
                _ => {
                    let task = random_task(&mut rng, &h.model, format!("n{step}"));
                    h.add(&task, &context)
                }
            };
            delta += usize::from(tag == "delta");
        }
        assert!(delta >= 15, "seed {seed}: only {delta} edits served delta");
        assert!(h.rejected >= 3, "seed {seed}: {} rejections", h.rejected);
        h.finish();
    }
}

#[test]
fn drain_to_one_and_to_empty_and_refill() {
    let base = base_spec(500, 2, 3);
    let mut h = Harness::new("drain", &base);
    let mut rng = Rng::new(5);
    while h.model.tasks.len() > 1 {
        let i = rng.range_usize(0, h.model.tasks.len() - 1);
        let name = h.model.tasks[i].name.clone();
        let tag = h.remove(&name, &format!("drain {name}"));
        assert_eq!(tag, "delta", "drain {name}");
    }
    // One task left: refill, drain again, and go all the way to empty.
    for t in &base.tasks {
        if t.name != h.model.tasks[0].name {
            h.add(t, &format!("refill {}", t.name));
        }
    }
    assert_eq!(h.model.tasks.len(), base.tasks.len());
    while let Some(t) = h.model.tasks.first() {
        let name = t.name.clone();
        h.remove(&name, &format!("empty {name}"));
    }
    assert!(h.model.tasks.is_empty());
    // An empty session has no engine; the first add takes the full
    // path, the ones after it the incremental one again.
    for (i, t) in base.tasks.iter().enumerate() {
        let tag = h.add(t, &format!("regrow {}", t.name));
        assert_eq!(tag == "delta", i > 0, "regrow {}: {tag}", t.name);
    }
    h.finish();
}

/// A session with explicit priorities commits `from_system` whole: the
/// levels stay explicit while they differ from the rate-monotonic
/// default and vanish from every task the moment they coincide with it.
#[test]
fn explicit_priority_sessions_follow_from_system() {
    let task = |name: &str, processor, period, priority| TaskSpec {
        name: name.into(),
        processor,
        period,
        deadline: None,
        offset: 0,
        priority: Some(priority),
        body: vec![
            SegSpec::Compute(3),
            SegSpec::Critical(0, vec![SegSpec::Compute(1)]),
        ],
    };
    // `slow` outranks `fast`: not the rate-monotonic order.
    let spec = SystemSpec {
        processors: vec!["P0".into(), "P1".into()],
        resources: vec!["SG".into()],
        tasks: vec![
            task("fast", 0, 100, 2),
            task("slow", 1, 400, 3),
            task("mid", 0, 200, 1),
        ],
    };
    let mut h = Harness::new("explicit", &spec);
    assert!(h.model.tasks.iter().all(|t| t.priority.is_some()));
    assert_eq!(
        h.add(&task("extra", 1, 300, 7), "explicit add"),
        "delta",
        "an all-explicit session is still served incrementally"
    );
    assert_eq!(h.model.tasks.len(), 4);
    assert!(h.model.tasks.iter().all(|t| t.priority.is_some()));
    // A priority-less task is mixed priorities: rejected, not committed.
    let mut plain = task("plain", 0, 500, 0);
    plain.priority = None;
    h.add(&plain, "mixed add");
    assert_eq!(h.model.tasks.len(), 4);
    // Without `slow` and `extra` the remaining levels are the
    // rate-monotonic ones, and `from_system` drops them all.
    h.remove("extra", "explicit remove");
    assert!(h.model.tasks.iter().all(|t| t.priority.is_some()));
    h.remove("slow", "collapsing remove");
    assert!(h.model.tasks.iter().all(|t| t.priority.is_none()));
    // Now a priority-less task joins, and an explicit one is mixed.
    assert_eq!(h.add(&plain, "implicit add"), "delta");
    assert_eq!(h.model.tasks.len(), 3);
    h.add(&task("late", 1, 300, 9), "mixed the other way");
    assert_eq!(h.model.tasks.len(), 3);
    h.finish();
}

#[test]
fn a_restart_mid_script_changes_no_reply() {
    let mut rng = Rng::new(77);
    let mut h = Harness::new("restart", &base_spec(900, 3, 2));
    for step in 0..24 {
        if step % 8 == 4 {
            h.restart();
        }
        let context = format!("step {step}");
        if step % 3 == 2 {
            let name = h.model.tasks[step % h.model.tasks.len()].name.clone();
            h.remove(&name, &context);
        } else {
            let task = random_task(&mut rng, &h.model, format!("r{step}"));
            h.add(&task, &context);
        }
    }
    h.finish();
}

/// An add that is rejected, or whose candidate does not even build,
/// leaves the session byte-identical and its engine in place: the next
/// edit is still served incrementally.
#[test]
fn refused_adds_roll_back_to_the_byte() {
    let mut h = Harness::new("rollback", &base_spec(300, 3, 3));
    let plain = |name: &str| TaskSpec {
        name: name.into(),
        processor: 1,
        period: 5_000,
        deadline: None,
        offset: 0,
        priority: None,
        body: vec![SegSpec::Compute(5)],
    };
    // Builds the engine, so that every refusal below meets one.
    assert_eq!(h.add(&plain("first"), "first"), "delta");
    let refusals = [
        ("theorem 3", {
            let mut t = plain("hog");
            t.period = 50;
            t.body = vec![SegSpec::Compute(50)];
            t
        }),
        ("mixed priorities", {
            let mut t = plain("ranked");
            t.priority = Some(99);
            t
        }),
        ("processor index", {
            let mut t = plain("nowhere");
            t.processor = 64;
            t
        }),
        ("resource index", {
            let mut t = plain("grabby");
            t.body = vec![SegSpec::Critical(64, vec![SegSpec::Compute(1)])];
            t
        }),
        ("zero period", {
            let mut t = plain("never");
            t.period = 0;
            t
        }),
        ("self nesting", {
            let mut t = plain("knot");
            t.body = vec![SegSpec::Critical(
                0,
                vec![SegSpec::Critical(0, vec![SegSpec::Compute(1)])],
            )];
            t
        }),
    ];
    for (i, (what, task)) in refusals.iter().enumerate() {
        let before = h.query();
        let tasks = h.model.tasks.len();
        h.add(task, what);
        assert_eq!(h.model.tasks.len(), tasks, "{what} was committed");
        assert_eq!(h.query(), before, "{what} moved the session");
        let tag = h.add(&plain(&format!("after{i}")), what);
        assert_eq!(tag, "delta", "the edit after {what}");
    }
    h.finish();
}

/// A session admitted under DPCP, MSRP or FMLP+ edits through an engine
/// of its own analysis: every reply is that analysis' full result, byte
/// for byte, tagged `delta` — before a restart and after it, when the
/// engine is rebuilt from the journal under the recorded protocol.
#[test]
fn every_analysis_edits_incrementally_across_a_restart() {
    for protocol in [Analysis::Dpcp, Analysis::Msrp, Analysis::Fmlp] {
        let mut rng = Rng::new(31);
        let base = base_spec_under(protocol, 700, 3, 3);
        let mut h = Harness::under(protocol, &format!("{protocol}"), &base);
        for step in 0..24 {
            if step == 12 {
                h.restart();
            }
            let context = format!("{protocol}, step {step}");
            let tag = if step % 3 == 2 {
                let name = h.model.tasks[step % h.model.tasks.len()].name.clone();
                h.remove(&name, &context)
            } else {
                let task = random_task(&mut rng, &h.model, format!("p{step}"));
                h.add(&task, &context)
            };
            assert_eq!(tag, "delta", "{context}");
        }
        assert!(h.rejected >= 1, "{protocol}: {} rejections", h.rejected);
        h.finish();
    }
}
