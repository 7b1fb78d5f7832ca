//! Wire format: a plain-data system description that maps JSON ⇄
//! [`mpcp_model::System`].
//!
//! [`SystemSpec`] mirrors what [`mpcp_model::SystemBuilder`] consumes
//! (it is the serializable counterpart of a list of
//! [`mpcp_model::TaskDef`]s): processor and resource name tables plus
//! task definitions whose bodies are segment trees. A spec converts
//! both ways — [`SystemSpec::from_system`] / [`SystemSpec::to_system`]
//! — and encodes to the canonical JSON shape documented in DESIGN.md's
//! wire-protocol section:
//!
//! ```json
//! {"processors":["P0","P1"],
//!  "resources":["SA"],
//!  "tasks":[{"name":"t0","processor":0,"period":100,
//!            "body":[{"compute":4},{"critical":0,"body":[{"compute":2}]}]}]}
//! ```
//!
//! The canonical encoding is what the journal writes. The admission
//! cache never encodes: [`SystemSpec::canonical_hash`] hashes the
//! decoded fields ([`hash_fields`](crate::json::hash_fields)), so equal
//! submissions hash equally however the client formatted its JSON, and
//! the cache confirms a hit by comparing the fields' words.

use crate::json::{JsonRef, Value};
use mpcp_model::{Body, Segment, System, TaskDef};
use std::fmt;
use std::sync::Arc;

/// A wire-format error: what was wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// The priority levels the builder assigns when none are given:
/// rate-monotonic order, descending unique levels `n..1`.
fn rm_default_levels(system: &System) -> Vec<u32> {
    let order =
        mpcp_model::rate_monotonic_order(system.tasks().iter().map(mpcp_model::Task::period));
    let n = system.tasks().len() as u32;
    let mut levels = vec![0u32; system.tasks().len()];
    for (rank, &idx) in order.iter().enumerate() {
        levels[idx] = n - rank as u32;
    }
    levels
}

/// One body segment on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SegSpec {
    /// `{"compute": ticks}`
    Compute(u64),
    /// `{"suspend": ticks}`
    Suspend(u64),
    /// `{"critical": resource_index, "body": [...]}`
    Critical(usize, Vec<SegSpec>),
}

/// One task definition on the wire.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct TaskSpec {
    /// Task name (unique within a system by convention, not enforced).
    pub name: String,
    /// Index into [`SystemSpec::processors`].
    pub processor: usize,
    /// Period in ticks.
    pub period: u64,
    /// Relative deadline; defaults to the period.
    pub deadline: Option<u64>,
    /// Release offset of the first job.
    pub offset: u64,
    /// Explicit priority level (all tasks or none, as the builder
    /// enforces).
    pub priority: Option<u32>,
    /// The job body.
    pub body: Vec<SegSpec>,
}

/// A full system on the wire.
#[derive(Debug, Clone, PartialEq, Default, Hash)]
pub struct SystemSpec {
    /// Processor names; tasks reference them by index.
    pub processors: Vec<String>,
    /// Resource (semaphore) names; critical sections reference them by
    /// index.
    pub resources: Vec<String>,
    /// The task set.
    pub tasks: Vec<TaskSpec>,
}

impl TaskSpec {
    /// Whether the task comes back from [`SystemSpec::from_system`] as is,
    /// in a system of such tasks: no priority, no deadline equal to its period.
    pub(crate) fn round_trips(&self) -> bool {
        self.priority.is_none() && self.deadline != Some(self.period)
    }
}

impl SystemSpec {
    /// Extracts the wire description of a built system.
    ///
    /// Priorities are emitted only when they differ from the builder's
    /// rate-monotonic default assignment. Keeping default priorities
    /// *implicit* on the wire matters for incremental admission: a
    /// session committed from such a spec can grow by a priority-less
    /// `add-task` (the builder re-derives the defaults), whereas an
    /// all-explicit spec would reject it as mixed priorities.
    pub fn from_system(system: &System) -> SystemSpec {
        let rm_default = rm_default_levels(system);
        let explicit = system
            .tasks()
            .iter()
            .enumerate()
            .any(|(i, t)| t.priority().level() != rm_default[i]);
        SystemSpec {
            processors: system
                .processors()
                .iter()
                .map(|p| p.name().to_owned())
                .collect(),
            resources: system
                .resources()
                .iter()
                .map(|r| r.name().to_owned())
                .collect(),
            tasks: system
                .tasks()
                .iter()
                .map(|t| TaskSpec {
                    name: t.name().to_owned(),
                    processor: t.processor().index(),
                    period: t.period().ticks(),
                    deadline: (t.deadline() != t.period()).then(|| t.deadline().ticks()),
                    offset: t.offset().ticks(),
                    priority: explicit.then(|| t.priority().level()),
                    body: segs_from_body(t.body().segments()),
                })
                .collect(),
        }
    }

    /// Builds and validates the [`System`] this spec describes.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for out-of-range processor/resource indices or
    /// any [`mpcp_model::ModelError`] from the builder.
    pub fn to_system(&self) -> Result<System, WireError> {
        build_system(&self.processors, &self.resources, &self.tasks, None)
    }

    /// Canonical JSON encoding of this spec.
    pub fn to_json(&self) -> Value {
        Value::obj([
            (
                "processors",
                Value::Arr(
                    self.processors
                        .iter()
                        .map(|n| Value::str(n.clone()))
                        .collect(),
                ),
            ),
            (
                "resources",
                Value::Arr(
                    self.resources
                        .iter()
                        .map(|n| Value::str(n.clone()))
                        .collect(),
                ),
            ),
            (
                "tasks",
                Value::Arr(self.tasks.iter().map(task_to_json).collect()),
            ),
        ])
    }

    /// Parses a spec out of a JSON value (a `&`[`Value`] or a tape
    /// [`Node`](crate::json::Node)).
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the missing or ill-typed field.
    pub fn from_json<'v, V: JsonRef<'v>>(v: V) -> Result<SystemSpec, WireError> {
        Ok(SystemSpec {
            processors: name_list(v, "processors")?,
            resources: name_list(v, "resources")?,
            tasks: list(
                v.get("tasks"),
                || "\"tasks\" must be an array".into(),
                task_from_json,
            )?,
        })
    }

    /// 64-bit hash of the spec's fields: equal specs hash equally
    /// however the client formatted its JSON. One pass over the fields,
    /// nothing encoded; in-memory only (see
    /// [`hash_fields`](crate::json::hash_fields)).
    pub fn canonical_hash(&self) -> u64 {
        crate::json::hash_fields(self)
    }
}

/// The one spec → [`System`] constructor: the system over the given
/// name tables with `tasks` as its task list — a spec's own
/// ([`SystemSpec::to_system`]), or a session's plus or minus one, so no
/// spec is copied to try an edit.
///
/// `prev`, a system built from an earlier version of the spec, is a hint
/// that changes the cost and never the value: a task takes over the name
/// and the body — the allocations — of `prev`'s task of that name where
/// the bodies compare structurally equal, and what is derived per body
/// ([`System::info_after`]) is then shared in turn. Ignored unless its
/// resource table is as long as this one, so that a shared body's
/// indices are in range like everyone else's.
///
/// # Errors
///
/// As [`SystemSpec::to_system`].
pub(crate) fn build_system<'a>(
    processors: &[String],
    resources: &[String],
    tasks: impl IntoIterator<Item = &'a TaskSpec>,
    prev: Option<&System>,
) -> Result<System, WireError> {
    let prev = prev.filter(|p| p.resources().len() == resources.len());
    let mut b = System::builder();
    for name in processors {
        b.add_processor(name.clone());
    }
    for name in resources {
        b.add_resource(name.clone());
    }
    let mut next = 0;
    for t in tasks {
        if t.processor >= processors.len() {
            return err(format!(
                "task {:?}: processor index {} out of range ({} processors)",
                t.name,
                t.processor,
                processors.len()
            ));
        }
        let old = prev.and_then(|p| {
            let at = p.task_index_near(next, &t.name)?;
            next = at + 1;
            Some(&p.tasks()[at])
        });
        // The builder hands out dense ids in insertion order, so the
        // wire index is exactly the processor id.
        let processor = mpcp_model::ProcessorId::from_index(t.processor as u32);
        let mut def = match old {
            Some(o) => TaskDef::new(Arc::clone(o.shared_name()), processor),
            None => TaskDef::new(t.name.as_str(), processor),
        }
        .period(t.period)
        .offset(t.offset);
        if let Some(d) = t.deadline {
            def = def.deadline(d);
        }
        if let Some(p) = t.priority {
            def = def.priority(p);
        }
        let body = match old.filter(|o| same_body(&t.body, o.body().segments())) {
            Some(o) => o.body().clone(),
            None => {
                check_resources(&t.name, &t.body, resources.len())?;
                // Known length: one allocation, no `Vec` in between.
                Body::from_segments(t.body.iter().map(seg_to_model).collect::<Arc<[_]>>())
            }
        };
        b.add_task(def.body(body));
    }
    b.build()
        .map_err(|e| WireError(format!("invalid system: {e}")))
}

/// Whether a wire body and a model body are the same segment tree.
fn same_body(spec: &[SegSpec], model: &[Segment]) -> bool {
    spec.len() == model.len()
        && spec.iter().zip(model).all(|pair| match pair {
            (SegSpec::Compute(a), Segment::Compute(b))
            | (SegSpec::Suspend(a), Segment::Suspend(b)) => *a == b.ticks(),
            (SegSpec::Critical(r, a), Segment::Critical(q, b)) => {
                *r == q.index() && same_body(a, b)
            }
            _ => false,
        })
}

fn segs_from_body(segments: &[Segment]) -> Vec<SegSpec> {
    segments
        .iter()
        .map(|s| match s {
            Segment::Compute(d) => SegSpec::Compute(d.ticks()),
            Segment::Suspend(d) => SegSpec::Suspend(d.ticks()),
            Segment::Critical(r, body) => SegSpec::Critical(r.index(), segs_from_body(body)),
        })
        .collect()
}

/// The wire's own range check of a body's resource indices, in lock
/// order; [`seg_to_model`] relies on it.
fn check_resources(task: &str, segs: &[SegSpec], resources: usize) -> Result<(), WireError> {
    for s in segs {
        if let SegSpec::Critical(r, body) = s {
            if *r >= resources {
                return err(format!(
                    "task {task:?}: resource index {r} out of range ({resources} resources)"
                ));
            }
            check_resources(task, body, resources)?;
        }
    }
    Ok(())
}

fn seg_to_model(s: &SegSpec) -> Segment {
    match s {
        SegSpec::Compute(d) => Segment::Compute(mpcp_model::Dur::new(*d)),
        SegSpec::Suspend(d) => Segment::Suspend(mpcp_model::Dur::new(*d)),
        SegSpec::Critical(r, body) => Segment::Critical(
            mpcp_model::ResourceId::from_index(*r as u32),
            body.iter().map(seg_to_model).collect(),
        ),
    }
}

fn seg_to_json(s: &SegSpec) -> Value {
    match s {
        SegSpec::Compute(d) => Value::obj([("compute", Value::from(*d))]),
        SegSpec::Suspend(d) => Value::obj([("suspend", Value::from(*d))]),
        SegSpec::Critical(r, body) => Value::obj([
            ("critical", Value::from(*r)),
            ("body", Value::Arr(body.iter().map(seg_to_json).collect())),
        ]),
    }
}

fn seg_from_json<'v, V: JsonRef<'v>>(v: V) -> Result<SegSpec, WireError> {
    if let Some(d) = v.get("compute") {
        return d
            .as_u64()
            .map(SegSpec::Compute)
            .ok_or_else(|| WireError("\"compute\" must be a non-negative integer".into()));
    }
    if let Some(d) = v.get("suspend") {
        return d
            .as_u64()
            .map(SegSpec::Suspend)
            .ok_or_else(|| WireError("\"suspend\" must be a non-negative integer".into()));
    }
    if let Some(r) = v.get("critical") {
        let r = r
            .as_u64()
            .ok_or_else(|| WireError("\"critical\" must be a resource index".into()))?;
        let not_array = || "critical \"body\" must be an array".into();
        let body = list(v.get("body"), not_array, seg_from_json)?;
        return Ok(SegSpec::Critical(r as usize, body));
    }
    err("segment must have \"compute\", \"suspend\" or \"critical\"")
}

/// Canonical JSON encoding of one task: the shape of an element of
/// [`SystemSpec::to_json`]'s `"tasks"`.
pub(crate) fn task_to_json(t: &TaskSpec) -> Value {
    let mut pairs: Vec<(String, Value)> = vec![
        ("name".into(), Value::str(t.name.clone())),
        ("processor".into(), Value::from(t.processor)),
        ("period".into(), Value::from(t.period)),
    ];
    if let Some(d) = t.deadline {
        pairs.push(("deadline".into(), Value::from(d)));
    }
    if t.offset != 0 {
        pairs.push(("offset".into(), Value::from(t.offset)));
    }
    if let Some(p) = t.priority {
        pairs.push(("priority".into(), Value::from(u64::from(p))));
    }
    pairs.push((
        "body".into(),
        Value::Arr(t.body.iter().map(seg_to_json).collect()),
    ));
    Value::Obj(pairs)
}

/// Parses one task out of its JSON object. Public because `add-task`
/// requests carry a bare task, not a whole system.
pub fn task_from_json<'v, V: JsonRef<'v>>(v: V) -> Result<TaskSpec, WireError> {
    let name = v
        .get("name")
        .and_then(V::as_str)
        .ok_or_else(|| WireError("task needs a string \"name\"".into()))?
        .to_owned();
    let processor = v
        .get("processor")
        .and_then(V::as_u64)
        .ok_or_else(|| WireError(format!("task {name:?} needs a \"processor\" index")))?
        as usize;
    let period = v
        .get("period")
        .and_then(V::as_u64)
        .ok_or_else(|| WireError(format!("task {name:?} needs an integer \"period\"")))?;
    let deadline = match v.get("deadline") {
        None => None,
        Some(d) => Some(
            d.as_u64()
                .ok_or_else(|| WireError(format!("task {name:?}: bad \"deadline\"")))?,
        ),
    };
    let offset = match v.get("offset") {
        None => 0,
        Some(o) => o
            .as_u64()
            .ok_or_else(|| WireError(format!("task {name:?}: bad \"offset\"")))?,
    };
    let priority = match v.get("priority") {
        None => None,
        Some(p) => Some(
            p.as_u64()
                .and_then(|p| u32::try_from(p).ok())
                .ok_or_else(|| WireError(format!("task {name:?}: bad \"priority\"")))?,
        ),
    };
    let not_array = || format!("task {name:?}: \"body\" must be an array");
    let body = list(v.get("body"), not_array, seg_from_json)?;
    Ok(TaskSpec {
        name,
        processor,
        period,
        deadline,
        offset,
        priority,
        body,
    })
}

fn name_list<'v, V: JsonRef<'v>>(v: V, key: &str) -> Result<Vec<String>, WireError> {
    let not_array = || format!("{key:?} must be an array of names");
    list(v.get(key), not_array, |name| {
        name.as_str()
            .map(str::to_owned)
            .ok_or_else(|| WireError(format!("{key:?} entries must be strings")))
    })
}

/// Decodes each element of an array with `f`, into a `Vec` of exactly
/// their number; an absent array is empty.
fn list<'v, V: JsonRef<'v>, T>(
    v: Option<V>,
    not_array: impl FnOnce() -> String,
    mut f: impl FnMut(V) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let Some(v) = v else { return Ok(Vec::new()) };
    let items = v.items().ok_or_else(|| WireError(not_array()))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(f(item)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> SystemSpec {
        SystemSpec {
            processors: vec!["P0".into(), "P1".into()],
            resources: vec!["SG0".into()],
            tasks: vec![
                TaskSpec {
                    name: "a".into(),
                    processor: 0,
                    period: 100,
                    deadline: Some(80),
                    offset: 5,
                    priority: Some(2),
                    body: vec![
                        SegSpec::Compute(10),
                        SegSpec::Critical(0, vec![SegSpec::Compute(2)]),
                        SegSpec::Suspend(1),
                    ],
                },
                TaskSpec {
                    name: "b".into(),
                    processor: 1,
                    period: 200,
                    deadline: None,
                    offset: 0,
                    priority: Some(1),
                    body: vec![SegSpec::Compute(20)],
                },
            ],
        }
    }

    /// `sample()` with the rate-monotonic order inverted, so its
    /// priorities cannot be elided as builder defaults.
    fn sample_inverted() -> SystemSpec {
        let mut spec = sample();
        spec.tasks[0].priority = Some(1);
        spec.tasks[1].priority = Some(2);
        spec
    }

    #[test]
    fn json_round_trip_is_identity() {
        let spec = sample();
        let text = spec.to_json().encode();
        let back = SystemSpec::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json().encode(), text);
    }

    #[test]
    fn system_round_trip_preserves_structure() {
        let spec = sample();
        let sys = spec.to_system().unwrap();
        assert_eq!(sys.tasks().len(), 2);
        assert_eq!(sys.tasks()[0].deadline().ticks(), 80);
        assert_eq!(sys.tasks()[0].wcet().ticks(), 12);
        let back = SystemSpec::from_system(&sys);
        // sample()'s explicit priorities coincide with the builder's
        // rate-monotonic defaults, so extraction normalizes them away.
        let mut expected = spec;
        for t in &mut expected.tasks {
            t.priority = None;
        }
        assert_eq!(back, expected);
    }

    #[test]
    fn non_default_priorities_survive_extraction() {
        let spec = sample_inverted();
        let sys = spec.to_system().unwrap();
        assert_eq!(sys.tasks()[0].priority().level(), 1);
        assert_eq!(sys.tasks()[1].priority().level(), 2);
        let back = SystemSpec::from_system(&sys);
        assert_eq!(back, spec, "explicit non-RM priorities must round-trip");
    }

    #[test]
    fn canonical_hash_ignores_client_formatting() {
        let spec = sample();
        let reparsed = SystemSpec::from_json(
            &json::parse(&format!("  {}  ", spec.to_json().encode())).unwrap(),
        )
        .unwrap();
        assert_eq!(spec.canonical_hash(), reparsed.canonical_hash());
        let mut other = sample();
        other.tasks[0].period += 1;
        assert_ne!(spec.canonical_hash(), other.canonical_hash());
    }

    /// A system built with a previous version as a hint equals the one
    /// built alone — errors and their text included — after every step
    /// of a script that removes from the middle, reorders, repeats a
    /// name, rewrites a body and resizes the resource table; and it
    /// takes over exactly the bodies that compare equal.
    #[test]
    fn a_system_built_after_a_previous_version_equals_one_built_alone() {
        let task = |name: &str, period, body| TaskSpec {
            name: name.into(),
            processor: 0,
            period,
            deadline: None,
            offset: 0,
            priority: None,
            body,
        };
        let nested = vec![
            SegSpec::Compute(1),
            SegSpec::Critical(0, vec![SegSpec::Suspend(1), SegSpec::Critical(1, vec![])]),
        ];
        let mut spec = SystemSpec {
            processors: vec!["P0".into()],
            resources: vec!["S0".into(), "S1".into()],
            tasks: vec![
                task("a", 10, nested.clone()),
                task("b", 20, vec![SegSpec::Compute(2)]),
                task(
                    "c",
                    30,
                    vec![SegSpec::Critical(1, vec![SegSpec::Compute(1)])],
                ),
                task("d", 40, vec![]),
            ],
        };
        type Step = (&'static str, fn(&mut SystemSpec), Option<usize>);
        // Each step with the number of bodies it must share (`None`:
        // the spec does not build).
        let steps: [Step; 11] = [
            ("nothing", |_| {}, Some(4)),
            ("push", |s| s.tasks.push(s.tasks[1].clone()), Some(5)),
            ("rename the copy", |s| s.tasks[4].name = "e".into(), Some(4)),
            (
                "remove from the middle",
                |s| drop(s.tasks.remove(1)),
                Some(4),
            ),
            ("reorder", |s| s.tasks.swap(0, 3), Some(4)),
            ("period only", |s| s.tasks[0].period = 15, Some(4)),
            (
                "compute for suspend",
                |s| s.tasks[3].body[1] = SegSpec::Compute(9),
                Some(3),
            ),
            (
                "resource out of range",
                |s| s.tasks[1].body = vec![SegSpec::Critical(2, vec![])],
                None,
            ),
            ("a longer table", |s| s.resources.push("S2".into()), Some(0)),
            (
                "self nesting",
                |s| {
                    s.tasks[2].body =
                        vec![SegSpec::Critical(2, vec![SegSpec::Critical(2, vec![])])];
                },
                None,
            ),
            (
                "back in range",
                |s| s.tasks[2].body = vec![SegSpec::Critical(2, vec![])],
                Some(3),
            ),
        ];
        let mut prev = spec.to_system().unwrap();
        for (what, step, shared) in steps {
            step(&mut spec);
            let alone = spec.to_system();
            let hinted = build_system(&spec.processors, &spec.resources, &spec.tasks, Some(&prev));
            assert_eq!(hinted, alone, "{what}");
            assert_eq!(hinted.is_ok(), shared.is_some(), "{what}: {hinted:?}");
            let Ok(next) = hinted else { continue };
            let taken = |t: &mpcp_model::Task| {
                let old = prev.tasks().iter().find(|o| o.name() == t.name());
                old.is_some_and(|o| o.body().is_same_allocation(t.body()))
            };
            let count = next.tasks().iter().filter(|t| taken(t)).count();
            assert_eq!(Some(count), shared, "{what}");
            prev = next;
        }
    }

    #[test]
    fn bad_indices_are_reported() {
        let mut spec = sample();
        spec.tasks[0].processor = 9;
        assert!(spec.to_system().unwrap_err().0.contains("processor index"));
        let mut spec = sample();
        spec.tasks[0].body = vec![SegSpec::Critical(7, vec![])];
        assert!(spec.to_system().unwrap_err().0.contains("resource index"));
    }

    #[test]
    fn builder_errors_surface() {
        let spec = SystemSpec {
            processors: vec!["P0".into()],
            resources: vec![],
            tasks: vec![TaskSpec {
                name: "z".into(),
                processor: 0,
                period: 0, // zero period → ModelError
                deadline: None,
                offset: 0,
                priority: None,
                body: vec![],
            }],
        };
        assert!(spec.to_system().unwrap_err().0.contains("invalid system"));
    }

    #[test]
    fn missing_fields_are_named() {
        let v = json::parse(r#"{"tasks":[{"processor":0}]}"#).unwrap();
        let e = SystemSpec::from_json(&v).unwrap_err();
        assert!(e.0.contains("name"));
    }
}
