//! Admission analysis and named system sessions.
//!
//! [`analyze`] is the online form of the repo's offline pipeline: lint
//! (`mpcp-verify` V001–V009), optional allocation (`mpcp-alloc`), then
//! the selected [`Analysis`](mpcp_analysis::Analysis) — blocking bounds
//! and their schedulability test, §5.1 + Theorem 3 by default — all
//! folded into one [`AdmissionResult`] with a per-task breakdown. The
//! result is a pure function of `(spec, allocate, protocol)`, which is
//! what makes it cacheable (see [`cache`](crate::cache)).
//!
//! A [`Session`] is a named, live task system. Incremental updates
//! (`add-task`) are *transactional*: the candidate system is analyzed
//! and committed only when admitted, so a rejected change leaves the
//! session exactly as it was.

use crate::proto::{AdmissionProtocol, AllocDirective};
use crate::reply::RowCache;
use crate::wire::{self, SystemSpec, TaskSpec};
use mpcp_analysis::{BlockingConfig, BoundSet, Edit};
use mpcp_model::System;
use mpcp_verify::{IncrementalAnalysis, Report, Severity};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Per-task admission breakdown: the inputs of the task's
/// rate-monotonic row plus its blocking bound.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskVerdict {
    /// Task name.
    pub name: String,
    /// Processor name it is bound to.
    pub processor: String,
    /// Period in ticks.
    pub period: u64,
    /// WCET in ticks.
    pub wcet: u64,
    /// Worst-case blocking under the selected analysis (under MPCP
    /// `B_i`: five factors + deferred penalty).
    pub blocking: u64,
    /// Left-hand side of the task's row (Theorem 3 under MPCP).
    pub demand: f64,
    /// Liu & Layland bound for its rank.
    pub bound: f64,
    /// Whether the inequality holds.
    pub ok: bool,
}

/// Summary of an allocation step run before analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocSummary {
    /// Heuristic name.
    pub heuristic: &'static str,
    /// Per-processor utilization after rebinding.
    pub per_processor_utilization: Vec<f64>,
    /// Semaphores that stayed global after rebinding.
    pub global_resources: usize,
}

/// Outcome of analyzing one submission. Immutable and shared via `Arc`
/// once computed (possibly from the cache).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdmissionResult {
    /// The verdict: admit only if the lints are clean (no errors), the
    /// analysis accepts the structure, and its schedulability test holds.
    pub admitted: bool,
    /// Whether the test held (false also when analysis was impossible).
    pub schedulable: bool,
    /// Error-severity lint findings.
    pub lint_errors: usize,
    /// Warning-severity lint findings.
    pub lint_warnings: usize,
    /// Why the submission was rejected (empty when admitted).
    pub reasons: Vec<String>,
    /// Per-task breakdown (empty if the system never reached analysis).
    pub tasks: Vec<TaskVerdict>,
    /// Allocation summary, when an [`AllocDirective`] was given.
    pub allocation: Option<AllocSummary>,
    /// The system as analyzed — rebound by allocation if requested,
    /// otherwise the submitted spec. This is what a session commits.
    pub analyzed: SystemSpec,
}

/// Runs the full admission pipeline on one submission under the MPCP
/// analysis (the wire default).
///
/// An empty task set is trivially admitted (a session being drained).
pub fn analyze(spec: &SystemSpec, allocate: Option<AllocDirective>) -> AdmissionResult {
    analyze_with(spec, allocate, AdmissionProtocol::Mpcp)
}

/// [`analyze`] under a caller-selected admission analysis, any of
/// [`Analysis::ALL`](mpcp_analysis::Analysis::ALL) with the paper's
/// instance counts. Lints and allocation are protocol-independent; only
/// the [`BoundSet`] changes.
pub fn analyze_with(
    spec: &SystemSpec,
    allocate: Option<AllocDirective>,
    protocol: AdmissionProtocol,
) -> AdmissionResult {
    let Admission {
        head,
        rows,
        analyzed,
    } = admit(spec, allocate, protocol);
    AdmissionResult {
        tasks: rows.map_or_else(Vec::new, |(set, system)| task_verdicts(&system, &set)),
        analyzed: analyzed.unwrap_or_else(|| spec.clone()),
        ..head
    }
}

/// One submission through the admission pipeline, its rows left in the
/// analysis' own terms: the server renders its reply from this, and
/// [`analyze_with`] makes it whole.
pub(crate) struct Admission {
    /// Everything but `tasks` and `analyzed`, as [`engine_verdict`] has it.
    pub(crate) head: AdmissionResult,
    /// The rows and the system they index, if analysis ran and accepted it.
    pub(crate) rows: Option<(BoundSet, System)>,
    /// The analyzed spec, where it differs from the submitted one.
    pub(crate) analyzed: Option<SystemSpec>,
}

/// The admission pipeline: build the system once, allocate if asked,
/// lint, bound. An empty task set is admitted without a system.
pub(crate) fn admit(
    spec: &SystemSpec,
    allocate: Option<AllocDirective>,
    protocol: AdmissionProtocol,
) -> Admission {
    let trivial = |admitted, reasons| Admission {
        head: AdmissionResult {
            admitted,
            schedulable: admitted,
            reasons,
            ..AdmissionResult::default()
        },
        rows: None,
        analyzed: None,
    };
    if spec.tasks.is_empty() {
        return trivial(true, Vec::new());
    }
    let system = match spec.to_system() {
        Ok(s) => s,
        Err(e) => return trivial(false, vec![e.0]),
    };
    let (system, allocation) = match allocate {
        None => (system, None),
        Some(d) => match mpcp_alloc::allocate(&system, d.processors, d.heuristic) {
            Ok(a) => {
                let summary = AllocSummary {
                    heuristic: d.heuristic.name(),
                    per_processor_utilization: a.per_processor_utilization.clone(),
                    global_resources: a.global_resources,
                };
                (a.system, Some(summary))
            }
            Err(e) => return trivial(false, vec![format!("allocation failed: {e}")]),
        },
    };
    // Such a spec comes back from `from_system` as written (the property
    // test below holds the predicate to it), so it skips the round trip.
    let as_written = allocation.is_none() && spec.tasks.iter().all(TaskSpec::round_trips);
    let analyzed = (!as_written)
        .then(|| SystemSpec::from_system(&system))
        .filter(|a| a != spec);
    let bounds = (protocol.bounds(&system, BlockingConfig::paper())).map_err(|e| e.to_string());
    let report = mpcp_verify::lint_system(&system);
    Admission {
        head: head(&system, &report, &bounds, allocation),
        rows: bounds.ok().map(|set| (set, system)),
        analyzed,
    }
}

/// The verdict on `system`, short of `tasks` and `analyzed`, from its
/// lint `report` and its rows (or why analysis refused it): one rejection
/// reason per lint error, then one per failed row in row order.
fn head(
    system: &System,
    report: &Report,
    bounds: &Result<BoundSet, String>,
    allocation: Option<AllocSummary>,
) -> AdmissionResult {
    let lint_errors = report.count(Severity::Error);
    let mut reasons: Vec<String> = (report.diagnostics().iter())
        .filter(|d| d.severity == Severity::Error)
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect();
    match bounds {
        Ok(set) => {
            // MPCP replies predate protocol selection and name the theorem.
            let label = match set.analysis() {
                AdmissionProtocol::Mpcp => "theorem3",
                other => other.name(),
            };
            reasons.extend(set.per_task().iter().filter(|row| !row.ok).map(|row| {
                let task = system.task(row.task).name();
                let (demand, bound) = (row.demand, row.bound);
                format!("{label}: task {task} demand {demand:.3} exceeds bound {bound:.3}")
            }));
        }
        Err(e) => reasons.push(format!("analysis rejected the system: {e}")),
    }
    let schedulable = bounds.as_ref().is_ok_and(BoundSet::schedulable);
    AdmissionResult {
        admitted: lint_errors == 0 && schedulable,
        schedulable,
        lint_errors,
        lint_warnings: report.count(Severity::Warning),
        reasons,
        allocation,
        ..AdmissionResult::default()
    }
}

/// [`TaskVerdict`]s from a [`BoundSet`]'s rows.
fn task_verdicts(system: &System, set: &BoundSet) -> Vec<TaskVerdict> {
    set.per_task()
        .iter()
        .map(|row| {
            let t = system.task(row.task);
            TaskVerdict {
                name: t.name().to_owned(),
                processor: system.processor(row.processor).name().to_owned(),
                period: t.period().ticks(),
                wcet: t.wcet().ticks(),
                blocking: row.blocking.ticks(),
                demand: row.demand,
                bound: row.bound,
                ok: row.ok,
            }
        })
        .collect()
}

/// One live session: the currently committed system and the verdict it
/// was committed under.
#[derive(Default)]
pub struct Session {
    /// The committed system description.
    pub spec: SystemSpec,
    /// The analysis the session was admitted under; `add-task` and
    /// `remove-task` re-admission uses the same one.
    pub protocol: AdmissionProtocol,
    /// Whether the last committed analysis admitted the system; `None`
    /// until something is committed.
    pub admitted: Option<bool>,
    /// Incremental engine tracking the committed system. `None` until
    /// an `add-task`/`remove-task` first needs it, and reset to `None`
    /// whenever a full-path commit (e.g. `submit`) replaces the spec.
    pub engine: Option<IncrementalAnalysis>,
    /// Rendered rows of the session's incremental replies; emptied
    /// along with `engine`.
    pub rows: RowCache,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("spec", &self.spec)
            .field("protocol", &self.protocol)
            .field("admitted", &self.admitted)
            .field("engine", &self.engine.as_ref().map(|_| "..."))
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Spec with `task` appended (the `add-task` candidate).
    pub fn with_task(&self, task: TaskSpec) -> SystemSpec {
        let mut spec = self.spec.clone();
        spec.tasks.push(task);
        spec
    }

    /// Spec with the named task removed, or `None` if absent.
    pub fn without_task(&self, name: &str) -> Option<SystemSpec> {
        let mut spec = self.spec.clone();
        let before = spec.tasks.len();
        spec.tasks.retain(|t| t.name != name);
        (spec.tasks.len() < before).then_some(spec)
    }
}

fn has_duplicate_names(spec: &SystemSpec) -> bool {
    let mut names: Vec<&str> = spec.tasks.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    names.windows(2).any(|w| w[0] == w[1])
}

/// Builds an incremental MPCP engine for a committed spec, or `None`
/// when the spec has no incremental story (empty, invalid, or duplicate
/// task names) and callers must stay on the full path.
pub fn engine_for(spec: &SystemSpec) -> Option<IncrementalAnalysis> {
    engine_with(spec, AdmissionProtocol::Mpcp)
}

/// [`engine_for`] under a caller-selected admission analysis: the
/// engine [`analyze_incremental`] answers as [`analyze_with`] would
/// under `protocol`.
pub fn engine_with(spec: &SystemSpec, protocol: AdmissionProtocol) -> Option<IncrementalAnalysis> {
    if spec.tasks.is_empty() || has_duplicate_names(spec) {
        return None;
    }
    let system = spec.to_system().ok()?;
    IncrementalAnalysis::new(system, protocol).ok()
}

/// Incremental counterpart of [`analyze`] for the no-allocation session
/// transactions (`add-task`/`remove-task`).
///
/// Applies `edit` to a *clone* of `engine` so the caller can commit the
/// returned engine only when the verdict warrants it. Returns `None`
/// when the candidate must take the full path instead (empty system,
/// duplicate names, spec that fails to build); in every such case
/// [`analyze_with`] produces the authoritative result. When `Some`, the
/// result is field-for-field what [`analyze_with`]`(candidate, None,
/// protocol)` returns for the engine's analysis — the audit mode exists
/// to enforce exactly that.
pub fn analyze_incremental(
    engine: &IncrementalAnalysis,
    candidate: &SystemSpec,
    edit: &Edit,
) -> Option<(AdmissionResult, IncrementalAnalysis)> {
    if candidate.tasks.is_empty() || has_duplicate_names(candidate) {
        return None;
    }
    let system = wire::build_system(
        &candidate.processors,
        &candidate.resources,
        &candidate.tasks,
        Some(engine.system()),
    )
    .ok()?;
    let mut next = engine.clone();
    next.apply(system, edit);
    let result = admission_from_engine(&next);
    Some((result, next))
}

/// Reads an engine's cached state as the verdict [`analyze`] reaches on
/// the engine's system — reason strings, their order and every field
/// value replicated exactly — short of the two parts that cost a line
/// per task: the rows stay in the engine's own terms, beside the result
/// (`None` when the analysis refused the system), and `tasks` and
/// `analyzed` are left empty.
pub(crate) fn engine_verdict(engine: &IncrementalAnalysis) -> (AdmissionResult, Option<BoundSet>) {
    let bounds = (engine.bounds())
        .ok_or_else(|| (engine.analysis_error().unwrap_or("analysis unavailable")).to_owned());
    let head = head(engine.system(), engine.report(), &bounds, None);
    (head, bounds.ok())
}

/// [`engine_verdict`] made whole: the [`AdmissionResult`] of the
/// engine's system.
fn admission_from_engine(engine: &IncrementalAnalysis) -> AdmissionResult {
    let system = engine.system();
    let (head, bounds) = engine_verdict(engine);
    AdmissionResult {
        tasks: bounds.map_or_else(Vec::new, |set| task_verdicts(system, &set)),
        analyzed: SystemSpec::from_system(system),
        ..head
    }
}

/// How many ways [`SessionMap`] is sharded.
const SESSION_SHARDS: usize = 16;

/// The named-session table, sharded by name hash so concurrent workers
/// (and reactor shards answering `query`) do not serialize on one
/// global lock. Each session additionally carries its own lock so
/// check-then-commit sequences (`add-task`) are atomic per session
/// while different sessions proceed in parallel on the worker pool.
#[derive(Debug)]
pub struct SessionMap {
    shards: Vec<Mutex<HashMap<String, Arc<Mutex<Session>>>>>,
}

impl Default for SessionMap {
    fn default() -> Self {
        SessionMap {
            shards: (0..SESSION_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }
}

impl SessionMap {
    /// Creates an empty table.
    pub fn new() -> Self {
        SessionMap::default()
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Arc<Mutex<Session>>>> {
        let h = crate::json::fnv1a(name.as_bytes());
        &self.shards[(h as usize) % SESSION_SHARDS]
    }

    /// The session named `name`, if it exists.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<Session>>> {
        self.shard(name)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// The session named `name`, created empty if absent.
    pub fn get_or_create(&self, name: &str) -> Arc<Mutex<Session>> {
        self.shard(name)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether no session exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SegSpec;

    /// Two tasks sharing one global semaphore; comfortably schedulable.
    fn light_spec() -> SystemSpec {
        SystemSpec {
            processors: vec!["P0".into(), "P1".into()],
            resources: vec!["SG".into()],
            tasks: vec![
                TaskSpec {
                    name: "a".into(),
                    processor: 0,
                    period: 100,
                    deadline: None,
                    offset: 0,
                    priority: None,
                    body: vec![
                        SegSpec::Compute(10),
                        SegSpec::Critical(0, vec![SegSpec::Compute(2)]),
                    ],
                },
                TaskSpec {
                    name: "b".into(),
                    processor: 1,
                    period: 200,
                    deadline: None,
                    offset: 0,
                    priority: None,
                    body: vec![
                        SegSpec::Compute(20),
                        SegSpec::Critical(0, vec![SegSpec::Compute(5)]),
                    ],
                },
            ],
        }
    }

    /// A task whose WCET equals its period: fails Theorem 3 instantly.
    fn saturating_task(processor: usize, name: &str) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            processor,
            period: 50,
            deadline: None,
            offset: 0,
            priority: None,
            body: vec![SegSpec::Compute(50)],
        }
    }

    #[test]
    fn light_system_is_admitted_with_breakdown() {
        let r = analyze(&light_spec(), None);
        assert!(r.admitted, "{:?}", r.reasons);
        assert!(r.schedulable);
        assert_eq!(r.tasks.len(), 2);
        assert!(r.tasks.iter().all(|t| t.ok));
        assert!(r.tasks[0].blocking > 0, "a shares SG and must wait");
        assert_eq!(r.lint_errors, 0);
    }

    #[test]
    fn light_system_is_admitted_under_every_protocol() {
        for protocol in AdmissionProtocol::ALL {
            let r = analyze_with(&light_spec(), None, protocol);
            assert!(r.admitted, "{protocol}: {:?}", r.reasons);
            assert_eq!(r.tasks.len(), 2, "{protocol}");
            assert!(r.tasks.iter().all(|t| t.ok), "{protocol}: {:?}", r.tasks);
        }
    }

    #[test]
    fn protocol_rejections_name_the_analysis() {
        let mut spec = light_spec();
        spec.tasks.push(saturating_task(0, "hog"));
        let r = analyze_with(&spec, None, AdmissionProtocol::Msrp);
        assert!(!r.admitted);
        assert!(
            r.reasons.iter().any(|m| m.contains("msrp")),
            "{:?}",
            r.reasons
        );
    }

    #[test]
    fn overloaded_system_is_rejected_with_reason() {
        let mut spec = light_spec();
        spec.tasks.push(saturating_task(0, "hog"));
        let r = analyze(&spec, None);
        assert!(!r.admitted);
        assert!(r.reasons.iter().any(|m| m.contains("theorem3")));
    }

    #[test]
    fn empty_spec_is_vacuously_admitted() {
        let r = analyze(&SystemSpec::default(), None);
        assert!(r.admitted);
        assert!(r.tasks.is_empty());
    }

    #[test]
    fn invalid_spec_is_rejected_not_panicked() {
        let mut spec = light_spec();
        spec.tasks[0].period = 0;
        let r = analyze(&spec, None);
        assert!(!r.admitted);
        assert!(r.reasons[0].contains("invalid system"));
    }

    #[test]
    fn allocation_rebinds_before_analysis() {
        let spec = light_spec();
        let r = analyze(
            &spec,
            Some(AllocDirective {
                processors: 1,
                heuristic: mpcp_alloc::Heuristic::FirstFitDecreasing,
            }),
        );
        let a = r.allocation.expect("allocation summary");
        assert_eq!(a.per_processor_utilization.len(), 1);
        assert_eq!(r.analyzed.processors.len(), 1);
        // Co-located sharers: SG becomes local, so no global blocking.
        assert_eq!(a.global_resources, 0);
    }

    #[test]
    fn session_candidates_do_not_mutate() {
        let s = Session {
            spec: light_spec(),
            ..Session::default()
        };
        let grown = s.with_task(saturating_task(0, "new"));
        assert_eq!(grown.tasks.len(), 3);
        assert_eq!(s.spec.tasks.len(), 2, "candidate is a copy");
        assert!(s.without_task("nope").is_none());
        assert_eq!(s.without_task("a").unwrap().tasks.len(), 1);
    }

    #[test]
    fn incremental_add_and_remove_match_full_analyze() {
        let spec = light_spec();
        let engine = engine_for(&spec).expect("engine builds for a valid spec");

        // Admitted add: identical verdict, breakdown and reasons.
        let extra = TaskSpec {
            name: "c".into(),
            processor: 0,
            period: 400,
            deadline: None,
            offset: 0,
            priority: None,
            body: vec![
                SegSpec::Compute(5),
                SegSpec::Critical(0, vec![SegSpec::Compute(1)]),
            ],
        };
        let session = Session {
            spec: spec.clone(),
            ..Session::default()
        };
        let grown = session.with_task(extra.clone());
        let (inc, next) = analyze_incremental(&engine, &grown, &Edit::AddTask("c".into())).unwrap();
        assert_eq!(inc, analyze(&grown, None));
        assert!(inc.admitted);

        // Rejected add: parity must hold on the reject path too.
        let hogged = {
            let mut c = grown.clone();
            c.tasks.push(saturating_task(0, "hog"));
            c
        };
        let (inc_bad, _) =
            analyze_incremental(&next, &hogged, &Edit::AddTask("hog".into())).unwrap();
        assert_eq!(inc_bad, analyze(&hogged, None));
        assert!(!inc_bad.admitted);

        // Remove from the committed (grown) state.
        let shrunk = {
            let mut c = grown.clone();
            c.tasks.retain(|t| t.name != "a");
            c
        };
        let (inc_rm, _) =
            analyze_incremental(&next, &shrunk, &Edit::RemoveTask("a".into())).unwrap();
        assert_eq!(inc_rm, analyze(&shrunk, None));
    }

    #[test]
    fn incremental_path_declines_degenerate_specs() {
        let spec = light_spec();
        let engine = engine_for(&spec).unwrap();
        // Empty candidate: the full path's vacuous admit applies.
        let empty = SystemSpec {
            processors: spec.processors.clone(),
            resources: spec.resources.clone(),
            tasks: Vec::new(),
        };
        assert!(analyze_incremental(&engine, &empty, &Edit::RemoveTask("a".into())).is_none());
        // Duplicate names have no name-keyed story.
        let mut dup = spec.clone();
        let mut clone = dup.tasks[0].clone();
        clone.processor = 1;
        dup.tasks.push(clone);
        assert!(analyze_incremental(&engine, &dup, &Edit::AddTask("a".into())).is_none());
        assert!(engine_for(&dup).is_none());
    }

    /// Where the round-trip predicate says a spec comes back as written,
    /// `from_system(to_system(spec)) == spec`; everywhere, the spec a
    /// cache entry commits is what [`analyze_with`] returns, and that is
    /// the analyzed system's round trip, as it was before the predicate.
    #[test]
    fn a_spec_round_trips_where_the_predicate_says_so() {
        let family = mpcp_taskgen::WorkloadConfig::default()
            .processors(2)
            .tasks_per_processor(3)
            .resources(1, 1)
            .sections(0, 2);
        let (mut as_written, mut spelled) = (0, 0);
        mpcp_prop::cases(300, 0x41_5eed, |rng| {
            let built = mpcp_taskgen::generate(&family, rng.next_u64());
            let mut spec = SystemSpec::from_system(&built);
            // Priorities spelled out: the rate-monotonic ones the builder
            // would assign, or a permutation of them.
            if rng.chance(0.3) {
                let mut levels: Vec<u32> =
                    built.tasks().iter().map(|t| t.priority().level()).collect();
                if rng.chance(0.5) {
                    for i in (1..levels.len()).rev() {
                        levels.swap(i, rng.range_usize(0, i));
                    }
                }
                for (t, level) in spec.tasks.iter_mut().zip(levels) {
                    t.priority = Some(level);
                }
            }
            let spell_periods = rng.chance(0.4);
            for t in &mut spec.tasks {
                t.deadline = match rng.range_u32(0, 2) {
                    0 if spell_periods => Some(t.period),
                    1 => Some(rng.range_u64(t.period / 2, t.period)),
                    _ => None,
                };
            }
            let allocate = rng.chance(0.2).then_some(AllocDirective {
                processors: 2,
                heuristic: mpcp_alloc::Heuristic::WorstFitDecreasing,
            });
            let full = analyze_with(&spec, allocate, AdmissionProtocol::Mpcp);
            let cache = crate::cache::AnalysisCache::new(16);
            let (entry, _) = cache.get_or_compute(0, &spec, (allocate, AdmissionProtocol::Mpcp));
            assert_eq!(entry.analyzed(spec.clone()), full.analyzed, "{spec:?}");
            let Ok(system) = spec.to_system() else {
                return;
            };
            let system = match allocate {
                Some(d) => match mpcp_alloc::allocate(&system, d.processors, d.heuristic) {
                    Ok(a) => a.system,
                    Err(_) => return,
                },
                None => system,
            };
            let round_trip = SystemSpec::from_system(&system);
            assert_eq!(full.analyzed, round_trip, "{spec:?}");
            if allocate.is_none() && spec.tasks.iter().all(TaskSpec::round_trips) {
                assert_eq!(round_trip, spec);
                as_written += 1;
            } else {
                spelled += u32::from(round_trip != spec);
            }
        });
        assert!(as_written > 40 && spelled > 40, "{as_written} / {spelled}");
    }

    #[test]
    fn session_map_creates_and_counts() {
        let m = SessionMap::new();
        assert!(m.is_empty());
        assert!(m.get("x").is_none());
        let s = m.get_or_create("x");
        s.lock().unwrap().spec = light_spec();
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("x").unwrap().lock().unwrap().spec.tasks.len(), 2);
    }
}
