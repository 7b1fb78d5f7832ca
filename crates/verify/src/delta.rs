//! Incremental ("delta") analysis with differential self-certification.
//!
//! [`IncrementalAnalysis`] keeps a lint report and one [`Analysis`]'
//! terms and rate-monotonic rows cached per named unit (task, resource
//! or processor). Applying an [`Edit`] consults the dependency graph
//! ([`mpcp_analysis::dirty_set`], for the engine's analysis) and
//! recomputes only the units the edit can affect, merging the fresh
//! findings into the cached report.
//!
//! The merged state renders to a canonical snapshot
//! ([`IncrementalAnalysis::snapshot_json`], format `mpcp-audit-v2`)
//! that is **byte-identical** to the one an independent full recompute
//! produces ([`full_snapshot_json`]). Audit mode — the CLI's
//! `mpcp audit`, the sweep's differential arm and the service's sampled
//! in-flight checks — runs both paths and treats any difference as a
//! hard error, so a wrong dirty rule cannot silently ship a stale
//! admission verdict.
//!
//! Reused lint findings are cloned from the cache, reused terms and
//! schedulability rows are reused verbatim, and recomputed
//! rows run the exact code the full pass runs, in the same order —
//! which is what makes byte-for-byte comparison a meaningful oracle.

use crate::diag::{write_json_str, Diagnostic, Report};
use crate::lint::{unit_count, LintScope, LINTS};
use mpcp_analysis::{
    dirty_set, Analysis, BlockingConfig, BoundSet, DeltaBounds, DeltaStats, DepGraph, Edit,
};
use mpcp_model::{Body, ModelError, System, Task, TaskDef};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counters describing how much work incremental updates avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Edits applied to the engine.
    pub updates: u64,
    /// Lint units (per-lint tasks/resources/processors) re-checked.
    pub lint_units_recomputed: u64,
    /// Lint units whose cached findings were reused.
    pub lint_units_reused: u64,
    /// Tasks whose terms were recomputed.
    pub tasks_recomputed: u64,
    /// Tasks whose cached terms were reused.
    pub tasks_reused: u64,
    /// Processors whose rate-monotonic rows were recomputed.
    pub processors_recomputed: u64,
    /// Processors whose cached rows were reused.
    pub processors_reused: u64,
    /// Tasks whose dependency-graph node an edited system took over
    /// from the version before it.
    pub tasks_shared: u64,
    /// Tasks whose node an edit built.
    pub tasks_rebuilt: u64,
}

impl EngineStats {
    fn absorb_bounds(&mut self, s: DeltaStats) {
        self.tasks_recomputed += s.tasks_recomputed;
        self.tasks_reused += s.tasks_reused;
        self.processors_recomputed += s.processors_recomputed;
        self.processors_reused += s.processors_reused;
    }
}

/// Per-lint cache of findings keyed by unit name ([`LintScope::System`]
/// uses the single key `""`). Units with no findings have no entry —
/// clean systems keep the cache near-empty, so cloning an engine and
/// merging a report stay cheap. The invariant making absence mean
/// "checked, clean" is that the engine seeds the cache with a
/// `DirtySet::full()` update and every later update covers all changed
/// units (which a [`mpcp_analysis::dirty_set`] guarantees).
#[derive(Clone)]
struct LintCache {
    per_lint: Vec<BTreeMap<String, Vec<Diagnostic>>>,
}

impl LintCache {
    fn empty() -> LintCache {
        LintCache {
            per_lint: LINTS.iter().map(|_| BTreeMap::new()).collect(),
        }
    }

    /// Re-lints the units named by `dirty` (all of them when
    /// `dirty.full`), reusing cached findings for the rest, and returns
    /// the merged report in full-pass order (lint order, then unit
    /// order, as [`crate::lint_system`] emits them).
    fn update(
        &mut self,
        system: &System,
        dirty: &mpcp_analysis::DirtySet,
        stats: &mut EngineStats,
    ) -> Report {
        // Name -> unit index, via the system's cached name-sorted
        // tables (building per-update maps here dominated the cost of
        // small updates).
        let unit_of = |scope: LintScope, name: &str| -> Option<usize> {
            match scope {
                LintScope::System => Some(0),
                LintScope::Task => system.task_index_by_name(name),
                LintScope::Resource => system.resource_index_by_name(name),
                LintScope::Processor => system.processor_index_by_name(name),
            }
        };
        let name_of = |scope: LintScope, unit: usize| -> &str {
            match scope {
                LintScope::System => "",
                LintScope::Task => system.tasks()[unit].name(),
                LintScope::Resource => system.resources()[unit].name(),
                LintScope::Processor => system.processors()[unit].name(),
            }
        };
        let mut diags = Vec::new();
        for (i, lint) in LINTS.iter().enumerate() {
            let scope = lint.scope;
            let cache = &mut self.per_lint[i];
            let units = unit_count(scope, system) as u64;
            let recheck =
                |cache: &mut BTreeMap<String, Vec<Diagnostic>>, key: &str, unit: usize| {
                    let mut out = Vec::new();
                    (lint.check)(lint, system, unit, &mut out);
                    if out.is_empty() {
                        cache.remove(key);
                    } else {
                        cache.insert(key.to_string(), out);
                    }
                };
            if scope == LintScope::System {
                stats.lint_units_recomputed += 1;
                recheck(cache, "", 0);
            } else {
                let names = match scope {
                    LintScope::Task => &dirty.tasks,
                    LintScope::Resource => &dirty.resources,
                    LintScope::Processor => &dirty.processors,
                    LintScope::System => unreachable!(),
                };
                // Entries for removed or renamed units.
                cache.retain(|k, _| unit_of(scope, k).is_some());
                let mut recomputed = 0u64;
                if dirty.full {
                    for unit in 0..units as usize {
                        recheck(cache, name_of(scope, unit), unit);
                    }
                    recomputed = units;
                } else {
                    for name in names {
                        if let Some(unit) = unit_of(scope, name) {
                            recheck(cache, name, unit);
                            recomputed += 1;
                        }
                    }
                }
                stats.lint_units_recomputed += recomputed;
                stats.lint_units_reused += units - recomputed;
            }
            // Merge in unit order; the cache is keyed (and thus
            // iterated) by name, so sort the few non-empty entries.
            let mut entries: Vec<(usize, &Vec<Diagnostic>)> = cache
                .iter()
                .map(|(k, v)| (unit_of(scope, k).expect("cache retained to live units"), v))
                .collect();
            entries.sort_unstable_by_key(|e| e.0);
            for (_, found) in entries {
                diags.extend(found.iter().cloned());
            }
        }
        Report::from_diagnostics(diags)
    }
}

/// A lint report plus one analysis' blocking/schedulability state kept
/// up to date across [`Edit`]s, recomputing only what each edit can
/// affect.
///
/// Cloning clones the caches, so a transactional caller can apply an
/// edit to a copy and commit the copy only when the result is accepted.
#[derive(Clone)]
pub struct IncrementalAnalysis {
    // Arc'd because `apply` replaces them wholesale and never mutates
    // them in place: transactional clones of the engine share them.
    system: std::sync::Arc<System>,
    graph: std::sync::Arc<DepGraph>,
    lint: LintCache,
    report: Report,
    analysis: Analysis,
    bounds: Option<DeltaBounds>,
    error: Option<String>,
    stats: EngineStats,
}

impl IncrementalAnalysis {
    /// Builds the engine with a full lint pass and `analysis` of
    /// `system`.
    ///
    /// Returns `Err` if task names are not unique: the engine keys its
    /// caches by name, so duplicate names have no incremental story
    /// (callers should fall back to plain full analysis).
    pub fn new(system: System, analysis: Analysis) -> Result<IncrementalAnalysis, String> {
        let graph = DepGraph::build(&system, None);
        if graph.has_duplicate_task_names() {
            return Err(DUP_NAMES_ERROR.into());
        }
        let mut engine = IncrementalAnalysis {
            system: std::sync::Arc::new(system),
            graph: std::sync::Arc::new(graph),
            lint: LintCache::empty(),
            report: Report::new(),
            analysis,
            bounds: None,
            error: None,
            stats: EngineStats::default(),
        };
        let full = mpcp_analysis::DirtySet::full();
        engine.report = engine.lint.update(&engine.system, &full, &mut engine.stats);
        match DeltaBounds::full(&engine.system, analysis) {
            Ok((b, s)) => {
                engine.stats.absorb_bounds(s);
                engine.bounds = Some(b);
            }
            Err(e) => engine.error = Some(e.to_string()),
        }
        Ok(engine)
    }

    /// The system the cached state describes.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The dependency graph of [`IncrementalAnalysis::system`].
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The merged lint report.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// The Theorem 3 verdict, or `None` when the blocking analysis
    /// rejected the system (see [`IncrementalAnalysis::analysis_error`]).
    pub fn schedulable(&self) -> Option<bool> {
        self.bounds().map(|set| set.schedulable())
    }

    /// Why the blocking analysis rejected the system, if it did.
    pub fn analysis_error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// The cached terms and rows as the system's [`BoundSet`] under the
    /// engine's analysis, when that analysis succeeded.
    pub fn bounds(&self) -> Option<BoundSet> {
        self.bounds.as_ref().map(|b| b.bound_set(&self.system))
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Replaces the system with `new_system`, recomputing only the
    /// units `edit` can affect per the dependency graph. The edit is a
    /// *hint*: misdeclared edits are caught by the graph diff and only
    /// widen the dirty set (or force a full recompute), never shrink it.
    ///
    /// The new system's derived facts and graph are built with the
    /// engine's own as hints ([`System::info_after`],
    /// [`DepGraph::build`]): whatever describes a task the edit left
    /// alone is shared with the previous version, not derived again.
    pub fn apply(&mut self, new_system: System, edit: &Edit) {
        new_system.info_after(&self.system);
        let new_graph = DepGraph::build(&new_system, Some(&self.graph));
        let shared = new_graph.shared_nodes();
        self.stats.tasks_shared += shared as u64;
        self.stats.tasks_rebuilt += (new_graph.task_count() - shared) as u64;
        let dirty = if new_graph.has_duplicate_task_names() {
            mpcp_analysis::DirtySet::full()
        } else {
            dirty_set(&self.graph, &new_graph, edit, self.analysis)
        };
        self.stats.updates += 1;
        if new_graph.has_duplicate_task_names() {
            // Name-keyed caches cannot represent this system; degrade to
            // an error the full path reproduces (see full_snapshot_json).
            self.report = crate::lint::lint_system(&new_system);
            self.bounds = None;
            self.error = Some(DUP_NAMES_ERROR.into());
        } else {
            self.report = self.lint.update(&new_system, &dirty, &mut self.stats);
            let refresh = match self.bounds.as_mut() {
                Some(b) => b.update(&new_system, &dirty),
                None => DeltaBounds::full(&new_system, self.analysis).map(|(b, s)| {
                    self.bounds = Some(b);
                    s
                }),
            };
            match refresh {
                Ok(s) => {
                    self.stats.absorb_bounds(s);
                    self.error = None;
                }
                Err(e) => {
                    self.bounds = None;
                    self.error = Some(e.to_string());
                }
            }
        }
        self.system = std::sync::Arc::new(new_system);
        self.graph = std::sync::Arc::new(new_graph);
    }

    /// Canonical `mpcp-audit-v2` snapshot of the cached state; compare
    /// with [`full_snapshot_json`] of the same system and analysis to
    /// certify the incremental path.
    pub fn snapshot_json(&self) -> String {
        let bounds = self.bounds();
        render_snapshot(
            &self.system,
            &self.report,
            self.analysis,
            self.error.as_deref(),
            bounds.as_ref(),
        )
    }
}

const DUP_NAMES_ERROR: &str = "duplicate task names; incremental analysis needs unique names";

/// Independent full recompute of the `mpcp-audit-v2` snapshot of
/// `system` under `analysis`, sharing no cached state with any engine.
/// The differential oracle: a correct incremental engine matches this
/// byte for byte.
pub fn full_snapshot_json(system: &System, analysis: Analysis) -> String {
    // An engine derives its system's facts by sharing with the previous
    // version's; the reference derives its own, or a wrong sharing rule
    // would corrupt both sides of the comparison alike.
    let system = &system.detached();
    let report = crate::lint::lint_system(system);
    let render =
        |error: Option<&str>, bounds| render_snapshot(system, &report, analysis, error, bounds);
    if system.has_duplicate_task_names() {
        return render(Some(DUP_NAMES_ERROR), None);
    }
    match analysis.bounds(system, BlockingConfig::paper()) {
        Ok(bounds) => render(None, Some(&bounds)),
        Err(e) => render(Some(&e.to_string()), None),
    }
}

fn render_snapshot(
    system: &System,
    report: &Report,
    analysis: Analysis,
    error: Option<&str>,
    bounds: Option<&BoundSet>,
) -> String {
    let rows = bounds.map_or(&[][..], BoundSet::per_task);
    // Every row of a 64-task snapshot fits in 256 bytes, every finding
    // in 512.
    let mut out = String::with_capacity(256 * (rows.len() + 2) + 512 * report.len());
    // Writing to a String cannot fail, so `write!`'s results are dropped.
    let _ = write!(
        out,
        "{{\n  \"format\": \"mpcp-audit-v2\",\n  \"analysis\": \"{analysis}\",\n  \"lint\": "
    );
    report.write_json(&mut out, "  ");
    out.push_str(",\n  \"analysis_error\": ");
    match error {
        Some(e) => write_json_str(&mut out, e),
        None => out.push_str("null"),
    }
    out.push_str(",\n");
    match bounds {
        None => out.push_str("  \"bounds\": null,\n  \"sched\": null,\n  \"schedulable\": null\n"),
        Some(bounds) => {
            let sep = |i: usize| if i + 1 < rows.len() { "," } else { "" };
            out.push_str("  \"bounds\": [\n");
            for (i, row) in rows.iter().enumerate() {
                out.push_str("    {\"task\": ");
                write_json_str(&mut out, system.task(row.task).name());
                for (name, term) in row.terms() {
                    out.push_str(", ");
                    write_json_str(&mut out, name);
                    let _ = write!(out, ": {}", term.ticks());
                }
                let _ = writeln!(out, ", \"total\": {}}}{}", row.blocking.ticks(), sep(i));
            }
            out.push_str("  ],\n  \"sched\": [\n");
            for (i, row) in rows.iter().enumerate() {
                out.push_str("    {\"task\": ");
                write_json_str(&mut out, system.task(row.task).name());
                out.push_str(", \"processor\": ");
                write_json_str(&mut out, system.processor(row.processor).name());
                let _ = writeln!(
                    out,
                    ", \"demand\": {:?}, \"bound\": {:?}, \"ok\": {}}}{}",
                    row.demand,
                    row.bound,
                    row.ok,
                    sep(i),
                );
            }
            let _ = writeln!(out, "  ],\n  \"schedulable\": {}", bounds.schedulable());
        }
    }
    out.push_str("}\n");
    out
}

/// `system` minus the task called `name` (a no-op clone if absent).
pub fn without_task(system: &System, name: &str) -> Result<System, ModelError> {
    let kept = system.tasks().iter().filter(|t| t.name() != name);
    system.with_tasks(kept.map(Task::to_def))
}

/// `system` plus a copy of `donor`'s task called `name`, appended after
/// the existing tasks.
///
/// # Panics
///
/// Panics if `donor` has no task called `name`.
pub fn with_task_from(system: &System, donor: &System, name: &str) -> Result<System, ModelError> {
    let t = donor
        .tasks()
        .iter()
        .find(|t| t.name() == name)
        .unwrap_or_else(|| panic!("donor has no task {name}"));
    system.with_tasks(system.tasks().iter().chain([t]).map(Task::to_def))
}

/// `system` with the definition of the task called `name` passed
/// through `edit`, every other task carried over unchanged.
fn with_task_edited(
    system: &System,
    name: &str,
    edit: impl Fn(&Task, TaskDef) -> TaskDef,
) -> Result<System, ModelError> {
    system.with_tasks(system.tasks().iter().map(|t| {
        if t.name() == name {
            edit(t, t.to_def())
        } else {
            t.to_def()
        }
    }))
}

/// `system` with `name`'s period (and deadline, scaled identically)
/// multiplied by `factor` — a modify-task edit that moves blocking
/// bounds and Theorem 3 rows without touching the task's body.
pub fn with_scaled_period(system: &System, name: &str, factor: u64) -> Result<System, ModelError> {
    with_task_edited(system, name, |t, def| {
        def.period(t.period().ticks() * factor)
            .deadline(t.deadline().ticks() * factor)
    })
}

/// `system` with `name`'s body replaced — a modify-task edit that can
/// strip a task down to plain computation or give it critical sections
/// and suspensions back.
pub fn with_body(system: &System, name: &str, body: &Body) -> Result<System, ModelError> {
    with_task_edited(system, name, |_, def| def.body(body.clone()))
}

/// The audit edit script: for each of `system`'s first `tasks` tasks,
/// in order — double its period, remove it, re-add it (both skipped for
/// the last task standing: an empty system has no incremental story),
/// strip its body to plain computation and restore it, a modify-task
/// edit across the section-free boundary in each direction. Returned as
/// the pure sequence of `(edit, system after it)`, each derived from
/// its predecessor, so every consumer (`mpcp audit`, the sweep's audit
/// arm) drives an [`IncrementalAnalysis`] through exactly the same
/// edits.
///
/// # Errors
///
/// A [`ModelError`] if an edited system fails validation (task names
/// shared by every task, say).
pub fn audit_script(system: &System, tasks: usize) -> Result<Vec<(Edit, System)>, ModelError> {
    /// The system the next edit applies to.
    fn latest<'a>(script: &'a [(Edit, System)], base: &'a System) -> &'a System {
        script.last().map_or(base, |(_, s)| s)
    }
    let mut script: Vec<(Edit, System)> = Vec::new();
    for task in system.tasks().iter().take(tasks) {
        let name = task.name();
        let scaled = with_scaled_period(latest(&script, system), name, 2)?;
        script.push((Edit::ModifyTask(name.to_owned()), scaled));
        if latest(&script, system).tasks().len() > 1 {
            let removed = without_task(latest(&script, system), name)?;
            let readded = with_task_from(&removed, latest(&script, system), name)?;
            script.push((Edit::RemoveTask(name.to_owned()), removed));
            script.push((Edit::AddTask(name.to_owned()), readded));
        }
        let plain = Body::builder().compute(task.wcet().ticks()).build();
        for body in [&plain, task.body()] {
            let flipped = with_body(latest(&script, system), name, body)?;
            script.push((Edit::ModifyTask(name.to_owned()), flipped));
        }
    }
    Ok(script)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> System {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sg = b.add_resource("SG");
        let sl = b.add_resource("SL");
        b.add_task(
            TaskDef::new("t0", p[0]).period(20).priority(4).body(
                Body::builder()
                    .compute(1)
                    .critical(sg, |c| c.compute(2))
                    .critical(sl, |c| c.compute(1))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("t1", p[0]).period(40).priority(3).body(
                Body::builder()
                    .compute(2)
                    .critical(sl, |c| c.compute(1))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("r0", p[1]).period(50).priority(2).body(
                Body::builder()
                    .compute(3)
                    .critical(sg, |c| c.compute(2))
                    .build(),
            ),
        );
        b.build().unwrap()
    }

    #[test]
    fn fresh_engine_matches_full_snapshot() {
        let sys = base();
        let engine = IncrementalAnalysis::new(sys.clone(), Analysis::Mpcp).unwrap();
        assert_eq!(
            engine.snapshot_json(),
            full_snapshot_json(&sys, Analysis::Mpcp)
        );
    }

    #[test]
    fn edit_sequence_stays_certified_under_every_analysis() {
        let sys = base();
        let removed = without_task(&sys, "t1").unwrap();
        let readded = with_task_from(&removed, &sys, "t1").unwrap();
        let scaled = with_scaled_period(&readded, "r0", 2).unwrap();
        for analysis in Analysis::ALL {
            let mut engine = IncrementalAnalysis::new(sys.clone(), analysis).unwrap();
            for (next, edit) in [
                (&removed, Edit::RemoveTask("t1".into())),
                (&readded, Edit::AddTask("t1".into())),
                (&scaled, Edit::ModifyTask("r0".into())),
            ] {
                engine.apply(next.clone(), &edit);
                assert_eq!(engine.snapshot_json(), full_snapshot_json(next, analysis));
            }
        }
    }

    /// The script both `mpcp audit` and the sweep arm replay: five
    /// edits per task, ending where it began, the engine certified
    /// after each; a lone task is never removed.
    #[test]
    fn audit_script_is_five_certified_edits_per_task() {
        let sys = base();
        let script = audit_script(&sys, 2).unwrap();
        let edits: Vec<String> = script.iter().map(|(e, _)| e.to_string()).collect();
        let per_task = |n: &str| {
            ["modify", "remove", "add", "modify", "modify"].map(|op| format!("{op}-task {n}"))
        };
        assert_eq!(edits, [per_task("t0"), per_task("t1")].concat());
        let mut engine = IncrementalAnalysis::new(sys.clone(), Analysis::Mpcp).unwrap();
        for (edit, next) in script {
            engine.apply(next.clone(), &edit);
            assert_eq!(
                engine.snapshot_json(),
                full_snapshot_json(&next, Analysis::Mpcp),
                "{edit}"
            );
            // What the engine derived by sharing with the version before
            // is what the same system derives alone.
            let alone = next.detached();
            assert_eq!(engine.system().info(), alone.info(), "{edit}");
            assert_eq!(*engine.graph(), DepGraph::build(&alone, None), "{edit}");
        }
        // Re-added tasks move to the end and keep their doubled
        // periods; bodies are back to the originals.
        let names: Vec<&str> = engine.system().tasks().iter().map(Task::name).collect();
        assert_eq!(names, ["r0", "t0", "t1"]);
        let t0 = &engine.system().tasks()[1];
        assert_eq!(t0.body(), sys.tasks()[0].body());
        assert_eq!(t0.period(), sys.tasks()[0].period() * 2);

        let lone = sys.with_tasks([sys.tasks()[0].to_def()]).unwrap();
        let ops: Vec<String> = audit_script(&lone, 9)
            .unwrap()
            .iter()
            .map(|(e, _)| e.to_string())
            .collect();
        assert_eq!(ops, ["modify-task t0"; 3]);
    }

    #[test]
    fn analysis_errors_round_trip_and_recover() {
        let sys = base();
        let mut engine = IncrementalAnalysis::new(sys.clone(), Analysis::Mpcp).unwrap();

        // Nested globals: the blocking analysis rejects the system but
        // the lint report still renders, identically on both paths.
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sa = b.add_resource("SG");
        let sb = b.add_resource("SL");
        b.add_task(
            TaskDef::new("t0", p[0]).period(20).priority(3).body(
                Body::builder()
                    .critical(sa, |c| c.compute(1).critical(sb, |c| c.compute(1)))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("r0", p[1])
                .period(50)
                .priority(2)
                .body(Body::builder().critical(sa, |c| c.compute(1)).build()),
        );
        b.add_task(
            TaskDef::new("r1", p[1])
                .period(80)
                .priority(1)
                .body(Body::builder().critical(sb, |c| c.compute(1)).build()),
        );
        let bad = b.build().unwrap();
        engine.apply(bad.clone(), &Edit::ModifyTask("t0".into()));
        assert!(engine.analysis_error().is_some());
        assert_eq!(
            engine.snapshot_json(),
            full_snapshot_json(&bad, Analysis::Mpcp)
        );

        // And recovery back to a clean system goes through a fresh full
        // bounds computation.
        engine.apply(sys.clone(), &Edit::ModifyTask("t0".into()));
        assert!(engine.analysis_error().is_none());
        assert_eq!(
            engine.snapshot_json(),
            full_snapshot_json(&sys, Analysis::Mpcp)
        );
    }

    #[test]
    fn incremental_updates_reuse_work() {
        let sys = base();
        let mut engine = IncrementalAnalysis::new(sys.clone(), Analysis::Mpcp).unwrap();
        let before = engine.stats();
        let scaled = with_scaled_period(&sys, "r0", 2).unwrap();
        engine.apply(scaled, &Edit::ModifyTask("r0".into()));
        let after = engine.stats();
        assert!(
            after.lint_units_reused > before.lint_units_reused,
            "lint cache never reused: {after:?}"
        );
    }
}
