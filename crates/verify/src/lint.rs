//! Static lints over a [`System`] configuration.
//!
//! Each lint checks one rule a valid MPCP configuration must (or
//! should) obey — the §4 nesting rules, the Theorem 2 priority-band
//! structure, the lock-order partial ordering for nested global
//! sections — and emits [`Diagnostic`]s for violations. Each is one row
//! of [`LINTS`]; run them all with [`lint_system`].
//!
//! | code | lint | severity |
//! |------|------|----------|
//! | V001 | `lock-order-cycle` | error |
//! | V002 | `misscoped-resource` | warning |
//! | V003 | `unused-resource` | warning |
//! | V004 | `mixed-scope-nesting` | error |
//! | V005 | `nested-global-sections` | warning |
//! | V006 | `suspension-in-critical-section` | error |
//! | V007 | `processor-overutilized` | error / warning |
//! | V008 | `non-rm-priorities` | warning |
//! | V009 | `gcs-exceeds-deadline` | error |
//! | V010 | `uncontended-semaphore` | warning |
//! | V011 | `mergeable-adjacent-sections` | warning |
//! | V012 | `dead-ceiling` | warning |
//!
//! Every lint declares a [`LintScope`]: the granularity (whole system,
//! task, resource or processor) at which its findings depend on the
//! configuration. The incremental engine
//! ([`crate::IncrementalAnalysis`]) uses the scope to re-run only the
//! units a [`mpcp_analysis::DirtySet`] names.

use crate::diag::{Diagnostic, Report, Severity};
use mpcp_analysis::{liu_layland_bound, lock_order_cycle};
use mpcp_model::{Scope, Segment, System};
use std::collections::BTreeMap;

/// The granularity at which a lint's findings depend on the system:
/// which *unit* of configuration, when unchanged, guarantees the
/// lint's findings for that unit are unchanged too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintScope {
    /// One unit: the whole system (always re-checked).
    System,
    /// One unit per task, in [`mpcp_model::TaskId`] order.
    Task,
    /// One unit per resource, in [`mpcp_model::ResourceId`] order.
    Resource,
    /// One unit per processor, in [`mpcp_model::ProcessorId`] order.
    Processor,
}

/// Number of units `scope` splits `system` into.
pub fn unit_count(scope: LintScope, system: &System) -> usize {
    match scope {
        LintScope::System => 1,
        LintScope::Task => system.tasks().len(),
        LintScope::Resource => system.resources().len(),
        LintScope::Processor => system.processors().len(),
    }
}

/// One static check over a system configuration: a row of [`LINTS`].
pub struct Lint {
    /// Stable machine-readable code, e.g. `V001`.
    pub code: &'static str,
    /// Kebab-case lint name, e.g. `lock-order-cycle`.
    pub name: &'static str,
    /// Dependency granularity of the lint's findings.
    pub scope: LintScope,
    /// Checks one unit of [`Lint::scope`] (a task, resource or
    /// processor index; `0` for [`LintScope::System`]), appending any
    /// findings to the vector.
    pub(crate) check: fn(&Lint, &System, usize, &mut Vec<Diagnostic>),
}

impl Lint {
    /// A finding of this lint, with no locations and no hint attached.
    fn finding(&self, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(self.code, self.name, severity, message)
    }
}

/// The default lint set, in code order.
pub static LINTS: [Lint; 12] = [
    Lint {
        code: "V001",
        name: "lock-order-cycle",
        scope: LintScope::System,
        check: lock_order,
    },
    Lint {
        code: "V002",
        name: "misscoped-resource",
        scope: LintScope::Resource,
        check: misscoped_resource,
    },
    Lint {
        code: "V003",
        name: "unused-resource",
        scope: LintScope::Resource,
        check: unused_resource,
    },
    Lint {
        code: "V004",
        name: "mixed-scope-nesting",
        scope: LintScope::Task,
        check: mixed_scope_nesting,
    },
    Lint {
        code: "V005",
        name: "nested-global-sections",
        scope: LintScope::Task,
        check: nested_global_sections,
    },
    Lint {
        code: "V006",
        name: "suspension-in-critical-section",
        scope: LintScope::Task,
        check: suspension_in_critical_section,
    },
    Lint {
        code: "V007",
        name: "processor-overutilized",
        scope: LintScope::Processor,
        check: processor_overutilized,
    },
    Lint {
        code: "V008",
        name: "non-rm-priorities",
        scope: LintScope::Processor,
        check: non_rm_priorities,
    },
    Lint {
        code: "V009",
        name: "gcs-exceeds-deadline",
        scope: LintScope::Resource,
        check: gcs_exceeds_deadline,
    },
    Lint {
        code: "V010",
        name: "uncontended-semaphore",
        scope: LintScope::Resource,
        check: uncontended_semaphore,
    },
    Lint {
        code: "V011",
        name: "mergeable-adjacent-sections",
        scope: LintScope::Task,
        check: mergeable_adjacent_sections,
    },
    Lint {
        code: "V012",
        name: "dead-ceiling",
        scope: LintScope::Resource,
        check: dead_ceiling,
    },
];

/// Runs every lint of [`LINTS`] over `system`, lint by lint, each in
/// unit order.
pub fn lint_system(system: &System) -> Report {
    let mut out = Vec::new();
    for lint in &LINTS {
        for unit in 0..unit_count(lint.scope, system) {
            (lint.check)(lint, system, unit, &mut out);
        }
    }
    Report::from_diagnostics(out)
}

fn res_name(system: &System, id: mpcp_model::ResourceId) -> String {
    system.resource(id).name().to_string()
}

fn task_name(system: &System, id: mpcp_model::TaskId) -> String {
    system.task(id).name().to_string()
}

/// V001 — the global lock-order graph must be acyclic (§5.1's partial
/// ordering on nested global semaphores); a cycle means two jobs can
/// deadlock across processors. Wraps [`lock_order_cycle`].
fn lock_order(lint: &Lint, system: &System, _: usize, out: &mut Vec<Diagnostic>) {
    if let Some(cycle) = lock_order_cycle(system) {
        let names: Vec<String> = cycle.iter().map(|&r| res_name(system, r)).collect();
        let mut path = names.clone();
        if let Some(first) = names.first() {
            path.push(first.clone());
        }
        out.push(
            lint.finding(
                Severity::Error,
                format!(
                    "global semaphores are acquired in a cycle: {}",
                    path.join(" -> ")
                ),
            )
            .with_resources(names)
            .with_hint(
                "impose a fixed acquisition order on these semaphores, \
                 or collapse the cycle into one lock group",
            ),
        );
    }
}

/// V002 — a global resource one task-move away from being local: its
/// users span exactly two processors and one side has a single user.
/// Global semaphores are far more expensive than local ones (Theorem 2
/// runs every gcs in the remote-priority band), so flag the cheap fix.
fn misscoped_resource(lint: &Lint, system: &System, unit: usize, out: &mut Vec<Diagnostic>) {
    let usage = &system.info().all_usage()[unit];
    if usage.scope != Scope::Global {
        return;
    }
    let mut by_proc: BTreeMap<usize, Vec<mpcp_model::TaskId>> = BTreeMap::new();
    for &t in &usage.users {
        by_proc
            .entry(system.task(t).processor().index())
            .or_default()
            .push(t);
    }
    if by_proc.len() != 2 {
        return;
    }
    let Some((_, lone)) = by_proc.iter().find(|(_, ts)| ts.len() == 1) else {
        return;
    };
    let Some((home, _)) = by_proc.iter().find(|(_, ts)| ts.len() > 1) else {
        return;
    };
    let lone = lone[0];
    let home_name = system.processors()[*home].name().to_string();
    out.push(
        lint.finding(
            Severity::Warning,
            format!(
                "{} is global only because {} uses it from {}",
                res_name(system, usage.resource),
                task_name(system, lone),
                system.processor(system.task(lone).processor()).name(),
            ),
        )
        .with_tasks([task_name(system, lone)])
        .with_resources([res_name(system, usage.resource)])
        .on_processor(home_name.clone())
        .with_hint(format!(
            "moving {} to {} would make {} a local semaphore",
            task_name(system, lone),
            home_name,
            res_name(system, usage.resource),
        )),
    );
}

/// V003 — a declared resource no task ever locks.
fn unused_resource(lint: &Lint, system: &System, unit: usize, out: &mut Vec<Diagnostic>) {
    let usage = &system.info().all_usage()[unit];
    if usage.users.is_empty() {
        out.push(
            lint.finding(
                Severity::Warning,
                format!(
                    "{} is declared but never used",
                    res_name(system, usage.resource)
                ),
            )
            .with_resources([res_name(system, usage.resource)])
            .with_hint("remove the resource from the system definition"),
        );
    }
}

/// V004 — §4's nesting rule: global and local critical sections must
/// not nest inside one another in either direction. A gcs runs in the
/// remote-priority band of Theorem 2; a local semaphore taken inside it
/// (or a gcs taken inside a local section) breaks the two-band
/// structure the blocking bounds of §5.1 assume.
fn mixed_scope_nesting(lint: &Lint, system: &System, unit: usize, out: &mut Vec<Diagnostic>) {
    let info = system.info();
    let task = &system.tasks()[unit];
    for cs in &info.all_task_use()[unit].sections {
        let outer = info.scope(cs.resource);
        for &inner in &cs.nested {
            let inner_scope = info.scope(inner);
            if outer == inner_scope {
                continue;
            }
            let (o, i) = match outer {
                Scope::Global => ("global", "local"),
                Scope::Local(_) => ("local", "global"),
                Scope::Unused => continue,
            };
            out.push(
                lint.finding(
                    Severity::Error,
                    format!(
                        "{} nests {} section {} inside {} section {}",
                        task.name(),
                        i,
                        res_name(system, inner),
                        o,
                        res_name(system, cs.resource),
                    ),
                )
                .with_tasks([task.name().to_string()])
                .with_resources([res_name(system, cs.resource), res_name(system, inner)])
                .with_hint(
                    "split the outer section so both semaphores \
                     are acquired at the same scope",
                ),
            );
        }
    }
}

/// V005 — nested global sections are legal under a lock-order partial
/// ordering (§5.1) but each nesting level adds remote blocking; suggest
/// collapsing the group into one semaphore when the analysis supports
/// it ([`mpcp_analysis::collapse_nested_globals`]).
fn nested_global_sections(lint: &Lint, system: &System, unit: usize, out: &mut Vec<Diagnostic>) {
    let info = system.info();
    let task = &system.tasks()[unit];
    let mut flagged: Vec<(String, String)> = Vec::new();
    for cs in &info.all_task_use()[unit].sections {
        if info.scope(cs.resource) != Scope::Global {
            continue;
        }
        for &inner in &cs.nested {
            if info.scope(inner) == Scope::Global {
                flagged.push((res_name(system, cs.resource), res_name(system, inner)));
            }
        }
    }
    for (outer, inner) in flagged {
        out.push(
            lint.finding(
                Severity::Warning,
                format!(
                    "{} holds global {} while acquiring global {}",
                    task.name(),
                    outer,
                    inner,
                ),
            )
            .with_tasks([task.name().to_string()])
            .with_resources([outer, inner])
            .with_hint(
                "consider collapsing the nested semaphores into a \
                 single lock group (see collapse_nested_globals)",
            ),
        );
    }
}

/// V006 — a job must not self-suspend while holding a semaphore: the
/// blocking bounds count critical-section *processor demand*, and a
/// suspension inside a section would stall every waiter for the
/// suspension length too (Theorem 1 territory the analysis excludes).
fn suspension_in_critical_section(
    lint: &Lint,
    system: &System,
    unit: usize,
    out: &mut Vec<Diagnostic>,
) {
    let task = &system.tasks()[unit];
    for seg in task.body().segments() {
        if let Segment::Critical(res, inner) = seg {
            if has_suspension(inner) {
                out.push(
                    lint.finding(
                        Severity::Error,
                        format!(
                            "{} self-suspends while holding {}",
                            task.name(),
                            res_name(system, *res),
                        ),
                    )
                    .with_tasks([task.name().to_string()])
                    .with_resources([res_name(system, *res)])
                    .with_hint("move the suspension outside the critical section"),
                );
            }
        }
    }
}

fn has_suspension(segments: &[Segment]) -> bool {
    segments.iter().any(|s| match s {
        Segment::Suspend(_) => true,
        Segment::Compute(_) => false,
        Segment::Critical(_, inner) => has_suspension(inner),
    })
}

/// V007 — per-processor utilization: above 1.0 the processor cannot
/// meet deadlines at all (error); above the Liu–Layland bound for its
/// task count, Theorem 3 cannot admit it even before blocking terms are
/// added (warning).
fn processor_overutilized(lint: &Lint, system: &System, unit: usize, out: &mut Vec<Diagnostic>) {
    let proc = &system.processors()[unit];
    let n = system.tasks_on(proc.id()).len();
    if n == 0 {
        return;
    }
    let util = system.utilization_on(proc.id());
    let ll = liu_layland_bound(n);
    if util > 1.0 {
        out.push(
            lint.finding(
                Severity::Error,
                format!("{} is overutilized: U = {util:.3} > 1.0", proc.name()),
            )
            .on_processor(proc.name().to_string())
            .with_hint("move tasks to another processor or lengthen periods"),
        );
    } else if util > ll {
        out.push(
            lint.finding(
                Severity::Warning,
                format!(
                    "{} exceeds the Liu-Layland bound: U = {util:.3} > {ll:.3} \
                         for {n} tasks",
                    proc.name(),
                ),
            )
            .on_processor(proc.name().to_string())
            .with_hint(
                "Theorem 3 cannot admit this processor before blocking \
                     is even added; check the response-time analysis",
            ),
        );
    }
}

/// V008 — priorities that invert the rate-monotonic order on a
/// processor. Theorem 3 and the §5.1 bounds assume RM priorities; an
/// inversion is legal but silently voids the schedulability story.
fn non_rm_priorities(lint: &Lint, system: &System, unit: usize, out: &mut Vec<Diagnostic>) {
    let proc = &system.processors()[unit];
    let tasks = system.tasks_on(proc.id());
    for a in &tasks {
        for b in &tasks {
            if a.priority() > b.priority() && a.period() > b.period() {
                out.push(
                    lint.finding(
                        Severity::Warning,
                        format!(
                            "{} (period {}) outranks {} (period {})",
                            a.name(),
                            a.period(),
                            b.name(),
                            b.period(),
                        ),
                    )
                    .with_tasks([a.name().to_string(), b.name().to_string()])
                    .on_processor(proc.name().to_string())
                    .with_hint(
                        "assign rate-monotonic priorities (shorter period = \
                             higher priority) or re-derive the blocking bounds",
                    ),
                );
            }
        }
    }
}

/// V009 — a single remote global critical section already exceeds a
/// user's deadline. Factor 2 of §5.1 bounds the wait for a semaphore by
/// the longest gcs of other users; if that alone is at least some
/// user's deadline, no priority assignment can save the task.
fn gcs_exceeds_deadline(lint: &Lint, system: &System, unit: usize, out: &mut Vec<Diagnostic>) {
    let info = system.info();
    let usage = &info.all_usage()[unit];
    if usage.scope != Scope::Global {
        return;
    }
    // Longest section per user, then the overall best and the best
    // excluding the best's owner: "longest other user's section"
    // falls out without the quadratic per-pair body walk.
    let per_user: Vec<mpcp_model::Dur> = usage
        .users
        .iter()
        .map(|&u| {
            info.task_use(u)
                .sections
                .iter()
                .filter(|cs| cs.resource == usage.resource)
                .map(|cs| cs.duration)
                .max()
                .unwrap_or(mpcp_model::Dur::ZERO)
        })
        .collect();
    let best = per_user
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| d)
        .map(|(i, &d)| (i, d));
    let second = per_user
        .iter()
        .enumerate()
        .filter(|&(i, _)| Some(i) != best.map(|b| b.0))
        .map(|(_, &d)| d)
        .max()
        .unwrap_or(mpcp_model::Dur::ZERO);
    for (ti, &t) in usage.users.iter().enumerate() {
        let task = system.task(t);
        let longest_other = match best {
            Some((bi, bd)) if bi != ti => bd,
            _ => second,
        };
        if longest_other >= task.deadline() && !longest_other.is_zero() {
            out.push(
                lint.finding(
                    Severity::Error,
                    format!(
                        "waiting once for {} can cost {} {} ticks, at or past \
                             its deadline of {}",
                        res_name(system, usage.resource),
                        task.name(),
                        longest_other.ticks(),
                        task.deadline(),
                    ),
                )
                .with_tasks([task.name().to_string()])
                .with_resources([res_name(system, usage.resource)])
                .with_hint("shorten the section or split the resource"),
            );
        }
    }
}

/// V010 — a semaphore with exactly one user serializes nothing: every
/// wait operation is uncontended, yet under MPCP a single-user global
/// semaphore still raises its user's effective priority and still
/// contributes remote blocking to *other* tasks through factor 4.
fn uncontended_semaphore(lint: &Lint, system: &System, unit: usize, out: &mut Vec<Diagnostic>) {
    let usage = &system.info().all_usage()[unit];
    if usage.users.len() != 1 {
        return;
    }
    let only = usage.users[0];
    out.push(
        lint.finding(
            Severity::Warning,
            format!(
                "{} is only ever locked by {}; the semaphore arbitrates nothing",
                res_name(system, usage.resource),
                task_name(system, only),
            ),
        )
        .with_tasks([task_name(system, only)])
        .with_resources([res_name(system, usage.resource)])
        .with_hint(
            "drop the semaphore (inline the section as plain computation) \
             unless a future sharer is planned",
        ),
    );
}

/// V011 — two directly consecutive critical sections on the same
/// semaphore. Each acquisition pays the full MPCP blocking term, so
/// back-to-back sections on one semaphore double the worst-case wait
/// for no added concurrency; merging them costs nothing a preemption
/// point would not also cost.
fn mergeable_adjacent_sections(
    lint: &Lint,
    system: &System,
    unit: usize,
    out: &mut Vec<Diagnostic>,
) {
    let task = &system.tasks()[unit];
    let mut hits = Vec::new();
    adjacent_same_resource(task.body().segments(), &mut hits);
    for res in hits {
        out.push(
            lint.finding(
                Severity::Warning,
                format!(
                    "{} releases and immediately re-acquires {}",
                    task.name(),
                    res_name(system, res),
                ),
            )
            .with_tasks([task.name().to_string()])
            .with_resources([res_name(system, res)])
            .with_hint(
                "merge the adjacent sections into one to pay the \
                 blocking term once instead of twice",
            ),
        );
    }
}

fn adjacent_same_resource(segments: &[Segment], hits: &mut Vec<mpcp_model::ResourceId>) {
    let mut prev: Option<mpcp_model::ResourceId> = None;
    for seg in segments {
        match seg {
            Segment::Critical(res, inner) => {
                if prev == Some(*res) {
                    hits.push(*res);
                }
                prev = Some(*res);
                adjacent_same_resource(inner, hits);
            }
            _ => prev = None,
        }
    }
}

/// V012 — a local resource whose priority-ceiling protection is dead
/// weight: every one of its users also enters some global critical
/// section, where MPCP already hoists it above every normal-priority
/// task on the processor. The local ceiling then never changes which
/// task runs, so the resource could be a plain (non-ceiling) lock.
fn dead_ceiling(lint: &Lint, system: &System, unit: usize, out: &mut Vec<Diagnostic>) {
    let info = system.info();
    let usage = &info.all_usage()[unit];
    let proc = match usage.scope {
        Scope::Local(p) => p,
        _ => return,
    };
    if usage.users.is_empty()
        || !usage
            .users
            .iter()
            .all(|&u| info.task_use(u).gcs_count() > 0)
    {
        return;
    }
    let users: Vec<String> = usage.users.iter().map(|&u| task_name(system, u)).collect();
    out.push(
        lint.finding(
            Severity::Warning,
            format!(
                "every user of local {} also enters a global section; its \
                 ceiling never decides who runs",
                res_name(system, usage.resource),
            ),
        )
        .with_tasks(users)
        .with_resources([res_name(system, usage.resource)])
        .on_processor(system.processor(proc).name().to_string())
        .with_hint(
            "the global-section priority boost already dominates the \
             local ceiling; a plain lock suffices here",
        ),
    );
}
