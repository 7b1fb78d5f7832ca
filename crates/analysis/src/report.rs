//! Text rendering of the paper's tables.

use crate::BoundSet;
use mpcp_core::{CeilingTable, GcsPriorities};
use mpcp_model::{Scope, System};
use std::fmt::Write as _;

/// Renders the priority ceilings of every used semaphore — the format of
/// the paper's Table 4-1.
pub fn ceiling_table(system: &System) -> String {
    let info = system.info();
    let ceilings = CeilingTable::compute(system);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<10} {:<14}",
        "semaphore", "scope", "priority ceiling"
    );
    for u in info.all_usage() {
        let scope = match u.scope {
            Scope::Local(p) => format!("local({})", system.processor(p).name()),
            Scope::Global => "global".to_owned(),
            Scope::Unused => continue,
        };
        let _ = writeln!(
            out,
            "{:<12} {:<10} {:<14}",
            system.resource(u.resource).name(),
            scope,
            ceilings.ceiling(u.resource).to_string()
        );
    }
    out
}

/// Renders the normal execution priority of every global critical section
/// — the format of the paper's Table 4-2.
pub fn gcs_priority_table(system: &System) -> String {
    let info = system.info();
    let gcs = GcsPriorities::compute(system);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:<16}",
        "task", "semaphore", "gcs priority"
    );
    for task in system.tasks() {
        // One row per distinct (task, semaphore) pair.
        let mut seen: Vec<mpcp_model::ResourceId> = Vec::new();
        for cs in &info.task_use(task.id()).global_sections {
            if seen.contains(&cs.resource) {
                continue;
            }
            seen.push(cs.resource);
            let p = gcs
                .of(task.id(), cs.resource)
                .expect("gcs priority exists for users");
            let _ = writeln!(
                out,
                "{:<8} {:<12} {:<16}",
                task.name(),
                system.resource(cs.resource).name(),
                p.to_string()
            );
        }
    }
    out
}

/// Renders the named blocking terms of every task: one `{:>6}` column
/// per factor, their sum `B_i`, and — for the analyses that charge a
/// deferred-execution penalty — the `defer` term and the total. Under
/// MPCP this is the §5.1 table (F1–F5), under DPCP its §5.2 counterpart
/// (F4', F5').
pub fn blocking_table(system: &System, bounds: &BoundSet) -> String {
    let names = bounds.analysis().term_names();
    let (factors, defer) = match names.split_last() {
        Some((&"defer", factors)) => (factors, true),
        _ => (names, false),
    };
    let mut out = String::new();
    let _ = write!(out, "{:<8}", "task");
    for name in factors {
        let _ = write!(out, " {name:>6}");
    }
    let _ = write!(out, " {:>8}", "B_i");
    if defer {
        let _ = write!(out, " {:>8} {:>8}", "defer", "total");
    }
    out.push('\n');
    for b in bounds.per_task() {
        let _ = write!(out, "{:<8}", system.task(b.task).name());
        for (_, d) in b.terms().take(factors.len()) {
            let _ = write!(out, " {:>6}", d.ticks());
        }
        let _ = write!(out, " {:>8}", b.factors().ticks());
        if let Some(penalty) = b.term("defer") {
            let _ = write!(out, " {:>8} {:>8}", penalty.ticks(), b.blocking.ticks());
        }
        out.push('\n');
    }
    out
}

/// Renders the per-task rows of the schedulability test and the verdict
/// (Theorem 3 under MPCP/DPCP).
pub fn sched_table(system: &System, bounds: &BoundSet) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<6} {:>10} {:>10} {:>6}",
        "task", "proc", "demand", "LL-bound", "ok"
    );
    for t in bounds.per_task() {
        let _ = writeln!(
            out,
            "{:<8} {:<6} {:>10.4} {:>10.4} {:>6}",
            system.task(t.task).name(),
            system.processor(t.processor).name(),
            t.demand,
            t.bound,
            if t.ok { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(
        out,
        "schedulable: {}",
        if bounds.schedulable() { "yes" } else { "NO" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analysis, BlockingConfig};
    use mpcp_model::{Body, System, TaskDef};

    fn sample() -> System {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sl = b.add_resource("S_local");
        let sg = b.add_resource("S_glob");
        b.add_task(
            TaskDef::new("hi", p[0]).period(100).priority(2).body(
                Body::builder()
                    .critical(sl, |c| c.compute(1))
                    .critical(sg, |c| c.compute(2))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("lo", p[1])
                .period(200)
                .priority(1)
                .body(Body::builder().critical(sg, |c| c.compute(3)).build()),
        );
        b.add_task(
            TaskDef::new("l2", p[0])
                .period(300)
                .priority(0)
                .body(Body::builder().critical(sl, |c| c.compute(1)).build()),
        );
        b.build().unwrap()
    }

    #[test]
    fn tables_mention_all_parts() {
        let sys = sample();
        let ct = ceiling_table(&sys);
        assert!(ct.contains("S_local"));
        assert!(ct.contains("S_glob"));
        assert!(ct.contains("global"));
        assert!(ct.contains("PG+"));

        let gt = gcs_priority_table(&sys);
        assert!(gt.contains("hi"));
        assert!(gt.contains("lo"));
        assert!(gt.contains("PG+"));

        let bounds = Analysis::Mpcp
            .bounds(&sys, BlockingConfig::paper())
            .unwrap();
        let bt = blocking_table(&sys, &bounds);
        assert!(bt.contains("F5") && bt.contains("defer") && bt.contains("total"));
        assert!(bt.contains("hi"));

        let st = sched_table(&sys, &bounds);
        assert!(st.contains("schedulable"));
    }

    #[test]
    fn blocking_table_follows_the_named_terms() {
        let sys = sample();
        let dpcp = Analysis::Dpcp
            .bounds(&sys, BlockingConfig::paper())
            .unwrap();
        let t = blocking_table(&sys, &dpcp);
        assert!(t.contains("F4'"));
        assert!(t.contains("lo"));
        // No deferred-execution term under MSRP: the table ends at B_i.
        let msrp = Analysis::Msrp
            .bounds(&sys, BlockingConfig::paper())
            .unwrap();
        let t = blocking_table(&sys, &msrp);
        let header = t.lines().next().unwrap();
        assert!(
            header.contains("spin") && header.ends_with("B_i"),
            "{header}"
        );
    }
}
