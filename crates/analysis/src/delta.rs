//! Incremental recomputation of the §5.1 blocking breakdowns and the
//! Theorem 3 rows, driven by a [`DirtySet`].
//!
//! [`DeltaBounds`] caches, keyed by *task name* (ids shift under
//! edits, names do not), the six per-task blocking terms and the
//! per-task Theorem 3 row. [`DeltaBounds::update`] recomputes only the
//! tasks and processors a [`dirty_set`](crate::dirty_set) names and
//! reuses everything else verbatim, so the merged result is
//! bit-identical to a from-scratch
//! [`Analysis::Mpcp`](crate::Analysis::bounds) run — cached rows are
//! copied, not re-derived, and recomputed rows run the exact same code
//! over the exact same inputs. That identity is what `mpcp audit` and
//! the in-server sampled audit certify.

use crate::bounds::{total, Analysis, BoundSet, TaskBounds, Terms};
use crate::counts::Facts;
use crate::depgraph::DirtySet;
use crate::error::AnalysisError;
use crate::sched::theorem3_rows;
use crate::{BlockingBreakdown, BlockingConfig};
use mpcp_model::{System, Task};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one [`DeltaBounds::update`] actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Updates applied (full or incremental).
    pub updates: u64,
    /// Tasks whose blocking factors were recomputed.
    pub tasks_recomputed: u64,
    /// Tasks whose cached factors were reused.
    pub tasks_reused: u64,
    /// Processors whose Theorem 3 rows were recomputed.
    pub processors_recomputed: u64,
    /// Processors whose cached rows were reused.
    pub processors_reused: u64,
}

impl DeltaStats {
    fn absorb(&mut self, other: DeltaStats) {
        self.updates += other.updates;
        self.tasks_recomputed += other.tasks_recomputed;
        self.tasks_reused += other.tasks_reused;
        self.processors_recomputed += other.processors_recomputed;
        self.processors_reused += other.processors_reused;
    }
}

/// Name-keyed cache of blocking breakdowns and Theorem 3 rows,
/// updated incrementally.
#[derive(Debug, Clone)]
pub struct DeltaBounds {
    /// Finished [`BoundSet`] rows. Their `task`/`processor` ids are
    /// those of the update that wrote them and are re-stamped on read.
    /// Keyed by the tasks' own shared names: a transactional clone of
    /// the cache copies no string.
    rows: BTreeMap<Arc<str>, TaskBounds>,
    stats: DeltaStats,
}

impl DeltaBounds {
    /// Computes the full caches for `system` under the paper's counts.
    ///
    /// # Errors
    ///
    /// Same preconditions as [`crate::mpcp_bounds`].
    pub fn full(system: &System) -> Result<DeltaBounds, AnalysisError> {
        let mut this = DeltaBounds {
            rows: BTreeMap::new(),
            stats: DeltaStats::default(),
        };
        this.update(system, &DirtySet::full())?;
        Ok(this)
    }

    /// Merges `system` into the caches, recomputing only what `dirty`
    /// names (plus anything not cached yet) and dropping entries for
    /// tasks that no longer exist. On error the caches are unchanged
    /// and must be considered stale — rebuild with
    /// [`DeltaBounds::full`] once the system is analyzable again.
    ///
    /// # Errors
    ///
    /// Same preconditions as [`crate::mpcp_bounds`].
    ///
    /// # Panics
    ///
    /// Panics if two tasks share a name (name-keyed caching is
    /// meaningless then; [`dirty_set`](crate::dirty_set) reports such
    /// systems as full, and callers are expected to not build a
    /// [`DeltaBounds`] for them at all).
    pub fn update(
        &mut self,
        system: &System,
        dirty: &DirtySet,
    ) -> Result<DeltaStats, AnalysisError> {
        let facts = Facts::compute_assuming_clean(system, dirty)?;
        let mut stats = DeltaStats {
            updates: 1,
            ..DeltaStats::default()
        };
        if dirty.full {
            self.rows.clear();
        }

        // Tasks to recompute. An uncached (added) task is always in
        // `dirty.tasks` — the graph diff flags tasks present in only
        // one version — so when the dirty set is partial, walking its
        // names alone visits every stale entry without probing the
        // cache once per task.
        let recompute = |this: &mut Self, idx: usize, stats: &mut DeltaStats| {
            stats.tasks_recomputed += 1;
            let terms: Terms =
                BlockingBreakdown::compute(&facts, &facts.tasks[idx], BlockingConfig::paper())
                    .terms();
            let task = &system.tasks()[idx];
            // The Theorem 3 half is filled in below: a dirty task's
            // processor is always dirty too.
            let row = TaskBounds {
                task: task.id(),
                processor: task.processor(),
                blocking: total(&terms),
                demand: f64::NAN,
                bound: f64::NAN,
                ok: false,
                analysis: Analysis::Mpcp,
                terms,
            };
            this.rows.insert(Arc::clone(task.shared_name()), row);
        };
        if dirty.full {
            for idx in 0..system.tasks().len() {
                recompute(self, idx, &mut stats);
            }
        } else {
            for name in &dirty.tasks {
                if let Some(idx) = system.task_index_by_name(name) {
                    recompute(self, idx, &mut stats);
                }
            }
        }
        stats.tasks_reused = system.tasks().len() as u64 - stats.tasks_recomputed;
        assert!(
            self.rows.len() >= system.tasks().len(),
            "duplicate task name defeats name-keyed caching"
        );

        for proc in system.processors() {
            // Uncached tasks are always dirty, and the dirty-set rules
            // put every dirty task's processor in `dirty.processors`,
            // so the processor set alone decides freshness.
            if dirty.full || dirty.processors.contains(proc.name()) {
                stats.processors_recomputed += 1;
                let rows = theorem3_rows(system, proc.id(), Task::wcet, |t| {
                    self.rows[system.task(t).name()].blocking
                });
                for row in rows {
                    let cached = self
                        .rows
                        .get_mut(system.task(row.task).name())
                        .expect("every task was cached above");
                    (cached.demand, cached.bound, cached.ok) = (row.demand, row.bound, row.ok);
                }
            } else {
                stats.processors_reused += 1;
            }
        }

        // Entries for removed (or renamed) tasks: the map holds every
        // current name after the loops above, so a length excess is the
        // only way stale keys can hide.
        if self.rows.len() > system.tasks().len() {
            let names: std::collections::BTreeSet<&str> =
                system.tasks().iter().map(Task::name).collect();
            self.rows.retain(|k, _| names.contains(&**k));
        }

        self.stats.absorb(stats);
        Ok(stats)
    }

    /// The cached state as the [`BoundSet`] of `system` — equal to what
    /// [`Analysis::Mpcp`](crate::Analysis::bounds) returns for the same
    /// system and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the cache was not updated for exactly this system.
    pub fn bound_set(&self, system: &System) -> BoundSet {
        let per_task = system
            .tasks()
            .iter()
            .map(|t| TaskBounds {
                task: t.id(),
                processor: t.processor(),
                ..self.rows[t.name()]
            })
            .collect();
        BoundSet::from_rows(Analysis::Mpcp, per_task)
    }

    /// Cumulative counters over every update applied so far.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::{dirty_set, DepGraph, Edit};
    use mpcp_model::{Body, System, TaskDef};

    fn sample(with_extra: bool, extra_period: u64) -> System {
        let mut b = System::builder();
        let p = b.add_processors(3);
        let sg = b.add_resource("SG");
        let sh = b.add_resource("SH");
        let sl = b.add_resource("SL");
        b.add_task(
            TaskDef::new("hi", p[0]).period(100).priority(5).body(
                Body::builder()
                    .compute(1)
                    .critical(sl, |c| c.compute(2))
                    .critical(sg, |c| c.compute(3))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("lo", p[0]).period(400).priority(1).body(
                Body::builder()
                    .critical(sl, |c| c.compute(5))
                    .critical(sg, |c| c.compute(4))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("mid", p[1])
                .period(200)
                .priority(3)
                .body(Body::builder().critical(sg, |c| c.compute(6)).build()),
        );
        b.add_task(
            TaskDef::new("aside", p[2])
                .period(300)
                .priority(2)
                .body(Body::builder().critical(sh, |c| c.compute(2)).build()),
        );
        b.add_task(
            TaskDef::new("peer", p[1])
                .period(500)
                .priority(4)
                .body(Body::builder().compute(1).build()),
        );
        if with_extra {
            b.add_task(
                TaskDef::new("extra", p[1])
                    .period(extra_period)
                    .priority(6)
                    .body(Body::builder().critical(sg, |c| c.compute(2)).build()),
            );
        }
        b.build().unwrap()
    }

    fn assert_matches_full(delta: &DeltaBounds, system: &System) {
        let full = Analysis::Mpcp
            .bounds(system, BlockingConfig::paper())
            .unwrap();
        let cached = delta.bound_set(system);
        assert_eq!(cached, full);
        for (a, b) in cached.per_task().iter().zip(full.per_task()) {
            assert_eq!(a.demand.to_bits(), b.demand.to_bits(), "{:?}", a.task);
            assert_eq!(a.bound.to_bits(), b.bound.to_bits());
        }
    }

    #[test]
    fn incremental_add_remove_modify_match_full() {
        let base = sample(false, 0);
        let mut delta = DeltaBounds::full(&base).unwrap();
        assert_matches_full(&delta, &base);

        let added = sample(true, 150);
        let d = dirty_set(
            &DepGraph::build(&base, None),
            &DepGraph::build(&added, None),
            &Edit::AddTask("extra".into()),
        );
        assert!(!d.full);
        delta.update(&added, &d).unwrap();
        assert_matches_full(&delta, &added);

        let modified = sample(true, 90);
        let d = dirty_set(
            &DepGraph::build(&added, None),
            &DepGraph::build(&modified, None),
            &Edit::ModifyTask("extra".into()),
        );
        delta.update(&modified, &d).unwrap();
        assert_matches_full(&delta, &modified);

        let d = dirty_set(
            &DepGraph::build(&modified, None),
            &DepGraph::build(&base, None),
            &Edit::RemoveTask("extra".into()),
        );
        delta.update(&base, &d).unwrap();
        assert_matches_full(&delta, &base);
    }

    #[test]
    fn clean_tasks_are_reused() {
        let base = sample(false, 0);
        let mut delta = DeltaBounds::full(&base).unwrap();
        let added = sample(true, 150);
        let d = dirty_set(
            &DepGraph::build(&base, None),
            &DepGraph::build(&added, None),
            &Edit::AddTask("extra".into()),
        );
        // "aside" on P2 shares nothing with the edited processor P1 or
        // the semaphore SG: it must stay clean and be reused.
        assert!(!d.tasks.contains("aside"), "{d:?}");
        let stats = delta.update(&added, &d).unwrap();
        assert!(stats.tasks_reused >= 1, "{stats:?}");
        assert!(stats.processors_reused >= 1, "{stats:?}");
        assert_matches_full(&delta, &added);
    }

    #[test]
    fn update_propagates_analysis_errors() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sg = b.add_resource("SG");
        let sl = b.add_resource("SL");
        b.add_task(
            TaskDef::new("a", p[0]).period(10).priority(2).body(
                Body::builder()
                    .critical(sl, |c| c.critical(sg, |c| c.compute(1)))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(20)
                .priority(1)
                .body(Body::builder().critical(sg, |c| c.compute(1)).build()),
        );
        let sys = b.build().unwrap();
        assert!(DeltaBounds::full(&sys).is_err());
    }
}
