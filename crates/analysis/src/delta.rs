//! Incremental recomputation of one [`Analysis`]' terms and rows,
//! driven by a [`DirtySet`].
//!
//! [`DeltaBounds`] caches, keyed by *task name* (ids shift under
//! edits, names do not), each task's terms and its rate-monotonic row.
//! [`DeltaBounds::update`] recomputes only the tasks and processors a
//! [`dirty_set`](crate::dirty_set) for the same analysis names and
//! reuses everything else verbatim, so the merged result is
//! bit-identical to a from-scratch [`Analysis::bounds`] run — cached
//! rows are copied, not re-derived, and recomputed rows run the
//! analysis' row of the table, the code the full pass runs, over the
//! exact same inputs. That identity is what `mpcp audit` and the
//! in-server sampled audit certify.

use crate::bounds::{total, Analysis, BoundSet, TaskBounds};
use crate::counts::Facts;
use crate::depgraph::DirtySet;
use crate::error::AnalysisError;
use crate::sched::theorem3_rows;
use crate::BlockingConfig;
use mpcp_model::{System, Task, TaskId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one [`DeltaBounds::full`] or [`DeltaBounds::update`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Tasks whose terms were recomputed.
    pub tasks_recomputed: u64,
    /// Tasks whose cached terms were reused.
    pub tasks_reused: u64,
    /// Processors whose rows were recomputed.
    pub processors_recomputed: u64,
    /// Processors whose cached rows were reused.
    pub processors_reused: u64,
}

/// Name-keyed cache of one analysis' terms and rows, updated
/// incrementally.
#[derive(Debug, Clone)]
pub struct DeltaBounds {
    analysis: Analysis,
    /// Finished [`BoundSet`] rows. Their `task`/`processor` ids are
    /// those of the update that wrote them and are re-stamped on read.
    /// Keyed by the tasks' own shared names: a transactional clone of
    /// the cache copies no string.
    rows: BTreeMap<Arc<str>, TaskBounds>,
}

impl DeltaBounds {
    /// Computes the full caches for `system` under `analysis` with the
    /// paper's counts.
    ///
    /// # Errors
    ///
    /// Same preconditions as [`Analysis::bounds`].
    pub fn full(
        system: &System,
        analysis: Analysis,
    ) -> Result<(DeltaBounds, DeltaStats), AnalysisError> {
        let mut this = DeltaBounds {
            analysis,
            rows: BTreeMap::new(),
        };
        let stats = this.update(system, &DirtySet::full())?;
        Ok((this, stats))
    }

    /// Merges `system` into the caches, recomputing only what `dirty`
    /// names (plus anything not cached yet) and dropping entries for
    /// tasks that no longer exist. On error the caches are unchanged
    /// and must be considered stale — rebuild with
    /// [`DeltaBounds::full`] once the system is analyzable again.
    ///
    /// # Errors
    ///
    /// Same preconditions as [`Analysis::bounds`].
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
        let row = self.analysis.row();
        let facts = Facts::compute_assuming_clean(system, dirty, row.flat)?;
        let mut stats = DeltaStats::default();
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
            let terms = (row.terms)(&facts, &facts.tasks[idx], BlockingConfig::paper());
            let task = &system.tasks()[idx];
            // The Theorem 3 half is filled in below: a dirty task's
            // processor is always dirty too.
            let cached = TaskBounds {
                task: task.id(),
                processor: task.processor(),
                blocking: total(&terms),
                demand: f64::NAN,
                bound: f64::NAN,
                ok: false,
                analysis: this.analysis,
                terms,
            };
            this.rows.insert(Arc::clone(task.shared_name()), cached);
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
                let terms_of = |t: TaskId| self.rows[system.task(t).name()].terms;
                let rows = theorem3_rows(system, proc.id(), |t| row.inputs(&facts, t, &terms_of));
                for r in rows {
                    let cached = self
                        .rows
                        .get_mut(system.task(r.task).name())
                        .expect("every task was cached above");
                    (cached.demand, cached.bound, cached.ok) = (r.demand, r.bound, r.ok);
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
        Ok(stats)
    }

    /// The cached state as the [`BoundSet`] of `system` — equal to what
    /// [`Analysis::bounds`] returns for the same system under the
    /// paper's counts.
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
        BoundSet::from_rows(self.analysis, per_task)
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

    fn assert_matches_full(delta: &DeltaBounds, system: &System, analysis: Analysis) {
        let full = analysis.bounds(system, BlockingConfig::paper()).unwrap();
        let cached = delta.bound_set(system);
        assert_eq!(cached, full, "{analysis}");
        for (a, b) in cached.per_task().iter().zip(full.per_task()) {
            assert_eq!(a.demand.to_bits(), b.demand.to_bits(), "{:?}", a.task);
            assert_eq!(a.bound.to_bits(), b.bound.to_bits());
        }
    }

    #[test]
    fn incremental_add_remove_modify_match_full() {
        let base = sample(false, 0);
        let added = sample(true, 150);
        let modified = sample(true, 90);
        let steps = [
            (&base, &added, Edit::AddTask("extra".into())),
            (&added, &modified, Edit::ModifyTask("extra".into())),
            (&modified, &base, Edit::RemoveTask("extra".into())),
        ];
        for analysis in Analysis::ALL {
            let (mut delta, _) = DeltaBounds::full(&base, analysis).unwrap();
            assert_matches_full(&delta, &base, analysis);
            for (old, new, edit) in &steps {
                let d = dirty_set(
                    &DepGraph::build(old, None),
                    &DepGraph::build(new, None),
                    edit,
                    analysis,
                );
                assert!(!d.full);
                delta.update(new, &d).unwrap();
                assert_matches_full(&delta, new, analysis);
            }
        }
    }

    #[test]
    fn clean_tasks_are_reused() {
        let base = sample(false, 0);
        let (mut delta, _) = DeltaBounds::full(&base, Analysis::Mpcp).unwrap();
        let added = sample(true, 150);
        let d = dirty_set(
            &DepGraph::build(&base, None),
            &DepGraph::build(&added, None),
            &Edit::AddTask("extra".into()),
            Analysis::Mpcp,
        );
        // "aside" on P2 shares nothing with the edited processor P1 or
        // the semaphore SG: it must stay clean and be reused.
        assert!(!d.tasks.contains("aside"), "{d:?}");
        let stats = delta.update(&added, &d).unwrap();
        assert!(stats.tasks_reused >= 1, "{stats:?}");
        assert!(stats.processors_reused >= 1, "{stats:?}");
        assert_matches_full(&delta, &added, Analysis::Mpcp);
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
        for analysis in Analysis::ALL {
            assert!(DeltaBounds::full(&sys, analysis).is_err(), "{analysis}");
        }
    }
}
