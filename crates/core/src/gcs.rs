//! Fixed execution priorities of global critical sections (§4.4,
//! Table 4-2).

use mpcp_model::{Priority, ProcessorId, ResourceId, Scope, System, TaskId};

/// The fixed priority at which each task executes each of its global
/// critical sections.
///
/// The paper's rule: let `J_i` be bound to processor `p`, and let `P_H` be
/// the priority of the highest-priority job **on processors other than
/// `p`** that can lock `S_G`. Then the gcs of `J_i` guarded by `S_G`
/// executes at the fixed priority `P_G + P_H` — high enough that no
/// non-critical code can preempt it (Theorem 2), and exactly the priority
/// it would inherit in the worst case, so no dynamic priority change is
/// ever needed. `P_H` depends only on the semaphore and `p`, so the table
/// is dense: one entry per global semaphore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcsPriorities {
    /// Per resource, in id order; `None` unless the resource is global.
    sems: Vec<Option<Sem>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Sem {
    /// The users and their processors, sorted by task id.
    users: Vec<(TaskId, ProcessorId)>,
    /// The top user's processor and `P_G +` its priority: `P_H` from any
    /// other processor.
    top: (ProcessorId, Priority),
    /// `P_G +` the best priority on any other processor: `P_H` from
    /// `top`'s.
    other: Priority,
}

impl GcsPriorities {
    /// Computes the gcs priorities of every (task, global resource) pair in
    /// `system`.
    pub fn compute(system: &System) -> Self {
        let user = |&u: &TaskId| (u, system.task(u).processor());
        let prio = |u: TaskId| system.task(u).priority().to_global();
        let sems = (system.info().all_usage().iter())
            .map(|usage| {
                (usage.scope == Scope::Global).then(|| {
                    // `usage.users` is in decreasing priority order.
                    let mut users: Vec<_> = usage.users.iter().map(user).collect();
                    let (top, top_proc) = users[0];
                    let &(other, _) = (users.iter().find(|u| u.1 != top_proc))
                        .expect("a global resource has users on another processor");
                    let (top, other) = ((top_proc, prio(top)), prio(other));
                    users.sort_unstable();
                    Sem { users, top, other }
                })
            })
            .collect();
        GcsPriorities { sems }
    }

    /// The gcs execution priority of `task`'s sections on `resource`, or
    /// `None` if `task` never locks `resource` or the resource is not
    /// global.
    pub fn of(&self, task: TaskId, resource: ResourceId) -> Option<Priority> {
        let users = &self.sems.get(resource.index())?.as_ref()?.users;
        let at = users.binary_search_by_key(&task, |u| u.0).ok()?;
        self.on(resource, users[at].1)
    }

    /// The execution priority of a section on `resource` run from
    /// `proc`, or `None` if the resource is not global: [`Self::of`]
    /// without the membership test, for a caller that knows the task.
    pub fn on(&self, resource: ResourceId, proc: ProcessorId) -> Option<Priority> {
        let sem = self.sems.get(resource.index())?.as_ref()?;
        Some(if proc == sem.top.0 {
            sem.other
        } else {
            sem.top.1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, System, TaskDef};

    /// Three processors. SG used by: t0 (pri 5, P0), t1 (pri 3, P1),
    /// t2 (pri 1, P1). SL local to P0 used by t3 (pri 2, P0) only.
    fn sample() -> (System, ResourceId, ResourceId) {
        let mut b = System::builder();
        let p = b.add_processors(3);
        let sg = b.add_resource("SG");
        let sl = b.add_resource("SL");
        let cs = |r| {
            Body::builder()
                .critical(r, |c: mpcp_model::BodyBuilder| c.compute(1))
                .build()
        };
        b.add_task(TaskDef::new("t0", p[0]).period(10).priority(5).body(cs(sg)));
        b.add_task(TaskDef::new("t1", p[1]).period(20).priority(3).body(cs(sg)));
        b.add_task(TaskDef::new("t2", p[1]).period(30).priority(1).body(cs(sg)));
        b.add_task(TaskDef::new("t3", p[0]).period(40).priority(2).body(cs(sl)));
        (b.build().unwrap(), sg, sl)
    }

    #[test]
    fn gcs_priority_uses_highest_remote_user() {
        let (sys, sg, _) = sample();
        let g = GcsPriorities::compute(&sys);
        let t = |i: u32| TaskId::from_index(i);
        // t0 on P0: remote users are t1 (3) and t2 (1) -> PG+3.
        assert_eq!(g.of(t(0), sg), Some(Priority::global(3)));
        // t1 on P1: remote user is t0 (5) -> PG+5.
        assert_eq!(g.of(t(1), sg), Some(Priority::global(5)));
        // t2 on P1: remote user is t0 (5) -> PG+5.
        assert_eq!(g.of(t(2), sg), Some(Priority::global(5)));
    }

    #[test]
    fn gcs_priority_never_exceeds_global_ceiling() {
        let (sys, sg, _) = sample();
        let g = GcsPriorities::compute(&sys);
        let ceiling = crate::CeilingTable::compute(&sys).ceiling(sg);
        for t in sys.tasks().iter().filter(|t| t.name() != "t3") {
            let p = g.of(t.id(), sg).expect("every user of SG has an entry");
            assert!(p <= ceiling, "{p} exceeds ceiling {ceiling}");
            assert!(p.is_global());
        }
    }

    #[test]
    fn local_and_unrelated_pairs_have_no_entry() {
        let (sys, sg, sl) = sample();
        let g = GcsPriorities::compute(&sys);
        let t = |i: u32| TaskId::from_index(i);
        assert_eq!(g.of(t(3), sl), None); // local resource
        assert_eq!(g.of(t(3), sg), None); // task does not use SG

        // Out-of-range ids name nothing, and no index reads a
        // neighbour's entry.
        assert_eq!(g.of(t(4), sg), None);
        assert_eq!(g.of(t(0), ResourceId::from_index(2)), None);
        assert_eq!(g.on(sl, sys.tasks()[3].processor()), None);
    }
}
