//! Fixed execution priorities of global critical sections (§4.4,
//! Table 4-2).

use mpcp_model::{Priority, ResourceId, Scope, System, TaskId};
use std::collections::HashMap;

/// The fixed priority at which each task executes each of its global
/// critical sections.
///
/// The paper's rule: let `J_i` be bound to processor `p`, and let `P_H` be
/// the priority of the highest-priority job **on processors other than
/// `p`** that can lock `S_G`. Then the gcs of `J_i` guarded by `S_G`
/// executes at the fixed priority `P_G + P_H` — high enough that no
/// non-critical code can preempt it (Theorem 2), and exactly the priority
/// it would inherit in the worst case, so no dynamic priority change is
/// ever needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcsPriorities {
    map: HashMap<(TaskId, ResourceId), Priority>,
}

impl GcsPriorities {
    /// Computes the gcs priorities of every (task, global resource) pair in
    /// `system`.
    pub fn compute(system: &System) -> Self {
        let info = system.info();
        let mut map = HashMap::new();
        for usage in info.all_usage() {
            if usage.scope != Scope::Global {
                continue;
            }
            for &user in &usage.users {
                let my_proc = system.task(user).processor();
                let p_h = usage
                    .users
                    .iter()
                    .filter(|&&u| system.task(u).processor() != my_proc)
                    .map(|&u| system.task(u).priority())
                    .max()
                    .expect("a global resource has users on another processor");
                map.insert((user, usage.resource), p_h.to_global());
            }
        }
        GcsPriorities { map }
    }

    /// The gcs execution priority of `task`'s sections on `resource`, or
    /// `None` if `task` never locks `resource` or the resource is not
    /// global.
    pub fn of(&self, task: TaskId, resource: ResourceId) -> Option<Priority> {
        self.map.get(&(task, resource)).copied()
    }

    /// Iterates over all `((task, resource), priority)` entries in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = ((TaskId, ResourceId), Priority)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
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
        for ((_, r), p) in g.iter() {
            assert_eq!(r, sg);
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
    }
}
