//! The basic priority inheritance protocol (PIP) baseline.
//!
//! Every semaphore (local or global) is a suspension-based lock with a
//! priority-ordered wait queue; the holder inherits the highest priority
//! of the jobs it blocks, transitively along blocking chains. There are no
//! ceilings and no priority boosts: this is the protocol the paper shows
//! to be insufficient on multiprocessors (Example 2 — a critical section
//! can still be preempted by a higher-priority task's *non-critical*
//! code, leaving a remote job waiting for that task's entire execution).

use mpcp_core::{GlobalSemaphore, ReleaseOutcome};
use mpcp_model::{JobId, Priority, ResourceId, System};
use mpcp_sim::{Ctx, LockResult, Protocol};
use std::collections::HashMap;

/// Priority inheritance on plain semaphores.
#[derive(Debug, Default)]
pub struct Pip {
    sems: Vec<GlobalSemaphore<JobId>>,
    blocked_on: HashMap<JobId, ResourceId>,
}

impl Pip {
    /// Creates the protocol.
    pub fn new() -> Self {
        Pip::default()
    }

    /// Raises the whole blocking chain starting at the holder of
    /// `resource` to at least `priority`.
    fn propagate(&self, ctx: &mut Ctx<'_>, mut resource: ResourceId, priority: Priority) {
        // Chains are bounded by the number of semaphores (no job waits on
        // two at once); guard anyway.
        for _ in 0..=self.sems.len() {
            let Some(holder) = self.sems[resource.index()].holder() else {
                return;
            };
            if !ctx.is_active(holder) {
                return;
            }
            ctx.raise_priority(holder, priority);
            match self.blocked_on.get(&holder) {
                Some(&next) => resource = next,
                None => return,
            }
        }
    }

    /// Recomputes a job's inherited priority from the waiters of the
    /// semaphores it still holds.
    fn recompute(&self, ctx: &mut Ctx<'_>, job: JobId) {
        let mut p = ctx.job(job).base_priority;
        for sem in &self.sems {
            if sem.holder() == Some(job) {
                if let Some(k) = sem.top_key() {
                    p = p.max(k);
                }
            }
        }
        ctx.set_priority(job, p);
    }
}

impl Protocol for Pip {
    fn name(&self) -> &'static str {
        "pip"
    }

    fn init(&mut self, system: &System) {
        self.sems = (0..system.resources().len())
            .map(|_| GlobalSemaphore::new())
            .collect();
        self.blocked_on.clear();
    }

    fn on_lock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) -> LockResult {
        if self.sems[resource.index()].try_acquire(job) {
            return LockResult::Granted;
        }
        let priority = ctx.job(job).effective_priority;
        let holder = self.sems[resource.index()].holder();
        self.sems[resource.index()].enqueue(job, priority);
        self.blocked_on.insert(job, resource);
        self.propagate(ctx, resource, priority);
        LockResult::Blocked { holder }
    }

    fn on_unlock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) {
        let outcome = self.sems[resource.index()].release(job);
        self.recompute(ctx, job);
        if let ReleaseOutcome::HandedTo(n) = outcome.expect("V by the holder") {
            self.blocked_on.remove(&n);
            ctx.grant_lock(n, resource);
        }
    }

    fn on_complete(&mut self, _ctx: &mut Ctx<'_>, job: JobId) {
        debug_assert!(
            !self.blocked_on.contains_key(&job),
            "{job} completed while blocked"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, Dur, System, TaskDef, TaskId, Time};
    use mpcp_sim::Simulator;

    fn jid(t: u32, i: u32) -> JobId {
        JobId::new(TaskId::from_index(t), i)
    }

    /// Uniprocessor inheritance: the classic high/medium/low scenario. The
    /// medium task cannot starve the high task because low inherits high's
    /// priority inside the critical section.
    #[test]
    fn inheritance_defeats_medium_priority_interference() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("high", p)
                .period(100)
                .priority(3)
                .offset(2)
                .body(Body::builder().critical(s, |c| c.compute(1)).build()),
        );
        b.add_task(
            TaskDef::new("med", p)
                .period(100)
                .priority(2)
                .offset(3)
                .body(Body::builder().compute(10).build()),
        );
        b.add_task(
            TaskDef::new("low", p)
                .period(100)
                .priority(1)
                .body(Body::builder().critical(s, |c| c.compute(5)).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Pip::new());
        sim.run_until(100);
        // low holds S 0..; high requests at 2, low inherits 3, finishes cs
        // at 5 despite med's arrival at 3; high's cs 5..6.
        assert_eq!(sim.trace().completion_of(jid(0, 0)), Some(Time::new(6)));
        let rec = sim.records().iter().find(|r| r.id == jid(0, 0)).unwrap();
        assert_eq!(rec.measured_blocking(), Dur::new(3)); // 2..5
    }

    /// Without inheritance the same scenario starves high for med's whole
    /// execution — checked in `raw.rs`; here we check the chain case:
    /// inheritance propagates through nested blocking.
    #[test]
    fn transitive_inheritance_through_chains() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s1 = b.add_resource("S1");
        let s2 = b.add_resource("S2");
        // low holds S1. mid holds S2 then blocks on S1. high blocks on S2:
        // low must inherit high's priority through the chain.
        b.add_task(
            TaskDef::new("high", p)
                .period(100)
                .priority(3)
                .offset(4)
                .body(Body::builder().critical(s2, |c| c.compute(1)).build()),
        );
        b.add_task(
            TaskDef::new("mid", p)
                .period(100)
                .priority(2)
                .offset(1)
                .body(
                    Body::builder()
                        .critical(s2, |c| c.compute(1).critical(s1, |c| c.compute(1)))
                        .build(),
                ),
        );
        b.add_task(
            TaskDef::new("low", p)
                .period(100)
                .priority(1)
                .body(Body::builder().critical(s1, |c| c.compute(10)).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Pip::new());
        sim.run_until(100);
        let tr = sim.trace();
        // low inherited priority 3 (via mid's block on S1 after high
        // blocked on S2).
        assert_eq!(
            tr.max_priority_of(jid(2, 0), mpcp_model::Priority::task(1)),
            mpcp_model::Priority::task(3)
        );
        assert_eq!(sim.misses(), 0);
    }

    /// Queue is priority-ordered: the higher-priority waiter is served
    /// first even if it arrived later.
    #[test]
    fn priority_ordered_queue() {
        let mut b = System::builder();
        let p = b.add_processors(3);
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("holder", p[0])
                .period(100)
                .priority(1)
                .body(Body::builder().critical(s, |c| c.compute(10)).build()),
        );
        b.add_task(
            TaskDef::new("early-low", p[1])
                .period(100)
                .priority(2)
                .offset(1)
                .body(Body::builder().critical(s, |c| c.compute(1)).build()),
        );
        b.add_task(
            TaskDef::new("late-high", p[2])
                .period(100)
                .priority(3)
                .offset(5)
                .body(Body::builder().critical(s, |c| c.compute(1)).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Pip::new());
        sim.run_until(100);
        assert_eq!(sim.trace().completion_of(jid(2, 0)), Some(Time::new(11)));
        assert_eq!(sim.trace().completion_of(jid(1, 0)), Some(Time::new(12)));
    }
}
