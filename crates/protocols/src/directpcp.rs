//! "Direct use of the uniprocessor priority ceiling protocol" — the
//! strawman the paper rules out in §3.3 (Example 2).
//!
//! Local semaphores get the real uniprocessor PCP on each processor.
//! Global semaphores get plain priority-inheritance semaphores whose
//! critical sections execute at the holder's **assigned (or inherited)
//! priority** — crucially *not* boosted above other tasks. The defining
//! failure mode survives exactly: a higher-priority task's non-critical
//! code preempts a global critical section, so a remote job blocked on
//! that section waits for the preempting task's entire execution, and
//! inheritance cannot help because the waiter's priority is below the
//! preemptor's.

use crate::common::SavedStack;
use crate::local::LocalPcpPart;
use mpcp_core::{CeilingTable, GlobalSemaphore, ReleaseOutcome};
use mpcp_model::{JobId, Priority, ResourceId, Scope, System};
use mpcp_sim::{Ctx, LockResult, Protocol};
use std::collections::HashMap;

/// Uniprocessor PCP applied directly, with no gcs priority boost.
#[derive(Debug, Default)]
pub struct DirectPcp {
    ceilings: Option<CeilingTable>,
    scopes: Vec<Scope>,
    local: LocalPcpPart,
    gsems: Vec<GlobalSemaphore<JobId>>,
    blocked_on: HashMap<JobId, ResourceId>,
    saved: SavedStack,
}

impl DirectPcp {
    /// Creates the protocol.
    pub fn new() -> Self {
        DirectPcp::default()
    }

    fn recompute(&self, ctx: &mut Ctx<'_>, job: JobId) {
        let mut p = ctx.job(job).base_priority;
        for sem in &self.gsems {
            if sem.holder() == Some(job) {
                if let Some(k) = sem.top_key() {
                    p = p.max(k);
                }
            }
        }
        ctx.set_priority(job, p);
    }
}

impl Protocol for DirectPcp {
    fn name(&self) -> &'static str {
        "direct-pcp"
    }

    fn init(&mut self, system: &System) {
        let info = system.info();
        self.ceilings = Some(CeilingTable::compute(system));
        self.scopes = info.all_usage().iter().map(|u| u.scope).collect();
        self.local.init(system.processors().len());
        self.gsems = (0..system.resources().len())
            .map(|_| GlobalSemaphore::new())
            .collect();
        self.blocked_on.clear();
    }

    fn on_lock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) -> LockResult {
        match self.scopes[resource.index()] {
            Scope::Global => {
                if self.gsems[resource.index()].try_acquire(job) {
                    return LockResult::Granted;
                }
                let priority = ctx.job(job).effective_priority;
                let holder = self.gsems[resource.index()].holder();
                self.gsems[resource.index()].enqueue(job, priority);
                self.blocked_on.insert(job, resource);
                if let Some(h) = holder {
                    if ctx.is_active(h) {
                        // Single-level inheritance: enough for the §3.3
                        // argument; see Pip for transitive chains.
                        let _ = Priority::MIN;
                        ctx.raise_priority(h, priority);
                    }
                }
                LockResult::Blocked { holder }
            }
            Scope::Local(proc) => {
                let ceilings = self.ceilings.as_ref().expect("protocol initialized");
                self.local
                    .on_lock(ctx, job, resource, proc, ceilings, &mut self.saved)
            }
            Scope::Unused => unreachable!("lock of unused resource {resource}"),
        }
    }

    fn on_unlock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) {
        match self.scopes[resource.index()] {
            Scope::Global => {
                let outcome = self.gsems[resource.index()].release(job);
                self.recompute(ctx, job);
                if let ReleaseOutcome::HandedTo(n) = outcome.expect("V by the holder") {
                    self.blocked_on.remove(&n);
                    ctx.grant_lock(n, resource);
                }
            }
            Scope::Local(proc) => {
                self.local
                    .on_unlock(ctx, job, resource, proc, &mut self.saved);
            }
            Scope::Unused => unreachable!("unlock of unused resource {resource}"),
        }
    }

    fn on_complete(&mut self, _ctx: &mut Ctx<'_>, job: JobId) {
        debug_assert!(!self.blocked_on.contains_key(&job));
        debug_assert!(!self.saved.clear(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, Dur, System, TaskDef, TaskId};
    use mpcp_sim::Simulator;

    fn jid(t: u32, i: u32) -> JobId {
        JobId::new(TaskId::from_index(t), i)
    }

    /// Example 2's failure: tasks tau1 (high) and tau2 (mid) on P1, tau3
    /// on P2 sharing S with tau2. J3 blocks on S held by J2; J1 preempts
    /// J2's critical section with plain *non-critical* code, and J3's wait
    /// grows with J1's execution time.
    #[test]
    fn example_2_failure_reproduced() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("tau1", p[0])
                .period(200)
                .priority(3)
                .offset(2)
                .body(Body::builder().compute(30).build()),
        );
        b.add_task(
            TaskDef::new("tau2", p[0])
                .period(200)
                .priority(2)
                .body(Body::builder().critical(s, |c| c.compute(5)).build()),
        );
        b.add_task(
            TaskDef::new("tau3", p[1])
                .period(200)
                .priority(1)
                .offset(1)
                .body(Body::builder().critical(s, |c| c.compute(1)).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, DirectPcp::new());
        sim.run_until(200);
        // J2's cs runs 0..2, preempted by J1 (2..32), resumes 32..35;
        // inheritance (J3's priority 1) is below J1's 3 and cannot help.
        // J3 is blocked 1..35.
        let rec = sim.records().iter().find(|r| r.id == jid(2, 0)).unwrap();
        assert_eq!(rec.blocked_global, Dur::new(34));
        // The blocking scales with tau1's execution time — goal G1
        // violated.
    }

    /// Local semaphores still enjoy real PCP under this strawman.
    #[test]
    fn local_side_is_pcp() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s1 = b.add_resource("S1");
        let s2 = b.add_resource("S2");
        b.add_task(
            TaskDef::new("high", p)
                .period(100)
                .priority(2)
                .offset(1)
                .body(
                    Body::builder()
                        .critical(s2, |c| c.compute(1))
                        .critical(s1, |c| c.compute(1))
                        .build(),
                ),
        );
        b.add_task(
            TaskDef::new("low", p)
                .period(100)
                .priority(1)
                .body(Body::builder().critical(s1, |c| c.compute(4)).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, DirectPcp::new());
        sim.run_until(100);
        // high is ceiling-blocked on S2 at t=1 (S1 locked, ceiling 2);
        // low inherits and finishes at 4; high then runs.
        assert_eq!(
            sim.trace()
                .max_priority_of(jid(1, 0), mpcp_model::Priority::task(1)),
            mpcp_model::Priority::task(2)
        );
        assert_eq!(sim.misses(), 0);
    }
}
