//! The message-based (distributed) multiprocessor priority ceiling
//! protocol of reference \[8\], the paper's baseline (§5.2).
//!
//! Every global semaphore is bound to one *synchronization processor*; all
//! critical sections it guards execute there, at a priority equal to the
//! semaphore's global priority ceiling ("it is suggested that a gcs
//! guarded by `S_G` always execute at a priority equal to the global
//! priority ceiling of `S_G`", §4.4). The original protocol ships the
//! request to the host processor by message and runs it in an agent; this
//! implementation models the same semantics by *migrating* the job to the
//! host processor for the duration of the gcs, which preserves exactly
//! where and at what priority the critical section competes for CPU time.
//! Local semaphores use the uniprocessor PCP, as under MPCP.

use crate::common::SavedStack;
use crate::local::LocalPcpPart;
use mpcp_core::{CeilingTable, GlobalSemaphore, ReleaseOutcome};
use mpcp_model::{JobId, ProcessorId, ResourceId, Scope, System};
use mpcp_sim::{Ctx, LockResult, Protocol};

/// The distributed priority ceiling protocol (DPCP) baseline.
///
/// Each global semaphore is hosted on the processor of its
/// highest-priority user.
#[derive(Debug, Default)]
pub struct Dpcp {
    hosts: Vec<Option<ProcessorId>>,
    ceilings: Option<CeilingTable>,
    scopes: Vec<Scope>,
    local: LocalPcpPart,
    gsems: Vec<GlobalSemaphore<JobId>>,
    saved: SavedStack,
}

impl Dpcp {
    /// Creates the protocol.
    pub fn new() -> Self {
        Dpcp::default()
    }

    fn ceilings(&self) -> &CeilingTable {
        self.ceilings.as_ref().expect("protocol initialized")
    }
}

impl Protocol for Dpcp {
    fn name(&self) -> &'static str {
        "dpcp"
    }

    fn init(&mut self, system: &System) {
        let info = system.info();
        self.ceilings = Some(CeilingTable::compute(system));
        self.scopes = info.all_usage().iter().map(|u| u.scope).collect();
        self.hosts = info
            .all_usage()
            .iter()
            .map(|u| match u.scope {
                // The processor of the highest-priority user (users are
                // priority-sorted).
                Scope::Global => Some(system.task(u.users[0]).processor()),
                _ => None,
            })
            .collect();
        self.local.init(system.processors().len());
        self.gsems = (0..system.resources().len())
            .map(|_| GlobalSemaphore::new())
            .collect();
    }

    fn on_lock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) -> LockResult {
        match self.scopes[resource.index()] {
            Scope::Global => {
                let host = self.hosts[resource.index()].expect("global resource has a host");
                let current_priority = ctx.job(job).effective_priority;
                let current_processor = ctx.job(job).processor;
                // The request executes on the synchronization processor;
                // remember where to return on V().
                self.saved
                    .push(job, resource, current_priority, current_processor);
                ctx.set_processor(job, host);
                if self.gsems[resource.index()].try_acquire(job) {
                    let ceiling = self.ceilings().ceiling(resource);
                    ctx.set_priority(job, current_priority.max(ceiling));
                    LockResult::Granted
                } else {
                    let holder = self.gsems[resource.index()].holder();
                    let assigned = ctx.job(job).base_priority;
                    self.gsems[resource.index()].enqueue(job, assigned);
                    LockResult::Blocked { holder }
                }
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
                let (priority, processor) = self.saved.pop(job, resource);
                ctx.set_priority(job, priority);
                ctx.set_processor(job, processor);
                match self.gsems[resource.index()]
                    .release(job)
                    .expect("V by the gcs holder")
                {
                    ReleaseOutcome::Freed => {}
                    ReleaseOutcome::HandedTo(next) => {
                        // `next` is already on the host processor (it
                        // migrated when it issued the request).
                        ctx.grant_lock(next, resource);
                        let ceiling = self.ceilings().ceiling(resource);
                        let cur = ctx.job(next).effective_priority;
                        ctx.set_priority(next, cur.max(ceiling));
                    }
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
        debug_assert!(
            !self.saved.clear(job),
            "{job} completed with saved priorities"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, Dur, System, TaskDef, TaskId, Time};
    use mpcp_sim::{EventKind, Simulator};

    fn jid(t: u32, i: u32) -> JobId {
        JobId::new(TaskId::from_index(t), i)
    }

    /// Builds: t0 (pri 3) on P0 uses SG; t1 (pri 1) on P1 uses SG. SG's
    /// default host is P0 (t0 is the highest-priority user).
    fn two_proc_system() -> (System, ResourceId) {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("SG");
        b.add_task(
            TaskDef::new("hi", p[0]).period(100).priority(3).body(
                Body::builder()
                    .compute(1)
                    .critical(s, |c| c.compute(2))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("lo", p[1]).period(100).priority(1).body(
                Body::builder()
                    .critical(s, |c| c.compute(4))
                    .compute(2)
                    .build(),
            ),
        );
        (b.build().unwrap(), s)
    }

    #[test]
    fn gcs_executes_on_the_host_processor() {
        let (sys, s) = two_proc_system();
        let mut sim = Simulator::new(&sys, Dpcp::new());
        sim.run_until(100);
        let tr = sim.trace();
        // lo migrated to P0 for its gcs and back afterwards.
        let migrations: Vec<_> = tr
            .events_for(jid(1, 0))
            .filter_map(|e| match e.kind {
                EventKind::Migrated { from, to } => Some((from, to)),
                _ => None,
            })
            .collect();
        let p0 = mpcp_model::ProcessorId::from_index(0);
        let p1 = mpcp_model::ProcessorId::from_index(1);
        assert_eq!(migrations, vec![(p1, p0), (p0, p1)]);
        let _ = s;
        assert_eq!(sim.misses(), 0);
    }

    #[test]
    fn gcs_runs_at_the_global_ceiling() {
        let (sys, s) = two_proc_system();
        let ceiling = CeilingTable::compute(&sys).ceiling(s);
        let mut sim = Simulator::new(&sys, Dpcp::new());
        sim.run_until(100);
        let tr = sim.trace();
        assert_eq!(
            tr.max_priority_of(jid(1, 0), sys.tasks()[1].priority()),
            ceiling
        );
    }

    #[test]
    fn contention_resolves_in_priority_order_on_host() {
        let (sys, _) = two_proc_system();
        let mut sim = Simulator::new(&sys, Dpcp::new());
        sim.run_until(100);
        // lo enters the gcs at t=0 on P0 (host). hi arrives at 0, computes
        // 0..1 — wait: both compete for P0 now. lo's gcs runs at ceiling
        // PG+3, so it preempts hi's normal code immediately at t=0.
        // hi computes 4..5, requests at 5, gets the (free) semaphore,
        // gcs 5..7, completes at 7.
        assert_eq!(sim.trace().completion_of(jid(0, 0)), Some(Time::new(7)));
        // lo: gcs 0..4 on P0, migrates back, computes 4..6 on P1.
        assert_eq!(sim.trace().completion_of(jid(1, 0)), Some(Time::new(6)));
        let rec_hi = sim.records().iter().find(|r| r.id == jid(0, 0)).unwrap();
        // hi was displaced 0..4 by a lower-assigned-priority gcs.
        assert_eq!(rec_hi.lower_interference, Dur::new(4));
        // Under default hosting only lo migrates: to P0 for its gcs and
        // back, two events; hi's gcs runs where hi already is.
        let migrated = |job| {
            sim.trace()
                .events_for(job)
                .filter(|e| matches!(e.kind, EventKind::Migrated { .. }))
                .count()
        };
        assert_eq!(migrated(jid(1, 0)), 2);
        assert_eq!(migrated(jid(0, 0)), 0);
    }
}
