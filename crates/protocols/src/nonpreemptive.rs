//! Non-preemptive critical sections: every critical section runs at a
//! priority above everything else on its processor (§3.3 mentions making
//! "the currently executing task non-preemptable" as a crude alternative;
//! it bounds blocking but wastes schedulability because *every* arrival,
//! however urgent, waits for any ongoing section).

use crate::common::SavedStack;
use mpcp_core::{GlobalSemaphore, ReleaseOutcome};
use mpcp_model::{JobId, Priority, ResourceId, System};
use mpcp_sim::{Ctx, LockResult, Protocol};

/// The non-preemptive-sections baseline.
#[derive(Debug, Default)]
pub struct NonPreemptiveCs {
    sems: Vec<GlobalSemaphore<JobId>>,
    saved: SavedStack,
}

/// Above every task priority and every gcs priority.
const NON_PREEMPTIVE: Priority = Priority::global(u32::MAX);

impl NonPreemptiveCs {
    /// Creates the protocol.
    pub fn new() -> Self {
        NonPreemptiveCs::default()
    }

    fn enter(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) {
        let current = ctx.job(job).effective_priority;
        let processor = ctx.job(job).processor;
        self.saved.push(job, resource, current, processor);
        ctx.set_priority(job, NON_PREEMPTIVE);
    }
}

impl Protocol for NonPreemptiveCs {
    fn name(&self) -> &'static str {
        "nonpreemptive"
    }

    fn init(&mut self, system: &System) {
        self.sems = (0..system.resources().len())
            .map(|_| GlobalSemaphore::new())
            .collect();
    }

    fn on_lock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) -> LockResult {
        if self.sems[resource.index()].try_acquire(job) {
            self.enter(ctx, job, resource);
            LockResult::Granted
        } else {
            let holder = self.sems[resource.index()].holder();
            let assigned = ctx.job(job).base_priority;
            self.sems[resource.index()].enqueue(job, assigned);
            LockResult::Blocked { holder }
        }
    }

    fn on_unlock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) {
        let (priority, _) = self.saved.pop(job, resource);
        ctx.set_priority(job, priority);
        let outcome = self.sems[resource.index()].release(job);
        if let ReleaseOutcome::HandedTo(next) = outcome.expect("V by the holder") {
            ctx.grant_lock(next, resource);
            self.enter(ctx, next, resource);
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
    use mpcp_model::{Body, System, TaskDef, TaskId, Time};
    use mpcp_sim::Simulator;

    fn jid(t: u32, i: u32) -> JobId {
        JobId::new(TaskId::from_index(t), i)
    }

    /// A critical section is never preempted, even by the highest-priority
    /// task on the processor.
    #[test]
    fn sections_are_non_preemptive() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("high", p)
                .period(100)
                .priority(2)
                .offset(1)
                .body(Body::builder().compute(1).build()),
        );
        b.add_task(
            TaskDef::new("low", p)
                .period(100)
                .priority(1)
                .body(Body::builder().critical(s, |c| c.compute(5)).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, NonPreemptiveCs::new());
        sim.run_until(100);
        // high waits for the whole section: runs 5..6. low completes the
        // instant its section ends.
        assert_eq!(sim.trace().completion_of(jid(0, 0)), Some(Time::new(6)));
        assert_eq!(sim.trace().completion_of(jid(1, 0)), Some(Time::new(5)));
    }

    /// But unlike a lock-holder preemption, the penalty is bounded by one
    /// section: high arriving *after* the section sees no delay.
    #[test]
    fn no_section_no_delay() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("high", p)
                .period(100)
                .priority(2)
                .offset(6)
                .body(Body::builder().compute(1).build()),
        );
        b.add_task(
            TaskDef::new("low", p).period(100).priority(1).body(
                Body::builder()
                    .critical(s, |c| c.compute(5))
                    .compute(10)
                    .build(),
            ),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, NonPreemptiveCs::new());
        sim.run_until(100);
        // high preempts low's *non-critical* tail immediately: 6..7.
        assert_eq!(sim.trace().completion_of(jid(0, 0)), Some(Time::new(7)));
    }

    /// Hand-off follows priority order among waiters.
    #[test]
    fn handoff_by_priority() {
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
        let mut sim = Simulator::new(&sys, NonPreemptiveCs::new());
        sim.run_until(100);
        assert_eq!(sim.trace().completion_of(jid(2, 0)), Some(Time::new(11)));
        assert_eq!(sim.trace().completion_of(jid(1, 0)), Some(Time::new(12)));
    }
}
