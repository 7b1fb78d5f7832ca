//! A [`Protocol`] hosted outside the [`Simulator`](crate::Simulator),
//! for a caller that decides when each job executes its next operation
//! — a threaded runtime, whose threads are the jobs.

use crate::job::{ExecState, JobState, Jobs};
use crate::op::{Op, Program};
use crate::policy::{Ctx, LockResult, Protocol};
use crate::queue::MinHeap;
use crate::trace::Trace;
use mpcp_model::{Dur, JobId, Machine, ProcessorId, ResourceId, System, Task, TaskId, Time};

/// A policy with a [`Jobs`] table and a [`Trace`], driven one operation
/// at a time.
///
/// Each call runs the engine's own code for its operation, hooks
/// included; completes, as the engine does, a job the operation took
/// past its last op, dispatched or not; then re-picks with the engine's
/// dispatch key the winner of every processor the operation touched,
/// tracing `Started` and `Preempted` where one changes. Only a
/// dispatched job executes an op. Time is logical: one tick per call.
/// The winners are the host's own record — no job holds a processor in
/// the table — so nothing progresses by itself: a job's program counter
/// moves only when a call moves it. Timers a policy requests
/// ([`Ctx::schedule_timer`]) never fire.
#[derive(Debug)]
pub struct Host<P> {
    system: System,
    protocol: P,
    programs: Vec<Program>,
    jobs: Jobs,
    trace: Trace,
    timers: MinHeap<Time>,
    /// The next instance of each task.
    instances: Vec<u32>,
    /// The winner of each processor as of the last call.
    winners: Vec<Option<JobId>>,
    now: Time,
}

impl<P: Protocol> Host<P> {
    /// Hosts `protocol` for `system` on an ideal machine; no job is
    /// released yet.
    pub fn new(system: &System, mut protocol: P) -> Self {
        protocol.init(system);
        let (tasks, processors) = (system.tasks(), system.processors().len());
        let mut jobs = Jobs::default();
        jobs.reset(tasks.len(), processors);
        let flatten = |t: &Task| Program::flatten(t.body(), &Machine::new(), system.info());
        Host {
            system: system.clone(),
            protocol,
            programs: tasks.iter().map(flatten).collect(),
            jobs,
            trace: Trace::new(),
            timers: MinHeap::new(),
            instances: vec![0; tasks.len()],
            winners: vec![None; processors],
            now: Time::ZERO,
        }
    }

    /// The active jobs.
    pub fn jobs(&self) -> &Jobs {
        &self.jobs
    }

    /// Every event so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The job dispatched on `processor`: the dispatch key's winner.
    pub fn dispatched(&self, processor: ProcessorId) -> Option<JobId> {
        self.winners[processor.index()]
    }

    /// Releases the next job of `task`.
    pub fn release(&mut self, task: TaskId) -> JobId {
        let t = self.system.task(task);
        let (home, priority, deadline) = (t.processor(), t.priority(), t.deadline());
        let id = JobId::new(task, self.instances[task.index()]);
        self.instances[task.index()] += 1;
        let program = self.programs[task.index()].clone();
        self.call(|protocol, ctx| {
            let job = JobState::new(id, home, priority, ctx.now, ctx.now + deadline, program);
            ctx.release(protocol, job);
        });
        id
    }

    /// Steps `job` past the end of the computation at its program
    /// counter, or into the self-suspension there — and, stepped again,
    /// out of it. Panics at any other op.
    pub fn step(&mut self, job: JobId) {
        let state = self.jobs.expect(job);
        match (state.state, state.current_op()) {
            (ExecState::Sleeping { .. }, _) => self.call(|_, ctx| ctx.wake(job)),
            (ExecState::Ready, Some(Op::Suspend(d))) => {
                self.expect_op(job, Op::Suspend(d));
                self.call(|_, ctx| ctx.suspend(job, ctx.now + d));
            }
            (ExecState::Ready, Some(Op::Compute(d))) => {
                self.expect_op(job, Op::Compute(d));
                self.call(|_, ctx| {
                    let state = ctx.jobs.expect_mut(job);
                    state.advance_pc();
                    if state.is_complete() {
                        ctx.jobs.done_candidates.push(job);
                    }
                });
            }
            (state, op) => panic!("step: {job} is {state:?} at {op:?}"),
        }
    }

    /// `job` executes `P(resource)`, which must be its next op.
    pub fn lock(&mut self, job: JobId, resource: ResourceId) -> LockResult {
        self.expect_op(job, Op::Lock(resource));
        self.call(|protocol, ctx| ctx.lock(protocol, job, resource))
    }

    /// `job` executes `V(resource)`, which must be its next op.
    pub fn unlock(&mut self, job: JobId, resource: ResourceId) {
        self.expect_op(job, Op::Unlock(resource));
        self.call(|protocol, ctx| ctx.unlock(protocol, job, resource));
    }

    #[track_caller]
    fn expect_op(&self, job: JobId, op: Op) {
        let state = self.jobs.expect(job);
        let at = (state.state, state.current_op());
        assert_eq!(at, (ExecState::Ready, Some(op)), "{job} is elsewhere");
        let on = self.dispatched(state.processor);
        assert_eq!(on, Some(job), "{job} is not dispatched");
    }

    /// One tick: `op`, then the dispatch key wherever `op` touched one
    /// of its inputs.
    fn call<R>(&mut self, op: impl FnOnce(&mut P, &mut Ctx<'_>) -> R) -> R {
        self.now += Dur::new(1);
        self.jobs.enter_instant(self.now);
        let (protocol, mut ctx) = self.hook();
        let result = op(protocol, &mut ctx);
        while let Some(job) = self.jobs.done_candidates.pop() {
            // A candidate push is a hint, not a promise; re-check.
            let done = |j: &JobState| j.state == ExecState::Ready && j.is_complete();
            if self.jobs.get(job).is_some_and(done) {
                let (protocol, mut ctx) = self.hook();
                ctx.complete(protocol, job);
            }
        }
        let mut i = 0;
        while let Some(p) = self.jobs.dirty(i) {
            i += 1;
            let from = self.winners[p];
            let to = self.jobs.winner(p, from).map(|(id, _)| id);
            if to != from {
                let processor = ProcessorId::from_index(p as u32);
                self.hook().1.switch(processor, from, to);
                self.winners[p] = to;
            }
        }
        result
    }

    fn hook(&mut self) -> (&mut P, Ctx<'_>) {
        let ctx = Ctx {
            now: self.now,
            jobs: &mut self.jobs,
            trace: &mut self.trace,
            system: &self.system,
            timers: &mut self.timers,
        };
        (&mut self.protocol, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{Monitor, MonitorSpec};
    use mpcp_model::{Body, TaskDef};

    /// Grants every request: two holders at once.
    struct AlwaysGrant;

    impl Protocol for AlwaysGrant {
        fn name(&self) -> &'static str {
            "always-grant"
        }
        fn init(&mut self, _: &System) {}
        fn on_lock(&mut self, _: &mut Ctx<'_>, _: JobId, _: ResourceId) -> LockResult {
            LockResult::Granted
        }
        fn on_unlock(&mut self, _: &mut Ctx<'_>, _: JobId, _: ResourceId) {}
    }

    /// One semaphore, its waiters served in arrival order.
    #[derive(Default)]
    struct Fifo {
        holder: Option<JobId>,
        waiting: Vec<JobId>,
    }

    impl Protocol for Fifo {
        fn name(&self) -> &'static str {
            "fifo"
        }
        fn init(&mut self, _: &System) {}
        fn on_lock(&mut self, _: &mut Ctx<'_>, job: JobId, _: ResourceId) -> LockResult {
            if self.holder.is_none() {
                self.holder = Some(job);
                return LockResult::Granted;
            }
            self.waiting.push(job);
            LockResult::Blocked {
                holder: self.holder,
            }
        }
        fn on_unlock(&mut self, ctx: &mut Ctx<'_>, _: JobId, resource: ResourceId) {
            self.holder = (!self.waiting.is_empty()).then(|| self.waiting.remove(0));
            if let Some(next) = self.holder {
                ctx.grant_lock(next, resource);
            }
        }
    }

    /// Three tasks, one per processor and of rising priority, each
    /// computing before a section on the one global semaphore.
    fn system() -> (System, ResourceId) {
        let mut b = System::builder();
        let p = b.add_processors(3);
        let s = b.add_resource("S");
        for (i, &p) in p.iter().enumerate() {
            let body = Body::builder()
                .compute(3)
                .critical(s, |c| c.compute(2))
                .build();
            let def = TaskDef::new(format!("t{i}"), p).period(100);
            b.add_task(def.priority(i as u32 + 1).body(body));
        }
        (b.build().unwrap(), s)
    }

    /// What the monitor, every check on, finds in `host`'s trace.
    fn verdict<P: Protocol>(system: &System, host: &Host<P>) -> Vec<&'static str> {
        let mut monitor = Monitor::new(system, MonitorSpec::all());
        monitor.replay(host.trace());
        monitor.violations().map(|(name, _)| name).collect()
    }

    /// Releases one job of each task and steps each past its first
    /// computation, checking that only a step moves a program counter.
    fn start<P: Protocol>(host: &mut Host<P>, system: &System) -> Vec<JobId> {
        let jobs: Vec<JobId> = system
            .tasks()
            .iter()
            .map(|t| host.release(t.id()))
            .collect();
        for (p, &job) in jobs.iter().enumerate() {
            let processor = ProcessorId::from_index(p as u32);
            assert_eq!(host.dispatched(processor), Some(job));
            assert_eq!(host.jobs().running_on(processor), None, "a runner");
        }
        for &job in &jobs {
            // Three calls have passed each job's release: no progress.
            assert_eq!(host.jobs().expect(job).pc, 0);
            host.step(job);
        }
        for &job in &jobs {
            assert_eq!(host.jobs().expect(job).pc, 1);
        }
        jobs
    }

    #[test]
    fn the_monitor_judges_a_hosted_policy() {
        let (system, s) = system();
        let mut host = Host::new(&system, AlwaysGrant);
        let jobs = start(&mut host, &system);
        assert_eq!(host.lock(jobs[0], s), LockResult::Granted);
        assert_eq!(host.lock(jobs[1], s), LockResult::Granted);
        let found = verdict(&system, &host);
        assert!(found.contains(&"mutual_exclusion"), "{found:?}");
        assert!(!found.contains(&"priority_ordered_handoffs"), "{found:?}");

        let mut host = Host::new(&system, Fifo::default());
        let jobs = start(&mut host, &system);
        assert_eq!(host.lock(jobs[0], s), LockResult::Granted);
        for &waiter in &jobs[1..] {
            assert!(matches!(host.lock(waiter, s), LockResult::Blocked { .. }));
            assert_eq!(host.dispatched(host.jobs().expect(waiter).processor), None);
        }
        host.step(jobs[0]);
        host.unlock(jobs[0], s);
        // The `V(S)` was its last op: it completed in that call.
        assert!(host.jobs().get(jobs[0]).is_none());
        assert_eq!(host.dispatched(ProcessorId::from_index(0)), None);
        // The lower-priority waiter, first to arrive, has the semaphore
        // and its processor back, past its `P(S)`.
        assert_eq!(host.jobs().expect(jobs[1]).pc, 2);
        assert_eq!(host.dispatched(ProcessorId::from_index(1)), Some(jobs[1]));
        let found = verdict(&system, &host);
        assert!(found.contains(&"priority_ordered_handoffs"), "{found:?}");
        assert!(!found.contains(&"mutual_exclusion"), "{found:?}");
        // One tick per call, in order.
        let times: Vec<Time> = host.trace().events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(times.last(), Some(&Time::new(3 + 3 + 3 + 2)));
    }
}
