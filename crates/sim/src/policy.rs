//! The protocol policy interface.
//!
//! A [`Protocol`] decides what happens at semaphore operations: whether a
//! `P(S)` is granted, who inherits which priority, where a job executes
//! its critical section, and who is woken by a `V(S)`. The engine owns
//! time, job programs and dispatching; the protocol mutates job priorities
//! and wait states through [`Ctx`].

use crate::event::EventKind;
use crate::job::{ExecState, JobState, Jobs};
use crate::queue::MinHeap;
use crate::trace::Trace;
use mpcp_model::{JobId, Priority, ProcessorId, ResourceId, System, Time};

/// Outcome of a lock request; see [`Protocol::on_lock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockResult {
    /// The requesting job obtained the semaphore and continues.
    Granted,
    /// The requesting job blocks. The engine marks it blocked on the
    /// resource; the protocol must later resume it with
    /// [`Ctx::grant_lock`] (semaphore handed over) or [`Ctx::wake_retry`]
    /// (retry the request).
    Blocked {
        /// The holding job, if the protocol exposes it (for tracing).
        holder: Option<JobId>,
    },
    /// The requesting job busy-waits: it stays a dispatch candidate and
    /// occupies its processor (making no program progress, its wait
    /// accounted as blocking) until the protocol resumes it with
    /// [`Ctx::grant_lock`]. Spin-lock protocols (MSRP) raise the job to a
    /// non-preemptable priority before returning this.
    Spin {
        /// The holding job, if the protocol exposes it (for tracing).
        holder: Option<JobId>,
    },
}

/// Mutable view of the simulation handed to protocol hooks.
pub struct Ctx<'a> {
    pub(crate) now: Time,
    pub(crate) jobs: &'a mut Jobs,
    pub(crate) trace: &'a mut Trace,
    pub(crate) system: &'a System,
    pub(crate) timers: &'a mut MinHeap<Time>,
}

impl<'a> Ctx<'a> {
    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The system under simulation.
    pub fn system(&self) -> &System {
        self.system
    }

    /// Immutable job state.
    ///
    /// # Panics
    ///
    /// Panics if the job is not active.
    #[track_caller]
    pub fn job(&self, job: JobId) -> &JobState {
        self.jobs.expect(job)
    }

    /// Whether `job` is still active (released and not completed).
    pub fn is_active(&self, job: JobId) -> bool {
        self.jobs.get(job).is_some()
    }

    /// All active jobs.
    pub fn jobs(&self) -> &Jobs {
        self.jobs
    }

    /// Sets the effective priority of `job`, tracing the change.
    ///
    /// # Panics
    ///
    /// Panics if the job is not active.
    #[track_caller]
    pub fn set_priority(&mut self, job: JobId, priority: Priority) {
        let from = self.jobs.expect(job).effective_priority;
        if from != priority {
            self.trace.push(
                self.now,
                job,
                EventKind::PriorityChanged { from, to: priority },
            );
            self.jobs.touch_mut(job, self.now).effective_priority = priority;
        }
    }

    /// Raises the effective priority of `job` to at least `priority`
    /// (priority inheritance never lowers).
    ///
    /// # Panics
    ///
    /// Panics if the job is not active.
    #[track_caller]
    pub fn raise_priority(&mut self, job: JobId, priority: Priority) {
        if self.jobs.expect(job).effective_priority < priority {
            self.set_priority(job, priority);
        }
    }

    /// Moves `job` to `processor` (DPCP critical-section migration),
    /// tracing the move.
    ///
    /// # Panics
    ///
    /// Panics if the job is not active.
    #[track_caller]
    pub fn set_processor(&mut self, job: JobId, processor: ProcessorId) {
        let from = self.jobs.expect(job).processor;
        if from != processor {
            self.trace.push(
                self.now,
                job,
                EventKind::Migrated {
                    from,
                    to: processor,
                },
            );
            self.jobs.set_processor(job, processor, self.now);
        }
    }

    /// Resumes a blocked `job` *with* the semaphore it was waiting for:
    /// the lock is recorded as held, the program counter moves past the
    /// `P(S)`, and the job becomes ready (§5 rule 7 hand-off).
    ///
    /// # Panics
    ///
    /// Panics if the job is not active or not blocked on `resource`.
    #[track_caller]
    pub fn grant_lock(&mut self, job: JobId, resource: ResourceId) {
        let state = self.jobs.touch_mut(job, self.now);
        match state.state {
            ExecState::Blocked { resource: r, .. } if r == resource => {}
            ref other => panic!("grant_lock: {job} is {other:?}, not blocked on {resource}"),
        }
        state.held.push(resource);
        state.advance_pc();
        state.state = ExecState::Ready;
        state.spin = false;
        let complete = state.is_complete();
        self.trace
            .push(self.now, job, EventKind::HandedOff { resource, to: job });
        if complete {
            // Unreachable for balanced programs (a V follows every P),
            // but keeps the completion-candidate invariant total.
            self.jobs.done_candidates.push(job);
        }
    }

    /// Resumes a blocked `job` *without* the semaphore: it becomes ready
    /// with the program counter still at the `P(S)`, which re-executes
    /// when the job is next scheduled (local PCP retry semantics).
    ///
    /// # Panics
    ///
    /// Panics if the job is not active or not blocked.
    #[track_caller]
    pub fn wake_retry(&mut self, job: JobId) {
        let state = self.jobs.touch_mut(job, self.now);
        assert!(
            matches!(state.state, ExecState::Blocked { .. }),
            "wake_retry: {job} is not blocked"
        );
        state.state = ExecState::Ready;
        state.spin = false;
        self.trace.push(self.now, job, EventKind::Woken);
    }

    /// Requests a protocol wake-up: the engine calls
    /// [`Protocol::on_timer`] at the start of instant `at`, even if no
    /// release, wake-up or compute boundary falls there. Non-work-
    /// conserving policies (offline schedule replay) use this to act at
    /// scheduled slots the event queues know nothing about. Requests at
    /// or before the current instant are ignored — the protocol is
    /// already running inside the current instant's fixpoint and can act
    /// directly.
    pub fn schedule_timer(&mut self, at: Time) {
        if at > self.now {
            self.timers.push(at);
        }
    }
}

/// A synchronization protocol policy driven by the engine.
///
/// All hooks are invoked *while the job in question is scheduled* on some
/// processor, mirroring the paper's model where `P()`/`V()` execute on the
/// requesting processor.
pub trait Protocol {
    /// Short machine-readable name (for reports).
    fn name(&self) -> &'static str;

    /// Called once before the simulation starts.
    fn init(&mut self, system: &System);

    /// A new job was released. Default: nothing.
    fn on_release(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let _ = (ctx, job);
    }

    /// The scheduled `job` executes `P(resource)`.
    ///
    /// On [`LockResult::Granted`] the engine records the resource as held
    /// and advances the job; the protocol should have applied any priority
    /// boost via [`Ctx`]. On [`LockResult::Blocked`] the engine marks the
    /// job blocked on `resource`.
    fn on_lock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) -> LockResult;

    /// The scheduled `job` executed `V(resource)` (the engine has already
    /// removed the resource from the job's held list and advanced it).
    /// The protocol restores priorities and resumes waiters.
    fn on_unlock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId);

    /// `job` completed (still in the jobs table at this point). Default:
    /// nothing.
    fn on_complete(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let _ = (ctx, job);
    }

    /// A timer requested via [`Ctx::schedule_timer`] is due (called once
    /// per instant with at least one due timer, before the scheduling
    /// fixpoint). Default: nothing.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

impl Protocol for Box<dyn Protocol> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn init(&mut self, system: &System) {
        (**self).init(system);
    }
    fn on_release(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        (**self).on_release(ctx, job);
    }
    fn on_lock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) -> LockResult {
        (**self).on_lock(ctx, job, resource)
    }
    fn on_unlock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) {
        (**self).on_unlock(ctx, job, resource);
    }
    fn on_complete(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        (**self).on_complete(ctx, job);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        (**self).on_timer(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Program;
    use mpcp_model::{Body, Machine, System, TaskDef, TaskId};

    fn setup() -> (System, Jobs, Trace) {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("a", p[0])
                .period(10)
                .priority(2)
                .body(Body::builder().critical(s, |c| c.compute(1)).build()),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(20)
                .priority(1)
                .body(Body::builder().critical(s, |c| c.compute(1)).build()),
        );
        let sys = b.build().unwrap();
        let mut jobs = Jobs::default();
        jobs.reset(sys.tasks().len(), sys.processors().len());
        for t in sys.tasks() {
            let prog = Program::flatten(t.body(), &Machine::new(), sys.info());
            jobs.release(JobState::new(
                JobId::first(t.id()),
                t.processor(),
                t.priority(),
                Time::ZERO,
                Time::new(100),
                prog,
            ));
        }
        (sys, jobs, Trace::new())
    }

    fn jid(i: u32) -> JobId {
        JobId::first(TaskId::from_index(i))
    }

    #[test]
    fn priority_changes_are_traced_once() {
        let (sys, mut jobs, mut trace) = setup();
        let mut timers = MinHeap::new();
        let mut ctx = Ctx {
            now: Time::new(5),
            jobs: &mut jobs,
            trace: &mut trace,
            system: &sys,
            timers: &mut timers,
        };
        ctx.set_priority(jid(0), Priority::global(1));
        ctx.set_priority(jid(0), Priority::global(1)); // no-op
        ctx.raise_priority(jid(0), Priority::task(0)); // lower: no-op
        assert_eq!(ctx.job(jid(0)).effective_priority, Priority::global(1));
        let _ = ctx;
        assert_eq!(trace.events().len(), 1);
    }

    #[test]
    fn grant_lock_advances_past_the_lock_op() {
        let (sys, mut jobs, mut trace) = setup();
        let s = mpcp_model::ResourceId::from_index(0);
        jobs.expect_mut(jid(1)).state = ExecState::Blocked {
            resource: s,
            global: true,
        };
        let mut timers = MinHeap::new();
        let mut ctx = Ctx {
            now: Time::new(2),
            jobs: &mut jobs,
            trace: &mut trace,
            system: &sys,
            timers: &mut timers,
        };
        ctx.grant_lock(jid(1), s);
        let j = ctx.job(jid(1));
        assert_eq!(j.state, ExecState::Ready);
        assert_eq!(j.held, vec![s]);
        assert_eq!(j.pc, 1); // past the Lock op, at the inner Compute
    }

    #[test]
    fn wake_retry_keeps_pc() {
        let (sys, mut jobs, mut trace) = setup();
        let s = mpcp_model::ResourceId::from_index(0);
        jobs.expect_mut(jid(1)).state = ExecState::Blocked {
            resource: s,
            global: false,
        };
        let mut timers = MinHeap::new();
        let mut ctx = Ctx {
            now: Time::new(2),
            jobs: &mut jobs,
            trace: &mut trace,
            system: &sys,
            timers: &mut timers,
        };
        ctx.wake_retry(jid(1));
        let j = ctx.job(jid(1));
        assert_eq!(j.state, ExecState::Ready);
        assert!(j.held.is_empty());
        assert_eq!(j.pc, 0);
    }

    #[test]
    #[should_panic(expected = "not blocked")]
    fn grant_lock_on_ready_job_panics() {
        let (sys, mut jobs, mut trace) = setup();
        let mut timers = MinHeap::new();
        let mut ctx = Ctx {
            now: Time::ZERO,
            jobs: &mut jobs,
            trace: &mut trace,
            system: &sys,
            timers: &mut timers,
        };
        ctx.grant_lock(jid(0), mpcp_model::ResourceId::from_index(0));
    }

    #[test]
    fn migration_traced() {
        let (sys, mut jobs, mut trace) = setup();
        let mut timers = MinHeap::new();
        let mut ctx = Ctx {
            now: Time::ZERO,
            jobs: &mut jobs,
            trace: &mut trace,
            system: &sys,
            timers: &mut timers,
        };
        let p1 = mpcp_model::ProcessorId::from_index(1);
        ctx.set_processor(jid(0), p1);
        assert_eq!(ctx.job(jid(0)).processor, p1);
        assert_eq!(ctx.job(jid(0)).home, mpcp_model::ProcessorId::from_index(0));
        let _ = ctx;
        assert!(trace
            .find(|e| matches!(e.kind, EventKind::Migrated { .. }))
            .is_some());
    }
}
