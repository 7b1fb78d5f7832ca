//! The discrete-event fixed-priority preemptive multiprocessor engine.
//!
//! The engine owns time, job release, dispatching and program execution;
//! a [`Protocol`] policy decides everything about semaphores. Scheduling
//! follows the paper's model (§3.1): on each processor the
//! highest-effective-priority ready job runs, equal priorities are FCFS,
//! and preemption is immediate.

use crate::event::EventKind;
use crate::job::{ExecState, JobState, Jobs, Runner};
use crate::metrics::{JobRecord, Metrics};
use crate::monitor::Monitor;
use crate::op::{Op, Program};
use crate::policy::{Ctx, Protocol};
use crate::queue::MinHeap;
use crate::trace::{Band, Trace};
use mpcp_model::{JobId, Machine, ProcessorId, System, TaskId, Time};

/// Safety bound on protocol/scheduler interactions within one instant.
const MAX_ROUNDS_PER_INSTANT: u32 = 1_000_000;

/// Engine configuration. Each task runs only on its bound processor
/// (§3.2, the protocol's assumption).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulation end time; the engine stops at the first instant `>=`
    /// this.
    pub horizon: Time,
    /// Hardware overhead model folded into job programs.
    pub machine: Machine,
    /// Stop at the end of the instant in which a deadline miss occurs.
    pub stop_on_miss: bool,
    /// Record events and occupancy slices (disable for long statistical
    /// runs; metrics are collected either way).
    pub record_trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: Time::new(u64::MAX / 4),
            machine: Machine::new(),
            stop_on_miss: false,
            record_trace: true,
        }
    }
}

impl SimConfig {
    /// A config that runs until `horizon`.
    pub fn until(horizon: u64) -> Self {
        SimConfig {
            horizon: Time::new(horizon),
            ..SimConfig::default()
        }
    }
}

/// What [`Simulator::execute_one_instantaneous_op`] did this round.
enum OpOutcome {
    /// No runner had an actionable op: the fixpoint is reached.
    Idle,
    /// A zero-compute program-counter advance: no event, no change to
    /// any input of the scheduler, so the next round may skip
    /// rescheduling.
    Invisible,
    /// A lock, unlock or suspension: scheduler state may have changed.
    Visible,
}

/// A discrete-event simulation of one [`System`] under one [`Protocol`].
///
/// The inner loop is allocation-free in the steady state: jobs live in a
/// slot arena ([`Jobs`]), the time queues are index-based binary heaps
/// with reusable storage, and per-instant scratch buffers are retained
/// across instants. [`Simulator::reset`] re-targets an existing simulator
/// at a new system, keeping every internal buffer's capacity — sweep
/// workers recycle one simulator across their whole scenario range.
#[derive(Debug)]
pub struct Simulator<P> {
    system: System,
    config: SimConfig,
    protocol: P,
    programs: Vec<Program>,
    now: Time,
    jobs: Jobs,
    trace: Trace,
    /// Pending releases as `(release time, task index, instance)`; the
    /// next instance of a task is pushed when the previous one releases.
    releases: MinHeap<(Time, u32, u32)>,
    /// Self-suspended jobs as `(wake time, id)`.
    sleeps: MinHeap<(Time, JobId)>,
    /// Pending deadline checks as `(absolute deadline, id)`; entries for
    /// jobs that completed early are pruned lazily.
    deadlines: MinHeap<(Time, JobId)>,
    /// Protocol wake-up requests ([`Ctx::schedule_timer`]); due entries
    /// fire [`Protocol::on_timer`] at the start of their instant.
    timers: MinHeap<Time>,
    /// Scratch: completed jobs found by the current sweep.
    done_scratch: Vec<JobId>,
    records: Vec<JobRecord>,
    misses: u64,
    finished: bool,
}

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator with the default configuration.
    pub fn new(system: &System, protocol: P) -> Self {
        Simulator::with_config(system, protocol, SimConfig::default())
    }

    /// Creates a simulator with an explicit configuration.
    pub fn with_config(system: &System, protocol: P, config: SimConfig) -> Self {
        let mut sim = Simulator {
            system: system.clone(),
            config,
            protocol,
            programs: Vec::new(),
            now: Time::ZERO,
            jobs: Jobs::default(),
            trace: Trace::new(),
            releases: MinHeap::new(),
            sleeps: MinHeap::new(),
            deadlines: MinHeap::new(),
            timers: MinHeap::new(),
            done_scratch: Vec::new(),
            records: Vec::new(),
            misses: 0,
            finished: false,
        };
        sim.init_run();
        sim
    }

    /// Re-targets this simulator at a new system, protocol and
    /// configuration, reusing all internal buffer capacity. Behaviorally
    /// identical to building a fresh simulator with
    /// [`Simulator::with_config`].
    pub fn reset(&mut self, system: &System, protocol: P, config: SimConfig) {
        self.system = system.clone();
        self.protocol = protocol;
        self.config = config;
        self.init_run();
    }

    /// (Re)initializes every run-scoped structure from `self.system` and
    /// `self.config`, retaining buffer capacity.
    fn init_run(&mut self) {
        let system = &self.system;
        let info = system.info();
        self.programs.clear();
        let machine = &self.config.machine;
        self.programs.extend(
            system
                .tasks()
                .iter()
                .map(|t| Program::flatten(t.body(), machine, info)),
        );
        self.releases.clear();
        for (ti, task) in system.tasks().iter().enumerate() {
            if let Some(t0) = task.try_release_of(0) {
                self.releases.push((t0, ti as u32, 0));
            }
        }
        self.done_scratch.clear();
        self.now = Time::ZERO;
        self.jobs
            .reset(system.tasks().len(), system.processors().len());
        self.trace
            .reset_for_run(self.config.record_trace, system.processors().len());
        self.sleeps.clear();
        self.deadlines.clear();
        self.timers.clear();
        self.records.clear();
        self.misses = 0;
        self.finished = false;
        self.protocol.init(system);
    }

    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The system being simulated.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The protocol policy driving this simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Ends the simulation and hands back the policy with whatever
    /// state it accumulated over the run.
    pub fn into_protocol(self) -> P {
        self.protocol
    }

    /// The recorded trace so far. Events are there as soon as they
    /// happen; a processor's occupancy slice appears when it *closes* —
    /// its occupant or band changes, or the run ends (the `step()` that
    /// returns `false`) — so mid-run the stretch each processor is in is
    /// not in [`Trace::slices`] yet, and [`Monitor::replay`] of an
    /// unfinished run takes it as unknown.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Attaches a streaming [`Monitor`] that observes every event and
    /// occupancy slice of the current run, even with trace recording
    /// disabled. A monitor is run-specific: [`Simulator::reset`] (and
    /// construction) detaches it, so attach after resetting.
    pub fn set_monitor(&mut self, monitor: Monitor) {
        self.trace.set_monitor(monitor);
    }

    /// The attached streaming monitor, if any.
    pub fn monitor(&self) -> Option<&Monitor> {
        self.trace.monitor()
    }

    /// Per-job records of completed jobs.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Total deadline misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The table of active jobs. A job's blocking counters as of
    /// [`Simulator::now`] are [`Jobs::blocking_at`].
    pub fn jobs(&self) -> &Jobs {
        &self.jobs
    }

    /// Aggregated metrics over completed (and, for blocking, in-flight)
    /// jobs, as of [`Simulator::now`].
    pub fn metrics(&self) -> Metrics {
        Metrics::collect(
            &self.system,
            &self.records,
            &self.jobs,
            self.now,
            self.misses,
        )
    }

    /// Runs to the configured horizon and returns the trace.
    pub fn run(&mut self) -> &Trace {
        while self.step() {}
        &self.trace
    }

    /// Runs until `t` (clamping the configured horizon) and returns the
    /// trace.
    pub fn run_until(&mut self, t: u64) -> &Trace {
        self.config.horizon = Time::new(t);
        self.run()
    }

    /// Advances to the next event instant. Returns `false` when the
    /// simulation is over (horizon reached, stop-on-miss triggered, or no
    /// activity left).
    pub fn step(&mut self) -> bool {
        if self.finished {
            return false;
        }
        if self.now >= self.config.horizon {
            return self.finish();
        }
        self.process_instant();
        if self.config.stop_on_miss && self.misses > 0 {
            return self.finish();
        }
        self.refresh_dirty();
        let Some(next) = self.next_event_time() else {
            return self.finish();
        };
        let next = next.min(self.config.horizon);
        if next <= self.now {
            // Can only happen when the horizon clamps to now.
            return self.finish();
        }
        if let Some(spin) = self.trace.monitor_mut().and_then(Monitor::spin_check) {
            // Time is about to move with these occupants in place. One
            // that did not change was seen when it last did.
            let mut i = 0;
            while let Some(pi) = self.jobs.dirty(i) {
                i += 1;
                let occupant = self.jobs.runner(pi).map(|r| r.id);
                spin.on_occupant(ProcessorId::from_index(pi as u32), occupant, self.now);
            }
        }
        self.now = next;
        self.jobs.enter_instant(next);
        #[cfg(debug_assertions)]
        self.jobs.assert_consistent(self.now);
        true
    }

    /// Ends the run: between steps a runner's progress, a queue's
    /// blocking and a processor's open slice lag the clock; once no step
    /// will follow, everything is settled and closed at `now`.
    fn finish(&mut self) -> bool {
        self.finished = true;
        for pi in 0..self.jobs.processors() {
            self.jobs.touch(pi, self.now);
        }
        self.trace.close_slices(self.now);
        false
    }

    /// The policy and its view of everything else, for one hook call.
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

    fn process_instant(&mut self) {
        let released = self.release_due_jobs();
        let woken = self.wake_sleepers();
        let timed = self.fire_timers();
        // At an instant with no arrivals, the scheduler's inputs are
        // exactly what they were after the previous instant's fixpoint
        // (advancing time only consumed `remaining`), so the first
        // reschedule is provably a no-op and the fixpoint may start
        // without it. Completions pending from the previous instant are
        // swept inside the fixpoint, which re-arms rescheduling itself.
        self.scheduling_fixpoint(released || woken || timed);
        self.check_deadlines();
    }

    fn fire_timers(&mut self) -> bool {
        let mut due = false;
        while let Some(&t) = self.timers.peek() {
            if t > self.now {
                break;
            }
            self.timers.pop();
            due = true;
        }
        if due {
            // One hook call per instant, however many requests landed on
            // it; the protocol re-derives what is actionable from its own
            // state.
            let (protocol, mut ctx) = self.hook();
            protocol.on_timer(&mut ctx);
        }
        due
    }

    fn release_due_jobs(&mut self) -> bool {
        // Due releases all have `t_rel == now` (the event queue never
        // skips a release time), so the heap pops them in task order,
        // instances in order within a task — the same order the old
        // per-task scan produced.
        let mut any = false;
        while let Some(&(t_rel, ti, instance)) = self.releases.peek() {
            if t_rel > self.now {
                break;
            }
            self.releases.pop();
            debug_assert_eq!(t_rel, self.now, "the event queue skipped a release");
            let task = &self.system.tasks()[ti as usize];
            let id = JobId::new(TaskId::from_index(ti), instance);
            let abs_deadline = t_rel + task.deadline();
            let home = task.processor();
            let priority = task.priority();
            // Periodic tasks release forever; aperiodic tasks stop at the
            // end of their arrival trace.
            if let Some(next) = task.try_release_of(instance + 1) {
                self.releases.push((next, ti, instance + 1));
            }
            self.deadlines.push((abs_deadline, id));
            let program = self.programs[ti as usize].clone();
            let job = JobState::new(id, home, priority, t_rel, abs_deadline, program);
            let (protocol, mut ctx) = self.hook();
            ctx.release(protocol, job);
            any = true;
        }
        any
    }

    fn wake_sleepers(&mut self) -> bool {
        // All due sleepers have `until == now` (wake times are event-queue
        // stops), so heap order is id order — matching the old full-table
        // scan.
        let mut any = false;
        while let Some(&(until, id)) = self.sleeps.peek() {
            if until > self.now {
                break;
            }
            self.sleeps.pop();
            self.hook().1.wake(id);
            any = true;
        }
        any
    }

    fn scheduling_fixpoint(&mut self, arrivals: bool) {
        let mut rounds = 0u32;
        // Rescheduling is a pure function of job states, priorities and
        // the current runner assignment. An invisible op (zero-compute
        // pc advance) changes none of its inputs, so the reschedule it
        // would trigger is provably a no-op and is skipped.
        let mut need_resched = arrivals;
        loop {
            rounds += 1;
            assert!(
                rounds <= MAX_ROUNDS_PER_INSTANT,
                "no scheduling fixpoint at {} (protocol livelock?)",
                self.now
            );
            // A job whose last instruction has executed is done, whether
            // or not it still holds a processor — completion is free.
            if self.sweep_completions() {
                need_resched = true;
                continue;
            }
            if need_resched {
                self.reschedule();
                need_resched = false;
            }
            match self.execute_one_instantaneous_op() {
                OpOutcome::Idle => break,
                OpOutcome::Invisible => {}
                OpOutcome::Visible => need_resched = true,
            }
        }
    }

    fn sweep_completions(&mut self) -> bool {
        if self.jobs.done_candidates.is_empty() {
            return false;
        }
        // Candidates accrued since the last sweep are either the
        // instant-start batch (releases then wakes, each delivered in id
        // order) or a single op-path job, so sorting by id reproduces
        // the completion order of the old full-table id-order scan.
        std::mem::swap(&mut self.done_scratch, &mut self.jobs.done_candidates);
        self.jobs.done_candidates.clear();
        self.done_scratch.sort_unstable();
        self.done_scratch.dedup();
        let mut any = false;
        for i in 0..self.done_scratch.len() {
            let id = self.done_scratch[i];
            // A candidate push is a hint, not a promise; re-check.
            let done = self
                .jobs
                .get(id)
                .is_some_and(|j| j.state == ExecState::Ready && j.is_complete());
            if !done {
                continue;
            }
            any = true;
            self.complete_job(id);
            // If it held a processor, it executed its last op there in
            // this instant.
            let mut i = 0;
            while let Some(pi) = self.jobs.dirty(i) {
                i += 1;
                if self.jobs.runner(pi).is_some_and(|r| r.id == id) {
                    self.jobs.set_runner(pi, None, self.now);
                }
            }
        }
        any
    }

    /// Picks runners, tracing preemptions and starts.
    fn reschedule(&mut self) {
        // Only processors touched since the last reschedule can choose
        // differently: on the others every input of the dispatch key is
        // what it was when their runner won.
        let mut i = 0;
        while let Some(pi) = self.jobs.dirty(i) {
            i += 1;
            if !*self.jobs.marked(pi) {
                continue;
            }
            let current = self.jobs.runner(pi).map(|r| r.id);
            let chosen = self.jobs.winner(pi, current);
            self.install_runner(pi, chosen);
            // Served — including the mark `install_runner` just left.
            *self.jobs.marked(pi) = false;
        }
    }

    fn install_runner(&mut self, pi: usize, chosen: Option<(JobId, u32)>) {
        let proc = ProcessorId::from_index(pi as u32);
        let current = self.jobs.runner(pi).map(|r| r.id);
        let to = chosen.map(|(id, _)| id);
        if to == current {
            return;
        }
        self.hook().1.switch(proc, current, to);
        self.jobs.set_runner(pi, chosen, self.now);
    }

    /// Executes at most one instantaneous operation (lock, unlock,
    /// suspension, zero-compute skip, completion) on behalf of some
    /// runner. Reports whether — and how visibly — anything happened.
    fn execute_one_instantaneous_op(&mut self) -> OpOutcome {
        // A processor outside the dirty set has a runner in mid-compute,
        // or spinning, or none: nothing to execute there.
        let mut i = 0;
        while let Some(pi) = self.jobs.dirty(i) {
            i += 1;
            let Some(Runner { id, slot, .. }) = self.jobs.runner(pi) else {
                continue;
            };
            let job = self.jobs.by_slot(slot);
            debug_assert_eq!(job.id, id);
            if job.state != ExecState::Ready {
                // A spin-blocked runner occupies the processor but has no
                // actionable op (its pc still points at the pending Lock).
                continue;
            }
            match job.current_op() {
                None => {
                    unreachable!("{id} complete but not swept");
                }
                Some(Op::Compute(_)) => {
                    if job.remaining.is_zero() {
                        let complete = {
                            let job = self.jobs.by_slot_mut(slot);
                            job.advance_pc();
                            job.is_complete()
                        };
                        if complete {
                            self.jobs.done_candidates.push(id);
                        }
                        return OpOutcome::Invisible;
                    }
                }
                Some(Op::Suspend(d)) => {
                    let until = self.now + d;
                    self.hook().1.suspend(id, until);
                    self.sleeps.push((until, id));
                    self.jobs.set_runner(pi, None, self.now);
                    return OpOutcome::Visible;
                }
                Some(Op::Lock(res)) => {
                    let (protocol, mut ctx) = self.hook();
                    ctx.lock(protocol, id, res);
                    return OpOutcome::Visible;
                }
                Some(Op::Unlock(res)) => {
                    let (protocol, mut ctx) = self.hook();
                    ctx.unlock(protocol, id, res);
                    return OpOutcome::Visible;
                }
            }
        }
        OpOutcome::Idle
    }

    fn complete_job(&mut self, id: JobId) {
        let now = self.now;
        let (protocol, mut ctx) = self.hook();
        let (job, response) = ctx.complete(protocol, id);
        let late = now > job.abs_deadline;
        let unrecorded = late && !job.miss_recorded;
        let record = JobRecord {
            id,
            release: job.release,
            completion: now,
            response,
            blocked_local: job.blocked_local,
            blocked_global: job.blocked_global,
            lower_interference: job.lower_interference,
            missed: job.miss_recorded || late,
        };
        self.records.push(record);
        if unrecorded {
            // Normally check_deadlines fires at the deadline instant; this
            // covers a late completion in the same instant the horizon cut
            // in.
            self.misses += 1;
            self.trace.push(self.now, id, EventKind::DeadlineMiss);
        }
    }

    fn check_deadlines(&mut self) {
        while let Some(&(t, id)) = self.deadlines.peek() {
            if t <= self.now {
                self.deadlines.pop();
                if let Some(slot) = self.jobs.slot_of(id) {
                    let job = self.jobs.by_slot_mut(slot);
                    if !job.is_complete() && !job.miss_recorded {
                        job.miss_recorded = true;
                        self.misses += 1;
                        self.trace.push(self.now, id, EventKind::DeadlineMiss);
                    }
                }
            } else if self.jobs.get(id).is_none() {
                // The job completed before its deadline: prune the stale
                // entry so it never proposes a no-op event instant.
                // (Nothing observable happens at such an instant — slices
                // merge and blocking accounting is linear in dt — so this
                // only removes redundant steps.)
                self.deadlines.pop();
            } else {
                break;
            }
        }
    }

    fn next_event_time(&self) -> Option<Time> {
        let mut next: Option<Time> = None;
        let mut consider = |t: Time| {
            if t > self.now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        if let Some(&(t, _, _)) = self.releases.peek() {
            consider(t);
        }
        if let Some(&(t, _)) = self.sleeps.peek() {
            // Due sleepers were woken this instant, so t > now.
            consider(t);
        }
        if let Some(&(t, _)) = self.deadlines.peek() {
            // Overdue and stale entries were popped by check_deadlines,
            // so t > now and the job is live.
            consider(t);
        }
        if let Some(&t) = self.timers.peek() {
            // Due timers were popped by fire_timers, so t > now.
            consider(t);
        }
        if let Some(t) = self.jobs.next_compute_end() {
            // A cached instant: no job is dereferenced here.
            consider(t);
        }
        next
    }

    /// At the end of an instant, for the processors it touched: when the
    /// runner's compute op will end, and — when anyone consumes slices —
    /// who occupies the processor from now on, in which band.
    fn refresh_dirty(&mut self) {
        let wants_slices = self.trace.wants_slices();
        let mut i = 0;
        while let Some(pi) = self.jobs.dirty(i) {
            i += 1;
            let (mut end, mut occupant, mut band) = (Time::MAX, None, Band::Normal);
            if let Some(Runner { id, slot, .. }) = self.jobs.runner(pi) {
                let job = self.jobs.by_slot(slot);
                debug_assert_eq!(job.id, id);
                occupant = Some(id);
                if let Some(Op::Compute(_)) = job.current_op() {
                    debug_assert!(!job.remaining.is_zero(), "{id} is at an op end");
                    // An op that ends past the end of time never does.
                    end = self.now.saturating_add(job.remaining);
                }
                if wants_slices && !job.held.is_empty() {
                    band = if job.effective_priority.is_global() {
                        Band::GlobalCs
                    } else {
                        Band::LocalCs
                    };
                }
            }
            self.jobs.set_compute_end(pi, end);
            if wants_slices {
                let processor = ProcessorId::from_index(pi as u32);
                self.trace.occupy(processor, occupant, band, self.now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Ctx, LockResult, Protocol};
    use mpcp_model::{Body, Dur, ResourceId, System, TaskDef};

    /// A protocol that grants everything FIFO with no priority changes
    /// (enough to exercise the engine itself).
    struct Trivial {
        held: std::collections::HashMap<ResourceId, JobId>,
        waiting: Vec<(ResourceId, JobId)>,
    }

    impl Trivial {
        fn new() -> Self {
            Trivial {
                held: Default::default(),
                waiting: Vec::new(),
            }
        }
    }

    impl Protocol for Trivial {
        fn name(&self) -> &'static str {
            "trivial"
        }
        fn init(&mut self, _system: &System) {}
        fn on_lock(&mut self, _ctx: &mut Ctx<'_>, job: JobId, res: ResourceId) -> LockResult {
            if let Some(&holder) = self.held.get(&res) {
                self.waiting.push((res, job));
                LockResult::Blocked {
                    holder: Some(holder),
                }
            } else {
                self.held.insert(res, job);
                LockResult::Granted
            }
        }
        fn on_unlock(&mut self, ctx: &mut Ctx<'_>, _job: JobId, res: ResourceId) {
            self.held.remove(&res);
            if let Some(pos) = self.waiting.iter().position(|(r, _)| *r == res) {
                let (_, next) = self.waiting.remove(pos);
                self.held.insert(res, next);
                ctx.grant_lock(next, res);
            }
        }
    }

    fn jid(t: u32, i: u32) -> JobId {
        JobId::new(TaskId::from_index(t), i)
    }

    #[test]
    fn single_task_runs_to_completion_periodically() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("t", p)
                .period(10)
                .body(Body::builder().compute(3).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Trivial::new());
        sim.run_until(30);
        assert_eq!(sim.records().len(), 3);
        for (i, r) in sim.records().iter().enumerate() {
            assert_eq!(r.id, jid(0, i as u32));
            assert_eq!(r.response, Dur::new(3));
            assert!(!r.missed);
        }
        assert_eq!(sim.misses(), 0);
    }

    #[test]
    fn preemption_by_higher_priority() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("hi", p)
                .period(10)
                .offset(2)
                .priority(2)
                .body(Body::builder().compute(2).build()),
        );
        b.add_task(
            TaskDef::new("lo", p)
                .period(20)
                .priority(1)
                .body(Body::builder().compute(6).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Trivial::new());
        sim.run_until(20);
        // lo runs 0..2, preempted 2..4, resumes 4..8.
        assert_eq!(sim.trace().response_of(jid(1, 0)), Some(Dur::new(8)));
        assert_eq!(sim.trace().response_of(jid(0, 0)), Some(Dur::new(2)));
        assert!(sim
            .trace()
            .find(|e| matches!(e.kind, EventKind::Preempted { .. }))
            .is_some());
    }

    #[test]
    fn blocking_and_handoff_work() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("a", p[0])
                .period(100)
                .priority(2)
                .body(Body::builder().critical(s, |c| c.compute(4)).build()),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(100)
                .priority(1)
                .offset(1)
                .body(Body::builder().critical(s, |c| c.compute(2)).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Trivial::new());
        sim.run_until(100);
        // a: 0..4 in cs. b requests at 1, blocked until 4, runs 4..6.
        assert_eq!(sim.trace().response_of(jid(0, 0)), Some(Dur::new(4)));
        assert_eq!(sim.trace().response_of(jid(1, 0)), Some(Dur::new(5)));
        let rec_b = &sim.records()[1];
        assert_eq!(rec_b.blocked_global, Dur::new(3));
        assert_eq!(rec_b.blocked_local, Dur::ZERO);
    }

    #[test]
    fn self_suspension_releases_processor() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("hi", p)
                .period(100)
                .priority(2)
                .body(Body::builder().compute(1).suspend(5).compute(1).build()),
        );
        b.add_task(
            TaskDef::new("lo", p)
                .period(100)
                .priority(1)
                .body(Body::builder().compute(4).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Trivial::new());
        sim.run_until(100);
        // hi: 0..1 compute, sleeps 1..6, 6..7 compute => response 7.
        // lo runs 1..5 during hi's sleep.
        assert_eq!(sim.trace().response_of(jid(0, 0)), Some(Dur::new(7)));
        assert_eq!(sim.trace().response_of(jid(1, 0)), Some(Dur::new(5)));
    }

    #[test]
    fn deadline_misses_are_detected_once() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("t", p)
                .period(10)
                .deadline(2)
                .body(Body::builder().compute(5).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Trivial::new());
        sim.run_until(10);
        assert_eq!(sim.misses(), 1);
        assert_eq!(sim.trace().deadline_misses(), 1);
        assert!(sim.records()[0].missed);
    }

    #[test]
    fn stop_on_miss_halts() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("t", p)
                .period(10)
                .deadline(1)
                .body(Body::builder().compute(5).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::with_config(
            &sys,
            Trivial::new(),
            SimConfig {
                stop_on_miss: true,
                ..SimConfig::until(1000)
            },
        );
        sim.run();
        assert!(sim.now() <= Time::new(2));
        assert_eq!(sim.misses(), 1);
    }

    /// `system` with `extra` more processors, none of which has a task.
    fn padded(system: &System, extra: usize) -> System {
        let mut b = System::builder();
        b.add_processors(system.processors().len() + extra);
        for r in system.resources() {
            b.add_resource(r.name());
        }
        for t in system.tasks() {
            b.add_task(t.to_def());
        }
        b.build().unwrap()
    }

    /// What a step dereferences is what the instant touched. The count
    /// does not know how wide the machine is — sixteen processors without
    /// a task change nothing — and it follows the events: at most two
    /// per event and two per step (measured: ~2.1 per event, ~4.3 per
    /// step), where one pass over this machine per step is 8 per step,
    /// 24 with the padding, and the old engine made three and more.
    #[test]
    fn a_step_visits_the_processors_it_touches_not_the_machine() {
        use mpcp_taskgen::{generate, WorkloadConfig};
        use std::sync::atomic::Ordering::Relaxed;
        for seed in 4000..4004u64 {
            let cfg = WorkloadConfig::default()
                .processors(8)
                .tasks_per_processor(8)
                .resources(1, 2)
                .sections(0, 2)
                .global_sections(2)
                .periods(500, 5000)
                .utilization(0.30 + 0.05 * (seed % 10) as f64);
            let system = generate(&cfg, seed);
            let run = |system: &System| {
                let mut sim =
                    Simulator::with_config(system, Trivial::new(), SimConfig::until(20_000));
                let mut steps = 1u64;
                while sim.step() {
                    steps += 1;
                }
                let events = sim.trace().events().len() as u64;
                (sim.jobs.visits.load(Relaxed), steps, events)
            };
            let (visits, steps, events) = run(&system);
            assert_eq!(run(&padded(&system, 16)), (visits, steps, events));
            assert!(steps > 4_000, "seed {seed}: only {steps} steps");
            assert!(
                visits <= 2 * events + 2 * steps,
                "seed {seed}: {visits} visits in {steps} steps, {events} events"
            );
        }
    }

    #[test]
    fn slices_cover_the_timeline() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("t", p)
                .period(4)
                .body(Body::builder().compute(2).build()),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Trivial::new());
        sim.run_until(8);
        let busy: u64 = sim
            .trace()
            .slices()
            .iter()
            .filter(|s| s.job.is_some())
            .map(|s| s.dur.ticks())
            .sum();
        assert_eq!(busy, 4);
    }
}
