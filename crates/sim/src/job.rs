//! Run-time job state.

use crate::op::{Op, Program};
use mpcp_model::{Dur, JobId, Priority, ProcessorId, ResourceId, Time};
use std::cmp::Reverse;
#[cfg(any(test, debug_assertions))]
use std::sync::atomic::Ordering::Relaxed;

/// Scheduling state of an active job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecState {
    /// Eligible to run on its current processor.
    Ready,
    /// Waiting for a semaphore; the program counter still points at the
    /// pending [`Op::Lock`].
    Blocked {
        /// The semaphore waited for.
        resource: ResourceId,
        /// Whether the semaphore is global (used to classify measured
        /// blocking).
        global: bool,
    },
    /// Self-suspended until the given instant.
    Sleeping {
        /// Wake-up time.
        until: Time,
    },
}

/// The full state of one active job.
#[derive(Debug, Clone)]
pub struct JobState {
    /// The job's identity.
    pub id: JobId,
    /// The processor the task is statically bound to.
    pub home: ProcessorId,
    /// The processor the job currently runs on (differs from `home` only
    /// under migrating protocols such as DPCP).
    pub processor: ProcessorId,
    /// The task's assigned priority.
    pub base_priority: Priority,
    /// The current effective priority (inheritance, gcs boosts).
    pub effective_priority: Priority,
    /// Release time.
    pub release: Time,
    /// Absolute deadline.
    pub abs_deadline: Time,
    /// The flattened program.
    pub program: Program,
    /// Index of the current operation.
    pub pc: usize,
    /// Remaining time of the current [`Op::Compute`], if `pc` points at
    /// one. Crate-private because it lags the clock while the job runs,
    /// as the blocking counters below do while it waits.
    pub(crate) remaining: Dur,
    /// Scheduling state.
    pub state: ExecState,
    /// Whether a [`ExecState::Blocked`] wait busy-waits: the job remains a
    /// dispatch candidate and occupies its processor without making
    /// program progress ([`LockResult::Spin`](crate::LockResult::Spin)).
    pub spin: bool,
    /// Resources currently held, in lock order.
    pub held: Vec<ResourceId>,
    /// Time blocked on local semaphores, settled up to the last change
    /// on the job's processor. Crate-private because it lags the clock:
    /// read it through [`Jobs::blocking_at`], which adds the open
    /// interval.
    pub(crate) blocked_local: Dur,
    /// Time blocked on global semaphores (settled like `blocked_local`).
    pub(crate) blocked_global: Dur,
    /// Time ready but displaced by a job of lower assigned priority
    /// (e.g. a gcs executing in the global band; settled like
    /// `blocked_local`).
    pub(crate) lower_interference: Dur,
    /// Whether a deadline miss has been recorded for this job.
    pub miss_recorded: bool,
}

impl JobState {
    pub(crate) fn new(
        id: JobId,
        home: ProcessorId,
        base_priority: Priority,
        release: Time,
        abs_deadline: Time,
        program: Program,
    ) -> Self {
        let mut job = JobState {
            id,
            home,
            processor: home,
            base_priority,
            effective_priority: base_priority,
            release,
            abs_deadline,
            program,
            pc: 0,
            remaining: Dur::ZERO,
            state: ExecState::Ready,
            spin: false,
            held: Vec::new(),
            blocked_local: Dur::ZERO,
            blocked_global: Dur::ZERO,
            lower_interference: Dur::ZERO,
            miss_recorded: false,
        };
        job.sync_remaining();
        job
    }

    /// The operation at the program counter, or `None` when the job is
    /// complete.
    pub fn current_op(&self) -> Option<Op> {
        self.program.op(self.pc)
    }

    /// Whether the job has executed its whole program.
    pub fn is_complete(&self) -> bool {
        self.pc >= self.program.len()
    }

    /// Advances past the current operation and initializes `remaining` for
    /// the next one.
    pub(crate) fn advance_pc(&mut self) {
        self.pc += 1;
        self.sync_remaining();
    }

    fn sync_remaining(&mut self) {
        self.remaining = match self.current_op() {
            Some(Op::Compute(d)) => d,
            _ => Dur::ZERO,
        };
    }

    /// Whether the job competes for its processor: ready, or busy-waiting
    /// on a semaphore (a spinner occupies a processor like a runner).
    fn is_dispatchable(&self) -> bool {
        match self.state {
            ExecState::Ready => true,
            ExecState::Blocked { .. } => self.spin,
            ExecState::Sleeping { .. } => false,
        }
    }
}

/// The job holding a processor: its id, its arena slot, and the
/// assigned priority the accounting predicate compares waiters against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Runner {
    pub(crate) id: JobId,
    pub(crate) slot: u32,
    pub(crate) base: Priority,
}

/// One processor's run queue, with the open accounting interval of the
/// jobs waiting on it and of the job running on it.
#[derive(Debug, Default)]
struct RunQueue {
    /// Live slots placed on this processor, in no particular order (the
    /// scheduler's key is unique per job, so its maximum is too).
    slots: Vec<u32>,
    /// The job holding the processor since `settled`.
    runner: Option<Runner>,
    /// The instant up to which the waiting jobs' blocking counters are
    /// settled; no state, placement or runner here has changed since.
    settled: Time,
    /// The instant up to which the runner's own progress (`remaining`,
    /// or a spinner's blocking) is settled: ahead of `settled` when only
    /// its compute op ended since, and the current instant exactly when
    /// this processor is in [`Jobs::dirty`].
    progress: Time,
    /// Whether a scheduler input here changed since the last reschedule.
    marked: bool,
}

/// `job`'s `[blocked_local, blocked_global, lower_interference]` after
/// `dt` more spent while `runner` holds its processor. A runner's own
/// accrual — a spinner burning its processor — is [`RunQueue::progress`]'s
/// interval, so `job` being the runner adds nothing here.
fn accrued(job: &JobState, runner: Option<Runner>, dt: Dur) -> [Dur; 3] {
    let [mut local, mut global, mut lower] = [
        job.blocked_local,
        job.blocked_global,
        job.lower_interference,
    ];
    let runner_base = match runner {
        Some(r) if r.id == job.id => return [local, global, lower],
        r => r.map(|r| r.base),
    };
    match job.state {
        // A global wait is caused remotely; it counts in full, whatever
        // runs locally.
        ExecState::Blocked { global: true, .. } => global += dt,
        // A local (PCP) wait counts as blocking only while the processor
        // is NOT serving a higher-assigned-priority job — that portion
        // is ordinary preemption interference, which Theorem 3 accounts
        // separately.
        ExecState::Blocked { .. } if runner_base.is_none_or(|rb| rb <= job.base_priority) => {
            local += dt;
        }
        ExecState::Ready if runner_base.is_some_and(|rb| rb < job.base_priority) => lower += dt,
        ExecState::Blocked { .. } | ExecState::Ready | ExecState::Sleeping { .. } => {}
    }
    [local, global, lower]
}

/// The table of active jobs, with deterministic (id-order) iteration.
///
/// Storage is an arena: job state lives in reusable slots so releasing a
/// job after a warm-up run performs no heap allocation — a recycled slot
/// keeps the capacity of its `held` vector and the [`Program`] handle is
/// a reference-count bump. Two indices find a slot without searching:
/// per task the live `(instance, slot)` pairs (one or two entries), per
/// processor the live slots placed there (its run queue).
///
/// The run queues also carry the accounting: neither a waiting job's
/// blocking counters nor the runner's `remaining` tick with the clock;
/// each processor remembers up to when its queue and its runner are
/// settled and who has held it since, and `touch` applies the whole
/// interval just before anything there changes. `touch` also marks the
/// processor for the next reschedule and enters it in the instant's
/// dirty set, so it is the one gate every write to a scheduler input
/// passes through: `touch_mut` (`state`, `spin`, `effective_priority`),
/// `set_processor`, `set_runner`, `release` and `remove`. A processor
/// nobody touched and whose compute op did not end has a runner in
/// mid-compute (or spinning, or none): nothing to execute or reschedule,
/// the same compute end and occupant as before — an instant visits the
/// dirty set, not the machine.
#[derive(Debug, Default)]
pub struct Jobs {
    /// Slot storage; slots listed in `free` retain stale state (kept
    /// only for their buffer capacity).
    slots: Vec<JobState>,
    /// Indices of free slots, available for reuse.
    free: Vec<u32>,
    /// Live `(instance, slot)` pairs per `TaskId::index()`, in instance
    /// order — so walking the tasks in order is id order.
    by_task: Vec<Vec<(u32, u32)>>,
    /// Run queue per `ProcessorId::index()`.
    queues: Vec<RunQueue>,
    /// Per processor, the instant its runner's current [`Op::Compute`]
    /// ends ([`Time::MAX`] when it idles or spins): the engine's cache,
    /// which it refreshes for every dirty processor as an instant ends.
    compute_ends: Vec<Time>,
    /// The processors touched, or whose compute op ended, in the current
    /// instant, ascending — and all of them at time zero, when "settled
    /// up to now" does not yet mean "seen". (One too many costs a
    /// glance; one too few, an event.)
    dirty: Vec<u32>,
    /// Jobs whose program counter may have reached the end since the
    /// last completion sweep. Every site that can complete a job pushes
    /// here, so the engine's sweep is O(1) on the (common) rounds where
    /// nothing completed instead of a scan of the whole table.
    pub(crate) done_candidates: Vec<JobId>,
    /// Jobs the step loop dereferenced by slot — `touch` and the
    /// scheduler walking one queue apart: what a pass over the machine
    /// multiplies by `m`.
    #[cfg(any(test, debug_assertions))]
    pub(crate) visits: std::sync::atomic::AtomicU64,
}

/// Brings the progress of `q`'s runner up to `now`: a spinner burns its
/// processor, so its whole interval is semaphore blocking; anyone else
/// has computed for it. The end of a compute op with more ops to come
/// takes the invisible pc advance here instead of spending a fixpoint
/// round on it; completing advances stay in the fixpoint, preserving
/// completion order.
fn settle_runner(slots: &mut [JobState], q: &mut RunQueue, now: Time) {
    // `progress <= now` (checked after every debug step); `-` is a call.
    let dt = now.saturating_duration_since(q.progress);
    q.progress = now;
    let Some(Runner { slot, .. }) = q.runner else {
        return;
    };
    if dt.is_zero() {
        // Settled when its op ended this instant; it may be at any op.
        return;
    }
    let job = &mut slots[slot as usize];
    if let ExecState::Blocked { global, .. } = job.state {
        debug_assert!(job.spin, "non-spin blocked job was dispatched");
        if global {
            job.blocked_global += dt;
        } else {
            job.blocked_local += dt;
        }
    } else {
        debug_assert!(job.remaining >= dt, "runner advanced past op end");
        job.remaining = job.remaining.saturating_sub(dt);
        if job.remaining.is_zero() && job.pc + 1 < job.program.len() {
            job.advance_pc();
        }
    }
}

impl Jobs {
    /// Deactivates all jobs and sizes the indices for a run over `tasks`
    /// tasks on `processors` processors, retaining slot and list buffers
    /// for reuse.
    pub(crate) fn reset(&mut self, tasks: usize, processors: usize) {
        self.free.clear();
        self.free.extend(0..self.slots.len() as u32);
        self.by_task.iter_mut().for_each(Vec::clear);
        self.by_task.resize_with(tasks, Vec::new);
        self.queues.resize_with(processors, RunQueue::default);
        for q in &mut self.queues {
            q.slots.clear();
            (q.runner, q.settled, q.progress, q.marked) = (None, Time::ZERO, Time::ZERO, false);
        }
        self.compute_ends.clear();
        self.compute_ends.resize(processors, Time::MAX);
        self.dirty.clear();
        self.dirty.extend(0..processors as u32);
        self.done_candidates.clear();
        #[cfg(any(test, debug_assertions))]
        self.visits.store(0, Relaxed);
    }

    /// The slot index of `id`, if active: stable for the lifetime of the
    /// job, and never to influence observable behaviour.
    pub(crate) fn slot_of(&self, id: JobId) -> Option<u32> {
        let live = self.by_task.get(id.task.index())?;
        live.iter()
            .find(|&&(instance, _)| instance == id.instance)
            .map(|&(_, slot)| slot)
    }

    /// The job with the given id, if active.
    pub fn get(&self, id: JobId) -> Option<&JobState> {
        self.slot_of(id).map(|slot| &self.slots[slot as usize])
    }

    /// The job with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the job is not active.
    #[track_caller]
    pub fn expect(&self, id: JobId) -> &JobState {
        &self.slots[self.live_slot(id)]
    }

    #[track_caller]
    fn live_slot(&self, id: JobId) -> usize {
        let slot = self.slot_of(id);
        slot.unwrap_or_else(|| panic!("job {id} is not active")) as usize
    }

    /// Mutable variant of [`Jobs::expect`], with the restriction of
    /// [`Jobs::by_slot_mut`].
    ///
    /// # Panics
    ///
    /// Panics if the job is not active.
    #[track_caller]
    pub(crate) fn expect_mut(&mut self, id: JobId) -> &mut JobState {
        let slot = self.live_slot(id);
        &mut self.slots[slot]
    }

    /// Settles the blocking counters of the jobs waiting on processor
    /// `p` and the progress of its runner up to `now`, marks `p` for the
    /// next reschedule and enters it in the dirty set. Call it *before*
    /// changing anything the accounting predicate or the scheduler reads
    /// there: the interval `[settled, now)` is charged by the state it
    /// finds. Further calls in the same instant only mark, inline.
    #[inline]
    pub(crate) fn touch(&mut self, p: usize, now: Time) {
        if self.queues[p].settled < now {
            self.settle(p, now);
        }
        self.queues[p].marked = true;
    }

    /// The first [`Jobs::touch`] of processor `p` in the instant `now`.
    fn settle(&mut self, p: usize, now: Time) {
        let q = &mut self.queues[p];
        let dt = now - q.settled;
        for &slot in &q.slots {
            let job = &mut self.slots[slot as usize];
            [
                job.blocked_local,
                job.blocked_global,
                job.lower_interference,
            ] = accrued(job, q.runner, dt);
        }
        q.settled = now;
        if q.progress < now {
            settle_runner(&mut self.slots, q, now);
            let at = self.dirty.partition_point(|&d| (d as usize) < p);
            self.dirty.insert(at, p as u32);
        }
    }

    /// Time moves to `now`: lowers the dirty set of the instant left
    /// behind, then settles — and enters in the new one — the runner of
    /// every processor whose compute op ends at `now`. One job each, not
    /// its queue: nothing the waiters' predicate reads has changed.
    pub(crate) fn enter_instant(&mut self, now: Time) {
        self.dirty.clear();
        for p in 0..self.compute_ends.len() {
            if self.compute_ends[p] == now {
                settle_runner(&mut self.slots, &mut self.queues[p], now);
                self.dirty.push(p as u32);
                self.visit();
            }
        }
    }

    /// The `i`-th processor of the dirty set, ascending. A walk `i = 0,
    /// 1, …` may touch the processor it is at, and stops once it has
    /// touched another.
    #[inline]
    pub(crate) fn dirty(&self, i: usize) -> Option<usize> {
        self.dirty.get(i).map(|&p| p as usize)
    }

    /// The earliest instant a runner's compute op ends, if any computes
    /// — once every dirty processor had its [`Jobs::set_compute_end`].
    pub(crate) fn next_compute_end(&self) -> Option<Time> {
        let end = self.compute_ends.iter().copied().min();
        end.filter(|&t| t < Time::MAX)
    }

    /// Records when the compute op of `p`'s runner will end.
    pub(crate) fn set_compute_end(&mut self, p: usize, end: Time) {
        self.compute_ends[p] = end;
    }

    /// [`Jobs::expect_mut`] for a write to `state`, `spin` or
    /// `effective_priority`: touches the job's processor first.
    ///
    /// # Panics
    ///
    /// Panics if the job is not active.
    #[track_caller]
    pub(crate) fn touch_mut(&mut self, id: JobId, now: Time) -> &mut JobState {
        let slot = self.live_slot(id);
        self.touch(self.slots[slot].processor.index(), now);
        &mut self.slots[slot]
    }

    /// `job`'s `[blocked_local, blocked_global, lower_interference]` as
    /// of `now`: the settled counters plus the interval still open on
    /// its processor — the queue's for a waiting job, the runner's own
    /// for a spinner holding it.
    pub fn blocking_at(&self, job: &JobState, now: Time) -> [Dur; 3] {
        let q = &self.queues[job.processor.index()];
        let mut counters = accrued(job, q.runner, now.saturating_duration_since(q.settled));
        if let (Some(r), ExecState::Blocked { global, .. }) = (q.runner, job.state) {
            if r.id == job.id {
                counters[usize::from(global)] += now - q.progress;
            }
        }
        counters
    }

    /// Activates `job`, just released (`job.release` is the current
    /// instant), in a free slot when one is available — keeping that
    /// slot's `held` buffer, so the steady state allocates nothing.
    /// `job.id` must not already be active.
    pub(crate) fn release(&mut self, job: JobState) {
        let (id, home) = (job.id, job.home);
        self.touch(home.index(), job.release);
        let slot = match self.free.pop() {
            Some(slot) => {
                let mut held = std::mem::take(&mut self.slots[slot as usize].held);
                held.clear();
                self.slots[slot as usize] = JobState { held, ..job };
                slot
            }
            None => {
                self.slots.push(job);
                self.slots.len() as u32 - 1
            }
        };
        let live = &mut self.by_task[id.task.index()];
        assert!(
            live.last().is_none_or(|&(last, _)| last < id.instance),
            "job {id} is already active, or released out of instance order"
        );
        live.push((id.instance, slot));
        self.queues[home.index()].slots.push(slot);
    }

    /// Deactivates `id` and returns its final state, counters settled
    /// up to `now` (`None` if it was not active). The slot is recycled
    /// by the next release; the reference is good until then.
    pub(crate) fn remove(&mut self, id: JobId, now: Time) -> Option<&JobState> {
        let live = self.by_task.get_mut(id.task.index())?;
        let pos = live.iter().position(|&(i, _)| i == id.instance)?;
        let (_, slot) = live.remove(pos);
        let p = self.slots[slot as usize].processor.index();
        self.touch(p, now);
        self.dequeue(p, slot);
        self.free.push(slot);
        Some(&self.slots[slot as usize])
    }

    /// Takes live `slot` off the run queue of processor `p`.
    fn dequeue(&mut self, p: usize, slot: u32) {
        let queue = &mut self.queues[p].slots;
        let at = queue.iter().position(|&s| s == slot);
        queue.swap_remove(at.expect("live job is on its processor's queue"));
    }

    /// Moves `id` to processor `to`, touching both ends — the one
    /// writer of [`JobState::processor`].
    ///
    /// # Panics
    ///
    /// Panics if the job is not active.
    #[track_caller]
    pub(crate) fn set_processor(&mut self, id: JobId, to: ProcessorId, now: Time) {
        let slot = self.live_slot(id);
        let from = self.slots[slot].processor.index();
        self.touch(from, now);
        self.touch(to.index(), now);
        self.dequeue(from, slot as u32);
        self.queues[to.index()].slots.push(slot as u32);
        self.slots[slot].processor = to;
    }

    /// Number of processors of the current run.
    pub(crate) fn processors(&self) -> usize {
        self.queues.len()
    }

    /// The job holding processor `p`, if any.
    pub(crate) fn runner(&self, p: usize) -> Option<Runner> {
        self.queues[p].runner
    }

    /// The id of the job holding `processor`, if any.
    pub fn running_on(&self, processor: ProcessorId) -> Option<JobId> {
        self.queues[processor.index()].runner.map(|r| r.id)
    }

    /// Hands processor `p` to the job `(id, slot)` (or idles it),
    /// touching `p` first so the closing interval is charged against
    /// the outgoing runner.
    pub(crate) fn set_runner(&mut self, p: usize, runner: Option<(JobId, u32)>, now: Time) {
        self.touch(p, now);
        self.queues[p].runner = runner.map(|(id, slot)| Runner {
            id,
            slot,
            base: self.slots[slot as usize].base_priority,
        });
    }

    /// The live jobs placed on processor `p`, with their slots, in no
    /// particular order.
    pub(crate) fn queued(&self, p: usize) -> impl Iterator<Item = (u32, &JobState)> {
        self.queues[p]
            .slots
            .iter()
            .map(move |&slot| (slot, &self.slots[slot as usize]))
    }

    /// The job processor `p` dispatches, with its slot: of the
    /// dispatchable jobs placed there, the one of the highest key —
    /// effective priority, then holding `p` already (`current`), then
    /// the earlier release, then the lower id. Keys are distinct for
    /// distinct jobs, so the maximum does not depend on the queue's order.
    #[inline]
    pub(crate) fn winner(&self, p: usize, current: Option<JobId>) -> Option<(JobId, u32)> {
        let rank = |j: &JobState| (j.effective_priority, Some(j.id) == current);
        let key = |j: &JobState| (rank(j), Reverse((j.release, j.id)));
        let chosen = self.queued(p).filter(|(_, j)| j.is_dispatchable());
        chosen
            .max_by_key(|(_, j)| key(j))
            .map(|(slot, j)| (j.id, slot))
    }

    /// Whether [`Jobs::touch`] has marked processor `p` since the flag
    /// was last lowered; the scheduler lowers it once it has served `p`.
    pub(crate) fn marked(&mut self, p: usize) -> &mut bool {
        &mut self.queues[p].marked
    }

    #[inline]
    fn visit(&self) {
        #[cfg(any(test, debug_assertions))]
        self.visits.fetch_add(1, Relaxed);
    }

    /// Direct slot access (the slot must be live).
    pub(crate) fn by_slot(&self, slot: u32) -> &JobState {
        self.visit();
        &self.slots[slot as usize]
    }

    /// Mutable direct slot access (the slot must be live) — for fields
    /// the scheduler does not read (`held`, `pc`, `remaining`,
    /// `miss_recorded`); its inputs go through [`Jobs::touch_mut`].
    pub(crate) fn by_slot_mut(&mut self, slot: u32) -> &mut JobState {
        self.visit();
        &mut self.slots[slot as usize]
    }

    /// Iterates over active jobs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &JobState> {
        self.by_task
            .iter()
            .flatten()
            .map(move |&(_, slot)| &self.slots[slot as usize])
    }

    /// Number of active jobs.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether there are no active jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Walks both indices (without allocating): every live slot is on
    /// exactly one task list, under its own id, and exactly once on the
    /// run queue of its `processor` and on no other; every runner is a
    /// live job placed where it runs; no queue is settled past its
    /// runner, no runner past `now`, and one settled up to `now` is in
    /// the dirty set. Debug builds run it after every engine step.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_consistent(&self, now: Time) {
        let mut listed = 0;
        for (t, live) in self.by_task.iter().enumerate() {
            assert!(live.windows(2).all(|w| w[0].0 < w[1].0), "{t} unsorted");
            for &(instance, slot) in live {
                let job = &self.slots[slot as usize];
                assert_eq!((job.id.task.index(), job.id.instance), (t, instance));
                let queue = &self.queues[job.processor.index()].slots;
                assert_eq!(queue.iter().filter(|&&s| s == slot).count(), 1);
                assert!(!self.free.contains(&slot), "{} is in a free slot", job.id);
                listed += 1;
            }
        }
        // As many queue entries as listed jobs, each listed job on its
        // own queue: no queue holds anything else.
        let queued: usize = self.queues.iter().map(|q| q.slots.len()).sum();
        assert_eq!((listed, queued), (self.len(), self.len()));
        assert!(self.dirty.windows(2).all(|w| w[0] < w[1]), "dirty unsorted");
        for (p, q) in self.queues.iter().enumerate() {
            assert!(
                q.settled <= q.progress && q.progress <= now,
                "queue {p} settled to {}, its runner to {}, at {now}",
                q.settled,
                q.progress
            );
            let entered = self.dirty.contains(&(p as u32));
            assert!(
                entered || q.progress < now,
                "{p} settled behind the dirty set"
            );
            if let Some(r) = q.runner {
                assert_eq!(self.slot_of(r.id), Some(r.slot), "runner of {p}");
                assert_eq!(self.slots[r.slot as usize].processor.index(), p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Program;
    use mpcp_model::{Body, Machine, ResourceId, System, TaskDef, TaskId};

    fn program(body: Body) -> Program {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(TaskDef::new("t", p).period(100).body(body.clone()));
        let sys = b.build().unwrap();
        Program::flatten(&body, &Machine::new(), sys.info())
    }

    fn job(body: Body) -> JobState {
        JobState::new(
            JobId::first(TaskId::from_index(0)),
            ProcessorId::from_index(0),
            Priority::task(1),
            Time::ZERO,
            Time::new(100),
            program(body),
        )
    }

    #[test]
    fn new_job_is_ready_with_remaining_set() {
        let j = job(Body::builder().compute(5).build());
        assert_eq!(j.state, ExecState::Ready);
        assert_eq!(j.remaining, Dur::new(5));
        assert!(!j.is_complete());
    }

    #[test]
    fn advance_pc_reaches_completion() {
        let mut j = job(Body::builder().compute(5).suspend(2).build());
        j.advance_pc();
        assert_eq!(j.remaining, Dur::ZERO); // suspend op
        j.advance_pc();
        assert!(j.is_complete());
        assert_eq!(j.current_op(), None);
    }

    #[test]
    fn release_reuses_slots_and_keeps_id_order() {
        let mut jobs = Jobs::default();
        jobs.reset(3, 2);
        let prog = program(Body::builder().compute(1).build());
        let jid = |t: u32, i: u32| JobId::new(TaskId::from_index(t), i);
        let release = |jobs: &mut Jobs, id: JobId| {
            jobs.release(JobState::new(
                id,
                ProcessorId::from_index(0),
                Priority::task(1),
                Time::ZERO,
                Time::new(100),
                prog.clone(),
            ));
        };
        // Out-of-order activation must still iterate in id order.
        release(&mut jobs, jid(2, 0));
        release(&mut jobs, jid(0, 0));
        release(&mut jobs, jid(1, 0));
        let ids: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![jid(0, 0), jid(1, 0), jid(2, 0)]);
        // Removing and re-releasing reuses a slot without growing the arena.
        assert!(jobs.remove(jid(1, 0), Time::ZERO).is_some());
        assert!(jobs.remove(jid(1, 0), Time::ZERO).is_none());
        let slots_before = jobs.slots.len();
        release(&mut jobs, jid(1, 1));
        assert_eq!(jobs.slots.len(), slots_before);
        assert_eq!(jobs.len(), 3);
        let j = jobs.expect(jid(1, 1));
        assert_eq!(j.pc, 0);
        assert!(j.held.is_empty());
        assert!(!j.miss_recorded);
        jobs.assert_consistent(Time::ZERO);
        // reset() frees everything but keeps the slots.
        jobs.reset(3, 2);
        assert!(jobs.is_empty());
        assert_eq!(jobs.slots.len(), slots_before);
    }

    /// Two tasks on P0 (`hi` over `lo`) and one on P1, all released at 0.
    fn three_jobs() -> (Jobs, [JobId; 3]) {
        let mut jobs = Jobs::default();
        jobs.reset(3, 2);
        let prog = program(Body::builder().compute(9).build());
        let ids = [0, 1, 2].map(|t| JobId::first(TaskId::from_index(t)));
        for (id, (proc, prio)) in ids.iter().zip([(0, 3), (0, 1), (1, 2)]) {
            jobs.release(JobState::new(
                *id,
                ProcessorId::from_index(proc),
                Priority::task(prio),
                Time::ZERO,
                Time::new(100),
                prog.clone(),
            ));
        }
        (jobs, ids)
    }

    fn at(jobs: &Jobs, id: JobId, now: u64) -> [u64; 3] {
        jobs.blocking_at(jobs.expect(id), Time::new(now))
            .map(Dur::ticks)
    }

    fn global_wait() -> ExecState {
        ExecState::Blocked {
            resource: ResourceId::from_index(0),
            global: true,
        }
    }

    /// The interval before the first touch of an instant is charged by
    /// the state the touch finds; what is written after it — and any
    /// further touch in the same instant — charges nothing.
    #[test]
    fn the_first_touch_of_an_instant_settles_with_the_state_it_finds() {
        let (mut jobs, [hi, lo, _]) = three_jobs();
        let lo_slot = jobs.slot_of(lo).unwrap();
        jobs.set_runner(0, Some((lo, lo_slot)), Time::ZERO);
        // [0, 4): hi is ready under the lower-priority runner lo.
        assert_eq!(at(&jobs, hi, 4), [0, 0, 4]);
        assert_eq!(jobs.expect(hi).lower_interference, Dur::ZERO, "read only");
        jobs.enter_instant(Time::new(4));
        jobs.touch_mut(hi, Time::new(4)).state = global_wait();
        assert_eq!(at(&jobs, hi, 4), [0, 0, 4], "charged as ready, not blocked");
        jobs.touch_mut(hi, Time::new(4)).spin = true; // second touch: dt = 0
        assert_eq!(at(&jobs, hi, 4), [0, 0, 4]);
        // [4, 7): now a global wait.
        assert_eq!(at(&jobs, hi, 7), [0, 3, 4]);
        // The runner itself accrues nothing through its queue.
        assert_eq!(at(&jobs, lo, 7), [0, 0, 0]);
        jobs.assert_consistent(Time::new(4));
    }

    /// A runner change closes the interval against the *outgoing*
    /// runner, even if nothing else touched the processor this instant.
    #[test]
    fn set_runner_charges_the_closing_interval_to_the_old_runner() {
        let (mut jobs, [hi, lo, _]) = three_jobs();
        let (hi_slot, lo_slot) = (jobs.slot_of(hi).unwrap(), jobs.slot_of(lo).unwrap());
        jobs.set_runner(0, Some((lo, lo_slot)), Time::ZERO);
        *jobs.marked(0) = false;
        jobs.enter_instant(Time::new(5));
        jobs.set_runner(0, Some((hi, hi_slot)), Time::new(5));
        assert!(*jobs.marked(0));
        // hi waited [0, 5) under lo; lo has waited since under hi, which
        // is ordinary preemption and counts for nothing.
        assert_eq!(at(&jobs, hi, 8), [0, 0, 5]);
        assert_eq!(at(&jobs, lo, 8), [0, 0, 0]);
    }

    /// Removal settles before it hands out the final state, and
    /// migration settles both ends before the job changes queues.
    #[test]
    fn remove_and_set_processor_settle_first() {
        let (mut jobs, [hi, lo, other]) = three_jobs();
        let lo_slot = jobs.slot_of(lo).unwrap();
        jobs.set_runner(0, Some((lo, lo_slot)), Time::ZERO);
        jobs.touch_mut(other, Time::ZERO).state = global_wait();
        // other waits on P1 during [0, 3), then moves to P0 and keeps
        // waiting there: one uninterrupted global wait.
        jobs.enter_instant(Time::new(3));
        jobs.set_processor(other, ProcessorId::from_index(0), Time::new(3));
        assert_eq!(jobs.expect(other).blocked_global, Dur::new(3));
        assert_eq!(jobs.queued(0).count(), 3);
        assert_eq!(jobs.queued(1).count(), 0);
        assert!(*jobs.marked(0) && *jobs.marked(1));
        jobs.assert_consistent(Time::new(3));
        jobs.enter_instant(Time::new(6));
        let gone = jobs.remove(other, Time::new(6)).unwrap();
        assert_eq!(gone.blocked_global, Dur::new(6));
        // Its removal settled the rest of P0's queue too.
        assert_eq!(jobs.expect(hi).lower_interference, Dur::new(6));
        jobs.assert_consistent(Time::new(6));
    }

    /// A runner's `remaining` does not tick either: a touch of its
    /// processor brings it up to date; the end of its op settles it —
    /// it alone, not the queue behind it — folds the pc advance when
    /// more ops follow, and puts the processor in the new instant's
    /// dirty set.
    #[test]
    fn a_runner_progresses_when_touched_or_when_its_op_ends() {
        let (mut jobs, [hi, lo, other]) = three_jobs();
        let two_ops = program(Body::builder().compute(9).suspend(2).build());
        jobs.expect_mut(other).program = two_ops;
        for (p, id) in [(0, hi), (1, other)] {
            let slot = jobs.slot_of(id).unwrap();
            jobs.set_runner(p, Some((id, slot)), Time::ZERO);
            jobs.set_compute_end(p, Time::new(9));
        }
        assert_eq!(jobs.next_compute_end(), Some(Time::new(9)));
        jobs.enter_instant(Time::new(4));
        assert_eq!(jobs.dirty(0), None, "nothing ends at 4");
        jobs.touch_mut(lo, Time::new(4)).state = global_wait();
        assert_eq!((jobs.dirty(0), jobs.dirty(1)), (Some(0), None));
        assert_eq!(jobs.expect(hi).remaining, Dur::new(5));
        assert_eq!(jobs.expect(other).remaining, Dur::new(9), "P1 untouched");
        jobs.enter_instant(Time::new(9));
        assert_eq!((jobs.dirty(0), jobs.dirty(1)), (Some(0), Some(1)));
        assert_eq!(
            (jobs.expect(hi).remaining, jobs.expect(hi).pc),
            (Dur::ZERO, 0)
        );
        assert_eq!(
            (jobs.expect(other).remaining, jobs.expect(other).pc),
            (Dur::ZERO, 1)
        );
        // lo's wait is still open since 4; reading it adds the interval.
        assert_eq!(jobs.expect(lo).blocked_global, Dur::ZERO);
        assert_eq!(at(&jobs, lo, 9), [0, 5, 0]);
        jobs.assert_consistent(Time::new(9));
    }

    /// A spinner holding its processor accrues blocking over the
    /// runner's own interval: read with the open part, settled when its
    /// processor is next touched.
    #[test]
    fn a_spinning_runner_accrues_its_own_interval() {
        let (mut jobs, [hi, ..]) = three_jobs();
        let slot = jobs.slot_of(hi).unwrap();
        jobs.set_runner(0, Some((hi, slot)), Time::ZERO);
        let job = jobs.touch_mut(hi, Time::ZERO);
        (job.state, job.spin) = (global_wait(), true);
        assert_eq!(at(&jobs, hi, 6), [0, 6, 0]);
        assert_eq!(jobs.expect(hi).blocked_global, Dur::ZERO, "read only");
        jobs.enter_instant(Time::new(6));
        let job = jobs.touch_mut(hi, Time::new(6));
        (job.state, job.spin) = (ExecState::Ready, false);
        assert_eq!(jobs.expect(hi).blocked_global, Dur::new(6));
        assert_eq!(at(&jobs, hi, 8), [0, 6, 0]);
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn expect_missing_panics() {
        Jobs::default().expect(JobId::first(TaskId::from_index(0)));
    }
}
