//! Schedule replay as a [`Protocol`]: the online half of the
//! dependency-graph approach.
//!
//! Unlike every other policy in the workspace, `DgaReplay` makes no
//! online decisions — all semaphore ordering was fixed offline by
//! [`DgaSchedule`]. At run time a job requesting a semaphore is granted
//! it only when (a) the semaphore is free, (b) the job is the *next*
//! entry of that semaphore's offline chain, and (c)
//! the chain entry's start slot has been reached. Otherwise the job
//! blocks — even if the semaphore is free — making non-work-conserving
//! idling first-class: a processor may sit idle while a ready job waits
//! for its slot. Slot waits are driven by the engine's timer facility
//! ([`Ctx::schedule_timer`]), so the simulation clock jumps straight to
//! the next slot instead of busy-polling.
//!
//! The same policy runs in two modes:
//!
//! - **construct**: gate on chain *order* only and record the observed
//!   grant/release instants. [`DgaSchedule::compute`] runs this mode
//!   once to turn the list scheduler's chain orders into exact slots.
//! - **replay**: gate on order *and* slots from a computed schedule.
//!   Because the engine is deterministic, a replay reproduces the
//!   construction run event for event, which the monitor's schedule
//!   conformance check verifies externally.

use crate::schedule::{default_horizon, ChainEntry, DgaSchedule};
use mpcp_model::{JobId, ResourceId, System, Time};
use mpcp_sim::{Ctx, LockResult, Protocol};
use std::sync::Arc;

/// How the replay policy obtains its chain orders and slots.
#[derive(Debug, Clone)]
enum Mode {
    /// Compute a [`DgaSchedule`] in `init` (over [`default_horizon`]),
    /// then behave as `Replay`.
    Auto,
    /// Gate on chain order only and record the observed grant/release
    /// instants into the chains' (initially empty) slots.
    Construct(Vec<Vec<ChainEntry>>),
    /// Gate on chain order and start slots of a computed schedule.
    Replay(Arc<DgaSchedule>),
}

/// Replays an offline DGA critical-section schedule (see the module
/// docs for the grant rule and the construct/replay modes).
#[derive(Debug, Clone)]
pub struct DgaReplay {
    mode: Mode,
    /// Next ungranted chain position per `ResourceId::index()`.
    cursor: Vec<usize>,
    /// Current holder and its chain position, per resource.
    active: Vec<Option<(JobId, usize)>>,
    /// Blocked jobs awaiting their turn, per resource.
    waiting: Vec<Vec<JobId>>,
}

impl DgaReplay {
    /// A replay policy that computes its own schedule in `init` over
    /// [`default_horizon`] (two hyperperiods, capped at 20 000 ticks).
    ///
    /// `init` panics if the schedule cannot be constructed (nested
    /// critical sections); use [`DgaSchedule::compute`] first to handle
    /// that case gracefully.
    pub fn new() -> Self {
        Self::with_mode(Mode::Auto)
    }

    /// A replay policy for an already-computed schedule.
    pub fn from_schedule(schedule: DgaSchedule) -> Self {
        Self::from_shared(Arc::new(schedule))
    }

    /// [`DgaReplay::from_schedule`] for a caller that keeps using the
    /// schedule (its bounds, its verdict) after handing it over.
    pub fn from_shared(schedule: Arc<DgaSchedule>) -> Self {
        Self::with_mode(Mode::Replay(schedule))
    }

    /// A construct-mode policy: enforce `orders` and record observed
    /// grant/release instants. Used by [`DgaSchedule::from_graph`].
    pub(crate) fn construct(orders: Vec<Vec<JobId>>) -> Self {
        let unpinned = |job| ChainEntry {
            job,
            start: None,
            end: None,
        };
        Self::with_mode(Mode::Construct(
            orders
                .into_iter()
                .map(|order| order.into_iter().map(unpinned).collect())
                .collect(),
        ))
    }

    fn with_mode(mode: Mode) -> Self {
        DgaReplay {
            mode,
            cursor: Vec::new(),
            active: Vec::new(),
            waiting: Vec::new(),
        }
    }

    /// The schedule being replayed (`None` in construct mode or before
    /// `init` resolves auto mode).
    pub fn schedule(&self) -> Option<&DgaSchedule> {
        match &self.mode {
            Mode::Replay(s) => Some(s),
            _ => None,
        }
    }

    /// The chains of a finished construction run, slots filled in with
    /// the observed instants (empty in the other modes).
    pub(crate) fn into_constructed(self) -> Vec<Vec<ChainEntry>> {
        match self.mode {
            Mode::Construct(chains) => chains,
            _ => Vec::new(),
        }
    }

    fn chains(&self) -> &[Vec<ChainEntry>] {
        match &self.mode {
            Mode::Construct(chains) => chains,
            Mode::Replay(s) => &s.chains,
            Mode::Auto => &[],
        }
    }

    /// The next ungranted entry of resource `r`'s chain, if any remain.
    fn next_entry(&self, r: usize) -> Option<&ChainEntry> {
        self.chains().get(r)?.get(self.cursor[r])
    }

    /// The pinned start slot of the next grant of `r` (`None` gates on
    /// order only — construct mode, where an ungranted entry has no
    /// slot yet, or a horizon-truncated entry).
    fn slot(&self, r: usize) -> Option<Time> {
        self.next_entry(r)?.start
    }

    fn holder(&self, r: usize) -> Option<JobId> {
        self.active[r].map(|(h, _)| h)
    }

    /// Records the grant of `r`'s next chain entry at `now` and
    /// advances the cursor.
    fn mark_granted(&mut self, r: usize, job: JobId, now: Time) {
        let pos = self.cursor[r];
        self.active[r] = Some((job, pos));
        self.cursor[r] = pos + 1;
        if let Mode::Construct(chains) = &mut self.mode {
            chains[r][pos].start = Some(now);
        }
    }

    /// Grants `r`'s next chain entry to its (blocked) expected job if
    /// the semaphore is free, the job is waiting, and the slot has been
    /// reached; arms a timer for a free-but-early grant.
    fn pump(&mut self, ctx: &mut Ctx<'_>, r: usize) {
        if self.active[r].is_some() {
            return;
        }
        let Some(&ChainEntry { job: next, .. }) = self.next_entry(r) else {
            return;
        };
        let Some(wpos) = self.waiting[r].iter().position(|&w| w == next) else {
            return;
        };
        if let Some(t) = self.slot(r) {
            if ctx.now() < t {
                ctx.schedule_timer(t);
                return;
            }
        }
        self.waiting[r].swap_remove(wpos);
        self.mark_granted(r, next, ctx.now());
        ctx.grant_lock(next, ResourceId::from_index(r as u32));
    }
}

impl Default for DgaReplay {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for DgaReplay {
    fn name(&self) -> &'static str {
        "dga"
    }

    fn init(&mut self, system: &System) {
        if let Mode::Auto = self.mode {
            let schedule = DgaSchedule::compute(system, default_horizon(system))
                .expect("DGA schedule construction failed (nested critical sections?)");
            self.mode = Mode::Replay(Arc::new(schedule));
        }
        let n = system.resources().len();
        self.cursor = vec![0; n];
        self.active = vec![None; n];
        self.waiting = vec![Vec::new(); n];
    }

    fn on_lock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) -> LockResult {
        let r = resource.index();
        let free = self.active[r].is_none();
        let is_next = self.next_entry(r).is_some_and(|e| e.job == job);
        if free && is_next {
            match self.slot(r) {
                Some(t) if ctx.now() < t => {
                    // Right job, too early: idle until the slot.
                    ctx.schedule_timer(t);
                }
                _ => {
                    self.mark_granted(r, job, ctx.now());
                    return LockResult::Granted;
                }
            }
        }
        self.waiting[r].push(job);
        LockResult::Blocked {
            holder: self.holder(r),
        }
    }

    fn on_unlock(&mut self, ctx: &mut Ctx<'_>, job: JobId, resource: ResourceId) {
        let r = resource.index();
        if let Some((holder, pos)) = self.active[r].take() {
            debug_assert_eq!(holder, job, "unlock by non-holder");
            if let Mode::Construct(chains) = &mut self.mode {
                chains[r][pos].end = Some(ctx.now());
            }
        }
        self.pump(ctx, r);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        for r in 0..self.cursor.len() {
            self.pump(ctx, r);
        }
    }
}
