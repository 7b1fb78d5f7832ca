//! Machine-checkable protocol invariants over recorded traces.
//!
//! Every synchronization protocol, whatever its policy, must satisfy a
//! set of structural properties; these checkers verify them post-hoc on
//! any [`Trace`]. They are used by the property-based test suite to
//! validate all six protocol implementations on randomly generated
//! systems.
//!
//! Each event-based predicate is implemented as a small *streaming
//! core* — a struct fed one event at a time that retains the first
//! violation. The public post-hoc functions fold a recorded trace
//! through the same core that a [`Monitor`](crate::Monitor) runs
//! online, so the two paths cannot drift: a sweep's fast pass (no trace
//! recorded) and its captured re-run check identical logic.

use crate::event::EventKind;
use crate::trace::{Slice, Trace};
use mpcp_model::{JobId, Priority, ProcessorId, ResourceId, System, Time};
use std::error::Error;
use std::fmt;

/// `res_global[r.index()]` — whether resource `r` is a global
/// semaphore under `system`'s priority-ceiling classification.
pub(crate) fn res_global_map(system: &System) -> Vec<bool> {
    let info = system.info();
    (0..system.resources().len())
        .map(|i| info.scope(ResourceId::from_index(i as u32)).is_global())
        .collect()
}

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// When the violation was observed.
    pub time: Time,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.time, self.message)
    }
}

impl Error for CheckError {}

fn err(time: Time, message: String) -> CheckError {
    CheckError { time, message }
}

/// Streaming core of [`mutual_exclusion`]. Indexed by resource, so a
/// recycled instance performs no steady-state allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct MutexCheck {
    /// Current holder per `ResourceId::index()`.
    holder: Vec<Option<JobId>>,
    error: Option<CheckError>,
}

impl MutexCheck {
    fn slot(&mut self, r: ResourceId) -> &mut Option<JobId> {
        let i = r.index();
        if i >= self.holder.len() {
            self.holder.resize(i + 1, None);
        }
        &mut self.holder[i]
    }

    pub(crate) fn on_event(&mut self, time: Time, job: JobId, kind: &EventKind) {
        if self.error.is_some() {
            return;
        }
        match *kind {
            EventKind::LockGranted { resource } | EventKind::HandedOff { resource, .. } => {
                if let Some(prev) = self.slot(resource).replace(job) {
                    self.error = Some(err(
                        time,
                        format!("{job} acquired {resource} while {prev} held it"),
                    ));
                }
            }
            EventKind::Unlocked { resource } => match self.slot(resource).take() {
                Some(h) if h == job => {}
                Some(h) => {
                    self.error = Some(err(time, format!("{job} released {resource} held by {h}")));
                }
                None => {
                    self.error = Some(err(
                        time,
                        format!("{job} released free semaphore {resource}"),
                    ));
                }
            },
            EventKind::Completed { .. } => {
                if let Some(i) = self.holder.iter().position(|h| *h == Some(job)) {
                    let r = ResourceId::from_index(i as u32);
                    self.error = Some(err(time, format!("{job} completed while holding {r}")));
                }
            }
            _ => {}
        }
    }

    pub(crate) fn error(&self) -> Option<&CheckError> {
        self.error.as_ref()
    }

    fn into_result(self) -> Result<(), CheckError> {
        self.error.map_or(Ok(()), Err)
    }
}

/// No two jobs hold the same semaphore simultaneously, every release is
/// by the holder, and lock/unlock pairs balance per job.
///
/// # Errors
///
/// Returns the first violation found.
pub fn mutual_exclusion(trace: &Trace) -> Result<(), CheckError> {
    let mut core = MutexCheck::default();
    for e in trace.events() {
        core.on_event(e.time, e.job, &e.kind);
    }
    core.into_result()
}

/// Each processor runs at most one job at a time and occupancy slices do
/// not overlap.
///
/// # Errors
///
/// Returns the first violation found.
pub fn single_occupancy(trace: &Trace, system: &System) -> Result<(), CheckError> {
    for proc in system.processors() {
        let mut slices: Vec<_> = trace
            .slices()
            .iter()
            .filter(|s| s.processor == proc.id())
            .collect();
        slices.sort_by_key(|s| s.start);
        for w in slices.windows(2) {
            let end = w[0].start + w[0].dur;
            if end > w[1].start {
                return Err(err(
                    w[1].start,
                    format!(
                        "overlapping slices on {}: {:?} and {:?}",
                        proc.name(),
                        w[0],
                        w[1]
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Streaming tripwire for [`single_occupancy`]: watches the slices as
/// they close. The engine closes each processor's slices in start
/// order, so any overlap the post-hoc sorted check would find trips
/// this core too.
#[derive(Debug, Clone, Default)]
pub(crate) struct OccupancyCheck {
    /// Last slice seen per `ProcessorId::index()`.
    last: Vec<Option<Slice>>,
    error: Option<CheckError>,
}

impl OccupancyCheck {
    #[inline]
    pub(crate) fn on_slice(&mut self, slice: &Slice) {
        if self.error.is_some() {
            return;
        }
        let i = slice.processor.index();
        if i >= self.last.len() {
            self.last.resize(i + 1, None);
        }
        if let Some(prev) = self.last[i] {
            if slice.start.saturating_duration_since(prev.start) < prev.dur {
                self.error = Some(err(
                    slice.start,
                    format!(
                        "overlapping slices on {}: {prev:?} and {slice:?}",
                        slice.processor
                    ),
                ));
                return;
            }
        }
        self.last[i] = Some(*slice);
    }

    pub(crate) fn error(&self) -> Option<&CheckError> {
        self.error.as_ref()
    }
}

/// Streaming core of [`priority_ordered_handoffs`].
#[derive(Debug, Clone)]
pub(crate) struct HandoffCheck {
    /// Assigned priority per `TaskId::index()`.
    prios: Vec<Priority>,
    /// Wait queue per `ResourceId::index()`, in blocking order.
    waiting: Vec<Vec<JobId>>,
    error: Option<CheckError>,
}

impl HandoffCheck {
    pub(crate) fn new(system: &System) -> Self {
        HandoffCheck {
            prios: system
                .tasks()
                .iter()
                .map(mpcp_model::Task::priority)
                .collect(),
            waiting: vec![Vec::new(); system.resources().len()],
            error: None,
        }
    }

    pub(crate) fn on_event(&mut self, time: Time, job: JobId, kind: &EventKind) {
        if self.error.is_some() {
            return;
        }
        match *kind {
            EventKind::LockBlocked { resource, .. } => {
                let i = resource.index();
                if i >= self.waiting.len() {
                    self.waiting.resize_with(i + 1, Vec::new);
                }
                self.waiting[i].push(job);
            }
            EventKind::Woken => {
                // Local PCP retry: the job leaves every wait set (it will
                // re-block if still refused).
                for q in &mut self.waiting {
                    q.retain(|j| *j != job);
                }
            }
            EventKind::HandedOff { resource, to } => {
                let i = resource.index();
                if i >= self.waiting.len() {
                    self.waiting.resize_with(i + 1, Vec::new);
                }
                let prios = &self.prios;
                let q = &mut self.waiting[i];
                let Some(pos) = q.iter().position(|j| *j == to) else {
                    self.error = Some(err(time, format!("{resource} handed to non-waiter {to}")));
                    return;
                };
                if let Some(best) = q.iter().map(|j| prios[j.task.index()]).max() {
                    let handed = prios[to.task.index()];
                    if handed < best {
                        self.error = Some(err(
                            time,
                            format!("{resource} handed to {to} ({handed}) over a waiter at {best}"),
                        ));
                        return;
                    }
                }
                q.remove(pos);
            }
            _ => {}
        }
    }

    pub(crate) fn error(&self) -> Option<&CheckError> {
        self.error.as_ref()
    }

    fn into_result(self) -> Result<(), CheckError> {
        self.error.map_or(Ok(()), Err)
    }
}

/// Hand-offs of a semaphore go to the highest-assigned-priority waiter
/// queued at that moment (§5 rule 7). Protocols with FIFO queues (the
/// raw baseline) legitimately fail this — that *is* the paper's point.
///
/// # Errors
///
/// Returns the first violation found.
pub fn priority_ordered_handoffs(trace: &Trace, system: &System) -> Result<(), CheckError> {
    let mut core = HandoffCheck::new(system);
    for e in trace.events() {
        core.on_event(e.time, e.job, &e.kind);
    }
    core.into_result()
}

/// Streaming core of [`gcs_preemption_discipline`]. Holds a flat
/// `(job, resource)` multiset — at most a handful of entries live at
/// once, so linear scans beat a map and the buffer is reusable.
#[derive(Debug, Clone)]
pub(crate) struct GcsCheck {
    res_global: Vec<bool>,
    held: Vec<(JobId, ResourceId)>,
    error: Option<CheckError>,
}

impl GcsCheck {
    pub(crate) fn new(system: &System) -> Self {
        GcsCheck {
            res_global: res_global_map(system),
            held: Vec::new(),
            error: None,
        }
    }

    fn in_gcs(&self, j: JobId) -> bool {
        self.held
            .iter()
            .any(|&(h, r)| h == j && self.res_global[r.index()])
    }

    pub(crate) fn on_event(&mut self, time: Time, job: JobId, kind: &EventKind) {
        if self.error.is_some() {
            return;
        }
        match *kind {
            EventKind::LockGranted { resource } | EventKind::HandedOff { resource, .. } => {
                self.held.push((job, resource));
            }
            EventKind::Unlocked { resource } => {
                if let Some(pos) = self
                    .held
                    .iter()
                    .rposition(|&(h, r)| h == job && r == resource)
                {
                    self.held.swap_remove(pos);
                }
            }
            EventKind::Preempted { by, .. } if self.in_gcs(job) && !self.in_gcs(by) => {
                self.error = Some(err(
                    time,
                    format!("gcs of {job} preempted by non-gcs job {by}"),
                ));
            }
            _ => {}
        }
    }

    pub(crate) fn error(&self) -> Option<&CheckError> {
        self.error.as_ref()
    }

    fn into_result(self) -> Result<(), CheckError> {
        self.error.map_or(Ok(()), Err)
    }
}

/// Theorem 2's structural form: while a job holds a *global* semaphore,
/// any job preempting it must itself hold a global semaphore (a gcs can
/// only be preempted by a higher-priority gcs, never by task code).
///
/// # Errors
///
/// Returns the first violation found.
pub fn gcs_preemption_discipline(trace: &Trace, system: &System) -> Result<(), CheckError> {
    let mut core = GcsCheck::new(system);
    for e in trace.events() {
        core.on_event(e.time, e.job, &e.kind);
    }
    core.into_result()
}

/// Streaming core of [`priority_floor`].
#[derive(Debug, Clone)]
pub(crate) struct FloorCheck {
    /// Assigned priority per `TaskId::index()`.
    prios: Vec<Priority>,
    error: Option<CheckError>,
}

impl FloorCheck {
    pub(crate) fn new(system: &System) -> Self {
        FloorCheck {
            prios: system
                .tasks()
                .iter()
                .map(mpcp_model::Task::priority)
                .collect(),
            error: None,
        }
    }

    pub(crate) fn on_event(&mut self, time: Time, job: JobId, kind: &EventKind) {
        if self.error.is_some() {
            return;
        }
        if let EventKind::PriorityChanged { to, .. } = *kind {
            let base = self.prios[job.task.index()];
            if to < base {
                self.error = Some(err(
                    time,
                    format!("{job} dropped to {to}, below its assigned {base}"),
                ));
            }
        }
    }

    pub(crate) fn error(&self) -> Option<&CheckError> {
        self.error.as_ref()
    }

    fn into_result(self) -> Result<(), CheckError> {
        self.error.map_or(Ok(()), Err)
    }
}

/// A job's priority never drops below its assigned priority.
///
/// # Errors
///
/// Returns the first violation found.
pub fn priority_floor(trace: &Trace, system: &System) -> Result<(), CheckError> {
    let mut core = FloorCheck::new(system);
    for e in trace.events() {
        core.on_event(e.time, e.job, &e.kind);
    }
    core.into_result()
}

/// Streaming core of [`spin_occupancy`]. Does not watch slices, which
/// close long after the fact: whenever time is about to move, the
/// engine shows it the occupant of every processor an event of the
/// instant concerned, after those events — so tracking just the current
/// spinner per processor is exact. A spinner is set by an event on its
/// own processor and an occupant changes only there, so a processor not
/// shown would pass as it passed when last shown. (The post-hoc function
/// works on recorded slices and uses interval overlap instead.)
#[derive(Debug, Clone)]
pub(crate) struct SpinCheck {
    res_global: Vec<bool>,
    /// Home processor per `TaskId::index()`.
    home: Vec<ProcessorId>,
    /// The job spin-waiting on each `ProcessorId::index()`, if any.
    spinning: Vec<Option<JobId>>,
    error: Option<CheckError>,
}

impl SpinCheck {
    pub(crate) fn new(system: &System) -> Self {
        SpinCheck {
            res_global: res_global_map(system),
            home: system
                .tasks()
                .iter()
                .map(mpcp_model::Task::processor)
                .collect(),
            spinning: vec![None; system.processors().len()],
            error: None,
        }
    }

    fn clear(&mut self, job: JobId) {
        for s in &mut self.spinning {
            if *s == Some(job) {
                *s = None;
            }
        }
    }

    pub(crate) fn on_event(&mut self, time: Time, job: JobId, kind: &EventKind) {
        if self.error.is_some() {
            return;
        }
        match *kind {
            EventKind::LockBlocked { resource, .. }
                if self
                    .res_global
                    .get(resource.index())
                    .copied()
                    .unwrap_or(false) =>
            {
                let home = self.home[job.task.index()];
                if let Some(other) = self.spinning[home.index()] {
                    if other != job {
                        self.error = Some(err(
                            time,
                            format!("{job} spins on {home} while {other} already spins there"),
                        ));
                        return;
                    }
                }
                self.spinning[home.index()] = Some(job);
            }
            // HandedOff is attributed to the grantee; Woken / Completed
            // to the spinner itself.
            EventKind::HandedOff { .. } | EventKind::Woken | EventKind::Completed { .. } => {
                self.clear(job);
            }
            _ => {}
        }
    }

    /// `occupant` holds `processor` (or nobody does) from `now` until
    /// the next instant.
    #[inline]
    pub(crate) fn on_occupant(
        &mut self,
        processor: ProcessorId,
        occupant: Option<JobId>,
        now: Time,
    ) {
        if self.error.is_some() {
            return;
        }
        let Some(&Some(spinner)) = self.spinning.get(processor.index()) else {
            return;
        };
        if occupant != Some(spinner) {
            self.error = Some(err(
                now,
                match occupant {
                    Some(j) => format!("{processor} ran {j} while {spinner} spin-waits there"),
                    None => format!("{processor} idled while {spinner} spin-waits there"),
                },
            ));
        }
    }

    pub(crate) fn error(&self) -> Option<&CheckError> {
        self.error.as_ref()
    }
}

/// A spin window reconstructed from the event stream: `job` busy-waits
/// on `processor` from `start` until `end` (`None` = still spinning at
/// the end of the trace).
struct SpinWindow {
    processor: ProcessorId,
    job: JobId,
    start: Time,
    end: Option<Time>,
}

fn close_spin_windows(windows: &mut [SpinWindow], job: JobId, at: Time) {
    for w in windows.iter_mut() {
        if w.job == job && w.end.is_none() {
            w.end = Some(at);
        }
    }
}

/// While a job busy-waits on a global semaphore ([`LockResult::Spin`]),
/// its home processor runs that job and nothing else: a spinner
/// occupies its processor (MSRP's non-preemptable request rule), so a
/// foreign job running there — or the processor idling — during a spin
/// window is a violation.
///
/// [`LockResult::Spin`]: crate::LockResult::Spin
///
/// # Errors
///
/// Returns the first violation found.
pub fn spin_occupancy(trace: &Trace, system: &System) -> Result<(), CheckError> {
    let res_global = res_global_map(system);
    let home: Vec<ProcessorId> = system
        .tasks()
        .iter()
        .map(mpcp_model::Task::processor)
        .collect();
    let mut windows: Vec<SpinWindow> = Vec::new();
    for e in trace.events() {
        match e.kind {
            EventKind::LockBlocked { resource, .. }
                if res_global.get(resource.index()).copied().unwrap_or(false) =>
            {
                windows.push(SpinWindow {
                    processor: home[e.job.task.index()],
                    job: e.job,
                    start: e.time,
                    end: None,
                });
            }
            EventKind::HandedOff { .. } | EventKind::Woken | EventKind::Completed { .. } => {
                close_spin_windows(&mut windows, e.job, e.time);
            }
            _ => {}
        }
    }
    let mut first: Option<CheckError> = None;
    for s in trace.slices() {
        let s_end = s.start + s.dur;
        for w in &windows {
            if w.processor != s.processor || s.job == Some(w.job) {
                continue;
            }
            let overlaps = s_end > w.start && w.end.is_none_or(|we| s.start < we);
            if !overlaps {
                continue;
            }
            let at = s.start.max(w.start);
            let msg = match s.job {
                Some(j) => format!("{} ran {j} while {} spin-waits there", w.processor, w.job),
                None => format!("{} idled while {} spin-waits there", w.processor, w.job),
            };
            if first.as_ref().is_none_or(|f| at < f.time) {
                first = Some(err(at, msg));
            }
        }
    }
    first.map_or(Ok(()), Err)
}

/// Streaming core of [`boost_while_holding`].
#[derive(Debug, Clone)]
pub(crate) struct BoostCheck {
    res_global: Vec<bool>,
    /// Assigned priority per `TaskId::index()`.
    prios: Vec<Priority>,
    /// Live jobs: (job, current effective priority, global locks held).
    live: Vec<(JobId, Priority, u32)>,
    error: Option<CheckError>,
}

impl BoostCheck {
    pub(crate) fn new(system: &System) -> Self {
        BoostCheck {
            res_global: res_global_map(system),
            prios: system
                .tasks()
                .iter()
                .map(mpcp_model::Task::priority)
                .collect(),
            live: Vec::new(),
            error: None,
        }
    }

    fn is_global(&self, r: ResourceId) -> bool {
        self.res_global.get(r.index()).copied().unwrap_or(false)
    }

    fn entry(&mut self, job: JobId) -> &mut (JobId, Priority, u32) {
        if let Some(pos) = self.live.iter().position(|(j, _, _)| *j == job) {
            return &mut self.live[pos];
        }
        let base = self.prios[job.task.index()];
        self.live.push((job, base, 0));
        self.live.last_mut().expect("just pushed")
    }

    fn check(&mut self, time: Time, job: JobId) {
        let Some(&(_, pri, held)) = self.live.iter().find(|(j, _, _)| *j == job) else {
            return;
        };
        if held > 0 && !pri.is_global() {
            self.error = Some(err(
                time,
                format!("{job} holds a global semaphore at non-boosted {pri}"),
            ));
        }
    }

    pub(crate) fn on_event(&mut self, time: Time, job: JobId, kind: &EventKind) {
        if self.error.is_some() {
            return;
        }
        match *kind {
            EventKind::PriorityChanged { to, .. } => {
                self.entry(job).1 = to;
                self.check(time, job);
            }
            EventKind::LockGranted { resource } | EventKind::HandedOff { resource, .. }
                if self.is_global(resource) =>
            {
                self.entry(job).2 += 1;
                self.check(time, job);
            }
            EventKind::Unlocked { resource } if self.is_global(resource) => {
                let e = self.entry(job);
                e.2 = e.2.saturating_sub(1);
            }
            EventKind::Completed { .. } => {
                self.live.retain(|(j, _, _)| *j != job);
            }
            _ => {}
        }
    }

    pub(crate) fn error(&self) -> Option<&CheckError> {
        self.error.as_ref()
    }

    fn into_result(self) -> Result<(), CheckError> {
        self.error.map_or(Ok(()), Err)
    }
}

/// While a job holds a *global* semaphore its effective priority lies in
/// the global band: boosting protocols (MSRP's non-preemptable sections,
/// FMLP+'s priority-boosted sections) never expose a holder at a
/// task-band priority — not even between the hand-off and its first
/// subsequent slice.
///
/// # Errors
///
/// Returns the first violation found.
pub fn boost_while_holding(trace: &Trace, system: &System) -> Result<(), CheckError> {
    let mut core = BoostCheck::new(system);
    for e in trace.events() {
        core.on_event(e.time, e.job, &e.kind);
    }
    core.into_result()
}

/// The expected per-resource grant order (and optionally instants) of
/// an offline critical-section schedule, as checked by
/// [`schedule_conformance`].
///
/// `per_resource[r.index()]` lists, in order, which job must receive
/// the `r`-th semaphore next and — when the schedule pins an exact
/// start slot — at which instant the grant must happen. A `None` slot
/// checks order only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpectedGrants {
    /// Expected `(job, start slot)` sequence per `ResourceId::index()`.
    pub per_resource: Vec<Vec<(JobId, Option<Time>)>>,
}

/// Streaming core of [`schedule_conformance`].
#[derive(Debug, Clone)]
pub(crate) struct ConformanceCheck {
    expected: ExpectedGrants,
    /// Next unmatched position per `ResourceId::index()`.
    cursor: Vec<usize>,
    error: Option<CheckError>,
}

impl ConformanceCheck {
    pub(crate) fn new(expected: ExpectedGrants) -> Self {
        let cursor = vec![0; expected.per_resource.len()];
        ConformanceCheck {
            expected,
            cursor,
            error: None,
        }
    }

    pub(crate) fn on_event(&mut self, time: Time, job: JobId, kind: &EventKind) {
        if self.error.is_some() {
            return;
        }
        let resource = match *kind {
            EventKind::LockGranted { resource } | EventKind::HandedOff { resource, .. } => resource,
            _ => return,
        };
        let i = resource.index();
        let Some(seq) = self.expected.per_resource.get(i) else {
            self.error = Some(err(
                time,
                format!("{job} granted {resource}, which the schedule never grants"),
            ));
            return;
        };
        let pos = self.cursor[i];
        let Some(&(want, slot)) = seq.get(pos) else {
            self.error = Some(err(
                time,
                format!("{job} granted {resource} beyond the schedule's {pos} grants"),
            ));
            return;
        };
        if want != job {
            self.error = Some(err(
                time,
                format!("{resource} grant #{pos} went to {job}, schedule says {want}"),
            ));
            return;
        }
        if let Some(at) = slot {
            if at != time {
                self.error = Some(err(
                    time,
                    format!("{resource} grant #{pos} to {job} scheduled for {at}"),
                ));
                return;
            }
        }
        self.cursor[i] = pos + 1;
    }

    pub(crate) fn error(&self) -> Option<&CheckError> {
        self.error.as_ref()
    }

    fn into_result(self) -> Result<(), CheckError> {
        self.error.map_or(Ok(()), Err)
    }
}

/// Every semaphore grant in the trace follows the expected offline
/// schedule: right job, right order, and — when the schedule pins a
/// start slot — right instant. Grants to unscheduled resources or past
/// the end of a resource's schedule are violations; *missing* grants
/// are not (a horizon may truncate the tail of a schedule).
///
/// # Errors
///
/// Returns the first violation found.
pub fn schedule_conformance(trace: &Trace, expected: &ExpectedGrants) -> Result<(), CheckError> {
    let mut core = ConformanceCheck::new(expected.clone());
    for e in trace.events() {
        core.on_event(e.time, e.job, &e.kind);
    }
    core.into_result()
}

/// Runs every invariant applicable to the shared-memory protocol.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_mpcp_trace(trace: &Trace, system: &System) -> Result<(), CheckError> {
    mutual_exclusion(trace)?;
    single_occupancy(trace, system)?;
    priority_ordered_handoffs(trace, system)?;
    gcs_preemption_discipline(trace, system)?;
    priority_floor(trace, system)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Band, Slice};
    use mpcp_model::{Body, Dur, System, TaskDef, TaskId};

    fn jid(i: u32) -> JobId {
        JobId::first(TaskId::from_index(i))
    }
    fn res(i: u32) -> ResourceId {
        ResourceId::from_index(i)
    }

    fn two_task_system() -> System {
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
        b.build().unwrap()
    }

    #[test]
    fn mutual_exclusion_detects_double_grant() {
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        tr.push(
            Time::new(1),
            jid(1),
            EventKind::LockGranted { resource: res(0) },
        );
        let e = mutual_exclusion(&tr).unwrap_err();
        assert!(e.to_string().contains("while"));
    }

    #[test]
    fn mutual_exclusion_detects_foreign_release() {
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        tr.push(
            Time::new(1),
            jid(1),
            EventKind::Unlocked { resource: res(0) },
        );
        assert!(mutual_exclusion(&tr).is_err());
        let mut tr2 = Trace::new();
        tr2.push(
            Time::new(0),
            jid(0),
            EventKind::Unlocked { resource: res(0) },
        );
        assert!(mutual_exclusion(&tr2).is_err());
    }

    #[test]
    fn mutual_exclusion_detects_completion_with_lock() {
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        tr.push(
            Time::new(1),
            jid(0),
            EventKind::Completed {
                response: Dur::new(1),
            },
        );
        assert!(mutual_exclusion(&tr).is_err());
    }

    #[test]
    fn handoff_order_detects_inversion() {
        let sys = two_task_system();
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockBlocked {
                resource: res(0),
                holder: None,
            },
        );
        tr.push(
            Time::new(1),
            jid(1),
            EventKind::LockBlocked {
                resource: res(0),
                holder: None,
            },
        );
        // Hand to the lower-priority waiter (task 1) while task 0 waits.
        tr.push(
            Time::new(2),
            jid(1),
            EventKind::HandedOff {
                resource: res(0),
                to: jid(1),
            },
        );
        assert!(priority_ordered_handoffs(&tr, &sys).is_err());
    }

    #[test]
    fn handoff_to_non_waiter_is_flagged() {
        let sys = two_task_system();
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(1),
            EventKind::HandedOff {
                resource: res(0),
                to: jid(1),
            },
        );
        assert!(priority_ordered_handoffs(&tr, &sys).is_err());
    }

    #[test]
    fn priority_floor_detects_underrun() {
        let sys = two_task_system();
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::PriorityChanged {
                from: Priority::task(2),
                to: Priority::task(0),
            },
        );
        assert!(priority_floor(&tr, &sys).is_err());
    }

    #[test]
    fn overlapping_slices_detected() {
        let sys = two_task_system();
        let mut tr = Trace::new();
        tr.push_slice(Slice {
            processor: sys.processors()[0].id(),
            job: Some(jid(0)),
            start: Time::new(0),
            dur: Dur::new(5),
            band: Band::Normal,
        });
        tr.push_slice(Slice {
            processor: sys.processors()[0].id(),
            job: Some(jid(1)),
            start: Time::new(3),
            dur: Dur::new(5),
            band: Band::Normal,
        });
        assert!(single_occupancy(&tr, &sys).is_err());
    }

    #[test]
    fn spin_occupancy_flags_foreign_and_idle_slices() {
        let sys = two_task_system();
        let p0 = sys.processors()[0].id();
        // jid(0) (home P0) spins on the global S from t=2; a foreign job
        // runs on P0 inside the window.
        let mut tr = Trace::new();
        tr.push(
            Time::new(2),
            jid(0),
            EventKind::LockBlocked {
                resource: res(0),
                holder: Some(jid(1)),
            },
        );
        tr.push_slice(Slice {
            processor: p0,
            job: Some(jid(1)),
            start: Time::new(2),
            dur: Dur::new(2),
            band: Band::Normal,
        });
        assert!(spin_occupancy(&tr, &sys).is_err());
        // An idle slice inside an (unclosed) window is a violation too.
        let mut tr2 = Trace::new();
        tr2.push(
            Time::new(2),
            jid(0),
            EventKind::LockBlocked {
                resource: res(0),
                holder: None,
            },
        );
        tr2.push_slice(Slice {
            processor: p0,
            job: None,
            start: Time::new(3),
            dur: Dur::new(1),
            band: Band::Normal,
        });
        assert!(spin_occupancy(&tr2, &sys).is_err());
    }

    #[test]
    fn spin_occupancy_accepts_spinner_until_handoff() {
        let sys = two_task_system();
        let p0 = sys.processors()[0].id();
        let mut tr = Trace::new();
        tr.push(
            Time::new(2),
            jid(0),
            EventKind::LockBlocked {
                resource: res(0),
                holder: Some(jid(1)),
            },
        );
        tr.push_slice(Slice {
            processor: p0,
            job: Some(jid(0)),
            start: Time::new(2),
            dur: Dur::new(3),
            band: Band::GlobalCs,
        });
        tr.push(
            Time::new(5),
            jid(0),
            EventKind::HandedOff {
                resource: res(0),
                to: jid(0),
            },
        );
        // The window closed at 5: other occupants are fine afterwards.
        tr.push_slice(Slice {
            processor: p0,
            job: Some(jid(1)),
            start: Time::new(6),
            dur: Dur::new(1),
            band: Band::Normal,
        });
        spin_occupancy(&tr, &sys).unwrap();
    }

    #[test]
    fn boost_flags_unboosted_holder() {
        let sys = two_task_system();
        let mut tr = Trace::new();
        // Granted the global S while still at the task-band base.
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        assert!(boost_while_holding(&tr, &sys).is_err());
    }

    #[test]
    fn boost_flags_restore_before_release() {
        let sys = two_task_system();
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::PriorityChanged {
                from: Priority::task(2),
                to: Priority::global(9),
            },
        );
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        // Dropping back to the task band while still holding S.
        tr.push(
            Time::new(2),
            jid(0),
            EventKind::PriorityChanged {
                from: Priority::global(9),
                to: Priority::task(2),
            },
        );
        assert!(boost_while_holding(&tr, &sys).is_err());
    }

    #[test]
    fn boost_accepts_boost_before_grant_restore_after_release() {
        let sys = two_task_system();
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::PriorityChanged {
                from: Priority::task(2),
                to: Priority::global(9),
            },
        );
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        tr.push(
            Time::new(3),
            jid(0),
            EventKind::Unlocked { resource: res(0) },
        );
        tr.push(
            Time::new(3),
            jid(0),
            EventKind::PriorityChanged {
                from: Priority::global(9),
                to: Priority::task(2),
            },
        );
        boost_while_holding(&tr, &sys).unwrap();
    }

    #[test]
    fn conformance_accepts_matching_grants() {
        let expected = ExpectedGrants {
            per_resource: vec![vec![
                (jid(0), Some(Time::new(0))),
                (jid(1), None), // order-only entry
            ]],
        };
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        tr.push(
            Time::new(5),
            jid(1),
            EventKind::HandedOff {
                resource: res(0),
                to: jid(1),
            },
        );
        schedule_conformance(&tr, &expected).unwrap();
    }

    #[test]
    fn conformance_flags_wrong_job_wrong_slot_and_overrun() {
        let expected = ExpectedGrants {
            per_resource: vec![vec![(jid(0), Some(Time::new(2)))]],
        };
        // Wrong job.
        let mut tr = Trace::new();
        tr.push(
            Time::new(2),
            jid(1),
            EventKind::LockGranted { resource: res(0) },
        );
        assert!(schedule_conformance(&tr, &expected).is_err());
        // Right job, wrong instant.
        let mut tr = Trace::new();
        tr.push(
            Time::new(3),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        assert!(schedule_conformance(&tr, &expected).is_err());
        // Grant past the end of the schedule.
        let mut tr = Trace::new();
        tr.push(
            Time::new(2),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        tr.push(
            Time::new(4),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        assert!(schedule_conformance(&tr, &expected).is_err());
        // Grant on a resource the schedule never mentions.
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(7) },
        );
        assert!(schedule_conformance(&tr, &expected).is_err());
    }

    #[test]
    fn conformance_allows_truncated_tail() {
        let expected = ExpectedGrants {
            per_resource: vec![vec![
                (jid(0), Some(Time::new(0))),
                (jid(1), Some(Time::new(9))),
            ]],
        };
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        // The second grant never happens (horizon cut) — still clean.
        schedule_conformance(&tr, &expected).unwrap();
    }

    #[test]
    fn clean_trace_passes_all() {
        let sys = two_task_system();
        let mut tr = Trace::new();
        tr.push(
            Time::new(0),
            jid(0),
            EventKind::LockGranted { resource: res(0) },
        );
        tr.push(
            Time::new(1),
            jid(0),
            EventKind::Unlocked { resource: res(0) },
        );
        tr.push(
            Time::new(2),
            jid(0),
            EventKind::Completed {
                response: Dur::new(2),
            },
        );
        check_mpcp_trace(&tr, &sys).unwrap();
    }
}
