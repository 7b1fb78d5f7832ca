//! The protocol invariants, one streaming core each.
//!
//! Every synchronization protocol, whatever its policy, must satisfy a
//! set of structural properties. Each is a small struct fed one event
//! (or slice, or occupant) at a time that retains its first violation.
//! [`Monitor`](crate::Monitor) owns the cores, selects them by
//! [`MonitorSpec`](crate::MonitorSpec) and is the only thing that feeds
//! them: live from the engine, or from a recorded trace through
//! [`Monitor::replay`](crate::Monitor::replay). All nine
//! `ProtocolKind`s, the sweep oracle and the model checker are judged
//! by these structs and nothing else.

use crate::event::EventKind;
use crate::trace::Slice;
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

/// `mutual_exclusion`: no two jobs hold the same semaphore
/// simultaneously, every release is by the holder, and a job completes
/// holding nothing. Indexed by resource, so a recycled instance performs
/// no steady-state allocation.
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
}

/// `single_occupancy`: each processor runs at most one job at a time —
/// a processor's occupancy slices, seen in start order (the order the
/// engine closes them in), do not overlap.
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

/// `priority_ordered_handoffs`: a semaphore is handed to the
/// highest-assigned-priority waiter queued at that moment (§5 rule 7).
/// Protocols with FIFO queues (the raw baseline) legitimately fail this
/// — that *is* the paper's point.
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
}

/// `gcs_preemption_discipline`, Theorem 2's structural form: while a job
/// holds a *global* semaphore, any job preempting it must itself hold a
/// global semaphore (a gcs can only be preempted by a higher-priority
/// gcs, never by task code). Holds a flat `(job, resource)` multiset —
/// at most a handful of entries live at once, so linear scans beat a
/// map and the buffer is reusable.
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
}

/// `priority_floor`: a job's priority never drops below its assigned
/// priority.
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
}

/// `spin_occupancy`: while a job busy-waits on a global semaphore
/// ([`LockResult::Spin`](crate::LockResult::Spin)), its home processor
/// runs that job and nothing else (MSRP's non-preemptable request rule),
/// so a foreign job running there — or the processor idling — is a
/// violation. Does not watch slices, which close long after the fact:
/// whenever time is about to move, the engine shows it the occupant of
/// every processor an event of the instant concerned, after those events
/// — so tracking just the current spinner per processor is exact. A
/// spinner is set by an event on its own processor and an occupant
/// changes only there, so a processor not shown would pass as it passed
/// when last shown — which is why a replay may show every processor.
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

/// `boost_while_holding`: while a job holds a *global* semaphore its
/// effective priority lies in the global band. Boosting protocols
/// (MSRP's non-preemptable sections, FMLP+'s priority-boosted sections)
/// never expose a holder at a task-band priority — not even between the
/// hand-off and its first subsequent slice.
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
}

/// The expected per-resource grant order (and optionally instants) of
/// an offline critical-section schedule, as checked by
/// [`Monitor::set_conformance`](crate::Monitor::set_conformance).
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

/// `schedule_conformance`: every semaphore grant follows the expected
/// offline schedule — right job, right order, and, when the schedule
/// pins a start slot, right instant. Grants to unscheduled resources or
/// past the end of a resource's schedule are violations; *missing*
/// grants are not (a horizon may truncate the tail of a schedule).
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
}
