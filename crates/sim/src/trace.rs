//! Execution traces: events, processor occupancy slices and ASCII Gantt
//! rendering (for reproducing the paper's Figure 5-1).

use crate::event::{EventKind, TraceEvent};
use crate::monitor::Monitor;
use mpcp_model::{Dur, JobId, Priority, ProcessorId, System, TaskId, Time};
use std::fmt::Write as _;

/// What kind of code a running job was executing during a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// Outside any critical section.
    Normal,
    /// Inside a critical section at a task-band priority (local cs).
    LocalCs,
    /// Inside a critical section at a global-band priority (gcs).
    GlobalCs,
}

/// A maximal interval during which one processor ran one job in one
/// band (or idled): the slice before it and the slice after it on the
/// same processor differ in `job` or `band`, whatever the number of
/// processors and however many event instants fall inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The processor.
    pub processor: ProcessorId,
    /// The running job, or `None` when idle.
    pub job: Option<JobId>,
    /// Start of the interval.
    pub start: Time,
    /// Length of the interval.
    pub dur: Dur,
    /// What the job was executing.
    pub band: Band,
}

/// A recorded simulation run: all events plus processor occupancy.
///
/// An attached streaming [`Monitor`] observes every event and slice as
/// it is pushed — *before* the recording filter — so invariant checking
/// works even when recording is disabled.
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
    slices: Vec<Slice>,
    /// Per `ProcessorId::index()`, the slice still open there (`dur`
    /// zero: not known until the occupant or the band changes).
    open: Vec<Slice>,
    enabled: bool,
    monitor: Option<Monitor>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            events: Vec::new(),
            slices: Vec::new(),
            open: Vec::new(),
            enabled: true,
            monitor: None,
        }
    }
}

impl Trace {
    pub(crate) fn new() -> Self {
        Trace::default()
    }

    /// Clears all recorded data for a fresh run on `processors`
    /// processors, all idle from time zero, retaining buffer capacity,
    /// and sets whether recording is enabled. Detaches any monitor: it
    /// is specific to one system and run.
    pub(crate) fn reset_for_run(&mut self, enabled: bool, processors: usize) {
        self.events.clear();
        self.slices.clear();
        self.open.clear();
        self.open.extend((0..processors).map(|p| Slice {
            processor: ProcessorId::from_index(p as u32),
            job: None,
            start: Time::ZERO,
            dur: Dur::ZERO,
            band: Band::Normal,
        }));
        self.enabled = enabled;
        self.monitor = None;
    }

    pub(crate) fn set_monitor(&mut self, monitor: Monitor) {
        self.monitor = Some(monitor);
    }

    pub(crate) fn monitor(&self) -> Option<&Monitor> {
        self.monitor.as_ref()
    }

    pub(crate) fn monitor_mut(&mut self) -> Option<&mut Monitor> {
        self.monitor.as_mut()
    }

    /// Whether occupancy slices have any consumer at all. When neither
    /// recording nor a monitor wants them, the engine skips computing
    /// them entirely.
    pub(crate) fn wants_slices(&self) -> bool {
        self.enabled || self.monitor.is_some()
    }

    /// Appends an event.
    ///
    /// Inlined into the (generic, downstream-instantiated) engine so
    /// that at each call site the monitor's dispatch folds down to the
    /// cores consuming that site's event kind.
    #[inline]
    pub fn push(&mut self, time: Time, job: JobId, kind: EventKind) {
        if let Some(m) = &mut self.monitor {
            m.on_event(time, job, &kind);
        }
        if self.enabled {
            self.events.push(TraceEvent { time, job, kind });
        }
    }

    /// From `now` on `processor` runs `job` in `band` (or idles). If
    /// that is a change, the slice open there closes and a new one
    /// opens; if not, the open slice simply goes on.
    #[inline]
    pub(crate) fn occupy(
        &mut self,
        processor: ProcessorId,
        job: Option<JobId>,
        band: Band,
        now: Time,
    ) {
        let open = &mut self.open[processor.index()];
        if (open.job, open.band) != (job, band) {
            let closed = Slice {
                // `start` was `now` once; `-` is a call into another crate.
                dur: now.saturating_duration_since(open.start),
                ..*open
            };
            (open.job, open.band, open.start) = (job, band, now);
            self.push_slice(closed);
        }
    }

    /// Closes every open slice at `now`, the end of the run.
    pub(crate) fn close_slices(&mut self, now: Time) {
        for p in 0..self.open.len() {
            let open = &mut self.open[p];
            let closed = Slice {
                dur: now - open.start,
                ..*open
            };
            open.start = now;
            self.push_slice(closed);
        }
    }

    /// The one way a closed slice reaches its consumers: the monitor,
    /// then the recording. An empty one reaches neither.
    #[inline]
    pub(crate) fn push_slice(&mut self, slice: Slice) {
        if slice.dur.is_zero() {
            return;
        }
        if let Some(m) = &mut self.monitor {
            m.on_slice(&slice);
        }
        if self.enabled {
            self.slices.push(slice);
        }
    }

    /// All events in time order (ties in emission order).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The occupancy slices closed so far: each is recorded at the
    /// instant its processor's occupant or band changes (so in order of
    /// their end), the rest when the run ends — at the `step()` that
    /// returns `false`. A processor's slices are in time order and cover
    /// it from time zero without gap or overlap.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Events concerning `job`, in order.
    pub fn events_for(&self, job: JobId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.job == job)
    }

    /// The first event matching `pred`, if any.
    pub fn find(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> Option<&TraceEvent> {
        self.events.iter().find(|e| pred(e))
    }

    /// Completion time of `job`, if it completed.
    pub fn completion_of(&self, job: JobId) -> Option<Time> {
        self.events_for(job)
            .find(|e| matches!(e.kind, EventKind::Completed { .. }))
            .map(|e| e.time)
    }

    /// Response time of `job`, if it completed.
    pub fn response_of(&self, job: JobId) -> Option<Dur> {
        self.events_for(job).find_map(|e| match e.kind {
            EventKind::Completed { response } => Some(response),
            _ => None,
        })
    }

    /// Renders a per-processor Gantt chart from `from` to `to`, one
    /// character per `scale` ticks.
    ///
    /// Legend: `.` idle, lowercase letter = task running normal code,
    /// the same letter uppercase = task inside a critical section (`*`
    /// marks a global-band critical section of that task). Tasks are
    /// lettered `a`, `b`, … in [`TaskId`] order.
    pub fn gantt(&self, system: &System, from: Time, to: Time, scale: u64) -> String {
        assert!(scale > 0, "gantt: zero scale");
        assert!(to > from, "gantt: empty window");
        let width = ((to - from).ticks().div_ceil(scale)) as usize;
        let mut out = String::new();
        // Time ruler: a label every 5 columns where it fits.
        let mut ruler = vec![' '; width];
        let mut col = 0;
        while col < width {
            let label = format!("{}", from.ticks() + col as u64 * scale);
            if col + label.len() <= width {
                for (i, ch) in label.chars().enumerate() {
                    ruler[col + i] = ch;
                }
            }
            col += (label.len() + 1).div_ceil(5) * 5;
        }
        let _ = writeln!(out, "      {}", ruler.iter().collect::<String>().trim_end());

        for proc in system.processors() {
            let mut row = vec!['.'; width];
            for slice in self.slices.iter().filter(|s| s.processor == proc.id()) {
                let Some(job) = slice.job else { continue };
                let sym = task_symbol(job.task);
                let start = slice.start.max(from);
                let end = (slice.start + slice.dur).min(to);
                if end <= start {
                    continue;
                }
                let c0 = ((start - from).ticks() / scale) as usize;
                let c1 = ((end - from).ticks().div_ceil(scale)) as usize;
                for cell in row.iter_mut().take(c1.min(width)).skip(c0) {
                    *cell = match slice.band {
                        Band::Normal => sym,
                        Band::LocalCs => sym.to_ascii_uppercase(),
                        Band::GlobalCs => sym.to_ascii_uppercase(),
                    };
                }
            }
            let _ = writeln!(
                out,
                "{:>4} |{}|",
                proc.name(),
                row.iter().collect::<String>()
            );
        }
        let _ = writeln!(
            out,
            "legend: a..z = tasks tau0..; UPPERCASE = inside critical section; . = idle"
        );
        out
    }

    /// Renders a per-job Gantt chart — the layout of the paper's
    /// Figure 5-1, one row per job with its full state over time.
    ///
    /// Legend: `#` running outside critical sections, `L` running in a
    /// local critical section, `G` running in a global critical section,
    /// `b` blocked on a semaphore, `z` self-suspended, `.` ready but
    /// preempted, space = not released / completed.
    pub fn job_gantt(&self, system: &System, from: Time, to: Time, scale: u64) -> String {
        assert!(scale > 0, "job_gantt: zero scale");
        assert!(to > from, "job_gantt: empty window");
        let width = ((to - from).ticks().div_ceil(scale)) as usize;
        let col = |t: Time| -> usize { ((t.max(from).min(to) - from).ticks() / scale) as usize };

        // Collect the jobs seen in the window, in id order.
        let mut jobs: Vec<JobId> = self.events.iter().map(|e| e.job).collect();
        jobs.sort_unstable();
        jobs.dedup();

        let mut rows: Vec<(JobId, Vec<char>)> =
            jobs.iter().map(|&j| (j, vec![' '; width])).collect();
        let row_of = |rows: &mut Vec<(JobId, Vec<char>)>, j: JobId| -> usize {
            rows.iter().position(|(id, _)| *id == j).expect("job row")
        };

        // Phase 1: lifetime = ready ('.') from release to completion (or
        // window end).
        for (job, row) in &mut rows {
            let released = self
                .events
                .iter()
                .find(|e| e.job == *job && matches!(e.kind, EventKind::Released))
                .map_or(from, |e| e.time);
            let completed = self.completion_of(*job).unwrap_or(to);
            if completed <= from || released >= to {
                continue;
            }
            for cell in row.iter_mut().take(col(completed)).skip(col(released)) {
                *cell = '.';
            }
        }

        // Phase 2: blocked/suspended intervals from events.
        #[derive(Clone, Copy)]
        struct Open {
            start: Time,
            sym: char,
        }
        let mut open: std::collections::HashMap<JobId, Open> = Default::default();
        let paint = |rows: &mut Vec<(JobId, Vec<char>)>, j: JobId, o: Open, end: Time| {
            let r = row_of(rows, j);
            let (c0, c1) = (col(o.start), col(end));
            for cell in rows[r].1.iter_mut().take(c1.max(c0)).skip(c0) {
                *cell = o.sym;
            }
            // Zero-length intervals still show one marker cell.
            if c0 == c1 && c0 < rows[r].1.len() && rows[r].1[c0] == '.' {
                rows[r].1[c0] = o.sym;
            }
        };
        for e in &self.events {
            match e.kind {
                EventKind::LockBlocked { .. } => {
                    open.insert(
                        e.job,
                        Open {
                            start: e.time,
                            sym: 'b',
                        },
                    );
                }
                EventKind::SelfSuspended { .. } => {
                    open.insert(
                        e.job,
                        Open {
                            start: e.time,
                            sym: 'z',
                        },
                    );
                }
                EventKind::Woken | EventKind::HandedOff { .. } => {
                    if let Some(o) = open.remove(&e.job) {
                        paint(&mut rows, e.job, o, e.time);
                    }
                }
                _ => {}
            }
        }
        for (job, o) in open.clone() {
            paint(&mut rows, job, o, to);
        }

        // Phase 3: running intervals from slices (they win over ready).
        for s in &self.slices {
            let Some(job) = s.job else { continue };
            let end = s.start + s.dur;
            if end <= from || s.start >= to {
                continue;
            }
            let sym = match s.band {
                Band::Normal => '#',
                Band::LocalCs => 'L',
                Band::GlobalCs => 'G',
            };
            let r = row_of(&mut rows, job);
            let c1 = ((end.min(to) - from).ticks().div_ceil(scale)) as usize;
            for cell in rows[r].1.iter_mut().take(c1.min(width)).skip(col(s.start)) {
                *cell = sym;
            }
        }

        let mut out = String::new();
        let mut ruler = vec![' '; width];
        let mut c = 0;
        while c < width {
            let label = format!("{}", from.ticks() + c as u64 * scale);
            if c + label.len() <= width {
                for (i, ch) in label.chars().enumerate() {
                    ruler[c + i] = ch;
                }
            }
            c += (label.len() + 1).div_ceil(5) * 5;
        }
        let _ = writeln!(
            out,
            "        {}",
            ruler.iter().collect::<String>().trim_end()
        );
        for (job, row) in &rows {
            let name = system.task(job.task).name();
            let _ = writeln!(out, "{:>7} |{}|", name, row.iter().collect::<String>());
        }
        let _ = writeln!(
            out,
            "legend: # normal, L local cs, G global cs, b blocked, z suspended, . preempted"
        );
        out
    }

    /// Renders the event log as one line per event.
    pub fn event_log(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// The highest effective priority `job` ever ran at, according to
    /// recorded priority changes (its base priority if none).
    pub fn max_priority_of(&self, job: JobId, base: Priority) -> Priority {
        self.events_for(job)
            .filter_map(|e| match e.kind {
                EventKind::PriorityChanged { to, .. } => Some(to),
                _ => None,
            })
            .fold(base, Priority::max)
    }
}

/// The Gantt symbol for a task: `a` for `tau0`, `b` for `tau1`, …
pub fn task_symbol(task: TaskId) -> char {
    let idx = task.index() % 26;
    (b'a' + idx as u8) as char
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jid(t: u32) -> JobId {
        JobId::first(TaskId::from_index(t))
    }

    /// A slice is recorded when the occupant or the band changes, not
    /// when an instant merely passes; the end of the run closes the
    /// rest, once.
    #[test]
    fn a_slice_closes_when_its_processor_changes_hands() {
        let mut tr = Trace::new();
        tr.reset_for_run(true, 2);
        let p = ProcessorId::from_index;
        tr.occupy(p(0), Some(jid(0)), Band::Normal, Time::new(0));
        tr.occupy(p(0), Some(jid(0)), Band::Normal, Time::new(3));
        tr.occupy(p(1), Some(jid(1)), Band::Normal, Time::new(3));
        tr.occupy(p(0), Some(jid(0)), Band::GlobalCs, Time::new(5));
        tr.close_slices(Time::new(6));
        tr.close_slices(Time::new(6));
        let got: Vec<_> = tr
            .slices()
            .iter()
            .map(|s| {
                (
                    s.processor.index(),
                    s.job,
                    s.start.ticks(),
                    s.dur.ticks(),
                    s.band,
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (1, None, 0, 3, Band::Normal),
                (0, Some(jid(0)), 0, 5, Band::Normal),
                (0, Some(jid(0)), 5, 1, Band::GlobalCs),
                (1, Some(jid(1)), 3, 3, Band::Normal),
            ]
        );
    }

    #[test]
    fn zero_slices_dropped() {
        let mut tr = Trace::new();
        tr.push_slice(Slice {
            processor: ProcessorId::from_index(0),
            job: None,
            start: Time::new(0),
            dur: Dur::ZERO,
            band: Band::Normal,
        });
        assert!(tr.slices().is_empty());
    }

    #[test]
    fn queries_find_events() {
        let mut tr = Trace::new();
        tr.push(Time::new(0), jid(0), EventKind::Released);
        tr.push(
            Time::new(9),
            jid(0),
            EventKind::Completed {
                response: Dur::new(9),
            },
        );
        tr.push(Time::new(4), jid(1), EventKind::DeadlineMiss);
        assert_eq!(tr.completion_of(jid(0)), Some(Time::new(9)));
        assert_eq!(tr.response_of(jid(0)), Some(Dur::new(9)));
        assert_eq!(tr.completion_of(jid(1)), None);
        assert_eq!(tr.events_for(jid(0)).count(), 2);
        assert_eq!(tr.events_for(jid(1)).count(), 1);
        assert!(tr
            .find(|e| matches!(e.kind, EventKind::DeadlineMiss))
            .is_some());
    }

    #[test]
    fn max_priority_tracks_changes() {
        let mut tr = Trace::new();
        tr.push(
            Time::new(1),
            jid(0),
            EventKind::PriorityChanged {
                from: Priority::task(1),
                to: Priority::global(4),
            },
        );
        assert_eq!(
            tr.max_priority_of(jid(0), Priority::task(1)),
            Priority::global(4)
        );
        assert_eq!(
            tr.max_priority_of(jid(1), Priority::task(2)),
            Priority::task(2)
        );
    }

    #[test]
    fn task_symbols_cycle() {
        assert_eq!(task_symbol(TaskId::from_index(0)), 'a');
        assert_eq!(task_symbol(TaskId::from_index(25)), 'z');
        assert_eq!(task_symbol(TaskId::from_index(26)), 'a');
    }
}

#[cfg(test)]
mod job_gantt_tests {
    use super::*;
    use crate::event::EventKind;
    use mpcp_model::{Body, Dur, System, TaskDef, TaskId};

    #[test]
    fn job_gantt_paints_all_states() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("only", p)
                .period(50)
                .body(Body::builder().compute(2).build()),
        );
        let sys = b.build().unwrap();
        let mut tr = Trace::new();
        let j = JobId::first(TaskId::from_index(0));
        tr.push(Time::new(0), j, EventKind::Released);
        tr.push_slice(Slice {
            processor: sys.processors()[0].id(),
            job: Some(j),
            start: Time::new(0),
            dur: Dur::new(2),
            band: Band::Normal,
        });
        tr.push(
            Time::new(2),
            j,
            EventKind::LockBlocked {
                resource: mpcp_model::ResourceId::from_index(0),
                holder: None,
            },
        );
        tr.push(Time::new(4), j, EventKind::Woken);
        tr.push_slice(Slice {
            processor: sys.processors()[0].id(),
            job: Some(j),
            start: Time::new(4),
            dur: Dur::new(3),
            band: Band::GlobalCs,
        });
        tr.push(
            Time::new(7),
            j,
            EventKind::Completed {
                response: Dur::new(7),
            },
        );
        let g = tr.job_gantt(&sys, Time::ZERO, Time::new(10), 1);
        let row = g.lines().nth(1).unwrap();
        assert!(row.contains("##bbGGG"), "{g}");
        assert!(g.contains("legend"));
    }
}
