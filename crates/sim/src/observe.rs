//! Per-job observed-blocking extraction from the event stream.
//!
//! The engine accounts blocking while it runs (see
//! [`JobRecord`](crate::JobRecord)); this module re-derives the same
//! quantity from the events alone, as a consumer a
//! [`Monitor`](crate::Monitor) feeds when its spec sets
//! `observed_blocking` — live, or from a recorded trace through
//! [`Monitor::replay`](crate::Monitor::replay). Having two independent
//! implementations of "how long did this job wait on global semaphores"
//! turns the pair into a differential oracle: the sweep engine
//! cross-checks them on every scenario, so a bookkeeping bug in either
//! path surfaces as a mismatch.

use crate::event::EventKind;
use mpcp_model::{Dur, JobId, Time};

/// Global-semaphore waiting time per job, reconstructed from the event
/// stream.
///
/// A wait opens at a `LockBlocked` event on a *global* resource and
/// closes at the next `HandedOff`/`LockGranted`/`Woken` event of the
/// same job. Jobs whose last wait never closed (the horizon cut in
/// mid-wait) are reported as unsettled and excluded from
/// [`ObservedBlocking::settled`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservedBlocking {
    /// Per `TaskId::index()`, `(instance, settled wait)` of the jobs
    /// that ever waited, in instance order.
    total: Vec<Vec<(u32, Dur)>>,
    /// The waits open right now, with their start: as many entries as
    /// jobs are blocked on a global semaphore, so every grant — most
    /// close no wait at all — looks through a handful, hashing nothing.
    open: Vec<(JobId, Time)>,
}

impl ObservedBlocking {
    /// Fed every event in emission order by [`Monitor`](crate::Monitor).
    /// `res_global` classifies resources by index (see
    /// `check::res_global_map`).
    pub(crate) fn on_event(
        &mut self,
        time: Time,
        job: JobId,
        kind: &EventKind,
        res_global: &[bool],
    ) {
        match *kind {
            // A job that blocks again while waiting is still in the wait
            // it opened first.
            EventKind::LockBlocked { resource, .. }
                if res_global[resource.index()] && !self.open.iter().any(|&(j, _)| j == job) =>
            {
                self.open.push((job, time));
            }
            EventKind::HandedOff { .. } | EventKind::LockGranted { .. } | EventKind::Woken => {
                let Some(at) = self.open.iter().position(|&(j, _)| j == job) else {
                    return;
                };
                let (_, start) = self.open.swap_remove(at);
                let t = job.task.index();
                if t >= self.total.len() {
                    self.total.resize_with(t + 1, Vec::new);
                }
                let waits = &mut self.total[t];
                match waits.binary_search_by_key(&job.instance, |&(i, _)| i) {
                    Ok(at) => waits[at].1 += time - start,
                    Err(at) => waits.insert(at, (job.instance, time - start)),
                }
            }
            _ => {}
        }
    }

    /// The job's total settled global wait; zero if it never blocked,
    /// `None` if a wait was still open when the trace ended.
    pub fn settled(&self, job: JobId) -> Option<Dur> {
        if self.open.iter().any(|&(j, _)| j == job) {
            return None;
        }
        let waits = self
            .total
            .get(job.task.index())
            .map_or(&[][..], Vec::as_slice);
        let at = waits.binary_search_by_key(&job.instance, |&(i, _)| i);
        Some(at.map_or(Dur::ZERO, |at| waits[at].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::monitor::{Monitor, MonitorSpec};
    use crate::policy::{Ctx, LockResult, Protocol};
    use mpcp_model::{Body, ResourceId, System, TaskDef, TaskId};
    use std::collections::HashMap;

    fn jid(t: u32, i: u32) -> JobId {
        JobId::new(TaskId::from_index(t), i)
    }

    /// FIFO grant/handoff, enough to produce real block/handoff events.
    struct Fifo {
        held: HashMap<ResourceId, JobId>,
        waiting: Vec<(ResourceId, JobId)>,
    }

    impl Protocol for Fifo {
        fn name(&self) -> &'static str {
            "fifo"
        }
        fn init(&mut self, _: &System) {}
        fn on_lock(&mut self, _: &mut Ctx<'_>, job: JobId, res: ResourceId) -> LockResult {
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

    fn contended_system() -> System {
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
        b.build().unwrap()
    }

    /// The reconstruction of a recorded run: `replay` with
    /// `observed_blocking` on.
    fn observed(sim: &Simulator<Fifo>, sys: &System) -> ObservedBlocking {
        let spec = MonitorSpec {
            observed_blocking: true,
            ..MonitorSpec::default()
        };
        let mut monitor = Monitor::new(sys, spec);
        monitor.replay(sim.trace());
        monitor.observed().expect("enabled above").clone()
    }

    #[test]
    fn trace_derived_wait_matches_engine_accounting() {
        let sys = contended_system();
        let mut sim = Simulator::new(
            &sys,
            Fifo {
                held: HashMap::new(),
                waiting: Vec::new(),
            },
        );
        sim.run_until(100);
        let ob = observed(&sim, &sys);
        // b requests at 1, is handed the lock at 4: waited 3.
        assert_eq!(ob.settled(jid(1, 0)), Some(Dur::new(3)));
        assert_eq!(ob.settled(jid(0, 0)), Some(Dur::ZERO));
        for r in sim.records() {
            assert_eq!(ob.settled(r.id), Some(r.blocked_global));
        }
    }

    #[test]
    fn open_wait_at_horizon_is_unsettled() {
        let sys = contended_system();
        let mut sim = Simulator::with_config(
            &sys,
            Fifo {
                held: HashMap::new(),
                waiting: Vec::new(),
            },
            SimConfig::until(3),
        );
        sim.run();
        // At t=3, a still holds S and b is mid-wait.
        let ob = observed(&sim, &sys);
        assert_eq!(ob.settled(jid(1, 0)), None);
    }

    /// Two jobs of one task can wait at once (the first overran into the
    /// second's period), their waits can close in either order, and a
    /// job can wait more than once: totals are per job all the same.
    #[test]
    fn waits_are_kept_per_job_not_per_task() {
        let global = [true];
        let resource = ResourceId::from_index(0);
        let blocked = EventKind::LockBlocked {
            resource,
            holder: None,
        };
        let granted = EventKind::LockGranted { resource };
        let mut ob = ObservedBlocking::default();
        let feed = |ob: &mut ObservedBlocking, t: u64, job: JobId, kind: &EventKind| {
            ob.on_event(Time::new(t), job, kind, &global);
        };
        feed(&mut ob, 1, jid(2, 0), &blocked);
        feed(&mut ob, 3, jid(2, 1), &blocked);
        feed(&mut ob, 4, jid(2, 1), &blocked); // still the wait opened at 3
        feed(&mut ob, 5, jid(0, 7), &granted); // never waited: closes nothing
        feed(&mut ob, 6, jid(2, 1), &EventKind::Woken);
        feed(&mut ob, 7, jid(2, 1), &blocked);
        assert_eq!(ob.settled(jid(2, 1)), None);
        assert_eq!(ob.settled(jid(2, 0)), None);
        feed(&mut ob, 9, jid(2, 1), &granted);
        feed(&mut ob, 9, jid(2, 0), &granted);
        assert_eq!(ob.settled(jid(2, 0)), Some(Dur::new(8)));
        assert_eq!(ob.settled(jid(2, 1)), Some(Dur::new(3 + 2)));
        assert_eq!(ob.settled(jid(2, 2)), Some(Dur::ZERO));
        assert_eq!(ob.settled(jid(0, 7)), Some(Dur::ZERO));
        assert_eq!(ob.settled(jid(5, 0)), Some(Dur::ZERO));
    }
}
