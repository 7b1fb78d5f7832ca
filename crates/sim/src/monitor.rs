//! Streaming invariant monitoring: run the [`check`](crate::check)
//! predicates *while the simulation executes* instead of post-hoc on a
//! recorded [`Trace`](crate::Trace).
//!
//! A [`Monitor`] is attached to a simulator with
//! [`Simulator::set_monitor`](crate::Simulator::set_monitor); the engine
//! then feeds it every event as it is emitted and every occupancy slice
//! as it closes, even when trace recording is disabled. Clean runs
//! therefore never materialize a trace at all — the sweep's fast path
//! simulates with recording off, and only re-simulates with capture
//! enabled when the monitor reports a violation (so the shrinker and the
//! report see the exact post-hoc results, byte for byte).
//!
//! The monitor reuses the streaming cores behind the post-hoc
//! predicates, so the online and offline verdicts agree by
//! construction.

use crate::check::{
    res_global_map, BoostCheck, CheckError, ConformanceCheck, ExpectedGrants, FloorCheck, GcsCheck,
    HandoffCheck, MutexCheck, OccupancyCheck, SpinCheck,
};
use crate::event::EventKind;
use crate::observe::ObservedBlocking;
use crate::trace::Slice;
use mpcp_model::{JobId, System, Time};

/// Which optional checks a [`Monitor`] runs. Mutual exclusion and
/// single-processor occupancy are always on; the rest mirror the
/// per-protocol check profiles of the sweep oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorSpec {
    /// Check priority-ordered hand-offs (§5 rule 7) — every protocol
    /// except the raw FIFO baseline, which legitimately violates it.
    pub handoffs: bool,
    /// Check the gcs preemption discipline (Theorem 2: only a gcs
    /// preempts a gcs) — MPCP-specific.
    pub gcs_discipline: bool,
    /// Check that a job's effective priority never drops below its base
    /// priority — holds for every protocol that only ever raises
    /// priorities (MPCP, MSRP, FMLP+).
    pub priority_floor: bool,
    /// Reconstruct per-job global waiting times from the event stream
    /// (the trace half of the engine-vs-trace accounting oracle).
    pub observed_blocking: bool,
    /// Check that a job spin-waiting on a global semaphore occupies its
    /// home processor for the whole wait — MSRP's non-preemptable
    /// busy-wait rule.
    pub spin_occupancy: bool,
    /// Check that a job holding a global semaphore always sits in the
    /// global priority band — the boosting rule shared by MSRP
    /// (non-preemptable sections) and FMLP+ (priority-boosted sections).
    pub boost_while_holding: bool,
}

impl MonitorSpec {
    /// Every optional check enabled.
    pub fn all() -> Self {
        MonitorSpec {
            handoffs: true,
            gcs_discipline: true,
            priority_floor: true,
            observed_blocking: true,
            spin_occupancy: true,
            boost_while_holding: true,
        }
    }
}

/// Online invariant checker fed by the engine during a run.
///
/// A monitor is specific to one system and one run: [`Simulator::reset`]
/// (and any fresh run initialization) detaches it, so attach a new one
/// after each reset.
///
/// [`Simulator::reset`]: crate::Simulator::reset
#[derive(Debug, Clone)]
pub struct Monitor {
    res_global: Vec<bool>,
    mutex: MutexCheck,
    occupancy: OccupancyCheck,
    handoff: Option<HandoffCheck>,
    gcs: Option<GcsCheck>,
    floor: Option<FloorCheck>,
    conformance: Option<ConformanceCheck>,
    spin: Option<SpinCheck>,
    boost: Option<BoostCheck>,
    observed: Option<ObservedBlocking>,
}

impl Monitor {
    /// A monitor for `system` running the checks selected by `spec`.
    pub fn new(system: &System, spec: MonitorSpec) -> Self {
        Monitor {
            res_global: res_global_map(system),
            mutex: MutexCheck::default(),
            occupancy: OccupancyCheck::default(),
            handoff: spec.handoffs.then(|| HandoffCheck::new(system)),
            gcs: spec.gcs_discipline.then(|| GcsCheck::new(system)),
            floor: spec.priority_floor.then(|| FloorCheck::new(system)),
            conformance: None,
            spin: spec.spin_occupancy.then(|| SpinCheck::new(system)),
            boost: spec.boost_while_holding.then(|| BoostCheck::new(system)),
            observed: spec.observed_blocking.then(ObservedBlocking::default),
        }
    }

    /// Additionally check every semaphore grant against an offline
    /// schedule's [`ExpectedGrants`] (the streaming form of
    /// [`schedule_conformance`](crate::check::schedule_conformance)).
    /// The expected-grant data is per-run, so it rides on the monitor
    /// rather than the [`MonitorSpec`].
    pub fn set_conformance(&mut self, expected: ExpectedGrants) {
        self.conformance = Some(ConformanceCheck::new(expected));
    }

    /// Feeds one event to the cores that consume its kind — and to no
    /// other: most events (`Released`, `Started`, `LockRequested`, …)
    /// interest no check at all. The match is exhaustive, so a new
    /// [`EventKind`] must be routed here to compile, and the
    /// `dispatch_offers_every_event_to_every_consumer` test fails if a
    /// core starts consuming a kind this table does not send it.
    #[inline]
    pub(crate) fn on_event(&mut self, time: Time, job: JobId, kind: &EventKind) {
        use EventKind as K;
        macro_rules! feed {
            ($($core:ident),*) => {{
                $(if let Some(c) = &mut self.$core {
                    c.on_event(time, job, kind);
                })*
            }};
        }
        macro_rules! observe {
            () => {
                if let Some(ob) = &mut self.observed {
                    ob.on_event(time, job, kind, &self.res_global);
                }
            };
        }
        match kind {
            K::Released
            | K::Started { .. }
            | K::LockRequested { .. }
            | K::SelfSuspended { .. }
            | K::DeadlineMiss
            | K::Migrated { .. } => {}
            K::Preempted { .. } => feed!(gcs),
            K::PriorityChanged { .. } => feed!(floor, boost),
            K::Completed { .. } => {
                self.mutex.on_event(time, job, kind);
                feed!(spin, boost);
            }
            K::Unlocked { .. } => {
                self.mutex.on_event(time, job, kind);
                feed!(gcs, boost);
            }
            K::LockGranted { .. } => {
                self.mutex.on_event(time, job, kind);
                feed!(gcs, conformance, boost);
                observe!();
            }
            K::HandedOff { .. } => {
                self.mutex.on_event(time, job, kind);
                feed!(handoff, gcs, conformance, spin, boost);
                observe!();
            }
            K::LockBlocked { .. } | K::Woken => {
                feed!(handoff, spin);
                observe!();
            }
        }
    }

    #[inline]
    pub(crate) fn on_slice(&mut self, slice: &Slice) {
        self.occupancy.on_slice(slice);
    }

    /// The core that wants to see who holds a processor whenever time
    /// is about to move ([`SpinCheck::on_occupant`]), when enabled.
    pub(crate) fn spin_check(&mut self) -> Option<&mut SpinCheck> {
        self.spin.as_mut()
    }

    /// The first violation of any enabled structural check, in the
    /// canonical check order (mutual exclusion, occupancy, hand-offs,
    /// gcs discipline, priority floor, schedule conformance, spin
    /// occupancy, boost-while-holding). `None` when the run is clean so
    /// far.
    pub fn error(&self) -> Option<&CheckError> {
        self.mutex
            .error()
            .or_else(|| self.occupancy.error())
            .or_else(|| self.handoff.as_ref().and_then(HandoffCheck::error))
            .or_else(|| self.gcs.as_ref().and_then(GcsCheck::error))
            .or_else(|| self.floor.as_ref().and_then(FloorCheck::error))
            .or_else(|| self.conformance.as_ref().and_then(ConformanceCheck::error))
            .or_else(|| self.spin.as_ref().and_then(SpinCheck::error))
            .or_else(|| self.boost.as_ref().and_then(BoostCheck::error))
    }

    /// Whether no enabled structural check has fired.
    pub fn is_clean(&self) -> bool {
        self.error().is_none()
    }

    /// The streaming [`ObservedBlocking`] reconstruction, when enabled
    /// by [`MonitorSpec::observed_blocking`].
    pub fn observed(&self) -> Option<&ObservedBlocking> {
        self.observed.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::engine::{SimConfig, Simulator};
    use crate::policy::{Ctx, LockResult, Protocol};
    use mpcp_model::{Body, ResourceId, System, TaskDef};
    use std::collections::HashMap;

    /// FIFO grant/handoff — produces blocks and hand-offs (including
    /// priority-inverted ones the handoff check flags).
    struct Fifo {
        held: HashMap<ResourceId, JobId>,
        waiting: Vec<(ResourceId, JobId)>,
    }

    impl Fifo {
        fn new() -> Self {
            Fifo {
                held: HashMap::new(),
                waiting: Vec::new(),
            }
        }
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

    /// Three tasks on three processors contending for one global
    /// semaphore. The low-priority waiter blocks first, so a FIFO
    /// hand-off serves it over the queued higher-priority waiter — a
    /// priority-order inversion the hand-off check flags.
    fn contended_system() -> System {
        let mut b = System::builder();
        let p = b.add_processors(3);
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("a", p[0])
                .period(40)
                .priority(3)
                .body(Body::builder().critical(s, |c| c.compute(6)).build()),
        );
        b.add_task(
            TaskDef::new("c", p[1])
                .period(40)
                .priority(1)
                .offset(1)
                .body(Body::builder().critical(s, |c| c.compute(1)).build()),
        );
        b.add_task(
            TaskDef::new("b", p[2])
                .period(40)
                .priority(2)
                .offset(2)
                .body(Body::builder().critical(s, |c| c.compute(2)).build()),
        );
        b.build().unwrap()
    }

    /// The streaming monitor on a capture-free run reaches the same
    /// verdicts as the post-hoc predicates on a captured run, and the
    /// streaming blocking reconstruction matches `from_trace` exactly.
    #[test]
    fn streaming_matches_post_hoc() {
        let sys = contended_system();
        let mut captured = Simulator::with_config(&sys, Fifo::new(), SimConfig::until(120));
        captured.run();
        let trace = captured.trace();

        let mut streaming = Simulator::with_config(
            &sys,
            Fifo::new(),
            SimConfig {
                record_trace: false,
                ..SimConfig::until(120)
            },
        );
        streaming.set_monitor(Monitor::new(&sys, MonitorSpec::all()));
        streaming.run();
        assert!(streaming.trace().events().is_empty(), "no trace captured");
        let mon = streaming.monitor().expect("monitor attached");

        // Post-hoc verdicts on the captured run, in canonical order.
        let post_hoc = check::mutual_exclusion(trace)
            .and_then(|()| check::single_occupancy(trace, &sys))
            .and_then(|()| check::priority_ordered_handoffs(trace, &sys))
            .and_then(|()| check::gcs_preemption_discipline(trace, &sys))
            .and_then(|()| check::priority_floor(trace, &sys));
        match post_hoc {
            Ok(()) => assert!(mon.is_clean()),
            Err(e) => assert_eq!(mon.error(), Some(&e)),
        }

        let from_trace = crate::ObservedBlocking::from_trace(trace, &sys);
        let streamed = mon.observed().expect("observed enabled");
        assert_eq!(streamed.unsettled_jobs(), from_trace.unsettled_jobs());
        for r in captured.records() {
            assert_eq!(streamed.settled(r.id), from_trace.settled(r.id));
            assert_eq!(streamed.settled(r.id), Some(r.blocked_global));
        }
    }

    /// Disabled checks stay off: a spec without hand-off checking is
    /// clean even on a FIFO run that inverts hand-off priority.
    #[test]
    fn spec_gates_optional_checks() {
        let sys = contended_system();
        let run = |spec: MonitorSpec| {
            let mut sim = Simulator::with_config(
                &sys,
                Fifo::new(),
                SimConfig {
                    record_trace: false,
                    ..SimConfig::until(120)
                },
            );
            sim.set_monitor(Monitor::new(&sys, spec));
            sim.run();
            sim.monitor().unwrap().is_clean()
        };
        // FIFO hand-offs violate priority order somewhere in this run…
        assert!(!run(MonitorSpec::all()));
        // …but a raw-profile monitor does not check hand-offs.
        assert!(run(MonitorSpec::default()));
    }

    /// What `Monitor::on_event` was before it dispatched by kind: every
    /// event offered to every core.
    fn offer_to_all(m: &mut Monitor, time: Time, job: JobId, kind: &EventKind) {
        m.mutex.on_event(time, job, kind);
        if let Some(c) = &mut m.handoff {
            c.on_event(time, job, kind);
        }
        if let Some(c) = &mut m.gcs {
            c.on_event(time, job, kind);
        }
        if let Some(c) = &mut m.floor {
            c.on_event(time, job, kind);
        }
        if let Some(c) = &mut m.conformance {
            c.on_event(time, job, kind);
        }
        if let Some(c) = &mut m.spin {
            c.on_event(time, job, kind);
        }
        if let Some(c) = &mut m.boost {
            c.on_event(time, job, kind);
        }
        if let Some(ob) = &mut m.observed {
            ob.on_event(time, job, kind, &m.res_global);
        }
    }

    /// The state of each event consumer, by name.
    fn cores(m: &Monitor) -> [(&'static str, String); 8] {
        [
            ("mutex", format!("{:?}", m.mutex)),
            ("handoff", format!("{:?}", m.handoff)),
            ("gcs", format!("{:?}", m.gcs)),
            ("floor", format!("{:?}", m.floor)),
            ("conformance", format!("{:?}", m.conformance)),
            ("spin", format!("{:?}", m.spin)),
            ("boost", format!("{:?}", m.boost)),
            ("observed", format!("{:?}", m.observed)),
        ]
    }

    /// One event of every kind. The match has no wildcard: adding an
    /// `EventKind` without adding its sample here does not compile.
    fn samples(a: JobId, b: JobId) -> Vec<EventKind> {
        use mpcp_model::{Dur, Priority, ProcessorId};
        let resource = ResourceId::from_index(0);
        let processor = ProcessorId::from_index(0);
        let all = vec![
            EventKind::Released,
            EventKind::Started { processor },
            EventKind::Preempted { processor, by: b },
            EventKind::Completed {
                response: Dur::new(1),
            },
            EventKind::DeadlineMiss,
            EventKind::LockRequested { resource },
            EventKind::LockGranted { resource },
            EventKind::LockBlocked {
                resource,
                holder: Some(a),
            },
            EventKind::Unlocked { resource },
            EventKind::HandedOff { resource, to: b },
            EventKind::SelfSuspended {
                until: Time::new(9),
            },
            EventKind::Woken,
            EventKind::PriorityChanged {
                from: Priority::global(9),
                to: Priority::task(0),
            },
            EventKind::Migrated {
                from: processor,
                to: ProcessorId::from_index(1),
            },
        ];
        for kind in &all {
            match kind {
                EventKind::Released
                | EventKind::Started { .. }
                | EventKind::Preempted { .. }
                | EventKind::Completed { .. }
                | EventKind::DeadlineMiss
                | EventKind::LockRequested { .. }
                | EventKind::LockGranted { .. }
                | EventKind::LockBlocked { .. }
                | EventKind::Unlocked { .. }
                | EventKind::HandedOff { .. }
                | EventKind::SelfSuspended { .. }
                | EventKind::Woken
                | EventKind::PriorityChanged { .. }
                | EventKind::Migrated { .. } => {}
            }
        }
        all
    }

    /// `EventKind` × consumer: from a state in which every core has
    /// something to lose (a holder in a boosted gcs, a queued waiter with
    /// an open wait who spins), each kind of event, about either job, is
    /// fed once through the dispatching `on_event` and once to every core
    /// unconditionally. Every core must end in the same state both ways —
    /// so a core that consumes a kind the dispatch does not route to it
    /// fails here instead of silently going blind — and the kinds no core
    /// reacts to are exactly the ones the dispatch drops.
    #[test]
    fn dispatch_offers_every_event_to_every_consumer() {
        let sys = contended_system();
        let (a, b) = (
            JobId::first(mpcp_model::TaskId::from_index(0)),
            JobId::first(mpcp_model::TaskId::from_index(1)),
        );
        let resource = ResourceId::from_index(0);
        let mut primed = Monitor::new(&sys, MonitorSpec::all());
        primed.set_conformance(ExpectedGrants {
            per_resource: vec![vec![(a, None), (b, None), (a, None)]],
        });
        let t = Time::new(1);
        let boost = EventKind::PriorityChanged {
            from: mpcp_model::Priority::task(3),
            to: mpcp_model::Priority::global(9),
        };
        offer_to_all(&mut primed, t, a, &boost);
        offer_to_all(&mut primed, t, a, &EventKind::LockGranted { resource });
        let blocked = EventKind::LockBlocked {
            resource,
            holder: Some(a),
        };
        offer_to_all(&mut primed, t, b, &blocked);
        assert!(primed.is_clean());

        let kinds = samples(a, b);
        let mut consumed_by: Vec<Vec<&str>> = vec![Vec::new(); kinds.len()];
        for (kind, consumers) in kinds.iter().zip(&mut consumed_by) {
            for job in [a, b] {
                let (mut routed, mut offered) = (primed.clone(), primed.clone());
                routed.on_event(Time::new(2), job, kind);
                offer_to_all(&mut offered, Time::new(2), job, kind);
                for ((name, r), ((_, o), (_, before))) in cores(&routed)
                    .into_iter()
                    .zip(cores(&offered).into_iter().zip(cores(&primed)))
                {
                    assert_eq!(r, o, "{name} missed {kind:?} about {job}");
                    if o != before && !consumers.contains(&name) {
                        consumers.push(name);
                    }
                }
            }
        }
        let dropped: Vec<EventKind> = kinds
            .iter()
            .zip(&consumed_by)
            .filter(|(_, consumers)| consumers.is_empty())
            .map(|(kind, _)| *kind)
            .collect();
        assert_eq!(
            dropped,
            vec![
                EventKind::Released,
                EventKind::Started {
                    processor: mpcp_model::ProcessorId::from_index(0)
                },
                EventKind::DeadlineMiss,
                EventKind::LockRequested { resource },
                EventKind::SelfSuspended {
                    until: Time::new(9)
                },
                EventKind::Migrated {
                    from: mpcp_model::ProcessorId::from_index(0),
                    to: mpcp_model::ProcessorId::from_index(1),
                },
            ]
        );
        // All eight consumers showed up somewhere, so the primed state
        // did give each of them something to react to.
        let mut seen: Vec<&str> = consumed_by.iter().flatten().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "{seen:?}");
    }

    /// A reset detaches the monitor: it is run-specific state.
    #[test]
    fn reset_detaches_monitor() {
        let sys = contended_system();
        let mut sim = Simulator::with_config(&sys, Fifo::new(), SimConfig::until(40));
        sim.set_monitor(Monitor::new(&sys, MonitorSpec::all()));
        sim.run();
        assert!(sim.monitor().is_some());
        sim.reset(&sys, Fifo::new(), SimConfig::until(40));
        assert!(sim.monitor().is_none());
    }
}
