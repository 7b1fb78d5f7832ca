//! The one judge of an execution: the [`check`](crate::check) cores,
//! fed *while the simulation executes* or from a recorded
//! [`Trace`].
//!
//! A [`Monitor`] is attached to a simulator with
//! [`Simulator::set_monitor`](crate::Simulator::set_monitor); the engine
//! then feeds it every event as it is emitted and every occupancy slice
//! as it closes, even when trace recording is disabled, so a run never
//! has to materialize a trace to be judged. [`Monitor::replay`] folds a
//! recorded trace through the same cores in the same order — the only
//! function that reads a trace to check it — and
//! [`Monitor::violations`] reads the verdict out either way.

use crate::check::{
    res_global_map, BoostCheck, CheckError, ConformanceCheck, ExpectedGrants, FloorCheck, GcsCheck,
    HandoffCheck, MutexCheck, OccupancyCheck, SpinCheck,
};
use crate::event::EventKind;
use crate::observe::ObservedBlocking;
use crate::trace::{Slice, Trace};
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
    /// schedule's [`ExpectedGrants`]: right job, right order and, where
    /// the schedule pins a slot, right instant. The expected-grant data
    /// is per-run, so it rides on the monitor rather than the
    /// [`MonitorSpec`].
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

    /// Judges a recorded run: feeds `trace` to the cores as the engine
    /// fed them live, so a fresh monitor of the same spec ends with the
    /// violations and observed waits the run's own monitor ended with.
    /// Events go in recorded order and each processor's slices in start
    /// order. The spin check is shown every processor's occupant at
    /// every event instant and slice start, after that instant's
    /// events; slices are recorded when they *close*, so the occupant is
    /// looked up by time, and an instant no recorded slice covers (the
    /// end of the run, a trace without slices) is unknown and shown as
    /// nothing — never as idle. (Live, the spin check is shown only the
    /// processors an instant touched: the same thing as long as a job
    /// blocks on its home processor, which holds wherever jobs spin.)
    pub fn replay(&mut self, trace: &Trace) {
        let mut lanes: Vec<Vec<Slice>> = Vec::new();
        for s in trace.slices() {
            let p = s.processor.index();
            if p >= lanes.len() {
                lanes.resize_with(p + 1, Vec::new);
            }
            lanes[p].push(*s);
        }
        for lane in &mut lanes {
            lane.sort_by_key(|s| s.start);
            for s in lane.iter() {
                self.on_slice(s);
            }
        }
        let mut instants: Vec<Time> = (trace.events().iter().map(|e| e.time))
            .chain(trace.slices().iter().map(|s| s.start))
            .collect();
        instants.sort_unstable();
        instants.dedup();
        let mut events = trace.events().iter().peekable();
        for now in instants {
            while let Some(e) = events.next_if(|e| e.time <= now) {
                self.on_event(e.time, e.job, &e.kind);
            }
            let Some(spin) = &mut self.spin else { continue };
            for lane in &lanes {
                let open = lane[..lane.partition_point(|s| s.start <= now)].last();
                if let Some(s) = open.filter(|s| now < s.start + s.dur) {
                    spin.on_occupant(s.processor, s.job, now);
                }
            }
        }
    }

    /// Every enabled check that fired, by name, with its first
    /// violation, in the canonical order. Empty when the run is clean
    /// so far.
    pub fn violations(&self) -> impl Iterator<Item = (&'static str, &CheckError)> {
        [
            ("mutual_exclusion", self.mutex.error()),
            ("single_occupancy", self.occupancy.error()),
            (
                "priority_ordered_handoffs",
                self.handoff.as_ref().and_then(HandoffCheck::error),
            ),
            (
                "gcs_preemption_discipline",
                self.gcs.as_ref().and_then(GcsCheck::error),
            ),
            (
                "priority_floor",
                self.floor.as_ref().and_then(FloorCheck::error),
            ),
            (
                "spin_occupancy",
                self.spin.as_ref().and_then(SpinCheck::error),
            ),
            (
                "boost_while_holding",
                self.boost.as_ref().and_then(BoostCheck::error),
            ),
            (
                "schedule_conformance",
                self.conformance.as_ref().and_then(ConformanceCheck::error),
            ),
        ]
        .into_iter()
        .filter_map(|(name, error)| Some((name, error?)))
    }

    /// The first of [`Monitor::violations`]; `None` when the run is
    /// clean so far.
    pub fn error(&self) -> Option<&CheckError> {
        self.violations().next().map(|(_, e)| e)
    }

    /// Whether no enabled structural check has fired.
    pub fn is_clean(&self) -> bool {
        self.error().is_none()
    }

    /// The [`ObservedBlocking`] reconstruction, when enabled by
    /// [`MonitorSpec::observed_blocking`].
    pub fn observed(&self) -> Option<&ObservedBlocking> {
        self.observed.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::policy::{Ctx, LockResult, Protocol};
    use crate::trace::Band;
    use mpcp_model::{Body, Dur, Priority, ProcessorId, ResourceId, System, TaskDef, TaskId};
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

    // -----------------------------------------------------------------
    // Each core against hand-made traces, through `replay`: the spec
    // enables the one check under test, and exactly that name must fire.
    // -----------------------------------------------------------------

    fn jid(i: u32) -> JobId {
        JobId::first(TaskId::from_index(i))
    }
    fn res(i: u32) -> ResourceId {
        ResourceId::from_index(i)
    }
    fn granted(r: u32) -> EventKind {
        EventKind::LockGranted { resource: res(r) }
    }
    fn blocked(r: u32, holder: Option<JobId>) -> EventKind {
        EventKind::LockBlocked {
            resource: res(r),
            holder,
        }
    }
    fn handed(r: u32, to: JobId) -> EventKind {
        EventKind::HandedOff {
            resource: res(r),
            to,
        }
    }
    fn repriced(from: Priority, to: Priority) -> EventKind {
        EventKind::PriorityChanged { from, to }
    }
    fn slice(processor: u32, job: Option<JobId>, start: u64, dur: u64, band: Band) -> Slice {
        Slice {
            processor: ProcessorId::from_index(processor),
            job,
            start: Time::new(start),
            dur: Dur::new(dur),
            band,
        }
    }

    fn trace_of(events: &[(u64, JobId, EventKind)], slices: &[Slice]) -> Trace {
        let mut tr = Trace::new();
        for &(t, job, kind) in events {
            tr.push(Time::new(t), job, kind);
        }
        for &s in slices {
            tr.push_slice(s);
        }
        tr
    }

    /// Task `a` (priority 2) on P0 and `b` (priority 1) on P1 share the
    /// therefore global semaphore `S`.
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

    /// The one helper: `trace` replayed under `spec` (and `expected`,
    /// if any) on the two-task system; the violations, messages owned.
    fn judged(
        spec: MonitorSpec,
        expected: Option<&ExpectedGrants>,
        trace: &Trace,
    ) -> Vec<(&'static str, String)> {
        let mut m = Monitor::new(&two_task_system(), spec);
        if let Some(expected) = expected {
            m.set_conformance(expected.clone());
        }
        m.replay(trace);
        assert_eq!(m.error(), m.violations().next().map(|(_, e)| e));
        assert_eq!(m.is_clean(), m.violations().next().is_none());
        m.violations().map(|(n, e)| (n, e.to_string())).collect()
    }

    /// Exactly `name` fired, and its message contains `needle`.
    #[track_caller]
    fn assert_fired(got: &[(&'static str, String)], name: &str, needle: &str) {
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, name);
        assert!(got[0].1.contains(needle), "{got:?}");
    }

    /// The default spec — mutual exclusion and single occupancy, which
    /// every monitor runs — plus what `set` turns on.
    fn checking(set: impl FnOnce(&mut MonitorSpec)) -> MonitorSpec {
        let mut spec = MonitorSpec::default();
        set(&mut spec);
        spec
    }

    #[test]
    fn mutual_exclusion_detects_double_grant() {
        let tr = trace_of(&[(0, jid(0), granted(0)), (1, jid(1), granted(0))], &[]);
        assert_fired(
            &judged(MonitorSpec::default(), None, &tr),
            "mutual_exclusion",
            "while",
        );
    }

    #[test]
    fn mutual_exclusion_detects_foreign_release() {
        let unlocked = EventKind::Unlocked { resource: res(0) };
        let tr = trace_of(&[(0, jid(0), granted(0)), (1, jid(1), unlocked)], &[]);
        assert_fired(
            &judged(MonitorSpec::default(), None, &tr),
            "mutual_exclusion",
            "held by",
        );
        let tr = trace_of(&[(0, jid(0), unlocked)], &[]);
        assert_fired(
            &judged(MonitorSpec::default(), None, &tr),
            "mutual_exclusion",
            "free semaphore",
        );
    }

    #[test]
    fn mutual_exclusion_detects_completion_with_lock() {
        let done = EventKind::Completed {
            response: Dur::new(1),
        };
        let tr = trace_of(&[(0, jid(0), granted(0)), (1, jid(0), done)], &[]);
        assert_fired(
            &judged(MonitorSpec::default(), None, &tr),
            "mutual_exclusion",
            "completed",
        );
    }

    #[test]
    fn handoff_order_detects_inversion() {
        // Hand to the lower-priority waiter (task 1) while task 0 waits.
        let tr = trace_of(
            &[
                (0, jid(0), blocked(0, None)),
                (1, jid(1), blocked(0, None)),
                (2, jid(1), handed(0, jid(1))),
            ],
            &[],
        );
        assert_fired(
            &judged(checking(|s| s.handoffs = true), None, &tr),
            "priority_ordered_handoffs",
            "over a waiter",
        );
        // A spec without the check does not run it.
        assert_eq!(judged(MonitorSpec::default(), None, &tr), []);
    }

    #[test]
    fn handoff_to_non_waiter_is_flagged() {
        let tr = trace_of(&[(0, jid(1), handed(0, jid(1)))], &[]);
        assert_fired(
            &judged(checking(|s| s.handoffs = true), None, &tr),
            "priority_ordered_handoffs",
            "non-waiter",
        );
    }

    #[test]
    fn priority_floor_detects_underrun() {
        let spec = MonitorSpec {
            priority_floor: true,
            ..MonitorSpec::default()
        };
        let drop = repriced(Priority::task(2), Priority::task(0));
        let tr = trace_of(&[(0, jid(0), drop)], &[]);
        assert_fired(&judged(spec, None, &tr), "priority_floor", "below");
    }

    /// Slices reach the occupancy core per processor in start order,
    /// whatever order they were recorded in.
    #[test]
    fn overlapping_slices_detected() {
        let (a, b) = (
            slice(0, Some(jid(0)), 0, 5, Band::Normal),
            slice(0, Some(jid(1)), 3, 5, Band::Normal),
        );
        for slices in [[a, b], [b, a]] {
            let got = judged(MonitorSpec::default(), None, &trace_of(&[], &slices));
            assert_fired(&got, "single_occupancy", "overlapping");
        }
        // Back to back, recorded out of order, on two processors: clean.
        let tidy = [
            slice(0, Some(jid(1)), 5, 2, Band::Normal),
            slice(1, None, 0, 7, Band::Normal),
            slice(0, Some(jid(0)), 0, 5, Band::Normal),
        ];
        assert_eq!(
            judged(MonitorSpec::default(), None, &trace_of(&[], &tidy)),
            []
        );
    }

    #[test]
    fn spin_occupancy_flags_foreign_and_idle_slices() {
        // jid(0) (home P0) spins on the global S from t=2; a foreign job
        // runs on P0 inside the window.
        let spins = [(2, jid(0), blocked(0, Some(jid(1))))];
        let foreign = [slice(0, Some(jid(1)), 2, 2, Band::Normal)];
        let got = judged(
            checking(|s| s.spin_occupancy = true),
            None,
            &trace_of(&spins, &foreign),
        );
        assert_fired(&got, "spin_occupancy", "ran");
        // An idle slice inside an (unclosed) window is a violation too:
        // found at its start, an instant no event marks.
        let idle = [slice(0, None, 3, 1, Band::Normal)];
        let got = judged(
            checking(|s| s.spin_occupancy = true),
            None,
            &trace_of(&spins, &idle),
        );
        assert_fired(&got, "spin_occupancy", "3: P0 idled");
    }

    /// The occupant is looked up by time, not by position: the slice a
    /// spinner is preempted *in* was recorded after the event, and one
    /// that closed before the spin began says nothing about it.
    #[test]
    fn spin_occupancy_accepts_spinner_until_handoff() {
        let tr = trace_of(
            &[
                (2, jid(0), blocked(0, Some(jid(1)))),
                (5, jid(0), handed(0, jid(0))),
            ],
            &[
                slice(0, Some(jid(1)), 0, 2, Band::Normal),
                slice(0, Some(jid(0)), 2, 3, Band::GlobalCs),
                // The window closed at 5: other occupants are fine
                // afterwards, and nothing covers [5, 6).
                slice(0, Some(jid(1)), 6, 1, Band::Normal),
            ],
        );
        assert_eq!(judged(checking(|s| s.spin_occupancy = true), None, &tr), []);
    }

    /// No recorded slice covers the instant: the occupant is unknown,
    /// not idle.
    #[test]
    fn spin_occupancy_takes_an_uncovered_instant_as_unknown() {
        let tr = trace_of(&[(2, jid(0), blocked(0, None))], &[]);
        assert_eq!(judged(checking(|s| s.spin_occupancy = true), None, &tr), []);
    }

    #[test]
    fn boost_flags_unboosted_holder() {
        // Granted the global S while still at the task-band base.
        let tr = trace_of(&[(0, jid(0), granted(0))], &[]);
        assert_fired(
            &judged(checking(|s| s.boost_while_holding = true), None, &tr),
            "boost_while_holding",
            "holds",
        );
    }

    #[test]
    fn boost_flags_restore_before_release() {
        let (base, up) = (Priority::task(2), Priority::global(9));
        // Dropping back to the task band while still holding S.
        let tr = trace_of(
            &[
                (0, jid(0), repriced(base, up)),
                (0, jid(0), granted(0)),
                (2, jid(0), repriced(up, base)),
            ],
            &[],
        );
        assert_fired(
            &judged(checking(|s| s.boost_while_holding = true), None, &tr),
            "boost_while_holding",
            "2:",
        );
    }

    #[test]
    fn boost_accepts_boost_before_grant_restore_after_release() {
        let (base, up) = (Priority::task(2), Priority::global(9));
        let tr = trace_of(
            &[
                (0, jid(0), repriced(base, up)),
                (0, jid(0), granted(0)),
                (3, jid(0), EventKind::Unlocked { resource: res(0) }),
                (3, jid(0), repriced(up, base)),
            ],
            &[],
        );
        assert_eq!(
            judged(checking(|s| s.boost_while_holding = true), None, &tr),
            []
        );
    }

    #[test]
    fn conformance_accepts_matching_grants() {
        let expected = ExpectedGrants {
            per_resource: vec![vec![
                (jid(0), Some(Time::new(0))),
                (jid(1), None), // order-only entry
            ]],
        };
        let unlocked = EventKind::Unlocked { resource: res(0) };
        let tr = trace_of(
            &[
                (0, jid(0), granted(0)),
                (5, jid(0), unlocked),
                (5, jid(1), handed(0, jid(1))),
            ],
            &[],
        );
        assert_eq!(judged(MonitorSpec::default(), Some(&expected), &tr), []);
    }

    #[test]
    fn conformance_flags_wrong_job_wrong_slot_and_overrun() {
        let expected = ExpectedGrants {
            per_resource: vec![vec![(jid(0), Some(Time::new(2)))]],
        };
        let unlocked = EventKind::Unlocked { resource: res(0) };
        for (events, needle) in [
            (vec![(2, jid(1), granted(0))], "schedule says"),
            (vec![(3, jid(0), granted(0))], "scheduled for"),
            (
                vec![
                    (2, jid(0), granted(0)),
                    (3, jid(0), unlocked),
                    (4, jid(0), granted(0)),
                ],
                "beyond the schedule",
            ),
            // A resource the schedule never mentions.
            (vec![(0, jid(0), granted(7))], "never grants"),
        ] {
            let got = judged(
                MonitorSpec::default(),
                Some(&expected),
                &trace_of(&events, &[]),
            );
            assert_fired(&got, "schedule_conformance", needle);
        }
    }

    #[test]
    fn conformance_allows_truncated_tail() {
        let expected = ExpectedGrants {
            per_resource: vec![vec![
                (jid(0), Some(Time::new(0))),
                (jid(1), Some(Time::new(9))),
            ]],
        };
        // The second grant never happens (horizon cut) — still clean.
        let tr = trace_of(&[(0, jid(0), granted(0))], &[]);
        assert_eq!(judged(MonitorSpec::default(), Some(&expected), &tr), []);
    }

    /// What `check_mpcp_trace` ran: the always-on pair plus hand-offs,
    /// gcs discipline and the floor.
    #[test]
    fn clean_trace_passes_all() {
        let spec = MonitorSpec {
            handoffs: true,
            gcs_discipline: true,
            priority_floor: true,
            ..MonitorSpec::default()
        };
        let done = EventKind::Completed {
            response: Dur::new(2),
        };
        let tr = trace_of(
            &[
                (0, jid(0), granted(0)),
                (1, jid(0), EventKind::Unlocked { resource: res(0) }),
                (2, jid(0), done),
            ],
            &[slice(0, Some(jid(0)), 0, 2, Band::Normal)],
        );
        assert_eq!(judged(spec, None, &tr), []);
    }

    /// Several cores fire on one trace: every one is read out, in the
    /// canonical order, and `error()` is the first.
    #[test]
    fn violations_lists_every_core_that_fired_in_order() {
        let tr = trace_of(
            &[
                (0, jid(1), handed(0, jid(1))),
                (1, jid(0), granted(0)),
                (4, jid(0), repriced(Priority::task(2), Priority::task(0))),
            ],
            &[],
        );
        let names: Vec<_> = judged(MonitorSpec::all(), None, &tr)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            names,
            [
                "mutual_exclusion",
                "priority_ordered_handoffs",
                "priority_floor",
                "boost_while_holding"
            ]
        );
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
