//! Randomized protocol invariant checking: every protocol must keep
//! mutual exclusion and single occupancy on arbitrary generated systems;
//! the priority-queued ones must hand off in priority order; MPCP must
//! additionally satisfy the gcs preemption discipline (Theorem 2) and
//! never let a priority drop below its floor. One judge throughout:
//! `Monitor::replay` of the recorded trace, `violations()` read out by
//! name — and, last in this file, the certificate that a live monitor
//! on a capture-free run says exactly the same.

use mpcp::model::System;
use mpcp::protocols::ProtocolKind;
use mpcp::sim::{Monitor, MonitorSpec, Protocol, SimConfig, Simulator};
use mpcp::taskgen::{generate, WorkloadConfig};
use mpcp_prop::cases;

fn system(seed: u64, nesting: f64) -> System {
    let cfg = WorkloadConfig::default()
        .processors(3)
        .tasks_per_processor(3)
        .utilization(0.45)
        .resources(1, 2)
        .sections(0, 3)
        .section_len(0.03, 0.12)
        .nesting(nesting);
    generate(&cfg, seed)
}

fn run(kind: ProtocolKind, seed: u64, nesting: f64) -> (System, Simulator<Box<dyn Protocol>>) {
    let sys = system(seed, nesting);
    let mut sim = Simulator::with_config(&sys, kind.build(), SimConfig::until(20_000));
    sim.run();
    (sys, sim)
}

/// The one helper: the recorded run replayed under `spec`; the names of
/// the checks that fired and each one's first violation, rendered.
fn judged<P: Protocol>(
    sys: &System,
    sim: &Simulator<P>,
    spec: MonitorSpec,
) -> Vec<(&'static str, String)> {
    let mut monitor = Monitor::new(sys, spec);
    monitor.replay(sim.trace());
    monitor
        .violations()
        .map(|(name, e)| (name, e.to_string()))
        .collect()
}

/// The default spec — mutual exclusion and single occupancy, which
/// every monitor runs — plus what `set` turns on.
fn checking(set: impl FnOnce(&mut MonitorSpec)) -> MonitorSpec {
    let mut spec = MonitorSpec::default();
    set(&mut spec);
    spec
}

#[test]
fn every_protocol_keeps_mutual_exclusion() {
    cases(20, 0x1D_01, |rng| {
        let seed = rng.range_u64(0, 99_999);
        for kind in ProtocolKind::ALL {
            let (sys, sim) = run(kind, seed, 0.0);
            assert_eq!(
                judged(&sys, &sim, MonitorSpec::default()),
                [],
                "seed {seed}, {kind}"
            );
        }
    });
}

#[test]
fn priority_queued_protocols_hand_off_in_order() {
    cases(20, 0x1D_02, |rng| {
        let seed = rng.range_u64(0, 99_999);
        for kind in [
            ProtocolKind::Mpcp,
            ProtocolKind::Dpcp,
            ProtocolKind::Pip,
            ProtocolKind::NonPreemptive,
            ProtocolKind::DirectPcp,
        ] {
            let (sys, sim) = run(kind, seed, 0.0);
            assert_eq!(
                judged(&sys, &sim, checking(|s| s.handoffs = true)),
                [],
                "seed {seed}, {kind}"
            );
        }
    });
}

/// Everything MPCP promises besides the blocking reconstruction: the
/// always-on pair, hand-off order, gcs discipline, the priority floor.
fn mpcp_structural() -> MonitorSpec {
    MonitorSpec {
        observed_blocking: false,
        ..ProtocolKind::Mpcp.monitor_spec()
    }
}

#[test]
fn mpcp_satisfies_all_invariants() {
    let spec = mpcp_structural();
    assert!(spec.handoffs && spec.gcs_discipline && spec.priority_floor);
    cases(20, 0x1D_03, |rng| {
        let seed = rng.range_u64(0, 99_999);
        let (sys, sim) = run(ProtocolKind::Mpcp, seed, 0.0);
        assert_eq!(judged(&sys, &sim, spec), [], "seed {seed}");
        assert!(!sim.records().is_empty(), "seed {seed}");
    });
}

/// MPCP "does not change" with nested global critical sections
/// (§5.1): the structural invariants continue to hold (nesting order
/// is deadlock-safe by construction in the generator).
#[test]
fn mpcp_invariants_hold_with_nesting() {
    let spec = MonitorSpec {
        gcs_discipline: false,
        ..mpcp_structural()
    };
    cases(20, 0x1D_04, |rng| {
        let seed = rng.range_u64(0, 99_999);
        let nest = rng.range_f64(0.2, 1.0);
        let (sys, sim) = run(ProtocolKind::Mpcp, seed, nest);
        assert_eq!(judged(&sys, &sim, spec), [], "seed {seed}");
    });
}

/// The raw baseline *violates* priority-ordered hand-off by design —
/// confirming the checker has teeth.
#[test]
fn raw_semaphores_violate_handoff_order_somewhere() {
    let violated = (0..200u64).any(|seed| {
        let (sys, sim) = run(ProtocolKind::Raw, seed, 0.0);
        let fired = judged(&sys, &sim, checking(|s| s.handoffs = true));
        assert!(fired
            .iter()
            .all(|(name, _)| *name == "priority_ordered_handoffs"));
        !fired.is_empty()
    });
    assert!(
        violated,
        "FIFO hand-off should produce at least one priority inversion in 200 systems"
    );
}

/// MSRP rule 3: a job spin-waiting on a global semaphore occupies its
/// processor non-preemptively — nothing else runs (and the processor
/// never idles) on its home processor while it spins.
#[test]
fn msrp_spinners_hold_their_processor() {
    let spec = checking(|s| (s.spin_occupancy, s.priority_floor) = (true, true));
    cases(20, 0x1D_05, |rng| {
        let seed = rng.range_u64(0, 99_999);
        let (sys, sim) = run(ProtocolKind::Msrp, seed, 0.0);
        assert_eq!(judged(&sys, &sim, spec), [], "seed {seed}");
    });
}

/// FMLP+ rule 2: a job holding any global semaphore is always observed
/// at a boosted (global-band) priority.
#[test]
fn fmlp_holders_are_always_boosted() {
    cases(20, 0x1D_06, |rng| {
        let seed = rng.range_u64(0, 99_999);
        let (sys, sim) = run(ProtocolKind::Fmlp, seed, 0.0);
        assert_eq!(
            judged(&sys, &sim, checking(|s| s.boost_while_holding = true)),
            [],
            "seed {seed}"
        );
    });
}

// ---------------------------------------------------------------------
// Mutation tests: deliberately broken policies must make the new
// checkers fire. A checker that passes on the real protocol *and* on a
// sabotaged one would be vacuous.
// ---------------------------------------------------------------------

mod broken {
    use mpcp::model::{JobId, ResourceId, System};
    use mpcp::sim::{Ctx, LockResult, Protocol};

    /// A FIFO lock shared by both saboteurs below.
    #[derive(Debug, Default, Clone)]
    pub struct Sems {
        holder: Vec<Option<JobId>>,
        queue: Vec<Vec<JobId>>,
    }

    impl Sems {
        pub fn init(&mut self, system: &System) {
            self.holder = vec![None; system.resources().len()];
            self.queue = vec![Vec::new(); system.resources().len()];
        }

        pub fn acquire(&mut self, job: JobId, r: ResourceId) -> Option<Option<JobId>> {
            if self.holder[r.index()].is_none() {
                self.holder[r.index()] = Some(job);
                None
            } else {
                self.queue[r.index()].push(job);
                Some(self.holder[r.index()])
            }
        }

        pub fn release(&mut self, r: ResourceId) -> Option<JobId> {
            self.holder[r.index()] = None;
            if self.queue[r.index()].is_empty() {
                None
            } else {
                let next = self.queue[r.index()].remove(0);
                self.holder[r.index()] = Some(next);
                Some(next)
            }
        }
    }

    /// MSRP without rule 3: waiters spin at their *base* priority, so a
    /// higher-priority local job can preempt a spinner mid-wait.
    #[derive(Debug, Default)]
    pub struct PreemptibleSpin(Sems);

    impl Protocol for PreemptibleSpin {
        fn name(&self) -> &'static str {
            "broken-msrp"
        }
        fn init(&mut self, system: &System) {
            self.0.init(system);
        }
        fn on_lock(&mut self, _ctx: &mut Ctx<'_>, job: JobId, r: ResourceId) -> LockResult {
            match self.0.acquire(job, r) {
                None => LockResult::Granted,
                Some(holder) => LockResult::Spin { holder },
            }
        }
        fn on_unlock(&mut self, ctx: &mut Ctx<'_>, _job: JobId, r: ResourceId) {
            if let Some(next) = self.0.release(r) {
                ctx.grant_lock(next, r);
            }
        }
    }

    /// FMLP+ without rule 2: holders execute their critical sections at
    /// their base priority — no boost, ever.
    #[derive(Debug, Default)]
    pub struct Unboosted(Sems);

    impl Protocol for Unboosted {
        fn name(&self) -> &'static str {
            "broken-fmlp"
        }
        fn init(&mut self, system: &System) {
            self.0.init(system);
        }
        fn on_lock(&mut self, _ctx: &mut Ctx<'_>, job: JobId, r: ResourceId) -> LockResult {
            match self.0.acquire(job, r) {
                None => LockResult::Granted,
                Some(holder) => LockResult::Blocked { holder },
            }
        }
        fn on_unlock(&mut self, ctx: &mut Ctx<'_>, _job: JobId, r: ResourceId) {
            if let Some(next) = self.0.release(r) {
                ctx.grant_lock(next, r);
            }
        }
    }
}

/// Two tasks on different processors contending for one (therefore
/// global) semaphore, plus a high-priority local competitor next to the
/// spinner/holder under test.
fn contended_system() -> System {
    use mpcp::model::{Body, TaskDef};
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("SG");
    b.add_task(
        TaskDef::new("wants", p[0])
            .period(100)
            .priority(2)
            .offset(1)
            .body(Body::builder().critical(s, |c| c.compute(3)).build()),
    );
    b.add_task(
        TaskDef::new("high", p[0])
            .period(100)
            .priority(3)
            .offset(3)
            .body(Body::builder().compute(2).build()),
    );
    b.add_task(
        TaskDef::new("holder", p[1])
            .period(100)
            .priority(1)
            .body(Body::builder().critical(s, |c| c.compute(8)).build()),
    );
    b.build().unwrap()
}

/// A spinner that stays preemptible loses its processor to `high` at
/// t=3 — `spin_occupancy` must report exactly that; the real MSRP on
/// the same system stays clean.
#[test]
fn spin_occupancy_fires_on_a_preemptible_spinner() {
    let sys = contended_system();
    let mut sim = Simulator::with_config(
        &sys,
        broken::PreemptibleSpin::default(),
        SimConfig::until(100),
    );
    sim.run();
    assert_eq!(
        judged(&sys, &sim, checking(|s| s.spin_occupancy = true)),
        [(
            "spin_occupancy",
            "t=3: P0 ran J1.0 while J0.0 spin-waits there".to_owned()
        )]
    );

    let mut real = Simulator::with_config(&sys, ProtocolKind::Msrp.build(), SimConfig::until(100));
    real.run();
    assert_eq!(
        judged(&sys, &real, checking(|s| s.spin_occupancy = true)),
        [],
        "real MSRP keeps the invariant"
    );
}

/// A holder that never boosts is observed inside its critical section
/// at a base priority — `boost_while_holding` must report it; the real
/// FMLP+ on the same system stays clean.
#[test]
fn boost_check_fires_on_an_unboosted_holder() {
    let sys = contended_system();
    let mut sim = Simulator::with_config(&sys, broken::Unboosted::default(), SimConfig::until(100));
    sim.run();
    let fired = judged(&sys, &sim, checking(|s| s.boost_while_holding = true));
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0].0, "boost_while_holding");

    let mut real = Simulator::with_config(&sys, ProtocolKind::Fmlp.build(), SimConfig::until(100));
    real.run();
    assert_eq!(
        judged(&sys, &real, checking(|s| s.boost_while_holding = true)),
        [],
        "real FMLP+ keeps the invariant"
    );
}

// ---------------------------------------------------------------------
// Streaming ≡ replay: the certificate that lets the sweep oracle judge a
// capture-free run and never re-simulate. Not the first error — the
// whole list of violations (names, times, messages) and the whole
// blocking reconstruction.
// ---------------------------------------------------------------------

/// `(violations, observed blocking)` of a live monitor on a run that
/// records nothing, and of a fresh monitor replaying a recorded run of
/// the same system under the same policy.
fn assert_streaming_equals_replay<P: Protocol>(
    sys: &System,
    spec: MonitorSpec,
    mut policy: impl FnMut() -> P,
    what: &str,
) -> Vec<&'static str> {
    let free = SimConfig {
        record_trace: false,
        ..SimConfig::until(20_000)
    };
    let mut streaming = Simulator::with_config(sys, policy(), free);
    streaming.set_monitor(Monitor::new(sys, spec));
    streaming.run();
    assert!(streaming.trace().events().is_empty() && streaming.trace().slices().is_empty());
    let live = streaming.monitor().expect("attached above");

    let mut captured = Simulator::with_config(sys, policy(), SimConfig::until(20_000));
    captured.run();
    let mut replayed = Monitor::new(sys, spec);
    replayed.replay(captured.trace());

    let list = |m: &Monitor| -> Vec<(&'static str, mpcp::sim::check::CheckError)> {
        m.violations().map(|(n, e)| (n, e.clone())).collect()
    };
    assert_eq!(list(live), list(&replayed), "{what}");
    assert_eq!(live.error(), replayed.error(), "{what}");
    assert_eq!(live.observed(), replayed.observed(), "{what}");
    assert_eq!(live.observed().is_some(), spec.observed_blocking);
    list(live).into_iter().map(|(name, _)| name).collect()
}

/// All nine kinds on the seeded systems of this file, each judged by
/// its own spec (clean) and by every check at once (most kinds break a
/// promise they never made — which is the point: the lists agree when
/// they are long, too).
#[test]
fn streaming_monitor_equals_replay_for_every_kind() {
    let mut fired_somewhere = Vec::new();
    cases(8, 0x1D_07, |rng| {
        let seed = rng.range_u64(0, 99_999);
        let sys = system(seed, 0.0);
        for kind in ProtocolKind::ALL {
            let what = format!("seed {seed}, {kind}");
            let own =
                assert_streaming_equals_replay(&sys, kind.monitor_spec(), || kind.build(), &what);
            assert_eq!(own, [] as [&str; 0], "{what}");
            // The live spin check is shown the processors an instant
            // touched, which presumes a job blocks on its home processor:
            // a DPCP agent blocks away from home, so there the two agree
            // that the check fires but not on when.
            let every = MonitorSpec {
                spin_occupancy: kind != ProtocolKind::Dpcp,
                ..MonitorSpec::all()
            };
            fired_somewhere.extend(assert_streaming_equals_replay(
                &sys,
                every,
                || kind.build(),
                &what,
            ));
        }
    });
    for name in [
        "priority_ordered_handoffs",
        "gcs_preemption_discipline",
        "spin_occupancy",
        "boost_while_holding",
    ] {
        assert!(fired_somewhere.contains(&name), "{name} never fired");
    }
}

/// The three saboteurs: raw FIFO judged by MPCP's spec (the oracle's
/// violation path), a preemptible spinner, an unboosted holder.
#[test]
fn streaming_monitor_equals_replay_for_the_saboteurs() {
    let mpcp = ProtocolKind::Mpcp.monitor_spec();
    let inverted = (0..200u64).any(|seed| {
        let what = format!("seed {seed}, raw as mpcp");
        let raw = || ProtocolKind::Raw.build();
        assert_streaming_equals_replay(&system(seed, 0.0), mpcp, raw, &what)
            .contains(&"priority_ordered_handoffs")
    });
    assert!(inverted, "FIFO hand-off never inverted priority order");

    let sys = contended_system();
    let spin = assert_streaming_equals_replay(
        &sys,
        ProtocolKind::Msrp.monitor_spec(),
        broken::PreemptibleSpin::default,
        "preemptible spin",
    );
    assert!(spin.contains(&"spin_occupancy"), "{spin:?}");
    let boost = assert_streaming_equals_replay(
        &sys,
        ProtocolKind::Fmlp.monitor_spec(),
        broken::Unboosted::default,
        "unboosted",
    );
    assert_eq!(boost, ["boost_while_holding"]);
}
