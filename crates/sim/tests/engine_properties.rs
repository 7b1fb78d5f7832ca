//! Randomized tests of the discrete-event engine itself, using a
//! trivial always-grant protocol so only scheduling semantics are under
//! test.

use mpcp_dga::{horizon_capped, DgaReplay, DgaSchedule};
use mpcp_model::{Body, Dur, JobId, ResourceId, System, TaskDef, Time};
use mpcp_prop::{cases, Rng};
use mpcp_protocols::ProtocolKind;
use mpcp_sim::{Ctx, LockResult, Monitor, Protocol, SimConfig, Simulator, Slice};
use mpcp_taskgen::{generate, WorkloadConfig};

struct AlwaysGrant;
impl Protocol for AlwaysGrant {
    fn name(&self) -> &'static str {
        "always-grant"
    }
    fn init(&mut self, _: &System) {}
    fn on_lock(&mut self, _: &mut Ctx<'_>, _: JobId, _: ResourceId) -> LockResult {
        LockResult::Granted
    }
    fn on_unlock(&mut self, _: &mut Ctx<'_>, _: JobId, _: ResourceId) {}
}

fn system_from(params: &[(u64, u64, u64)]) -> System {
    // (period, wcet, offset) per task, all on one processor.
    let mut b = System::builder();
    let p = b.add_processor("P0");
    for (i, &(period, wcet, offset)) in params.iter().enumerate() {
        b.add_task(
            TaskDef::new(format!("t{i}"), p)
                .period(period)
                .offset(offset)
                .body(Body::builder().compute(wcet).build()),
        );
    }
    b.build().unwrap()
}

fn random_params(rng: &mut Rng) -> Vec<(u64, u64, u64)> {
    let n = rng.range_usize(1, 4);
    (0..n)
        .map(|_| {
            let period = rng.range_u64(5, 59);
            let wcet = rng.range_u64(1, (period / 4).max(1));
            let offset = rng.range_u64(0, 9);
            (period, wcet, offset)
        })
        .collect()
}

/// Busy time on the processor equals the total work completed: the
/// engine neither loses nor invents execution time.
#[test]
fn work_conservation() {
    cases(48, 0x51_01, |rng| {
        let params = random_params(rng);
        let sys = system_from(&params);
        let mut sim = Simulator::new(&sys, AlwaysGrant);
        sim.run_until(600);
        let busy: u64 = sim
            .trace()
            .slices()
            .iter()
            .filter(|s| s.job.is_some())
            .map(|s| s.dur.ticks())
            .sum();
        let completed_work: u64 = sim
            .records()
            .iter()
            .map(|r| sys.task(r.id.task).wcet().ticks())
            .sum();
        // In-flight jobs at the horizon account for the difference.
        assert!(busy >= completed_work);
        assert!(busy <= completed_work + params.len() as u64 * 60);
    });
}

/// Responses are at least the WCET, and the highest-priority task's
/// response is exactly its WCET (nothing can delay it).
#[test]
fn response_time_floors() {
    cases(48, 0x51_02, |rng| {
        let params = random_params(rng);
        let sys = system_from(&params);
        let top = sys
            .tasks()
            .iter()
            .max_by_key(|t| t.priority())
            .unwrap()
            .id();
        let mut sim = Simulator::new(&sys, AlwaysGrant);
        sim.run_until(600);
        for r in sim.records() {
            assert!(r.response >= sys.task(r.id.task).wcet());
            if r.id.task == top {
                assert_eq!(r.response, sys.task(top).wcet());
            }
        }
    });
}

/// Releases happen exactly on the periodic grid.
#[test]
fn releases_follow_the_grid() {
    cases(48, 0x51_03, |rng| {
        let params = random_params(rng);
        let sys = system_from(&params);
        let mut sim = Simulator::new(&sys, AlwaysGrant);
        sim.run_until(300);
        for e in sim.trace().events() {
            if matches!(e.kind, mpcp_sim::EventKind::Released) {
                let t = sys.task(e.job.task);
                assert_eq!(e.time, t.release_of(e.job.instance));
            }
        }
    });
}

/// Determinism: the same system yields the identical event trace.
#[test]
fn engine_is_deterministic() {
    cases(48, 0x51_04, |rng| {
        let params = random_params(rng);
        let sys = system_from(&params);
        let mut a = Simulator::new(&sys, AlwaysGrant);
        a.run_until(300);
        let mut b = Simulator::new(&sys, AlwaysGrant);
        b.run_until(300);
        assert_eq!(a.trace().events(), b.trace().events());
        assert_eq!(a.records(), b.records());
    });
}

/// Metrics agree with the per-job records they summarize.
#[test]
fn metrics_match_records() {
    cases(48, 0x51_05, |rng| {
        let params = random_params(rng);
        let sys = system_from(&params);
        let mut sim = Simulator::new(&sys, AlwaysGrant);
        sim.run_until(600);
        let m = sim.metrics();
        for t in sys.tasks() {
            let recs: Vec<_> = sim
                .records()
                .iter()
                .filter(|r| r.id.task == t.id())
                .collect();
            let tm = m.task(t.id());
            assert_eq!(tm.completed as usize, recs.len());
            let max = recs.iter().map(|r| r.response).max().unwrap_or(Dur::ZERO);
            assert_eq!(tm.max_response, max);
        }
    });
}

/// The horizon is respected exactly: no event is recorded past it.
#[test]
fn horizon_is_a_hard_stop() {
    let sys = system_from(&[(7, 3, 0), (11, 2, 1)]);
    let mut sim = Simulator::with_config(&sys, AlwaysGrant, SimConfig::until(50));
    sim.run();
    assert!(sim.now() <= Time::new(50));
    for e in sim.trace().events() {
        assert!(e.time <= Time::new(50));
    }
}

/// An empty-body task completes instantly at its release.
#[test]
fn zero_wcet_jobs_complete_at_release() {
    let mut b = System::builder();
    let p = b.add_processor("P0");
    b.add_task(TaskDef::new("nop", p).period(10).body(Body::new()));
    let sys = b.build().unwrap();
    let mut sim = Simulator::new(&sys, AlwaysGrant);
    sim.run_until(35);
    assert_eq!(sim.records().len(), 4);
    for r in sim.records() {
        assert_eq!(r.response, Dur::ZERO);
    }
}

/// Seventy processors, each with the same high/low pair of tasks: every
/// processor — those past the 64th included — preempts at t=2 and
/// resumes at t=4, and the events come out in processor order. (Debug
/// builds also walk the job table's indices after every step.)
#[test]
fn a_machine_wider_than_a_word_reschedules_every_processor() {
    use mpcp_sim::EventKind;
    let mut b = System::builder();
    let procs = b.add_processors(70);
    for (i, &p) in procs.iter().enumerate() {
        b.add_task(
            TaskDef::new(format!("hi{i}"), p)
                .period(20)
                .offset(2)
                .priority(200 - i as u32)
                .body(Body::builder().compute(2).build()),
        );
        b.add_task(
            TaskDef::new(format!("lo{i}"), p)
                .period(20)
                .priority(100 - i as u32)
                .body(Body::builder().compute(6).build()),
        );
    }
    let sys = b.build().unwrap();
    let mut sim = Simulator::new(&sys, AlwaysGrant);
    sim.run_until(20);
    assert_eq!(sim.records().len(), 140);
    for r in sim.records() {
        let hi = r.id.task.index() % 2 == 0;
        assert_eq!(r.response, Dur::new(if hi { 2 } else { 8 }), "{}", r.id);
        assert_eq!(r.measured_blocking(), Dur::ZERO);
    }
    let preempted_on: Vec<usize> = sim
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Preempted { processor, .. } => {
                assert_eq!(e.time, Time::new(2));
                Some(processor.index())
            }
            _ => None,
        })
        .collect();
    assert_eq!(preempted_on, (0..70).collect::<Vec<_>>());
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

/// Everything a monitored, recorded run shows but its slices, as
/// comparable text; the slices; the instant it ended.
type Observed = (String, Vec<Slice>, Time);

fn observe(system: &System, kind: ProtocolKind, horizon: Time) -> Option<Observed> {
    let mut monitor = Monitor::new(system, kind.monitor_spec());
    let protocol: Box<dyn Protocol> = if kind == ProtocolKind::Dga {
        // Nested sections are outside DGA's model: no schedule, no run.
        let schedule = DgaSchedule::compute(system, horizon).ok()?;
        monitor.set_conformance(schedule.expected_grants());
        Box::new(DgaReplay::from_schedule(schedule))
    } else {
        kind.build()
    };
    let mut sim = Simulator::with_config(system, protocol, SimConfig::until(horizon.ticks()));
    sim.set_monitor(monitor);
    sim.run();
    let mon = sim.monitor().unwrap();
    let settled: Vec<_> = sim
        .records()
        .iter()
        .map(|r| mon.observed().map(|ob| ob.settled(r.id)))
        .collect();
    let shown = format!(
        "{:?}\n{:?}\n{:?}\n{:?} {settled:?}",
        sim.trace().events(),
        sim.records(),
        sim.metrics(),
        mon.error(),
    );
    Some((shown, sim.trace().slices().to_vec(), sim.now()))
}

/// Processors without a task are free, and cannot change a byte: the
/// same system on a machine 16 or 70 processors wider (past one machine
/// word) shows the same events, records, metrics and monitor verdict
/// under every protocol, the same slices on the processors that have
/// tasks, and on each added processor one idle slice from zero to the
/// end of the run.
#[test]
fn task_less_processors_change_nothing() {
    let base = |procs, tasks| {
        WorkloadConfig::default()
            .processors(procs)
            .tasks_per_processor(tasks)
            .resources(1, 2)
            .sections(0, 2)
    };
    let mut systems = Vec::new();
    for k in 0..3u64 {
        let util = 0.35 + 0.1 * k as f64;
        systems.push(generate(&base(4, 3).utilization(util), 7000 + k));
        let wide = base(8, 8).global_sections(2).periods(500, 5000);
        systems.push(generate(&wide.utilization(util), 7100 + k));
        let susp = base(3, 3).suspensions(0.4).nesting(0.3 * (k % 2) as f64);
        systems.push(generate(&susp.utilization(util), 7200 + k));
    }
    let mut compared = 0;
    for system in &systems {
        let m = system.processors().len();
        let horizon = horizon_capped(system, 6_000);
        for kind in ProtocolKind::ALL {
            let narrow = observe(system, kind, horizon);
            for extra in [16, 70] {
                let wide = observe(&padded(system, extra), kind, horizon);
                let (Some((shown, slices, end)), Some((wide_shown, wide_slices, wide_end))) =
                    (&narrow, &wide)
                else {
                    assert!(narrow.is_none() && wide.is_none(), "{kind} +{extra}");
                    continue;
                };
                assert_eq!((wide_shown, wide_end), (shown, end), "{kind} +{extra}");
                let (busy, idle): (Vec<Slice>, Vec<Slice>) =
                    wide_slices.iter().partition(|s| s.processor.index() < m);
                assert_eq!(&busy, slices, "{kind} +{extra}");
                assert_eq!(idle.len(), extra, "{kind} +{extra}");
                for (p, s) in idle.iter().enumerate() {
                    assert_eq!((s.processor.index(), s.job), (m + p, None));
                    assert_eq!((s.start, s.start + s.dur), (Time::ZERO, *end));
                }
                compared += 1;
            }
        }
    }
    assert!(compared > 100, "only {compared} padded runs compared");
}
