//! Interval blocking accounting against the eager pass it replaced.
//!
//! The engine used to visit every job that did not hold a processor on
//! every step and add the step's `dt` to one of its three blocking
//! counters. It now settles a whole interval at once, just before
//! something on the job's processor changes
//! (`mpcp_sim::Jobs::touch`). The eager pass survives here, as the
//! reference: [`Shadow::advance`] is that pass, fed from the engine's
//! read-only view after every step, and after *every* step every live
//! job's counters — read the way `Simulator::metrics` reads them, open
//! interval included — must equal the shadow's, as must every
//! `JobRecord` when its job completes.
//!
//! CI runs this file in `--release` as well: `Time`/`Dur` arithmetic is
//! checked in both profiles, but only a release run shows that no
//! `debug_assert` is load-bearing.

use mpcp::dga::{horizon_capped, DgaReplay, DgaSchedule};
use mpcp::model::{Dur, JobId, System};
use mpcp::protocols::ProtocolKind;
use mpcp::sim::{ExecState, JobRecord, Protocol, SimConfig, Simulator};
use mpcp::taskgen::{generate, paper, WorkloadConfig};
use std::collections::HashMap;

/// `[blocked_local, blocked_global, lower_interference]`.
type Counters = [Dur; 3];

/// Which accrual rules a run exercised, so the test can insist that
/// every rule was compared somewhere.
#[derive(Default)]
struct Coverage {
    global_wait: u64,
    local_wait: u64,
    local_wait_under_higher_runner: u64,
    lower_interference: u64,
    spinning_runner: u64,
    sleeping: u64,
    migrated: u64,
    stopped_on_miss: u64,
    checks: u64,
}

#[derive(Default)]
struct Shadow {
    counters: HashMap<JobId, Counters>,
    records_seen: usize,
}

impl Shadow {
    /// The accounting of one `advance(dt)` as the engine did it before
    /// interval accounting: the runner pass (a spin-blocked runner burns
    /// its processor), then the pass over every job that does not hold
    /// its processor, with the predicate unchanged.
    fn advance<P: Protocol>(&mut self, sim: &Simulator<P>, dt: Dur, cov: &mut Coverage) {
        let jobs = sim.jobs();
        for job in jobs.iter() {
            let c = self.counters.entry(job.id).or_default();
            let runner = jobs.running_on(job.processor);
            if job.processor != job.home {
                cov.migrated += 1;
            }
            if runner == Some(job.id) {
                if let ExecState::Blocked { global, .. } = job.state {
                    assert!(job.spin, "non-spin blocked job was dispatched");
                    c[usize::from(global)] += dt;
                    cov.spinning_runner += 1;
                }
                continue;
            }
            let runner_base = runner.map(|id| jobs.expect(id).base_priority);
            match job.state {
                ExecState::Blocked { global: true, .. } => {
                    c[1] += dt;
                    cov.global_wait += 1;
                }
                ExecState::Blocked { global: false, .. } => {
                    if runner_base.is_some_and(|rb| rb > job.base_priority) {
                        cov.local_wait_under_higher_runner += 1;
                    } else {
                        c[0] += dt;
                        cov.local_wait += 1;
                    }
                }
                ExecState::Ready => {
                    if runner_base.is_some_and(|rb| rb < job.base_priority) {
                        c[2] += dt;
                        cov.lower_interference += 1;
                    }
                }
                ExecState::Sleeping { .. } => cov.sleeping += 1,
            }
        }
    }

    /// Every live job through the read path, every new record against
    /// the counters its job had accrued.
    fn compare<P: Protocol>(&mut self, sim: &Simulator<P>, what: &str, cov: &mut Coverage) {
        let now = sim.now();
        for job in sim.jobs().iter() {
            let want = self.counters.get(&job.id).copied().unwrap_or_default();
            let got = sim.jobs().blocking_at(job, now);
            assert_eq!(got, want, "{what}: {} in flight at {now}", job.id);
            cov.checks += 1;
        }
        for r in &sim.records()[self.records_seen..] {
            let want = self.counters.remove(&r.id).unwrap_or_default();
            let got = [r.blocked_local, r.blocked_global, r.lower_interference];
            assert_eq!(got, want, "{what}: record of {} at {now}", r.id);
            cov.checks += 1;
        }
        self.records_seen = sim.records().len();
    }
}

fn shadowed_run(
    what: &str,
    system: &System,
    protocol: Box<dyn Protocol>,
    config: SimConfig,
    cov: &mut Coverage,
) {
    let mut sim = Simulator::with_config(system, protocol, config);
    let mut shadow = Shadow::default();
    loop {
        let before = sim.now();
        let more = sim.step();
        // `step` advances the clock only when it returns `true`; the
        // states the eager pass read are the ones still in place.
        if sim.now() > before {
            shadow.advance(&sim, sim.now() - before, cov);
        }
        shadow.compare(&sim, what, cov);
        if !more {
            break;
        }
    }
    // Metrics fold the same read path over the in-flight jobs.
    let metrics = sim.metrics();
    for task in system.tasks() {
        let id = task.id();
        let in_flight = shadow.counters.iter().filter(|(j, _)| j.task == id);
        let done = sim.records().iter().filter(|r| r.id.task == id);
        let want = in_flight
            .map(|(_, c)| c[0] + c[1] + c[2])
            .chain(done.map(JobRecord::measured_blocking))
            .max()
            .unwrap_or(Dur::ZERO);
        assert_eq!(
            metrics.task(id).max_blocking,
            want,
            "{what}: metrics of {id}"
        );
    }
}

/// 70 systems of the default sweep family, 30 with suspensions (half of
/// them nested), 6 of the wide family and the paper's three examples.
fn systems() -> Vec<(String, System, u64)> {
    let util = |k: u64| 0.30 + 0.05 * (k % 10) as f64;
    let base = |procs, tasks| {
        WorkloadConfig::default()
            .processors(procs)
            .tasks_per_processor(tasks)
            .resources(1, 2)
            .sections(0, 2)
    };
    let mut out = Vec::new();
    for k in 0..70u64 {
        let cfg = base(4, 3).utilization(util(k));
        out.push((
            format!("4x3 seed={}", 9000 + k),
            generate(&cfg, 9000 + k),
            20_000,
        ));
    }
    for k in 0..30u64 {
        let cfg = base(3, 3)
            .suspensions(0.4)
            .nesting(if k % 2 == 0 { 0.3 } else { 0.0 })
            .utilization(util(k));
        out.push((
            format!("3x3-susp seed={}", 9100 + k),
            generate(&cfg, 9100 + k),
            20_000,
        ));
    }
    for k in 0..6u64 {
        let cfg = base(8, 8)
            .global_sections(2)
            .periods(500, 5000)
            .utilization(util(k));
        out.push((
            format!("8x8 seed={}", 9200 + k),
            generate(&cfg, 9200 + k),
            6_000,
        ));
    }
    out.push(("example1".into(), paper::example1(5).0, 2_000));
    out.push(("example2".into(), paper::example2(5).0, 2_000));
    out.push(("example3".into(), paper::example3().0, 2_000));
    out
}

#[test]
fn interval_accounting_equals_the_eager_pass_after_every_step() {
    let mut cov = Coverage::default();
    let systems = systems();
    assert!(systems.len() >= 100);
    for (label, system, cap) in &systems {
        let horizon = horizon_capped(system, *cap);
        let config = SimConfig {
            record_trace: false,
            ..SimConfig::until(horizon.ticks())
        };
        for kind in ProtocolKind::ALL {
            let protocol: Box<dyn Protocol> = if kind == ProtocolKind::Dga {
                match DgaSchedule::compute(system, horizon) {
                    Ok(schedule) => Box::new(DgaReplay::from_schedule(schedule)),
                    Err(_) => continue, // nested sections: outside DGA's model
                }
            } else {
                kind.build()
            };
            let what = format!("{label} {kind}");
            shadowed_run(&what, system, protocol, config.clone(), &mut cov);
        }
        // The early exit: no `advance` follows the instant of the miss.
        let stop = SimConfig {
            stop_on_miss: true,
            ..config
        };
        let mut sim = Simulator::with_config(system, ProtocolKind::Raw.build(), stop.clone());
        sim.run();
        cov.stopped_on_miss += u64::from(sim.misses() > 0 && sim.now() < horizon);
        let what = format!("{label} raw+stop-on-miss");
        shadowed_run(&what, system, ProtocolKind::Raw.build(), stop, &mut cov);
    }
    // Every rule of the predicate, DPCP's migrations, MSRP's spinning
    // runners, suspensions and the stop-on-miss exit were all compared.
    for (name, n) in [
        ("global waits", cov.global_wait),
        ("local waits", cov.local_wait),
        (
            "local waits under a higher runner",
            cov.local_wait_under_higher_runner,
        ),
        ("lower-priority interference", cov.lower_interference),
        ("spinning runners", cov.spinning_runner),
        ("sleeping jobs", cov.sleeping),
        ("migrated jobs", cov.migrated),
        ("runs stopped on a miss", cov.stopped_on_miss),
    ] {
        assert!(n > 0, "no {name} in the whole corpus");
    }
    assert!(cov.checks > 1_000_000, "only {} comparisons", cov.checks);
}

/// `metrics()` between two `step()`s shows in-flight jobs with their
/// open interval added — the values the eager engine showed. Pinned from
/// the parent commit: Example 3 under MPCP, stopped after 6 steps, has
/// completed nothing yet and four jobs in flight with waits behind them,
/// two of them still open.
#[test]
fn metrics_mid_run_include_the_open_interval() {
    let (system, _) = paper::example3();
    let mut sim =
        Simulator::with_config(&system, ProtocolKind::Mpcp.build(), SimConfig::until(400));
    for _ in 0..MID_RUN_STEPS {
        assert!(sim.step());
    }
    let m = sim.metrics();
    let got: Vec<[u64; 4]> = m
        .per_task()
        .iter()
        .map(|t| {
            [
                t.max_blocking.ticks(),
                t.max_blocked_local.ticks(),
                t.max_blocked_global.ticks(),
                t.max_lower_interference.ticks(),
            ]
        })
        .collect();
    assert_eq!(sim.now().ticks(), MID_RUN_NOW);
    assert_eq!(got, MID_RUN_METRICS);
    // The pin is worth something only if in-flight jobs carry it: the
    // completed jobs alone show less.
    let from_records = |task: usize| {
        sim.records()
            .iter()
            .filter(|r| r.id.task.index() == task)
            .map(|r| r.measured_blocking().ticks())
            .max()
            .unwrap_or(0)
    };
    assert!((0..got.len()).any(|t| got[t][0] > from_records(t)));
}

const MID_RUN_STEPS: usize = 6;
const MID_RUN_NOW: u64 = 6;
/// Per task `[max_blocking, local, global, lower_interference]`.
const MID_RUN_METRICS: [[u64; 4]; 7] = [
    [2, 0, 0, 2],
    [0, 0, 0, 0],
    [2, 0, 2, 0],
    [3, 0, 3, 0],
    [5, 0, 5, 0],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
];
