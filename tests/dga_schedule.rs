//! Tier-1 coverage of the dependency-graph scheduler: the offline
//! schedule of a benchmark-sized system replays exactly, and the list
//! scheduler's tie-break order is pinned by a golden chain independent
//! of the sweep's report hash.

use mpcp::dga::{default_horizon, DgaReplay, DgaSchedule};
use mpcp::model::{Body, System, TaskDef, Time};
use mpcp::sim::{Monitor, MonitorSpec, SimConfig, Simulator};
use mpcp::taskgen::{generate, WorkloadConfig};

/// Construct, replay, conform, compare bounds, on an 8 processors x 8
/// tasks system with two forced global sections per job (the
/// benchmark's `sweep-wide` family, about 2 000 sections).
#[test]
fn wide_system_replays_its_offline_schedule_exactly() {
    let cfg = WorkloadConfig::default()
        .processors(8)
        .tasks_per_processor(8)
        .resources(1, 2)
        .sections(0, 2)
        .global_sections(2)
        .periods(500, 5000)
        .utilization(0.5);
    let sys = generate(&cfg, 1000);
    let horizon = default_horizon(&sys);
    let schedule = DgaSchedule::compute(&sys, horizon).unwrap();
    assert!(
        schedule.sections() > 1000,
        "{} sections",
        schedule.sections()
    );

    let mut sim = Simulator::with_config(
        &sys,
        DgaReplay::from_schedule(schedule.clone()),
        SimConfig {
            record_trace: false,
            ..SimConfig::until(horizon.ticks())
        },
    );
    let mut monitor = Monitor::new(&sys, MonitorSpec::default());
    monitor.set_conformance(schedule.expected_grants());
    sim.set_monitor(monitor);
    sim.run();
    let monitor = sim.monitor().unwrap();
    assert!(monitor.is_clean(), "replay diverged: {:?}", monitor.error());

    assert_eq!(schedule.accepted, sim.misses() == 0);
    let metrics = sim.metrics();
    for (m, b) in metrics.per_task().iter().zip(&schedule.bounds) {
        assert_eq!(m.task, b.task);
        assert_eq!(m.completed, b.completed, "{}", m.task);
        assert_eq!(m.misses, b.misses, "{}", m.task);
        assert_eq!((m.completed > 0).then_some(m.max_response), b.wcr);
    }
}

/// Three tasks on two processors whose sections tie: `a` and `b` both
/// want S0 at t=1 for 2 ticks (task index decides), and later sections
/// become selectable only behind their job's earlier ones.
fn tie_heavy() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resources(2);
    b.add_task(
        TaskDef::new("a", p[0]).period(20).priority(3).body(
            Body::builder()
                .compute(1)
                .critical(s[0], |c| c.compute(2))
                .compute(1)
                .critical(s[1], |c| c.compute(2))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("b", p[1]).period(20).priority(2).body(
            Body::builder()
                .compute(1)
                .critical(s[0], |c| c.compute(2))
                .critical(s[1], |c| c.compute(2))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("c", p[1]).period(40).priority(1).body(
            Body::builder()
                .critical(s[1], |c| c.compute(3))
                .compute(2)
                .critical(s[0], |c| c.compute(2))
                .build(),
        ),
    );
    b.build().unwrap()
}

/// The chains of [`tie_heavy`] over one hyperperiod, as
/// `(task, instance, start, end)` per resource — recorded from the
/// quadratic scheduler this repository shipped before the heap.
const GOLDEN_CHAINS: [&[(&str, u32, u64, u64)]; 2] = [
    &[
        ("a", 0, 1, 3),
        ("b", 0, 3, 5),
        ("c", 0, 10, 12),
        ("a", 1, 21, 23),
        ("b", 1, 23, 25),
    ],
    &[
        ("c", 0, 1, 6),
        ("b", 0, 6, 8),
        ("a", 0, 8, 10),
        ("b", 1, 25, 27),
        ("a", 1, 27, 29),
    ],
];

#[test]
fn tie_heavy_chains_match_golden() {
    let sys = tie_heavy();
    let schedule = DgaSchedule::compute(&sys, Time::new(40)).unwrap();
    let chains: Vec<Vec<(&str, u32, u64, u64)>> = schedule
        .chains
        .iter()
        .map(|chain| {
            chain
                .iter()
                .map(|e| {
                    (
                        sys.task(e.job.task).name(),
                        e.job.instance,
                        e.start.expect("within the horizon").ticks(),
                        e.end.expect("within the horizon").ticks(),
                    )
                })
                .collect()
        })
        .collect();
    assert_eq!(chains, GOLDEN_CHAINS);
    assert!(schedule.accepted);
}
