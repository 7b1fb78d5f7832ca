//! Simulator inner-loop microbenchmark: the engine step loop on a fixed
//! 4 procs × 3 tasks/processor scenario (the sweep's workload shape),
//! with trace recording off so the numbers isolate the hot path the
//! sweep pays per protocol simulation.
//!
//! Prints one JSON document; `BENCH_sim.json` at the repo root is a
//! checked-in release-mode run of this binary (with the pre-rewrite
//! numbers preserved under `baseline`).
//!
//! A second document, `sim/m_ladder` (run it alone with
//! `cargo bench -p mpcp-bench --bench sim_micro -- m_ladder`), asks what
//! a step costs as the machine widens: monitored MPCP over 40 seeded
//! systems of 3 tasks per processor on 1, 2, 4, 8 and 16 processors, the
//! 8×8 sweep family, and the 4×3 and 8×8 systems again with sixteen
//! processors added that have no task at all — same events, same steps,
//! same records, so whatever they cost is cost per processor, not per
//! event (EXPERIMENTS.md E24).

use mpcp_model::System;
use mpcp_protocols::ProtocolKind;
use mpcp_service::json::Value;
use mpcp_sim::{Monitor, SimConfig, Simulator};
use mpcp_taskgen::{generate, WorkloadConfig};
use std::hint::black_box;
use std::time::Instant;

const HORIZON: u64 = 20_000;

fn workload() -> WorkloadConfig {
    WorkloadConfig::default()
        .processors(4)
        .tasks_per_processor(3)
        .utilization(0.5)
        .resources(1, 2)
        .sections(0, 2)
}

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let wanted = |name: &str| filter.as_ref().is_none_or(|f| name.contains(f.as_str()));
    if wanted("sim/step_loop") {
        step_loop();
    }
    if wanted("sim/m_ladder") {
        m_ladder();
    }
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
    b.build().expect("padding adds no task")
}

fn m_ladder() {
    const SYSTEMS: u64 = 40;
    const MIN_PASSES: u64 = 5;
    let family = |procs: usize, tasks: usize, wide: bool| -> Vec<System> {
        (0..SYSTEMS)
            .map(|k| {
                let mut cfg = WorkloadConfig::default()
                    .processors(procs)
                    .tasks_per_processor(tasks)
                    .resources(1, 2)
                    .sections(0, 2)
                    .utilization(0.30 + 0.05 * (k % 10) as f64);
                if wide {
                    cfg = cfg.global_sections(2).periods(500, 5000);
                }
                generate(&cfg, 3000 + k)
            })
            .collect()
    };
    let pad = |systems: &[System]| systems.iter().map(|s| padded(s, 16)).collect();
    let mut rows: Vec<(String, Vec<System>)> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&m| (format!("{m}x3"), family(m, 3, false)))
        .collect();
    let wide = family(8, 8, true);
    rows.push(("4x3+16 idle".into(), pad(&family(4, 3, false))));
    rows.push(("8x8+16 idle".into(), pad(&wide)));
    rows.insert(6, ("8x8".into(), wide));

    let kind = ProtocolKind::Mpcp;
    let config = SimConfig {
        record_trace: false,
        ..SimConfig::until(HORIZON)
    };
    let mut points = Vec::new();
    for (label, systems) in &rows {
        let mut sim = Simulator::with_config(&systems[0], kind.build(), config.clone());
        // One pass over the systems: (steps, completed jobs, ns inside
        // the step loops — resetting the simulator and building the
        // monitor are per run, not per step, and stay outside).
        let pass = |sim: &mut Simulator<_>| {
            let (mut steps, mut jobs, mut ns) = (0u64, 0u64, 0u64);
            for system in systems {
                sim.reset(system, kind.build(), config.clone());
                sim.set_monitor(Monitor::new(system, kind.monitor_spec()));
                let start = Instant::now();
                steps += 1;
                while sim.step() {
                    steps += 1;
                }
                ns += start.elapsed().as_nanos() as u64;
                jobs += sim.records().len() as u64;
                black_box(sim.monitor().is_some_and(Monitor::is_clean));
            }
            (steps, jobs, ns)
        };
        // Warm-up, which also sizes the sample: the median pass of as
        // many as fit in ~0.3 s (a pass over the narrow machines takes
        // 2 ms, too short to stand alone on a shared host).
        let (steps, jobs, warm_ns) = pass(&mut sim);
        let passes = (300_000_000 / warm_ns.max(1)).clamp(MIN_PASSES, 101) as usize | 1;
        let mut timed: Vec<u64> = (0..passes)
            .map(|_| {
                let (s, j, ns) = black_box(pass(&mut sim));
                assert_eq!((s, j), (steps, jobs));
                ns
            })
            .collect();
        timed.sort_unstable();
        let ns = timed[passes / 2];
        points.push(Value::obj([
            ("machine", Value::str(label)),
            ("steps", Value::from(steps)),
            ("completed_jobs", Value::from(jobs)),
            ("ns_per_step", Value::from(ns / steps.max(1))),
            ("ns_per_job", Value::from(ns / jobs.max(1))),
        ]));
    }
    let doc = Value::obj([
        ("bench", Value::str("sim/m_ladder")),
        (
            "config",
            Value::obj([
                ("protocol", Value::str(kind.name())),
                ("monitored", Value::Bool(true)),
                ("systems", Value::from(SYSTEMS)),
                ("sample", Value::str("median pass of ~0.3 s, at least 5")),
                ("horizon", Value::from(HORIZON)),
                ("record_trace", Value::Bool(false)),
            ]),
        ),
        ("points", Value::Arr(points)),
    ]);
    println!("{}", doc.encode());
}

fn step_loop() {
    let sys = generate(&workload(), 42);
    let mut points = Vec::new();
    for kind in [ProtocolKind::Mpcp, ProtocolKind::Dpcp, ProtocolKind::Raw] {
        let run_once = || {
            let mut sim = Simulator::with_config(
                &sys,
                kind.build(),
                SimConfig {
                    record_trace: false,
                    ..SimConfig::until(HORIZON)
                },
            );
            let mut instants = 0u64;
            while sim.step() {
                instants += 1;
            }
            black_box(sim.records().len());
            (instants, sim.records().len() as u64)
        };

        // Warm up, then calibrate the repetition count for ~300 ms.
        let (instants, completed) = run_once();
        let start = Instant::now();
        run_once();
        let once = start.elapsed().as_nanos().max(1);
        let reps = (300_000_000 / once).clamp(1, 1 << 20) as u64;
        let start = Instant::now();
        for _ in 0..reps {
            black_box(run_once());
        }
        let ns_per_sim = start.elapsed().as_nanos() as u64 / reps;
        points.push(Value::obj([
            ("protocol", Value::str(kind.name())),
            ("instants", Value::from(instants)),
            ("completed_jobs", Value::from(completed)),
            ("ns_per_sim", Value::from(ns_per_sim)),
            ("ns_per_instant", Value::from(ns_per_sim / instants.max(1))),
        ]));
    }

    let doc = Value::obj([
        ("bench", Value::str("sim/step_loop")),
        (
            "config",
            Value::obj([
                (
                    "workload",
                    Value::str("4 procs x 3 tasks, util 0.50, seed 42"),
                ),
                ("horizon", Value::from(HORIZON)),
                ("record_trace", Value::Bool(false)),
            ]),
        ),
        ("points", Value::Arr(points)),
    ]);
    println!("{}", doc.encode());
}
