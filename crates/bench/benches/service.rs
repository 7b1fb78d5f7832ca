//! Incremental-vs-full admission benchmark for session transactions.
//! End-to-end serving numbers come from the `serve-*` workloads of the
//! benchmark in `benchmark/`.
//!
//! `service/incremental` measures the two admission paths a live
//! session's `add-task`/`remove-task` can take — a full
//! [`analyze`](mpcp_service::analyze) of the candidate vs the
//! dependency-aware [`analyze_incremental`](mpcp_service::analyze_incremental)
//! replay against the session's cached engine — at 8-, 32- and
//! 64-processor sessions, asserting the verdicts are identical before
//! timing them.
//!
//! Prints one JSON document; `BENCH_service.json` at the repo root is a
//! checked-in release-mode run of this binary.

use mpcp_analysis::Edit;
use mpcp_service::json::Value;
use mpcp_service::{analyze, analyze_incremental, engine_for, SystemSpec};
use mpcp_taskgen::{generate, WorkloadConfig};
use std::time::Instant;

/// Per-op microseconds of `f` over enough iterations to smooth noise.
fn time_us<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    // One warm-up call outside the clock.
    let _ = f();
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// A pure-compute task pinned to the first processor — the cheap common
/// session edit: no critical sections, so its dirty blast radius is one
/// processor, not the cluster.
fn local_task(name: &str) -> mpcp_service::TaskSpec {
    mpcp_service::TaskSpec {
        name: name.to_owned(),
        processor: 0,
        period: 10_000,
        deadline: None,
        offset: 0,
        priority: None,
        body: vec![mpcp_service::SegSpec::Compute(50)],
    }
}

/// Incremental-vs-full admission at one session size: a committed
/// session of `procs × 80 + 1` tasks, one `add-task` candidate and one
/// `remove-task` candidate (both local-only tasks, the realistic cheap
/// edit), verdict-checked against the full path before timing.
fn delta_phase(procs: usize, iters: u32) -> Value {
    let sys = generate(
        &WorkloadConfig::default()
            .processors(procs)
            .tasks_per_processor(80)
            .utilization(0.4)
            .resources(1, 3)
            .sections(1, 4)
            .global_access(0.7)
            .section_len(0.01, 0.05)
            .clusters(2),
        4_242,
    );
    let mut committed = SystemSpec::from_system(&sys);
    committed.tasks.push(local_task("incoming"));
    let engine = engine_for(&committed).expect("session engine builds");

    let added = local_task("incoming2");
    let mut add_candidate = committed.clone();
    add_candidate.tasks.push(added.clone());
    let add_edit = Edit::AddTask(added.name);

    let mut remove_candidate = committed.clone();
    let removed = remove_candidate.tasks.pop().expect("committed incoming");
    let remove_edit = Edit::RemoveTask(removed.name);

    let row = |label: &str, candidate: &SystemSpec, edit: &Edit| {
        let (delta, _) =
            analyze_incremental(&engine, candidate, edit).expect("incremental path applies");
        let full = analyze(candidate, None);
        assert_eq!(
            delta, full,
            "{label} at {procs} processors: incremental admission diverged from full"
        );
        let full_us = time_us(iters, || analyze(candidate, None));
        let delta_us = time_us(iters, || analyze_incremental(&engine, candidate, edit));
        Value::obj([
            ("full_us", Value::from(full_us)),
            ("delta_us", Value::from(delta_us)),
            ("speedup", Value::from(full_us / delta_us)),
        ])
    };

    let add = row("add-task", &add_candidate, &add_edit);
    let remove = row("remove-task", &remove_candidate, &remove_edit);
    Value::obj([
        ("processors", Value::from(procs)),
        ("tasks", Value::from(committed.tasks.len())),
        ("add", add),
        ("remove", remove),
    ])
}

fn main() {
    // Substring filter, as the other harness=false benches take
    // (cargo's own flags such as --bench are ignored).
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if filter.is_some_and(|f| !"service/incremental".contains(f.as_str())) {
        return;
    }
    let sessions: Vec<Value> = [(8usize, 40u32), (32, 25), (64, 10)]
        .into_iter()
        .map(|(procs, iters)| delta_phase(procs, iters))
        .collect();
    let doc = Value::obj([
        ("bench", Value::str("service/incremental")),
        (
            "config",
            Value::obj([
                ("tasks_per_processor", Value::from(80usize)),
                ("utilization", Value::from(0.4)),
                ("clusters", Value::from(2usize)),
                ("edit", Value::str("local-only task add/remove")),
                ("seed", Value::from(4_242usize)),
            ]),
        ),
        ("sessions", Value::Arr(sessions)),
    ]);
    println!("{}", doc.encode());
}
