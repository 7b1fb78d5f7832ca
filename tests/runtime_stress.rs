//! Threaded-runtime stress: the §5.4 implementation must uphold the
//! protocol invariants under real concurrency, across many random
//! systems and repeated runs (different interleavings each time). Every
//! threaded execution is judged by the simulator's monitor under MPCP's
//! check profile.

use mpcp::model::{Body, Dur, JobId, Priority, System, TaskDef};
use mpcp::protocols::{Mpcp, ProtocolKind};
use mpcp::runtime::{MpcpMutex, Runtime};
use mpcp::sim::{EventKind, Monitor, Simulator, Trace};
use mpcp::taskgen::{generate, WorkloadConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Judges `trace` under MPCP's monitor spec, panicking on any
/// violation; returns the number of completed jobs.
fn judge(system: &System, trace: &Trace) -> usize {
    let mut monitor = Monitor::new(system, ProtocolKind::Mpcp.monitor_spec());
    monitor.replay(trace);
    let violations: Vec<_> = monitor.violations().collect();
    assert!(
        violations.is_empty(),
        "{violations:?}\n{}",
        trace.event_log()
    );
    let completed = |e: &&mpcp::sim::TraceEvent| matches!(e.kind, EventKind::Completed { .. });
    trace.events().iter().filter(completed).count()
}

/// Shrinks a generated system's computation segments so threaded runs
/// finish quickly (1 tick = 1 checkpoint).
fn shrink(system: &System) -> System {
    mpcp::analysis::scale_system(system, 1, 50)
}

#[test]
fn random_systems_hold_invariants_under_threads() {
    for seed in 0..8u64 {
        let cfg = WorkloadConfig::default()
            .processors(3)
            .tasks_per_processor(2)
            .utilization(0.5)
            .resources(1, 2)
            .sections(1, 2)
            .section_len(0.05, 0.2);
        let sys = shrink(&generate(&cfg, seed));
        let trace = Runtime::new(&sys).run_all_once();
        assert_eq!(judge(&sys, &trace), sys.tasks().len(), "seed {seed}");
    }
}

#[test]
fn example3_runs_on_real_threads() {
    let (sys, _) = mpcp_bench::paper::example3();
    for _ in 0..5 {
        let trace = Runtime::new(&sys).run_all_once();
        assert_eq!(judge(&sys, &trace), 7);
    }
}

/// The standalone lock under heavy mixed-priority contention: counts
/// must balance and the data must never tear.
#[test]
fn mpcp_mutex_heavy_contention() {
    let lock = Arc::new(MpcpMutex::new((0u64, 0u64)));
    let acquisitions = Arc::new(AtomicU64::new(0));
    let threads = 8u32;
    let iters = 300u64;
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let lock = Arc::clone(&lock);
            let acquisitions = Arc::clone(&acquisitions);
            std::thread::spawn(move || {
                for k in 0..iters {
                    let mut g = lock.lock(Priority::task(i % 4));
                    // Write two fields non-atomically; a mutual-exclusion
                    // bug shows up as a torn pair.
                    g.0 += 1;
                    g.1 += 1;
                    assert_eq!(g.0, g.1, "torn critical section");
                    acquisitions.fetch_add(1, Ordering::Relaxed);
                    if k % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let final_ = *lock.lock(Priority::task(0));
    assert_eq!(final_.0, u64::from(threads) * iters);
    assert_eq!(acquisitions.load(Ordering::Relaxed), final_.0);
}

/// A single-processor runtime serializes everything in priority order at
/// the first checkpoint: the highest-priority job finishes first.
///
/// More: on one processor, with no suspension and every job released
/// together, only the dispatch winner's thread makes a call, so the
/// threaded run is deterministic — and it takes the simulator's lock
/// decisions on the local semaphores, in the simulator's order. (Under
/// those conditions no job is preempted inside a section, so none
/// blocks: PCP blocking and retries need a later arrival or a
/// suspension. `crates/sim/tests/host.rs` drives that path through the
/// same host by hand.)
#[test]
fn uniprocessor_runtime_respects_priority() {
    let mut b = System::builder();
    let p = b.add_processor("P0");
    for i in 0..3u32 {
        b.add_task(
            TaskDef::new(format!("t{i}"), p)
                .period(1_000)
                .priority(i + 1)
                .body(Body::builder().compute(5).build()),
        );
    }
    let sys = b.build().unwrap();
    let trace = Runtime::new(&sys).run_all_once();
    assert_eq!(judge(&sys, &trace), 3);
    let first = trace.find(|e| matches!(e.kind, EventKind::Completed { .. }));
    // Highest priority completes first (all were released together).
    assert_eq!(first.map(|e| e.job.task), Some(sys.tasks()[2].id()));

    let mut grants = 0;
    for seed in 0..8u64 {
        let cfg = WorkloadConfig::default()
            .processors(1)
            .tasks_per_processor(4)
            .utilization(0.4)
            .periods(100, 200)
            .resources(2, 0)
            .sections(1, 3);
        let sys = generate(&cfg, seed);
        // Every first job completes before any second one is released.
        let shortest = sys.tasks().iter().map(|t| t.period().ticks()).min();
        let mut sim = Simulator::new(&sys, Mpcp::new());
        sim.run_until(shortest.unwrap() - 1);
        assert_eq!(sim.records().len(), sys.tasks().len(), "seed {seed}");
        let threaded = Runtime::new(&sys).run_all_once();
        assert_eq!(judge(&sys, &threaded), sys.tasks().len(), "seed {seed}");
        let expected = lock_sequence(sim.trace());
        assert_eq!(lock_sequence(&threaded), expected, "seed {seed}");
        let granted = |(_, k): &&(JobId, EventKind)| matches!(k, EventKind::LockGranted { .. });
        grants += expected.iter().filter(granted).count();
    }
    assert!(grants > 0, "no local semaphore exercised");
}

/// `trace`'s semaphore decisions and completions as `(job, kind)`, times
/// (and with them response times) stripped.
fn lock_sequence(trace: &Trace) -> Vec<(JobId, EventKind)> {
    let decision = |kind| match kind {
        EventKind::Completed { .. } => Some(EventKind::Completed {
            response: Dur::ZERO,
        }),
        EventKind::LockGranted { .. }
        | EventKind::LockBlocked { .. }
        | EventKind::Woken
        | EventKind::HandedOff { .. }
        | EventKind::Unlocked { .. } => Some(kind),
        _ => None,
    };
    let events = trace.events().iter();
    events
        .filter_map(|e| Some((e.job, decision(e.kind)?)))
        .collect()
}

/// Repeated executions multiply contention interleavings; invariants
/// must survive them all.
#[test]
fn repeated_jobs_hold_invariants() {
    let (sys, _) = mpcp_bench::paper::example3();
    let trace = Runtime::new(&sys).run_all_repeated(5);
    assert_eq!(judge(&sys, &trace), 5 * sys.tasks().len());
}
