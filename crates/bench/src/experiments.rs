//! The per-experiment harness: one function per table/figure of the
//! paper (see DESIGN.md's experiment index), reached through
//! [`by_name`]. Each returns a printable report; the experiments and
//! structured helpers the integration tests call are public too.

use crate::paper;
use mpcp_analysis::{self as analysis, Analysis, BlockingConfig, BoundSet};
use mpcp_model::{Dur, JobId, Machine, Priority, ProcessorId, System, Task, TaskDef, TaskId, Time};
use mpcp_protocols::ProtocolKind;
use mpcp_sim::{Band, SimConfig, Simulator, Slice};
use mpcp_taskgen::{generate, WorkloadConfig};
use std::cmp::Reverse;
use std::fmt::Write as _;

/// Sum over tasks of the blocking bound, in ticks.
fn total_blocking(set: &BoundSet) -> u64 {
    set.per_task().iter().map(|t| t.blocking.ticks()).sum()
}

/// Runs `system` under `kind` until `horizon` and returns the maximum
/// measured blocking of `task` over completed and in-flight jobs.
pub fn measured_blocking(system: &System, kind: ProtocolKind, horizon: u64, task: TaskId) -> Dur {
    let mut sim = Simulator::new(system, kind.build());
    sim.run_until(horizon);
    sim.metrics().task(task).max_blocking
}

/// E1 (Figure 3-1 / Example 1): remote blocking of `tau1` as the medium
/// task's execution time grows, per protocol. Under raw semaphores the
/// blocking tracks `C2`; under inheritance or MPCP it stays one critical
/// section.
pub fn e1_remote_blocking() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E1 — Example 1 / Figure 3-1: remote blocking of tau1 vs C2 (medium task)"
    );
    let _ = writeln!(out, "{:>6} {:>8} {:>8} {:>8}", "C2", "raw", "pip", "mpcp");
    for c2 in [5u64, 10, 20, 40] {
        let (sys, ex) = paper::example1(c2);
        let row: Vec<u64> = [ProtocolKind::Raw, ProtocolKind::Pip, ProtocolKind::Mpcp]
            .iter()
            .map(|k| measured_blocking(&sys, *k, 500, ex.tau1).ticks())
            .collect();
        let _ = writeln!(out, "{:>6} {:>8} {:>8} {:>8}", c2, row[0], row[1], row[2]);
    }
    let _ = writeln!(
        out,
        "shape: raw grows with C2 (unbounded inversion); pip and mpcp are constant."
    );
    out
}

/// E2 (Figure 3-2 / Example 2): remote blocking of `tau3` as the *high*
/// task's execution time grows. Inheritance (and direct PCP) cannot help
/// because the preemptor outranks the inherited priority; only the gcs
/// boost (Theorem 2) bounds it.
pub fn e2_pip_insufficiency() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E2 — Example 2 / Figure 3-2: remote blocking of tau3 vs C1 (high task)"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>8}",
        "C1", "pip", "direct-pcp", "mpcp"
    );
    for c1 in [5u64, 10, 20, 40] {
        let (sys, ex) = paper::example2(c1);
        let row: Vec<u64> = [
            ProtocolKind::Pip,
            ProtocolKind::DirectPcp,
            ProtocolKind::Mpcp,
        ]
        .iter()
        .map(|k| measured_blocking(&sys, *k, 500, ex.tau3).ticks())
        .collect();
        let _ = writeln!(out, "{:>6} {:>10} {:>10} {:>8}", c1, row[0], row[1], row[2]);
    }
    let _ = writeln!(
        out,
        "shape: pip/direct-pcp grow with C1; mpcp stays one critical section."
    );
    out
}

/// E3 (Table 4-1): priority ceilings of the Example 3 semaphores.
pub fn e3_ceiling_table() -> String {
    let (sys, _) = paper::example3();
    format!(
        "E3 — Table 4-1: priority ceilings (Example 3)\n{}",
        analysis::report::ceiling_table(&sys)
    )
}

/// E4 (Table 4-2): gcs execution priorities of the Example 3 tasks.
pub fn e4_gcs_priority_table() -> String {
    let (sys, _) = paper::example3();
    format!(
        "E4 — Table 4-2: gcs execution priorities (Example 3)\n{}",
        analysis::report::gcs_priority_table(&sys)
    )
}

/// Runs the Example 4 schedule and returns the simulator for inspection.
fn example4_simulation() -> Simulator<Box<dyn mpcp_sim::Protocol>> {
    let (sys, _) = paper::example3();
    let mut sim = Simulator::new(&sys, ProtocolKind::Mpcp.build());
    sim.run_until(20);
    sim
}

/// E5 (Figure 5-1 / Example 4): the event trace and Gantt chart of the
/// Example 3 system's first jobs under MPCP.
pub fn e5_example4_trace() -> String {
    let sim = example4_simulation();
    let mut out = String::new();
    let _ = writeln!(out, "E5 — Figure 5-1: Example 4 schedule under MPCP");
    let _ = writeln!(out, "\nper-processor view:");
    out.push_str(
        &sim.trace()
            .gantt(sim.system(), Time::ZERO, Time::new(20), 1),
    );
    let _ = writeln!(out, "\nper-job view (the paper's Figure 5-1 layout):");
    out.push_str(
        &sim.trace()
            .job_gantt(sim.system(), Time::ZERO, Time::new(20), 1),
    );
    let _ = writeln!(out, "\nevent log:");
    out.push_str(&sim.trace().event_log());
    out
}

/// E6 (Figure 4-1): the machine block diagram.
fn e6_machine_diagram() -> String {
    format!(
        "E6 — Figure 4-1: shared-memory multiprocessor configuration\n{}",
        Machine::new().with_shared_modules(2).diagram(3)
    )
}

/// Global fixed-priority scheduling of a resource-free `system` over
/// `[0, horizon)`, tick by tick: the `m` highest-priority ready jobs
/// (ties: earlier release, then lower id) hold the `m` processors; one
/// that keeps running keeps its processor, the others take the lowest
/// free ones. As in the engine, completing takes a processor: a job
/// preempted at the instant its work ends completes when it is next
/// dispatched. Returns the deadline misses (one per job still live at
/// its deadline) and one slice per busy processor per tick, in time
/// order.
pub fn global_fp(system: &System, horizon: u64) -> (u64, Vec<Slice>) {
    struct Job {
        id: JobId,
        priority: Priority,
        release: Time,
        deadline: Time,
        left: u64,
    }
    let resource_free = |t: &Task| t.body().resources_used().is_empty();
    assert!(system.tasks().iter().all(resource_free), "resource-free");
    let m = system.processors().len();
    let mut instance = vec![0u32; system.tasks().len()];
    let mut live: Vec<Job> = Vec::new();
    let mut on: Vec<Option<JobId>> = vec![None; m];
    let (mut misses, mut slices) = (0, Vec::new());
    for t in (0..horizon).map(Time::new) {
        for task in system.tasks() {
            let k = &mut instance[task.id().index()];
            if task.try_release_of(*k) == Some(t) {
                live.push(Job {
                    id: JobId::new(task.id(), *k),
                    priority: task.priority(),
                    release: t,
                    deadline: t + task.deadline(),
                    left: task.wcet().ticks(),
                });
                *k += 1;
            }
        }
        live.sort_by_key(|j| (Reverse(j.priority), j.release, j.id));
        loop {
            let top = &live[..m.min(live.len())];
            for held in &mut on {
                *held = held.filter(|id| top.iter().any(|j| j.id == *id));
            }
            for job in top {
                if !on.contains(&Some(job.id)) {
                    let free = on.iter().position(Option::is_none);
                    on[free.expect("at most m jobs are chosen")] = Some(job.id);
                }
            }
            // One completion at a time, lowest processor first; then the
            // processors are handed out again.
            let done = |id: &JobId| live.iter().position(|j| j.id == *id && j.left == 0);
            match on.iter().flatten().find_map(done) {
                Some(at) => live.remove(at),
                None => break,
            };
        }
        misses += live.iter().filter(|j| j.deadline == t).count() as u64;
        for (p, id) in on.iter().enumerate() {
            let Some(job) = live.iter_mut().find(|j| Some(j.id) == *id) else {
                continue;
            };
            job.left -= 1;
            slices.push(Slice {
                processor: ProcessorId::from_index(p as u32),
                job: *id,
                start: t,
                dur: Dur::new(1),
                band: Band::Normal,
            });
        }
    }
    (misses, slices)
}

/// Dhall-effect data point for `m` processors: deadline misses under
/// global scheduling ([`global_fp`]) and under static binding (the
/// engine, heavy task on a processor of its own).
pub fn dhall_misses(m: usize) -> (u64, u64) {
    let (dynamic, _) = global_fp(&paper::dhall_system(m, false), 120);
    let sys = paper::dhall_system(m, true);
    let mut sim = Simulator::with_config(&sys, ProtocolKind::Raw.build(), SimConfig::until(120));
    sim.run();
    (dynamic, sim.misses())
}

/// E7 (§3.2): the Dhall effect — dynamic binding misses deadlines at low
/// utilization; static binding schedules the same set.
pub fn e7_dhall() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E7 — §3.2: Dhall effect, dynamic vs static binding");
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>14} {:>14}",
        "m", "utilization", "dynamic misses", "static misses"
    );
    for m in [2usize, 4, 8] {
        let sys = paper::dhall_system(m, false);
        let u = sys.total_utilization() / m as f64;
        let (dynamic, static_) = dhall_misses(m);
        let _ = writeln!(out, "{:>4} {:>12.3} {:>14} {:>14}", m, u, dynamic, static_);
    }
    let _ = writeln!(
        out,
        "shape: dynamic binding misses although per-processor utilization shrinks \
         with m; static binding never misses."
    );
    out
}

/// One bound-validation sample: worst observed blocking vs the §5.1
/// bound (sound carry-in variant), per task, on a random system.
pub fn validate_bounds_once(seed: u64) -> Vec<(TaskId, Dur, Dur)> {
    let config = WorkloadConfig::default()
        .processors(2)
        .tasks_per_processor(3)
        .utilization(0.35)
        .resources(1, 2)
        .sections(0, 2)
        .section_len(0.05, 0.15);
    let sys = generate(&config, seed);
    let bounds = Analysis::Mpcp
        .bounds(&sys, BlockingConfig::sound())
        .expect("valid system");
    let mut sim = Simulator::with_config(
        &sys,
        ProtocolKind::Mpcp.build(),
        SimConfig {
            record_trace: false,
            ..SimConfig::until(sys.hyperperiod().ticks().min(200_000))
        },
    );
    sim.run();
    let metrics = sim.metrics();
    sys.tasks()
        .iter()
        .map(|t| {
            (
                t.id(),
                metrics.task(t.id()).max_blocking,
                bounds.task(t.id()).blocking,
            )
        })
        .collect()
}

/// E8 (§5.1): the five blocking factors for the Example 3 system, plus a
/// simulation-vs-bound validation over random systems.
fn e8_blocking_factors() -> String {
    let (sys, _) = paper::example3();
    let bounds = Analysis::Mpcp
        .bounds(&sys, BlockingConfig::paper())
        .expect("example 3 satisfies the assumptions");
    let mut out = String::new();
    let _ = writeln!(out, "E8 — §5.1 blocking factors (Example 3 system)");
    out.push_str(&analysis::report::blocking_table(&sys, &bounds));
    let _ = writeln!(
        out,
        "\nsimulation vs bound on random systems (sound variant):"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>6}",
        "seed", "max meas", "max bound", "ok"
    );
    for seed in 0..10u64 {
        let rows = validate_bounds_once(seed);
        let meas = rows.iter().map(|r| r.1).max().unwrap_or(Dur::ZERO);
        let bound = rows.iter().map(|r| r.2).max().unwrap_or(Dur::ZERO);
        let ok = rows.iter().all(|r| r.1 <= r.2);
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>6}",
            seed,
            meas.ticks(),
            bound.ticks(),
            if ok { "yes" } else { "NO" }
        );
    }
    out
}

/// E9 (§5.2): MPCP vs DPCP blocking bounds while sweeping the fraction of
/// critical sections that touch global semaphores.
fn e9_mpcp_vs_dpcp() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E9 — §5.2: MPCP vs DPCP mean blocking bound (20 random systems per point)"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>12} {:>12}",
        "global frac", "mpcp B", "dpcp B", "mpcp sched%", "dpcp sched%"
    );
    for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut sum_m = 0u64;
        let mut sum_d = 0u64;
        let mut sched_m = 0u32;
        let mut sched_d = 0u32;
        let n = 20u64;
        for seed in 0..n {
            let cfg = WorkloadConfig::default()
                .processors(4)
                .tasks_per_processor(4)
                .utilization(0.3)
                .resources(1, 3)
                .sections(1, 2)
                .global_access(frac)
                .section_len(0.02, 0.08);
            let sys = generate(&cfg, 1_000 + seed);
            for (analysis, sum, sched) in [
                (Analysis::Mpcp, &mut sum_m, &mut sched_m),
                (Analysis::Dpcp, &mut sum_d, &mut sched_d),
            ] {
                let set = analysis
                    .bounds(&sys, BlockingConfig::paper())
                    .expect("valid");
                *sum += total_blocking(&set);
                *sched += u32::from(set.schedulable());
            }
        }
        let tasks = (n * 16) as f64;
        let _ = writeln!(
            out,
            "{:>12.1} {:>10.1} {:>10.1} {:>11.0}% {:>11.0}%",
            frac,
            sum_m as f64 / tasks,
            sum_d as f64 / tasks,
            100.0 * f64::from(sched_m) / n as f64,
            100.0 * f64::from(sched_d) / n as f64,
        );
    }
    let _ = writeln!(
        out,
        "shape: both bounds grow with global sharing; DPCP concentrates agent \
         interference on host processors while MPCP charges gcs preemptions \
         locally (§5.2's trade-off)."
    );
    out
}

/// Schedulable fraction under Theorem 3 at a given utilization, per
/// protocol bound (plus the no-blocking ideal), over `n` random systems.
pub fn sched_fraction(util: f64, n: u64) -> (f64, f64, f64) {
    let mut ok_ideal = 0u32;
    let mut ok_mpcp = 0u32;
    let mut ok_dpcp = 0u32;
    for seed in 0..n {
        let cfg = WorkloadConfig::default()
            .processors(4)
            .tasks_per_processor(4)
            .utilization(util)
            .resources(1, 2)
            .sections(0, 2)
            .section_len(0.02, 0.08);
        let sys = generate(&cfg, 77_000 + seed);
        let zero = vec![Dur::ZERO; sys.tasks().len()];
        if analysis::theorem3(&sys, &zero).schedulable() {
            ok_ideal += 1;
        }
        for (analysis, ok) in [
            (Analysis::Mpcp, &mut ok_mpcp),
            (Analysis::Dpcp, &mut ok_dpcp),
        ] {
            let accepted = analysis
                .bounds(&sys, BlockingConfig::paper())
                .is_ok_and(|set| set.schedulable());
            *ok += u32::from(accepted);
        }
    }
    (
        f64::from(ok_ideal) / n as f64,
        f64::from(ok_mpcp) / n as f64,
        f64::from(ok_dpcp) / n as f64,
    )
}

/// E10 (Theorem 3 / §5.3): schedulability curves vs utilization.
fn e10_schedulability_curves() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E10 — Theorem 3: schedulable fraction vs per-processor utilization \
         (50 systems per point)"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>10}",
        "U", "ideal", "mpcp", "dpcp"
    );
    for u in [0.2, 0.3, 0.4, 0.5, 0.6, 0.7] {
        let (ideal, mpcp, dpcp) = sched_fraction(u, 50);
        let _ = writeln!(
            out,
            "{:>6.1} {:>9.0}% {:>9.0}% {:>9.0}%",
            u,
            100.0 * ideal,
            100.0 * mpcp,
            100.0 * dpcp
        );
    }
    let _ = writeln!(
        out,
        "shape: blocking shifts the whole curve left of the no-blocking ideal; \
         the gap is the schedulability cost of synchronization."
    );
    out
}

/// Theorem 1 demo data: measured local blocking of a job suspending `n`
/// times vs the `(n+1) · max-lcs` bound.
pub fn theorem1_point(n: usize) -> (Dur, Dur) {
    let mut b = System::builder();
    let p = b.add_processor("P0");
    let s = b.add_resource("S");
    // High-priority job: n explicit suspensions; locks S between them.
    let mut body = mpcp_model::Body::builder().compute(1);
    for _ in 0..n {
        body = body.critical(s, |c| c.compute(1)).suspend(3);
    }
    body = body.critical(s, |c| c.compute(1));
    b.add_task(
        TaskDef::new("hi", p)
            .period(1_000)
            .priority(2)
            .offset(1)
            .body(body.build()),
    );
    // Low-priority job: a long stream of critical sections on S.
    let mut lo = mpcp_model::Body::builder();
    for _ in 0..40 {
        lo = lo.critical(s, |c| c.compute(4)).compute(1);
    }
    b.add_task(
        TaskDef::new("lo", p)
            .period(1_000)
            .priority(1)
            .body(lo.build()),
    );
    let sys = b.build().expect("valid");
    let hi = sys.tasks()[0].id();
    let measured = measured_blocking(&sys, ProtocolKind::Mpcp, 1_000, hi);
    // Theorem 1: n suspensions -> at most n+1 lower-priority critical
    // sections, each at most 4 ticks here.
    let bound = Dur::new(4) * (n as u64 + 1);
    (measured, bound)
}

/// E11 (Theorem 1): a job suspending `n` times is blocked by at most
/// `n+1` lower-priority critical sections.
fn e11_theorem1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E11 — Theorem 1: suspension-induced blocking on a uniprocessor"
    );
    let _ = writeln!(out, "{:>4} {:>10} {:>10}", "n", "measured", "bound");
    for n in 0..5usize {
        let (measured, bound) = theorem1_point(n);
        let _ = writeln!(
            out,
            "{:>4} {:>10} {:>10}",
            n,
            measured.ticks(),
            bound.ticks()
        );
    }
    let _ = writeln!(
        out,
        "shape: measured grows roughly one section per suspension, within the bound."
    );
    out
}

/// E12 (§5.1 nesting remark): blocking bounds after collapsing nested
/// global sections into group locks, for increasing nesting probability.
fn e12_nesting() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E12 — §5.1: nested gcs's via lock collapsing (mean total B over 20 systems)"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>8}",
        "nest prob", "flat B", "collapsed B", "groups"
    );
    for prob in [0.0, 0.3, 0.6, 1.0] {
        let mut flat_sum = 0u64;
        let mut coll_sum = 0u64;
        let mut group_count = 0usize;
        let mut flat_n = 0u64;
        let n = 20u64;
        for seed in 0..n {
            let cfg = WorkloadConfig::default()
                .processors(3)
                .tasks_per_processor(3)
                .utilization(0.3)
                .resources(0, 4)
                .sections(1, 2)
                .global_access(1.0)
                .nesting(prob);
            let sys = generate(&cfg, 5_000 + seed);
            if let Ok(set) = Analysis::Mpcp.bounds(&sys, BlockingConfig::paper()) {
                flat_sum += total_blocking(&set);
                flat_n += 1;
            }
            let (collapsed, groups) = analysis::collapse_nested_globals(&sys);
            let set = Analysis::Mpcp
                .bounds(&collapsed, BlockingConfig::paper())
                .expect("collapsed systems analyze");
            coll_sum += total_blocking(&set);
            group_count += groups.len();
        }
        let _ = writeln!(
            out,
            "{:>12.1} {:>10} {:>10.1} {:>8}",
            prob,
            if flat_n > 0 {
                format!("{:.1}", flat_sum as f64 / (flat_n * 9) as f64)
            } else {
                "n/a".to_owned()
            },
            coll_sum as f64 / (n * 9) as f64,
            group_count,
        );
    }
    let _ = writeln!(
        out,
        "shape: collapsing admits nested systems at the cost of coarser (larger) \
         per-section blocking, exactly the paper's trade-off."
    );
    out
}

/// E15 (§5.4 cost model): sensitivity of blocking and response times to
/// the hardware overheads of Figure 4-1 — semaphore operation cost and
/// backplane bus delay — on the Example 3 system.
fn e15_overhead_sensitivity() -> String {
    let (sys, _) = paper::example3();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E15 — §5.4: protocol overhead sensitivity (Example 3, first jobs)"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>10} {:>10} {:>8}",
        "P()/V()", "bus", "max resp", "max B", "misses"
    );
    for (op, bus) in [(0u64, 0u64), (1, 0), (1, 1), (2, 2), (4, 4)] {
        let machine = Machine::new()
            .with_lock_overhead(op)
            .with_unlock_overhead(op)
            .with_bus_delay(bus);
        let mut sim = Simulator::with_config(
            &sys,
            ProtocolKind::Mpcp.build(),
            SimConfig {
                machine,
                ..SimConfig::until(200)
            },
        );
        sim.run();
        let m = sim.metrics();
        let max_resp = m
            .per_task()
            .iter()
            .map(|t| t.max_response.ticks())
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>10} {:>10} {:>8}",
            op,
            bus,
            max_resp,
            m.max_blocking().ticks(),
            m.total_misses()
        );
    }
    let _ = writeln!(
        out,
        "shape: every semaphore operation stretches critical sections, so response \
         times and blocking grow with the per-operation cost — the overhead the \
         paper's shared-memory primitives minimize."
    );
    out
}

/// Builds the aperiodic-service scenario: a periodic MPCP load plus an
/// arrival-trace task at the given priority level serving requests of
/// `demand` ticks. Returns (system, aperiodic task id).
pub fn aperiodic_scenario(priority: u32, demand: u64, seed: u64) -> (System, TaskId) {
    let mut rng = mpcp_taskgen::Rng::new(seed);
    let arrivals = mpcp_taskgen::poisson_arrivals(&mut rng, 60.0, 4_000);
    let mut b = mpcp_model::System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("SG");
    b.add_task(
        TaskDef::new("periodic-hi", p[0])
            .period(40)
            .priority(10)
            .body(
                mpcp_model::Body::builder()
                    .compute(4)
                    .critical(s, |c| c.compute(2))
                    .build(),
            ),
    );
    b.add_task(
        TaskDef::new("periodic-lo", p[0])
            .period(100)
            .priority(5)
            .body(mpcp_model::Body::builder().compute(12).build()),
    );
    b.add_task(
        TaskDef::new("remote", p[1]).period(80).priority(7).body(
            mpcp_model::Body::builder()
                .compute(6)
                .critical(s, |c| c.compute(3))
                .build(),
        ),
    );
    let aper = b.add_task(
        TaskDef::new("aperiodic", p[0])
            .period(60) // minimum inter-arrival, for analysis
            .priority(priority)
            .arrivals(arrivals)
            .body(mpcp_model::Body::builder().compute(demand).build()),
    );
    (b.build().expect("valid"), aper)
}

/// E16 (§3.1): aperiodic service — background service vs interrupt-level
/// service in simulation, against the polling-server analytical bound.
pub fn e16_aperiodic_service() -> String {
    use mpcp_analysis::PollingServer;
    let demand = 3u64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E16 — §3.1: aperiodic service (Poisson arrivals, demand {demand} ticks)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>10}",
        "discipline", "mean resp", "max resp"
    );
    for (label, prio) in [("background (lowest)", 1u32), ("interrupt (highest)", 99)] {
        let (sys, aper) = aperiodic_scenario(prio, demand, 11);
        let mut sim = Simulator::with_config(
            &sys,
            ProtocolKind::Mpcp.build(),
            SimConfig {
                record_trace: false,
                ..SimConfig::until(5_000)
            },
        );
        sim.run();
        let m = sim.metrics();
        let t = m.task(aper);
        let _ = writeln!(
            out,
            "{:<22} {:>10.1} {:>10}",
            label,
            t.avg_response,
            t.max_response.ticks()
        );
    }
    // Polling-server analytical bound for a mid-priority server.
    let sp = PollingServer::new(demand, 30);
    let (sys, aper) = aperiodic_scenario(6, demand, 11);
    let blocking = Analysis::Mpcp
        .bounds(&sys, BlockingConfig::paper())
        .expect("valid")
        .blocking();
    if let Some(bound) =
        mpcp_analysis::aperiodic_response_bound(&sys, aper, sp, Dur::new(demand), &blocking)
    {
        let _ = writeln!(
            out,
            "{:<22} {:>10} {:>10}  (worst-case bound, budget {} / period {})",
            "polling server",
            "-",
            bound.ticks(),
            sp.budget,
            sp.period
        );
    }
    let _ = writeln!(
        out,
        "shape: background service is cheap but slow and jittery; interrupt-level \
         service is fast but steals bandwidth; the polling server gives a \
         guaranteed bound in between (the paper's [5])."
    );
    out
}

/// All experiments, concatenated.
pub fn all() -> String {
    [
        e1_remote_blocking(),
        e2_pip_insufficiency(),
        e3_ceiling_table(),
        e4_gcs_priority_table(),
        e5_example4_trace(),
        e6_machine_diagram(),
        e7_dhall(),
        e8_blocking_factors(),
        e9_mpcp_vs_dpcp(),
        e10_schedulability_curves(),
        e11_theorem1(),
        e12_nesting(),
        e15_overhead_sensitivity(),
        e16_aperiodic_service(),
    ]
    .join("\n")
}

/// The experiment ids accepted by [`by_name`].
pub const IDS: [&str; 14] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e15", "e16",
];

/// Runs one experiment by id (`"e1"`…`"e12"` or `"all"`).
pub fn by_name(id: &str) -> Option<String> {
    Some(match id {
        "e1" => e1_remote_blocking(),
        "e2" => e2_pip_insufficiency(),
        "e3" => e3_ceiling_table(),
        "e4" => e4_gcs_priority_table(),
        "e5" => e5_example4_trace(),
        "e6" => e6_machine_diagram(),
        "e7" => e7_dhall(),
        "e8" => e8_blocking_factors(),
        "e9" => e9_mpcp_vs_dpcp(),
        "e10" => e10_schedulability_curves(),
        "e11" => e11_theorem1(),
        "e12" => e12_nesting(),
        "e15" => e15_overhead_sensitivity(),
        "e16" => e16_aperiodic_service(),
        "all" => all(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_experiments_render() {
        for id in ["e3", "e4", "e6"] {
            let text = by_name(id).unwrap();
            assert!(!text.is_empty(), "{id}");
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn example4_schedule_completes_all_first_jobs() {
        let sim = example4_simulation();
        assert_eq!(sim.records().len(), 7);
        assert_eq!(sim.misses(), 0);
    }

    #[test]
    fn e1_shape_holds() {
        let (sys, ex) = paper::example1(40);
        let raw = measured_blocking(&sys, ProtocolKind::Raw, 500, ex.tau1);
        let mpcp = measured_blocking(&sys, ProtocolKind::Mpcp, 500, ex.tau1);
        assert!(raw.ticks() > 4 * mpcp.ticks(), "raw {raw} vs mpcp {mpcp}");
    }

    #[test]
    fn e2_shape_holds() {
        let (sys, ex) = paper::example2(40);
        let pip = measured_blocking(&sys, ProtocolKind::Pip, 500, ex.tau3);
        let mpcp = measured_blocking(&sys, ProtocolKind::Mpcp, 500, ex.tau3);
        assert!(pip.ticks() > 4 * mpcp.ticks(), "pip {pip} vs mpcp {mpcp}");
    }

    /// Global scheduling misses at every width, static binding at
    /// none, and the loop never runs more than `m` jobs in a tick: each
    /// on a processor of its own, no job on two.
    #[test]
    fn dhall_misses_are_pinned_and_a_tick_runs_at_most_m_jobs() {
        for m in [2usize, 4, 8] {
            assert_eq!(dhall_misses(m), (3, 0), "m={m}");
            let (_, slices) = global_fp(&paper::dhall_system(m, false), 120);
            for t in (0..120).map(Time::new) {
                let at_t = |s: &&Slice| s.start <= t && t < s.start + s.dur;
                let running: Vec<&Slice> = slices.iter().filter(at_t).collect();
                assert!(running.len() <= m, "m={m} t={t}: {running:?}");
                for (i, a) in running.iter().enumerate() {
                    assert!(a.processor.index() < m);
                    for b in &running[i + 1..] {
                        assert!(a.processor != b.processor && a.job != b.job, "t={t}");
                    }
                }
            }
        }
    }
}
