//! `mpcp` — command-line experiment runner for the MPCP reproduction.
//!
//! ```text
//! mpcp exp <e1..e16|all>          regenerate a paper table/figure
//! mpcp trace [--until T]          Example 4 schedule (Figure 5-1)
//! mpcp sim [opts]                 simulate a random system
//! mpcp dga [opts]                 offline dependency-graph schedule + bounds
//! mpcp analyze [opts]             blocking bounds + Theorem 3 tables
//! mpcp allocate [opts]            task allocation study
//! mpcp lint [opts] [--json]       static checks of a system configuration
//! mpcp verify [opts] [--json]     exhaustive small-scope model checking
//! mpcp serve [opts]               online admission-control server
//! mpcp loadgen [opts]             drive a server with a submission stream
//! mpcp sweep [opts]               differential analysis-vs-simulation sweep
//! mpcp shootout [opts]            acceptance curves for every protocol on one grid
//! ```

use mpcp_alloc::{allocate, Heuristic};
use mpcp_analysis::{self as analysis, Analysis, BlockingConfig};
use mpcp_dga::{DependencyGraph, DgaSchedule};
use mpcp_model::Time;
use mpcp_protocols::ProtocolKind;
use mpcp_service::{LoadgenConfig, ServerConfig};
use mpcp_sim::{SimConfig, Simulator};
use mpcp_taskgen::{generate, WorkloadConfig};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "exp" => {
            let Some(id) = args.get(1) else {
                eprintln!("usage: mpcp exp <e1..e16|all>");
                return ExitCode::FAILURE;
            };
            match mpcp_bench::experiments::by_name(id) {
                Some(report) => {
                    println!("{report}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!(
                        "unknown experiment {id:?}; known: {} or all",
                        mpcp_bench::experiments::IDS.join(", ")
                    );
                    ExitCode::FAILURE
                }
            }
        }
        "trace" => {
            let until = flag_u64(&flags, "until", 20);
            let (sys, _) = mpcp_bench::paper::example3();
            let mut sim = Simulator::new(&sys, ProtocolKind::Mpcp.build());
            sim.run_until(until);
            if flags.contains_key("csv") {
                print!("{}", mpcp_sim::export::events_csv(sim.trace()));
                print!("{}", mpcp_sim::export::slices_csv(sim.trace()));
                return ExitCode::SUCCESS;
            }
            println!(
                "{}",
                sim.trace().gantt(&sys, Time::ZERO, Time::new(until), 1)
            );
            println!(
                "{}",
                sim.trace().job_gantt(&sys, Time::ZERO, Time::new(until), 1)
            );
            println!("{}", sim.trace().event_log());
            println!("{}", sim.metrics());
            ExitCode::SUCCESS
        }
        "sim" => {
            let (sys, seed) = build_system(&flags);
            let kind = match flag_protocol(&flags) {
                Ok(kind) => kind.unwrap_or(ProtocolKind::Mpcp),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if kind == ProtocolKind::Dga
                && sys.tasks().iter().any(|t| t.body().has_nested_sections())
            {
                eprintln!("dga: not applicable: the system has nested critical sections");
                return ExitCode::FAILURE;
            }
            let until = flag_u64(&flags, "until", 100_000);
            let mut sim = Simulator::with_config(
                &sys,
                kind.build(),
                SimConfig {
                    record_trace: flags.contains_key("gantt"),
                    ..SimConfig::until(until)
                },
            );
            sim.run();
            println!(
                "protocol {kind}, seed {seed}, {} tasks on {} processors, until t={until}",
                sys.tasks().len(),
                sys.processors().len()
            );
            if flags.contains_key("gantt") {
                let window = flag_u64(&flags, "window", 200).min(until);
                println!(
                    "{}",
                    sim.trace().gantt(&sys, Time::ZERO, Time::new(window), 1)
                );
            }
            println!("{}", sim.metrics());
            ExitCode::SUCCESS
        }
        "dga" => {
            let (sys, seed) = build_system(&flags);
            let default_horizon = mpcp_dga::default_horizon(&sys).ticks();
            let horizon = Time::new(flag_u64(&flags, "horizon", default_horizon));
            run_dga(&sys, seed, horizon)
        }
        "analyze" => {
            let (sys, seed) = build_system(&flags);
            println!("seed {seed}");
            println!("{}", analysis::report::ceiling_table(&sys));
            println!("{}", analysis::report::gcs_priority_table(&sys));
            match Analysis::Mpcp.bounds(&sys, BlockingConfig::paper()) {
                Ok(mpcp) => {
                    println!("MPCP blocking bounds (§5.1):");
                    println!("{}", analysis::report::blocking_table(&sys, &mpcp));
                    println!("Theorem 3:");
                    println!("{}", analysis::report::sched_table(&sys, &mpcp));
                    let dpcp = Analysis::Dpcp
                        .bounds(&sys, BlockingConfig::paper())
                        .expect("same preconditions");
                    println!("DPCP blocking bounds (§5.2 comparison):");
                    println!("{}", analysis::report::blocking_table(&sys, &dpcp));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("analysis rejected the system: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "allocate" => {
            let (sys, seed) = build_system(&flags);
            let m = flag_u64(&flags, "procs", 4) as usize;
            println!(
                "seed {seed}: allocating {} tasks onto {m} processors",
                sys.tasks().len()
            );
            println!(
                "{:<10} {:>8} {:>12} {:>12}",
                "heuristic", "globals", "max util", "schedulable"
            );
            for h in Heuristic::ALL {
                match allocate(&sys, m, h) {
                    Ok(a) => {
                        let max_u = a
                            .per_processor_utilization
                            .iter()
                            .cloned()
                            .fold(0.0f64, f64::max);
                        println!(
                            "{:<10} {:>8} {:>12.3} {:>12}",
                            h.name(),
                            a.global_resources,
                            max_u,
                            if a.schedulable { "yes" } else { "no" }
                        );
                    }
                    Err(e) => println!("{:<10} failed: {e}", h.name()),
                }
            }
            ExitCode::SUCCESS
        }
        "lint" => {
            let (sys, label) = match lint_target(&flags) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = mpcp_verify::lint_system(&sys);
            eprintln!("linting {label}");
            if flags.contains_key("json") {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            if report.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "verify" => {
            let (sys, label) = match lint_target(&flags) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let config = mpcp_verify::CheckerConfig {
                horizon: flag_u64(&flags, "horizon", 0),
                max_offset: flag_u64(&flags, "max-offset", 2),
                offset_step: flag_u64(&flags, "step", 1),
                max_variants: flag_u64(&flags, "max-variants", 4096) as usize,
            };
            eprintln!("verifying {label}");
            let lint_report = mpcp_verify::lint_system(&sys);
            let explorations = match flag_protocol(&flags) {
                Ok(Some(kind)) => vec![mpcp_verify::checker::explore(&sys, kind, &config)],
                Ok(None) => mpcp_verify::checker::explore_all(&sys, &config),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut report = lint_report;
            for d in mpcp_verify::checker::report(&explorations).diagnostics() {
                report.push(d.clone());
            }
            if flags.contains_key("json") {
                print!("{}", report.render_json());
            } else {
                for ex in &explorations {
                    eprintln!(
                        "{:<16} {:>6} variants  {}",
                        ex.protocol,
                        ex.variants,
                        if ex.passed() { "ok" } else { "VIOLATED" }
                    );
                }
                print!("{}", report.render_human());
            }
            if report.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "serve" => {
            let config = ServerConfig {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| format!("127.0.0.1:{}", flag_u64(&flags, "port", 7171))),
                workers: flag_u64(&flags, "workers", ServerConfig::default().workers as u64)
                    as usize,
                queue_cap: flag_u64(&flags, "queue", 64) as usize,
                deadline: Duration::from_millis(flag_u64(&flags, "deadline-ms", 1000)),
                cache_capacity: flag_u64(&flags, "cache", 4096) as usize,
                incremental: !flags.contains_key("no-incremental"),
                audit_every: flag_u64(&flags, "audit-every", 64),
                shards: flag_u64(&flags, "shards", ServerConfig::default().shards as u64) as usize,
                max_pipeline: flag_u64(&flags, "max-pipeline", 128) as usize,
                read_deadline: Duration::from_millis(flag_u64(&flags, "read-deadline-ms", 30_000)),
                idle_timeout: Duration::from_millis(flag_u64(&flags, "idle-ms", 0)),
                persist_dir: flags.get("persist").map(std::path::PathBuf::from),
                snapshot_every: flag_u64(&flags, "snapshot-every", 4096),
            };
            match mpcp_service::spawn(&config) {
                Ok(handle) => {
                    // The smoke script and tests parse this exact line to
                    // learn the ephemeral port, so flush it eagerly.
                    println!("mpcp-service listening on {}", handle.local_addr());
                    let _ = std::io::stdout().flush();
                    handle.join();
                    println!("mpcp-service stopped");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("serve: cannot bind {}: {e}", config.addr);
                    ExitCode::FAILURE
                }
            }
        }
        "loadgen" => {
            let config = LoadgenConfig {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| format!("127.0.0.1:{}", flag_u64(&flags, "port", 7171))),
                requests: flag_u64(&flags, "requests", 200) as usize,
                connections: flag_u64(&flags, "connections", 4) as usize,
                rate: flag_u64(&flags, "rate", 0),
                unique: flag_u64(&flags, "unique", 8) as usize,
                workload: workload_config(&flags, 4),
                seed: flag_u64(&flags, "seed", 42),
                pipeline: flag_u64(&flags, "pipeline", 1) as usize,
                open: flags.contains_key("open"),
            };
            match mpcp_service::loadgen::run(&config) {
                Ok(report) => {
                    if flags.contains_key("json") {
                        println!("{}", report.render_json().encode());
                    } else {
                        print!("{}", report.render_text());
                    }
                    if report.errors > 0 {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("loadgen: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "sweep" => {
            let mut config = sweep_config(&flags, 1000);
            config.audit_stride =
                flag_u64(&flags, "audit-stride", config.audit_stride as u64) as usize;
            config.shrink = !flags.contains_key("no-shrink");
            config.check_response = flags.contains_key("check-response");
            match flag_protocol(&flags) {
                Ok(Some(kind)) => config.protocols = vec![kind],
                Ok(None) => {}
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            let report = mpcp_sweep::run(&config);
            if flags.contains_key("json") {
                println!("{}", report.to_json().encode());
            } else if flags.contains_key("csv") {
                print!("{}", report.csv());
            } else {
                print!("{}", report.render_text());
            }
            eprintln!("report hash: {:016x}", report.hash());
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("sweep: {} oracle violation(s)", report.violations.len());
                ExitCode::FAILURE
            }
        }
        "shootout" => {
            let report = mpcp_sweep::shootout(&sweep_config(&flags, 200));
            if flags.contains_key("json") {
                println!("{}", report.to_json().encode());
            } else if flags.contains_key("csv") {
                print!("{}", report.csv());
            } else {
                print!("{}", report.render_text());
            }
            eprintln!("report hash: {:016x}", report.hash());
            if report.violations_total() == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "shootout: {} oracle violation(s)",
                    report.violations_total()
                );
                ExitCode::FAILURE
            }
        }
        "audit" => {
            let (sys, label) = match lint_target(&flags) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let steps = flag_u64(&flags, "steps", sys.tasks().len() as u64) as usize;
            run_audit(&sys, &label, steps)
        }
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// `mpcp dga`: build the per-resource dependency graph for a generated
/// system, list-schedule its critical sections offline, and print the
/// graph, the per-resource grant chains with their recorded slots, and
/// the per-task response bounds the constructed schedule certifies.
fn run_dga(sys: &mpcp_model::System, seed: u64, horizon: Time) -> ExitCode {
    let graph = match DependencyGraph::build(sys, horizon) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("dga: {e}");
            return ExitCode::FAILURE;
        }
    };
    let schedule = DgaSchedule::from_graph(sys, &graph, horizon);
    println!(
        "seed {seed}: {} critical-section vertices over {} resource chain(s), horizon t={}",
        graph.vertices().len(),
        schedule.chains.iter().filter(|c| !c.is_empty()).count(),
        horizon.ticks()
    );
    println!("\ndependency graph (program order, earliest-start estimates):");
    println!(
        "{:<12} {:>4} {:<8} {:>8} {:>6}",
        "job", "sec", "resource", "est", "len"
    );
    for v in graph.vertices() {
        println!(
            "{:<12} {:>4} {:<8} {:>8} {:>6}",
            format!("{}.{}", sys.task(v.job.task).name(), v.job.instance),
            v.sec_idx,
            sys.resource(v.resource).name(),
            v.est.ticks(),
            v.duration.ticks()
        );
    }
    println!("\nschedule (per-resource grant chains, recorded slots):");
    for (r, chain) in schedule.chains.iter().enumerate() {
        if chain.is_empty() {
            continue;
        }
        println!("  {}:", sys.resources()[r].name());
        for entry in chain {
            let slot =
                |t: Option<Time>| t.map_or_else(|| "-".to_owned(), |t| t.ticks().to_string());
            println!(
                "    {:<12} [{:>6}, {:>6})",
                format!("{}.{}", sys.task(entry.job.task).name(), entry.job.instance),
                slot(entry.start),
                slot(entry.end)
            );
        }
    }
    println!("\nper-task bounds (from schedule replay over the horizon):");
    println!(
        "{:<10} {:>10} {:>10} {:>8}",
        "task", "wcr", "completed", "misses"
    );
    for b in &schedule.bounds {
        println!(
            "{:<10} {:>10} {:>10} {:>8}",
            sys.task(b.task).name(),
            b.wcr
                .map_or_else(|| "-".to_owned(), |d| d.ticks().to_string()),
            b.completed,
            b.misses
        );
    }
    println!(
        "\nmakespan: {}   verdict: {}",
        schedule
            .makespan
            .map_or_else(|| "-".to_owned(), |t| t.ticks().to_string()),
        if schedule.accepted {
            "ACCEPTED (no deadline misses under the offline schedule)"
        } else {
            "REJECTED (offline schedule misses a deadline)"
        }
    );
    if schedule.accepted {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `mpcp audit`: drive the incremental analysis engine through the
/// deterministic edit script of [`mpcp_verify::audit_script`] and
/// byte-compare its snapshot against an independent full recompute after
/// every step. Any divergence is a hard failure.
fn run_audit(sys: &mpcp_model::System, label: &str, steps: usize) -> ExitCode {
    use mpcp_verify::{full_snapshot_json, IncrementalAnalysis};
    use std::time::Instant;

    let mut engine = match IncrementalAnalysis::new(sys.clone()) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("audit: cannot build incremental engine: {e}");
            return ExitCode::FAILURE;
        }
    };
    let script = match mpcp_verify::audit_script(sys, steps) {
        Ok(script) => script,
        Err(e) => {
            eprintln!("audit: cannot build the edit script: {e}");
            return ExitCode::FAILURE;
        }
    };
    let edits = script.len();
    eprintln!(
        "auditing {label}: {} tasks, {edits} edit(s)",
        sys.tasks().len()
    );

    let mut incremental_ns = 0u128;
    let mut full_ns = 0u128;
    let mut divergences = 0usize;
    for (edit, next) in script {
        let t0 = Instant::now();
        engine.apply(next, &edit);
        let got = engine.snapshot_json();
        incremental_ns += t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let want = full_snapshot_json(engine.system());
        full_ns += t1.elapsed().as_nanos();
        if got != want {
            divergences += 1;
            eprintln!("audit: DIVERGENCE after {edit}");
            match got
                .lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
            {
                Some((n, (a, b))) => {
                    eprintln!("  line {}: incremental: {a}", n + 1);
                    eprintln!("  line {}: full:        {b}", n + 1);
                }
                None => eprintln!("  (snapshots differ in length only)"),
            }
        }
    }

    let stats = engine.stats();
    println!(
        "audit {label}: {edits} edits, {divergences} divergence(s)\n\
         incremental: {:>10.1} µs total   full recompute: {:>10.1} µs total ({:.1}x)\n\
         reuse: {} lint units, {} task bounds, {} theorem-3 processors",
        incremental_ns as f64 / 1e3,
        full_ns as f64 / 1e3,
        full_ns as f64 / incremental_ns.max(1) as f64,
        stats.lint_units_reused,
        stats.tasks_reused,
        stats.processors_reused,
    );
    if divergences == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("audit: {divergences} divergence(s) — incremental analysis is WRONG");
        ExitCode::FAILURE
    }
}

fn usage() -> String {
    let sweep_default = protocol_names(&mpcp_sweep::SweepConfig::default().protocols, " ");
    let all_protocols = protocol_names(&ProtocolKind::ALL, "|");
    format!(
        "mpcp — real-time synchronization protocols for shared memory multiprocessors\n\
     \n\
     usage:\n\
     \x20 mpcp exp <e1..e16|all>      regenerate a paper table/figure\n\
     \x20 mpcp trace [--until T]      Example 4 schedule under MPCP (Figure 5-1)\n\
     \x20 mpcp sim [opts] [--gantt]   simulate a random system\n\
     \x20 mpcp dga [opts]             offline dependency-graph schedule and bounds\n\
     \x20 mpcp analyze [opts]         blocking bounds and Theorem 3 tables\n\
     \x20 mpcp allocate [opts]        compare allocation heuristics\n\
     \x20 mpcp lint [opts]            static checks; nonzero exit on errors\n\
     \x20 mpcp verify [opts]          lints + exhaustive small-scope model check\n\
     \x20 mpcp audit [opts]           certify incremental analysis against full recompute\n\
     \x20 mpcp serve [opts]           online admission-control server (NDJSON/TCP)\n\
     \x20 mpcp loadgen [opts]         drive a server with a submission stream\n\
     \x20 mpcp sweep [opts]           differential analysis-vs-simulation sweep\n\
     \x20 mpcp shootout [opts]        acceptance curves for every protocol on one grid\n\
     \n\
     sweep options:\n\
     \x20 --scenarios N  (default 1000)  --seed N (default 42)\n\
     \x20 --jobs N       worker threads (default 1; report is identical for any value)\n\
     \x20 --util-lo U / --util-hi U / --util-steps N   utilization grid (0.30..0.75 by 10)\n\
     \x20 --horizon T    per-scenario simulation cap (default 20000)\n\
     \x20 --protocol P   restrict to one protocol (default: {sweep_default})\n\
     \x20 --no-shrink    skip counterexample minimization\n\
     \x20 --gsections N  force ≥N global critical sections per job (default 0)\n\
     \x20 --audit-stride N  audit every Nth scenario by index (default 8; --jobs-independent)\n\
     \x20 --check-response  treat the (advisory) RTA response comparison as a hard oracle\n\
     \x20 --json / --csv machine-readable report; nonzero exit on oracle violations\n\
     \n\
     shootout options:\n\
     \x20 --scenarios N  (default 200)  --seed N (default 42)  --jobs N (default 1)\n\
     \x20 --util-lo U / --util-hi U / --util-steps N   utilization grid (0.30..0.75 by 10)\n\
     \x20 --horizon T / --procs N / --tasks N / --globals N / --locals N / --gsections N\n\
     \x20 --json / --csv machine-readable report; nonzero exit on oracle violations\n\
     \x20 always runs every protocol; report is byte-identical for any --jobs\n\
     \n\
     serve options:\n\
     \x20 --port N       (default 7171; 0 picks an ephemeral port)\n\
     \x20 --addr A       full bind address (overrides --port)\n\
     \x20 --workers N    analysis worker threads (default: CPU count)\n\
     \x20 --queue N      pending-request bound (default 64)\n\
     \x20 --deadline-ms N  per-request deadline (default 1000)\n\
     \x20 --cache N      analysis-cache entries (default 4096)\n\
     \x20 --no-incremental  full analysis for every add-task/remove-task\n\
     \x20 --audit-every N   audit every Nth incremental result (default 64, 0 = off)\n\
     \x20 --shards N     reactor event-loop shards (default: CPU count, max 4)\n\
     \x20 --max-pipeline N  per-connection in-flight bound (default 128)\n\
     \x20 --read-deadline-ms N  slow-loris partial-line deadline (default 30000, 0 = off)\n\
     \x20 --idle-ms N    drop idle connections after N ms (default 0 = never)\n\
     \x20 --persist DIR  session journal + snapshots, replayed on startup\n\
     \x20 --snapshot-every N  journal entries per snapshot compaction (default 4096)\n\
     \n\
     audit options:\n\
     \x20 --example X    paper example 1|2|3 (or the random-system options)\n\
     \x20 --steps N      tasks to cycle through the edit script (default: all)\n\
     \x20 exit is nonzero if any incremental snapshot differs from the full one\n\
     \n\
     loadgen options:\n\
     \x20 --port N / --addr A         server to drive\n\
     \x20 --requests N   (default 200)  --connections N (default 4)\n\
     \x20 --rate R       target req/s, 0 = unpaced (default 0)\n\
     \x20 --pipeline N   requests in flight per connection (default 1)\n\
     \x20 --open         open-loop arrivals: latency from the schedule, needs --rate\n\
     \x20 --unique N     distinct systems to cycle (default 8)\n\
     \x20 --json         machine-readable report\n\
     \x20 plus the random-system options below\n\
     \n\
     lint/verify options:\n\
     \x20 --example X    paper example 1|2|3, or `deadlock` (a broken demo)\n\
     \x20 --json         machine-readable diagnostics\n\
     \x20 --max-offset N / --step N   release-offset grid (default 0..=2 by 1)\n\
     \x20 --horizon T    ticks per variant (default: two hyperperiods)\n\
     \x20 --max-variants N            enumeration cap (default 4096)\n\
     \n\
     dga options (plus the random-system options below):\n\
     \x20 --horizon T    schedule horizon (default: two hyperperiods, capped at 20000)\n\
     \x20 --gsections N  force ≥N global critical sections per job (default 0)\n\
     \x20 exit is nonzero if the offline schedule misses a deadline\n\
     \n\
     random-system options (sim/dga/analyze/allocate):\n\
     \x20 --seed N       (default 1)    --procs N      (default 4)\n\
     \x20 --tasks N      per processor  (default 4)\n\
     \x20 --util U       per processor  (default 0.4)\n\
     \x20 --globals N    global semaphores (default 2)\n\
     \x20 --locals N     local semaphores per processor (default 1)\n\
     \x20 --gsections N  force ≥N global critical sections per job (default 0)\n\
     \x20 --protocol P   {all_protocols}\n\
     \x20 --until T      simulation horizon (default 100000)\n"
    )
}

/// Flags that stand alone; every other `--flag` requires a value.
const BOOL_FLAGS: &[&str] = &[
    "json",
    "gantt",
    "csv",
    "no-shrink",
    "check-response",
    "no-incremental",
    "open",
];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    flags.insert(name.to_owned(), value.clone());
                    i += 1;
                }
                None if BOOL_FLAGS.contains(&name) => {
                    flags.insert(name.to_owned(), String::new());
                }
                None => return Err(format!("flag --{name} requires a value")),
            }
        }
        i += 1;
    }
    Ok(flags)
}

fn flag_u64(flags: &HashMap<String, String>, name: &str, default: u64) -> u64 {
    flags
        .get(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag_f64(flags: &HashMap<String, String>, name: &str, default: f64) -> f64 {
    flags
        .get(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `names` joined by `sep` — the protocol lists in the usage text and
/// the unknown-protocol message come from the registry, not from prose.
fn protocol_names(kinds: &[ProtocolKind], sep: &str) -> String {
    let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
    names.join(sep)
}

/// The `--protocol` flag, if given.
fn flag_protocol(flags: &HashMap<String, String>) -> Result<Option<ProtocolKind>, String> {
    flags
        .get("protocol")
        .map(|v| {
            v.parse().map_err(|_| {
                format!(
                    "unknown protocol {v:?}: expected {}",
                    protocol_names(&ProtocolKind::ALL, "|")
                )
            })
        })
        .transpose()
}

/// System under `lint`/`verify`: `--example 1|2|3` picks a paper
/// example, `--example deadlock` a deliberately broken demo system,
/// no `--example` falls back to the random-system flags.
fn lint_target(flags: &HashMap<String, String>) -> Result<(mpcp_model::System, String), String> {
    match flags.get("example").map(String::as_str) {
        Some("1") => Ok((mpcp_bench::paper::example1(40).0, "example 1".to_owned())),
        Some("2") => Ok((mpcp_bench::paper::example2(40).0, "example 2".to_owned())),
        Some("3") => Ok((mpcp_bench::paper::example3().0, "example 3".to_owned())),
        Some("deadlock") => Ok((deadlock_demo(), "deadlock demo".to_owned())),
        Some(other) => Err(format!(
            "unknown example {other:?}: expected 1, 2, 3 or deadlock"
        )),
        None => {
            let (sys, seed) = build_system(flags);
            Ok((sys, format!("random system (seed {seed})")))
        }
    }
}

/// Two tasks on two processors nesting the same global semaphores in
/// opposite orders — the lock-order-cycle the V001 lint exists for.
fn deadlock_demo() -> mpcp_model::System {
    use mpcp_model::{Body, System, TaskDef};
    let mut b = System::builder();
    let p = b.add_processors(2);
    let sa = b.add_resource("SA");
    let sb = b.add_resource("SB");
    b.add_task(
        TaskDef::new("tau1", p[0]).period(100).priority(2).body(
            Body::builder()
                .compute(1)
                .critical(sa, |c| c.compute(1).critical(sb, |c| c.compute(1)))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("tau2", p[1]).period(200).priority(1).body(
            Body::builder()
                .compute(1)
                .critical(sb, |c| c.compute(1).critical(sa, |c| c.compute(1)))
                .build(),
        ),
    );
    b.build().expect("demo system is structurally valid")
}

/// The flags `sweep` and `shootout` share: workload shape, scenario
/// budget (each has its own default), seed, workers, horizon and the
/// utilization grid.
fn sweep_config(flags: &HashMap<String, String>, scenarios: u64) -> mpcp_sweep::SweepConfig {
    let d = mpcp_sweep::SweepConfig::default();
    mpcp_sweep::SweepConfig {
        // Its utilization is overridden per grid point.
        workload: workload_config(flags, 3),
        scenarios: flag_u64(flags, "scenarios", scenarios) as usize,
        seed: flag_u64(flags, "seed", 42),
        jobs: flag_u64(flags, "jobs", 1) as usize,
        horizon_cap: flag_u64(flags, "horizon", d.horizon_cap),
        util_lo: flag_f64(flags, "util-lo", d.util_lo),
        util_hi: flag_f64(flags, "util-hi", d.util_hi),
        util_steps: flag_u64(flags, "util-steps", d.util_steps as u64) as usize,
        ..d
    }
}

/// The random-system flags; `tasks` is the per-processor default.
fn workload_config(flags: &HashMap<String, String>, tasks: u64) -> WorkloadConfig {
    WorkloadConfig::default()
        .processors(flag_u64(flags, "procs", 4) as usize)
        .tasks_per_processor(flag_u64(flags, "tasks", tasks) as usize)
        .utilization(flag_f64(flags, "util", 0.4))
        .resources(
            flag_u64(flags, "locals", 1) as usize,
            flag_u64(flags, "globals", 2) as usize,
        )
        .sections(0, 2)
        .global_sections(flag_u64(flags, "gsections", 0) as usize)
}

fn build_system(flags: &HashMap<String, String>) -> (mpcp_model::System, u64) {
    let seed = flag_u64(flags, "seed", 1);
    (generate(&workload_config(flags, 4), seed), seed)
}
