//! `mpcp` — command-line experiment runner for the MPCP reproduction.
//!
//! [`COMMANDS`] is the whole surface: every command, every flag it
//! accepts — name, kind, default, help — and the function that runs it.
//! Parsing, validation and `mpcp help` are generated from that table, so
//! a flag is said once and an invocation the table does not describe is
//! refused, not guessed at.

use mpcp_alloc::{allocate, Heuristic};
use mpcp_analysis::{self as analysis, Analysis, BlockingConfig};
use mpcp_bench::{experiments, paper};
use mpcp_dga::{DependencyGraph, DgaSchedule};
use mpcp_model::{System, Time};
use mpcp_protocols::ProtocolKind;
use mpcp_service::ServerConfig;
use mpcp_sim::{SimConfig, Simulator};
use mpcp_sweep::{checker, CheckerConfig, SweepConfig};
use mpcp_taskgen::{generate, WorkloadConfig};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;
use table::*;
use Kind::{Operand, Real, Switch, Text, Uint};

/// How a flag is written, and what its value must look like.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// A non-negative integer.
    Uint,
    /// A number.
    Real,
    /// Any text; the command says what it accepts.
    Text,
    /// Not a `--flag`: the one bare word the command requires.
    Operand,
}

/// What leaving a flag out means, as the text the user could have typed.
/// `None`: nothing, or a value the command works out (the help says
/// which).
type Absent = Option<fn() -> String>;

/// [`Absent`] meaning `$value`: a literal of the CLI's own choosing, or a
/// field of a config type's `Default`.
macro_rules! of {
    ($value:expr) => {
        Some(|| $value.to_string())
    };
}

#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    kind: Kind,
    default: Absent,
    help: &'static str,
}

const fn flag(name: &'static str, kind: Kind, default: Absent, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        default,
        help,
    }
}

impl Flag {
    /// This flag where a command means another default by it.
    const fn or(self, default: Absent) -> Flag {
        Flag { default, ..self }
    }

    /// This flag where a command means something else by it.
    const fn says(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }
}

/// Flags several commands accept, documented once.
struct Group {
    name: &'static str,
    flags: &'static [Flag],
}

struct Command {
    name: &'static str,
    summary: &'static str,
    run: fn(&Args) -> Result<ExitCode, String>,
    /// Its own flags; no name repeats one of its groups'.
    flags: &'static [Flag],
    groups: &'static [&'static Group],
}

/// One row per flag, group and command.
#[rustfmt::skip]
mod table {
    use super::*;

    pub(super) const ID: Flag = flag("id", Operand, None, "an experiment of the list below");
    pub(super) const SEED: Flag = flag("seed", Uint, of!(1), "generator seed");
    pub(super) const PROCS: Flag = flag("procs", Uint, of!(4), "processors");
    pub(super) const TASKS: Flag = flag("tasks", Uint, of!(4), "tasks per processor");
    pub(super) const UTIL: Flag = flag("util", Real, of!(0.4), "utilization per processor");
    pub(super) const GLOBALS: Flag = flag("globals", Uint, of!(2), "global semaphores");
    pub(super) const LOCALS: Flag = flag("locals", Uint, of!(1), "local semaphores per processor");
    pub(super) const GSECTIONS: Flag = flag("gsections", Uint, of!(0), "force ≥N global critical sections per job");
    pub(super) const EXAMPLE: Flag = flag("example", Text, None, "paper example 1|2|3 or `deadlock` (a broken demo), not a random system");
    pub(super) const JSON: Flag = flag("json", Switch, None, "machine-readable output");
    pub(super) const CSV: Flag = flag("csv", Switch, None, "comma-separated output");
    pub(super) const PROTOCOL: Flag = flag("protocol", Text, None, "one protocol of the list below");
    pub(super) const UNTIL: Flag = flag("until", Uint, of!(100_000), "simulation horizon");
    pub(super) const GANTT: Flag = flag("gantt", Switch, None, "also print the schedule as a Gantt chart");
    pub(super) const WINDOW: Flag = flag("window", Uint, of!(200), "ticks the Gantt chart shows");
    pub(super) const HORIZON: Flag = flag("horizon", Uint, of!(SweepConfig::default().horizon_cap), "per-scenario simulation cap");
    pub(super) const SCENARIOS: Flag = flag("scenarios", Uint, of!(SweepConfig::default().scenarios), "scenarios to run");
    pub(super) const JOBS: Flag = flag("jobs", Uint, of!(SweepConfig::default().jobs), "worker threads; the report is identical for any value");
    pub(super) const UTIL_LO: Flag = flag("util-lo", Real, of!(SweepConfig::default().util_lo), "lowest utilization of the grid");
    pub(super) const UTIL_HI: Flag = flag("util-hi", Real, of!(SweepConfig::default().util_hi), "highest utilization of the grid");
    pub(super) const UTIL_STEPS: Flag = flag("util-steps", Uint, of!(SweepConfig::default().util_steps), "grid points");
    pub(super) const AUDIT_STRIDE: Flag = flag("audit-stride", Uint, of!(SweepConfig::default().audit_stride), "audit every Nth scenario by index (--jobs-independent)");
    pub(super) const NO_SHRINK: Flag = flag("no-shrink", Switch, None, "skip counterexample minimization");
    pub(super) const CHECK_RESPONSE: Flag = flag("check-response", Switch, None, "treat the (advisory) RTA response comparison as a hard oracle");
    pub(super) const MAX_OFFSET: Flag = flag("max-offset", Uint, of!(CheckerConfig::default().max_offset), "largest release offset tried");
    pub(super) const STEP: Flag = flag("step", Uint, of!(CheckerConfig::default().offset_step), "release-offset grid step");
    pub(super) const MAX_VARIANTS: Flag = flag("max-variants", Uint, of!(CheckerConfig::default().max_variants), "enumeration cap");
    pub(super) const STEPS: Flag = flag("steps", Uint, None, "tasks the edit script cycles through (default: all)");
    pub(super) const PORT: Flag = flag("port", Uint, None, "127.0.0.1:N in place of --addr (0: an ephemeral port)");
    pub(super) const ADDR: Flag = flag("addr", Text, of!(ServerConfig::default().addr), "address to bind");
    pub(super) const WORKERS: Flag = flag("workers", Uint, of!(ServerConfig::default().workers), "analysis worker threads");
    pub(super) const QUEUE: Flag = flag("queue", Uint, of!(ServerConfig::default().queue_cap), "pending-request bound");
    pub(super) const DEADLINE_MS: Flag = flag("deadline-ms", Uint, of!(ServerConfig::default().deadline.as_millis()), "per-request deadline");
    pub(super) const CACHE: Flag = flag("cache", Uint, of!(ServerConfig::default().cache_capacity), "analysis-cache entries");
    pub(super) const AUDIT_EVERY: Flag = flag("audit-every", Uint, of!(ServerConfig::default().audit_every), "audit every Nth incremental result (0: never)");
    pub(super) const SHARDS: Flag = flag("shards", Uint, of!(ServerConfig::default().shards), "reactor event-loop shards");
    pub(super) const MAX_PIPELINE: Flag = flag("max-pipeline", Uint, of!(ServerConfig::default().max_pipeline), "per-connection in-flight bound");
    pub(super) const READ_DEADLINE_MS: Flag = flag("read-deadline-ms", Uint, of!(ServerConfig::default().read_deadline.as_millis()), "slow-loris partial-line deadline (0: none)");
    pub(super) const IDLE_MS: Flag = flag("idle-ms", Uint, of!(ServerConfig::default().idle_timeout.as_millis()), "drop connections idle this long (0: never)");
    pub(super) const PERSIST: Flag = flag("persist", Text, None, "directory of the session journal and snapshots, replayed on startup");
    pub(super) const SNAPSHOT_EVERY: Flag = flag("snapshot-every", Uint, of!(ServerConfig::default().snapshot_every), "journal entries per snapshot compaction");

    /// The seeded `taskgen` system most commands work on.
    pub(super) const RANDOM_SYSTEM: Group = Group { name: "random-system", flags: &[SEED, PROCS, TASKS, UTIL, GLOBALS, LOCALS, GSECTIONS] };
    pub(super) const TARGET: Group = Group { name: "target", flags: &[EXAMPLE] };
    /// The scenario family of `sweep` and `shootout`: seed, workers, horizon, the
    /// utilization grid, and the system shape at each of its points.
    pub(super) const GRID: Group = Group { name: "grid", flags: &[
        SEED.or(of!(SweepConfig::default().seed)), JOBS, HORIZON, UTIL_LO, UTIL_HI, UTIL_STEPS, PROCS,
        TASKS.or(of!(SweepConfig::default().workload.tasks_per_processor)), GLOBALS, LOCALS, GSECTIONS,
    ] };
    pub(super) const REPORT_FORMAT: Group = Group { name: "report-format", flags: &[JSON, CSV] };
    pub(super) const GROUPS: [&Group; 4] = [&RANDOM_SYSTEM, &TARGET, &GRID, &REPORT_FORMAT];

    pub(super) const COMMANDS: [Command; 12] = [
        Command { name: "exp", summary: "regenerate a paper table/figure", run: run_exp, flags: &[ID], groups: &[] },
        Command { name: "trace", summary: "Example 4 schedule under MPCP (Figure 5-1)", run: run_trace,
            flags: &[UNTIL.or(of!(20)), CSV.says("events, then slices, as CSV")], groups: &[] },
        Command { name: "sim", summary: "simulate a random system", run: run_sim,
            flags: &[PROTOCOL.or(of!(ProtocolKind::Mpcp)), UNTIL, GANTT, WINDOW], groups: &[&RANDOM_SYSTEM] },
        Command { name: "dga", summary: "offline dependency-graph schedule and bounds; nonzero exit on a miss", run: run_dga,
            flags: &[HORIZON.or(None).says("schedule horizon (default: two hyperperiods, capped)")], groups: &[&RANDOM_SYSTEM] },
        Command { name: "analyze", summary: "blocking bounds and Theorem 3 tables", run: run_analyze, flags: &[], groups: &[&RANDOM_SYSTEM] },
        Command { name: "allocate", summary: "compare allocation heuristics", run: run_allocate, flags: &[], groups: &[&RANDOM_SYSTEM] },
        Command { name: "lint", summary: "static checks; nonzero exit on errors", run: run_lint,
            flags: &[JSON], groups: &[&TARGET, &RANDOM_SYSTEM] },
        Command { name: "verify", summary: "lints + exhaustive small-scope model check", run: run_verify,
            flags: &[JSON, PROTOCOL.says("one protocol of the list below (default: each)"), MAX_OFFSET, STEP, MAX_VARIANTS,
                HORIZON.or(of!(CheckerConfig::default().horizon)).says("ticks per variant (0: two hyperperiods)")],
            groups: &[&TARGET, &RANDOM_SYSTEM] },
        Command { name: "audit", summary: "certify incremental analysis against full recompute; nonzero exit if they differ",
            run: run_audit, flags: &[STEPS], groups: &[&TARGET, &RANDOM_SYSTEM] },
        Command { name: "serve", summary: "online admission-control server (NDJSON/TCP)", run: run_serve,
            flags: &[PORT, ADDR, WORKERS, QUEUE, DEADLINE_MS, CACHE, AUDIT_EVERY, SHARDS, MAX_PIPELINE,
                READ_DEADLINE_MS, IDLE_MS, PERSIST, SNAPSHOT_EVERY],
            groups: &[] },
        Command { name: "sweep", summary: "differential analysis-vs-simulation sweep; nonzero exit on oracle violations", run: run_sweep,
            flags: &[SCENARIOS, PROTOCOL.says("one protocol of the list below (default: the sweep set)"), AUDIT_STRIDE, NO_SHRINK, CHECK_RESPONSE],
            groups: &[&GRID, &REPORT_FORMAT] },
        Command { name: "shootout", summary: "acceptance curves for every protocol on one grid; nonzero exit on oracle violations",
            run: run_shootout, flags: &[SCENARIOS.or(of!(200))], groups: &[&GRID, &REPORT_FORMAT] },
    ];
}

impl Flag {
    /// The flag as the help and the errors write it.
    fn spelling(&self) -> String {
        match self.kind {
            Switch => format!("--{}", self.name),
            Uint => format!("--{} N", self.name),
            Real => format!("--{} U", self.name),
            Text => format!("--{} S", self.name),
            Operand => format!("<{}>", self.name),
        }
    }
}

impl Command {
    /// Every flag the command accepts: its own, then its groups'.
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        let shared = self.groups.iter().flat_map(|g| g.flags);
        self.flags.iter().chain(shared)
    }
}

fn section(out: &mut String, title: &str, flags: &[Flag]) {
    let _ = writeln!(out, "\n{title} options:");
    for flag in flags {
        let default = flag.default.map(|d| format!(" (default {})", d()));
        let default = default.unwrap_or_default();
        let _ = writeln!(out, "  {:<20} {}{default}", flag.spelling(), flag.help);
    }
}

fn usage() -> String {
    let mut out = String::from(
        "mpcp — real-time synchronization protocols for shared memory multiprocessors\n\nusage:\n",
    );
    for command in &COMMANDS {
        let operand = command.flags.iter().find(|f| f.kind == Operand);
        let tail = operand.map_or("[opts]".to_owned(), Flag::spelling);
        let synopsis = format!("mpcp {} {tail}", command.name);
        let _ = writeln!(out, "  {synopsis:<20} {}", command.summary);
    }
    for command in &COMMANDS {
        section(&mut out, command.name, command.flags);
        for group in command.groups {
            let _ = writeln!(out, "  and the {} options", group.name);
        }
    }
    for group in GROUPS {
        section(&mut out, group.name, group.flags);
    }
    let _ = writeln!(out, "\nexperiments: {} all", experiments::IDS.join(" "));
    let _ = writeln!(
        out,
        "protocols: {} (the sweep set: {})",
        protocol_names(&ProtocolKind::ALL, "|"),
        protocol_names(&SweepConfig::default().protocols, " ")
    );
    out
}

/// One invocation the table accepts: every flag given is one `command`
/// declares, with a value of its kind.
struct Args {
    command: &'static Command,
    given: Vec<(&'static str, String)>,
}

fn parse(command: &'static Command, words: &[String]) -> Result<Args, String> {
    let mut given: Vec<(&'static str, String)> = Vec::new();
    let vacant = |given: &[(&str, String)]| {
        let mut operands = command.flags().filter(|f| f.kind == Operand);
        operands.find(|f| given.iter().all(|(name, _)| *name != f.name))
    };
    let mut words = words.iter().peekable();
    while let Some(word) = words.next() {
        let Some(name) = word.strip_prefix("--") else {
            let operand = vacant(&given).ok_or_else(|| format!("unexpected argument {word:?}"))?;
            given.push((operand.name, word.clone()));
            continue;
        };
        let mut flags = command.flags().filter(|f| f.kind != Operand);
        let flag = flags.find(|f| f.name == name);
        let flag = flag.ok_or_else(|| format!("unknown flag --{name}"))?;
        let value = if flag.kind == Switch {
            String::new()
        } else {
            let value = words.next_if(|v| !v.starts_with("--"));
            value
                .ok_or_else(|| format!("flag --{name} requires a value"))?
                .clone()
        };
        let wanted = match flag.kind {
            Uint if value.parse::<u64>().is_err() => "a non-negative integer",
            Real if value.parse::<f64>().is_err() => "a number",
            _ => {
                given.push((flag.name, value));
                continue;
            }
        };
        return Err(format!("--{name} takes {wanted}, not {value:?}"));
    }
    match vacant(&given) {
        Some(missing) => Err(format!("missing <{}>", missing.name)),
        None => Ok(Args { command, given }),
    }
}

impl Args {
    /// `flag` as the command declares it, and what the user wrote for it
    /// (the last time, if repeated).
    ///
    /// # Panics
    ///
    /// Panics if the command does not declare `flag`: a value read that
    /// way could have been neither given nor checked nor documented.
    fn look_up(&self, flag: &Flag) -> (&'static Flag, Option<&str>) {
        let name = self.command.name;
        let declared = self.command.flags().find(|f| f.name == flag.name);
        let declared = declared.unwrap_or_else(|| panic!("mpcp {name} reads --{}", flag.name));
        let mut matches = self.given.iter().rev().filter(|(n, _)| *n == flag.name);
        (declared, matches.next().map(|(_, value)| value.as_str()))
    }

    /// Whether `flag` is on the command line.
    fn on(&self, flag: &Flag) -> bool {
        self.look_up(flag).1.is_some()
    }

    /// The value of `flag`: what the user wrote, else the default this
    /// command declares for it, if any.
    fn opt<T: FromStr>(&self, flag: &Flag) -> Option<T> {
        let (declared, given) = self.look_up(flag);
        let text = given.map_or_else(|| declared.default.map(|d| d()), |v| Some(v.to_owned()))?;
        let value = text.parse().ok();
        Some(value.unwrap_or_else(|| panic!("--{} {text:?} is not of its kind", flag.name)))
    }

    /// [`Args::opt`] of a flag declared with a default, or required.
    fn get<T: FromStr>(&self, flag: &Flag) -> T {
        let value = self.opt(flag);
        value.unwrap_or_else(|| panic!("--{} has no default", flag.name))
    }
}

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let name = words.first().map_or("help", String::as_str);
    if matches!(name, "help" | "--help" | "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("unknown command {name:?}\n{}", usage());
        return ExitCode::FAILURE;
    };
    let refused = |e| {
        let accepted: Vec<String> = command.flags().map(Flag::spelling).collect();
        let accepted = accepted.join(", ");
        format!("mpcp {name}: {e}\nmpcp {name} accepts: {accepted} (see `mpcp help`)")
    };
    let outcome = parse(command, &words[1..]).map_err(refused);
    match outcome.and_then(|args| (command.run)(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run_exp(args: &Args) -> Result<ExitCode, String> {
    let id: String = args.get(&ID);
    let report = experiments::by_name(&id).ok_or_else(|| {
        let known = experiments::IDS.join(", ");
        format!("unknown experiment {id:?}; known: {known} or all")
    })?;
    println!("{report}");
    Ok(ExitCode::SUCCESS)
}

fn run_trace(args: &Args) -> Result<ExitCode, String> {
    let until = args.get(&UNTIL);
    let (sys, _) = paper::example3();
    let mut sim = Simulator::new(&sys, ProtocolKind::Mpcp.build());
    sim.run_until(until);
    if args.on(&CSV) {
        print!("{}", mpcp_sim::export::events_csv(sim.trace()));
        print!("{}", mpcp_sim::export::slices_csv(sim.trace()));
        return Ok(ExitCode::SUCCESS);
    }
    let (trace, end) = (sim.trace(), Time::new(until));
    println!("{}", trace.gantt(&sys, Time::ZERO, end, 1));
    println!("{}", trace.job_gantt(&sys, Time::ZERO, end, 1));
    println!("{}", trace.event_log());
    println!("{}", sim.metrics());
    Ok(ExitCode::SUCCESS)
}

fn run_sim(args: &Args) -> Result<ExitCode, String> {
    let (sys, seed) = random_system(args);
    let kind = protocol(args)?.expect("declared with a default");
    if !kind.applicable(&sys) {
        return Err(format!(
            "{kind}: not applicable: the system has nested critical sections"
        ));
    }
    let until = args.get(&UNTIL);
    let mut sim = Simulator::with_config(
        &sys,
        kind.build(),
        SimConfig {
            record_trace: args.on(&GANTT),
            ..SimConfig::until(until)
        },
    );
    sim.run();
    println!(
        "protocol {kind}, seed {seed}, {} tasks on {} processors, until t={until}",
        sys.tasks().len(),
        sys.processors().len()
    );
    if args.on(&GANTT) {
        let window = Time::new(args.get::<u64>(&WINDOW).min(until));
        println!("{}", sim.trace().gantt(&sys, Time::ZERO, window, 1));
    }
    println!("{}", sim.metrics());
    Ok(ExitCode::SUCCESS)
}

/// `mpcp dga`: build the per-resource dependency graph for a generated
/// system, list-schedule its critical sections offline, and print the
/// graph, the per-resource grant chains with their recorded slots, and
/// the per-task response bounds the constructed schedule certifies.
fn run_dga(args: &Args) -> Result<ExitCode, String> {
    let (sys, seed) = &random_system(args);
    let horizon = args.opt(&HORIZON).map(Time::new);
    let horizon = horizon.unwrap_or_else(|| mpcp_dga::default_horizon(sys));
    let graph = DependencyGraph::build(sys, horizon).map_err(|e| format!("dga: {e}"))?;
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
    Ok(exit_code(schedule.accepted))
}

fn run_analyze(args: &Args) -> Result<ExitCode, String> {
    let (sys, seed) = random_system(args);
    println!("seed {seed}");
    println!("{}", analysis::report::ceiling_table(&sys));
    println!("{}", analysis::report::gcs_priority_table(&sys));
    let mpcp = Analysis::Mpcp
        .bounds(&sys, BlockingConfig::paper())
        .map_err(|e| format!("analysis rejected the system: {e}"))?;
    println!("MPCP blocking bounds (§5.1):");
    println!("{}", analysis::report::blocking_table(&sys, &mpcp));
    println!("Theorem 3:");
    println!("{}", analysis::report::sched_table(&sys, &mpcp));
    let dpcp = Analysis::Dpcp
        .bounds(&sys, BlockingConfig::paper())
        .expect("same preconditions");
    println!("DPCP blocking bounds (§5.2 comparison):");
    println!("{}", analysis::report::blocking_table(&sys, &dpcp));
    Ok(ExitCode::SUCCESS)
}

fn run_allocate(args: &Args) -> Result<ExitCode, String> {
    let (sys, seed) = random_system(args);
    let m = args.get(&PROCS);
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
    Ok(ExitCode::SUCCESS)
}

fn run_lint(args: &Args) -> Result<ExitCode, String> {
    let (sys, label) = target(args)?;
    let report = mpcp_verify::lint_system(&sys);
    eprintln!("linting {label}");
    Ok(diagnostics(args, &report))
}

fn run_verify(args: &Args) -> Result<ExitCode, String> {
    let (sys, label) = target(args)?;
    let config = CheckerConfig {
        horizon: args.get(&HORIZON),
        max_offset: args.get(&MAX_OFFSET),
        offset_step: args.get(&STEP),
        max_variants: args.get(&MAX_VARIANTS),
    };
    eprintln!("verifying {label}");
    let mut report = mpcp_verify::lint_system(&sys);
    let explorations = match protocol(args)? {
        Some(kind) => vec![checker::explore(&sys, kind, &config)],
        None => checker::explore_all(&sys, &config),
    };
    for d in checker::report(&explorations).diagnostics() {
        report.push(d.clone());
    }
    if !args.on(&JSON) {
        for ex in &explorations {
            eprintln!(
                "{:<16} {:>6} variants  {}",
                ex.protocol,
                ex.variants,
                if ex.passed() { "ok" } else { "VIOLATED" }
            );
        }
    }
    Ok(diagnostics(args, &report))
}

/// Prints what `lint` and `verify` found; errors make the exit nonzero.
fn diagnostics(args: &Args, report: &mpcp_verify::Report) -> ExitCode {
    if args.on(&JSON) {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    exit_code(!report.has_errors())
}

fn exit_code(success: bool) -> ExitCode {
    if success {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_serve(args: &Args) -> Result<ExitCode, String> {
    let millis = |flag| Duration::from_millis(args.get(flag));
    let config = ServerConfig {
        addr: address(args),
        workers: args.get(&WORKERS),
        queue_cap: args.get(&QUEUE),
        deadline: millis(&DEADLINE_MS),
        cache_capacity: args.get(&CACHE),
        audit_every: args.get(&AUDIT_EVERY),
        shards: args.get(&SHARDS),
        max_pipeline: args.get(&MAX_PIPELINE),
        read_deadline: millis(&READ_DEADLINE_MS),
        idle_timeout: millis(&IDLE_MS),
        persist_dir: args.opt(&PERSIST),
        snapshot_every: args.get(&SNAPSHOT_EVERY),
    };
    let handle = mpcp_service::spawn(&config)
        .map_err(|e| format!("serve: cannot bind {}: {e}", config.addr))?;
    // The smoke script and tests parse this exact line to learn the
    // ephemeral port, so flush it eagerly.
    println!("mpcp-service listening on {}", handle.local_addr());
    let _ = std::io::stdout().flush();
    handle.join();
    println!("mpcp-service stopped");
    Ok(ExitCode::SUCCESS)
}

/// `--addr`, unless only `--port` is given.
fn address(args: &Args) -> String {
    match args.opt::<u64>(&PORT) {
        Some(port) if !args.on(&ADDR) => format!("127.0.0.1:{port}"),
        _ => args.get(&ADDR),
    }
}

fn run_sweep(args: &Args) -> Result<ExitCode, String> {
    let mut config = grid(args);
    config.audit_stride = args.get(&AUDIT_STRIDE);
    config.shrink = !args.on(&NO_SHRINK);
    config.check_response = args.on(&CHECK_RESPONSE);
    if let Some(kind) = protocol(args)? {
        config.protocols = vec![kind];
    }
    let report = mpcp_sweep::run(&config);
    let text = if args.on(&JSON) {
        report.to_json().encode() + "\n"
    } else if args.on(&CSV) {
        report.csv()
    } else {
        report.render_text()
    };
    oracle_verdict(args, &text, report.hash(), report.violations.len() as u64)
}

fn run_shootout(args: &Args) -> Result<ExitCode, String> {
    let report = mpcp_sweep::shootout(&grid(args));
    let text = if args.on(&JSON) {
        report.to_json().encode() + "\n"
    } else if args.on(&CSV) {
        report.csv()
    } else {
        report.render_text()
    };
    oracle_verdict(args, &text, report.hash(), report.violations_total())
}

/// The tail `sweep` and `shootout` share: the rendered report, its hash
/// on stderr, and a nonzero exit when the oracle objected.
fn oracle_verdict(args: &Args, text: &str, hash: u64, violations: u64) -> Result<ExitCode, String> {
    print!("{text}");
    eprintln!("report hash: {hash:016x}");
    if violations == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        let name = args.command.name;
        Err(format!("{name}: {violations} oracle violation(s)"))
    }
}

/// `mpcp audit`: drive the incremental analysis engine through the
/// deterministic edit script of [`mpcp_verify::audit_script`] under
/// every analysis and byte-compare its snapshot against an independent
/// full recompute after every step; one summary line per analysis. Any
/// divergence is a hard failure.
fn run_audit(args: &Args) -> Result<ExitCode, String> {
    use mpcp_verify::{full_snapshot_json, IncrementalAnalysis};
    use std::time::Instant;

    let (sys, label) = &target(args)?;
    let steps = args.opt(&STEPS).unwrap_or(sys.tasks().len());
    let script = mpcp_verify::audit_script(sys, steps)
        .map_err(|e| format!("audit: cannot build the edit script: {e}"))?;
    let edits = script.len();
    eprintln!(
        "auditing {label}: {} tasks, {edits} edit(s) per analysis",
        sys.tasks().len()
    );

    let mut divergences = 0usize;
    for analysis in Analysis::ALL {
        let mut engine = IncrementalAnalysis::new(sys.clone(), analysis)
            .map_err(|e| format!("audit: cannot build incremental engine: {e}"))?;
        let (mut incremental_ns, mut full_ns, mut diverged) = (0u128, 0u128, 0usize);
        for (edit, next) in &script {
            let t0 = Instant::now();
            engine.apply(next.clone(), edit);
            let got = engine.snapshot_json();
            incremental_ns += t0.elapsed().as_nanos();
            let t1 = Instant::now();
            let want = full_snapshot_json(engine.system(), analysis);
            full_ns += t1.elapsed().as_nanos();
            if got != want {
                diverged += 1;
                eprintln!("audit: {analysis} DIVERGENCE after {edit}");
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
            "audit {label} under {analysis}: {edits} edits, {diverged} divergence(s); \
             incremental {:.1} µs, full recompute {:.1} µs ({:.1}x); \
             reused {} lint units, {} task bounds, {} processors",
            incremental_ns as f64 / 1e3,
            full_ns as f64 / 1e3,
            full_ns as f64 / incremental_ns.max(1) as f64,
            stats.lint_units_reused,
            stats.tasks_reused,
            stats.processors_reused,
        );
        divergences += diverged;
    }
    if divergences == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(format!(
            "audit: {divergences} divergence(s) — incremental analysis is WRONG"
        ))
    }
}

/// `names` joined by `sep` — the protocol lists in the usage text and
/// the unknown-protocol message come from the registry, not from prose.
fn protocol_names(kinds: &[ProtocolKind], sep: &str) -> String {
    let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
    names.join(sep)
}

/// `--protocol`, given or by the command's default, if either.
fn protocol(args: &Args) -> Result<Option<ProtocolKind>, String> {
    let name: Option<String> = args.opt(&PROTOCOL);
    name.map(|v| {
        v.parse().map_err(|_| {
            format!(
                "unknown protocol {v:?}: expected {}",
                protocol_names(&ProtocolKind::ALL, "|")
            )
        })
    })
    .transpose()
}

/// The `target` group: `--example 1|2|3` picks a paper example,
/// `--example deadlock` a deliberately broken demo system, no
/// `--example` the random system.
fn target(args: &Args) -> Result<(System, String), String> {
    match args.opt::<String>(&EXAMPLE).as_deref() {
        Some("1") => Ok((paper::example1(40).0, "example 1".to_owned())),
        Some("2") => Ok((paper::example2(40).0, "example 2".to_owned())),
        Some("3") => Ok((paper::example3().0, "example 3".to_owned())),
        Some("deadlock") => Ok((deadlock_demo(), "deadlock demo".to_owned())),
        Some(other) => Err(format!(
            "unknown example {other:?}: expected 1, 2, 3 or deadlock"
        )),
        None => {
            let (sys, seed) = random_system(args);
            Ok((sys, format!("random system (seed {seed})")))
        }
    }
}

/// Two tasks on two processors nesting the same global semaphores in
/// opposite orders — the lock-order-cycle the V001 lint exists for.
fn deadlock_demo() -> System {
    use mpcp_model::{Body, TaskDef};
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

/// The `grid` group, and `--scenarios` (each command declares its own).
fn grid(args: &Args) -> SweepConfig {
    SweepConfig {
        workload: shape(args),
        scenarios: args.get(&SCENARIOS),
        seed: args.get(&SEED),
        jobs: args.get(&JOBS),
        horizon_cap: args.get(&HORIZON),
        util_lo: args.get(&UTIL_LO),
        util_hi: args.get(&UTIL_HI),
        util_steps: args.get(&UTIL_STEPS),
        ..SweepConfig::default()
    }
}

/// The system shape every generator flag set shares; the utilization is
/// the caller's (`--util`, or a grid point).
fn shape(args: &Args) -> WorkloadConfig {
    WorkloadConfig::default()
        .processors(args.get(&PROCS))
        .tasks_per_processor(args.get(&TASKS))
        .resources(args.get(&LOCALS), args.get(&GLOBALS))
        .sections(0, 2)
        .global_sections(args.get(&GSECTIONS))
}

/// The `random-system` group: the generated system and its seed.
fn random_system(args: &Args) -> (System, u64) {
    let seed = args.get(&SEED);
    let config = shape(args).utilization(args.get(&UTIL));
    (generate(&config, seed), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        let found = COMMANDS.iter().find(|c| c.name == name);
        found.unwrap_or_else(|| panic!("no command {name:?}"))
    }

    #[test]
    fn every_flag_is_declared_once_per_command_with_a_default_of_its_kind() {
        for command in &COMMANDS {
            let flags: Vec<&Flag> = command.flags().collect();
            for (i, flag) in flags.iter().enumerate() {
                let again = flags[i + 1..].iter().any(|f| f.name == flag.name);
                assert!(!again, "mpcp {}: --{} twice", command.name, flag.name);
                let default = flag.default.map(|d| d());
                let fits = match (flag.kind, &default) {
                    (Switch | Operand, default) => default.is_none(),
                    (Uint, Some(default)) => default.parse::<u64>().is_ok(),
                    (Real, Some(default)) => default.parse::<f64>().is_ok(),
                    _ => true,
                };
                assert!(fits, "mpcp {}: --{} {default:?}", command.name, flag.name);
            }
        }
    }

    /// Each section of the generated help — one per command, one per
    /// group — spells each of its flags exactly once.
    #[test]
    fn usage_lists_every_flag_once_per_section() {
        let text = usage();
        let commands = COMMANDS.iter().map(|c| (c.name, c.flags));
        for (title, flags) in commands.chain(GROUPS.iter().map(|g| (g.name, g.flags))) {
            let header = format!("\n{title} options:\n");
            let start = text
                .find(&header)
                .unwrap_or_else(|| panic!("no {header:?}"));
            let body = &text[start + header.len()..];
            let body = &body[..body.find("\n\n").unwrap_or(body.len())];
            let listed = |line: &&str| line.starts_with("  --") || line.starts_with("  <");
            assert_eq!(body.lines().filter(listed).count(), flags.len(), "{title}");
            for flag in flags {
                let spelled = |line: &&str| {
                    let word = line.split_whitespace().next();
                    word == Some(&format!("--{}", flag.name))
                        || word == Some(&format!("<{}>", flag.name))
                };
                assert_eq!(
                    body.lines().filter(spelled).count(),
                    1,
                    "{title}: {}",
                    flag.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "mpcp analyze reads --queue")]
    fn reading_a_flag_the_command_does_not_declare_panics() {
        let args = parse(command("analyze"), &[]).unwrap();
        args.on(&QUEUE);
    }

    /// The `mpcp` invocations in `text` — what follows `marker`, up to
    /// the first shell operator, continuation lines joined — each with
    /// whether its line expects refusal (`! …`).
    fn invocations(text: &str, marker: &str) -> Vec<(bool, Vec<String>)> {
        let operator = |w: &&str| w.starts_with(['>', '|', '&', ';']) || w.starts_with("2>");
        let joined = text.replace("\\\n", " ");
        let lines = joined.lines().filter_map(|line| {
            let (before, after) = line.split_once(marker)?;
            let words = after.split_whitespace().take_while(|w| !operator(w));
            let words = words.map(|w| w.trim_matches(['"', ')']).to_owned());
            Some((before.trim_start().starts_with('!'), words.collect()))
        });
        lines.collect()
    }

    /// Everything CI, the smoke scripts and README's `$ mpcp` examples
    /// run is an invocation the table accepts (or, after `!`, refuses).
    #[test]
    fn documented_invocations_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read =
            |path: String| std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut found = invocations(
            &read(format!("{root}/.github/workflows/ci.yml")),
            "./target/release/mpcp ",
        );
        found.extend(invocations(&read(format!("{root}/README.md")), "$ mpcp "));
        for script in std::fs::read_dir(format!("{root}/scripts")).unwrap() {
            let path = script.unwrap().path();
            found.extend(invocations(
                &read(path.display().to_string()),
                "\"$MPCP_BIN\" ",
            ));
        }
        assert!(found.len() >= 20, "only {} invocations found", found.len());
        assert!(found.iter().any(|(refused, _)| *refused));
        for (refused, words) in found {
            let outcome = parse(command(&words[0]), &words[1..]);
            assert_eq!(outcome.is_err(), refused, "{words:?}: {:?}", outcome.err());
        }
    }
}
