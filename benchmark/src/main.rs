//! The repository's benchmark harness. See `benchmark/README.md`.
//!
//! ```text
//! mpcp-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! mpcp-benchmark run   [--seed N] [--seconds S] [--quick]        every workload, end-to-end, ledger
//! mpcp-benchmark trace [--seed N] [--seconds S] [--quick]        every workload, per-layer, span files
//! mpcp-benchmark compare OLD.json NEW.json                       diff two ledgers against the bounds
//! mpcp-benchmark manifest                                        print BENCHMARK.json
//! mpcp-benchmark pins                                            print workloads/*.json afresh
//! mpcp-benchmark selftest                                        the harness's own timing check
//! ```
//!
//! `serve-child` and `sweep-child` are the processes under test, which
//! the harness starts from its own executable.

mod child;
mod compare;
mod host;
mod inputs;
mod ledger;
mod loadgen;
mod measure;
mod replay;
mod spec;
mod stats;
mod trace;

use measure::{Extras, Measured};
use mpcp_service::json::{self, Value};
use spec::{Workload, END_TO_END, PINNED_SEED, REPEATS, RUN_SECONDS, WORKLOADS};
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: mpcp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       mpcp-benchmark run|trace [--seed <n>] [--seconds <s>] [--quick]
       mpcp-benchmark compare OLD.json NEW.json
       mpcp-benchmark manifest | pins | selftest";

/// Flags of the driver form and of `run`/`trace`.
struct Flags {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

/// The driver form takes `--workload` and `--trace` and no `--quick`;
/// `run`/`trace` (`ledger`) are the other way round: they always run
/// every workload.
fn parse_flags(args: &[String], ledger: bool) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: PINNED_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let for_ledger = flag == "--quick";
        let for_driver = flag == "--workload" || flag == "--trace";
        if (for_ledger && !ledger) || (for_driver && ledger) {
            return Err(format!("unknown flag {flag}"));
        }
        if for_ledger {
            flags.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} requires a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                flags.workload = Some(spec::workload(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(" ")
                    )
                })?);
            }
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                flags.seconds = value.parse().map_err(|_| bad())?;
                if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from(attempted.max(1))),
        ("failed", Value::from(failed)),
        ("metrics", Value::Obj(metrics)),
    ])
    .encode()
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

fn e2e_line(m: &Measured) -> String {
    let metrics = END_TO_END
        .iter()
        .zip(m.robust())
        .map(|(e, value)| (e.name.to_owned(), metric(value, e.unit)))
        .collect();
    result_line(
        m.checker.correct(),
        m.checker.attempted,
        m.checker.failed,
        metrics,
    )
}

fn layer_line(l: &replay::Layers) -> String {
    let metrics = l
        .rows
        .iter()
        .map(|row| (row.name.clone(), metric(row.value, row.unit)))
        .collect();
    result_line(
        l.checker.correct(),
        l.checker.attempted,
        l.checker.failed,
        metrics,
    )
}

/// The driver form: one workload, progress on stderr, the result as the
/// last line of stdout. A run that measured exits 0 even when a check
/// failed; the line says so.
fn driver(flags: &Flags) -> io::Result<()> {
    let w = flags
        .workload
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "--workload is required"))?;
    let line = if flags.trace {
        let layers = replay::trace(w, flags.seed, flags.seconds)?;
        report_problems(&layers.checker.problems);
        layer_line(&layers)
    } else {
        let measured = measure::measure(w, flags.seed, flags.seconds, REPEATS, Extras::NONE)?;
        report_problems(&measured.checker.problems);
        e2e_line(&measured)
    };
    let mut out = io::stdout().lock();
    writeln!(out, "{line}")?;
    out.flush()
}

fn report_problems(problems: &[String]) {
    for p in problems {
        eprintln!("FAILED: {p}");
    }
}

/// `run` and `trace`: every workload, a table on stdout, the ledger on
/// disk. Fails when any check failed.
fn ledger_mode(flags: &Flags) -> io::Result<bool> {
    let started = Instant::now();
    let (seconds, repeats) = if flags.quick {
        (flags.seconds / 10.0, 1)
    } else {
        (flags.seconds, REPEATS)
    };
    let request = ledger::Request {
        seed: flags.seed,
        seconds,
        repeats,
        quick: flags.quick,
    };
    if flags.quick {
        println!("QUICK RUN: one tenth the sizes, one repeat. Unfit for comparison.");
    }
    let mut entries = Vec::new();
    let mut correct = true;
    for w in &WORKLOADS {
        if flags.trace {
            let layers = replay::trace(w, flags.seed, seconds)?;
            ledger::print_layers(w, &layers);
            correct &= layers.checker.correct();
            entries.push((w.name.to_owned(), ledger::layer_entry(&layers)));
        } else {
            let extras = Extras {
                parallel_passes: Extras::WARM_PARALLEL_PASSES,
                pings: 0,
            };
            let measured = measure::measure(w, flags.seed, seconds, repeats, extras)?;
            ledger::print_e2e(w, &measured);
            correct &= measured.checker.correct();
            entries.push((w.name.to_owned(), ledger::e2e_entry(w, &measured)));
        }
    }
    let section = if flags.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let wall_s = started.elapsed().as_secs_f64();
    let path = ledger::write(section, entries, &request, wall_s)?;
    println!("ledger: {}  ({wall_s:.1} s)", path.display());
    Ok(correct)
}

/// Prints, per workload, what its `workloads/*.json` should hold: the
/// totals of one full-size run at [`PINNED_SEED`], which is the only
/// seed and size they are ever checked at.
fn pins() -> io::Result<()> {
    let seed = PINNED_SEED;
    for w in &WORKLOADS {
        let m = measure::measure(w, seed, RUN_SECONDS as f64, REPEATS, Extras::NONE)?;
        let detail = &m.repeats[0].detail;
        let pinned = match w.kind {
            spec::Kind::Sweep(s) => {
                let jobs = replay::sweep_jobs(&s, seed);
                let arms = s
                    .arms
                    .iter()
                    .zip(jobs)
                    .map(|(kind, jobs)| {
                        let from_report = detail.arms.as_ref().and_then(|a| a.get(kind.name()));
                        let field = |k: &str| {
                            from_report
                                .and_then(|a| a.get(k))
                                .cloned()
                                .unwrap_or(Value::Null)
                        };
                        (
                            kind.name().to_owned(),
                            Value::obj([
                                ("no_miss", field("no_miss")),
                                ("accepted", field("accepted")),
                                ("jobs", Value::from(jobs)),
                            ]),
                        )
                    })
                    .collect();
                Value::obj([
                    ("report_hash", Value::str(detail.report_hash.clone())),
                    ("arms", Value::Obj(arms)),
                ])
            }
            spec::Kind::Closed(_) | spec::Kind::Open(_) => Value::obj([
                ("requests", Value::from(m.repeats[0].ops())),
                ("admitted", Value::from(detail.admitted)),
            ]),
            // Every edit must be admitted; there is no total to pin.
            spec::Kind::Edits(_) => Value::obj([]),
        };
        let file = Value::obj([("workload", Value::str(w.name)), ("pinned", pinned)]);
        println!("{}", file.encode());
    }
    Ok(())
}

/// The harness's own timing check: a layer timer that keeps results
/// alive across iterations once made `json::parse` of a 2 KB line read
/// 159 us instead of 17. Parsing with the result dropped inside the
/// loop must stay under 60 us.
fn selftest() -> io::Result<bool> {
    const LINES: u64 = 2000;
    const LIMIT_US: f64 = 60.0;
    let lines: Vec<String> = (0..LINES)
        .map(|i| inputs::submission(PINNED_SEED, i).0)
        .collect();
    let bytes = lines.iter().map(String::len).sum::<usize>() / lines.len();
    let mut rec = trace::Recorder::new();
    let parse = rec.name("service.json_parse");
    for _ in 0..2 {
        // First round warms up; only the second is read.
        rec.clear();
        for (i, line) in lines.iter().enumerate() {
            rec.time(parse, i as u32, None, || drop(json::parse(line)));
        }
    }
    let us = rec.totals().us_per(parse, LINES);
    let ok = us < LIMIT_US;
    println!(
        "selftest: json::parse of a {bytes}-byte submission takes {us:.1} us (limit {LIMIT_US} us): {}",
        if ok { "ok" } else { "FAILED" }
    );
    Ok(ok)
}

fn run(args: &[String]) -> io::Result<bool> {
    let invalid = |m: String| io::Error::new(io::ErrorKind::InvalidInput, m);
    let Some(first) = args.first() else {
        return Err(invalid(USAGE.to_owned()));
    };
    match first.as_str() {
        "serve-child" => {
            let cpu = args.get(1).and_then(|c| c.parse().ok());
            child::serve_child(cpu, args.get(2).map(Path::new)).map(|()| true)
        }
        "sweep-child" => {
            let (Some(workload), Some(Ok(seed))) = (args.get(1), args.get(2).map(|s| s.parse()))
            else {
                return Err(invalid("sweep-child <workload> <seed>".to_owned()));
            };
            child::sweep_child(workload, seed).map(|()| true)
        }
        "run" | "trace" => {
            let mut flags = parse_flags(&args[1..], true).map_err(invalid)?;
            flags.trace = first == "trace";
            ledger_mode(&flags)
        }
        "compare" => match &args[1..] {
            [old, new] => compare::compare(old, new),
            _ => Err(invalid("compare OLD.json NEW.json".to_owned())),
        },
        "manifest" => {
            print!("{}", spec::manifest_text());
            Ok(true)
        }
        "pins" => match &args[1..] {
            [] => pins().map(|()| true),
            _ => Err(invalid("pins takes no flags".to_owned())),
        },
        "selftest" => selftest(),
        flag if flag.starts_with("--") => {
            driver(&parse_flags(args, false).map_err(invalid)?).map(|()| true)
        }
        other => Err(invalid(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mpcp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
