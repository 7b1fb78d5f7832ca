//! The ledger: one JSON file, `benchmark/out/ledger.json`, whose
//! `end_to_end` section `run` fills and whose `per_layer` section
//! `trace` fills. Both carry the same header, and a section written by
//! the other mode survives only while that header still describes it.

use crate::measure::{out_dir, Measured};
use crate::replay::Layers;
use crate::spec::{Workload, END_TO_END, HARNESS_VERSION};
use crate::stats::Summary;
use mpcp_service::json::{self, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What an invocation was asked to do; part of the ledger's identity.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub seed: u64,
    pub seconds: f64,
    pub repeats: usize,
    /// One tenth the sizes and a single repeat: a smoke run, unfit for
    /// comparison.
    pub quick: bool,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host, toolchain and commit. Outside a git checkout the commit reads
/// "unknown" and the dirty flag `null`.
fn fingerprint() -> Vec<(&'static str, Value)> {
    let text = |s: Option<String>| Value::str(s.unwrap_or_else(|| "unknown".to_owned()));
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let dirty = command_line("git", &["status", "--porcelain"]);
    vec![
        (
            "host",
            Value::obj([
                ("nproc", Value::from(nproc)),
                ("cpu_model", Value::str(cpu_model())),
                (
                    "kernel",
                    text(
                        std::fs::read_to_string("/proc/sys/kernel/osrelease")
                            .ok()
                            .map(|s| s.trim().to_owned()),
                    ),
                ),
                ("rustc", text(command_line("rustc", &["-V"]))),
            ]),
        ),
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
        (
            "dirty",
            dirty.map_or(Value::Null, |d| Value::Bool(!d.is_empty())),
        ),
    ]
}

fn header(request: &Request, wall_s: f64) -> Value {
    let mut pairs = vec![
        ("ledger", Value::str("mpcp-benchmark")),
        ("harness_version", Value::str(HARNESS_VERSION)),
    ];
    pairs.extend(fingerprint());
    pairs.extend([
        ("seed", Value::from(request.seed)),
        ("seconds", Value::Num(request.seconds)),
        ("repeats", Value::from(request.repeats)),
        ("quick", Value::Bool(request.quick)),
        ("fit_for_comparison", Value::Bool(!request.quick)),
        ("wall_s", Value::Num(wall_s)),
    ]);
    Value::obj(pairs)
}

/// The header fields that must agree for two sections to share a file.
fn identity(header: &Value) -> Vec<Option<&Value>> {
    [
        "harness_version",
        "commit",
        "dirty",
        "seed",
        "seconds",
        "quick",
    ]
    .iter()
    .map(|k| header.get(k))
    .collect()
}

fn summary_json(s: &Summary) -> Vec<(&'static str, Value)> {
    vec![
        ("median", Value::Num(s.median)),
        ("min", Value::Num(s.min)),
        ("max", Value::Num(s.max)),
        ("n", Value::from(s.n)),
    ]
}

/// One workload's `end_to_end` entry: the gated metrics, then under
/// `info` everything ungated, each taken over all repeats.
pub fn e2e_entry(w: &Workload, m: &Measured) -> Value {
    let metrics = END_TO_END
        .iter()
        .zip(m.summaries())
        .map(|(metric, summary)| {
            let mut pairs = vec![
                ("unit", Value::str(metric.unit)),
                ("better", Value::str(metric.better.name())),
                ("bound", Value::Num(metric.bound)),
            ];
            pairs.extend(summary_json(&summary));
            if let Some(why) = w.placeholder(metric.name) {
                pairs.push(("placeholder", Value::str(why)));
            }
            (metric.name.to_owned(), Value::obj(pairs))
        })
        .collect();
    let mut info: Vec<(String, Value)> = m
        .info()
        .into_iter()
        .map(|i| {
            let mut pairs = vec![("unit", Value::str(i.unit))];
            pairs.extend(summary_json(&i.summary));
            (i.name, Value::obj(pairs))
        })
        .collect();
    let share = m.checker.failed as f64 / m.checker.attempted.max(1) as f64;
    info.push(("failed_share".to_owned(), Value::Num(share)));
    info.push(("timed_s".to_owned(), Value::Num(m.timed_s())));
    let first = &m.repeats[0].detail;
    if !first.report_hash.is_empty() {
        let hash = Value::str(first.report_hash.clone());
        info.push(("report_hash".to_owned(), hash));
    }
    if !first.rungs.is_empty() {
        info.push((
            "rungs".to_owned(),
            Value::Arr(
                m.ladder()
                    .iter()
                    .map(|r| {
                        Value::obj([
                            ("rate", Value::from(r.rate)),
                            ("requests", Value::from(r.requests)),
                            ("p50_us", Value::Num(r.p50_us)),
                            ("p90_us", Value::Num(r.p90_us)),
                            ("p99_us", Value::Num(r.p99_us)),
                            ("max_us", Value::Num(r.max_us)),
                            ("lateness_p50_us", Value::Num(r.lateness_p50_us)),
                            ("lateness_p99_us", Value::Num(r.lateness_p99_us)),
                            ("backlog_mid", Value::from(r.backlog_mid)),
                            ("backlog_end", Value::from(r.backlog_end)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Value::obj([
        ("correct", Value::Bool(m.checker.correct())),
        ("attempted", Value::from(m.checker.attempted)),
        ("failed", Value::from(m.checker.failed)),
        (
            "problems",
            Value::Arr(m.checker.problems.iter().map(Value::str).collect()),
        ),
        ("metrics", Value::Obj(metrics)),
        ("info", Value::Obj(info)),
    ])
}

/// One workload's `per_layer` entry.
pub fn layer_entry(l: &Layers) -> Value {
    let metrics = l
        .rows
        .iter()
        .map(|row| {
            let value = [
                ("value", Value::Num(row.value)),
                ("unit", Value::str(row.unit)),
            ];
            (row.name.clone(), Value::obj(value))
        })
        .collect();
    Value::obj([
        ("correct", Value::Bool(l.checker.correct())),
        ("attempted", Value::from(l.checker.attempted)),
        ("failed", Value::from(l.checker.failed)),
        (
            "problems",
            Value::Arr(l.checker.problems.iter().map(Value::str).collect()),
        ),
        ("span_file", Value::str(relative(&l.span_file))),
        ("spans", Value::from(l.spans)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// `path` as seen from `benchmark/`, so a checked-in ledger names no
/// directory of the host it was recorded on.
fn relative(path: &Path) -> String {
    path.strip_prefix(env!("CARGO_MANIFEST_DIR"))
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned()
}

pub fn path() -> PathBuf {
    out_dir().join("ledger.json")
}

/// Writes `section` (`"end_to_end"` or `"per_layer"`) and keeps the
/// other one if the file on disk has the same identity.
pub fn write(
    section: &'static str,
    entries: Vec<(String, Value)>,
    request: &Request,
    wall_s: f64,
) -> io::Result<PathBuf> {
    let header = header(request, wall_s);
    let other = if section == "end_to_end" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let kept = std::fs::read_to_string(path())
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .filter(|old| {
            old.get("header")
                .is_some_and(|h| identity(h) == identity(&header))
        })
        .and_then(|old| old.get(other).cloned());
    let mut pairs = vec![("header", header), (section, Value::Obj(entries))];
    if let Some(kept) = kept {
        pairs.push((other, kept));
    }
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(path(), Value::obj(pairs).encode() + "\n")?;
    Ok(path())
}

pub fn print_e2e(w: &Workload, m: &Measured) {
    println!(
        "{}  attempted {}  failed {}  timed {:.2} s",
        w.name,
        m.checker.attempted,
        m.checker.failed,
        m.timed_s()
    );
    for (metric, s) in END_TO_END.iter().zip(m.summaries()) {
        println!(
            "  {:<22} {:>14.4} {:<5} [{:.4} .. {:.4}] n={}  ({} is better, bound {:.0} %{})",
            metric.name,
            s.median,
            metric.unit,
            s.min,
            s.max,
            s.n,
            metric.better.name(),
            metric.bound * 100.0,
            w.placeholder(metric.name)
                .map_or(String::new(), |why| format!("; placeholder: {why}"))
        );
    }
    for i in m.info() {
        let s = i.summary;
        println!(
            "  {:<22} {:>14.4} {:<5} [{:.4} .. {:.4}] n={}  (ungated)",
            i.name, s.median, i.unit, s.min, s.max, s.n
        );
    }
    for p in &m.checker.problems {
        println!("  FAILED: {p}");
    }
}

pub fn print_layers(w: &Workload, l: &Layers) {
    println!(
        "{}  attempted {}  failed {}  spans {} -> {}",
        w.name,
        l.checker.attempted,
        l.checker.failed,
        l.spans,
        l.span_file.display()
    );
    for row in l.rows.iter().filter(|row| row.value != 0.0) {
        println!("  {:<32} {:>14.4} {}", row.name, row.value, row.unit);
    }
    for p in &l.checker.problems {
        println!("  FAILED: {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_ignores_wall_time_but_not_the_seed() {
        let r = Request {
            seed: 1,
            seconds: 10.0,
            repeats: 3,
            quick: false,
        };
        let a = header(&r, 1.0);
        let b = header(&r, 99.0);
        assert_eq!(identity(&a), identity(&b));
        let c = header(&Request { seed: 2, ..r }, 1.0);
        assert_ne!(identity(&a), identity(&c));
        assert_eq!(
            a.get("fit_for_comparison").and_then(Value::as_bool),
            Some(true)
        );
        let q = header(&Request { quick: true, ..r }, 1.0);
        assert_eq!(
            q.get("fit_for_comparison").and_then(Value::as_bool),
            Some(false)
        );
    }
}
