//! `compare OLD.json NEW.json`: a speed-up or a regression is a diff of
//! two ledgers, judged per workload and per metric against the bound
//! the benchmark fixed, never a combined score.

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{judge, worsening, Summary, Verdict};
use mpcp_service::json::{self, Value};
use std::io;

fn load(path: &str) -> io::Result<Value> {
    let text = std::fs::read_to_string(path)?;
    let ledger = json::parse(&text).map_err(|e| io::Error::other(format!("{path}: {e}")))?;
    let fit = ledger
        .get("header")
        .and_then(|h| h.get("fit_for_comparison"))
        .and_then(Value::as_bool);
    if fit != Some(true) {
        return Err(io::Error::other(format!(
            "{path} is not a full ledger (quick runs are unfit for comparison)"
        )));
    }
    Ok(ledger)
}

fn summary(ledger: &Value, workload: &str, metric: &str) -> Option<Summary> {
    let m = ledger
        .get("end_to_end")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(Summary {
        median: m.get("median")?.as_f64()?,
        min: m.get("min")?.as_f64()?,
        max: m.get("max")?.as_f64()?,
        n: m.get("n")?.as_u64()? as usize,
    })
}

/// One row of the comparison.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub old: Summary,
    pub new: Summary,
    /// Positive is worse, as a share of the old median.
    pub worsening: f64,
    pub bound: f64,
    pub verdict: Verdict,
    /// See [`Workload::placeholder`](crate::spec::Workload::placeholder).
    pub placeholder: bool,
}

/// Every (workload, metric) pair both ledgers have, each in its own
/// row, plus a row for every workload whose failed count rose.
pub fn rows(old: &Value, new: &Value) -> Vec<Row> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(o), Some(n)) = (summary(old, w.name, m.name), summary(new, w.name, m.name))
            else {
                continue;
            };
            out.push(Row {
                workload: w.name,
                metric: m.name,
                old: o,
                new: n,
                worsening: worsening(o.median, n.median, m.better),
                bound: m.bound,
                verdict: judge(&o, &n, m.better, m.bound),
                placeholder: w.placeholder(m.name).is_some(),
            });
        }
    }
    out
}

fn failed(ledger: &Value, workload: &str) -> Option<u64> {
    ledger
        .get("end_to_end")?
        .get(workload)?
        .get("failed")?
        .as_u64()
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(old_path: &str, new_path: &str) -> io::Result<bool> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    let rows = rows(&old, &new);
    if rows.is_empty() {
        return Err(io::Error::other("the ledgers share no end-to-end metric"));
    }
    println!(
        "{:<15} {:<15} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "worse by", "bound"
    );
    let mut ok = true;
    for r in &rows {
        println!(
            "{:<15} {:<15} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%  {}{}",
            r.workload,
            r.metric,
            r.old.median,
            r.new.median,
            r.worsening * 100.0,
            r.bound * 100.0,
            r.verdict.name(),
            if r.placeholder {
                "  (placeholder: follows another row)"
            } else {
                ""
            }
        );
        ok &= r.verdict != Verdict::Regression;
    }
    // Any increase in failed operations is a regression by itself.
    for w in &WORKLOADS {
        if let (Some(o), Some(n)) = (failed(&old, w.name), failed(&new, w.name)) {
            if n > o {
                println!(
                    "{:<15} failed operations rose from {o} to {n}  REGRESSION",
                    w.name
                );
                ok = false;
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(ops_per_s: [f64; 3], failed: u64) -> Value {
        let [min, median, max] = ops_per_s;
        let metric = Value::obj([
            ("median", Value::Num(median)),
            ("min", Value::Num(min)),
            ("max", Value::Num(max)),
            ("n", Value::from(3u64)),
        ]);
        Value::obj([(
            "end_to_end",
            Value::obj([(
                "sweep-default",
                Value::obj([
                    ("failed", Value::from(failed)),
                    ("metrics", Value::obj([("ops_per_s", metric)])),
                ]),
            )]),
        )])
    }

    #[test]
    fn a_throughput_drop_beyond_the_bound_is_a_regression_row() {
        let old = ledger([118.0, 120.0, 121.0], 0);
        let slow = ledger([79.0, 80.0, 81.0], 0);
        let r = rows(&old, &slow);
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].workload, r[0].metric), ("sweep-default", "ops_per_s"));
        assert_eq!(r[0].verdict, Verdict::Regression);
        assert!(!r[0].placeholder);
        assert!((r[0].worsening - 40.0 / 120.0).abs() < 1e-12);
        let same = rows(&old, &ledger([117.0, 119.0, 122.0], 0));
        assert_eq!(same[0].verdict, Verdict::Ok);
        let fast = rows(&old, &ledger([140.0, 141.0, 142.0], 0));
        assert_eq!(fast[0].verdict, Verdict::Better);
    }

    #[test]
    fn failed_counts_are_read_per_workload() {
        assert_eq!(
            failed(&ledger([1.0, 1.0, 1.0], 3), "sweep-default"),
            Some(3)
        );
        assert_eq!(failed(&ledger([1.0, 1.0, 1.0], 3), "serve-open"), None);
    }
}
