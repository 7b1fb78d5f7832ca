//! Sweep-engine scaling benchmark: scenarios/second of the full oracle
//! pipeline (generate → analyze → simulate five protocols → check) at
//! increasing worker counts, verifying along the way that every worker
//! count produces the byte-identical report.
//!
//! Prints one JSON document. The recorded sweep figures are the
//! `sweep-*` workloads of `benchmark/baseline/ledger.json` (see
//! `benchmark/README.md`), not a checked-in run of this binary. Scaling
//! numbers are only meaningful relative to the printed `cpus` value —
//! on a single-core container every worker count necessarily lands
//! within noise of jobs=1.

use mpcp_service::json::Value;
use mpcp_sweep::{run, SweepConfig};
use std::time::Instant;

const SCENARIOS: usize = 300;

fn config(jobs: usize) -> SweepConfig {
    SweepConfig {
        scenarios: SCENARIOS,
        seed: 42,
        jobs,
        shrink: false,
        ..SweepConfig::default()
    }
}

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if let Some(f) = &filter {
        if !"sweep/scaling".contains(f.as_str()) {
            return;
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut points = Vec::new();
    let mut hashes = Vec::new();
    for jobs in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let report = run(&config(jobs));
        let elapsed = start.elapsed().as_secs_f64();
        hashes.push(report.hash());
        points.push(Value::obj([
            ("jobs", Value::from(jobs)),
            ("elapsed_s", Value::from(elapsed)),
            ("scenarios_per_s", Value::from(SCENARIOS as f64 / elapsed)),
            ("violations", Value::from(report.violations.len())),
        ]));
    }

    let doc = Value::obj([
        ("bench", Value::str("sweep/scaling")),
        (
            "config",
            Value::obj([
                ("scenarios", Value::from(SCENARIOS)),
                ("seed", Value::from(42u64)),
                ("workload", Value::str("4 procs x 3 tasks, util 0.30-0.75")),
                ("cpus", Value::from(cpus)),
            ]),
        ),
        ("points", Value::Arr(points)),
        ("report_hash", Value::str(format!("{:016x}", hashes[0]))),
    ]);
    println!("{}", doc.encode());

    assert!(
        hashes.iter().all(|h| *h == hashes[0]),
        "report hash varies with worker count: {hashes:x?}"
    );
}
