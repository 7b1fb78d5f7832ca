//! Deterministic multi-threaded scenario sweeps.
//!
//! This crate drives the whole reproduction stack against itself: a
//! worker pool whose threads claim scenario indices from one shared
//! cursor consumes seeded scenarios from
//! [`mpcp_taskgen::ScenarioStream`], and for each one runs the §5.1
//! blocking bounds, Theorem 3 and RTA from `mpcp-analysis`, a
//! bounded-horizon simulation per protocol with trace invariants
//! enabled, and a differential oracle comparing observed blocking and
//! response times against the analytical bounds. Violations are
//! captured with their seed and shrunk to minimal reproducing systems,
//! emitted as ready-to-run test fixtures.
//!
//! The oracle's per-protocol arm has a second driver: the small-scope
//! model checker ([`checker`]) enumerates every release-offset variant
//! of one system and judges each through the same arm (`mpcp verify`).
//!
//! Determinism is a hard guarantee: scenario `i` is a pure function of
//! `seed + i`, workers only race for *which* index they evaluate, and
//! results are re-ordered by index before aggregation — so the same
//! seed set produces a byte-identical [`SweepReport`] (modulo the
//! explicit timing fields) for any `--jobs` value.
//!
//! # Example
//!
//! ```
//! use mpcp_sweep::{run, SweepConfig};
//!
//! let cfg = SweepConfig {
//!     scenarios: 20,
//!     jobs: 2,
//!     horizon_cap: 5_000,
//!     ..SweepConfig::default()
//! };
//! let report = run(&cfg);
//! assert_eq!(report.scenarios, 20);
//! // Same seeds, different worker count: identical canonical report.
//! let solo = run(&SweepConfig { jobs: 1, ..cfg });
//! assert_eq!(report.hash(), solo.hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
mod config;
mod oracle;
mod pool;
mod report;
mod shootout;
mod shrink;

pub use checker::{CheckerConfig, Exploration, Violation};
pub use config::SweepConfig;
pub use oracle::{
    audit_violations, evaluate_in, evaluate_system_in, horizon_for, ProtocolOutcome,
    ScenarioOutcome, ViolationKind, Workspace,
};
pub use pool::run_indexed_with;
pub use report::{CurvePoint, SweepReport, ViolationReport};
pub use shootout::{shootout, ShootoutReport};
pub use shrink::{fixture_snippet, shrink, Shrunk};

use std::time::Instant;

/// Runs the sweep described by `cfg` and aggregates the report.
pub fn run(cfg: &SweepConfig) -> SweepReport {
    let start = Instant::now();
    let stream = cfg.stream();
    let outcomes = pool::run_indexed_with(
        cfg.scenarios,
        cfg.jobs,
        oracle::Workspace::default,
        |ws, i| oracle::evaluate_in(ws, &stream.scenario_at(i as u64), cfg),
    );
    let violations = reported_violations(cfg, &stream, &outcomes);
    SweepReport::build(
        cfg,
        stream.grid(),
        &outcomes,
        violations,
        start.elapsed().as_secs_f64(),
    )
}

/// The violations a report lists: per scenario, the first of each
/// class. Shrunk sequentially, in scenario order, so the report stays
/// deterministic; only the first few are minimized to bound the extra
/// oracle evaluations.
fn reported_violations(
    cfg: &SweepConfig,
    stream: &mpcp_taskgen::ScenarioStream,
    outcomes: &[ScenarioOutcome],
) -> Vec<ViolationReport> {
    let mut violations = Vec::new();
    let mut fixtures = 0usize;
    for o in outcomes {
        let mut seen = Vec::new();
        for v in o.violations() {
            let code = v.code();
            if seen.contains(&code) {
                continue;
            }
            seen.push(code.clone());
            let mut entry = ViolationReport {
                scenario: o.index,
                seed: o.system_seed,
                utilization: o.utilization,
                code: code.clone(),
                detail: v.detail(),
                fixture: None,
                shrink_evals: 0,
            };
            // `delta/*` codes come from the audit arm, which the
            // per-protocol shrink oracle does not re-evaluate; shrinking
            // them would burn the eval budget without ever reproducing
            // the violation.
            if cfg.shrink && fixtures < cfg.max_fixtures && !code.starts_with("delta/") {
                fixtures += 1;
                let scenario = stream.scenario_at(o.index);
                let shrunk = shrink::shrink(&scenario.system, cfg, &code);
                let name = format!(
                    "shrunk_{}_seed_{}",
                    code.replace(['/', ':', '-'], "_"),
                    o.system_seed
                );
                let comment = format!(
                    "Shrunk sweep counterexample `{code}` (seed {}, scenario {}).",
                    o.system_seed, o.index
                );
                entry.fixture = Some(shrink::fixture_snippet(&shrunk.system, &name, &comment));
                entry.shrink_evals = shrunk.evals;
            }
            violations.push(entry);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            scenarios: 12,
            seed: 7,
            horizon_cap: 4_000,
            util_steps: 3,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn report_is_identical_across_worker_counts() {
        let base = run(&tiny());
        for jobs in [2, 4] {
            let par = run(&SweepConfig { jobs, ..tiny() });
            assert_eq!(base.hash(), par.hash(), "jobs = {jobs}");
            assert_eq!(
                base.canonical_json().encode(),
                par.canonical_json().encode(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn report_covers_every_protocol_and_grid_point() {
        let cfg = tiny();
        let r = run(&cfg);
        assert_eq!(r.scenarios, 12);
        assert_eq!(r.curves.len(), cfg.protocols.len() * cfg.util_steps);
        assert_eq!(
            r.curves.iter().map(|c| c.scenarios).sum::<u64>(),
            12 * cfg.protocols.len() as u64
        );
    }
}
