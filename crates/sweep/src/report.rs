//! Sweep result aggregation and rendering.
//!
//! [`SweepReport::build`] is the one place per-scenario outcomes are
//! folded into (protocol × grid point) cells; `mpcp sweep` and
//! `mpcp shootout` ([`crate::ShootoutReport`]) are two projections of
//! the same tallies.
//!
//! The report is split into a *canonical* part — everything derived
//! deterministically from the seed set — and *timing* fields (elapsed
//! wall-clock, throughput, worker count). [`SweepReport::hash`] covers
//! only the canonical part, so the same seed set must produce the same
//! hash for any `--jobs` value; the determinism regression test pins
//! exactly that.

use crate::config::SweepConfig;
use crate::oracle::ScenarioOutcome;
use mpcp_json::Value;
use std::collections::BTreeMap;

/// One point of a per-protocol acceptance curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Protocol name.
    pub protocol: String,
    /// Per-processor utilization of the grid point.
    pub utilization: f64,
    /// Scenarios evaluated at this point.
    pub scenarios: u64,
    /// Scenarios simulated without a deadline miss.
    pub no_miss: u64,
    /// Scenarios the protocol's analytical test accepted, when one
    /// applies.
    pub analysis_accepted: Option<u64>,
    /// Scenarios where the RTA recurrence converged for all tasks
    /// (MPCP only).
    pub rta_accepted: Option<u64>,
    /// Oracle violations attributed to this protocol at this point,
    /// every occurrence counted (not part of the sweep's canonical
    /// JSON; the shootout prints it).
    pub violations: u64,
}

impl CurvePoint {
    /// `count / scenarios`, `None` at a grid point no scenario landed on.
    pub(crate) fn ratio(&self, count: u64) -> Option<f64> {
        (self.scenarios > 0).then(|| count as f64 / self.scenarios as f64)
    }
}

/// One reported oracle violation, optionally with a shrunk fixture.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// Scenario stream index.
    pub scenario: u64,
    /// Generator seed of the offending system.
    pub seed: u64,
    /// Per-processor utilization target.
    pub utilization: f64,
    /// Violation class code (see
    /// [`ViolationKind::code`](crate::ViolationKind::code)).
    pub code: String,
    /// Concrete values of the first violation of this class.
    pub detail: String,
    /// Ready-to-paste minimized fixture, when shrinking ran.
    pub fixture: Option<String>,
    /// Oracle evaluations the shrink spent.
    pub shrink_evals: usize,
}

/// Aggregated result of a sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Scenarios evaluated.
    pub scenarios: u64,
    /// Base seed.
    pub seed: u64,
    /// Utilization grid.
    pub grid: Vec<f64>,
    /// Protocols simulated.
    pub protocols: Vec<String>,
    /// Scenarios where the MPCP bounds applied.
    pub analyzable: u64,
    /// Acceptance curves, grouped by protocol then utilization
    /// ([`SweepReport::point`] indexes them).
    pub curves: Vec<CurvePoint>,
    /// Per protocol: highest grid utilization with a no-miss ratio of
    /// at least one half (the simulated breakdown utilization).
    pub breakdown_utilization: Vec<(String, Option<f64>)>,
    /// Oracle violations, in scenario order, one per violation class
    /// per scenario.
    pub violations: Vec<ViolationReport>,
    /// Distinct oracle-violation codes with their occurrence counts
    /// (every occurrence, unlike [`SweepReport::violations`]), in code
    /// order. Not part of the sweep's canonical JSON.
    pub violation_codes: Vec<(String, u64)>,
    /// Wall-clock seconds (timing; excluded from the hash).
    pub elapsed_s: f64,
    /// Worker threads used (timing; excluded from the hash).
    pub jobs: usize,
}

impl SweepReport {
    /// Aggregates per-scenario outcomes into the report.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is empty while `outcomes` is not: a scenario's
    /// index names its grid point ([`mpcp_taskgen::ScenarioStream`]
    /// never has an empty grid).
    pub fn build(
        cfg: &SweepConfig,
        grid: &[f64],
        outcomes: &[ScenarioOutcome],
        violations: Vec<ViolationReport>,
        elapsed_s: f64,
    ) -> SweepReport {
        let protocols: Vec<String> = cfg.protocols.iter().map(|k| k.name().to_string()).collect();
        let mut curves: Vec<CurvePoint> = protocols
            .iter()
            .flat_map(|proto| {
                grid.iter().map(move |&utilization| CurvePoint {
                    protocol: proto.clone(),
                    utilization,
                    scenarios: 0,
                    no_miss: 0,
                    analysis_accepted: None,
                    rta_accepted: None,
                    violations: 0,
                })
            })
            .collect();
        let mut codes: BTreeMap<String, u64> = BTreeMap::new();
        for o in outcomes {
            let gi = (o.index % grid.len() as u64) as usize;
            for (pi, p) in o.protocols.iter().enumerate() {
                let point = &mut curves[pi * grid.len() + gi];
                point.scenarios += 1;
                point.no_miss += u64::from(p.misses == 0);
                if let Some(ok) = p.analysis_accepted {
                    *point.analysis_accepted.get_or_insert(0) += u64::from(ok);
                }
                if let Some(ok) = p.rta_accepted {
                    *point.rta_accepted.get_or_insert(0) += u64::from(ok);
                }
                point.violations += p.violations.len() as u64;
            }
            for v in o.violations() {
                *codes.entry(v.code()).or_insert(0) += 1;
            }
        }
        let breakdown_utilization = protocols
            .iter()
            .enumerate()
            .map(|(pi, proto)| {
                let best = curves[pi * grid.len()..(pi + 1) * grid.len()]
                    .iter()
                    .filter(|c| c.scenarios > 0 && c.no_miss * 2 >= c.scenarios)
                    .map(|c| c.utilization)
                    .fold(None, |acc: Option<f64>, u| {
                        Some(acc.map_or(u, |a: f64| a.max(u)))
                    });
                (proto.clone(), best)
            })
            .collect();
        SweepReport {
            scenarios: outcomes.len() as u64,
            seed: cfg.seed,
            grid: grid.to_vec(),
            protocols,
            analyzable: outcomes.iter().filter(|o| o.analyzable).count() as u64,
            curves,
            breakdown_utilization,
            violations,
            violation_codes: codes.into_iter().collect(),
            elapsed_s,
            jobs: cfg.jobs,
        }
    }

    /// The cell of protocol `pi` (index into
    /// [`SweepReport::protocols`]) at grid point `gi`.
    pub fn point(&self, pi: usize, gi: usize) -> &CurvePoint {
        &self.curves[pi * self.grid.len() + gi]
    }

    /// The fields both projections' canonical JSON opens with.
    pub(crate) fn json_header(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("scenarios", Value::Num(self.scenarios as f64)),
            ("seed", Value::Num(self.seed as f64)),
            (
                "grid",
                Value::Arr(self.grid.iter().map(|&u| Value::Num(u)).collect()),
            ),
            (
                "protocols",
                Value::Arr(self.protocols.iter().map(Value::str).collect()),
            ),
        ]
    }

    /// `canonical` plus the timing fields both projections append.
    pub(crate) fn with_timing(&self, canonical: Value) -> Vec<(String, Value)> {
        let Value::Obj(mut fields) = canonical else {
            unreachable!("canonical_json returns an object")
        };
        fields.push(("elapsed_s".to_string(), Value::Num(self.elapsed_s)));
        fields.push(("jobs".to_string(), Value::Num(self.jobs as f64)));
        fields
    }

    /// The deterministic part of the report as JSON: identical for any
    /// worker count and across re-runs of the same seed set.
    pub fn canonical_json(&self) -> Value {
        let curves = self
            .curves
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("protocol", Value::str(&c.protocol)),
                    ("utilization", Value::Num(c.utilization)),
                    ("scenarios", Value::Num(c.scenarios as f64)),
                    ("no_miss", Value::Num(c.no_miss as f64)),
                ];
                if let Some(a) = c.analysis_accepted {
                    fields.push(("analysis_accepted", Value::Num(a as f64)));
                }
                if let Some(a) = c.rta_accepted {
                    fields.push(("rta_accepted", Value::Num(a as f64)));
                }
                Value::obj(fields)
            })
            .collect();
        let breakdown = self
            .breakdown_utilization
            .iter()
            .map(|(proto, best)| {
                Value::obj([
                    ("protocol", Value::str(proto)),
                    ("utilization", best.map_or(Value::Null, Value::Num)),
                ])
            })
            .collect();
        let violations = self
            .violations
            .iter()
            .map(|v| {
                let mut fields = vec![
                    ("scenario", Value::Num(v.scenario as f64)),
                    ("seed", Value::Num(v.seed as f64)),
                    ("utilization", Value::Num(v.utilization)),
                    ("code", Value::str(&v.code)),
                    ("detail", Value::str(&v.detail)),
                ];
                if let Some(fix) = &v.fixture {
                    fields.push(("fixture", Value::str(fix)));
                    fields.push(("shrink_evals", Value::Num(v.shrink_evals as f64)));
                }
                Value::obj(fields)
            })
            .collect();
        let mut fields = self.json_header();
        fields.extend([
            ("analyzable", Value::Num(self.analyzable as f64)),
            ("curves", Value::Arr(curves)),
            ("breakdown_utilization", Value::Arr(breakdown)),
            ("violations", Value::Arr(violations)),
        ]);
        Value::obj(fields)
    }

    fn scenarios_per_s(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.scenarios as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// The full report as JSON, timing fields included.
    pub fn to_json(&self) -> Value {
        let mut fields = self.with_timing(self.canonical_json());
        fields.push((
            "scenarios_per_s".to_string(),
            Value::Num(self.scenarios_per_s()),
        ));
        Value::Obj(fields)
    }

    /// FNV-1a hash of the canonical JSON encoding.
    pub fn hash(&self) -> u64 {
        mpcp_json::fnv1a(self.canonical_json().encode().as_bytes())
    }

    /// The acceptance curves as CSV.
    pub fn csv(&self) -> String {
        let mut out =
            String::from("protocol,utilization,scenarios,no_miss,analysis_accepted,rta_accepted\n");
        for c in &self.curves {
            out.push_str(&format!(
                "{},{:.4},{},{},{},{}\n",
                c.protocol,
                c.utilization,
                c.scenarios,
                c.no_miss,
                csv_count(c.analysis_accepted),
                csv_count(c.rta_accepted),
            ));
        }
        out
    }

    /// Appends one `title` table to `out`: a row per grid point, a
    /// column per protocol, `cell`'s ratio to two places (`-` where it
    /// has none).
    pub(crate) fn ratio_table(
        &self,
        out: &mut String,
        title: &str,
        cell: impl Fn(&CurvePoint) -> Option<f64>,
    ) {
        let col = self
            .protocols
            .iter()
            .map(|p| p.len() + 2)
            .max()
            .unwrap_or(9)
            .max(9);
        out.push_str(&format!("\n{title}\n  util "));
        for proto in &self.protocols {
            out.push_str(&format!("{proto:>col$}"));
        }
        out.push('\n');
        for (gi, util) in self.grid.iter().enumerate() {
            out.push_str(&format!("  {util:.2} "));
            for pi in 0..self.protocols.len() {
                match cell(self.point(pi, gi)) {
                    Some(ratio) => out.push_str(&format!("{ratio:>col$.2}")),
                    None => out.push_str(&format!("{:>col$}", "-")),
                }
            }
            out.push('\n');
        }
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sweep: {} scenarios, seed {}, {} analyzable, {} violation(s)\n",
            self.scenarios,
            self.seed,
            self.analyzable,
            self.violations.len()
        ));
        out.push_str(&format!(
            "       {:.2}s elapsed, {:.0} scenarios/s, {} worker(s)\n",
            self.elapsed_s,
            self.scenarios_per_s(),
            self.jobs
        ));
        // An unpopulated grid point prints as 0.00 here, not `-`.
        self.ratio_table(&mut out, "no-miss ratio by utilization", |c| {
            Some(c.ratio(c.no_miss).unwrap_or(0.0))
        });
        out.push_str("\nbreakdown utilization (no-miss ratio >= 0.5)\n");
        for (proto, best) in &self.breakdown_utilization {
            match best {
                Some(u) => out.push_str(&format!("  {proto:>14}: {u:.2}\n")),
                None => out.push_str(&format!("  {proto:>14}: none\n")),
            }
        }
        if !self.violations.is_empty() {
            out.push_str("\noracle violations\n");
            for v in &self.violations {
                out.push_str(&format!(
                    "  scenario {} (seed {}, util {:.2}): {} — {}\n",
                    v.scenario, v.seed, v.utilization, v.code, v.detail
                ));
                if let Some(fix) = &v.fixture {
                    out.push_str(&format!("    shrunk fixture ({} evals):\n", v.shrink_evals));
                    for line in fix.lines() {
                        out.push_str(&format!("    {line}\n"));
                    }
                }
            }
        }
        out
    }
}

/// An optional tally as a CSV cell: empty when the column does not
/// apply to the protocol.
pub(crate) fn csv_count(v: Option<u64>) -> String {
    v.map_or(String::new(), |n| n.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ProtocolOutcome;
    use mpcp_protocols::ProtocolKind;

    fn outcome(index: u64, misses: u64) -> ScenarioOutcome {
        ScenarioOutcome {
            index,
            system_seed: 42 + index,
            utilization: 0.3,
            analyzable: true,
            protocols: vec![ProtocolOutcome {
                protocol: ProtocolKind::Mpcp,
                misses,
                completed: 10,
                analysis_accepted: Some(misses == 0),
                rta_accepted: Some(true),
                violations: Vec::new(),
            }],
            audit: Vec::new(),
        }
    }

    fn one_protocol_cfg() -> SweepConfig {
        SweepConfig {
            protocols: vec![ProtocolKind::Mpcp],
            seed: 42,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn hash_ignores_timing_but_covers_results() {
        let cfg = one_protocol_cfg();
        let grid = [0.3, 0.5];
        let outs = [outcome(0, 0), outcome(1, 1), outcome(2, 0)];
        let a = SweepReport::build(&cfg, &grid, &outs, Vec::new(), 1.0);
        let mut b = SweepReport::build(&cfg, &grid, &outs, Vec::new(), 9.0);
        b.jobs = 16;
        assert_eq!(a.hash(), b.hash());
        let differing = [outcome(0, 0), outcome(1, 0), outcome(2, 0)];
        let c = SweepReport::build(&cfg, &grid, &differing, Vec::new(), 1.0);
        assert_ne!(a.hash(), c.hash());
    }

    /// Tallies count every occurrence; the reported list stays one
    /// entry per class per scenario, and neither tally enters the
    /// sweep's canonical bytes.
    #[test]
    fn violation_tallies_count_occurrences_not_classes() {
        use crate::oracle::ViolationKind;
        let blocked = |task| ViolationKind::BlockingBound {
            protocol: "mpcp",
            task,
            measured: 9,
            bound: 5,
        };
        let cfg = SweepConfig {
            shrink: false,
            ..one_protocol_cfg()
        };
        let grid = [0.3, 0.5];
        let mut doctored = outcome(1, 0);
        doctored.protocols[0].violations = vec![blocked(0), blocked(2)];
        doctored.audit = vec![ViolationKind::DeltaDivergence {
            edit: "modify-task t".into(),
            line: 3,
        }];
        let outs = [outcome(0, 0), doctored];
        let listed = crate::reported_violations(&cfg, &cfg.stream(), &outs);
        let r = SweepReport::build(&cfg, &grid, &outs, listed, 0.0);
        assert_eq!(r.point(0, 0).violations, 0);
        assert_eq!(r.point(0, 1).violations, 2, "both occurrences, one class");
        assert_eq!(
            r.violation_codes,
            [
                ("delta/divergence".to_string(), 1),
                ("mpcp/blocking-bound".to_string(), 2)
            ]
        );
        let codes: Vec<&str> = r.violations.iter().map(|v| v.code.as_str()).collect();
        assert_eq!(codes, ["mpcp/blocking-bound", "delta/divergence"]);
        let canonical = r.canonical_json().encode();
        assert!(!canonical.contains("violation_codes"));
        assert!(!canonical.contains("\"violations\":2"));
    }

    #[test]
    fn curves_group_by_grid_index() {
        let cfg = one_protocol_cfg();
        let grid = [0.3, 0.5];
        // Indices 0 and 2 land on grid point 0; index 1 on grid point 1.
        let outs = [outcome(0, 0), outcome(1, 3), outcome(2, 0)];
        let r = SweepReport::build(&cfg, &grid, &outs, Vec::new(), 0.0);
        assert_eq!(r.curves.len(), 2);
        assert_eq!(r.curves[0].scenarios, 2);
        assert_eq!(r.curves[0].no_miss, 2);
        assert_eq!(r.curves[1].scenarios, 1);
        assert_eq!(r.curves[1].no_miss, 0);
        // Breakdown: only the 0.3 point keeps a >= 1/2 no-miss ratio.
        assert_eq!(r.breakdown_utilization[0].1, Some(0.3));
        let csv = r.csv();
        assert!(csv.lines().count() == 3);
        assert!(r.render_text().contains("breakdown utilization"));
    }
}
