//! The protocol shootout: every protocol, one grid, one report.
//!
//! `mpcp sweep` is the *hunting* pass — it runs a configurable protocol
//! subset with the audit arm and shrinks any oracle violation to a
//! fixture. The shootout is the *reporting* pass: the same
//! [`run`](crate::run) over [`ProtocolKind::ALL`] with audit and
//! shrinking off, and [`ShootoutReport`] a second projection of the
//! [`SweepReport`] it returns — the review-style acceptance curves
//! papers print: per grid point, the fraction of scenarios each
//! protocol survives without a deadline miss and the fraction its
//! admission analysis accepts, plus a ranking by acceptance area (the
//! mean no-miss ratio over the grid, i.e. the area under the acceptance
//! curve).
//!
//! Determinism matches the sweep: scenario `i` is a pure function of
//! `seed + i`, so the canonical JSON — and therefore
//! [`ShootoutReport::hash`] — is byte-identical for any `--jobs` value.
//! Timing fields are excluded from the hash. Oracle checks stay armed
//! (a violation in a shootout is still a bug).

use crate::config::SweepConfig;
use crate::report::{csv_count, SweepReport};
use mpcp_json::Value;
use mpcp_protocols::ProtocolKind;

/// The shootout's view of a sweep over every protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ShootoutReport {
    /// The tallies this report projects.
    pub sweep: SweepReport,
}

/// Runs the shootout described by `cfg`.
///
/// The configuration's protocol list, audit and shrink switches are
/// overridden: the shootout always compares [`ProtocolKind::ALL`] and
/// never shrinks or audits — those belong to [`crate::run`].
pub fn shootout(cfg: &SweepConfig) -> ShootoutReport {
    ShootoutReport {
        sweep: crate::run(&SweepConfig {
            protocols: ProtocolKind::ALL.to_vec(),
            audit: false,
            shrink: false,
            ..cfg.clone()
        }),
    }
}

impl ShootoutReport {
    /// Per protocol `(name, sim_area, analysis_area)`: the mean no-miss
    /// ratio over the populated grid points (the area under the
    /// simulated acceptance curve, in `[0, 1]`) and, for protocols with
    /// an admission analysis, the mean analysis-acceptance ratio.
    /// Ranked by `sim_area` descending, ties broken by name.
    fn ranking(&self) -> Vec<(&str, f64, Option<f64>)> {
        let r = &self.sweep;
        let mut ranking: Vec<(&str, f64, Option<f64>)> = (r.protocols.iter().enumerate())
            .map(|(pi, proto)| {
                // The areas' float bytes are part of the pinned hashes:
                // sum the ratios in grid order, then divide.
                let (mut sim, mut ana, mut has_analysis, mut populated) = (0.0, 0.0, false, 0u64);
                for c in (0..r.grid.len()).map(|gi| r.point(pi, gi)) {
                    let Some(ratio) = c.ratio(c.no_miss) else {
                        continue;
                    };
                    populated += 1;
                    sim += ratio;
                    if let Some(a) = c.analysis_accepted {
                        has_analysis = true;
                        ana += a as f64 / c.scenarios as f64;
                    }
                }
                let denom = populated.max(1) as f64;
                (
                    proto.as_str(),
                    sim / denom,
                    has_analysis.then_some(ana / denom),
                )
            })
            .collect();
        ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranking
    }

    /// Total oracle violations across all scenarios and protocols,
    /// every occurrence counted.
    pub fn violations_total(&self) -> u64 {
        self.sweep.violation_codes.iter().map(|(_, n)| n).sum()
    }

    /// The deterministic part of the report as JSON: identical for any
    /// worker count and across re-runs of the same seed set.
    pub fn canonical_json(&self) -> Value {
        let r = &self.sweep;
        let points = (r.grid.iter().enumerate())
            .map(|(gi, &utilization)| {
                let entries = (0..r.protocols.len())
                    .map(|pi| {
                        let c = r.point(pi, gi);
                        let mut fields = vec![
                            ("protocol", Value::str(&c.protocol)),
                            ("scenarios", Value::Num(c.scenarios as f64)),
                            ("no_miss", Value::Num(c.no_miss as f64)),
                        ];
                        if let Some(a) = c.analysis_accepted {
                            fields.push(("analysis_accepted", Value::Num(a as f64)));
                        }
                        fields.push(("violations", Value::Num(c.violations as f64)));
                        Value::obj(fields)
                    })
                    .collect();
                Value::obj([
                    ("utilization", Value::Num(utilization)),
                    ("entries", Value::Arr(entries)),
                ])
            })
            .collect();
        let ranking = (self.ranking().into_iter())
            .map(|(protocol, sim_area, analysis_area)| {
                let mut fields = vec![
                    ("protocol", Value::str(protocol)),
                    ("sim_area", Value::Num(sim_area)),
                ];
                if let Some(a) = analysis_area {
                    fields.push(("analysis_area", Value::Num(a)));
                }
                Value::obj(fields)
            })
            .collect();
        let codes = (r.violation_codes.iter())
            .map(|(code, count)| {
                Value::obj([
                    ("code", Value::str(code)),
                    ("count", Value::Num(*count as f64)),
                ])
            })
            .collect();
        let mut fields = r.json_header();
        fields.extend([
            ("points", Value::Arr(points)),
            ("ranking", Value::Arr(ranking)),
            ("violation_codes", Value::Arr(codes)),
            (
                "violations_total",
                Value::Num(self.violations_total() as f64),
            ),
        ]);
        Value::obj(fields)
    }

    /// The full report as JSON, timing fields included.
    pub fn to_json(&self) -> Value {
        Value::Obj(self.sweep.with_timing(self.canonical_json()))
    }

    /// FNV-1a hash of the canonical JSON encoding.
    pub fn hash(&self) -> u64 {
        mpcp_json::fnv1a(self.canonical_json().encode().as_bytes())
    }

    /// The acceptance tallies as CSV, one row per (utilization,
    /// protocol) pair.
    pub fn csv(&self) -> String {
        let r = &self.sweep;
        let mut out =
            String::from("protocol,utilization,scenarios,no_miss,analysis_accepted,violations\n");
        for gi in 0..r.grid.len() {
            for c in (0..r.protocols.len()).map(|pi| r.point(pi, gi)) {
                out.push_str(&format!(
                    "{},{:.4},{},{},{},{}\n",
                    c.protocol,
                    c.utilization,
                    c.scenarios,
                    c.no_miss,
                    csv_count(c.analysis_accepted),
                    c.violations,
                ));
            }
        }
        out
    }

    /// Review-style text rendering: the two acceptance-ratio tables and
    /// the ranking.
    pub fn render_text(&self) -> String {
        let r = &self.sweep;
        let mut out = format!(
            "shootout: {} protocols, {} scenarios, seed {}, {} violation(s)\n",
            r.protocols.len(),
            r.scenarios,
            r.seed,
            self.violations_total()
        );
        out.push_str(&format!(
            "          {:.2}s elapsed, {} worker(s)\n",
            r.elapsed_s, r.jobs
        ));
        r.ratio_table(&mut out, "no-miss ratio by utilization", |c| {
            c.ratio(c.no_miss)
        });
        r.ratio_table(&mut out, "analysis acceptance ratio by utilization", |c| {
            c.analysis_accepted.and_then(|a| c.ratio(a))
        });
        out.push_str("\nranking by acceptance area (mean no-miss ratio over the grid)\n");
        for (i, (protocol, sim_area, analysis_area)) in self.ranking().into_iter().enumerate() {
            out.push_str(&format!("  {}. {protocol:<14} {sim_area:.3}", i + 1));
            if let Some(a) = analysis_area {
                out.push_str(&format!("  (analysis {a:.3})"));
            }
            out.push('\n');
        }
        if !r.violation_codes.is_empty() {
            out.push_str("\noracle violations by code\n");
            for (code, count) in &r.violation_codes {
                out.push_str(&format!("  {count:>6}  {code}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            scenarios: 9,
            seed: 11,
            horizon_cap: 4_000,
            util_steps: 3,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn covers_every_protocol_at_every_grid_point() {
        let report = shootout(&tiny());
        let r = &report.sweep;
        assert_eq!(r.protocols.len(), ProtocolKind::ALL.len());
        assert_eq!(r.grid.len(), 3);
        assert_eq!(r.curves.len(), 3 * r.protocols.len());
        assert!(r.curves.iter().all(|c| c.scenarios == 3));
        let ranking = report.ranking();
        assert_eq!(ranking.len(), r.protocols.len());
        // MPCP and the other analyzed protocols expose an acceptance
        // area; the raw baseline has no admission analysis.
        let area_of = |name: &str| ranking.iter().find(|s| s.0 == name).unwrap().2;
        assert!(area_of("raw").is_none());
        for name in ["mpcp", "msrp", "fmlp"] {
            assert!(area_of(name).is_some(), "{name} has an admission test");
        }
    }

    #[test]
    fn report_is_identical_across_worker_counts() {
        let base = shootout(&tiny());
        for jobs in [2, 4] {
            let par = shootout(&SweepConfig { jobs, ..tiny() });
            assert_eq!(base.hash(), par.hash(), "jobs = {jobs}");
            assert_eq!(
                base.canonical_json().encode(),
                par.canonical_json().encode(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn hash_ignores_timing_and_renders_are_total() {
        let mut a = shootout(&tiny());
        let h = a.hash();
        a.sweep.elapsed_s = 99.0;
        a.sweep.jobs = 16;
        assert_eq!(a.hash(), h);
        let csv = a.csv();
        assert_eq!(
            csv.lines().count(),
            1 + a.sweep.curves.len(),
            "one CSV row per (utilization, protocol) pair"
        );
        let text = a.render_text();
        assert!(text.contains("no-miss ratio by utilization"));
        assert!(text.contains("analysis acceptance ratio by utilization"));
        assert!(text.contains("ranking by acceptance area"));
    }
}
