//! The benchmark's fixed vocabulary: the seven workloads, the gated
//! end-to-end metrics and the per-layer rows. `BENCHMARK.json` at the
//! repository root is generated from these tables (`-- manifest`) and a
//! unit test keeps the two identical, so names cited by later issues
//! cannot drift from what the harness prints.

use crate::stats::Better;
use mpcp_protocols::ProtocolKind;
use mpcp_service::json::Value;
use mpcp_sweep::SweepConfig;
use mpcp_taskgen::WorkloadConfig;

/// Bumped whenever a workload's inputs or a metric's definition change,
/// because ledgers from different versions must not be compared.
pub const HARNESS_VERSION: &str = "1";

/// The seed the pinned expectations in `workloads/*.json` were taken at.
pub const PINNED_SEED: u64 = 1000;

/// What one `--seconds` budget is calibrated for; also `run_seconds`
/// in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// Each invocation sets up and measures this many times. Set-up time
/// and peak memory are the median repeat; the timed numbers are built
/// from per-segment medians over the repeats (see `Measured::robust`),
/// so a slow start or a stall in a minority of repeats decides nothing.
pub const REPEATS: usize = 5;

/// Every protocol arm of the default sweep, passed explicitly so a
/// later change to `SweepConfig::default` cannot silently change the
/// workload.
pub const ALL_ARMS: [ProtocolKind; 8] = [
    ProtocolKind::Mpcp,
    ProtocolKind::Dpcp,
    ProtocolKind::Pip,
    ProtocolKind::NonPreemptive,
    ProtocolKind::Raw,
    ProtocolKind::Msrp,
    ProtocolKind::Fmlp,
    ProtocolKind::Dga,
];

/// The seven online arms: everything but the offline DGA scheduler.
pub const ONLINE_ARMS: [ProtocolKind; 7] = [
    ProtocolKind::Mpcp,
    ProtocolKind::Dpcp,
    ProtocolKind::Pip,
    ProtocolKind::NonPreemptive,
    ProtocolKind::Raw,
    ProtocolKind::Msrp,
    ProtocolKind::Fmlp,
];

/// A sweep workload: each repeat calls `mpcp_sweep::run` on the same
/// `slices` consecutive slices of the seeded scenario stream, one pass
/// of `pass_scenarios` scenarios per slice, so slice `k` must return
/// the same report hash in every repeat and at every worker count.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec {
    pub processors: usize,
    pub tasks_per_processor: usize,
    /// `WorkloadConfig::global_sections`, when the family forces them.
    pub global_sections: Option<usize>,
    /// `WorkloadConfig::periods`, when narrower than the default.
    pub periods: Option<(u64, u64)>,
    pub arms: &'static [ProtocolKind],
    pub pass_scenarios: usize,
    /// Scenarios one second of `--seconds` buys: about what the
    /// reference host evaluates in a second, so a run's timed work
    /// takes about `--seconds`. Fixes the number of slices.
    pub scenarios_per_second: f64,
}

impl SweepSpec {
    /// The configuration of one pass over slice `slice`.
    pub fn config(&self, seed: u64, jobs: usize, slice: usize) -> SweepConfig {
        let mut workload = WorkloadConfig::default()
            .processors(self.processors)
            .tasks_per_processor(self.tasks_per_processor)
            .resources(1, 2)
            .sections(0, 2);
        if let Some(n) = self.global_sections {
            workload = workload.global_sections(n);
        }
        if let Some((lo, hi)) = self.periods {
            workload = workload.periods(lo, hi);
        }
        SweepConfig {
            workload,
            scenarios: self.pass_scenarios,
            // Scenario `i` of a stream is seeded `seed + i`, so slices
            // are consecutive, non-overlapping stretches of one stream.
            seed: seed.wrapping_add((slice * self.pass_scenarios) as u64),
            jobs,
            protocols: self.arms.to_vec(),
            horizon_cap: 20_000,
            util_lo: 0.30,
            util_hi: 0.75,
            util_steps: 10,
            check_response: false,
            audit: true,
            audit_stride: 8,
            shrink: false,
            max_shrink_evals: 0,
            max_fixtures: 0,
        }
    }

    /// Slices per repeat for a `budget` of seconds; at least two so a
    /// pass-time spread exists.
    pub fn slices(&self, budget: f64) -> usize {
        let scenarios = self.scenarios_per_second * budget;
        ((scenarios / self.pass_scenarios as f64).round() as usize).max(2)
    }
}

/// A closed-loop `submit` stream on one connection.
#[derive(Debug, Clone, Copy)]
pub struct ClosedSpec {
    /// Requests in flight.
    pub window: usize,
    /// Distinct systems cycled through; `0` makes every request
    /// distinct.
    pub unique: usize,
    /// Timed requests one second of `--seconds` buys. Deliberately
    /// below what the reference host serves (about two thirds), so the
    /// timed stretch stays inside the budget on a slower one.
    pub requests_per_second: f64,
}

/// Alternating `add-task`/`remove-task` on one large persisted session.
#[derive(Debug, Clone, Copy)]
pub struct EditsSpec {
    pub processors: usize,
    pub tasks_per_processor: usize,
    pub requests_per_second: f64,
}

/// An open-loop rate ladder of mixed `submit` traffic.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpec {
    pub rates: &'static [u64],
    /// The rung whose p50 is the gated latency metric.
    pub gated_rate: u64,
    /// The rungs whose latencies are reported by name (see
    /// [`rate_metric`]); the only place that list lives.
    pub reported_rates: &'static [u64],
    /// Systems in the hot set half the traffic repeats from.
    pub hot_set: usize,
    /// A rung passes while its p90 stays at or below this.
    pub p90_limit_us: f64,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Sweep(SweepSpec),
    Closed(ClosedSpec),
    Edits(EditsSpec),
    Open(OpenSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub kind: Kind,
    /// `workloads/<name>.json`: expectations pinned at [`PINNED_SEED`].
    pub pins: &'static str,
}

impl Workload {
    /// The `pinned` object of `workloads/<name>.json` (a unit test
    /// checks that every file parses and has one).
    pub fn pinned(&self) -> Value {
        mpcp_service::json::parse(self.pins)
            .ok()
            .and_then(|v| v.get("pinned").cloned())
            .expect("workloads/*.json parse and carry `pinned`")
    }

    /// Why the gated `metric` carries no information of its own on this
    /// workload, if it does not. The manifest makes every gated metric
    /// apply to every workload, so two pairs are filled with a number
    /// that cannot move by itself; the ledger and `compare` mark them.
    pub fn placeholder(&self, metric: &str) -> Option<&'static str> {
        match (self.kind, metric) {
            (Kind::Sweep(_), "latency_p50_us") => {
                Some("a pass's wall time, which is pass_scenarios / ops_per_s")
            }
            (Kind::Open(_), "ops_per_s") => Some("the send schedule's rate, not the server's"),
            _ => None,
        }
    }
}

/// Name of a `serve-open` latency figure at one rung of the ladder,
/// e.g. `latency_p90_us.r3000`: what `run` prints as ungated
/// information, and behind `open.` a per-layer row.
pub fn rate_metric(stat: &str, rate: u64) -> String {
    format!("latency_{stat}_us.r{rate}")
}

/// The percentiles reported per rung in [`OpenSpec::reported_rates`].
pub const RATE_STATS: [&str; 3] = ["p50", "p90", "p99"];

/// The submission family every `serve-*` stream draws from (the shape
/// `BENCH_service.json` was recorded with): about 2 KB per request.
pub fn submission_family() -> WorkloadConfig {
    WorkloadConfig::default()
        .processors(4)
        .tasks_per_processor(4)
        .utilization(0.4)
        .resources(1, 2)
        .sections(0, 2)
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "sweep-default",
        why: "the everyday 8-arm sweep of 4x3-task systems: simulation and DGA construction share the time",
        kind: Kind::Sweep(SweepSpec {
            processors: 4,
            tasks_per_processor: 3,
            global_sections: None,
            periods: None,
            arms: &ALL_ARMS,
            pass_scenarios: 50,
            scenarios_per_second: 125.0,
        }),
        pins: include_str!("../workloads/sweep-default.json"),
    },
    Workload {
        name: "sweep-online",
        why: "same family without the dga arm: simulation is nearly all of it, so a DGA change must show nothing",
        kind: Kind::Sweep(SweepSpec {
            processors: 4,
            tasks_per_processor: 3,
            global_sections: None,
            periods: None,
            arms: &ONLINE_ARMS,
            pass_scenarios: 50,
            scenarios_per_second: 240.0,
        }),
        pins: include_str!("../workloads/sweep-online.json"),
    },
    Workload {
        name: "sweep-wide",
        why: "8x8-task systems with two forced global sections: system size, the property every layer's cost grows with",
        kind: Kind::Sweep(SweepSpec {
            processors: 8,
            tasks_per_processor: 8,
            global_sections: Some(2),
            // With the default 100..10000 periods one such scenario
            // costs 340 ms, ten fit a repeat, and throughput differs by
            // 19 % from seed to seed. Narrower periods make a scenario
            // five times cheaper and halve its spread of cost, while
            // DGA construction remains over half of it.
            periods: Some((500, 5000)),
            arms: &ALL_ARMS,
            pass_scenarios: 5,
            scenarios_per_second: 14.0,
        }),
        pins: include_str!("../workloads/sweep-wide.json"),
    },
    Workload {
        name: "serve-uncached",
        why: "closed loop of distinct submissions: every request parses, hashes, misses the cache and is analysed",
        kind: Kind::Closed(ClosedSpec {
            window: 32,
            unique: 0,
            requests_per_second: 4800.0,
        }),
        pins: include_str!("../workloads/serve-uncached.json"),
    },
    Workload {
        name: "serve-cached",
        why: "closed loop cycling 8 systems: analysis is bypassed, so parse, decode, hash and transport are the cost",
        kind: Kind::Closed(ClosedSpec {
            window: 32,
            unique: 8,
            requests_per_second: 17000.0,
        }),
        pins: include_str!("../workloads/serve-cached.json"),
    },
    Workload {
        name: "serve-edits",
        why: "add-task/remove-task on one persisted 8x40-task session: the incremental engine and the journal, not submit",
        kind: Kind::Edits(EditsSpec {
            processors: 8,
            tasks_per_processor: 40,
            requests_per_second: 330.0,
        }),
        pins: include_str!("../workloads/serve-edits.json"),
    },
    Workload {
        name: "serve-open",
        why: "open-loop rate ladder of half-repeated, half-fresh submissions, timed from each due instant: queueing shows",
        kind: Kind::Open(OpenSpec {
            rates: &[1000, 2000, 3000, 4000],
            gated_rate: 3000,
            reported_rates: &[1000, 3000],
            hot_set: 64,
            p90_limit_us: 2000.0,
        }),
        pins: include_str!("../workloads/serve-open.json"),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One gated end-to-end metric: every workload reports every one of
/// them (an operation is a scenario for `sweep-*`, a request for
/// `serve-*`).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Bounds come from the calibration the benchmark contract prescribes
/// (ten seeds per workload, quartile spread over median, two sets and
/// the drift of the median between them), recorded twelve times on the
/// two-vCPU sandbox; the README has the table. One bound covers a
/// metric on every workload, so the worst workload decides. A bound is
/// at least three times the spread that workload shows in a quiet set
/// (7 %, so 21 %) and has to clear what a disturbed set shows as well,
/// because the acceptance check can land in one: the host has phases in
/// which single-thread work runs 15-20 % faster or slower, and the
/// timing metrics then spread 18-30 % and drift up to 16 %. That puts
/// every timing bound at the 0.25 cap; peak memory spreads under 3.4 %
/// and gets 0.10. A metric that does not fit under the cap in set after
/// set is demoted (see [`UNGATED`]), never given a looser bound. What
/// the cap cannot resolve, `compare` still shows: see
/// [`Verdict::Worse`](crate::stats::Verdict::Worse).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// `latency_p90_us` was a gated metric until calibration: on
/// `serve-open` its quartile spread over ten seeds read 29, 29, 9, 16,
/// 5, 8, 17 and 25 % in eight sets (a p90 at 45 % utilisation amplifies
/// every slow phase of the host), at or over the cap in three of them.
/// By the demotion rule it is ungated information: `run` prints it
/// beside the gated five and `trace` reports it as the `latency.p90_us`
/// row.
pub const UNGATED: (&str, &str) = ("latency_p90_us", "us");

/// One ungated per-layer row. Times are microseconds of self time per
/// operation of the workload, so the rows of one workload add up.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn row(name: &str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name: name.to_owned(),
        unit,
        better,
    }
}

/// Every per-layer row, in ledger order. A workload that never reaches
/// a layer reports 0 for it, which is itself the prediction "this
/// workload cannot show a change there".
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut rows = vec![
        row("taskgen.scenario_us", "us", Lower),
        row("taskgen.submission_us", "us", Lower),
        row("analysis.mpcp_us", "us", Lower),
        row("analysis.dpcp_us", "us", Lower),
        row("analysis.msrp_us", "us", Lower),
        row("analysis.fmlp_us", "us", Lower),
        row("dga.construct_us", "us", Lower),
        row("dga.sections", "count", Lower),
        row("dga.skipped", "count", Lower),
    ];
    for kind in ALL_ARMS {
        let k = kind.name();
        rows.push(row(&format!("sim.{k}.us"), "us", Lower));
        rows.push(row(&format!("sim.{k}.steps"), "count", Lower));
        rows.push(row(&format!("sim.{k}.jobs"), "count", Higher));
    }
    rows.extend([
        row("sim.monitor_ratio", "ratio", Lower),
        row("verify.audit_us", "us", Lower),
        row("verify.audits", "count", Higher),
        row("verify.lint_us", "us", Lower),
        row("sweep.oracle_rest_us", "us", Lower),
        row("sweep.report_us", "us", Lower),
        row("sweep.parallel_speedup", "ratio", Higher),
        row("sweep.pool_efficiency", "ratio", Higher),
        row("sweep.layer_coverage", "ratio", Higher),
        row("service.json_parse_us", "us", Lower),
        row("service.proto_decode_us", "us", Lower),
        row("service.wire_hash_us", "us", Lower),
        row("service.bytes_in_per_op", "B", Lower),
        row("service.bytes_out_per_op", "B", Lower),
        row("service.analyze_us", "us", Lower),
        row("service.cache_hit_ratio", "ratio", Higher),
        row("service.analyze_delta_us", "us", Lower),
        row("service.analyze_full_us", "us", Lower),
        row("service.delta_speedup", "ratio", Higher),
        row("service.engine_build_us", "us", Lower),
        row("service.persist_record_us", "us", Lower),
        row("service.journal_bytes_per_op", "B", Lower),
        row("service.wakeup_floor_us", "us", Lower),
        row("service.shed", "count", Lower),
        row("service.rest_us", "us", Lower),
        row("service.cpu_us_per_op", "us", Lower),
        row("latency.p90_us", "us", Lower),
    ]);
    for w in &WORKLOADS {
        let Kind::Open(o) = w.kind else { continue };
        for &rate in o.reported_rates {
            for stat in RATE_STATS {
                let name = format!("open.{}", rate_metric(stat, rate));
                rows.push(row(&name, "us", Lower));
            }
        }
    }
    rows.extend([
        row("open.max_rate_ok", "1/s", Higher),
        row("open.lateness_p50_us", "us", Lower),
        row("open.lateness_p99_us", "us", Lower),
        row("trace.untraced_us_per_op", "us", Lower),
        row("trace.traced_us_per_op", "us", Lower),
        row("trace.overhead_ratio", "ratio", Lower),
    ]);
    rows
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Value {
    let named = |name: &str| ("name", Value::str(name));
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Value::str)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([named(w.name), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            named(m.name),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Value::obj([
                            named(&m.name),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Pretty-prints the manifest one entry per line, which is how the
/// checked-in `BENCHMARK.json` is laid out.
pub fn manifest_text() -> String {
    let Value::Obj(pairs) = manifest() else {
        unreachable!("manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in pairs.iter().enumerate() {
        let last = i + 1 == pairs.len();
        match value {
            Value::Arr(items) if items.iter().any(|v| matches!(v, Value::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.encode()));
                }
                out.push_str("  ]");
            }
            other => out.push_str(&format!("  \"{key}\": {}", other.encode())),
        }
        out.push_str(if last { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_service::json;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    #[test]
    fn names_units_and_counts_respect_the_manifest_limits() {
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest_text().len() <= 64 * 1024);
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let text = include_str!("../../BENCHMARK.json");
        assert_eq!(
            json::parse(text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
        assert_eq!(
            json::parse(&manifest_text()).expect("pretty form parses"),
            manifest()
        );
    }

    #[test]
    fn placeholders_are_the_pairs_the_manifest_forces() {
        let marked: Vec<(&str, &str)> = WORKLOADS
            .iter()
            .flat_map(|w| {
                END_TO_END
                    .iter()
                    .filter(|m| w.placeholder(m.name).is_some())
                    .map(|m| (w.name, m.name))
            })
            .collect();
        assert_eq!(
            marked,
            [
                ("sweep-default", "latency_p50_us"),
                ("sweep-online", "latency_p50_us"),
                ("sweep-wide", "latency_p50_us"),
                ("serve-open", "ops_per_s"),
            ]
        );
        assert_eq!(rate_metric("p90", 3000), "latency_p90_us.r3000");
        let Kind::Open(o) = WORKLOADS[6].kind else {
            panic!("serve-open last")
        };
        assert!(o.reported_rates.iter().all(|r| o.rates.contains(r)));
        assert!(o.rates.contains(&o.gated_rate));
    }

    #[test]
    fn pins_parse_and_name_their_workload() {
        for w in &WORKLOADS {
            let pins = json::parse(w.pins).expect(w.name);
            assert_eq!(pins.get("workload").and_then(Value::as_str), Some(w.name));
            assert!(matches!(w.pinned(), Value::Obj(_)), "{}", w.name);
        }
    }

    #[test]
    fn slice_count_scales_with_the_budget_and_never_drops_below_two() {
        let Kind::Sweep(s) = WORKLOADS[0].kind else {
            panic!("sweep-default first")
        };
        assert_eq!(s.slices(10.0 / 3.0), 8);
        assert_eq!(s.slices(0.1), 2);
        // Slices are consecutive stretches of one stream.
        assert_eq!(s.config(7, 1, 0).seed, 7);
        assert_eq!(s.config(7, 1, 3).seed, 157);
    }
}
