//! The traced run: regenerate a workload's inputs from the same seed
//! and push them through each layer's *public* entry points, one span
//! per (operation, layer). Rows are microseconds of self time per
//! operation of the workload, so the rows of one workload add up, and a
//! layer the workload never reaches reads 0.
//!
//! Every result is dropped inside its span (see [`Recorder::time`]):
//! retaining 20 000 parsed `Value`s across the loop once inflated
//! `json::parse` from 17 to 159 us per call.
//!
//! End-to-end numbers never come from here. A single untraced repeat
//! against the child process rides along as the reference the rows are
//! compared with (`sweep.layer_coverage`, `service.rest_us`,
//! `trace.overhead_ratio`).

use crate::inputs;
use crate::measure::{
    self, closed_requests, edit_requests, max_rate_ok, out_dir, rung_requests, Checker, Extras,
    Repeat, TempDir,
};
use crate::spec::{
    self, rate_metric, ClosedSpec, EditsSpec, Kind, OpenSpec, SweepSpec, Workload, PINNED_SEED,
    RATE_STATS,
};
use crate::trace::{Name, Recorder};
use mpcp_analysis::{
    default_hosts, dpcp_bounds_with, fmlp_bound_set, mpcp_bound_set, msrp_bound_set,
    BlockingConfig, Edit,
};
use mpcp_dga::{DgaReplay, DgaSchedule};
use mpcp_model::Time;
use mpcp_protocols::ProtocolKind;
use mpcp_service::json::{self, Value};
use mpcp_service::proto::AdmissionProtocol;
use mpcp_service::session::analyze_with;
use mpcp_service::{analyze, analyze_incremental, engine_for, Persistence, Request, ServerConfig};
use mpcp_sim::{Monitor, Protocol, SimConfig, Simulator};
use mpcp_sweep::{audit_violations, evaluate_in, horizon_for, SweepReport, Workspace};
use std::collections::HashSet;
use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Share of `--seconds` the untraced reference repeat may use. The
/// replay of the same operations costs about twice that again for
/// sweeps (every scenario goes through the layers and through the
/// oracle as a whole).
const REFERENCE_SHARE: f64 = 0.2;

/// Spans written per file; everything is aggregated, the file is for
/// looking at.
const SPAN_FILE_LIMIT: usize = 20_000;

/// Closed-loop pings for `service.wakeup_floor_us`.
const PINGS: usize = 1500;

/// One per-layer row of one workload.
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The per-layer result of one workload.
pub struct Layers {
    pub checker: Checker,
    /// Every per-layer row, in [`spec::per_layer`] order.
    pub rows: Vec<Row>,
    pub span_file: PathBuf,
    pub spans: usize,
}

struct Rows(Vec<Row>);

impl Rows {
    /// Every row at 0: a layer the workload never reaches stays there.
    fn new() -> Rows {
        let zero = |m: spec::PerLayer| Row {
            name: m.name,
            unit: m.unit,
            value: 0.0,
        };
        Rows(spec::per_layer().into_iter().map(zero).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let row = self
            .0
            .iter_mut()
            .find(|row| row.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer row"));
        row.value = value;
    }
}

pub fn trace(w: &Workload, seed: u64, seconds: f64) -> io::Result<Layers> {
    let extras = Extras {
        parallel_passes: Extras::WARM_PARALLEL_PASSES,
        pings: PINGS,
    };
    let budget = seconds * REFERENCE_SHARE;
    let mut reference = measure::measure(w, seed, budget, 1, extras)?;
    let live_p90_us = reference.robust()[measure::LATENCY_P90_US];
    let live = reference.repeats.remove(0);
    let mut checker = reference.checker;
    let mut rows = Rows::new();
    let mut rec = Recorder::new();
    let started = Instant::now();
    let ops = match w.kind {
        Kind::Sweep(s) => replay_sweep(w, &s, seed, &live, &mut rec, &mut rows, &mut checker),
        Kind::Closed(c) => replay_closed(&c, seed, budget, &live, &mut rec, &mut rows),
        Kind::Open(o) => replay_open(&o, seed, budget, &live, &mut rec, &mut rows),
        Kind::Edits(e) => replay_edits(&e, seed, budget, &live, &mut rec, &mut rows, &mut checker)?,
    };
    let traced_us = started.elapsed().as_secs_f64() * 1e6 / ops as f64;
    let untraced_us = live.timed_s() * 1e6 / live.ops() as f64;
    rows.set("latency.p90_us", live_p90_us);
    rows.set("trace.untraced_us_per_op", untraced_us);
    rows.set("trace.traced_us_per_op", traced_us);
    rows.set("trace.overhead_ratio", traced_us / untraced_us);
    let span_file = out_dir().join(format!("{}.trace.json", w.name));
    rec.write_chrome(&span_file, SPAN_FILE_LIMIT)?;
    Ok(Layers {
        checker,
        rows: rows.0,
        span_file,
        spans: rec.len(),
    })
}

// ---------------------------------------------------------------- sweeps

/// Span names of the sweep replay, interned once.
struct SweepNames {
    scenario: Name,
    taskgen: Name,
    mpcp: Name,
    dpcp: Name,
    msrp: Name,
    fmlp: Name,
    dga: Name,
    sims: Vec<(ProtocolKind, Name)>,
    audit: Name,
    evaluate: Name,
    bare_mpcp: Name,
    report: Name,
}

/// Counts a replay must reproduce exactly from run to run.
#[derive(Debug, Default)]
struct SweepCounts {
    steps: Vec<u64>,
    jobs: Vec<u64>,
    /// Completed jobs per arm as the oracle's own outcomes report them.
    oracle_jobs: Vec<u64>,
    sections: u64,
    skipped: u64,
    audits: u64,
}

/// One simulator recycled across scenarios and arms, as the oracle's
/// own `Workspace` does.
fn simulator<'a>(
    slot: &'a mut Option<Simulator<Box<dyn Protocol>>>,
    system: &mpcp_model::System,
    protocol: Box<dyn Protocol>,
    horizon: u64,
) -> &'a mut Simulator<Box<dyn Protocol>> {
    let config = SimConfig {
        record_trace: false,
        ..SimConfig::until(horizon)
    };
    match slot {
        Some(sim) => sim.reset(system, protocol, config),
        None => *slot = Some(Simulator::with_config(system, protocol, config)),
    }
    slot.as_mut().expect("just filled")
}

/// Replays the slices the live reference timed, scenario by scenario.
fn replay_sweep(
    w: &Workload,
    s: &SweepSpec,
    seed: u64,
    live: &Repeat,
    rec: &mut Recorder,
    rows: &mut Rows,
    checker: &mut Checker,
) -> u64 {
    let names = SweepNames {
        scenario: rec.name("sweep.scenario"),
        taskgen: rec.name("taskgen.scenario"),
        mpcp: rec.name("analysis.mpcp"),
        dpcp: rec.name("analysis.dpcp"),
        msrp: rec.name("analysis.msrp"),
        fmlp: rec.name("analysis.fmlp"),
        dga: rec.name("dga.construct"),
        sims: s
            .arms
            .iter()
            .map(|&k| (k, rec.name(&format!("sim.{}", k.name()))))
            .collect(),
        audit: rec.name("verify.audit"),
        evaluate: rec.name("sweep.evaluate_in"),
        bare_mpcp: rec.name("sim.mpcp.unmonitored"),
        report: rec.name("sweep.report"),
    };
    let slices = live.segments.len();
    let p = s.pass_scenarios as u64;
    let mut counts = SweepCounts {
        steps: vec![0; s.arms.len()],
        jobs: vec![0; s.arms.len()],
        ..SweepCounts::default()
    };
    let mut sim_slot = None;
    let mut workspace = Workspace::default();
    for slice in 0..slices {
        let cfg = s.config(seed, 1, slice);
        let stream = cfg.stream();
        let mut outcomes = Vec::with_capacity(s.pass_scenarios);
        for i in 0..p {
            let op = (slice as u64 * p + i) as u32;
            let root = rec.open(names.scenario, op, None);
            let scenario = rec.time(names.taskgen, op, Some(root), || stream.scenario_at(i));
            let system = &scenario.system;
            let horizon = horizon_for(system, cfg.horizon_cap);
            rec.time(names.mpcp, op, Some(root), || {
                drop(black_box(mpcp_bound_set(system, BlockingConfig::sound())));
            });
            rec.time(names.msrp, op, Some(root), || {
                drop(black_box(msrp_bound_set(system)));
            });
            rec.time(names.fmlp, op, Some(root), || {
                drop(black_box(fmlp_bound_set(system)));
            });
            rec.time(names.dpcp, op, Some(root), || {
                drop(black_box(dpcp_bounds_with(
                    system,
                    &default_hosts(system),
                    BlockingConfig::sound(),
                )));
            });
            for (arm, &(kind, sim_name)) in names.sims.iter().enumerate() {
                let schedule = if kind == ProtocolKind::Dga {
                    match rec.time(names.dga, op, Some(root), || {
                        DgaSchedule::compute(system, Time::new(horizon))
                    }) {
                        Ok(schedule) => {
                            counts.sections += schedule.sections() as u64;
                            Some(schedule)
                        }
                        Err(_) => {
                            counts.skipped += 1;
                            continue;
                        }
                    }
                } else {
                    None
                };
                let span = rec.open(sim_name, op, Some(root));
                let protocol: Box<dyn Protocol> = match &schedule {
                    Some(s) => Box::new(DgaReplay::from_schedule(s.clone())),
                    None => kind.build(),
                };
                let sim = simulator(&mut sim_slot, system, protocol, horizon);
                let mut monitor = Monitor::new(system, kind.monitor_spec());
                if let Some(s) = &schedule {
                    monitor.set_conformance(s.expected_grants());
                }
                sim.set_monitor(monitor);
                let mut steps = 1;
                while sim.step() {
                    steps += 1;
                }
                counts.steps[arm] += steps;
                let metrics = sim.metrics();
                counts.jobs[arm] += metrics.per_task().iter().map(|m| m.completed).sum::<u64>();
                black_box(sim.monitor().is_some_and(Monitor::is_clean));
                rec.close(span);
            }
            if cfg.audit && i.is_multiple_of(cfg.audit_stride as u64) {
                counts.audits += 1;
                rec.time(names.audit, op, Some(root), || {
                    drop(black_box(audit_violations(system)));
                });
            }
            rec.close(root);

            // The same scenario through the oracle as one call: what
            // the rows above must add up to.
            let outcome = rec.time(names.evaluate, op, None, || {
                evaluate_in(&mut workspace, &scenario, &cfg)
            });
            outcomes.push(outcome);
            // The MPCP arm again without its streaming monitor.
            rec.time(names.bare_mpcp, op, None, || {
                let sim = simulator(&mut sim_slot, system, ProtocolKind::Mpcp.build(), horizon);
                sim.run();
            });
        }
        rec.time(names.report, (slice as u64 * p) as u32, None, || {
            drop(black_box(SweepReport::build(
                &cfg,
                stream.grid(),
                &outcomes,
                Vec::new(),
                0.0,
            )));
        });
        check_replay_against_oracle(s, slice, &mut counts, &outcomes, checker);
        if slice == 0 && seed == PINNED_SEED {
            check_count_pins(w, s, &counts, checker);
        }
    }

    let ops = slices as u64 * p;
    let t = rec.totals();
    let us = |name: Name| t.us_per(name, ops);
    let taskgen = us(names.taskgen);
    rows.set("taskgen.scenario_us", taskgen);
    let mut inside_oracle = 0.0;
    for (row, name) in [
        ("analysis.mpcp_us", names.mpcp),
        ("analysis.dpcp_us", names.dpcp),
        ("analysis.msrp_us", names.msrp),
        ("analysis.fmlp_us", names.fmlp),
        ("dga.construct_us", names.dga),
        ("verify.audit_us", names.audit),
    ] {
        rows.set(row, us(name));
        inside_oracle += us(name);
    }
    rows.set("dga.sections", counts.sections as f64 / ops as f64);
    rows.set("dga.skipped", counts.skipped as f64);
    rows.set("verify.audits", counts.audits as f64);
    for (arm, &(kind, name)) in names.sims.iter().enumerate() {
        let k = kind.name();
        rows.set(&format!("sim.{k}.us"), us(name));
        rows.set(
            &format!("sim.{k}.steps"),
            counts.steps[arm] as f64 / ops as f64,
        );
        rows.set(
            &format!("sim.{k}.jobs"),
            counts.jobs[arm] as f64 / ops as f64,
        );
        inside_oracle += us(name);
        if kind == ProtocolKind::Mpcp {
            rows.set("sim.monitor_ratio", us(name) / us(names.bare_mpcp));
        }
    }
    let (evaluate, report) = (us(names.evaluate), us(names.report));
    rows.set("sweep.oracle_rest_us", evaluate - inside_oracle);
    rows.set("sweep.report_us", report);
    rows.set("sweep.parallel_speedup", live.detail.parallel_speedup);
    rows.set(
        "sweep.pool_efficiency",
        live.detail.parallel_speedup / live.detail.parallel_jobs as f64,
    );
    // The layer rows add up to taskgen + evaluate_in + report (that is
    // how oracle_rest is defined); coverage compares that sum with what
    // the child took for the same slices.
    let untraced_us = live.timed_s() * 1e6 / live.ops() as f64;
    rows.set(
        "sweep.layer_coverage",
        (taskgen + evaluate + report) / untraced_us,
    );
    ops
}

/// Completed jobs per arm over slice 0, straight from the oracle:
/// what `workloads/*.json` pins as `jobs`.
pub fn sweep_jobs(s: &SweepSpec, seed: u64) -> Vec<u64> {
    let cfg = s.config(seed, 1, 0);
    let stream = cfg.stream();
    let mut workspace = Workspace::default();
    let mut jobs = vec![0; s.arms.len()];
    for i in 0..s.pass_scenarios as u64 {
        let outcome = evaluate_in(&mut workspace, &stream.scenario_at(i), &cfg);
        for (total, arm) in jobs.iter_mut().zip(&outcome.protocols) {
            *total += arm.completed;
        }
    }
    jobs
}

/// The replay's own simulations must complete exactly the jobs the
/// oracle's did, or the rows describe a different computation.
/// `counts` is cumulative over slices, so the oracle's totals are
/// carried in `counts.oracle_jobs` the same way.
fn check_replay_against_oracle(
    s: &SweepSpec,
    slice: usize,
    counts: &mut SweepCounts,
    outcomes: &[mpcp_sweep::ScenarioOutcome],
    checker: &mut Checker,
) {
    let violations = outcomes
        .iter()
        .filter(|o| o.violations().next().is_some())
        .count();
    checker.ops(
        outcomes.len() as u64,
        violations as u64,
        "replayed scenarios with an oracle violation",
    );
    counts.oracle_jobs.resize(s.arms.len(), 0);
    for (arm, kind) in s.arms.iter().enumerate() {
        counts.oracle_jobs[arm] += outcomes
            .iter()
            .map(|o| o.protocols[arm].completed)
            .sum::<u64>();
        let (oracle, replay) = (counts.oracle_jobs[arm], counts.jobs[arm]);
        checker.check(oracle == replay, || {
            format!("arm {kind}, slices 0..={slice}: replay completed {replay} jobs, the oracle {oracle}")
        });
    }
}

fn check_count_pins(w: &Workload, s: &SweepSpec, counts: &SweepCounts, checker: &mut Checker) {
    let pinned = w.pinned();
    let Some(Value::Obj(arms)) = pinned.get("arms") else {
        return;
    };
    for (arm, kind) in s.arms.iter().enumerate() {
        let want = arms
            .iter()
            .find(|(name, _)| name == kind.name())
            .and_then(|(_, v)| v.get("jobs"))
            .and_then(Value::as_u64);
        if let Some(want) = want {
            checker.check(want == counts.jobs[arm], || {
                format!(
                    "arm {kind}: {} completed jobs, pinned {want}",
                    counts.jobs[arm]
                )
            });
        }
    }
}

// ----------------------------------------------------------------- serve

struct ServeNames {
    request: Name,
    parse: Name,
    decode: Name,
    hash: Name,
    analyze: Name,
    lint: Name,
    generate: Name,
}

impl ServeNames {
    fn new(rec: &mut Recorder) -> ServeNames {
        ServeNames {
            request: rec.name("service.request"),
            parse: rec.name("service.json_parse"),
            decode: rec.name("service.proto_decode"),
            hash: rec.name("service.wire_hash"),
            analyze: rec.name("service.analyze"),
            lint: rec.name("verify.lint"),
            generate: rec.name("taskgen.submissions"),
        }
    }
}

/// Replays `order` as the server sees it: parse, decode, hash, and
/// for a system whose hash is not yet in `cached`, analyse.
fn replay_submits(
    lines: &[String],
    order: &[u32],
    cached: &mut HashSet<u64>,
    names: &ServeNames,
    rec: &mut Recorder,
) {
    for (j, &i) in order.iter().enumerate() {
        let op = j as u32;
        let line = &lines[i as usize];
        let root = rec.open(names.request, op, None);
        let value = rec.time(names.parse, op, Some(root), || json::parse(line));
        let request = rec.time(names.decode, op, Some(root), || {
            Request::from_json(value.as_ref().expect("generated lines parse"))
        });
        // Freeing the tree is a cost of the representation `parse`
        // chose, so it is charged there.
        rec.time(names.parse, op, Some(root), || drop(value));
        let Ok(Request::Submit {
            system,
            allocate,
            protocol,
            ..
        }) = &request
        else {
            panic!("generated lines are submissions");
        };
        let key = rec.time(names.hash, op, Some(root), || system.canonical_hash());
        if cached.insert(key) {
            rec.time(names.analyze, op, Some(root), || {
                drop(black_box(analyze_with(system, *allocate, *protocol)));
            });
            // The lint pass again on its own: it runs inside `analyze`,
            // so its row is information, not a summand.
            if let Ok(built) = system.to_system() {
                rec.time(names.lint, op, None, || {
                    drop(black_box(mpcp_verify::lint_system(&built)));
                });
            }
        }
        drop(request);
        rec.close(root);
    }
}

/// Rows every `serve-*` workload shares, given what the replay summed
/// and what the live reference measured.
fn serve_rows(rows: &mut Rows, live: &Repeat, replayed_us: f64) {
    let ops = live.ops() as f64;
    rows.set("service.bytes_in_per_op", live.detail.bytes_in as f64 / ops);
    rows.set(
        "service.bytes_out_per_op",
        live.detail.bytes_out as f64 / ops,
    );
    rows.set("service.wakeup_floor_us", live.detail.wakeup_floor_us);
    rows.set("service.shed", live.detail.shed as f64);
    rows.set("service.cpu_us_per_op", live.cpu_us_per_op());
    rows.set("service.rest_us", live.cpu_us_per_op() - replayed_us);
}

fn submit_rows(
    names: &ServeNames,
    rec: &Recorder,
    ops: u64,
    distinct: u64,
    live: &Repeat,
    rows: &mut Rows,
) {
    let t = rec.totals();
    let layers = [
        ("service.json_parse_us", names.parse),
        ("service.proto_decode_us", names.decode),
        ("service.wire_hash_us", names.hash),
        ("service.analyze_us", names.analyze),
    ];
    let mut replayed = 0.0;
    for (row, name) in layers {
        rows.set(row, t.us_per(name, ops));
        replayed += t.us_per(name, ops);
    }
    rows.set("verify.lint_us", t.us_per(names.lint, ops));
    rows.set("taskgen.submission_us", t.us_per(names.generate, distinct));
    let lookups = (live.detail.cache_hits + live.detail.cache_misses).max(1);
    rows.set(
        "service.cache_hit_ratio",
        live.detail.cache_hits as f64 / lookups as f64,
    );
    serve_rows(rows, live, replayed);
}

fn replay_closed(
    c: &ClosedSpec,
    seed: u64,
    budget: f64,
    live: &Repeat,
    rec: &mut Recorder,
    rows: &mut Rows,
) -> u64 {
    let names = ServeNames::new(rec);
    let (warm, timed) = closed_requests(c, budget);
    let stream = rec.time(names.generate, 0, None, || {
        inputs::closed_stream(seed, warm + timed, c.unique)
    });
    // The cache as the timed stretch finds it: a cycled stream was
    // fully cached by the warm-up lap, a distinct one never repeats.
    let mut cached: HashSet<u64> = if c.unique == 0 {
        HashSet::new()
    } else {
        stream.specs.iter().map(|s| s.canonical_hash()).collect()
    };
    replay_submits(
        &stream.lines,
        &stream.order[warm..],
        &mut cached,
        &names,
        rec,
    );
    submit_rows(
        &names,
        rec,
        timed as u64,
        stream.lines.len() as u64,
        live,
        rows,
    );
    timed as u64
}

fn replay_open(
    o: &OpenSpec,
    seed: u64,
    budget: f64,
    live: &Repeat,
    rec: &mut Recorder,
    rows: &mut Rows,
) -> u64 {
    let names = ServeNames::new(rec);
    let total: usize = rung_requests(o, budget).iter().sum();
    let stream = rec.time(names.generate, 0, None, || {
        inputs::open_stream(o, seed, total)
    });
    // The set-up sent the hot set once, so its repeats are hits.
    let mut cached: HashSet<u64> = stream.specs[..o.hot_set]
        .iter()
        .map(|s| s.canonical_hash())
        .collect();
    replay_submits(
        &stream.lines,
        &stream.order[o.hot_set..],
        &mut cached,
        &names,
        rec,
    );
    submit_rows(
        &names,
        rec,
        total as u64,
        stream.lines.len() as u64,
        live,
        rows,
    );

    for rung in &live.detail.rungs {
        if o.reported_rates.contains(&rung.rate) {
            for stat in RATE_STATS {
                let row = format!("open.{}", rate_metric(stat, rung.rate));
                rows.set(&row, rung.stat(stat));
            }
        }
    }
    rows.set(
        "open.max_rate_ok",
        max_rate_ok(&live.detail.rungs, o.p90_limit_us) as f64,
    );
    // The worst rung decides how far the generator can be trusted.
    let worst =
        |f: fn(&measure::RungSummary) -> f64| live.detail.rungs.iter().map(f).fold(0.0, f64::max);
    rows.set("open.lateness_p50_us", worst(|r| r.lateness_p50_us));
    rows.set("open.lateness_p99_us", worst(|r| r.lateness_p99_us));
    total as u64
}

fn replay_edits(
    e: &EditsSpec,
    seed: u64,
    budget: f64,
    live: &Repeat,
    rec: &mut Recorder,
    rows: &mut Rows,
    checker: &mut Checker,
) -> io::Result<u64> {
    let timed = edit_requests(e, budget);
    let request = rec.name("service.request");
    let parse = rec.name("service.json_parse");
    let decode = rec.name("service.proto_decode");
    let delta = rec.name("service.analyze_delta");
    let full = rec.name("service.analyze_full");
    let build = rec.name("service.engine_build");
    let persist = rec.name("service.persist_record");

    let edits = inputs::edit_session(e, seed);
    let dir = TempDir::create("replay")?;
    let config = ServerConfig::default();
    let (journal, _) = Persistence::open(dir.path(), config.snapshot_every)?;
    let mut engine = rec
        .time(build, 0, None, || engine_for(&edits.session))
        .ok_or_else(|| io::Error::other("the edit session has no incremental engine"))?;
    let mut session = mpcp_service::Session {
        spec: edits.session.clone(),
        ..mpcp_service::Session::default()
    };
    let mut diverged = 0u64;
    for j in 0..timed {
        let op = j as u32;
        let line = if j % 2 == 0 {
            &edits.add_line
        } else {
            &edits.remove_line
        };
        let root = rec.open(request, op, None);
        let value = rec.time(parse, op, Some(root), || json::parse(line));
        let decoded = rec.time(decode, op, Some(root), || {
            Request::from_json(value.as_ref().expect("generated lines parse"))
        });
        rec.time(parse, op, Some(root), || drop(value));
        let (verb, candidate, edit) = match decoded {
            Ok(Request::AddTask { task, .. }) => {
                let edit = Edit::AddTask(task.name.clone());
                ("add-task", session.with_task(task), edit)
            }
            Ok(Request::RemoveTask { task, .. }) => {
                let candidate = session
                    .without_task(&task)
                    .expect("the task was just added");
                ("remove-task", candidate, Edit::RemoveTask(task))
            }
            _ => panic!("generated lines are edits"),
        };
        let (result, next) = rec
            .time(delta, op, Some(root), || {
                analyze_incremental(&engine, &candidate, &edit)
            })
            .ok_or_else(|| io::Error::other("the incremental path declined an edit"))?;
        // The server audits every `audit_every`-th incremental answer
        // against the full analysis; so does the replay.
        if (j as u64).is_multiple_of(config.audit_every.max(1)) {
            let reference = rec.time(full, op, Some(root), || analyze(&candidate, None));
            diverged += u64::from(reference != result);
        }
        rec.time(persist, op, Some(root), || {
            journal.record(
                "edits",
                verb,
                AdmissionProtocol::Mpcp,
                result.admitted,
                &result.analyzed,
            )
        })?;
        session.spec = result.analyzed;
        engine = next;
        rec.close(root);
    }
    let journal_bytes = std::fs::metadata(dir.path().join("journal.ndjson")).map_or(0, |m| m.len());
    drop(journal);
    drop(dir);
    checker.check(diverged == 0, || {
        format!("{diverged} incremental verdicts differ from the full analysis")
    });
    checker.check(session.spec == edits.session, || {
        "the replayed session did not return to its start state".to_owned()
    });

    let t = rec.totals();
    let ops = timed as u64;
    let mut replayed = 0.0;
    for (row, name) in [
        ("service.json_parse_us", parse),
        ("service.proto_decode_us", decode),
        ("service.analyze_delta_us", delta),
        ("service.analyze_full_us", full),
        ("service.persist_record_us", persist),
    ] {
        rows.set(row, t.us_per(name, ops));
        replayed += t.us_per(name, ops);
    }
    let per_call = |name: Name| t.self_ns(name) as f64 / t.count(name).max(1) as f64;
    rows.set("service.delta_speedup", per_call(full) / per_call(delta));
    // Built once per session, so it is a one-off and not a summand.
    rows.set("service.engine_build_us", t.self_ns(build) as f64 / 1e3);
    rows.set(
        "service.journal_bytes_per_op",
        journal_bytes as f64 / ops as f64,
    );
    serve_rows(rows, live, replayed);
    Ok(ops)
}
