//! The engine's observable streams, byte for byte.
//!
//! `tests/golden/engine_streams.txt` was recorded at the parent of the
//! commit that gave the engine its O(1) job table, per-processor run
//! queues and interval blocking accounting — *before* the first engine
//! edit. Per (system, protocol) line it holds the event and slice counts
//! and an FNV-1a of the `Debug` bytes of every [`TraceEvent`], every
//! [`Slice`], every [`JobRecord`], the [`Metrics`] (in-flight jobs
//! included) and the streaming monitor's verdict with its per-job
//! settled global waits. An engine change that adds, drops, reorders or
//! re-times one event, or moves one accounting tick, changes a line.
//!
//! The sweep and shootout report hashes only see verdict bits; this
//! file sees the streams.
//!
//! The golden's slice columns were recorded when the engine pushed one
//! slice per processor per step (merged only with the globally last
//! one, so on a uniprocessor only). The engine now records a
//! processor's slice when it closes, maximal for every `m`; the test
//! drives `step()` itself, notes every instant, and cuts the recorded
//! timelines back into that per-step stream ([`per_step_stream`])
//! before counting and hashing — so the file does not move, and the
//! same test passes on the engine it was recorded from.
//!
//! [`TraceEvent`]: mpcp::sim::TraceEvent
//! [`Slice`]: mpcp::sim::Slice
//! [`JobRecord`]: mpcp::sim::JobRecord
//! [`Metrics`]: mpcp::sim::Metrics

use mpcp::dga::{horizon_capped, DgaReplay, DgaSchedule};
use mpcp::model::System;
use mpcp::model::Time;
use mpcp::protocols::ProtocolKind;
use mpcp::service::json::fnv1a;
use mpcp::sim::{Monitor, Protocol, SimConfig, Simulator, Slice};
use mpcp::taskgen::{generate, paper, WorkloadConfig};
use std::fmt::{Debug, Write as _};

const GOLDEN: &str = include_str!("golden/engine_streams.txt");

/// The two benchmark sweep families (4×3 default periods, 8×8 with two
/// forced global sections and 500..5000 periods) on their utilization
/// grid, a few systems with suspensions and nesting, and the paper's
/// three examples.
fn systems() -> Vec<(String, System)> {
    let util = |k: u64| 0.30 + 0.05 * (k % 10) as f64;
    let mut out = Vec::new();
    for k in 0..60u64 {
        let cfg = WorkloadConfig::default()
            .processors(4)
            .tasks_per_processor(3)
            .resources(1, 2)
            .sections(0, 2)
            .utilization(util(k));
        out.push((format!("4x3 seed={}", 3000 + k), generate(&cfg, 3000 + k)));
    }
    for k in 0..8u64 {
        let cfg = WorkloadConfig::default()
            .processors(8)
            .tasks_per_processor(8)
            .resources(1, 2)
            .sections(0, 2)
            .global_sections(2)
            .periods(500, 5000)
            .utilization(util(k));
        out.push((format!("8x8 seed={}", 4000 + k), generate(&cfg, 4000 + k)));
    }
    for k in 0..8u64 {
        let cfg = WorkloadConfig::default()
            .processors(3)
            .tasks_per_processor(3)
            .resources(1, 2)
            .sections(0, 2)
            .suspensions(0.4)
            .nesting(if k % 2 == 0 { 0.3 } else { 0.0 })
            .utilization(util(k));
        out.push((
            format!("3x3-susp seed={}", 5000 + k),
            generate(&cfg, 5000 + k),
        ));
    }
    out.push(("example1".into(), paper::example1(5).0));
    out.push(("example2".into(), paper::example2(5).0));
    out.push(("example3".into(), paper::example3().0));
    out
}

fn hash_all<T: Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    let mut text = String::new();
    for item in items {
        let _ = writeln!(text, "{item:?}");
    }
    fnv1a(text.as_bytes())
}

fn continues(last: &Slice, next: &Slice) -> bool {
    (last.processor, last.job, last.band) == (next.processor, next.job, next.band)
        && last.start + last.dur == next.start
}

/// The per-step slice stream the golden was recorded from, rebuilt from
/// what the engine recorded: per processor the recorded slices
/// coalesced into a timeline that must cover `[instants[0],
/// instants.last())` without gap or overlap; then per step interval,
/// per processor in order, the covering slice cut to the interval,
/// pushed through the recorder's old rule (merge into the *globally*
/// last slice when it continues it — which only ever fires at m = 1).
/// Panics unless the recorded stream is already maximal per processor,
/// i.e. coalescing found nothing to merge.
fn per_step_stream(recorded: &[Slice], processors: usize, instants: &[Time]) -> Vec<Slice> {
    let mut timelines: Vec<Vec<Slice>> = vec![Vec::new(); processors];
    for s in recorded {
        let timeline = &mut timelines[s.processor.index()];
        match timeline.last_mut() {
            Some(last) if continues(last, s) => last.dur += s.dur,
            _ => timeline.push(*s),
        }
    }
    let (start, end) = (instants[0], *instants.last().unwrap());
    for (p, timeline) in timelines.iter().enumerate() {
        let mut at = start;
        for s in timeline {
            assert_eq!(s.start, at, "P{p}: gap or overlap before {s:?}");
            at = s.start + s.dur;
        }
        assert_eq!(at, end, "P{p}: timeline ends early");
    }
    let coalesced: usize = timelines.iter().map(Vec::len).sum();
    assert_eq!(
        coalesced,
        recorded.len(),
        "recorded slices are not maximal per processor"
    );

    let mut out: Vec<Slice> = Vec::new();
    let mut cursor = vec![0usize; processors];
    for step in instants.windows(2) {
        for (timeline, at) in timelines.iter().zip(&mut cursor) {
            while timeline[*at].start + timeline[*at].dur <= step[0] {
                *at += 1;
            }
            let cover = timeline[*at];
            assert!(
                cover.start <= step[0] && cover.start + cover.dur >= step[1],
                "{cover:?} changes inside the step {step:?}"
            );
            let cut = Slice {
                start: step[0],
                dur: step[1] - step[0],
                ..cover
            };
            match out.last_mut() {
                Some(last) if continues(last, &cut) => last.dur += cut.dur,
                _ => out.push(cut),
            }
        }
    }
    out
}

/// One recorded, monitored run rendered as one golden line.
fn run_line(
    out: &mut String,
    label: &str,
    arm: &str,
    system: &System,
    protocol: Box<dyn Protocol>,
    config: SimConfig,
    monitor: Monitor,
) {
    let mut sim = Simulator::with_config(system, protocol, config);
    sim.set_monitor(monitor);
    let mut instants = vec![sim.now()];
    loop {
        let more = sim.step();
        if sim.now() > *instants.last().unwrap() {
            instants.push(sim.now());
        }
        if !more {
            break;
        }
    }
    let trace = sim.trace();
    let slices = per_step_stream(trace.slices(), system.processors().len(), &instants);
    let mon = sim.monitor().expect("monitor attached");
    let settled = sim
        .records()
        .iter()
        .map(|r| mon.observed().map(|ob| ob.settled(r.id)));
    let _ = writeln!(
        out,
        "{label} {arm} now={} misses={} events={} slices={} records={} \
         ev={:016x} sl={:016x} rec={:016x} met={:016x} mon={:016x}",
        sim.now().ticks(),
        sim.misses(),
        trace.events().len(),
        slices.len(),
        sim.records().len(),
        hash_all(trace.events()),
        hash_all(&slices),
        hash_all(sim.records()),
        hash_all([sim.metrics()]),
        hash_all(
            [format!("{:?}", mon.error())]
                .into_iter()
                .chain(settled.map(|s| format!("{s:?}")))
        ),
    );
}

fn render() -> String {
    let mut out = String::new();
    for (label, system) in systems() {
        let horizon = horizon_capped(&system, 20_000);
        let config = SimConfig::until(horizon.ticks());
        for kind in ProtocolKind::ALL {
            let mut monitor = Monitor::new(&system, kind.monitor_spec());
            let protocol: Box<dyn Protocol> = if kind == ProtocolKind::Dga {
                // Construct mode and replay are both pinned: the
                // schedule is the construction run's output, the trace
                // its replay's.
                match DgaSchedule::compute(&system, horizon) {
                    Ok(schedule) => {
                        let _ = writeln!(
                            out,
                            "{label} dga-schedule sections={} accepted={} sched={:016x}",
                            schedule.sections(),
                            schedule.accepted,
                            hash_all([&schedule]),
                        );
                        monitor.set_conformance(schedule.expected_grants());
                        Box::new(DgaReplay::from_schedule(schedule))
                    }
                    Err(e) => {
                        let _ = writeln!(out, "{label} dga-schedule error: {e}");
                        continue;
                    }
                }
            } else {
                kind.build()
            };
            run_line(
                &mut out,
                &label,
                kind.name(),
                &system,
                protocol,
                config.clone(),
                monitor,
            );
        }
        // The early-exit path: same run, stopped at its first miss.
        run_line(
            &mut out,
            &label,
            "mpcp+stop-on-miss",
            &system,
            ProtocolKind::Mpcp.build(),
            SimConfig {
                stop_on_miss: true,
                ..config
            },
            Monitor::new(&system, ProtocolKind::Mpcp.monitor_spec()),
        );
    }
    out
}

#[test]
fn streams_match_the_recorded_bytes() {
    let got = render();
    if let Some((n, (g, w))) = got
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("line {}:\n  got:  {g}\n  want: {w}", n + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count());
}

/// The golden is only worth something if the recorded runs reach the
/// engine paths the rewrite touches.
#[test]
fn golden_covers_the_paths_under_change() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    for kind in ProtocolKind::ALL {
        let arm = format!(" {} now=", kind.name());
        assert!(
            lines.iter().filter(|l| l.contains(&arm)).count() >= 60,
            "{kind} under-covered"
        );
    }
    assert!(lines.iter().any(|l| l.contains("dga-schedule error")));
    // Some runs miss deadlines (so stop-on-miss actually stops early),
    // and some stop-on-miss runs reach the horizon.
    let stops: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("+stop-on-miss"))
        .collect();
    assert!(stops.iter().any(|l| l.contains(" misses=1 ")));
    assert!(stops.iter().any(|l| l.contains(" misses=0 ")));
}
