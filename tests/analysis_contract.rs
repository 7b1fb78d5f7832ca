//! The analysis contract reproduces the pre-contract entry points
//! exactly.
//!
//! `tests/golden/analysis_contract.txt` was recorded at the parent of
//! the commit that introduced [`Analysis`], from the four result-type
//! families it replaced (`mpcp_bounds_with` + `theorem3`,
//! `dpcp_bounds_with` + `theorem3`, `MsrpBoundSet`, `FmlpBoundSet`):
//! per task `(blocking, demand, bound, ok)` — floats as IEEE-754 bit
//! patterns — plus the named terms, and the set verdict, for all four
//! analyses under both [`BlockingConfig`]s over twenty seeded `taskgen`
//! systems. The sweep and shootout report hashes only see accept bits;
//! this file sees the values.
//!
//! `tests/golden/analysis_contract_wide.txt` is the same rendering over
//! eight larger systems (8×8 with two forced global sections, 16×4 with
//! nesting), where the per-resource and per-processor indices behind
//! MPCP factor 4, DPCP 4′/5′, MSRP spin and FMLP+ wait have
//! neighbourhoods worth indexing. It was recorded from the scans those
//! indices replaced.

use mpcp::analysis::{collapse_nested_globals, Analysis, BlockingConfig};
use mpcp::model::System;
use mpcp::taskgen::{generate, WorkloadConfig};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/analysis_contract.txt");
const GOLDEN_WIDE: &str = include_str!("golden/analysis_contract_wide.txt");

/// Five shapes × four seeds; odd seeds add explicit suspensions, the
/// fourth shape nests sections (so some systems are rejected).
fn systems() -> Vec<(String, System)> {
    let shapes: [(usize, usize, f64, usize, f64); 5] = [
        (2, 2, 0.30, 0, 0.0),
        (3, 3, 0.45, 0, 0.0),
        (4, 3, 0.55, 2, 0.0),
        (4, 4, 0.65, 0, 0.3),
        (8, 3, 0.40, 1, 0.0),
    ];
    let mut out = Vec::new();
    for (i, &(procs, tasks, util, gsections, nesting)) in shapes.iter().enumerate() {
        for k in 0..4u64 {
            let seed = 7000 + 100 * i as u64 + k;
            let cfg = WorkloadConfig::default()
                .processors(procs)
                .tasks_per_processor(tasks)
                .utilization(util)
                .resources(1, 2)
                .sections(0, 2)
                .global_sections(gsections)
                .nesting(nesting)
                .suspensions(if k % 2 == 1 { 0.3 } else { 0.0 });
            let label = format!(
                "seed={seed} shape={procs}x{tasks} util={util:.2} gsections={gsections} nesting={nesting:.1}"
            );
            out.push((label, generate(&cfg, seed)));
        }
    }
    out
}

fn render_one(analysis: Analysis, system: &System, config: BlockingConfig) -> String {
    let mut out = String::new();
    match analysis.bounds(system, config) {
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
        Ok(set) => {
            let _ = writeln!(out, "schedulable={}", set.schedulable());
            for row in set.per_task() {
                let _ = write!(
                    out,
                    "  {} blocking={} demand={:016x} bound={:016x} ok={}",
                    system.task(row.task).name(),
                    row.blocking.ticks(),
                    row.demand.to_bits(),
                    row.bound.to_bits(),
                    row.ok,
                );
                for (name, term) in row.terms() {
                    let _ = write!(out, " {name}={}", term.ticks());
                }
                out.push('\n');
            }
        }
    }
    out
}

/// Two wide shapes × four seeds: `sweep-wide`'s 8×8 family with two
/// forced global sections and periods 500–5000, and 16×4 with nesting.
fn systems_wide() -> Vec<(String, System)> {
    let mut out = Vec::new();
    for k in 0..4u64 {
        let seed = 7500 + k;
        let util = if k < 2 { 0.45 } else { 0.25 };
        let cfg = WorkloadConfig::default()
            .processors(8)
            .tasks_per_processor(8)
            .utilization(util)
            .periods(500, 5000)
            .global_sections(2)
            .suspensions(if k % 2 == 1 { 0.3 } else { 0.0 });
        let label = format!("seed={seed} shape=8x8 util={util:.2} periods=500..5000 gsections=2");
        out.push((label, generate(&cfg, seed)));
    }
    for k in 0..4u64 {
        let seed = 7600 + k;
        let cfg = WorkloadConfig::default()
            .processors(16)
            .tasks_per_processor(4)
            .utilization(0.40)
            .resources(1, 4)
            .sections(0, 3)
            .nesting(0.3)
            .suspensions(if k % 2 == 1 { 0.3 } else { 0.0 });
        // Every analysis rejects nested global sections, so each 16×4
        // system is rendered after §5.1's lock collapsing: the group
        // locks are global resources with many users.
        let (collapsed, _) = collapse_nested_globals(&generate(&cfg, seed));
        let label = format!("seed={seed} shape=16x4 util=0.40 nesting=0.3 collapsed");
        out.push((label, collapsed));
    }
    out
}

fn render(systems: Vec<(String, System)>) -> String {
    let mut out = String::new();
    for (label, system) in systems {
        let _ = writeln!(out, "system {label}");
        for analysis in Analysis::ALL {
            let paper = render_one(analysis, &system, BlockingConfig::paper());
            let sound = render_one(analysis, &system, BlockingConfig::sound());
            let _ = write!(out, "{analysis} paper {paper}");
            if sound == paper {
                let _ = writeln!(out, "{analysis} sound same as paper");
            } else {
                let _ = write!(out, "{analysis} sound {sound}");
            }
        }
    }
    out
}

fn assert_matches(got: &str, golden: &str) {
    if let Some((n, (g, w))) = got
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("line {}:\n  got:  {g}\n  want: {w}", n + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count());
}

#[test]
fn bounds_reproduce_the_recorded_entry_points_exactly() {
    assert_matches(&render(systems()), GOLDEN);
}

#[test]
fn wide_bounds_reproduce_the_recorded_scans_exactly() {
    let body = GOLDEN_WIDE
        .split_once("\nsystem ")
        .map(|(_, rest)| format!("system {rest}"))
        .expect("header, then systems");
    assert_matches(&render(systems_wide()), &body);
}

/// The golden is only worth something if it exercises every analysis on
/// accepted, rejected and unanalyzable systems, and carry-in counts
/// that actually differ.
#[test]
fn golden_covers_every_outcome() {
    for analysis in Analysis::ALL {
        for needle in ["schedulable=true", "schedulable=false", "error:"] {
            assert!(
                GOLDEN.contains(&format!("{analysis} paper {needle}")),
                "{analysis}: no {needle} case"
            );
        }
    }
    for name in ["mpcp", "dpcp"] {
        assert!(GOLDEN.contains(&format!("{name} sound schedulable=")));
    }
    for name in ["msrp", "fmlp"] {
        assert!(!GOLDEN.contains(&format!("{name} sound schedulable=")));
    }
}
