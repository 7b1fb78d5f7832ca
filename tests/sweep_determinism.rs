//! The sweep's headline guarantee: the report is a pure function of the
//! configuration — independent of worker count and stable across
//! re-runs — so a violation found on a 64-core CI box replays exactly
//! on a laptop with `--jobs 1`.

use mpcp::sweep::{run, shootout, SweepConfig};

fn small() -> SweepConfig {
    SweepConfig {
        scenarios: 30,
        seed: 7,
        horizon_cap: 5_000,
        ..SweepConfig::default()
    }
}

#[test]
fn report_is_identical_for_any_worker_count() {
    let reference = run(&small());
    let ref_bytes = reference.canonical_json().encode();
    for jobs in [2, 4, 13] {
        let report = run(&SweepConfig { jobs, ..small() });
        assert_eq!(
            report.hash(),
            reference.hash(),
            "hash differs at jobs={jobs}"
        );
        assert_eq!(
            report.canonical_json().encode(),
            ref_bytes,
            "canonical report differs at jobs={jobs}"
        );
    }
}

#[test]
fn report_is_stable_across_reruns() {
    let a = run(&small());
    let b = run(&small());
    assert_eq!(a.hash(), b.hash());
    assert_eq!(a.canonical_json().encode(), b.canonical_json().encode());
}

/// Golden report-hash pin for the default benchmark workload (seed 42,
/// 300 scenarios, shrink off — exactly the config of
/// `cargo bench -p mpcp-bench --bench sweep`).
///
/// Lineage: `ee6df60da83cce9e` was first recorded on the trace-eager
/// oracle *before* the allocation-free hot path landed, and was
/// byte-identical through the arena-job engine, the streaming-monitor
/// trace-lazy oracle, the completion-candidate sweep, and the fused
/// advance loop. `9c9ad85b2f5b319b` replaced it when the DGA arm joined
/// the default protocol set: every scenario now also runs the offline
/// dependency-graph schedule, adding a sixth outcome column (and its
/// acceptance statistic) to the canonical report. `d35a076d9eca07b3`
/// replaced `9c9ad85b2f5b319b` when the MSRP and FMLP+ arms joined the
/// default protocol set: every scenario now also runs the FIFO
/// spin-lock and suspension-based FIFO protocols, adding two outcome
/// columns (each with a blocking-bound differential check and an
/// analysis-acceptance statistic) to the canonical report. Any
/// scheduling, protocol, analysis, check or encoding change shows up
/// here — including "harmless" reorderings unit tests cannot see. If a
/// change legitimately alters results, re-record via the bench, update
/// the constant, and extend this comment with the reason.
#[test]
fn default_workload_report_hash_is_pinned() {
    const GOLDEN_HASH: u64 = 0xd35a_076d_9eca_07b3;
    let cfg = |jobs| SweepConfig {
        scenarios: 300,
        seed: 42,
        jobs,
        shrink: false,
        ..SweepConfig::default()
    };
    assert_eq!(
        run(&cfg(1)).hash(),
        GOLDEN_HASH,
        "sweep report diverged from the golden hash; if intentional, \
         re-record with `cargo bench -p mpcp-bench --bench sweep` and \
         document the change here"
    );
    assert_eq!(
        run(&cfg(4)).hash(),
        GOLDEN_HASH,
        "hash must not depend on --jobs"
    );
}

/// The shootout's pin, beside the sweep's: 200 scenarios, seed 42,
/// defaults — what `mpcp shootout` prints with no flags. Recorded when
/// MSRP and FMLP+ joined [`mpcp::protocols::ProtocolKind::ALL`] and
/// carried as README prose until the shootout became a projection of
/// the sweep's report; a projection that re-orders a float sum or a JSON
/// field shows up here.
#[test]
fn shootout_report_hash_is_pinned() {
    let cfg = SweepConfig {
        scenarios: 200,
        jobs: 4,
        ..SweepConfig::default()
    };
    assert_eq!(shootout(&cfg).hash(), 0x24b9_4e96_7592_3bf1);
}

/// `tests/golden/NAME`, recorded from the CLI of the commit before the
/// shootout became a view of `SweepReport`.
fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A text rendering minus its second line, the only one with timing.
fn untimed(text: &str) -> String {
    let mut lines: Vec<&str> = text.split('\n').collect();
    assert!(lines[1].contains("elapsed"), "{}", lines[1]);
    lines.remove(1);
    lines.join("\n")
}

/// `--scenarios 60 --seed 42 --util-steps 5`, the CI smoke size.
fn smoke() -> SweepConfig {
    SweepConfig {
        scenarios: 60,
        util_steps: 5,
        ..SweepConfig::default()
    }
}

/// Every byte `mpcp shootout` prints, in all three formats.
#[test]
fn shootout_renderings_match_the_recorded_bytes() {
    let report = shootout(&smoke());
    assert_eq!(report.hash(), 0xfcc7_1f1d_c73c_aa2f);
    assert_eq!(
        report.canonical_json().encode() + "\n",
        golden("shootout_seed42_60x5.json")
    );
    assert_eq!(report.csv(), golden("shootout_seed42_60x5.csv"));
    assert_eq!(
        untimed(&report.render_text()),
        golden("shootout_seed42_60x5.txt")
    );
}

/// `mpcp sweep --no-shrink` on the same grid: CSV and text.
#[test]
fn sweep_renderings_match_the_recorded_bytes() {
    let report = run(&SweepConfig {
        shrink: false,
        ..smoke()
    });
    assert_eq!(report.csv(), golden("sweep_seed42_60x5.csv"));
    assert_eq!(
        untimed(&report.render_text()),
        golden("sweep_seed42_60x5.txt")
    );
}

/// The shootout inherits the same guarantee: every protocol over the
/// same grid, byte-identical canonical report for any worker count and
/// across re-runs.
#[test]
fn shootout_report_is_identical_for_any_worker_count() {
    let reference = shootout(&small());
    let ref_bytes = reference.canonical_json().encode();
    for jobs in [2, 4, 13] {
        let report = shootout(&SweepConfig { jobs, ..small() });
        assert_eq!(
            report.hash(),
            reference.hash(),
            "shootout hash differs at jobs={jobs}"
        );
        assert_eq!(
            report.canonical_json().encode(),
            ref_bytes,
            "canonical shootout report differs at jobs={jobs}"
        );
    }
    let rerun = shootout(&small());
    assert_eq!(rerun.hash(), reference.hash(), "rerun must be stable");
}
