//! Sweep configuration.

use mpcp_protocols::ProtocolKind;
use mpcp_taskgen::{ScenarioStream, WorkloadConfig};

/// Everything a sweep run needs: the workload template, the scenario
/// budget, the worker count and the oracle switches.
///
/// The defaults match the CI smoke configuration: 4 processors × 3
/// tasks, one local resource pool and two global semaphores, with the
/// per-processor utilization swept over `[0.30, 0.75]`.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workload template; its utilization field is overridden by the
    /// sweep grid.
    pub workload: WorkloadConfig,
    /// Number of scenarios to evaluate.
    pub scenarios: usize,
    /// Base seed; scenario `i` uses `seed + i`.
    pub seed: u64,
    /// Worker threads. The report is identical for any value ≥ 1.
    pub jobs: usize,
    /// Protocols to simulate per scenario.
    pub protocols: Vec<ProtocolKind>,
    /// Simulation horizon: `min(2 × hyperperiod, horizon_cap)` ticks.
    pub horizon_cap: u64,
    /// Lowest per-processor utilization in the sweep grid.
    pub util_lo: f64,
    /// Highest per-processor utilization in the sweep grid.
    pub util_hi: f64,
    /// Number of grid points between `util_lo` and `util_hi`.
    pub util_steps: usize,
    /// Also treat the RTA response-time comparison as a hard oracle.
    ///
    /// **Advisory by default.** Observed MPCP responses exceed the RTA
    /// fixed point on a small fraction of scenarios (9/1000 at seed 42;
    /// e.g. system seed 257 measures 1394 against a fixed point of
    /// 1370). The recurrences are not at fault: the simulator completes
    /// a job whose last tick ends at `t` only after `t`'s releases are
    /// dispatched, so a higher-priority release stretches a response
    /// that had no work left (DESIGN §10, EXPERIMENTS E17). Until the
    /// engine completes such a job first, the comparison is reported
    /// via the `rta_accepted` curve statistic instead of failing the
    /// run.
    pub check_response: bool,
    /// Self-certify the incremental analysis engine on every scenario:
    /// replay a small edit script through
    /// `mpcp_verify::IncrementalAnalysis` and require its snapshot to
    /// stay byte-identical with a from-scratch recompute after each
    /// edit. Any divergence is a hard oracle violation
    /// (`delta/divergence`).
    pub audit: bool,
    /// Run the audit arm only on scenarios whose stream index is a
    /// multiple of this stride (`1` = every scenario, the pre-sampling
    /// behaviour). The audit replays up to ten edits
    /// (`mpcp_verify::audit_script` over two tasks), each costing an
    /// incremental update *plus* a from-scratch recompute, so sampling
    /// keeps the default sweep simulation-bound while still certifying
    /// the incremental engine continuously. Index-based, so the sample
    /// set is identical for any `--jobs` value. Ignored when
    /// [`SweepConfig::audit`] is off.
    pub audit_stride: usize,
    /// Shrink oracle violations to minimal reproducing scenarios.
    pub shrink: bool,
    /// Budget of oracle re-evaluations per shrink.
    pub max_shrink_evals: usize,
    /// At most this many violations are shrunk into fixtures.
    pub max_fixtures: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            workload: WorkloadConfig::default()
                .processors(4)
                .tasks_per_processor(3)
                .resources(1, 2)
                .sections(0, 2),
            scenarios: 1000,
            seed: 42,
            jobs: 1,
            protocols: vec![
                ProtocolKind::Mpcp,
                ProtocolKind::Dpcp,
                ProtocolKind::Pip,
                ProtocolKind::NonPreemptive,
                ProtocolKind::Raw,
                ProtocolKind::Msrp,
                ProtocolKind::Fmlp,
                ProtocolKind::Dga,
            ],
            horizon_cap: 20_000,
            util_lo: 0.30,
            util_hi: 0.75,
            util_steps: 10,
            check_response: false,
            audit: true,
            audit_stride: 8,
            shrink: true,
            max_shrink_evals: 200,
            max_fixtures: 4,
        }
    }
}

impl SweepConfig {
    /// The scenario stream this configuration describes.
    pub fn stream(&self) -> ScenarioStream {
        ScenarioStream::over_utilizations(
            self.workload.clone(),
            self.seed,
            self.util_lo,
            self.util_hi,
            self.util_steps,
        )
    }
}
