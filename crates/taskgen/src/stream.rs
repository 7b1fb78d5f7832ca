//! Scenario streams: reproducible sequences of generated systems,
//! addressable by index, for the scenario sweep.

use crate::gen::{generate, WorkloadConfig};
use mpcp_model::System;

/// One generated test scenario: a system plus the settings that
/// produced it, addressable by index.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the stream.
    pub index: u64,
    /// The generator seed that produced [`Scenario::system`].
    pub system_seed: u64,
    /// The per-processor utilization target of this scenario.
    pub utilization: f64,
    /// The full workload settings used.
    pub config: WorkloadConfig,
    /// The generated system.
    pub system: System,
}

/// A reproducible stream of sweep scenarios: seeds advance linearly
/// while the per-processor utilization cycles through a fixed grid, so
/// a single stream covers a whole schedulability curve.
///
/// Every scenario is distinct: scenario `i` uses seed `base_seed + i`
/// and utilization `grid[i % grid.len()]`. Random access via
/// [`ScenarioStream::scenario_at`] is independent of iteration state,
/// which lets parallel workers claim arbitrary indices.
#[derive(Debug, Clone)]
pub struct ScenarioStream {
    base: WorkloadConfig,
    base_seed: u64,
    grid: Vec<f64>,
    next: u64,
}

impl ScenarioStream {
    /// Creates a stream over an explicit utilization grid. An empty
    /// grid degenerates to the base config's own utilization.
    pub fn new(base: WorkloadConfig, base_seed: u64, grid: Vec<f64>) -> Self {
        let grid = if grid.is_empty() {
            vec![base.utilization_per_processor]
        } else {
            grid
        };
        ScenarioStream {
            base,
            base_seed,
            grid,
            next: 0,
        }
    }

    /// Creates a stream over `steps` evenly spaced utilizations in
    /// `[lo, hi]` (inclusive; `steps` is forced to at least 1).
    pub fn over_utilizations(
        base: WorkloadConfig,
        base_seed: u64,
        lo: f64,
        hi: f64,
        steps: usize,
    ) -> Self {
        let steps = steps.max(1);
        let grid = (0..steps)
            .map(|k| {
                if steps == 1 {
                    lo
                } else {
                    lo + (hi - lo) * k as f64 / (steps - 1) as f64
                }
            })
            .collect();
        ScenarioStream::new(base, base_seed, grid)
    }

    /// The utilization grid the stream cycles through.
    pub fn grid(&self) -> &[f64] {
        &self.grid
    }

    /// The scenario at stream position `i`, independent of iteration
    /// state.
    pub fn scenario_at(&self, i: u64) -> Scenario {
        let utilization = self.grid[(i % self.grid.len() as u64) as usize];
        let config = self.base.clone().utilization(utilization);
        let system_seed = self.base_seed + i;
        Scenario {
            index: i,
            system_seed,
            utilization,
            system: generate(&config, system_seed),
            config,
        }
    }
}

impl Iterator for ScenarioStream {
    type Item = Scenario;

    fn next(&mut self) -> Option<Scenario> {
        let item = self.scenario_at(self.next);
        self.next += 1;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_stream_cycles_the_grid_and_advances_seeds() {
        let cfg = WorkloadConfig::default()
            .processors(2)
            .tasks_per_processor(2);
        let stream = ScenarioStream::over_utilizations(cfg, 10, 0.2, 0.6, 3);
        assert_eq!(stream.grid(), &[0.2, 0.4, 0.6]);
        let s0 = stream.scenario_at(0);
        let s3 = stream.scenario_at(3);
        assert_eq!(s0.utilization, s3.utilization);
        assert_eq!(s0.system_seed, 10);
        assert_eq!(s3.system_seed, 13);
        // Same grid point, different seed: different systems.
        assert_ne!(s0.system, s3.system);
    }

    #[test]
    fn scenario_random_access_matches_iteration() {
        let cfg = WorkloadConfig::default()
            .processors(1)
            .tasks_per_processor(2);
        let stream = ScenarioStream::over_utilizations(cfg, 5, 0.3, 0.5, 2);
        for (i, sc) in stream.clone().take(5).enumerate() {
            let direct = stream.scenario_at(i as u64);
            assert_eq!(sc.index, direct.index);
            assert_eq!(sc.system_seed, direct.system_seed);
            assert_eq!(sc.system, direct.system);
        }
    }

    /// The multi-gcs knob rides the stream's workload config: every
    /// scenario honours it, random access stays deterministic, and two
    /// independently built streams agree scenario for scenario.
    #[test]
    fn multi_gcs_knob_rides_scenario_streams_deterministically() {
        let cfg = WorkloadConfig::default()
            .processors(2)
            .tasks_per_processor(2)
            .resources(1, 2)
            .global_sections(2);
        let a = ScenarioStream::over_utilizations(cfg.clone(), 42, 0.3, 0.6, 3);
        let b = ScenarioStream::over_utilizations(cfg, 42, 0.3, 0.6, 3);
        let mut saw_multi = false;
        for (i, sc) in a.clone().take(6).enumerate() {
            assert_eq!(sc.config.min_global_sections, 2);
            let twin = b.scenario_at(i as u64);
            assert_eq!(sc.system, twin.system);
            assert_eq!(sc.system, a.scenario_at(i as u64).system);
            saw_multi |= sc.system.tasks().iter().any(|t| {
                t.body()
                    .critical_sections()
                    .iter()
                    .filter(|cs| sc.system.resource(cs.resource).name().starts_with('G'))
                    .count()
                    > 1
            });
        }
        assert!(saw_multi, "knob-on stream generated no multi-gcs task");
    }

    #[test]
    fn empty_grid_falls_back_to_base_utilization() {
        let cfg = WorkloadConfig::default().utilization(0.45);
        let stream = ScenarioStream::new(cfg, 0, vec![]);
        assert_eq!(stream.grid(), &[0.45]);
        // A single-step range pins to `lo`.
        let one = ScenarioStream::over_utilizations(WorkloadConfig::default(), 0, 0.7, 0.9, 1);
        assert_eq!(one.grid(), &[0.7]);
    }
}
