//! Exhaustive small-scope model checking of protocol executions.
//!
//! For a small system the scheduler is deterministic once the release
//! times are fixed, so the reachable executions are exactly the
//! release-phasing variants. The checker enumerates every combination
//! of per-task release offsets on a grid ([`CheckerConfig::max_offset`]
//! / [`CheckerConfig::offset_step`]) and judges each variant with the
//! sweep oracle's own per-protocol arm, the one [`crate::evaluate_in`]
//! runs per scenario: the protocol's monitor spec, DGA's schedule
//! conformance and exact response, every analysis' blocking bound and
//! "accepted ⇒ no miss", and MPCP's trace accounting. The sweep and the checker are two
//! drivers of one judge, so they cannot disagree on what a violation is.
//!
//! The *small-scope hypothesis*: most protocol bugs already show up on
//! systems of a handful of tasks within a couple of hyperperiods, so
//! exhausting the small space buys real confidence cheaply.

use crate::oracle::{Run, ViolationKind, Workspace};
use mpcp_model::System;
use mpcp_protocols::ProtocolKind;
use mpcp_sim::Protocol;
use mpcp_verify::{Diagnostic, Report, Severity};

/// Scope bounds for an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerConfig {
    /// Ticks to simulate per variant, and DGA's schedule horizon; `0`
    /// picks two hyperperiods (clamped to [100, 20 000]).
    pub horizon: u64,
    /// Largest extra release offset tried per task.
    pub max_offset: u64,
    /// Grid step between tried offsets (must be nonzero).
    pub offset_step: u64,
    /// Hard cap on enumerated variants; exceeding it marks the
    /// exploration truncated rather than running forever.
    pub max_variants: usize,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            horizon: 0,
            max_offset: 2,
            offset_step: 1,
            max_variants: 4096,
        }
    }
}

impl CheckerConfig {
    fn resolved_horizon(&self, system: &System) -> u64 {
        if self.horizon != 0 {
            return self.horizon;
        }
        let hyper = system.hyperperiod().ticks().saturating_mul(2);
        hyper.clamp(100, 20_000)
    }
}

/// One oracle violation found in one execution variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The per-task release offsets (in task order) of the variant.
    pub offsets: Vec<u64>,
    /// What the oracle's arm found.
    pub kind: ViolationKind,
}

/// Result of exhausting the scope for one protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// Name of the protocol explored.
    pub protocol: String,
    /// Number of release-phasing variants simulated.
    pub variants: usize,
    /// Whether [`CheckerConfig::max_variants`] cut the enumeration short.
    pub truncated: bool,
    /// All oracle violations found, in discovery order.
    pub violations: Vec<Violation>,
}

impl Exploration {
    /// Whether every explored execution passed every check of the arm.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Rebuilds `system` with each task's release shifted by the matching
/// delta (periodic tasks get an offset bump; arrival-driven tasks get
/// every arrival shifted).
fn with_offsets(system: &System, deltas: &[u64]) -> System {
    let shifted = system.tasks().iter().zip(deltas).map(|(task, &delta)| {
        let def = task.to_def().offset(task.offset().ticks() + delta);
        match task.arrivals() {
            Some(times) => def.arrivals(times.iter().map(|t| t.ticks() + delta)),
            None => def,
        }
    });
    system
        .with_tasks(shifted)
        .expect("offset variant of a valid system is valid")
}

/// Odometer over the offset grid: yields every combination of
/// `0, step, 2*step, ..., <= max_offset` across `n` tasks.
struct OffsetGrid {
    current: Vec<u64>,
    max_offset: u64,
    step: u64,
    done: bool,
}

impl OffsetGrid {
    fn new(n: usize, max_offset: u64, step: u64) -> Self {
        OffsetGrid {
            current: vec![0; n],
            max_offset,
            step: step.max(1),
            done: false,
        }
    }
}

impl Iterator for OffsetGrid {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        let mut i = 0;
        loop {
            if i == self.current.len() {
                self.done = true;
                break;
            }
            self.current[i] += self.step;
            if self.current[i] <= self.max_offset {
                break;
            }
            self.current[i] = 0;
            i += 1;
        }
        Some(out)
    }
}

/// Explores every release-phasing variant of `system` under a custom
/// protocol factory, judging each run as `kind` — the invariants of
/// its monitor spec, its analysis' bounds, DGA's schedule.
///
/// [`explore`] covers the built-in protocols. Passing a *wrong* factory
/// for a kind — say, raw FIFO semaphores judged as MPCP — is how the
/// checker's own sensitivity is validated.
pub fn explore_with(
    system: &System,
    config: &CheckerConfig,
    kind: ProtocolKind,
    mut factory: impl FnMut() -> Box<dyn Protocol>,
) -> Exploration {
    exploration(system, config, kind, || Some(factory()))
}

/// Explores every release-phasing variant of `system` under one
/// built-in protocol, judged by the sweep oracle's arm for it.
pub fn explore(system: &System, kind: ProtocolKind, config: &CheckerConfig) -> Exploration {
    exploration(system, config, kind, || None)
}

/// The enumeration behind [`explore`] and [`explore_with`]: `policy`
/// yields the simulated policy per variant, `None` for `kind`'s own.
fn exploration(
    system: &System,
    config: &CheckerConfig,
    kind: ProtocolKind,
    mut policy: impl FnMut() -> Option<Box<dyn Protocol>>,
) -> Exploration {
    let mut exploration = Exploration {
        protocol: kind.name().to_owned(),
        variants: 0,
        truncated: false,
        violations: Vec::new(),
    };
    // A system outside the protocol's model is reported as unexplored
    // (zero variants) rather than letting schedule construction fail.
    if !kind.applicable(system) {
        return exploration;
    }
    let horizon = config.resolved_horizon(system);
    let mut ws = Workspace::default();
    for deltas in OffsetGrid::new(system.tasks().len(), config.max_offset, config.offset_step) {
        if exploration.variants >= config.max_variants {
            exploration.truncated = true;
            break;
        }
        exploration.variants += 1;
        let variant = with_offsets(system, &deltas);
        let outcome = Run::new(&variant, horizon, false).judge(&mut ws, kind, policy());
        exploration
            .violations
            .extend(outcome.violations.into_iter().map(|kind| Violation {
                offsets: deltas.clone(),
                kind,
            }));
    }
    exploration
}

/// Runs [`explore`] for all built-in protocols.
pub fn explore_all(system: &System, config: &CheckerConfig) -> Vec<Exploration> {
    ProtocolKind::ALL
        .iter()
        .map(|&kind| explore(system, kind, config))
        .collect()
}

/// Converts exploration results into a diagnostics [`Report`]: one
/// `V100` error per violation, one `V101` warning per truncated
/// enumeration.
pub fn report(explorations: &[Exploration]) -> Report {
    let mut out = Report::new();
    for ex in explorations {
        for v in &ex.violations {
            let offsets = v
                .offsets
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            out.push(
                Diagnostic::new(
                    "V100",
                    "model-checker-violation",
                    Severity::Error,
                    format!(
                        "{}: {} violated (offsets [{}]): {}",
                        ex.protocol,
                        v.kind.code(),
                        offsets,
                        v.kind.detail()
                    ),
                )
                .with_hint("re-run `mpcp sim` with these offsets to reproduce the trace"),
            );
        }
        if ex.truncated {
            out.push(
                Diagnostic::new(
                    "V101",
                    "model-checker-truncated",
                    Severity::Warning,
                    format!(
                        "{}: enumeration stopped after {} variants; scope not exhausted",
                        ex.protocol, ex.variants
                    ),
                )
                .with_hint("raise max_variants or coarsen the offset grid"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_grid_is_exhaustive_and_duplicate_free() {
        let all: Vec<Vec<u64>> = OffsetGrid::new(3, 2, 1).collect();
        assert_eq!(all.len(), 27);
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 27);
        assert!(all.contains(&vec![0, 0, 0]));
        assert!(all.contains(&vec![2, 2, 2]));
    }

    #[test]
    fn offset_grid_respects_step() {
        let all: Vec<Vec<u64>> = OffsetGrid::new(2, 4, 2).collect();
        assert_eq!(all.len(), 9);
        assert!(all.iter().all(|v| v.iter().all(|&d| d % 2 == 0)));
    }
}
