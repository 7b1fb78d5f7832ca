//! Exhaustive small-scope model checking of protocol executions.
//!
//! For a small system the scheduler is deterministic once the release
//! times are fixed, so the reachable executions are exactly the
//! release-phasing variants. The checker enumerates every combination
//! of per-task release offsets on a grid ([`CheckerConfig::max_offset`]
//! / [`CheckerConfig::offset_step`]) and simulates each variant with an
//! [`mpcp_sim::Monitor`] attached — the judge the sweep oracle uses, so
//! every invariant a protocol's [`MonitorSpec`] promises is demanded
//! here under the same name — plus, for MPCP, a cross-check that
//! observed blocking never exceeds the §5.1 analytical bound `B_i`.
//!
//! The *small-scope hypothesis*: most protocol bugs already show up on
//! systems of a handful of tasks within a couple of hyperperiods, so
//! exhausting the small space buys real confidence cheaply.

use crate::diag::{Diagnostic, Report, Severity};
use mpcp_analysis::{Analysis, BlockingConfig};
use mpcp_model::{Dur, System, Time};
use mpcp_protocols::ProtocolKind;
use mpcp_sim::{Monitor, MonitorSpec, Protocol, SimConfig, Simulator};

/// Scope bounds for an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerConfig {
    /// Ticks to simulate per variant; `0` picks two hyperperiods
    /// (clamped to [100, 20 000]).
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

/// One invariant violation found in one execution variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Protocol under which the violation occurred.
    pub protocol: String,
    /// The per-task release offsets (in task order) of the variant.
    pub offsets: Vec<u64>,
    /// Which invariant failed: a name [`Monitor::violations`] reports,
    /// or the checker's own `blocking-bound`.
    pub invariant: &'static str,
    /// When in the execution the violation was observed.
    pub time: Time,
    /// What happened.
    pub message: String,
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
    /// All invariant violations found, in discovery order.
    pub violations: Vec<Violation>,
}

impl Exploration {
    /// Whether every explored execution satisfied every invariant.
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
/// protocol factory, demanding the invariants of `spec` and, with
/// `blocking_bound`, that observed blocking stays within the §5.1 bound
/// `B_i`. `protocol_name` labels the produced [`Violation`]s.
///
/// This is the general entry point; [`explore`] covers the built-in
/// protocols. Passing a *wrong* factory for a spec — say, raw FIFO
/// semaphores judged by MPCP's — is how the checker's own sensitivity
/// is validated.
pub fn explore_with(
    system: &System,
    config: &CheckerConfig,
    spec: MonitorSpec,
    blocking_bound: bool,
    protocol_name: &str,
    mut factory: impl FnMut() -> Box<dyn Protocol>,
) -> Exploration {
    let horizon = config.resolved_horizon(system);
    let bounds: Option<Vec<Dur>> = if blocking_bound {
        Analysis::Mpcp
            .bounds(system, BlockingConfig::sound())
            .ok()
            .map(|set| set.blocking())
    } else {
        None
    };

    let mut exploration = Exploration {
        protocol: protocol_name.to_string(),
        variants: 0,
        truncated: false,
        violations: Vec::new(),
    };

    for deltas in OffsetGrid::new(system.tasks().len(), config.max_offset, config.offset_step) {
        if exploration.variants >= config.max_variants {
            exploration.truncated = true;
            break;
        }
        exploration.variants += 1;
        let variant = with_offsets(system, &deltas);
        let run = SimConfig {
            record_trace: false,
            ..SimConfig::until(horizon)
        };
        let mut sim = Simulator::with_config(&variant, factory(), run);
        sim.set_monitor(Monitor::new(&variant, spec));
        sim.run();

        let mut fail = |invariant: &'static str, time: Time, message: String| {
            exploration.violations.push(Violation {
                protocol: protocol_name.to_string(),
                offsets: deltas.clone(),
                invariant,
                time,
                message,
            });
        };

        for (invariant, e) in sim.monitor().expect("attached above").violations() {
            fail(invariant, e.time, e.message.clone());
        }
        if let Some(bounds) = &bounds {
            let metrics = sim.metrics();
            for task in variant.tasks() {
                let measured = metrics.task(task.id()).max_blocking;
                let bound = bounds[task.id().index()];
                if measured > bound {
                    fail(
                        "blocking-bound",
                        Time::ZERO,
                        format!(
                            "{} observed blocking {} exceeds analytical bound {}",
                            task.name(),
                            measured,
                            bound,
                        ),
                    );
                }
            }
        }
    }
    exploration
}

/// Explores every release-phasing variant of `system` under one
/// built-in protocol, checking the invariants that protocol promises
/// ([`ProtocolKind::monitor_spec`]); the blocking-bound cross-check is
/// MPCP's.
pub fn explore(system: &System, kind: ProtocolKind, config: &CheckerConfig) -> Exploration {
    // A system outside the protocol's model is reported as unexplored
    // (zero variants) rather than letting schedule construction fail.
    if !kind.applicable(system) {
        return Exploration {
            protocol: kind.name().to_owned(),
            variants: 0,
            truncated: false,
            violations: Vec::new(),
        };
    }
    explore_with(
        system,
        config,
        kind.monitor_spec(),
        kind == ProtocolKind::Mpcp,
        kind.name(),
        || kind.build(),
    )
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
                        "{}: {} violated at t={} (offsets [{}]): {}",
                        ex.protocol, v.invariant, v.time, offsets, v.message
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
