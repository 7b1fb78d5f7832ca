//! The differential oracle: one scenario, every protocol, analysis vs
//! simulation.
//!
//! For each generated system the oracle runs one bounded-horizon
//! simulation per protocol, trace recording off, with a [`Monitor`]
//! judging the structural invariants that protocol promises
//! ([`ProtocolKind::monitor_spec`]), and then cross-checks the
//! analytical results against observed behaviour. The model checker
//! ([`crate::checker`]) judges each release-offset variant through the
//! same arm. Every protocol with an admission analysis
//! ([`ProtocolKind::analysis`] — MPCP, DPCP, MSRP, FMLP+) goes through
//! the same arm over its [`BoundSet`] (carry-in counts):
//!
//! * **Blocking bound** — every task's measured blocking must stay
//!   within [`TaskBounds::blocking`](mpcp_analysis::TaskBounds): `B_i`
//!   of §5.1 under MPCP, its §5.2 counterpart under DPCP, spin +
//!   arrival under MSRP, the suspension-oblivious FIFO bound under
//!   FMLP+. Compared only when that protocol's run missed no deadlines:
//!   the bounds' instance counts presume a deadline-respecting job
//!   stream (at most one carry-in job per task), and an overloaded run
//!   violates that — backlogged jobs of a single lower-priority task
//!   can each acquire a semaphore in turn and preempt a higher-priority
//!   task more often than any static count admits. (Found by the sweep
//!   itself: workload seed 1956 at utilization 0.50 backlogs two jobs
//!   of one task onto the same global semaphore.)
//! * **Acceptance** — if the set's schedulability test accepts the
//!   system, the simulation must not miss a deadline within the
//!   horizon.
//! * **Response bound** (advisory, off by default) — if the RTA
//!   recurrence converges for a task, its observed response times must
//!   stay within the fixed point (MPCP). Off by default because the
//!   sweep itself showed all three RTA variants (plain, jitter = `B_h`,
//!   jitter = `R_h − C_h`) are exceeded under deferred execution — see
//!   [`SweepConfig::check_response`]. RTA convergence still feeds the
//!   `rta_accepted` acceptance-ratio curves.
//! * **Trace accounting** — the engine's per-job `blocked_global`
//!   bookkeeping must equal the waiting time re-derived independently
//!   from the event stream ([`mpcp_sim::ObservedBlocking`]).
//! * **Schedule conformance (DGA)** — the dependency-graph arm first
//!   constructs an offline critical-section schedule
//!   ([`DgaSchedule::compute`]), then replays it; every semaphore grant
//!   must hit the scheduled job at the scheduled instant, the replay's
//!   response times must equal the schedule's exact per-task bounds,
//!   and a feasible schedule must not miss a deadline.

use crate::config::SweepConfig;
use mpcp_analysis::{
    response_times_suspension_aware, Analysis, BlockingConfig, BoundSet, TaskBounds,
};
use mpcp_dga::{DgaReplay, DgaSchedule};
use mpcp_model::{Dur, System, Time};
use mpcp_protocols::ProtocolKind;
use mpcp_sim::{Metrics, Monitor, Protocol, SimConfig, Simulator};
use mpcp_taskgen::Scenario;
use std::sync::Arc;

/// Reusable oracle scratch, one per sweep worker or model-checker
/// exploration: one recycled simulator whose job arena, time heaps and
/// scratch buffers persist across scenarios and variants
/// ([`Simulator::reset`] re-targets it without reallocating).
///
/// A workspace only affects allocation behaviour, never results:
/// [`evaluate_in`] returns the same outcome with a fresh workspace as
/// with one that judged a thousand scenarios before.
#[derive(Default)]
pub struct Workspace {
    sim: Option<Simulator<Box<dyn Protocol>>>,
}

impl Workspace {
    fn sim(
        &mut self,
        system: &System,
        protocol: Box<dyn Protocol>,
        config: SimConfig,
    ) -> &mut Simulator<Box<dyn Protocol>> {
        if let Some(sim) = &mut self.sim {
            sim.reset(system, protocol, config);
        } else {
            self.sim = Some(Simulator::with_config(system, protocol, config));
        }
        self.sim.as_mut().expect("workspace simulator")
    }
}

/// One oracle violation, with enough detail to reproduce and rank it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A structural trace invariant failed.
    Invariant {
        /// Protocol under simulation.
        protocol: &'static str,
        /// Name of the failed checker.
        check: &'static str,
        /// The checker's message.
        message: String,
    },
    /// A task's measured blocking exceeded its analytical bound.
    BlockingBound {
        /// Protocol under simulation.
        protocol: &'static str,
        /// Task index.
        task: usize,
        /// Observed worst-case blocking (ticks).
        measured: u64,
        /// Analytical bound (ticks).
        bound: u64,
    },
    /// The analysis accepted the system but the simulation missed a
    /// deadline.
    AcceptedButMissed {
        /// Protocol under simulation.
        protocol: &'static str,
        /// Deadline misses observed within the horizon.
        misses: u64,
    },
    /// A task's observed response time exceeded the converged RTA
    /// fixed point.
    ResponseBound {
        /// Protocol under simulation.
        protocol: &'static str,
        /// Task index.
        task: usize,
        /// Observed worst-case response (ticks).
        measured: u64,
        /// RTA fixed point (ticks).
        bound: u64,
    },
    /// The incremental analysis engine's snapshot diverged from a full
    /// recompute after an edit (protocol-independent; caught by the
    /// self-certification arm, see [`SweepConfig::audit`]).
    DeltaDivergence {
        /// The edit after which the snapshots differed.
        edit: String,
        /// First differing snapshot line (1-based; 0 when the
        /// snapshots differ only in length).
        line: usize,
    },
    /// Trace-derived global waiting disagrees with the engine's own
    /// accounting for a completed job.
    TraceAccounting {
        /// Protocol under simulation.
        protocol: &'static str,
        /// Task index.
        task: usize,
        /// Job instance.
        instance: u32,
        /// Waiting re-derived from the trace (ticks).
        trace: u64,
        /// Waiting accounted by the engine (ticks).
        engine: u64,
    },
}

impl ViolationKind {
    /// Stable identity of the violation *class*, independent of the
    /// concrete task/values: the shrinker preserves this code while
    /// minimizing, and reports group by it.
    pub fn code(&self) -> String {
        match self {
            ViolationKind::Invariant {
                protocol, check, ..
            } => format!("{protocol}/invariant:{check}"),
            ViolationKind::BlockingBound { protocol, .. } => format!("{protocol}/blocking-bound"),
            ViolationKind::AcceptedButMissed { protocol, .. } => {
                format!("{protocol}/accepted-but-missed")
            }
            ViolationKind::ResponseBound { protocol, .. } => format!("{protocol}/response-bound"),
            ViolationKind::DeltaDivergence { .. } => "delta/divergence".to_owned(),
            ViolationKind::TraceAccounting { protocol, .. } => {
                format!("{protocol}/trace-accounting")
            }
        }
    }

    /// Human-readable description including the concrete values.
    pub fn detail(&self) -> String {
        match self {
            ViolationKind::Invariant { message, .. } => message.clone(),
            ViolationKind::BlockingBound {
                task,
                measured,
                bound,
                ..
            } => format!("task {task}: measured blocking {measured} > bound {bound}"),
            ViolationKind::AcceptedButMissed { misses, .. } => {
                format!("analysis accepted but simulation missed {misses} deadline(s)")
            }
            ViolationKind::ResponseBound {
                task,
                measured,
                bound,
                ..
            } => format!("task {task}: measured response {measured} > RTA bound {bound}"),
            ViolationKind::DeltaDivergence { edit, line } => format!(
                "incremental analysis diverged from a full recompute after {edit} \
                 (first differing snapshot line {line})"
            ),
            ViolationKind::TraceAccounting {
                task,
                instance,
                trace,
                engine,
                ..
            } => format!(
                "job {task}.{instance}: trace-derived wait {trace} != engine accounting {engine}"
            ),
        }
    }
}

/// Per-protocol result of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolOutcome {
    /// The protocol simulated.
    pub protocol: ProtocolKind,
    /// Deadline misses within the horizon.
    pub misses: u64,
    /// Jobs completed within the horizon.
    pub completed: u64,
    /// Whether the protocol's admission test (its [`BoundSet`]'s, or
    /// under DGA the constructed schedule's feasibility) accepted the
    /// system; `None` when no analytical test applies.
    pub analysis_accepted: Option<bool>,
    /// Whether the RTA recurrence converged for every task (MPCP only).
    pub rta_accepted: Option<bool>,
    /// Oracle violations observed under this protocol.
    pub violations: Vec<ViolationKind>,
}

/// Everything the sweep records about one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Stream position.
    pub index: u64,
    /// Generator seed of the system.
    pub system_seed: u64,
    /// Per-processor utilization target.
    pub utilization: f64,
    /// Whether the MPCP bound computation applied to the system.
    pub analyzable: bool,
    /// Per-protocol results, in configuration order.
    pub protocols: Vec<ProtocolOutcome>,
    /// Protocol-independent violations from the incremental-analysis
    /// self-certification arm (empty when [`SweepConfig::audit`] is
    /// off).
    pub audit: Vec<ViolationKind>,
}

impl ScenarioOutcome {
    /// All violations: per-protocol oracles, then the audit arm.
    pub fn violations(&self) -> impl Iterator<Item = &ViolationKind> {
        self.protocols
            .iter()
            .flat_map(|p| p.violations.iter())
            .chain(self.audit.iter())
    }
}

/// Simulation horizon for `system`: two hyperperiods, capped.
pub fn horizon_for(system: &System, cap: u64) -> u64 {
    mpcp_dga::horizon_capped(system, cap).ticks()
}

/// Evaluates the full oracle for one scenario. Sweep workers pass one
/// [`Workspace`] for their whole index range so simulator buffers are
/// recycled instead of rebuilt per scenario.
pub fn evaluate_in(ws: &mut Workspace, scenario: &Scenario, cfg: &SweepConfig) -> ScenarioOutcome {
    let (analyzable, protocols) = evaluate_system_in(ws, &scenario.system, cfg);
    // The audit arm samples by stream index (jobs-independent); stride 1
    // audits every scenario.
    let audit = if cfg.audit
        && scenario
            .index
            .is_multiple_of(cfg.audit_stride.max(1) as u64)
    {
        audit_violations(&scenario.system)
    } else {
        Vec::new()
    };
    ScenarioOutcome {
        index: scenario.index,
        system_seed: scenario.system_seed,
        utilization: scenario.utilization,
        analyzable,
        protocols,
        audit,
    }
}

/// How many tasks the audit arm edits per scenario. Each audited task
/// costs up to five edits ([`mpcp_verify::audit_script`]), and every
/// edit runs one incremental update *and* one full recompute, so this
/// bounds the arm's overhead per scenario.
const AUDIT_TASKS: usize = 2;

/// The self-certification arm: replays [`mpcp_verify::audit_script`]
/// over the first `AUDIT_TASKS` tasks through an MPCP
/// [`mpcp_verify::IncrementalAnalysis`] and compares its snapshot
/// byte-for-byte with [`mpcp_verify::full_snapshot_json`] after every
/// edit. (MPCP only: `mpcp audit` and `delta_props` certify the other
/// three analyses, which here would quadruple the arm's cost.)
pub fn audit_violations(system: &System) -> Vec<ViolationKind> {
    use mpcp_verify::{audit_script, full_snapshot_json, IncrementalAnalysis};

    // Duplicate task names: the incremental engine declines such
    // systems by contract (and the script may not be able to edit
    // them), so there is nothing to certify.
    let (Ok(mut engine), Ok(script)) = (
        IncrementalAnalysis::new(system.clone(), Analysis::Mpcp),
        audit_script(system, AUDIT_TASKS),
    ) else {
        return Vec::new();
    };
    let mut violations = Vec::new();
    for (edit, next) in script {
        engine.apply(next, &edit);
        let got = engine.snapshot_json();
        let want = full_snapshot_json(engine.system(), Analysis::Mpcp);
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(a, b)| a != b)
                .map_or(0, |n| n + 1);
            violations.push(ViolationKind::DeltaDivergence {
                edit: edit.to_string(),
                line,
            });
        }
    }
    violations
}

/// Oracle core, independent of stream metadata (reused by the
/// shrinker on rebuilt systems), with caller-provided scratch.
pub fn evaluate_system_in(
    ws: &mut Workspace,
    system: &System,
    cfg: &SweepConfig,
) -> (bool, Vec<ProtocolOutcome>) {
    let run = Run::new(
        system,
        horizon_for(system, cfg.horizon_cap),
        cfg.check_response,
    );
    let outcomes = cfg
        .protocols
        .iter()
        .map(|&kind| run.judge(ws, kind, None))
        .collect();
    (run.mpcp.is_some(), outcomes)
}

/// What every arm judging one system shares: the arms of one sweep
/// scenario, or of one model-checker variant.
pub(crate) struct Run<'a> {
    system: &'a System,
    horizon: u64,
    /// Whether converged RTA fixed points are compared
    /// ([`SweepConfig::check_response`]).
    check_response: bool,
    /// MPCP's bounds, when the system is analyzable: computed always
    /// (they decide `analyzable`), every other analysis' only when its
    /// arm runs.
    mpcp: Option<BoundSet>,
}

impl<'a> Run<'a> {
    /// Prepares the arms that judge `system` simulated up to `horizon`.
    pub(crate) fn new(system: &'a System, horizon: u64, check_response: bool) -> Self {
        Run {
            system,
            horizon,
            check_response,
            mpcp: Analysis::Mpcp.bounds(system, BlockingConfig::sound()).ok(),
        }
    }

    /// Judges `policy` — by default `kind`'s own — as `kind`. DGA first
    /// constructs its offline schedule: its feasibility verdict is the
    /// arm's analysis side, its slots the replay's script and the
    /// conformance check's expectation. A system the schedule cannot be
    /// built for (nested sections) skips the arm.
    pub(crate) fn judge(
        &self,
        ws: &mut Workspace,
        kind: ProtocolKind,
        policy: Option<Box<dyn Protocol>>,
    ) -> ProtocolOutcome {
        let dga = if kind == ProtocolKind::Dga {
            match DgaSchedule::compute(self.system, Time::new(self.horizon)) {
                // Shared, not cloned: the replay reads the same
                // schedule the checks of the arm do.
                Ok(s) => Some(Arc::new(s)),
                Err(_) => {
                    return ProtocolOutcome {
                        protocol: kind,
                        misses: 0,
                        completed: 0,
                        analysis_accepted: None,
                        rta_accepted: None,
                        violations: Vec::new(),
                    };
                }
            }
        } else {
            None
        };
        let policy = policy.unwrap_or_else(|| match &dga {
            Some(s) => Box::new(DgaReplay::from_shared(Arc::clone(s))),
            None => kind.build(),
        });
        self.arm(ws, kind, policy, dga.as_deref())
    }

    /// One protocol's arm: `policy` simulated once — no trace, one
    /// [`Monitor`] of `kind`'s spec attached — and judged as `kind`.
    /// Structural violations and observed waits are read straight off
    /// that monitor; a recorded trace would say the same
    /// ([`Monitor::replay`]), so none is ever made.
    fn arm(
        &self,
        ws: &mut Workspace,
        kind: ProtocolKind,
        policy: Box<dyn Protocol>,
        dga: Option<&DgaSchedule>,
    ) -> ProtocolOutcome {
        let Run {
            system,
            horizon,
            check_response,
            ..
        } = *self;
        let proto = kind.name();
        let sim = ws.sim(
            system,
            policy,
            SimConfig {
                record_trace: false,
                ..SimConfig::until(horizon)
            },
        );
        let mut monitor = Monitor::new(system, kind.monitor_spec());
        if let Some(s) = dga {
            monitor.set_conformance(s.expected_grants());
        }
        sim.set_monitor(monitor);
        sim.run();
        let monitor = sim.monitor().expect("attached above");
        let mut violations: Vec<ViolationKind> = monitor
            .violations()
            .map(|(check, e)| ViolationKind::Invariant {
                protocol: proto,
                check,
                message: e.to_string(),
            })
            .collect();

        let metrics = sim.metrics();
        let mut analysis_accepted = None;
        let mut rta_accepted = None;
        let own;
        let bounds = match kind.analysis() {
            Some(Analysis::Mpcp) => self.mpcp.as_ref(),
            Some(other) => {
                own = other.bounds(system, BlockingConfig::sound()).ok();
                own.as_ref()
            }
            None => None,
        };
        if let Some(set) = bounds {
            analysis_accepted = Some(set.schedulable());
            // The RTA recurrence is formulated for (and reported
            // under) MPCP only: pair it with the factors-only
            // blocking, as its contract specifies — the deferred
            // penalty is modelled as release jitter instead.
            let response = (kind == ProtocolKind::Mpcp).then(|| {
                let factors: Vec<Dur> = set.per_task().iter().map(TaskBounds::factors).collect();
                response_times_suspension_aware(system, &factors)
            });
            rta_accepted = response.as_ref().map(|r| r.iter().all(Option::is_some));
            bounds_arm(
                proto,
                set,
                response.as_deref().filter(|_| check_response),
                &metrics,
                &mut violations,
            );
        }
        if let Some(s) = dga {
            // DGA's "analysis" is the constructed schedule's
            // feasibility, and its per-task bounds are exact for
            // the replay — compare unconditionally (no no-backlog
            // precondition: the schedule *is* the execution).
            analysis_accepted = Some(s.accepted);
            for t in system.tasks() {
                let m = metrics.task(t.id());
                if let Some(wcr) = s.bounds[t.id().index()].wcr {
                    if m.max_response > wcr {
                        violations.push(ViolationKind::ResponseBound {
                            protocol: proto,
                            task: t.id().index(),
                            measured: m.max_response.ticks(),
                            bound: wcr.ticks(),
                        });
                    }
                }
            }
            if s.accepted && sim.misses() > 0 {
                violations.push(ViolationKind::AcceptedButMissed {
                    protocol: proto,
                    misses: sim.misses(),
                });
            }
        }
        if let Some(observed) = monitor.observed() {
            // Differential accounting check: the engine's bookkeeping
            // against the waits the monitor re-derived from the events.
            for r in sim.records() {
                if let Some(derived) = observed.settled(r.id) {
                    if derived != r.blocked_global {
                        violations.push(ViolationKind::TraceAccounting {
                            protocol: proto,
                            task: r.id.task.index(),
                            instance: r.id.instance,
                            trace: derived.ticks(),
                            engine: r.blocked_global.ticks(),
                        });
                    }
                }
            }
        }

        let completed = metrics.per_task().iter().map(|m| m.completed).sum();
        ProtocolOutcome {
            protocol: kind,
            misses: sim.misses(),
            completed,
            analysis_accepted,
            rta_accepted,
            violations,
        }
    }
}

/// The one analysis-vs-simulation arm, shared by every protocol with a
/// [`BoundSet`]: per task the blocking bound (and, when `response` is
/// given, the RTA fixed point) while the run stayed inside the periodic
/// task model, then "accepted ⇒ no deadline miss".
fn bounds_arm(
    proto: &'static str,
    set: &BoundSet,
    response: Option<&[Option<Dur>]>,
    metrics: &Metrics,
    violations: &mut Vec<ViolationKind>,
) {
    let misses = metrics.total_misses();
    // Bound comparisons presume the run respected the periodic task
    // model (no backlog): see the module docs.
    let within_model = misses == 0;
    for tb in set.per_task() {
        let task = tb.task.index();
        let m = metrics.task(tb.task);
        if within_model && m.max_blocking > tb.blocking {
            violations.push(ViolationKind::BlockingBound {
                protocol: proto,
                task,
                measured: m.max_blocking.ticks(),
                bound: tb.blocking.ticks(),
            });
        }
        if let Some(bound) = response.and_then(|r| r[task]) {
            if within_model && m.max_response > bound {
                violations.push(ViolationKind::ResponseBound {
                    protocol: proto,
                    task,
                    measured: m.max_response.ticks(),
                    bound: bound.ticks(),
                });
            }
        }
    }
    if set.schedulable() && misses > 0 {
        violations.push(ViolationKind::AcceptedButMissed {
            protocol: proto,
            misses,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_taskgen::{generate, WorkloadConfig};

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            scenarios: 4,
            horizon_cap: 5_000,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn clean_scenario_produces_no_violations() {
        let cfg = small_cfg();
        let sys = generate(
            &WorkloadConfig::default()
                .processors(2)
                .tasks_per_processor(2)
                .utilization(0.3)
                .resources(1, 1)
                .sections(0, 1),
            7,
        );
        let (analyzable, protocols) = evaluate_system_in(&mut Workspace::default(), &sys, &cfg);
        assert!(analyzable);
        assert_eq!(protocols.len(), cfg.protocols.len());
        for p in &protocols {
            assert!(
                p.violations.is_empty(),
                "{}: {:?}",
                p.protocol,
                p.violations
            );
        }
    }

    #[test]
    fn audit_arm_certifies_generated_systems() {
        for seed in [1, 9, 23] {
            let sys = generate(
                &WorkloadConfig::default()
                    .processors(3)
                    .tasks_per_processor(3)
                    .utilization(0.4)
                    .resources(1, 2)
                    .sections(0, 2),
                seed,
            );
            let violations = audit_violations(&sys);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    /// `shared`: two tasks on two processors entering one global
    /// section at the same instant; otherwise no critical sections.
    /// `wcet`/`period` apply to every task.
    fn pair(shared: bool, wcet: u64, period: u64) -> System {
        use mpcp_model::{Body, TaskDef};
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("S");
        for (i, name) in ["a", "b"].into_iter().enumerate() {
            let body = if shared {
                Body::builder().critical(s, |c| c.compute(wcet)).build()
            } else {
                Body::builder().compute(wcet).build()
            };
            b.add_task(
                TaskDef::new(name, p[i])
                    .period(period)
                    .priority(2 - i as u32)
                    .body(body),
            );
        }
        b.build().unwrap()
    }

    fn simulate(kind: ProtocolKind, system: &System) -> Metrics {
        let mut sim = Simulator::with_config(system, kind.build(), SimConfig::until(400));
        sim.run();
        sim.metrics()
    }

    /// Every protocol with an analysis goes through an *armed* arm: fed
    /// a doctored set (zero blocking, schedulable — the analysis of a
    /// system that shares nothing) against a run that blocks, then one
    /// that misses deadlines, both checks must fire. DPCP's
    /// accepted-but-missed check was silently missing before the arms
    /// were merged.
    #[test]
    fn generic_arm_is_armed_for_every_analysis() {
        let kinds: Vec<ProtocolKind> = ProtocolKind::ALL
            .into_iter()
            .filter(|k| k.analysis().is_some())
            .collect();
        assert_eq!(kinds.len(), Analysis::ALL.len());
        for kind in kinds {
            let proto = kind.name();
            let doctored = kind
                .analysis()
                .unwrap()
                .bounds(&pair(false, 1, 100), BlockingConfig::sound())
                .unwrap();
            assert!(doctored.schedulable(), "{proto}");
            assert!(doctored.blocking().iter().all(|b| b.is_zero()), "{proto}");

            // Contention without overload: one of the two must wait.
            let contended = simulate(kind, &pair(true, 10, 100));
            assert_eq!(contended.total_misses(), 0, "{proto}");
            let mut violations = Vec::new();
            bounds_arm(proto, &doctored, None, &contended, &mut violations);
            let codes: Vec<String> = violations.iter().map(ViolationKind::code).collect();
            assert!(
                codes.contains(&format!("{proto}/blocking-bound")),
                "{proto}: {codes:?}"
            );

            // Overload: two sections of 30 serialized inside a period
            // (= deadline) of 40.
            let overloaded = simulate(kind, &pair(true, 30, 40));
            assert!(overloaded.total_misses() > 0, "{proto}");
            let mut violations = Vec::new();
            bounds_arm(proto, &doctored, None, &overloaded, &mut violations);
            let codes: Vec<String> = violations.iter().map(ViolationKind::code).collect();
            assert_eq!(codes, [format!("{proto}/accepted-but-missed")], "{proto}");
        }
    }

    /// An RTA fixed point handed to the arm is compared too (the
    /// `--check-response` path, MPCP only in production).
    #[test]
    fn generic_arm_compares_a_given_response_bound() {
        let sys = pair(true, 10, 100);
        let set = Analysis::Mpcp
            .bounds(&sys, BlockingConfig::sound())
            .unwrap();
        let metrics = simulate(ProtocolKind::Mpcp, &sys);
        let tight = vec![Some(Dur::new(1)), None];
        let mut violations = Vec::new();
        bounds_arm("mpcp", &set, Some(&tight), &metrics, &mut violations);
        let codes: Vec<String> = violations.iter().map(ViolationKind::code).collect();
        assert_eq!(codes, ["mpcp/response-bound"]);
    }

    /// The violation path, which no generated scenario reaches: raw FIFO
    /// semaphores simulated under MPCP's name and spec. Behind a long
    /// holder the lower-priority waiter queues first and FIFO serves it
    /// first. The arm's invariant rows are the monitor's read-out of a
    /// recorded run of the same policy, name for name.
    #[test]
    fn a_wrong_policy_is_reported_under_the_monitors_names() {
        use mpcp_model::{Body, TaskDef};
        let mut b = System::builder();
        let p = b.add_processors(3);
        let s = b.add_resource("SG");
        for (i, (name, before, inside)) in [("holder", 0, 10), ("low", 1, 2), ("high", 2, 2)]
            .into_iter()
            .enumerate()
        {
            let body = Body::builder()
                .compute(before)
                .critical(s, |c| c.compute(inside))
                .build();
            b.add_task(
                TaskDef::new(name, p[i])
                    .period(30)
                    .priority(1 + i as u32)
                    .body(body),
            );
        }
        let sys = b.build().unwrap();
        let run = Run::new(&sys, horizon_for(&sys, small_cfg().horizon_cap), false);
        let (kind, wrong) = (ProtocolKind::Mpcp, ProtocolKind::Raw);
        let outcome = run.judge(&mut Workspace::default(), kind, Some(wrong.build()));

        let mut recorded =
            Simulator::with_config(&sys, wrong.build(), SimConfig::until(run.horizon));
        recorded.run();
        let mut judge = Monitor::new(&sys, kind.monitor_spec());
        judge.replay(recorded.trace());
        let want: Vec<ViolationKind> = judge
            .violations()
            .map(|(check, e)| ViolationKind::Invariant {
                protocol: "mpcp",
                check,
                message: e.to_string(),
            })
            .collect();
        let got: Vec<ViolationKind> = outcome
            .violations
            .into_iter()
            .filter(|v| matches!(v, ViolationKind::Invariant { .. }))
            .collect();
        assert_eq!(got, want);
        let codes: Vec<String> = got.iter().map(ViolationKind::code).collect();
        assert!(
            codes.contains(&"mpcp/invariant:priority_ordered_handoffs".to_owned()),
            "{codes:?}"
        );
    }

    #[test]
    fn violation_codes_are_stable_classes() {
        let v = ViolationKind::BlockingBound {
            protocol: "mpcp",
            task: 3,
            measured: 10,
            bound: 5,
        };
        let w = ViolationKind::BlockingBound {
            protocol: "mpcp",
            task: 1,
            measured: 99,
            bound: 98,
        };
        assert_eq!(v.code(), w.code());
        assert_ne!(v.detail(), w.detail());
    }
}
