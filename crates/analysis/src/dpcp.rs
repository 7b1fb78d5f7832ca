//! Worst-case blocking bounds for the message-based (distributed)
//! protocol of reference [8], for the §5.2 comparison.
//!
//! Per §5.2: "the first 3 blocking factors for the shared memory
//! synchronization protocol have their identical counterparts under the
//! message-based synchronization protocol". The differences:
//!
//! * gcs's execute on the semaphore's **host processor** at the
//!   semaphore's **global ceiling**, so factor 4 becomes interference from
//!   higher-ceiling sections hosted on the same processor;
//! * factor 5 (lower-priority local gcs preemptions) is replaced by
//!   **agent interference**: critical sections of *other* tasks' global
//!   semaphores hosted on this task's processor execute there at ceiling
//!   priority and preempt it.

use crate::bounds::Terms;
use crate::counts::{Facts, TaskFacts};
use crate::error::AnalysisError;
use crate::BlockingConfig;
use mpcp_model::{Dur, ProcessorId, ResourceId, Scope, System, TaskId};

/// Worst-case blocking of one task under DPCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpcpBreakdown {
    /// The task analyzed.
    pub task: TaskId,
    /// Factor 1 — local critical sections entered during suspensions
    /// (identical to MPCP).
    pub local_cs: Dur,
    /// Factor 2 — one lower-priority gcs per global request (identical to
    /// MPCP).
    pub lower_gcs_same_sem: Dur,
    /// Factor 3 — higher-priority remote jobs' gcs's on shared semaphores
    /// (identical to MPCP).
    pub higher_remote_gcs: Dur,
    /// Factor 4′ — while this task's request is served on a host
    /// processor, sections of higher-ceiling semaphores hosted there delay
    /// it.
    pub host_ceiling_gcs: Dur,
    /// Factor 5′ — agent interference: other tasks' gcs's hosted on this
    /// task's processor run there at ceiling priority and preempt it.
    pub agent_interference: Dur,
    /// Deferred-execution penalty (same construction as MPCP).
    pub deferred_penalty: Dur,
}

impl DpcpBreakdown {
    /// Sum of the five factors.
    pub fn blocking(&self) -> Dur {
        self.local_cs
            + self.lower_gcs_same_sem
            + self.higher_remote_gcs
            + self.host_ceiling_gcs
            + self.agent_interference
    }

    /// Factors plus the deferred-execution penalty.
    pub fn total(&self) -> Dur {
        self.blocking() + self.deferred_penalty
    }

    /// The six durations in [`Analysis::term_names`](crate::Analysis::term_names)
    /// order.
    pub(crate) fn terms(&self) -> Terms {
        [
            self.local_cs,
            self.lower_gcs_same_sem,
            self.higher_remote_gcs,
            self.host_ceiling_gcs,
            self.agent_interference,
            self.deferred_penalty,
        ]
    }
}

/// The default host assignment used by both the analysis and the
/// [`Dpcp`](../../mpcp_protocols/struct.Dpcp.html) protocol: each global
/// semaphore is hosted on the processor of its highest-priority user.
pub fn default_hosts(system: &System) -> Vec<Option<ProcessorId>> {
    let info = system.info();
    info.all_usage()
        .iter()
        .map(|u| match u.scope {
            Scope::Global => Some(system.task(u.users[0]).processor()),
            _ => None,
        })
        .collect()
}

/// Computes the DPCP blocking bounds with the default host assignment and
/// the paper's literal instance counts.
///
/// # Errors
///
/// Same preconditions as [`mpcp_bounds`](crate::mpcp_bounds).
pub fn dpcp_bounds(system: &System) -> Result<Vec<DpcpBreakdown>, AnalysisError> {
    dpcp_bounds_with(system, &default_hosts(system), BlockingConfig::paper())
}

/// [`dpcp_bounds`] with explicit hosts and configuration.
///
/// # Errors
///
/// Same preconditions as [`mpcp_bounds`](crate::mpcp_bounds).
///
/// # Panics
///
/// Panics if `hosts` lacks an entry for a global resource.
pub fn dpcp_bounds_with(
    system: &System,
    hosts: &[Option<ProcessorId>],
    config: BlockingConfig,
) -> Result<Vec<DpcpBreakdown>, AnalysisError> {
    let facts = Facts::compute(system)?;
    let host = |r: ResourceId| hosts[r.index()].expect("global resource has a host");
    Ok(facts
        .tasks
        .iter()
        .map(|i| breakdown(&facts, i, &host, config))
        .collect())
}

/// Task `i`'s breakdown with `host` assigning each global semaphore.
pub(crate) fn breakdown(
    facts: &Facts<'_>,
    i: &TaskFacts<'_>,
    host: &impl Fn(ResourceId) -> ProcessorId,
    config: BlockingConfig,
) -> DpcpBreakdown {
    DpcpBreakdown {
        task: i.id,
        local_cs: crate::blocking::factor1(facts, i),
        lower_gcs_same_sem: crate::blocking::factor2(facts, i),
        higher_remote_gcs: crate::blocking::factor3(facts, i, &facts.sharer_bits(i), config),
        host_ceiling_gcs: host_ceiling_gcs(facts, i, host, config),
        agent_interference: agent_interference(facts, i, host, config),
        deferred_penalty: crate::blocking::deferred_penalty(facts, i),
    }
}

/// Factor 4′: for each semaphore `S` the task uses, sections of
/// equal-or-higher-ceiling semaphores hosted on `host(S)` can delay the
/// request.
///
/// Equal ceilings must be included: agents execute on the host at their
/// semaphore's ceiling priority, and an in-progress equal-ceiling
/// section cannot be preempted by the arriving request, so it delays it
/// just like a higher-ceiling one. (Found by the sweep oracle: with a
/// strict `>` here, a lower-priority task's equal-ceiling section
/// produced measured blocking above the bound.)
fn host_ceiling_gcs(
    facts: &Facts<'_>,
    i: &TaskFacts<'_>,
    host: &impl Fn(ResourceId) -> ProcessorId,
    config: BlockingConfig,
) -> Dur {
    let mut total = Dur::ZERO;
    for &s in i.global_resources {
        let p = host(s);
        let ceiling = facts.ceilings.ceiling(s);
        for r in facts.globals() {
            if r != s && host(r) == p && facts.ceilings.ceiling(r) >= ceiling {
                total += sections_on(facts, i, r, config, |_| true);
            }
        }
    }
    total
}

/// Factor 5′: sections of other tasks' semaphores hosted on `i`'s
/// processor execute there at ceiling priority. Higher-priority local
/// tasks' sections are ordinary interference and are excluded.
fn agent_interference(
    facts: &Facts<'_>,
    i: &TaskFacts<'_>,
    host: &impl Fn(ResourceId) -> ProcessorId,
    config: BlockingConfig,
) -> Dur {
    facts
        .globals()
        .filter(|&r| host(r) == i.proc)
        .map(|r| {
            sections_on(facts, i, r, config, |k| {
                !(k.proc == i.proc && k.prio > i.prio)
            })
        })
        .sum()
}

/// The sections on global `r` of its users other than `i` that `keep`
/// admits, each user's counted `⌈T_i/T_k⌉` (+1) times.
fn sections_on(
    facts: &Facts<'_>,
    i: &TaskFacts<'_>,
    r: ResourceId,
    config: BlockingConfig,
    keep: impl Fn(&TaskFacts<'_>) -> bool,
) -> Dur {
    facts
        .users(r)
        .filter(|k| k.id != i.id && keep(k))
        .map(|k| {
            let per_job: Dur = (k.gcs.iter())
                .filter(|cs| cs.resource == r)
                .map(|cs| cs.duration)
                .sum();
            per_job * facts.instances(i, k, config.carry_in)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, System, TaskDef};

    /// hi (P0, pri 4) uses SA; mid (P1, pri 3) uses SB; loA (P1, pri 2)
    /// uses SA; loB (P0, pri 1) uses SB. Default hosts: SA -> P0 (hi),
    /// SB -> P1 (mid).
    fn sample() -> System {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sa = b.add_resource("SA");
        let sb = b.add_resource("SB");
        b.add_task(
            TaskDef::new("hi", p[0])
                .period(100)
                .priority(4)
                .body(Body::builder().critical(sa, |c| c.compute(3)).build()),
        );
        b.add_task(
            TaskDef::new("mid", p[1])
                .period(200)
                .priority(3)
                .body(Body::builder().critical(sb, |c| c.compute(5)).build()),
        );
        b.add_task(
            TaskDef::new("loA", p[1])
                .period(300)
                .priority(2)
                .body(Body::builder().critical(sa, |c| c.compute(2)).build()),
        );
        b.add_task(
            TaskDef::new("loB", p[0])
                .period(400)
                .priority(1)
                .body(Body::builder().critical(sb, |c| c.compute(1)).build()),
        );
        b.build().unwrap()
    }

    #[test]
    fn default_hosts_follow_highest_user() {
        let sys = sample();
        let hosts = default_hosts(&sys);
        assert_eq!(hosts[0], Some(mpcp_model::ProcessorId::from_index(0)));
        assert_eq!(hosts[1], Some(mpcp_model::ProcessorId::from_index(1)));
    }

    #[test]
    fn first_factors_match_mpcp() {
        let sys = sample();
        let d = dpcp_bounds(&sys).unwrap();
        let m = crate::mpcp_bounds(&sys).unwrap();
        for (db, mb) in d.iter().zip(&m) {
            assert_eq!(db.local_cs, mb.local_cs);
            assert_eq!(db.lower_gcs_same_sem, mb.lower_gcs_same_sem);
            assert_eq!(db.higher_remote_gcs, mb.higher_remote_gcs);
        }
    }

    #[test]
    fn agent_interference_counts_foreign_sections_on_home() {
        let sys = sample();
        let d = dpcp_bounds(&sys).unwrap();
        // hi (P0): loA's SA section (2 ticks) is hosted on P0 and executes
        // there as an agent: ⌈100/300⌉ = 1 instance × 2 = 2.
        assert_eq!(d[0].agent_interference, Dur::new(2));
        // mid (P1): sections hosted on P1 from non-higher-local others:
        // loB's SB section (1): ⌈200/400⌉ = 1 instance × 1 = 1.
        assert_eq!(d[1].agent_interference, Dur::new(1));
    }

    #[test]
    fn host_ceiling_gcs_orders_by_ceiling() {
        let sys = sample();
        let d = dpcp_bounds(&sys).unwrap();
        // ceiling(SA)=PG+4 on P0, ceiling(SB)=PG+3 on P1: neither host
        // carries a higher-ceiling semaphore, so the factor is zero for
        // every task here.
        for b in &d {
            assert_eq!(b.host_ceiling_gcs, Dur::ZERO);
        }
        // Co-host both semaphores on P0: mid's SB requests can now be
        // delayed by hi's and loA's SA sections (ceiling SA > ceiling SB).
        let p0 = mpcp_model::ProcessorId::from_index(0);
        let d2 = dpcp_bounds_with(&sys, &[Some(p0), Some(p0)], BlockingConfig::paper()).unwrap();
        // mid: hi's SA 3 × ⌈200/100⌉=2 -> 6, loA's SA 2 × ⌈200/300⌉=1 -> 2.
        assert_eq!(d2[1].host_ceiling_gcs, Dur::new(8));
    }

    #[test]
    fn explicit_hosts_shift_interference() {
        let sys = sample();
        let p0 = mpcp_model::ProcessorId::from_index(0);
        // Host both semaphores on P0: hi now absorbs all agent executions.
        let hosts = vec![Some(p0), Some(p0)];
        let d = dpcp_bounds_with(&sys, &hosts, BlockingConfig::paper()).unwrap();
        // hi (P0): agents on P0 from mid's SB (1 × 5), loA's SA (1 × 2)
        // and loB's SB (1 × 1): total 8.
        assert_eq!(d[0].agent_interference, Dur::new(8));
        // mid and loA (P1) see no agent executions on P1 any more.
        assert_eq!(d[1].agent_interference, Dur::ZERO);
        assert_eq!(d[2].agent_interference, Dur::ZERO);
    }

    // Factors 4′ and 5′ as they were before they read the semaphores
    // hosted on one processor and their users: every task per semaphore.
    fn host_ceiling_gcs_reference(
        facts: &Facts<'_>,
        i: &TaskFacts<'_>,
        host: &impl Fn(ResourceId) -> ProcessorId,
        config: BlockingConfig,
    ) -> Dur {
        let mut total = Dur::ZERO;
        for &s in i.global_resources {
            let p = host(s);
            let ceiling = facts.ceilings.ceiling(s);
            for k in facts.tasks.iter().filter(|k| k.id != i.id) {
                let per_job: Dur = k
                    .gcs
                    .iter()
                    .filter(|cs| {
                        cs.resource != s
                            && host(cs.resource) == p
                            && facts.ceilings.ceiling(cs.resource) >= ceiling
                    })
                    .map(|cs| cs.duration)
                    .sum();
                total += per_job * facts.instances(i, k, config.carry_in);
            }
        }
        total
    }
    fn agent_interference_reference(
        facts: &Facts<'_>,
        i: &TaskFacts<'_>,
        host: &impl Fn(ResourceId) -> ProcessorId,
        config: BlockingConfig,
    ) -> Dur {
        facts
            .tasks
            .iter()
            .filter(|k| k.id != i.id)
            .filter(|k| !(k.proc == i.proc && k.prio > i.prio))
            .map(|k| {
                let per_job: Dur = k
                    .gcs
                    .iter()
                    .filter(|cs| host(cs.resource) == i.proc)
                    .map(|cs| cs.duration)
                    .sum();
                per_job * facts.instances(i, k, config.carry_in)
            })
            .sum()
    }

    #[test]
    fn indexed_terms_equal_the_scans() {
        let mut rng = mpcp_prop::Rng::new(0xD9C9);
        for (label, system) in crate::counts::reference_systems() {
            let facts = Facts::compute(&system).expect("collapsed systems analyse");
            let procs = system.processors().len() as u32;
            // The default hosts, then each global semaphore on a
            // processor drawn at random.
            let drawn = (default_hosts(&system).into_iter())
                .map(|h| h.map(|_| ProcessorId::from_index(rng.range_u32(0, procs - 1))))
                .collect();
            for hosts in [default_hosts(&system), drawn] {
                let host = |r: ResourceId| hosts[r.index()].expect("global resource has a host");
                for config in [BlockingConfig::paper(), BlockingConfig::sound()] {
                    let got = dpcp_bounds_with(&system, &hosts, config).unwrap();
                    for (i, got) in facts.tasks.iter().zip(got) {
                        let want = DpcpBreakdown {
                            host_ceiling_gcs: host_ceiling_gcs_reference(&facts, i, &host, config),
                            agent_interference: agent_interference_reference(
                                &facts, i, &host, config,
                            ),
                            ..breakdown(&facts, i, &host, config)
                        };
                        assert_eq!(got, want, "{label} {config:?}: task {}", i.id);
                    }
                }
            }
        }
    }
}
