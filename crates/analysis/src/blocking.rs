//! The five worst-case blocking factors of §5.1, plus the deferred
//! execution penalty, for the shared-memory protocol (MPCP).

use crate::bounds::{Analysis, BoundSet, Terms};
use crate::counts::{Facts, TaskFacts};
use crate::error::AnalysisError;
use mpcp_model::{Dur, ProcessorId, System, TaskId};

/// Configuration of the bound computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockingConfig {
    /// Count one extra (carry-in) instance of each interfering task, i.e.
    /// use `⌈T_i/T_h⌉ + 1` instead of the paper's `⌈T_i/T_h⌉`. The paper's
    /// count assumes instances fully contained in the period; the carry-in
    /// variant is sound for arbitrary phasings and is what the
    /// simulation-vs-bound validation uses.
    pub carry_in: bool,
}

impl BlockingConfig {
    /// The paper's literal counts.
    pub fn paper() -> Self {
        BlockingConfig { carry_in: false }
    }

    /// The sound (carry-in) variant.
    pub fn sound() -> Self {
        BlockingConfig { carry_in: true }
    }
}

/// Worst-case blocking of one task, split into the paper's five factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingBreakdown {
    /// The task analyzed.
    pub task: TaskId,
    /// Factor 1 — local critical sections of lower-priority jobs entered
    /// during this job's global suspensions (Theorem 1: `NC_i + n_susp +
    /// 1` opportunities, each up to the longest ceiling-relevant local
    /// section).
    pub local_cs: Dur,
    /// Factor 2 — per global request, one global critical section of a
    /// lower-priority job already holding the semaphore.
    pub lower_gcs_same_sem: Dur,
    /// Factor 3 — global critical sections of higher-priority *remote*
    /// jobs competing for the same semaphores (the "remote preemption
    /// penalty").
    pub higher_remote_gcs: Dur,
    /// Factor 4 — on each blocking processor, higher-priority gcs's that
    /// preempt the gcs of the job directly blocking this task.
    pub blocking_processor_gcs: Dur,
    /// Factor 5 — global critical sections of lower-priority jobs on the
    /// host processor, which run in the global band and preempt this
    /// task's normal execution.
    pub lower_local_gcs: Dur,
    /// Deferred-execution penalty: suspending higher-priority local tasks
    /// can each interfere with one extra execution (§5.1 end). Kept
    /// separate so reports can show the factors alone.
    pub deferred_penalty: Dur,
}

impl BlockingBreakdown {
    /// Sum of the five §5.1 factors (the paper's `B_i` proper).
    pub fn blocking(&self) -> Dur {
        self.local_cs
            + self.lower_gcs_same_sem
            + self.higher_remote_gcs
            + self.blocking_processor_gcs
            + self.lower_local_gcs
    }

    /// Factors plus the deferred-execution penalty.
    pub fn total(&self) -> Dur {
        self.blocking() + self.deferred_penalty
    }

    /// The six durations in [`Analysis::term_names`] order.
    pub(crate) fn terms(&self) -> Terms {
        [
            self.local_cs,
            self.lower_gcs_same_sem,
            self.higher_remote_gcs,
            self.blocking_processor_gcs,
            self.lower_local_gcs,
            self.deferred_penalty,
        ]
    }

    /// The breakdown of task `i`: the one place the six terms are
    /// computed, shared by the full pass and the incremental engine so
    /// both run the exact same code over the exact same inputs.
    pub(crate) fn compute(facts: &Facts<'_>, i: &TaskFacts<'_>, config: BlockingConfig) -> Self {
        // Factors 3 and 4 read the same neighbourhood: the tasks sharing
        // a global semaphore with `i`, as a task bitset.
        let sharers = facts.sharer_bits(i);
        BlockingBreakdown {
            task: i.id,
            local_cs: factor1(facts, i),
            lower_gcs_same_sem: factor2(facts, i),
            higher_remote_gcs: factor3(facts, i, &sharers, config),
            blocking_processor_gcs: factor4(facts, i, &sharers, config),
            lower_local_gcs: factor5(facts, i, config),
            deferred_penalty: deferred_penalty(facts, i),
        }
    }
}

/// Computes the MPCP blocking bounds for every task with the paper's
/// literal instance counts.
///
/// # Errors
///
/// Returns an error if the system violates the base-protocol assumptions
/// (nested global critical sections, or self-suspension while holding a
/// semaphore).
pub fn mpcp_bounds(system: &System) -> Result<Vec<BlockingBreakdown>, AnalysisError> {
    mpcp_bounds_with(system, BlockingConfig::paper())
}

/// [`mpcp_bounds`] with an explicit [`BlockingConfig`].
///
/// # Errors
///
/// Same as [`mpcp_bounds`].
pub fn mpcp_bounds_with(
    system: &System,
    config: BlockingConfig,
) -> Result<Vec<BlockingBreakdown>, AnalysisError> {
    let facts = Facts::compute(system)?;
    Ok(facts
        .tasks
        .iter()
        .map(|i| BlockingBreakdown::compute(&facts, i, config))
        .collect())
}

/// [`Analysis::Mpcp`]'s [`bounds`](Analysis::bounds).
///
/// # Errors
///
/// As [`Analysis::bounds`].
pub fn mpcp_bound_set(system: &System, config: BlockingConfig) -> Result<BoundSet, AnalysisError> {
    Analysis::Mpcp.bounds(system, config)
}

/// Factor 1: `(NC_i + n_susp + 1)` local critical sections of
/// lower-priority local jobs whose semaphore ceiling reaches `P_i`.
pub(crate) fn factor1(facts: &Facts<'_>, i: &TaskFacts<'_>) -> Dur {
    let opportunities = (i.nc + i.n_susp + 1) as u64;
    let longest = facts
        .lower_local(i)
        .flat_map(|l| l.lcs.iter())
        .filter(|cs| {
            facts
                .ceilings
                .try_ceiling(cs.resource)
                .is_some_and(|c| c >= i.prio)
        })
        .map(|cs| cs.duration)
        .max()
        .unwrap_or(Dur::ZERO);
    longest * opportunities
}

/// Factor 2: per global request of `i`, the longest gcs on the same
/// semaphore among lower-priority tasks (any processor).
pub(crate) fn factor2(facts: &Facts<'_>, i: &TaskFacts<'_>) -> Dur {
    (i.gcs.iter())
        .map(|request| facts.longest_below(request.resource, i.prio))
        .sum()
}

/// Factor 3: gcs's of higher-priority remote sharers ([`Facts::sharer_bits`])
/// on semaphores `i` uses, `⌈T_i/T_h⌉` instances each.
pub(crate) fn factor3(
    facts: &Facts<'_>,
    i: &TaskFacts<'_>,
    sharers: &[u64],
    config: BlockingConfig,
) -> Dur {
    (facts.members(sharers.iter().copied()))
        .filter(|h| h.prio > i.prio && h.proc != i.proc)
        .map(|h| {
            let per_job: Dur = (h.gcs.iter())
                .filter(|cs| i.global_resources.contains(&cs.resource))
                .map(|cs| cs.duration)
                .sum();
            per_job * facts.instances(i, h, config.carry_in)
        })
        .sum()
}

/// Factor 4: on each blocking processor (home of a lower-priority task
/// that can directly block `i` through a shared global semaphore),
/// higher-priority gcs's of other tasks extend the blocker's section.
fn factor4(facts: &Facts<'_>, i: &TaskFacts<'_>, sharers: &[u64], config: BlockingConfig) -> Dur {
    let mut total = Dur::ZERO;
    let remote = (0..facts.processors() as u32).map(ProcessorId::from_index);
    for p in remote.filter(|&p| p != i.proc) {
        // The lowest gcs execution priority among the sections of `p`'s
        // direct blockers (its lower-priority sharers) on semaphores shared
        // with i, all run from `p`: anything above it stretches the blocking.
        let on_p = (sharers.iter().zip(facts.proc_bits(p))).map(|(s, mates)| s & mates);
        let threshold = (facts.members(on_p))
            .filter(|l| l.prio < i.prio)
            .flat_map(|l| l.gcs.iter())
            .filter(|cs| i.global_resources.contains(&cs.resource))
            .filter_map(|cs| facts.gcs_pri.on(cs.resource, p))
            .min();
        let Some(threshold) = threshold else { continue };
        // `p` is remote, so `i` itself is never among its tasks.
        for k in facts.on_processor(p) {
            if k.prio < i.prio && sharers[k.id.index() / 64] & 1 << (k.id.index() % 64) != 0 {
                continue; // a direct blocker is factor 2's job
            }
            let per_job: Dur = (k.gcs.iter())
                .filter(|cs| facts.gcs_pri.on(cs.resource, p) > Some(threshold))
                .map(|cs| cs.duration)
                .sum();
            total += per_job * facts.instances(i, k, config.carry_in);
        }
    }
    total
}

/// Factor 5: gcs's of lower-priority local jobs run in the global band
/// and preempt `i`; per such job at most
/// `min(NC_i + n_susp + 1, instances · NC_l)` sections.
fn factor5(facts: &Facts<'_>, i: &TaskFacts<'_>, _config: BlockingConfig) -> Dur {
    facts
        .lower_local(i)
        .filter(|l| l.nc > 0)
        .map(|l| {
            // The paper's bound reads max(NC_i+1, 2·NC_l) in the scanned
            // text; both operands are individually valid upper bounds
            // (see DESIGN.md), so the sound combination used here is the
            // minimum. The `2` is `⌈T_i/T_l⌉ + 1`, which generalizes to
            // periods not ordered rate-monotonically.
            let by_suspensions = (i.nc + i.n_susp + 1) as u64;
            let by_instances = (l.period.div_ceil_of(i.period) + 1) * l.nc as u64;
            let count = by_suspensions.min(by_instances);
            let longest = l
                .gcs
                .iter()
                .map(|cs| cs.duration)
                .max()
                .unwrap_or(Dur::ZERO);
            longest * count
        })
        .sum()
}

/// Deferred-execution penalty: each higher-priority local task that can
/// self-suspend (on a global semaphore or explicitly) may interfere with
/// one additional execution within `T_i`.
pub(crate) fn deferred_penalty(facts: &Facts<'_>, i: &TaskFacts<'_>) -> Dur {
    facts
        .higher_local(i)
        .filter(|h| h.nc > 0 || h.n_susp > 0)
        .map(|h| h.wcet)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, Priority, ResourceId, Scope, System, TaskDef};
    use std::collections::HashMap;

    /// Two processors, one global semaphore, one local semaphore.
    ///
    /// P0: hi (pri 4): 1 lcs on SL (2 ticks), 1 gcs on SG (3 ticks)
    ///     lo (pri 1): 1 lcs on SL (5 ticks), 1 gcs on SG (4 ticks)
    /// P1: mid (pri 3): 1 gcs on SG (6 ticks)
    ///     lowest (pri 0... use 2): gcs on SG (7 ticks)
    fn sample() -> System {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sg = b.add_resource("SG");
        let sl = b.add_resource("SL");
        b.add_task(
            TaskDef::new("hi", p[0]).period(100).priority(4).body(
                Body::builder()
                    .compute(1)
                    .critical(sl, |c| c.compute(2))
                    .critical(sg, |c| c.compute(3))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("lo", p[0]).period(400).priority(1).body(
                Body::builder()
                    .critical(sl, |c| c.compute(5))
                    .critical(sg, |c| c.compute(4))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("mid", p[1])
                .period(200)
                .priority(3)
                .body(Body::builder().critical(sg, |c| c.compute(6)).build()),
        );
        b.add_task(
            TaskDef::new("low2", p[1])
                .period(400)
                .priority(2)
                .body(Body::builder().critical(sg, |c| c.compute(7)).build()),
        );
        b.build().unwrap()
    }

    fn breakdown_of(bounds: &[BlockingBreakdown], idx: u32) -> BlockingBreakdown {
        bounds[idx as usize]
    }

    #[test]
    fn factor1_counts_suspension_opportunities() {
        let bounds = mpcp_bounds(&sample()).unwrap();
        let hi = breakdown_of(&bounds, 0);
        // hi: NC=1, no explicit suspensions -> 2 opportunities; longest
        // relevant lcs of lower-priority local jobs = lo's 5 (ceiling of
        // SL is hi's priority).
        assert_eq!(hi.local_cs, Dur::new(10));
    }

    #[test]
    fn factor2_takes_longest_lower_gcs_per_request() {
        let bounds = mpcp_bounds(&sample()).unwrap();
        let hi = breakdown_of(&bounds, 0);
        // hi has one gcs request on SG; lower-priority gcs's on SG: lo(4),
        // mid(6), low2(7) -> 7.
        assert_eq!(hi.lower_gcs_same_sem, Dur::new(7));
        // mid (pri 3): lower-priority gcs on SG: lo(4), low2(7) -> 7.
        let mid = breakdown_of(&bounds, 2);
        assert_eq!(mid.lower_gcs_same_sem, Dur::new(7));
    }

    #[test]
    fn factor3_counts_higher_remote_instances() {
        let bounds = mpcp_bounds(&sample()).unwrap();
        // mid (pri 3, P1, T=200): higher remote sharing SG: hi (pri 4,
        // T=100): ⌈200/100⌉ = 2 instances × gcs 3 = 6.
        let mid = breakdown_of(&bounds, 2);
        assert_eq!(mid.higher_remote_gcs, Dur::new(6));
        // hi has no higher-priority tasks at all.
        assert_eq!(breakdown_of(&bounds, 0).higher_remote_gcs, Dur::ZERO);
    }

    #[test]
    fn factor4_counts_gcs_preempting_the_blocker() {
        let bounds = mpcp_bounds(&sample()).unwrap();
        let hi = breakdown_of(&bounds, 0);
        // hi's direct remote blockers on P1: mid and low2 (both lower
        // priority, both share SG). Threshold = min gcs priority among
        // their SG sections. Both run SG gcs's at PG+4 (hi is the highest
        // remote user), so no other gcs on P1 exceeds the threshold:
        // factor 4 = 0 here (P1's only gcs's are the blockers
        // themselves).
        assert_eq!(hi.blocking_processor_gcs, Dur::ZERO);
    }

    #[test]
    fn factor5_counts_lower_local_gcs() {
        let bounds = mpcp_bounds(&sample()).unwrap();
        let hi = breakdown_of(&bounds, 0);
        // lo is hi's lower-priority local job with NC=1, longest gcs 4.
        // count = min(NC_hi + 1, 2·NC_lo) = min(2, 2) = 2 -> 8.
        assert_eq!(hi.lower_local_gcs, Dur::new(8));
    }

    #[test]
    fn deferred_penalty_counts_suspending_higher_tasks() {
        let bounds = mpcp_bounds(&sample()).unwrap();
        // lo's higher local task hi has a gcs (suspends): penalty = C_hi = 6.
        let lo = breakdown_of(&bounds, 1);
        assert_eq!(lo.deferred_penalty, Dur::new(6));
        assert_eq!(lo.total(), lo.blocking() + Dur::new(6));
    }

    #[test]
    fn carry_in_only_increases_bounds() {
        let sys = sample();
        let paper = mpcp_bounds_with(&sys, BlockingConfig::paper()).unwrap();
        let sound = mpcp_bounds_with(&sys, BlockingConfig::sound()).unwrap();
        for (p, s) in paper.iter().zip(&sound) {
            assert!(s.blocking() >= p.blocking(), "{}: {s:?} < {p:?}", p.task);
        }
    }

    #[test]
    fn blocking_is_zero_without_sharing() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("a", p)
                .period(10)
                .body(Body::builder().compute(1).build()),
        );
        b.add_task(
            TaskDef::new("b", p)
                .period(20)
                .body(Body::builder().compute(2).build()),
        );
        let sys = b.build().unwrap();
        for bd in mpcp_bounds(&sys).unwrap() {
            assert_eq!(bd.total(), Dur::ZERO);
        }
    }

    /// [`Facts::sharer_bits`] as it was before sharers became a bitset:
    /// every user of every global semaphore of `i`, sorted and
    /// deduplicated.
    fn sharers_reference<'b, 'a>(
        facts: &'b Facts<'a>,
        i: &TaskFacts<'_>,
    ) -> Vec<&'b TaskFacts<'a>> {
        let mut found: Vec<&TaskFacts<'a>> = i
            .global_resources
            .iter()
            .flat_map(|&r| facts.users(r))
            .filter(|t| t.id != i.id)
            .collect();
        if i.global_resources.len() > 1 {
            found.sort_unstable_by_key(|t| t.id);
            found.dedup_by_key(|t| t.id);
        }
        found
    }

    /// Factor 2 as it was before the per-resource running maxima: per
    /// request, a scan of every lower-priority user's sections.
    fn factor2_reference(facts: &Facts<'_>, i: &TaskFacts<'_>) -> Dur {
        i.gcs
            .iter()
            .map(|request| {
                facts
                    .users(request.resource)
                    .filter(|l| l.prio < i.prio && l.id != i.id)
                    .flat_map(|l| l.gcs.iter())
                    .filter(|cs| cs.resource == request.resource)
                    .map(|cs| cs.duration)
                    .max()
                    .unwrap_or(Dur::ZERO)
            })
            .sum()
    }

    /// Factor 3 as it was before sharers became a bitset: a scan of the
    /// sharer list.
    fn factor3_reference(
        facts: &Facts<'_>,
        i: &TaskFacts<'_>,
        sharers: &[&TaskFacts<'_>],
        config: BlockingConfig,
    ) -> Dur {
        sharers
            .iter()
            .filter(|h| h.prio > i.prio && h.proc != i.proc)
            .map(|h| {
                let per_job: Dur = h
                    .gcs
                    .iter()
                    .filter(|cs| i.global_resources.contains(&cs.resource))
                    .map(|cs| cs.duration)
                    .sum();
                per_job * facts.instances(i, h, config.carry_in)
            })
            .sum()
    }

    /// Factor 4 as it was before the blockers were grouped by
    /// processor: every blocker rescanned per processor, and per mate a
    /// scan of all blockers.
    fn factor4_reference(
        facts: &Facts<'_>,
        i: &TaskFacts<'_>,
        sharers: &[&TaskFacts<'_>],
        config: BlockingConfig,
    ) -> Dur {
        let mut total = Dur::ZERO;
        // Direct blockers grouped by their (remote) processor.
        let blockers: Vec<&TaskFacts<'_>> = sharers
            .iter()
            .copied()
            .filter(|l| l.prio < i.prio && l.proc != i.proc)
            .collect();
        let mut procs: Vec<_> = blockers.iter().map(|l| l.proc).collect();
        procs.sort_unstable();
        procs.dedup();
        for p in procs {
            // The lowest gcs execution priority among the direct blockers'
            // sections on semaphores shared with i: anything above it can
            // stretch the blocking.
            let threshold = blockers
                .iter()
                .filter(|l| l.proc == p)
                .flat_map(|l| l.gcs.iter().map(move |cs| (l, cs)))
                .filter(|(_, cs)| i.global_resources.contains(&cs.resource))
                .filter_map(|(l, cs)| facts.gcs_pri.of(l.id, cs.resource))
                .min();
            let Some(threshold) = threshold else { continue };
            // `p` is remote, so `i` itself is never among its tasks.
            for k in facts.on_processor(p) {
                if blockers.iter().any(|l| l.id == k.id) {
                    continue; // the blocker itself is factor 2's job
                }
                let per_job: Dur = k
                    .gcs
                    .iter()
                    .filter(|cs| {
                        facts
                            .gcs_pri
                            .of(k.id, cs.resource)
                            .is_some_and(|p| p > threshold)
                    })
                    .map(|cs| cs.duration)
                    .sum();
                total += per_job * facts.instances(i, k, config.carry_in);
            }
        }
        total
    }

    /// [`GcsPriorities`](mpcp_core::GcsPriorities) as it was before the
    /// table became dense: the paper's rule evaluated per (user, global
    /// semaphore) pair into a map.
    fn gcs_priorities_reference(system: &System) -> HashMap<(TaskId, ResourceId), Priority> {
        let info = system.info();
        let mut map = HashMap::new();
        for usage in info.all_usage() {
            if usage.scope != Scope::Global {
                continue;
            }
            for &user in &usage.users {
                let my_proc = system.task(user).processor();
                let p_h = usage
                    .users
                    .iter()
                    .filter(|&&u| system.task(u).processor() != my_proc)
                    .map(|&u| system.task(u).priority())
                    .max()
                    .expect("a global resource has users on another processor");
                map.insert((user, usage.resource), p_h.to_global());
            }
        }
        map
    }

    #[test]
    fn gcs_priorities_equal_the_scans() {
        for (label, system) in crate::counts::reference_systems() {
            let facts = Facts::compute(&system).expect("collapsed systems analyse");
            let map = gcs_priorities_reference(&system);
            for t in system.tasks() {
                // One id past the last resource too: it names nothing.
                for r in 0..=system.resources().len() as u32 {
                    let r = ResourceId::from_index(r);
                    let want = map.get(&(t.id(), r)).copied();
                    assert_eq!(
                        facts.gcs_pri.of(t.id(), r),
                        want,
                        "{label}: {} {r}",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn mpcp_terms_equal_the_scans() {
        for (label, system) in crate::counts::reference_systems() {
            let facts = Facts::compute(&system).expect("collapsed systems analyse");
            let hosts = crate::default_hosts(&system);
            let host = |r: ResourceId| hosts[r.index()].expect("global resource has a host");
            for config in [BlockingConfig::paper(), BlockingConfig::sound()] {
                let got = mpcp_bounds_with(&system, config).unwrap();
                for (i, got) in facts.tasks.iter().zip(got) {
                    let sharers = sharers_reference(&facts, i);
                    // The reference is in priority order when `i` uses one
                    // semaphore, in id order otherwise.
                    let mut ids: Vec<TaskId> = sharers.iter().map(|t| t.id).collect();
                    ids.sort_unstable();
                    let bits = facts.sharer_bits(i).into_iter();
                    let got_ids: Vec<TaskId> = facts.members(bits).map(|t| t.id).collect();
                    assert_eq!(got_ids, ids, "{label}: sharers of task {}", i.id);
                    let want = BlockingBreakdown {
                        task: i.id,
                        local_cs: factor1(&facts, i),
                        lower_gcs_same_sem: factor2_reference(&facts, i),
                        higher_remote_gcs: factor3_reference(&facts, i, &sharers, config),
                        blocking_processor_gcs: factor4_reference(&facts, i, &sharers, config),
                        lower_local_gcs: factor5(&facts, i, config),
                        deferred_penalty: deferred_penalty(&facts, i),
                    };
                    assert_eq!(got, want, "{label} {config:?}: task {}", i.id);
                    let dpcp = crate::dpcp::breakdown(&facts, i, &host, config);
                    assert_eq!(
                        (dpcp.lower_gcs_same_sem, dpcp.higher_remote_gcs),
                        (want.lower_gcs_same_sem, want.higher_remote_gcs),
                        "{label} {config:?}: DPCP task {}",
                        i.id
                    );
                }
            }
        }
    }
}
