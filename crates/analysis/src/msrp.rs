//! Blocking and schedulability analysis for MSRP-style FIFO spin locks
//! (Gai et al.): global semaphores are non-preemptive busy-wait locks,
//! local semaphores follow the uniprocessor PCP.
//!
//! Under MSRP a job's worst-case waiting decomposes into
//!
//! * **spin time**: for each global request on `q`, the FIFO queue holds
//!   at most one request per *remote* processor (a spinning requester
//!   occupies its processor, so no second request from that processor
//!   can be issued), each served non-preemptively — the per-request
//!   spin bound is `ξ_i(q) = Σ_{p ≠ proc(i)} max { |s| : s a section on
//!   q of a task on p }`;
//! * **arrival blocking**: at each dispatch point (release, wake from
//!   an explicit suspension, wake from a local-PCP block), the job can
//!   find at most one lower-priority local job inside a local PCP
//!   section (the classic single-blocking property) and at most one
//!   inside a non-preemptive spin-plus-section window — a second lower
//!   spinner would have to *start* its request at base priority while
//!   the analyzed job is ready, which the scheduler forbids.
//!
//! The schedulability test is the paper's per-processor rate-monotonic
//! form with spin-inflated utilizations: spinning consumes the
//! processor exactly like computation, so each task contributes
//! `(C_h + spin_h)/T_h`, and suspending higher-priority tasks add the
//! usual deferred-execution penalty.

use crate::bounds::{pad_terms, Analysis, BoundSet, Terms, TermsOf};
use crate::counts::{Facts, TaskFacts};
use crate::error::AnalysisError;
use crate::BlockingConfig;
use mpcp_model::{Dur, ResourceId, System};

/// `ξ(q)` as seen from `i`'s processor: one maximal section on `q` per
/// *other* processor, found in one pass over `q`'s users.
fn spin_per_request(facts: &Facts<'_>, i: &TaskFacts<'_>, q: ResourceId) -> Dur {
    let mut longest = vec![Dur::ZERO; facts.processors()];
    for t in facts.users(q).filter(|t| t.proc != i.proc) {
        for s in t.gcs.iter().filter(|s| s.resource == q) {
            let max = &mut longest[t.proc.index()];
            *max = (*max).max(s.duration);
        }
    }
    longest.into_iter().sum()
}

/// Total spin time per job of `i`.
fn spin_of(facts: &Facts<'_>, i: &TaskFacts<'_>) -> Dur {
    i.gcs
        .iter()
        .map(|s| spin_per_request(facts, i, s.resource))
        .sum()
}

/// Arrival blocking of `i`: per dispatch point, one lower local PCP
/// section plus one lower non-preemptive spin-plus-section window.
fn arrival_of(facts: &Facts<'_>, i: &TaskFacts<'_>) -> Dur {
    // Longest local-PCP section of any lower local task. (Conservative:
    // we skip the ceiling filter — any local section of a lower task
    // may also stall `i` indirectly through inheritance.)
    let l_loc = facts
        .lower_local(i)
        .flat_map(|t| t.lcs.iter())
        .map(|s| s.duration)
        .max()
        .unwrap_or(Dur::ZERO);
    // Longest non-preemptive window of any lower local task: its spin
    // on the request plus the section itself.
    let w_np = facts
        .lower_local(i)
        .flat_map(|j| {
            j.gcs
                .iter()
                .map(|s| spin_per_request(facts, j, s.resource) + s.duration)
        })
        .max()
        .unwrap_or(Dur::ZERO);
    // Dispatch points: the release, each explicit suspension, and each
    // local request (a local-PCP block suspends, letting a lower job
    // start a new non-preemptive window before `i` resumes).
    let points = 1 + i.n_susp as u64 + i.lcs.len() as u64;
    (l_loc + w_np) * points
}

/// The MSRP row's terms: `spin` and `arrival`, whose sum bounds
/// measured blocking.
pub(crate) fn terms(facts: &Facts<'_>, i: &TaskFacts<'_>, _: BlockingConfig) -> Terms {
    pad_terms([spin_of(facts, i), arrival_of(facts, i)])
}

/// Arrival blocking, plus one spin-inflated instance of each higher
/// local task that can suspend (explicitly or on a local-PCP block) and
/// so defer its demand, like the §5.1 penalty.
pub(crate) fn row_blocking(
    facts: &Facts<'_>,
    i: &TaskFacts<'_>,
    own: &Terms,
    terms_of: &TermsOf<'_>,
) -> Dur {
    let deferred: Dur = facts
        .higher_local(i)
        .filter(|h| h.n_susp > 0 || !h.lcs.is_empty())
        .map(|h| h.wcet + terms_of(h.id)[0])
        .sum();
    own[1] + deferred
}

/// [`Analysis::Msrp`]'s [`bounds`](Analysis::bounds).
///
/// # Errors
///
/// As [`Analysis::bounds`].
pub fn msrp_bound_set(system: &System) -> Result<BoundSet, AnalysisError> {
    Analysis::Msrp.bounds(system, BlockingConfig::paper())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::{Facts, TaskFacts};
    use mpcp_model::{Body, System, TaskDef, TaskId};

    fn tid(i: u32) -> TaskId {
        TaskId::from_index(i)
    }

    /// Two remote sharers of one global semaphore: the spin bound is one
    /// maximal section per remote processor.
    #[test]
    fn spin_counts_one_section_per_remote_processor() {
        let mut b = System::builder();
        let p = b.add_processors(3);
        let s = b.add_resource("SG");
        b.add_task(
            TaskDef::new("a", p[0]).period(100).priority(3).body(
                Body::builder()
                    .compute(1)
                    .critical(s, |c| c.compute(2))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(100)
                .priority(2)
                .body(Body::builder().critical(s, |c| c.compute(3)).build()),
        );
        b.add_task(
            TaskDef::new("c", p[2])
                .period(100)
                .priority(1)
                .body(Body::builder().critical(s, |c| c.compute(5)).build()),
        );
        let sys = b.build().unwrap();
        let set = msrp_bound_set(&sys).unwrap();
        // a spins at most 3 (P1) + 5 (P2).
        assert_eq!(
            set.task(tid(0)).term("spin").unwrap(),
            mpcp_model::Dur::new(8)
        );
        // c spins at most 2 (P0) + 3 (P1).
        assert_eq!(
            set.task(tid(2)).term("spin").unwrap(),
            mpcp_model::Dur::new(5)
        );
        // No local contention anywhere: arrival blocking is zero.
        assert_eq!(
            set.task(tid(0)).term("arrival").unwrap(),
            mpcp_model::Dur::ZERO
        );
    }

    /// A lower local task's spin window blocks a higher task that never
    /// touches a semaphore itself.
    #[test]
    fn arrival_charges_lower_spin_window() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("SG");
        b.add_task(
            TaskDef::new("hi", p[0])
                .period(100)
                .priority(3)
                .body(Body::builder().compute(1).build()),
        );
        b.add_task(
            TaskDef::new("lo", p[0])
                .period(100)
                .priority(1)
                .body(Body::builder().critical(s, |c| c.compute(2)).build()),
        );
        b.add_task(
            TaskDef::new("rem", p[1])
                .period(100)
                .priority(2)
                .body(Body::builder().critical(s, |c| c.compute(4)).build()),
        );
        let sys = b.build().unwrap();
        let set = msrp_bound_set(&sys).unwrap();
        // hi can arrive just after lo became non-preemptive: spin (4,
        // rem's section) + lo's own section (2).
        assert_eq!(set.task(tid(0)).blocking, mpcp_model::Dur::new(6));
        assert_eq!(
            set.task(tid(0)).term("spin").unwrap(),
            mpcp_model::Dur::ZERO
        );
    }

    /// Spin and blocking bounds grow monotonically with section length.
    #[test]
    fn bounds_monotone_in_section_length() {
        let build = |len: u64| {
            let mut b = System::builder();
            let p = b.add_processors(2);
            let s = b.add_resource("SG");
            b.add_task(
                TaskDef::new("a", p[0])
                    .period(100)
                    .priority(2)
                    .body(Body::builder().critical(s, |c| c.compute(2)).build()),
            );
            b.add_task(
                TaskDef::new("b", p[1])
                    .period(100)
                    .priority(1)
                    .body(Body::builder().critical(s, |c| c.compute(len)).build()),
            );
            b.build().unwrap()
        };
        let short = msrp_bound_set(&build(3)).unwrap();
        let long = msrp_bound_set(&build(9)).unwrap();
        assert!(long.task(tid(0)).blocking >= short.task(tid(0)).blocking);
        assert!(long.task(tid(0)).term("spin") >= short.task(tid(0)).term("spin"));
    }

    #[test]
    fn nested_globals_are_rejected() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s1 = b.add_resource("G0");
        let s2 = b.add_resource("G1");
        b.add_task(
            TaskDef::new("a", p[0]).period(100).body(
                Body::builder()
                    .critical(s1, |c| c.critical(s2, |n| n.compute(1)))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("b", p[1]).period(100).body(
                Body::builder()
                    .critical(s1, |c| c.compute(1))
                    .critical(s2, |c| c.compute(1))
                    .build(),
            ),
        );
        let sys = b.build().unwrap();
        assert!(msrp_bound_set(&sys).is_err());
    }

    // `ξ(q)` as it was before it became one pass over `q`'s users: the
    // remote processors from every task, then every task per processor.
    fn spin_per_request_reference(facts: &Facts<'_>, i: &TaskFacts<'_>, q: ResourceId) -> Dur {
        let mut total = Dur::ZERO;
        let remote_procs: Vec<_> = {
            let mut ps: Vec<_> = facts
                .tasks
                .iter()
                .map(|t| t.proc)
                .filter(|p| *p != i.proc)
                .collect();
            ps.sort_unstable();
            ps.dedup();
            ps
        };
        for p in remote_procs {
            let longest = facts
                .tasks
                .iter()
                .filter(|t| t.proc == p && t.id != i.id)
                .flat_map(|t| t.gcs.iter())
                .filter(|s| s.resource == q)
                .map(|s| s.duration)
                .max()
                .unwrap_or(Dur::ZERO);
            total += longest;
        }
        total
    }
    fn spin_of_reference(facts: &Facts<'_>, i: &TaskFacts<'_>) -> Dur {
        i.gcs
            .iter()
            .map(|s| spin_per_request_reference(facts, i, s.resource))
            .sum()
    }
    fn arrival_of_reference(facts: &Facts<'_>, i: &TaskFacts<'_>) -> Dur {
        // Longest local-PCP section of any lower local task. (Conservative:
        // we skip the ceiling filter — any local section of a lower task
        // may also stall `i` indirectly through inheritance.)
        let l_loc = facts
            .lower_local(i)
            .flat_map(|t| t.lcs.iter())
            .map(|s| s.duration)
            .max()
            .unwrap_or(Dur::ZERO);
        // Longest non-preemptive window of any lower local task: its spin
        // on the request plus the section itself.
        let w_np = facts
            .lower_local(i)
            .flat_map(|j| {
                j.gcs
                    .iter()
                    .map(|s| spin_per_request_reference(facts, j, s.resource) + s.duration)
            })
            .max()
            .unwrap_or(Dur::ZERO);
        // Dispatch points: the release, each explicit suspension, and each
        // local request (a local-PCP block suspends, letting a lower job
        // start a new non-preemptive window before `i` resumes).
        let points = 1 + i.n_susp as u64 + i.lcs.len() as u64;
        (l_loc + w_np) * points
    }

    #[test]
    fn indexed_terms_equal_the_scans() {
        for (label, system) in crate::counts::reference_systems() {
            let facts = Facts::compute(&system).expect("collapsed systems analyse");
            for config in [BlockingConfig::paper(), BlockingConfig::sound()] {
                for i in &facts.tasks {
                    let want = [
                        spin_of_reference(&facts, i),
                        arrival_of_reference(&facts, i),
                    ];
                    assert_eq!(
                        terms(&facts, i, config),
                        pad_terms(want),
                        "{label}: task {}",
                        i.id
                    );
                }
            }
        }
    }
}
