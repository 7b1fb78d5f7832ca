//! Suspension-oblivious blocking and schedulability analysis for
//! FMLP+-style FIFO queue locks (Block et al. / Brandenburg): every
//! semaphore is a FIFO queue whose waiters suspend, and a holder runs
//! its critical section priority-boosted above all non-critical code.
//!
//! Per request on `q`, FIFO ordering and the one-outstanding-request
//! invariant (a job issues a new request only from base-level code, so
//! each *other* task has at most one queued request ahead) bound the
//! wait by one critical section per contending task — each padded by
//! the boosted sections that may delay it on its own processor before
//! it starts:
//!
//! `W_i(q) = Σ_{j ≠ i, j uses q} ( s_max_j(q) + Σ_{k ≠ i,j on proc(j)}
//! s_max_k )`.
//!
//! On top of queue waits, *lower*-priority local jobs inside boosted
//! sections stall the job's own execution. Each dispatch point — the
//! release, each wake from an explicit suspension, and per request one
//! wake from the queue plus one priority restore at the unlock — opens
//! one such stall, and within a stall every lower local task
//! contributes at most one boosted section (re-boosting requires
//! base-level execution, impossible while the analyzed job is ready):
//!
//! `A_i = (1 + n_susp_i + 2·n_req_i) · Σ_{k lower local} s_max_k`.
//!
//! The schedulability test is the per-processor rate-monotonic form
//! with `B_i = Σ_requests W_i(q) + A_i` charged to each row and the
//! deferred-execution penalty for higher local tasks that can suspend
//! (under FMLP+ every queue wait suspends, so any section-owning task
//! qualifies).

use crate::bounds::{pad_terms, Analysis, BoundSet, Terms, TermsOf};
use crate::counts::{Facts, TaskFacts};
use crate::error::AnalysisError;
use crate::BlockingConfig;
use mpcp_model::{CriticalSection, Dur, ResourceId, System};

/// All critical sections of `t` — FMLP+ has no local/global split.
fn sections<'a>(t: &'a TaskFacts<'_>) -> impl Iterator<Item = &'a CriticalSection> {
    t.gcs.iter().chain(t.lcs.iter())
}

/// Longest critical section of `t` on `q`.
fn s_max_on(t: &TaskFacts<'_>, q: ResourceId) -> Dur {
    sections(t)
        .filter(|s| s.resource == q)
        .map(|s| s.duration)
        .max()
        .unwrap_or(Dur::ZERO)
}

/// `W_i(q)`: one padded section per other task contending for `q`.
fn wait_per_request(facts: &Facts<'_>, i: &TaskFacts<'_>, q: ResourceId) -> Dur {
    let mut total = Dur::ZERO;
    for j in facts.users(q).filter(|j| j.id != i.id) {
        let own = s_max_on(j, q);
        if own.is_zero() {
            continue;
        }
        // Boosted sections that may delay j's hand-off-to-completion on
        // j's processor: one per other section-owning task there but i.
        let mut pad = facts.s_max_sum(j.proc) - j.s_max;
        if i.proc == j.proc {
            pad -= i.s_max;
        }
        total += own + pad;
    }
    total
}

/// The FMLP+ row's terms: `wait` (per request, [`wait_per_request`])
/// and `arrival` (per dispatch point, one boosted section of every
/// lower local task).
pub(crate) fn terms(facts: &Facts<'_>, i: &TaskFacts<'_>, _: BlockingConfig) -> Terms {
    let wait = sections(i)
        .map(|s| wait_per_request(facts, i, s.resource))
        .sum();
    let lower: Dur = facts.lower_local(i).map(|k| k.s_max).sum();
    let points = 1 + i.n_susp as u64 + 2 * sections(i).count() as u64;
    pad_terms([wait, lower * points])
}

/// Wait and arrival, plus one `C_h` of each higher local task that can
/// suspend and so defer its demand — under FMLP+ any section can
/// queue-wait, so owning a section suffices.
pub(crate) fn row_blocking(
    facts: &Facts<'_>,
    i: &TaskFacts<'_>,
    own: &Terms,
    _: &TermsOf<'_>,
) -> Dur {
    let deferred: Dur = facts
        .higher_local(i)
        .filter(|h| h.n_susp > 0 || sections(h).next().is_some())
        .map(|h| h.wcet)
        .sum();
    own[0] + own[1] + deferred
}

/// [`Analysis::Fmlp`]'s [`bounds`](Analysis::bounds).
///
/// # Errors
///
/// As [`Analysis::bounds`].
pub fn fmlp_bound_set(system: &System) -> Result<BoundSet, AnalysisError> {
    Analysis::Fmlp.bounds(system, BlockingConfig::paper())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{pad_terms, Terms};
    use crate::counts::{Facts, TaskFacts};
    use mpcp_model::{Body, System, TaskDef, TaskId};

    fn tid(i: u32) -> TaskId {
        TaskId::from_index(i)
    }

    /// One remote contender, no other tasks: the wait is exactly the
    /// contender's section.
    #[test]
    fn wait_is_one_section_per_contender() {
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
                .body(Body::builder().critical(s, |c| c.compute(5)).build()),
        );
        let sys = b.build().unwrap();
        let set = fmlp_bound_set(&sys).unwrap();
        assert_eq!(
            set.task(tid(0)).term("wait").unwrap(),
            mpcp_model::Dur::new(5)
        );
        assert_eq!(
            set.task(tid(1)).term("wait").unwrap(),
            mpcp_model::Dur::new(2)
        );
        assert_eq!(
            set.task(tid(0)).term("arrival").unwrap(),
            mpcp_model::Dur::ZERO
        );
    }

    /// A contender's section is padded by boosted sections of its local
    /// neighbours.
    #[test]
    fn wait_pads_contender_with_local_boosts() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("SG");
        let s2 = b.add_resource("SX");
        b.add_task(
            TaskDef::new("a", p[0])
                .period(100)
                .priority(4)
                .body(Body::builder().critical(s, |c| c.compute(2)).build()),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(100)
                .priority(3)
                .body(Body::builder().critical(s, |c| c.compute(5)).build()),
        );
        // c shares b's processor; its boosted SX section can delay b's
        // hand-off, lengthening a's wait.
        b.add_task(
            TaskDef::new("c", p[1])
                .period(100)
                .priority(2)
                .body(Body::builder().critical(s2, |c| c.compute(3)).build()),
        );
        // A remote SX sharer keeps SX global under the PCP scope
        // classification.
        b.add_task(
            TaskDef::new("d", p[0])
                .period(100)
                .priority(1)
                .body(Body::builder().critical(s2, |c| c.compute(1)).build()),
        );
        let sys = b.build().unwrap();
        let set = fmlp_bound_set(&sys).unwrap();
        // a waits for b's section (5) padded by c's boost (3); d is on
        // a's own processor so it does not pad b.
        assert_eq!(
            set.task(tid(0)).term("wait").unwrap(),
            mpcp_model::Dur::new(8)
        );
    }

    /// Wait and blocking bounds grow monotonically with section length.
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
        let short = fmlp_bound_set(&build(3)).unwrap();
        let long = fmlp_bound_set(&build(9)).unwrap();
        assert!(long.task(tid(0)).blocking >= short.task(tid(0)).blocking);
    }

    /// Any nesting is rejected, even purely local nesting that the MPCP
    /// analysis would accept.
    #[test]
    fn nested_sections_are_rejected() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s1 = b.add_resource("L0");
        let s2 = b.add_resource("L1");
        b.add_task(
            TaskDef::new("a", p).period(100).body(
                Body::builder()
                    .critical(s1, |c| c.critical(s2, |n| n.compute(1)))
                    .build(),
            ),
        );
        let sys = b.build().unwrap();
        assert!(fmlp_bound_set(&sys).is_err());
    }

    fn s_max(t: &TaskFacts<'_>) -> Dur {
        sections(t).map(|s| s.duration).max().unwrap_or(Dur::ZERO)
    }
    fn wait_per_request_reference(facts: &Facts<'_>, i: &TaskFacts<'_>, q: ResourceId) -> Dur {
        let mut total = Dur::ZERO;
        for j in facts.tasks.iter().filter(|j| j.id != i.id) {
            let own = s_max_on(j, q);
            if own.is_zero() {
                continue;
            }
            // Boosted sections that may delay j's hand-off-to-completion on
            // j's processor: one per other section-owning task there.
            let pad: Dur = facts
                .tasks
                .iter()
                .filter(|k| k.proc == j.proc && k.id != j.id && k.id != i.id)
                .map(s_max)
                .sum();
            total += own + pad;
        }
        total
    }

    /// The FMLP+ terms as they were before `W_i(q)` read `q`'s users and
    /// the per-processor `s_max` sums: every task, then every task again
    /// per contender.
    fn terms_reference(facts: &Facts<'_>, i: &TaskFacts<'_>) -> Terms {
        let wait = sections(i)
            .map(|s| wait_per_request_reference(facts, i, s.resource))
            .sum();
        let lower: Dur = facts.lower_local(i).map(s_max).sum();
        let points = 1 + i.n_susp as u64 + 2 * sections(i).count() as u64;
        pad_terms([wait, lower * points])
    }

    #[test]
    fn indexed_terms_equal_the_scans() {
        for (label, system) in crate::counts::reference_systems() {
            let full = crate::depgraph::DirtySet::full();
            let facts = Facts::compute_assuming_clean(&system, &full, true)
                .expect("collapsed systems are flat");
            for config in [BlockingConfig::paper(), BlockingConfig::sound()] {
                for i in &facts.tasks {
                    let want = terms_reference(&facts, i);
                    assert_eq!(terms(&facts, i, config), want, "{label}: task {}", i.id);
                }
            }
        }
    }
}
