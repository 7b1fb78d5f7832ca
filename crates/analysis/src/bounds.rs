//! The analysis contract: one selector, one entry point, one result
//! type.
//!
//! The paper's admission test has a single shape — a per-task blocking
//! term `B_i` (§5.1) fed into a per-processor rate-monotonic row
//! `Σ C_j/T_j + B_i/T_i ≤ i(2^{1/i} − 1)` (Theorem 3) — and the DPCP,
//! MSRP and FMLP+ analyses are that shape with different terms.
//! [`Analysis`] names the four, [`Analysis::bounds`] runs any of them,
//! and every one returns a [`BoundSet`]: per task the bound on measured
//! blocking, the row of the test, and the protocol's own named terms.
//! Consumers (the sweep oracle, the admission service, the model
//! checker, the CLI tables) are written once against this type.

use crate::blocking::{BlockingBreakdown, BlockingConfig};
use crate::counts::{Facts, TaskFacts};
use crate::depgraph::DirtySet;
use crate::depgraph::Reach::{self, Hosts, Mates, MatesOfSharers, Sharers, SharersOfMates};
use crate::error::AnalysisError;
use crate::sched::{theorem3_all, TaskSched};
use crate::{dpcp, fmlp, msrp};
use mpcp_model::{Dur, ProcessorId, System, Task, TaskId};
use std::fmt;
use std::str::FromStr;

/// Which blocking analysis and schedulability test to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Analysis {
    /// The paper's shared-memory protocol: the five §5.1 factors plus
    /// the deferred-execution penalty, into Theorem 3.
    #[default]
    Mpcp,
    /// The message-based baseline of §5.2 (default host assignment):
    /// factors 1–3 shared with MPCP, 4′ and 5′ its own, into Theorem 3.
    Dpcp,
    /// Non-preemptive FIFO spin locks: spin-inflated utilizations with
    /// arrival blocking.
    Msrp,
    /// FIFO queue locks with priority-boosted sections: the
    /// suspension-oblivious wait + arrival bound.
    Fmlp,
}

/// Fixed-size per-task term storage (no per-task allocation); an
/// analysis names the first `term_names().len()` slots.
pub(crate) type Terms = [Dur; 6];

/// `named` padded with zeros to the fixed width.
pub(crate) fn pad_terms<const N: usize>(named: [Dur; N]) -> Terms {
    let mut terms = [Dur::ZERO; 6];
    terms[..N].copy_from_slice(&named);
    terms
}

/// Sum of a term set: under every analysis the named terms add up to
/// the bound on measured blocking.
pub(crate) fn total(terms: &Terms) -> Dur {
    terms.iter().copied().sum()
}

/// Every task's terms, by id: what a row's blocking may read of tasks
/// other than its own.
pub(crate) type TermsOf<'a> = dyn Fn(TaskId) -> Terms + 'a;

/// One analysis as data. [`Analysis::bounds`], the incremental
/// [`DeltaBounds`](crate::DeltaBounds) and [`dirty_set`](crate::dirty_set)
/// read it and nothing else per analysis, so a row recomputed
/// incrementally runs the code the full pass runs.
pub(crate) struct Row {
    name: &'static str,
    term_names: &'static [&'static str],
    /// Task `i`'s terms.
    pub(crate) terms: fn(&Facts<'_>, &TaskFacts<'_>, BlockingConfig) -> Terms,
    /// What `i` costs every row at or below its own, from its terms.
    cost: fn(&TaskFacts<'_>, &Terms) -> Dur,
    /// The blocking charged to `i`'s own row, from its terms and any
    /// other task's.
    row_blocking: fn(&Facts<'_>, &TaskFacts<'_>, &Terms, &TermsOf<'_>) -> Dur,
    /// Whether any nested section is refused, local ones included.
    pub(crate) flat: bool,
    /// What an edit to a task with sections but no global one reaches
    /// (see [`Reach`]; a section-free task reaches nothing further).
    pub(crate) local_reach: &'static [Reach],
    /// What an edit to a task with a global section reaches.
    pub(crate) global_reach: &'static [Reach],
    /// Whether a global semaphore whose remote-argmax signature changed
    /// dirties the blocking processors of its users (MPCP's factor 4
    /// compares gcs priorities across semaphores).
    pub(crate) argmax: bool,
}

/// Theorem 3 proper: the row charges `B_i`, the sum of the terms.
fn own_total(_: &Facts<'_>, _: &TaskFacts<'_>, own: &Terms, _: &TermsOf<'_>) -> Dur {
    total(own)
}

/// The table, in [`Analysis::ALL`] order (the DESIGN §15 table as
/// code, its reach columns in §11).
const ROWS: [Row; 4] = [
    Row {
        name: "mpcp",
        term_names: &["F1", "F2", "F3", "F4", "F5", "defer"],
        terms: |facts, i, config| BlockingBreakdown::compute(facts, i, config).terms(),
        cost: |i, _| i.wcet,
        row_blocking: own_total,
        flat: false,
        local_reach: &[Mates],
        global_reach: &[SharersOfMates],
        argmax: true,
    },
    Row {
        name: "dpcp",
        term_names: &["F1", "F2", "F3", "F4'", "F5'", "defer"],
        terms: |facts, i, config| dpcp::breakdown(facts, i, &|r| facts.host(r), config).terms(),
        cost: |i, _| i.wcet,
        row_blocking: own_total,
        flat: false,
        local_reach: &[Mates],
        global_reach: &[Mates, Sharers, Hosts],
        argmax: false,
    },
    Row {
        name: "msrp",
        term_names: &["spin", "arrival"],
        terms: msrp::terms,
        // Spinning occupies the processor like computation.
        cost: |i, own| i.wcet + own[0],
        row_blocking: msrp::row_blocking,
        flat: false,
        local_reach: &[Mates],
        global_reach: &[Mates, Sharers, MatesOfSharers],
        argmax: false,
    },
    Row {
        name: "fmlp",
        term_names: &["wait", "arrival"],
        terms: fmlp::terms,
        cost: |i, _| i.wcet,
        row_blocking: fmlp::row_blocking,
        flat: true,
        local_reach: &[SharersOfMates],
        global_reach: &[SharersOfMates],
        argmax: false,
    },
];

impl Row {
    /// Task `t`'s cost and row blocking, the inputs of its Theorem 3 row.
    pub(crate) fn inputs(&self, facts: &Facts<'_>, t: &Task, terms_of: &TermsOf<'_>) -> (Dur, Dur) {
        let i = &facts.tasks[t.id().index()];
        let own = terms_of(i.id);
        let blocking = (self.row_blocking)(facts, i, &own, terms_of);
        ((self.cost)(i, &own), blocking)
    }
}

impl Analysis {
    /// Every analysis, MPCP first.
    pub const ALL: [Analysis; 4] = [
        Analysis::Mpcp,
        Analysis::Dpcp,
        Analysis::Msrp,
        Analysis::Fmlp,
    ];

    /// This analysis' row of the table.
    pub(crate) fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }

    /// The canonical name — also the wire name of the admission
    /// service's `"protocol"` field and the matching
    /// `ProtocolKind::name` of the simulated policy.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The names of the terms a row of this analysis carries, in table
    /// order. A term called `defer` is the deferred-execution penalty:
    /// charged to the row, but not one of the blocking factors proper.
    pub fn term_names(self) -> &'static [&'static str] {
        self.row().term_names
    }

    /// Runs this analysis on `system`. `config` selects the instance
    /// counts of the MPCP and DPCP factors; the FIFO analyses have no
    /// such choice and ignore it.
    ///
    /// # Errors
    ///
    /// Returns an error if the system violates the analysis'
    /// assumptions: nested global critical sections or a suspension
    /// inside a critical section for all four, any nesting at all for
    /// FMLP+.
    pub fn bounds(
        self,
        system: &System,
        config: BlockingConfig,
    ) -> Result<BoundSet, AnalysisError> {
        let row = self.row();
        let facts = Facts::compute_assuming_clean(system, &DirtySet::full(), row.flat)?;
        let terms: Vec<Terms> = (facts.tasks.iter())
            .map(|i| (row.terms)(&facts, i, config))
            .collect();
        let terms_of = |t: TaskId| terms[t.index()];
        let per_task = theorem3_all(system, |t| row.inputs(&facts, t, &terms_of))
            .into_iter()
            .map(|r| TaskBounds::new(self, terms[r.task.index()], r))
            .collect();
        Ok(BoundSet::from_rows(self, per_task))
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown analysis name; its message
/// lists the known ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAnalysisError(String);

impl fmt::Display for ParseAnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let known = Analysis::ALL.map(Analysis::name).join("|");
        write!(f, "unknown protocol {:?}; expected {known}", self.0)
    }
}

impl std::error::Error for ParseAnalysisError {}

impl FromStr for Analysis {
    type Err = ParseAnalysisError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Analysis::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| ParseAnalysisError(s.to_owned()))
    }
}

/// Every analytical bound for one task: one row of a [`BoundSet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskBounds {
    /// The task analyzed.
    pub task: TaskId,
    /// Its processor.
    pub processor: ProcessorId,
    /// Bound on the simulator's measured blocking: `B_i` including the
    /// deferred-execution penalty under MPCP and DPCP, spin + arrival
    /// under MSRP, wait + arrival under FMLP+.
    pub blocking: Dur,
    /// Left-hand side of this task's rate-monotonic row.
    pub demand: f64,
    /// The Liu & Layland bound for its rank.
    pub bound: f64,
    /// Whether the inequality holds.
    pub ok: bool,
    pub(crate) analysis: Analysis,
    pub(crate) terms: Terms,
}

impl TaskBounds {
    /// The row of `task` under `analysis`: its terms and its Theorem 3
    /// verdict.
    pub(crate) fn new(analysis: Analysis, terms: Terms, row: TaskSched) -> TaskBounds {
        TaskBounds {
            task: row.task,
            processor: row.processor,
            blocking: total(&terms),
            demand: row.demand,
            bound: row.bound,
            ok: row.ok,
            analysis,
            terms,
        }
    }

    /// The named terms behind [`TaskBounds::blocking`], in the order of
    /// [`Analysis::term_names`].
    pub fn terms(&self) -> impl Iterator<Item = (&'static str, Dur)> {
        let names = self.analysis.term_names();
        names.iter().copied().zip(self.terms)
    }

    /// The term called `name`, if this row's analysis has one.
    pub fn term(&self, name: &str) -> Option<Dur> {
        self.terms().find(|(n, _)| *n == name).map(|(_, d)| d)
    }

    /// Sum of the blocking factors proper — every term but `defer` (the
    /// paper's `B_i` before the deferred-execution penalty).
    pub fn factors(&self) -> Dur {
        self.terms()
            .filter(|(n, _)| *n != "defer")
            .map(|(_, d)| d)
            .sum()
    }
}

/// Analytical bounds for a whole system under one [`Analysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSet {
    analysis: Analysis,
    per_task: Vec<TaskBounds>,
    schedulable: bool,
}

impl BoundSet {
    /// Assembles a set from finished rows in [`TaskId`] order, deriving
    /// the verdict (shared with the incremental engine, whose rows come
    /// from its caches).
    pub(crate) fn from_rows(analysis: Analysis, per_task: Vec<TaskBounds>) -> BoundSet {
        let schedulable = per_task.iter().all(|t| t.ok);
        BoundSet {
            analysis,
            per_task,
            schedulable,
        }
    }

    /// The analysis that produced this set.
    pub fn analysis(&self) -> Analysis {
        self.analysis
    }

    /// Per-task bounds, indexed by [`TaskId`].
    pub fn per_task(&self) -> &[TaskBounds] {
        &self.per_task
    }

    /// Bounds of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the analyzed system.
    #[track_caller]
    pub fn task(&self, task: TaskId) -> &TaskBounds {
        &self.per_task[task.index()]
    }

    /// Whether the schedulability test accepts every task.
    pub fn schedulable(&self) -> bool {
        self.schedulable
    }

    /// Every task's [`TaskBounds::blocking`], indexed by [`TaskId`] —
    /// the vector the response-time recurrences take.
    pub fn blocking(&self) -> Vec<Dur> {
        self.per_task.iter().map(|t| t.blocking).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dpcp_bounds, mpcp_bounds_with, theorem3, BlockingBreakdown};
    use mpcp_model::{Body, System, TaskDef};

    fn sample() -> System {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("SG");
        b.add_task(
            TaskDef::new("a", p[0]).period(100).priority(2).body(
                Body::builder()
                    .compute(10)
                    .critical(s, |c| c.compute(2))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("b", p[1]).period(200).priority(1).body(
                Body::builder()
                    .compute(20)
                    .critical(s, |c| c.compute(5))
                    .build(),
            ),
        );
        b.build().unwrap()
    }

    #[test]
    fn names_round_trip_and_unknown_names_list_the_known() {
        for a in Analysis::ALL {
            assert_eq!(a.name().parse::<Analysis>().unwrap(), a);
            assert_eq!(a.to_string(), a.name());
        }
        let e = "pcp".parse::<Analysis>().unwrap_err().to_string();
        assert!(
            e.contains("\"pcp\"") && e.contains("mpcp|dpcp|msrp|fmlp"),
            "{e}"
        );
    }

    #[test]
    fn mpcp_set_agrees_with_the_typed_entry_points() {
        let sys = sample();
        let set = Analysis::Mpcp
            .bounds(&sys, BlockingConfig::sound())
            .unwrap();
        let raw = mpcp_bounds_with(&sys, BlockingConfig::sound()).unwrap();
        let blocking: Vec<Dur> = raw.iter().map(BlockingBreakdown::total).collect();
        let sched = theorem3(&sys, &blocking);
        assert_eq!(set.analysis(), Analysis::Mpcp);
        assert_eq!(set.schedulable(), sched.schedulable());
        assert_eq!(set.blocking(), blocking);
        for (tb, (b, s)) in set.per_task().iter().zip(raw.iter().zip(sched.per_task())) {
            assert_eq!((tb.task, tb.processor), (s.task, s.processor));
            assert_eq!(tb.demand.to_bits(), s.demand.to_bits());
            assert_eq!((tb.bound, tb.ok), (s.bound, s.ok));
            assert_eq!(tb.factors(), b.blocking());
            assert_eq!(tb.term("F2"), Some(b.lower_gcs_same_sem));
            assert_eq!(tb.term("defer"), Some(b.deferred_penalty));
            assert_eq!(tb.term("spin"), None);
        }
    }

    #[test]
    fn every_analysis_names_its_terms_and_bounds_their_sum() {
        let sys = sample();
        for a in Analysis::ALL {
            let set = a.bounds(&sys, BlockingConfig::paper()).unwrap();
            for row in set.per_task() {
                let names: Vec<_> = row.terms().map(|(n, _)| n).collect();
                assert_eq!(names, a.term_names(), "{a}");
                let sum: Dur = row.terms().map(|(_, d)| d).sum();
                assert_eq!(sum, row.blocking, "{a}");
            }
        }
        let dpcp = Analysis::Dpcp
            .bounds(&sys, BlockingConfig::paper())
            .unwrap();
        let raw = dpcp_bounds(&sys).unwrap();
        assert_eq!(
            dpcp.task(raw[0].task).term("F5'"),
            Some(raw[0].agent_interference)
        );
    }

    #[test]
    fn nested_globals_are_rejected_by_every_analysis() {
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
        for a in Analysis::ALL {
            assert!(a.bounds(&sys, BlockingConfig::sound()).is_err(), "{a}");
        }
    }
}
