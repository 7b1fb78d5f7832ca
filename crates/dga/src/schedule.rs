//! Deterministic list scheduling of the dependency graph, and the
//! resulting offline schedule.
//!
//! The scheduler fixes, for every semaphore, a total order (*chain*)
//! over that semaphore's critical-section vertices — these are the
//! mutual-exclusion edges of the dependency-graph approach. Selection
//! is availability-gated: a vertex becomes selectable only once all of
//! its job's earlier sections have been appended, so the append order
//! is a topological order of the combined graph (intra-job edges plus
//! chain edges) and the result is acyclic by construction. At most one
//! vertex per job is selectable at a time, so the selectable set lives
//! in a binary heap seeded with every job's first section; popping the
//! minimum pushes that job's next section: O(n log n) in the number of
//! vertices.
//!
//! Tie-breaks, in order: earliest possible start ([`crate::Vertex::est`]),
//! then *longest critical section first* (the classic list-scheduling
//! heuristic — long sections fill semaphore idle gaps worst, so they
//! go first), then task index and instance for full determinism (a
//! job never has two selectable sections, so the key is unique among
//! the heap's entries).
//!
//! Chain orders alone do not pin instants. [`DgaSchedule::compute`]
//! therefore runs the deterministic simulator once in *construct* mode
//! (order-gated grants only) and records when each grant and release
//! actually happened; those observed instants become the schedule's
//! start slots, its makespan, and its per-task response bounds. The
//! bounds are exact for the replay — the same engine replaying the
//! same slots reproduces the construction run event for event.

use crate::graph::{DependencyGraph, DgaError};
use crate::policy::DgaReplay;
use mpcp_model::{Dur, JobId, System, TaskId, Time};
use mpcp_sim::{ExpectedGrants, SimConfig, Simulator};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The scheduling (and simulation) window for `system`: two
/// hyperperiods, capped at `cap` ticks.
pub fn horizon_capped(system: &System, cap: u64) -> Time {
    Time::new(system.hyperperiod().ticks().saturating_mul(2).min(cap))
}

/// [`horizon_capped`] at 20 000 ticks: the window [`DgaReplay::new`]
/// and `mpcp dga` schedule when none is given.
pub fn default_horizon(system: &System) -> Time {
    horizon_capped(system, 20_000)
}

/// One scheduled critical section within a resource's chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainEntry {
    /// The job executing the section.
    pub job: JobId,
    /// Observed grant instant from the construction run; `None` when
    /// the horizon ended before the section started.
    pub start: Option<Time>,
    /// Observed release instant; `None` when the horizon cut it off.
    pub end: Option<Time>,
}

/// Per-task outcome of the constructed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskBound {
    /// The task.
    pub task: TaskId,
    /// Worst observed response time across the window's completed jobs
    /// (the task's response bound under replay); `None` if no job
    /// completed within the horizon.
    pub wcr: Option<Dur>,
    /// Jobs completed within the scheduling window.
    pub completed: u64,
    /// Deadline misses within the scheduling window.
    pub misses: u64,
}

/// A complete offline DGA schedule: per-resource chains with pinned
/// start slots, per-task response bounds, and a feasibility verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DgaSchedule {
    /// The scheduling window the chains cover.
    pub horizon: Time,
    /// Per-`ResourceId::index()` chain: the semaphore's grants in
    /// scheduled order.
    pub chains: Vec<Vec<ChainEntry>>,
    /// Per-`TaskId::index()` response bounds.
    pub bounds: Vec<TaskBound>,
    /// Completion instant of the last scheduled section; `None` when
    /// nothing ran.
    pub makespan: Option<Time>,
    /// Whether the constructed schedule is feasible: every job that
    /// reached its deadline within the window met it.
    pub accepted: bool,
}

impl DgaSchedule {
    /// Builds the dependency graph for `system`, then schedules it with
    /// [`DgaSchedule::from_graph`].
    ///
    /// # Errors
    ///
    /// [`DgaError::NotApplicable`] when the graph cannot be built (see
    /// [`DependencyGraph::build`]).
    pub fn compute(system: &System, horizon: Time) -> Result<Self, DgaError> {
        let graph = DependencyGraph::build(system, horizon)?;
        Ok(Self::from_graph(system, &graph, horizon))
    }

    /// List-schedules `graph` — which must be
    /// [`DependencyGraph::build`]'s for the same `system` and `horizon`
    /// — and pins slots/bounds via a construction run over
    /// `[0, horizon)`.
    pub fn from_graph(system: &System, graph: &DependencyGraph, horizon: Time) -> Self {
        let orders = list_schedule(graph, system.resources().len());
        let mut sim = Simulator::with_config(
            system,
            DgaReplay::construct(orders),
            SimConfig {
                record_trace: false,
                ..SimConfig::until(horizon.ticks())
            },
        );
        sim.run();

        let metrics = sim.metrics();
        let bounds = metrics
            .per_task()
            .iter()
            .map(|m| TaskBound {
                task: m.task,
                wcr: (m.completed > 0).then_some(m.max_response),
                completed: m.completed,
                misses: m.misses,
            })
            .collect();

        let accepted = sim.misses() == 0;
        let chains = sim.into_protocol().into_constructed();
        let makespan = chains.iter().flatten().filter_map(|e| e.end).max();

        DgaSchedule {
            horizon,
            chains,
            bounds,
            makespan,
            accepted,
        }
    }

    /// The schedule as the monitor's expected-grant sequences, for
    /// checking that a replay conforms
    /// ([`Monitor::set_conformance`](mpcp_sim::Monitor::set_conformance)).
    pub fn expected_grants(&self) -> ExpectedGrants {
        ExpectedGrants {
            per_resource: self
                .chains
                .iter()
                .map(|c| c.iter().map(|e| (e.job, e.start)).collect())
                .collect(),
        }
    }

    /// Total number of scheduled critical sections across all chains.
    pub fn sections(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }
}

/// Serializes the graph's vertices into per-resource chains (see the
/// module docs for the selection rule).
pub(crate) fn list_schedule(graph: &DependencyGraph, resources: usize) -> Vec<Vec<JobId>> {
    let vertices = graph.vertices();
    // Min-heap entry for vertex `i` of a job whose range ends at `end`:
    // the selection key, then the two indices (never compared — the
    // key is unique among selectable vertices).
    let entry = |i: usize, end: usize| {
        let v = &vertices[i];
        let key = (
            v.est,
            Reverse(v.duration),
            v.job.task.index(),
            v.job.instance,
        );
        Reverse((key, i, end))
    };
    let mut selectable: BinaryHeap<_> = graph
        .jobs()
        .iter()
        .map(|(_, range)| entry(range.start, range.end))
        .collect();
    let mut orders = vec![Vec::new(); resources];
    while let Some(Reverse((_, i, end))) = selectable.pop() {
        let v = &vertices[i];
        orders[v.resource.index()].push(v.job);
        if i + 1 < end {
            selectable.push(entry(i + 1, end));
        }
    }
    orders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Vertex;
    use crate::policy::DgaReplay;
    use crate::reference::list_schedule_reference;
    use mpcp_model::{Body, ResourceId, System, TaskDef};
    use mpcp_sim::{Monitor, MonitorSpec};

    fn job(task: u32, instance: u32) -> JobId {
        JobId::new(TaskId::from_index(task), instance)
    }

    /// One section of a hand-built graph: `(resource, est, duration)`.
    type Section = (u32, u64, u64);

    /// A hand-built graph: per job (ascending), its sections in program
    /// order.
    fn graph_of(jobs: &[(JobId, &[Section])]) -> DependencyGraph {
        let vertices = jobs
            .iter()
            .flat_map(|&(job, sections)| {
                sections
                    .iter()
                    .enumerate()
                    .map(move |(sec_idx, &(r, est, len))| Vertex {
                        job,
                        sec_idx,
                        resource: ResourceId::from_index(r),
                        duration: Dur::new(len),
                        est: Time::new(est),
                    })
            })
            .collect();
        DependencyGraph::from_vertices(vertices)
    }

    /// The heap scheduler's chains, asserted equal to the quadratic
    /// reference's.
    fn schedule_checked(graph: &DependencyGraph, resources: usize) -> Vec<Vec<JobId>> {
        let orders = list_schedule(graph, resources);
        assert_eq!(orders, list_schedule_reference(graph, resources));
        orders
    }

    #[test]
    fn equal_est_and_duration_fall_back_to_task_then_instance() {
        // Everything ties on (est, duration); instances of one task tie
        // on the task index too.
        let g = graph_of(&[
            (job(0, 0), &[(0, 5, 2)]),
            (job(0, 1), &[(0, 5, 2)]),
            (job(1, 0), &[(0, 5, 2)]),
            (job(2, 0), &[(0, 5, 2)]),
            (job(2, 1), &[(0, 5, 2)]),
        ]);
        assert_eq!(
            schedule_checked(&g, 1),
            [[job(0, 0), job(0, 1), job(1, 0), job(2, 0), job(2, 1)]]
        );
    }

    #[test]
    fn longest_section_first_among_equal_est() {
        let g = graph_of(&[
            (job(0, 0), &[(0, 3, 1)]),
            (job(1, 0), &[(0, 3, 4)]),
            (job(2, 0), &[(0, 2, 1)]),
            (job(3, 0), &[(0, 3, 4)]),
        ]);
        assert_eq!(
            schedule_checked(&g, 1),
            [[job(2, 0), job(1, 0), job(3, 0), job(0, 0)]]
        );
    }

    #[test]
    fn later_sections_compete_only_once_selectable() {
        // tau0's second section ties exactly with tau1's first and wins
        // on task index; tau2's second section has the smallest key of
        // all but is gated behind its first, which has the largest.
        let g = graph_of(&[
            (job(0, 0), &[(0, 1, 1), (1, 4, 2)]),
            (job(1, 0), &[(1, 4, 2)]),
            (job(2, 0), &[(0, 9, 1), (1, 0, 7)]),
            (job(2, 1), &[(1, 4, 2), (0, 4, 2)]),
        ]);
        assert_eq!(
            schedule_checked(&g, 2),
            [
                vec![job(0, 0), job(2, 1), job(2, 0)],
                vec![job(0, 0), job(1, 0), job(2, 1), job(2, 0)],
            ]
        );
    }

    #[test]
    fn a_job_without_sections_or_a_resource_without_users_is_fine() {
        let g = graph_of(&[(job(0, 0), &[]), (job(1, 0), &[(2, 0, 1)])]);
        assert_eq!(g.jobs().len(), 1);
        assert_eq!(schedule_checked(&g, 3), [vec![], vec![], vec![job(1, 0)]]);
        assert_eq!(
            schedule_checked(&graph_of(&[]), 2),
            [Vec::<JobId>::new(), Vec::new()]
        );
    }

    /// 51 200 vertices whose order has a closed form: section `s` of
    /// instance `k` of every task has `est = 4k + s` and unit length,
    /// so sections are appended instance-major, then section, then
    /// task. (The quadratic reference would need ~2.6 × 10⁹ key
    /// comparisons here, which is why it is not consulted.)
    #[test]
    fn fifty_thousand_vertices_schedule_in_closed_form_order() {
        const TASKS: u32 = 64;
        const INSTANCES: u32 = 200;
        const SECTIONS: u32 = 4;
        const RESOURCES: u32 = 2;
        let mut vertices = Vec::new();
        for t in 0..TASKS {
            for k in 0..INSTANCES {
                for s in 0..SECTIONS {
                    vertices.push(Vertex {
                        job: job(t, k),
                        sec_idx: s as usize,
                        resource: ResourceId::from_index(s % RESOURCES),
                        duration: Dur::new(1),
                        est: Time::new(u64::from(k * SECTIONS + s)),
                    });
                }
            }
        }
        let graph = DependencyGraph::from_vertices(vertices);
        assert_eq!(graph.vertices().len(), 51_200);
        let orders = list_schedule(&graph, RESOURCES as usize);
        for r in 0..RESOURCES {
            let expected: Vec<JobId> = (0..INSTANCES)
                .flat_map(|k| {
                    (r..SECTIONS)
                        .step_by(RESOURCES as usize)
                        .flat_map(move |_| (0..TASKS).map(move |t| job(t, k)))
                })
                .collect();
            assert_eq!(orders[r as usize], expected, "resource {r}");
        }
    }

    /// Two processors contending on one global semaphore, second task
    /// with two sections per job.
    fn contended() -> System {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("hi", p[0]).period(20).priority(2).body(
                Body::builder()
                    .compute(1)
                    .critical(s, |c| c.compute(3))
                    .compute(1)
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("lo", p[1]).period(40).priority(1).body(
                Body::builder()
                    .critical(s, |c| c.compute(2))
                    .compute(2)
                    .critical(s, |c| c.compute(4))
                    .build(),
            ),
        );
        b.build().unwrap()
    }

    #[test]
    fn chains_cover_every_section_once() {
        let sys = contended();
        let sched = DgaSchedule::compute(&sys, Time::new(40)).unwrap();
        // hi: 2 instances × 1 section; lo: 1 instance × 2 sections.
        assert_eq!(sched.sections(), 4);
        // Same-resource chain entries never overlap in time.
        for chain in &sched.chains {
            for w in chain.windows(2) {
                if let (Some(e), Some(s)) = (w[0].end, w[1].start) {
                    assert!(e <= s, "chain overlap: {w:?}");
                }
            }
        }
        assert!(sched.accepted);
        assert!(sched.makespan.is_some());
    }

    #[test]
    fn replay_reproduces_construction_and_conforms() {
        let sys = contended();
        let sched = DgaSchedule::compute(&sys, Time::new(40)).unwrap();
        let mut sim = Simulator::with_config(
            &sys,
            DgaReplay::from_schedule(sched.clone()),
            SimConfig::until(40),
        );
        let mut monitor = Monitor::new(&sys, MonitorSpec::default());
        monitor.set_conformance(sched.expected_grants());
        sim.set_monitor(monitor);
        sim.run();
        assert!(
            sim.monitor().unwrap().is_clean(),
            "replay diverged: {:?}",
            sim.monitor().unwrap().error()
        );
        // Replay responses equal the offline bounds.
        let metrics = sim.metrics();
        for (m, b) in metrics.per_task().iter().zip(&sched.bounds) {
            assert_eq!(m.completed, b.completed);
            assert_eq!(m.misses, b.misses);
            assert_eq!((m.completed > 0).then_some(m.max_response), b.wcr);
        }
    }

    #[test]
    fn auto_mode_matches_explicit_schedule() {
        let sys = contended();
        let mut auto = Simulator::with_config(&sys, DgaReplay::new(), SimConfig::until(40));
        auto.run();
        let sched = auto.protocol().schedule().expect("resolved in init");
        assert_eq!(sched.horizon, Time::new(80)); // 2 × hyperperiod(40)
        let explicit = DgaSchedule::compute(&sys, Time::new(80)).unwrap();
        assert_eq!(*sched, explicit);
    }
}
