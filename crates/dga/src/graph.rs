//! Per-resource dependency graphs over critical-section vertices.
//!
//! The dependency-graph approach schedules *critical sections*, not
//! tasks: every outermost critical section of every job instance in the
//! scheduling window becomes a vertex, and edges constrain the order in
//! which sections may run. Two families of precedence edges exist:
//!
//! - **intra-job order**: a job executes its sections in program order,
//!   so consecutive sections of the same job are connected. These edges
//!   come from the task model and are stored explicitly on the graph.
//! - **mutual exclusion**: two sections on the same semaphore must not
//!   overlap, so the scheduler serializes each resource's vertices into
//!   a total order (a *chain*). These edges are chosen by the list
//!   scheduler, not the model, and live on the
//!   [`DgaSchedule`](crate::DgaSchedule).
//!
//! The approach only handles outermost sections (no hold-and-wait):
//! nested critical sections make graph construction
//! [`NotApplicable`](DgaError::NotApplicable).

use mpcp_model::{Dur, JobId, Segment, System, Time};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Why the dependency-graph approach cannot handle a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DgaError {
    /// The system is outside DGA's model (the message says how).
    NotApplicable(String),
}

impl fmt::Display for DgaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgaError::NotApplicable(why) => write!(f, "DGA not applicable: {why}"),
        }
    }
}

impl Error for DgaError {}

/// One critical section of one job instance, as a schedulable unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vertex {
    /// The job instance executing the section.
    pub job: JobId,
    /// Position of this section among the job's sections (program
    /// order, 0-based).
    pub sec_idx: usize,
    /// The semaphore the section holds.
    pub resource: mpcp_model::ResourceId,
    /// Processor demand while the semaphore is held.
    pub duration: Dur,
    /// Earliest possible start: the job's release plus all compute and
    /// suspension demand preceding the section in program order. A
    /// lower bound only — preemption and blocking can push the real
    /// start later.
    pub est: Time,
}

/// An intra-job precedence edge: vertex `from` must start (and, being
/// non-nested, finish) before vertex `to` of the same job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index into [`DependencyGraph::vertices`] of the predecessor.
    pub from: usize,
    /// Index into [`DependencyGraph::vertices`] of the successor.
    pub to: usize,
}

/// The critical-section dependency graph of a system over a scheduling
/// window.
///
/// The fields are private because they are derived from one another:
/// `edges` and `jobs` are functions of `vertices`, and the list
/// scheduler relies on each job's vertices being contiguous.
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
    jobs: Vec<(JobId, Range<usize>)>,
}

impl DependencyGraph {
    /// Builds the dependency graph for every job instance of `system`
    /// released strictly before `horizon`.
    ///
    /// # Errors
    ///
    /// [`DgaError::NotApplicable`] if any task has nested critical
    /// sections (DGA schedules outermost sections only, so that replay
    /// never holds one semaphore while waiting for another).
    pub fn build(system: &System, horizon: Time) -> Result<Self, DgaError> {
        for task in system.tasks() {
            if task.body().has_nested_sections() {
                return Err(DgaError::NotApplicable(format!(
                    "task {} has nested critical sections",
                    task.name()
                )));
            }
        }
        let mut vertices = Vec::new();
        for task in system.tasks() {
            let mut instance = 0u32;
            while let Some(release) = task.try_release_of(instance) {
                if release >= horizon {
                    break;
                }
                let job = JobId::new(task.id(), instance);
                let mut lead = Dur::ZERO;
                let mut sec_idx = 0usize;
                for seg in task.body().segments() {
                    match seg {
                        Segment::Compute(d) | Segment::Suspend(d) => lead += *d,
                        Segment::Critical(resource, inner) => {
                            let duration: Dur = inner.iter().map(Segment::compute_demand).sum();
                            vertices.push(Vertex {
                                job,
                                sec_idx,
                                resource: *resource,
                                duration,
                                est: release + lead,
                            });
                            sec_idx += 1;
                            lead += duration;
                        }
                    }
                }
                instance += 1;
            }
        }
        Ok(Self::from_vertices(vertices))
    }

    /// The graph over `vertices`, which must be grouped by job in
    /// ascending [`JobId`] order and in program order within each job
    /// (what [`build`](Self::build) emits): derives the intra-job edges
    /// and each job's vertex range in one pass.
    pub(crate) fn from_vertices(vertices: Vec<Vertex>) -> Self {
        let mut edges = Vec::new();
        let mut jobs: Vec<(JobId, Range<usize>)> = Vec::new();
        for (i, v) in vertices.iter().enumerate() {
            match jobs.last_mut() {
                Some((job, range)) if *job == v.job => {
                    edges.push(Edge { from: i - 1, to: i });
                    range.end = i + 1;
                }
                last => {
                    debug_assert!(
                        last.is_none_or(|(job, _)| *job < v.job),
                        "vertices not grouped by ascending job at {i}"
                    );
                    jobs.push((v.job, i..i + 1));
                }
            }
            debug_assert_eq!(v.sec_idx, i - jobs[jobs.len() - 1].1.start);
        }
        DependencyGraph {
            vertices,
            edges,
            jobs,
        }
    }

    /// All critical-section vertices, grouped by job (ascending
    /// [`JobId`]) and in program order within each job.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// Intra-job program-order edges (consecutive sections of the same
    /// job). Mutual-exclusion edges are added by the scheduler.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Every job owning at least one vertex, with its contiguous range
    /// in [`vertices`](Self::vertices), in ascending job order.
    pub fn jobs(&self) -> &[(JobId, Range<usize>)] {
        &self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, System, TaskDef};

    fn sys_two_sections() -> System {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resources(2);
        b.add_task(
            TaskDef::new("a", p[0]).period(10).priority(2).body(
                Body::builder()
                    .compute(1)
                    .critical(s[0], |c| c.compute(2))
                    .compute(1)
                    .critical(s[1], |c| c.compute(1))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(20)
                .priority(1)
                .body(Body::builder().critical(s[0], |c| c.compute(3)).build()),
        );
        b.build().unwrap()
    }

    #[test]
    fn vertices_follow_program_order_with_est() {
        let sys = sys_two_sections();
        let g = DependencyGraph::build(&sys, Time::new(20)).unwrap();
        // Task a: 2 instances × 2 sections; task b: 1 instance × 1.
        assert_eq!(g.vertices().len(), 5);
        assert_eq!(g.jobs()[0].0, JobId::new(sys.tasks()[0].id(), 0));
        let a0 = &g.vertices()[g.jobs()[0].1.clone()];
        assert_eq!(a0[0].est, Time::new(1)); // after 1 tick of compute
        assert_eq!(a0[1].est, Time::new(4)); // 1 + 2 (section) + 1
        assert_eq!(a0[0].sec_idx, 0);
        assert_eq!(a0[1].sec_idx, 1);
        // One intra-job edge per instance of task a, none for b.
        assert_eq!(g.edges().len(), 2);
        for e in g.edges() {
            assert_eq!(g.vertices()[e.from].job, g.vertices()[e.to].job);
            assert!(g.vertices()[e.from].sec_idx < g.vertices()[e.to].sec_idx);
        }
        // Three jobs own vertices; their ranges tile the vertex list.
        let ranges: Vec<_> = g.jobs().iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(ranges, [0..2, 2..4, 4..5]);
        let b1 = JobId::new(sys.tasks()[1].id(), 1);
        assert!(g.jobs().iter().all(|&(j, _)| j != b1)); // released at the horizon
    }

    #[test]
    fn nested_sections_are_rejected() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s = b.add_resources(2);
        b.add_task(
            TaskDef::new("n", p).period(10).body(
                Body::builder()
                    .critical(s[0], |c| c.critical(s[1], |i| i.compute(1)))
                    .build(),
            ),
        );
        let sys = b.build().unwrap();
        assert!(matches!(
            DependencyGraph::build(&sys, Time::new(10)),
            Err(DgaError::NotApplicable(_))
        ));
    }
}
