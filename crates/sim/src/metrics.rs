//! Aggregated simulation metrics.

use crate::job::Jobs;
use mpcp_model::{Dur, JobId, System, TaskId, Time};
use std::fmt;

/// Outcome record of one completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Release time.
    pub release: Time,
    /// Completion time.
    pub completion: Time,
    /// `completion - release`.
    pub response: Dur,
    /// Time blocked on local semaphores.
    pub blocked_local: Dur,
    /// Time blocked on global semaphores.
    pub blocked_global: Dur,
    /// Time ready but displaced by lower-assigned-priority execution.
    pub lower_interference: Dur,
    /// Whether the job missed its deadline.
    pub missed: bool,
}

impl JobRecord {
    /// Total measured blocking: the simulation counterpart of the paper's
    /// `B_i` (waiting attributable to lower-priority or remote execution,
    /// §3.3).
    pub fn measured_blocking(&self) -> Dur {
        self.blocked_local + self.blocked_global + self.lower_interference
    }
}

/// Per-task aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskMetrics {
    /// The task.
    pub task: TaskId,
    /// Jobs completed within the simulated window.
    pub completed: u64,
    /// Deadline misses among completed and checked jobs.
    pub misses: u64,
    /// Maximum response time observed.
    pub max_response: Dur,
    /// Mean response time over completed jobs.
    pub avg_response: f64,
    /// Maximum measured blocking over jobs (completed and in-flight).
    pub max_blocking: Dur,
    /// Maximum time blocked on global semaphores.
    pub max_blocked_global: Dur,
    /// Maximum time blocked on local semaphores.
    pub max_blocked_local: Dur,
    /// Maximum displacement by lower-assigned-priority execution.
    pub max_lower_interference: Dur,
}

/// Metrics for a whole run; see
/// [`Simulator::metrics`](crate::Simulator::metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    per_task: Vec<TaskMetrics>,
    total_misses: u64,
}

impl Metrics {
    pub(crate) fn collect(
        system: &System,
        records: &[JobRecord],
        in_flight: &Jobs,
        now: Time,
        total_misses: u64,
    ) -> Metrics {
        let n = system.tasks().len();
        let mut per_task: Vec<TaskMetrics> = (0..n)
            .map(|i| TaskMetrics {
                task: TaskId::from_index(i as u32),
                completed: 0,
                misses: 0,
                max_response: Dur::ZERO,
                avg_response: 0.0,
                max_blocking: Dur::ZERO,
                max_blocked_global: Dur::ZERO,
                max_blocked_local: Dur::ZERO,
                max_lower_interference: Dur::ZERO,
            })
            .collect();
        let mut sums = vec![0u128; n];
        for r in records {
            let m = &mut per_task[r.id.task.index()];
            m.completed += 1;
            if r.missed {
                m.misses += 1;
            }
            m.max_response = m.max_response.max(r.response);
            m.max_blocking = m.max_blocking.max(r.measured_blocking());
            m.max_blocked_global = m.max_blocked_global.max(r.blocked_global);
            m.max_blocked_local = m.max_blocked_local.max(r.blocked_local);
            m.max_lower_interference = m.max_lower_interference.max(r.lower_interference);
            sums[r.id.task.index()] += u128::from(r.response.ticks());
        }
        for job in in_flight.iter() {
            let [local, global, lower] = in_flight.blocking_at(job, now);
            let m = &mut per_task[job.id.task.index()];
            m.max_blocking = m.max_blocking.max(local + global + lower);
            m.max_blocked_global = m.max_blocked_global.max(global);
            m.max_blocked_local = m.max_blocked_local.max(local);
            m.max_lower_interference = m.max_lower_interference.max(lower);
        }
        for (i, m) in per_task.iter_mut().enumerate() {
            if m.completed > 0 {
                m.avg_response = sums[i] as f64 / m.completed as f64;
            }
        }
        Metrics {
            per_task,
            total_misses,
        }
    }

    /// Metrics of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the simulated system.
    #[track_caller]
    pub fn task(&self, task: TaskId) -> &TaskMetrics {
        &self.per_task[task.index()]
    }

    /// Metrics for every task, indexed by [`TaskId`].
    pub fn per_task(&self) -> &[TaskMetrics] {
        &self.per_task
    }

    /// Total deadline misses in the run.
    pub fn total_misses(&self) -> u64 {
        self.total_misses
    }

    /// Largest measured blocking over all tasks.
    pub fn max_blocking(&self) -> Dur {
        self.per_task
            .iter()
            .map(|m| m.max_blocking)
            .max()
            .unwrap_or(Dur::ZERO)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>6} {:>6} {:>6} {:>8} {:>10} {:>8} {:>8} {:>8}",
            "task", "done", "miss", "maxResp", "avgResp", "maxBlk", "blkGlob", "blkLoc"
        )?;
        for m in &self.per_task {
            writeln!(
                f,
                "{:>6} {:>6} {:>6} {:>8} {:>10.1} {:>8} {:>8} {:>8}",
                m.task.to_string(),
                m.completed,
                m.misses,
                m.max_response.to_string(),
                m.avg_response,
                m.max_blocking.to_string(),
                m.max_blocked_global.to_string(),
                m.max_blocked_local.to_string(),
            )?;
        }
        write!(f, "total deadline misses: {}", self.total_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, System, TaskDef};

    fn record(task: u32, response: u64, bg: u64, missed: bool) -> JobRecord {
        JobRecord {
            id: JobId::first(TaskId::from_index(task)),
            release: Time::ZERO,
            completion: Time::new(response),
            response: Dur::new(response),
            blocked_local: Dur::ZERO,
            blocked_global: Dur::new(bg),
            lower_interference: Dur::ZERO,
            missed,
        }
    }

    fn system() -> System {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        for i in 0..2 {
            b.add_task(
                TaskDef::new(format!("t{i}"), p)
                    .period(10 + i)
                    .body(Body::builder().compute(1).build()),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn aggregation() {
        let sys = system();
        let records = vec![
            record(0, 5, 2, false),
            record(0, 9, 4, true),
            record(1, 3, 0, false),
        ];
        let m = Metrics::collect(&sys, &records, &Jobs::default(), Time::ZERO, 1);
        let t0 = m.task(TaskId::from_index(0));
        assert_eq!(t0.completed, 2);
        assert_eq!(t0.misses, 1);
        assert_eq!(t0.max_response, Dur::new(9));
        assert!((t0.avg_response - 7.0).abs() < 1e-9);
        assert_eq!(t0.max_blocking, Dur::new(4));
        assert_eq!(m.total_misses(), 1);
        assert_eq!(m.max_blocking(), Dur::new(4));
        assert!(!m.to_string().is_empty());
    }

    #[test]
    fn empty_run_is_well_formed() {
        let sys = system();
        let m = Metrics::collect(&sys, &[], &Jobs::default(), Time::ZERO, 0);
        assert_eq!(m.per_task().len(), 2);
        assert_eq!(m.max_blocking(), Dur::ZERO);
        assert_eq!(m.task(TaskId::from_index(1)).completed, 0);
    }
}
