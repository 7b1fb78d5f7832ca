//! Periodic tasks.

use crate::ids::{ProcessorId, TaskId};
use crate::priority::Priority;
use crate::segment::Body;
use crate::time::{Dur, Time};
use std::sync::Arc;

/// A periodic task, statically bound to a processor (§3.2), with a fixed
/// priority and a [`Body`] executed by each of its jobs.
///
/// Tasks are created through [`SystemBuilder`](crate::SystemBuilder), which
/// validates the definition and assigns rate-monotonic priorities if none
/// were given explicitly.
///
/// The name and the body sit behind [`Arc`]s, so a task carried into an
/// edited system ([`Task::to_def`]) shares both with the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    pub(crate) id: TaskId,
    pub(crate) name: Arc<str>,
    pub(crate) processor: ProcessorId,
    pub(crate) period: Dur,
    pub(crate) deadline: Dur,
    pub(crate) offset: Time,
    pub(crate) priority: Priority,
    pub(crate) body: Body,
    pub(crate) arrivals: Option<Vec<Time>>,
}

impl Task {
    /// The task's identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name as the shared handle the task holds it by.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// The processor this task is statically bound to.
    pub fn processor(&self) -> ProcessorId {
        self.processor
    }

    /// The period `T_i` between job releases.
    pub fn period(&self) -> Dur {
        self.period
    }

    /// The relative deadline (defaults to the period).
    pub fn deadline(&self) -> Dur {
        self.deadline
    }

    /// Release time of the first job.
    pub fn offset(&self) -> Time {
        self.offset
    }

    /// The assigned (base) priority `P_i`. Always in the task band.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The job body.
    pub fn body(&self) -> &Body {
        &self.body
    }

    /// Worst-case execution time `C_i`.
    pub fn wcet(&self) -> Dur {
        self.body.wcet()
    }

    /// Utilization `C_i / T_i`.
    pub fn utilization(&self) -> f64 {
        self.wcet().ratio(self.period)
    }

    /// Explicit arrival times, if this is an aperiodic/sporadic task
    /// (§3.1: such tasks are modelled by their arrival traces; the period
    /// then denotes the minimum inter-arrival time used for priority
    /// assignment and analysis).
    pub fn arrivals(&self) -> Option<&[Time]> {
        self.arrivals.as_deref()
    }

    /// Release time of job `instance`; `None` past the end of an
    /// aperiodic task's arrival trace.
    pub fn try_release_of(&self, instance: u32) -> Option<Time> {
        match &self.arrivals {
            Some(times) => times.get(instance as usize).copied(),
            None => Some(self.offset + self.period * u64::from(instance)),
        }
    }

    /// Release time of job `instance`.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is past the end of an aperiodic task's
    /// arrival trace.
    #[track_caller]
    pub fn release_of(&self, instance: u32) -> Time {
        self.try_release_of(instance)
            .expect("instance beyond the arrival trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{System, TaskDef};

    #[test]
    fn accessors_and_job_arithmetic() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("tau", p)
                .period(10)
                .deadline(8)
                .offset(3)
                .body(Body::builder().compute(4).build()),
        );
        let sys = b.build().unwrap();
        let t = &sys.tasks()[0];
        assert_eq!(t.name(), "tau");
        assert_eq!(t.period(), Dur::new(10));
        assert_eq!(t.deadline(), Dur::new(8));
        assert_eq!(t.offset(), Time::new(3));
        assert_eq!(t.wcet(), Dur::new(4));
        assert!((t.utilization() - 0.4).abs() < 1e-12);
        assert_eq!(t.release_of(0), Time::new(3));
        assert_eq!(t.release_of(2), Time::new(23));
    }
}
