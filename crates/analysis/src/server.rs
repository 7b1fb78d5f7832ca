//! Aperiodic service via periodic servers (§3.1: "an aperiodic task can
//! be serviced by means of a periodic server [5]").
//!
//! A **polling server** is a periodic task (budget `B`, period `T_s`)
//! that serves queued aperiodic requests for up to `B` time units each
//! period. For the schedulability analysis it is just another periodic
//! task (`C = B`, `T = T_s`), so it composes with the MPCP blocking
//! bounds unchanged; this module adds the aperiodic-side mathematics:
//! worst-case response bounds for requests served by the poller.

use crate::sched::response_times;
use mpcp_model::{Dur, System, TaskDef, TaskId};

/// A polling server's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollingServer {
    /// Capacity served per period.
    pub budget: Dur,
    /// Polling period.
    pub period: Dur,
}

impl PollingServer {
    /// Creates a server.
    ///
    /// # Panics
    ///
    /// Panics if the budget is zero or exceeds the period.
    #[track_caller]
    pub fn new(budget: u64, period: u64) -> Self {
        assert!(budget > 0, "zero-budget server");
        assert!(budget <= period, "budget exceeds the period");
        PollingServer {
            budget: Dur::new(budget),
            period: Dur::new(period),
        }
    }

    /// The server's processor utilization.
    pub fn utilization(&self) -> f64 {
        self.budget.ratio(self.period)
    }

    /// The number of polling periods needed to serve `demand`.
    pub fn polls_needed(&self, demand: Dur) -> u64 {
        self.budget.div_ceil_of(demand).max(1)
    }

    /// Conservative worst-case response time of an aperiodic request of
    /// `demand`, given the server's own worst-case completion time
    /// `server_response` within its period (from
    /// [`response_times`]): the request arrives just after a
    /// poll, waits one full period, and is then served over
    /// `⌈demand/B⌉` polls, each completing by `server_response` into its
    /// period.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is zero.
    #[track_caller]
    fn worst_case_response(&self, demand: Dur, server_response: Dur) -> Dur {
        assert!(!demand.is_zero(), "zero-demand request");
        let polls = self.polls_needed(demand);
        // Miss the current poll entirely (one period), then (polls - 1)
        // further full periods, then the final chunk completes by the
        // server's response time into the last period.
        self.period + self.period * (polls - 1) + server_response
    }

    /// Adds the server as a periodic task definition (to be included in
    /// a system for Theorem 3 / RTA alongside the ordinary tasks).
    pub fn task_def(
        &self,
        name: impl Into<String>,
        processor: mpcp_model::ProcessorId,
        priority: u32,
    ) -> TaskDef {
        TaskDef::new(name.into(), processor)
            .period(self.period.ticks())
            .priority(priority)
            .body(
                mpcp_model::Body::builder()
                    .compute(self.budget.ticks())
                    .build(),
            )
    }
}

/// Worst-case response bound for an aperiodic `demand` served by the
/// server task `server` inside `system` (which must already contain the
/// server as a periodic task, e.g. via [`PollingServer::task_def`]).
/// Returns `None` if the server itself is unschedulable.
///
/// `blocking` is indexed like the system's tasks (the server's own
/// MPCP blocking is accounted through it).
///
/// # Panics
///
/// Panics if `server` does not belong to the system or `blocking` is not
/// indexed like its tasks.
#[track_caller]
pub fn aperiodic_response_bound(
    system: &System,
    server: TaskId,
    sp: PollingServer,
    demand: Dur,
    blocking: &[Dur],
) -> Option<Dur> {
    let server_response = response_times(system, blocking)[server.index()]?;
    Some(sp.worst_case_response(demand, server_response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, System};

    #[test]
    fn polls_needed_rounds_up() {
        let s = PollingServer::new(4, 10);
        assert_eq!(s.polls_needed(Dur::new(1)), 1);
        assert_eq!(s.polls_needed(Dur::new(4)), 1);
        assert_eq!(s.polls_needed(Dur::new(5)), 2);
        assert_eq!(s.polls_needed(Dur::new(12)), 3);
        assert!((s.utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn response_bound_hand_computation() {
        let s = PollingServer::new(4, 10);
        // demand 6 => 2 polls; miss one period (10) + 1 further period
        // (10) + server response 4 = 24.
        assert_eq!(
            s.worst_case_response(Dur::new(6), Dur::new(4)),
            Dur::new(24)
        );
        // demand 1 => one poll: 10 + 0 + 4 = 14.
        assert_eq!(
            s.worst_case_response(Dur::new(1), Dur::new(4)),
            Dur::new(14)
        );
    }

    #[test]
    fn bound_composes_with_rta() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        // A higher-priority task plus the server.
        b.add_task(
            TaskDef::new("hi", p)
                .period(5)
                .priority(2)
                .body(Body::builder().compute(1).build()),
        );
        let sp = PollingServer::new(3, 15);
        let server = b.add_task(sp.task_def("server", p, 1));
        let sys = b.build().unwrap();
        let blocking = vec![Dur::ZERO; 2];
        // Server response: C=3 plus interference from hi: R = 3 + ⌈R/5⌉·1
        // -> R = 4.
        let r = response_times(&sys, &blocking)[server.index()].unwrap();
        assert_eq!(r, Dur::new(4));
        let bound = aperiodic_response_bound(&sys, server, sp, Dur::new(5), &blocking).unwrap();
        // 2 polls: 15 + 15 + 4 = 34.
        assert_eq!(bound, Dur::new(34));
    }

    #[test]
    fn unschedulable_server_yields_none() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("hog", p)
                .period(10)
                .priority(2)
                .body(Body::builder().compute(9).build()),
        );
        let sp = PollingServer::new(5, 20);
        let server = b.add_task(sp.task_def("server", p, 1));
        let sys = b.build().unwrap();
        let blocking = vec![Dur::ZERO; 2];
        assert_eq!(
            aperiodic_response_bound(&sys, server, sp, Dur::new(1), &blocking),
            None
        );
    }

    #[test]
    #[should_panic(expected = "budget exceeds")]
    fn oversized_budget_panics() {
        PollingServer::new(11, 10);
    }
}
