//! A threaded MPCP runtime on *virtual processors*.
//!
//! The paper's implementation (§5.4) relies on an RT kernel that can fix
//! task priorities per processor. Portable user space cannot set true
//! scheduling priorities, so this runtime enforces them itself: each job
//! is an OS thread, and the protocol is the simulator's
//! [`Mpcp`] policy in an [`mpcp_sim::Host`] behind one mutex. A thread
//! interprets its job's flattened program from the host's program
//! counter and, before every compute tick, the end of a computation and
//! every operation, waits until the host dispatches its job on the
//! job's processor; a self-suspension sleeps the thread. The host's trace is the
//! execution's record, judged by the simulator's
//! [`Monitor`](mpcp_sim::Monitor) like any simulated run.

use mpcp_model::{JobId, System, Task, TaskId};
use mpcp_protocols::Mpcp;
use mpcp_sim::{Host, Op, Trace};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct Inner {
    host: Mutex<Host<Mpcp>>,
    /// Signalled after every host call.
    cv: Condvar,
}

/// A threaded executor running a [`System`]'s jobs under the MPCP on
/// virtual processors.
///
/// # Example
///
/// ```
/// use mpcp_model::{Body, System, TaskDef};
/// use mpcp_protocols::ProtocolKind;
/// use mpcp_runtime::Runtime;
/// use mpcp_sim::{EventKind, Monitor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = System::builder();
/// let p = b.add_processors(2);
/// let s = b.add_resource("SG");
/// b.add_task(TaskDef::new("a", p[0]).period(100).priority(2).body(
///     Body::builder().compute(3).critical(s, |c| c.compute(2)).build(),
/// ));
/// b.add_task(TaskDef::new("b", p[1]).period(100).priority(1).body(
///     Body::builder().critical(s, |c| c.compute(2)).build(),
/// ));
/// let system = b.build()?;
///
/// let trace = Runtime::new(&system).run_all_once();
/// let mut monitor = Monitor::new(&system, ProtocolKind::Mpcp.monitor_spec());
/// monitor.replay(&trace);
/// assert!(monitor.is_clean());
/// let completed = trace.events().iter();
/// let completed = completed.filter(|e| matches!(e.kind, EventKind::Completed { .. }));
/// assert_eq!(completed.count(), 2);
/// # Ok(())
/// # }
/// ```
pub struct Runtime {
    inner: Arc<Inner>,
    tasks: Vec<TaskId>,
}

impl Runtime {
    /// Creates a runtime for `system` (one virtual processor per model
    /// processor).
    pub fn new(system: &System) -> Runtime {
        Runtime {
            inner: Arc::new(Inner {
                host: Mutex::new(Host::new(system, Mpcp::new())),
                cv: Condvar::new(),
            }),
            tasks: system.tasks().iter().map(Task::id).collect(),
        }
    }

    /// Releases one job of every task simultaneously, waits for all to
    /// finish and returns the trace.
    pub fn run_all_once(&self) -> Trace {
        self.run_all_repeated(1)
    }

    /// Runs `iterations` back-to-back jobs of every task (each task is
    /// one thread, releasing its next job as the last completes) and
    /// returns the trace. More iterations mean more lock-contention
    /// interleavings.
    pub fn run_all_repeated(&self, iterations: u32) -> Trace {
        assert!(iterations > 0, "zero iterations");
        // Release every first job before any thread starts: the host
        // arbitrates only among released jobs, so starting each thread
        // as its job is released would let an early low-priority job
        // run unopposed.
        let first: Vec<JobId> = {
            let mut host = self.inner.hold();
            self.tasks.iter().map(|&t| host.release(t)).collect()
        };
        let handles: Vec<_> = first
            .into_iter()
            .map(|job| {
                let inner = Arc::clone(&self.inner);
                std::thread::spawn(move || {
                    let _wake = Wake(&inner.cv);
                    let mut host = drive(&inner, inner.hold(), job);
                    for _ in 1..iterations {
                        let job = host.release(job.task);
                        inner.cv.notify_all();
                        host = drive(&inner, host, job);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("runtime job panicked");
        }
        self.inner.hold().trace().clone()
    }
}

type Guard<'a> = MutexGuard<'a, Host<Mpcp>>;

const POISONED: &str = "another runtime thread panicked holding the host";

impl Inner {
    fn hold(&self) -> Guard<'_> {
        self.host.lock().expect(POISONED)
    }
}

/// Wakes every waiting thread as a thread ends, by a panic too: a
/// poisoned host then fails their waits instead of leaving them asleep.
struct Wake<'a>(&'a Condvar);

impl Drop for Wake<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

/// Runs `job` to completion, holding the host only between its steps;
/// returns it held, right after the completion. Completion is free: the
/// host completes a job in the call that takes it past its last op.
fn drive<'a>(inner: &'a Inner, mut host: Guard<'a>, job: JobId) -> Guard<'a> {
    while host.jobs().get(job).is_some() {
        host = dispatched(inner, host, job);
        match host.jobs().expect(job).current_op() {
            Some(Op::Compute(d)) => {
                for _ in 0..d.ticks() {
                    drop(host);
                    // A tick of time: the other virtual processors' threads
                    // get to run, and to contend.
                    std::thread::yield_now();
                    // Preempted meanwhile, the job executes the rest of
                    // its computation, or ends it, when dispatched again.
                    host = dispatched(inner, inner.hold(), job);
                }
                host.step(job);
            }
            Some(Op::Suspend(d)) => {
                host.step(job);
                drop(host);
                inner.cv.notify_all();
                std::thread::sleep(std::time::Duration::from_micros(d.ticks()));
                host = inner.hold();
                host.step(job);
            }
            // A blocked job is not dispatched again until the policy
            // hands it the semaphore or wakes it to retry the `P(S)`.
            Some(Op::Lock(resource)) => {
                host.lock(job, resource);
            }
            Some(Op::Unlock(resource)) => host.unlock(job, resource),
            None => unreachable!("the host completes {job} past its last op"),
        }
        inner.cv.notify_all();
    }
    host
}

/// Waits until the host dispatches `job` on its processor.
fn dispatched<'a>(inner: &'a Inner, host: Guard<'a>, job: JobId) -> Guard<'a> {
    let waiting = |h: &mut Host<Mpcp>| h.dispatched(h.jobs().expect(job).processor) != Some(job);
    inner.cv.wait_while(host, waiting).expect(POISONED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, TaskDef};
    use mpcp_protocols::ProtocolKind;
    use mpcp_sim::EventKind;

    /// Judges `trace` under MPCP's monitor spec; returns the number of
    /// completed jobs.
    fn judged(system: &System, trace: &Trace) -> usize {
        let mut monitor = mpcp_sim::Monitor::new(system, ProtocolKind::Mpcp.monitor_spec());
        monitor.replay(trace);
        let violations: Vec<_> = monitor.violations().collect();
        assert!(
            violations.is_empty(),
            "{violations:?}\n{}",
            trace.event_log()
        );
        let completed = |e: &&mpcp_sim::TraceEvent| matches!(e.kind, EventKind::Completed { .. });
        trace.events().iter().filter(completed).count()
    }

    fn contended_system(tasks_per_proc: usize, procs: usize) -> System {
        let mut b = System::builder();
        let ps = b.add_processors(procs);
        let sg = b.add_resource("SG");
        let mut level = (tasks_per_proc * procs) as u32;
        for (pi, &p) in ps.iter().enumerate() {
            for i in 0..tasks_per_proc {
                b.add_task(
                    TaskDef::new(format!("t{pi}.{i}"), p)
                        .period(1_000)
                        .priority(level)
                        .body(
                            Body::builder()
                                .compute(3)
                                .critical(sg, |c| c.compute(2))
                                .compute(1)
                                .build(),
                        ),
                );
                level -= 1;
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn all_jobs_complete_with_mutual_exclusion() {
        let sys = contended_system(3, 2);
        let trace = Runtime::new(&sys).run_all_once();
        assert_eq!(judged(&sys, &trace), 6);
    }

    #[test]
    fn local_pcp_path_works_under_threads() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s1 = b.add_resource("S1");
        let s2 = b.add_resource("S2");
        for i in 0..4u32 {
            let (ra, rb) = if i % 2 == 0 { (s1, s2) } else { (s2, s1) };
            b.add_task(
                TaskDef::new(format!("t{i}"), p)
                    .period(1_000)
                    .priority(10 - i)
                    .body(
                        Body::builder()
                            .compute(1)
                            .critical(ra, |c| c.compute(1))
                            .critical(rb, |c| c.compute(1))
                            .build(),
                    ),
            );
        }
        let sys = b.build().unwrap();
        let trace = Runtime::new(&sys).run_all_once();
        assert_eq!(judged(&sys, &trace), 4);
    }

    #[test]
    fn repeated_runs_hold_invariants() {
        // Race-hunting loop: different interleavings each run.
        for _ in 0..10 {
            let sys = contended_system(2, 3);
            let trace = Runtime::new(&sys).run_all_once();
            assert_eq!(judged(&sys, &trace), 6);
        }
    }
}
