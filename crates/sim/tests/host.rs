//! `Host` driven by hand through MPCP's local (PCP) retry path: a job
//! blocked on a held local semaphore is woken by the holder's `V(S)` and
//! re-issues its `P(S)`, taking the same decisions, in the same order,
//! as the `Simulator` on the same system.

use mpcp_model::{Body, JobId, ProcessorId, ResourceId, System, TaskDef};
use mpcp_protocols::Mpcp;
use mpcp_sim::{EventKind, Host, LockResult, Simulator, Trace};

/// One processor, one local semaphore. `low` (released first) locks it
/// and computes inside; `high` arrives one tick later and wants it too.
fn system() -> (System, ResourceId) {
    let mut b = System::builder();
    let p = b.add_processor("P0");
    let s = b.add_resource("S");
    let low = Body::builder()
        .critical(s, |c| c.compute(2))
        .compute(1)
        .build();
    b.add_task(TaskDef::new("low", p).period(100).priority(1).body(low));
    let high = TaskDef::new("high", p).period(100).priority(2).offset(1);
    b.add_task(high.body(Body::builder().critical(s, |c| c.compute(1)).build()));
    (b.build().unwrap(), s)
}

/// Every event as `(job, kind)`: times, and with them response times,
/// stripped.
fn sequence(trace: &Trace) -> Vec<(JobId, EventKind)> {
    let strip = |kind| match kind {
        EventKind::Completed { .. } => EventKind::Completed {
            response: mpcp_model::Dur::ZERO,
        },
        kind => kind,
    };
    trace
        .events()
        .iter()
        .map(|e| (e.job, strip(e.kind)))
        .collect()
}

/// `low` holds `S` and `high` has preempted it.
fn preempted_holder() -> (System, ResourceId, Host<Mpcp>, JobId, JobId) {
    let (system, s) = system();
    let [low, high] = [0, 1].map(|t| system.tasks()[t].id());
    let mut host = Host::new(&system, Mpcp::new());
    let low = host.release(low);
    assert_eq!(host.lock(low, s), LockResult::Granted);
    let high = host.release(high);
    assert_eq!(host.dispatched(ProcessorId::from_index(0)), Some(high));
    (system, s, host, low, high)
}

#[test]
fn a_woken_job_retries_its_lock_as_the_engine_does() {
    let (system, s, mut host, low, high) = preempted_holder();
    let p0 = ProcessorId::from_index(0);
    // Ceiling-blocked: `low` inherits and runs its section to the end.
    let blocked = host.lock(high, s);
    assert_eq!(blocked, LockResult::Blocked { holder: Some(low) });
    assert_eq!(host.dispatched(p0), Some(low));
    host.step(low);
    host.unlock(low, s);
    // Woken without the semaphore: the pc is still at the `P(S)`.
    let mut events = host.trace().events().iter();
    assert!(events.any(|e| e.job == high && e.kind == EventKind::Woken));
    assert_eq!(host.jobs().expect(high).pc, 0);
    assert_eq!(host.dispatched(p0), Some(high));
    assert_eq!(host.lock(high, s), LockResult::Granted);
    host.step(high);
    host.unlock(high, s);
    assert!(host.jobs().get(high).is_none());
    assert_eq!(host.dispatched(p0), Some(low));
    host.step(low);
    assert!(host.jobs().get(low).is_none());

    let mut sim = Simulator::new(&system, Mpcp::new());
    sim.run_until(50);
    assert_eq!(sim.records().len(), 2);
    assert_eq!(sequence(host.trace()), sequence(sim.trace()));
}

#[test]
#[should_panic(expected = "is not dispatched")]
fn a_preempted_job_executes_nothing() {
    let (_, _, mut host, low, _) = preempted_holder();
    host.step(low);
}
