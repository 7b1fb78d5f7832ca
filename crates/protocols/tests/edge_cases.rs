//! Edge-case tests of the protocol implementations: nested boosts,
//! multi-semaphore inheritance, migration round trips and hand-off
//! chains.

use mpcp_model::{Body, Dur, JobId, Priority, System, TaskDef, TaskId, Time};
use mpcp_protocols::{Dpcp, Mpcp, NonPreemptiveCs, Pip, ProtocolKind, RawSemaphores};
use mpcp_sim::{EventKind, Monitor, MonitorSpec, SimConfig, Simulator, Trace};

fn jid(t: u32, i: u32) -> JobId {
    JobId::new(TaskId::from_index(t), i)
}

/// Mutual exclusion (and single occupancy) held over the recorded run.
#[track_caller]
fn assert_mutual_exclusion(sys: &System, trace: &Trace) {
    let mut monitor = Monitor::new(sys, MonitorSpec::default());
    monitor.replay(trace);
    assert_eq!(monitor.violations().collect::<Vec<_>>(), []);
}

/// MPCP with (ordered) nested global sections: the priority boost stacks
/// — inside both sections the job runs at the max of the two gcs
/// priorities and unwinds in LIFO order.
#[test]
fn mpcp_nested_gcs_boost_stacks() {
    let mut b = System::builder();
    let p = b.add_processors(3);
    let sa = b.add_resource("SA");
    let sb = b.add_resource("SB");
    // t0 nests SB inside SA. Remote users: t1 uses SA (pri 5), t2 uses SB
    // (pri 9). gcs priorities for t0: SA -> PG+5, SB -> PG+9.
    b.add_task(
        TaskDef::new("t0", p[0]).period(100).priority(1).body(
            Body::builder()
                .critical(sa, |c| {
                    c.compute(1).critical(sb, |c| c.compute(1)).compute(1)
                })
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t1", p[1])
            .period(100)
            .priority(5)
            .offset(50)
            .body(Body::builder().critical(sa, |c| c.compute(1)).build()),
    );
    b.add_task(
        TaskDef::new("t2", p[2])
            .period(100)
            .priority(9)
            .offset(50)
            .body(Body::builder().critical(sb, |c| c.compute(1)).build()),
    );
    let sys = b.build().unwrap();
    let mut sim = Simulator::new(&sys, Mpcp::new());
    sim.run_until(50);
    let tr = sim.trace();
    let changes: Vec<(Priority, Priority)> = tr
        .events_for(jid(0, 0))
        .filter_map(|e| match e.kind {
            EventKind::PriorityChanged { from, to } => Some((from, to)),
            _ => None,
        })
        .collect();
    assert_eq!(
        changes,
        vec![
            (Priority::task(1), Priority::global(5)),   // enter SA
            (Priority::global(5), Priority::global(9)), // enter SB
            (Priority::global(9), Priority::global(5)), // exit SB
            (Priority::global(5), Priority::task(1)),   // exit SA
        ]
    );
}

/// MPCP with a global section nested inside a local section: the gcs
/// boost applies inside, and the local ceiling still protects outside.
#[test]
fn mpcp_global_inside_local() {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let sl = b.add_resource("SL");
    let sg = b.add_resource("SG");
    b.add_task(
        TaskDef::new("t0", p[0]).period(100).priority(2).body(
            Body::builder()
                .critical(sl, |c| c.compute(1).critical(sg, |c| c.compute(2)))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t1", p[0])
            .period(100)
            .priority(3)
            .offset(10)
            .body(Body::builder().critical(sl, |c| c.compute(1)).build()),
    );
    b.add_task(
        TaskDef::new("t2", p[1])
            .period(100)
            .priority(1)
            .body(Body::builder().critical(sg, |c| c.compute(1)).build()),
    );
    let sys = b.build().unwrap();
    let mut sim = Simulator::new(&sys, Mpcp::new());
    sim.run_until(100);
    assert_eq!(sim.misses(), 0);
    assert_eq!(sim.records().len(), 3);
    assert_mutual_exclusion(&sys, sim.trace());
}

/// PIP: a job holding two semaphores inherits from waiters on both and
/// steps down correctly as it releases them.
#[test]
fn pip_multi_semaphore_inheritance_steps_down() {
    let mut b = System::builder();
    let p = b.add_processors(3);
    let s1 = b.add_resource("S1");
    let s2 = b.add_resource("S2");
    // low holds S1 (8 ticks) then releases; its S1 section encloses an
    // S2 section. mid blocks on S2, high blocks on S1.
    b.add_task(
        TaskDef::new("low", p[0]).period(100).priority(1).body(
            Body::builder()
                .critical(s1, |c| {
                    c.compute(2).critical(s2, |c| c.compute(4)).compute(2)
                })
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("mid", p[1])
            .period(100)
            .priority(5)
            .offset(3)
            .body(Body::builder().critical(s2, |c| c.compute(1)).build()),
    );
    b.add_task(
        TaskDef::new("high", p[2])
            .period(100)
            .priority(9)
            .offset(4)
            .body(Body::builder().critical(s1, |c| c.compute(1)).build()),
    );
    let sys = b.build().unwrap();
    let mut sim = Simulator::new(&sys, Pip::new());
    sim.run_until(100);
    let tr = sim.trace();
    // low inherits 5 (mid on S2) then 9 (high on S1); after releasing S2
    // it keeps 9 (high still waits on S1), then drops to base.
    let p_of = |t: Time| {
        tr.events()
            .iter()
            .filter(|e| e.job == jid(0, 0) && e.time <= t)
            .filter_map(|e| match e.kind {
                EventKind::PriorityChanged { to, .. } => Some(to),
                _ => None,
            })
            .next_back()
            .unwrap_or(Priority::task(1))
    };
    assert_eq!(p_of(Time::new(3)), Priority::task(5));
    assert_eq!(p_of(Time::new(4)), Priority::task(9));
    // S2 released at t=6 (inner cs 2..6): still 9 because high waits.
    assert_eq!(p_of(Time::new(7)), Priority::task(9));
    assert_eq!(sim.misses(), 0);
    assert_mutual_exclusion(&sys, tr);
}

/// DPCP: a job that *blocks* on a remote-hosted semaphore still returns
/// to its home processor after its (eventually granted) section ends.
#[test]
fn dpcp_migration_round_trip_after_blocking() {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("SG");
    b.add_task(
        TaskDef::new("hi", p[0])
            .period(100)
            .priority(3)
            .body(Body::builder().critical(s, |c| c.compute(5)).build()),
    );
    b.add_task(
        TaskDef::new("lo", p[1])
            .period(100)
            .priority(1)
            .offset(1)
            .body(
                Body::builder()
                    .critical(s, |c| c.compute(1))
                    .compute(3)
                    .build(),
            ),
    );
    let sys = b.build().unwrap();
    let mut sim = Simulator::new(&sys, Dpcp::new());
    sim.run_until(100);
    let tr = sim.trace();
    let migrations: Vec<_> = tr
        .events_for(jid(1, 0))
        .filter_map(|e| match e.kind {
            EventKind::Migrated { from, to } => Some((from.index(), to.index())),
            _ => None,
        })
        .collect();
    // lo migrates to P0 when it *requests* (t=1, blocks there), and back
    // home when it releases.
    assert_eq!(migrations, vec![(1, 0), (0, 1)]);
    // Its trailing compute runs at home: the last slice belongs to P1.
    let last = tr
        .slices()
        .iter()
        .rfind(|s| s.job == Some(jid(1, 0)))
        .unwrap();
    assert_eq!(last.processor.index(), 1);
    assert_eq!(sim.misses(), 0);
}

/// Non-preemptive sections across processors: remote contention resolves
/// in priority order while each holder is locally unpreemptible.
#[test]
fn nonpreemptive_cross_processor_contention() {
    let mut b = System::builder();
    let p = b.add_processors(3);
    let s = b.add_resource("S");
    for (i, (pri, off)) in [(1u32, 0u64), (3, 1), (2, 1)].iter().enumerate() {
        b.add_task(
            TaskDef::new(format!("t{i}"), p[i])
                .period(100)
                .priority(*pri)
                .offset(*off)
                .body(Body::builder().critical(s, |c| c.compute(4)).build()),
        );
    }
    let sys = b.build().unwrap();
    let mut sim = Simulator::new(&sys, NonPreemptiveCs::new());
    sim.run_until(100);
    // Holder t0 finishes at 4; then t1 (pri 3) 4..8; then t2 8..12.
    assert_eq!(sim.trace().completion_of(jid(0, 0)), Some(Time::new(4)));
    assert_eq!(sim.trace().completion_of(jid(1, 0)), Some(Time::new(8)));
    assert_eq!(sim.trace().completion_of(jid(2, 0)), Some(Time::new(12)));
}

/// Raw semaphores: a three-deep FIFO hand-off chain.
#[test]
fn raw_fifo_chain() {
    let mut b = System::builder();
    let p = b.add_processors(4);
    let s = b.add_resource("S");
    for (i, (pri, off)) in [(1u32, 0u64), (2, 1), (4, 2), (3, 3)].iter().enumerate() {
        b.add_task(
            TaskDef::new(format!("t{i}"), p[i])
                .period(100)
                .priority(*pri)
                .offset(*off)
                .body(Body::builder().critical(s, |c| c.compute(5)).build()),
        );
    }
    let sys = b.build().unwrap();
    let mut sim = Simulator::new(&sys, RawSemaphores::new());
    sim.run_until(100);
    // Service strictly in arrival order regardless of priority.
    let completions: Vec<_> = (0..4)
        .map(|i| sim.trace().completion_of(jid(i, 0)).unwrap())
        .collect();
    assert!(completions[0] < completions[1]);
    assert!(completions[1] < completions[2]);
    assert!(completions[2] < completions[3]);
}

/// All protocols survive a zero-length critical section.
#[test]
fn empty_critical_sections_are_harmless() {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("S");
    b.add_task(
        TaskDef::new("a", p[0])
            .period(10)
            .priority(2)
            .body(Body::builder().critical(s, |c| c).compute(1).build()),
    );
    b.add_task(
        TaskDef::new("b", p[1])
            .period(20)
            .priority(1)
            .body(Body::builder().critical(s, |c| c).build()),
    );
    let sys = b.build().unwrap();
    for kind in ProtocolKind::ALL {
        let mut sim = Simulator::with_config(&sys, kind.build(), SimConfig::until(40));
        sim.run();
        assert!(sim.records().len() >= 5, "{kind}");
        assert_eq!(sim.misses(), 0, "{kind}");
    }
}

/// A task whose whole body is one long gcs still yields the processor to
/// its peers between jobs.
#[test]
fn back_to_back_gcs_jobs() {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("S");
    b.add_task(
        TaskDef::new("a", p[0])
            .period(4)
            .priority(2)
            .body(Body::builder().critical(s, |c| c.compute(2)).build()),
    );
    b.add_task(
        TaskDef::new("b", p[0])
            .period(8)
            .priority(1)
            .body(Body::builder().compute(2).build()),
    );
    b.add_task(
        TaskDef::new("rem", p[1])
            .period(16)
            .priority(3)
            .body(Body::builder().critical(s, |c| c.compute(1)).build()),
    );
    let sys = b.build().unwrap();
    let mut sim = Simulator::new(&sys, Mpcp::new());
    sim.run_until(32);
    let m = sim.metrics();
    assert_eq!(m.total_misses(), 0);
    assert_eq!(m.task(TaskId::from_index(1)).completed, 4);
    assert!(m.task(TaskId::from_index(1)).max_response <= Dur::new(6));
}
