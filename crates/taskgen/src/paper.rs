//! Reconstructions of the paper's worked examples and figures.
//!
//! The scanned source is OCR-garbled where it lists the job bodies of
//! Examples 3/4, so the systems here are *reconstructions*: they have the
//! paper's stated structure (processor/task/semaphore topology) and are
//! tuned so the simulated schedule exhibits every protocol phenomenon the
//! Figure 5-1 narrative describes, at small integer times. See
//! EXPERIMENTS.md for the mapping.

use mpcp_model::{Body, ProcessorId, ResourceId, System, TaskDef, TaskId};

/// Handles into the Example 1 system (Figure 3-1).
#[derive(Debug, Clone, Copy)]
pub struct Example1 {
    /// The shared (global) semaphore `S`.
    pub s: ResourceId,
    /// `tau1` — the high-priority task on P1 that suffers remote blocking.
    pub tau1: TaskId,
    /// `tau2` — the medium-priority, resource-free task on P2.
    pub tau2: TaskId,
    /// `tau3` — the low-priority lock holder on P2.
    pub tau3: TaskId,
}

/// Example 1 (Figure 3-1): `tau1` on P1 shares `S` with `tau3` on P2;
/// the medium task `tau2` (execution time `c2`) preempts the lock holder.
/// Without inheritance, `tau1`'s blocking grows with `c2`.
pub fn example1(c2: u64) -> (System, Example1) {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("S");
    let tau1 = b.add_task(
        TaskDef::new("tau1", p[0])
            .period(1_000)
            .priority(3)
            .offset(1)
            .body(Body::builder().critical(s, |c| c.compute(2)).build()),
    );
    let tau2 = b.add_task(
        TaskDef::new("tau2", p[1])
            .period(1_000)
            .priority(2)
            .offset(1)
            .body(Body::builder().compute(c2).build()),
    );
    let tau3 = b.add_task(
        TaskDef::new("tau3", p[1]).period(1_000).priority(1).body(
            Body::builder()
                .critical(s, |c| c.compute(4))
                .compute(1)
                .build(),
        ),
    );
    let system = b.build().expect("example 1 is valid");
    (
        system,
        Example1 {
            s,
            tau1,
            tau2,
            tau3,
        },
    )
}

/// Handles into the Example 2 system (Figure 3-2).
#[derive(Debug, Clone, Copy)]
pub struct Example2 {
    /// The shared (global) semaphore `S`.
    pub s: ResourceId,
    /// `tau1` — the high-priority task on P1 whose plain code preempts the
    /// critical section.
    pub tau1: TaskId,
    /// `tau2` — the lock holder on P1.
    pub tau2: TaskId,
    /// `tau3` — the remote task on P2 blocked on `S`.
    pub tau3: TaskId,
}

/// Example 2 (Figure 3-2): `tau1` and `tau2` on P1, `tau3` on P2 sharing
/// `S` with `tau2`. Even priority inheritance cannot keep `tau1`
/// (execution time `c1`) from preempting `tau2`'s critical section, so
/// `tau3`'s remote blocking grows with `c1` — unless the section is
/// boosted above every task priority (Theorem 2 / MPCP).
pub fn example2(c1: u64) -> (System, Example2) {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("S");
    let tau1 = b.add_task(
        TaskDef::new("tau1", p[0])
            .period(1_000)
            .priority(3)
            .offset(2)
            .body(Body::builder().compute(c1).build()),
    );
    let tau2 = b.add_task(
        TaskDef::new("tau2", p[0])
            .period(1_000)
            .priority(2)
            .body(Body::builder().critical(s, |c| c.compute(5)).build()),
    );
    let tau3 = b.add_task(
        TaskDef::new("tau3", p[1])
            .period(1_000)
            .priority(1)
            .offset(1)
            .body(Body::builder().critical(s, |c| c.compute(1)).build()),
    );
    let system = b.build().expect("example 2 is valid");
    (
        system,
        Example2 {
            s,
            tau1,
            tau2,
            tau3,
        },
    )
}

/// Handles into the Example 3/4 system.
#[derive(Debug, Clone, Copy)]
pub struct Example3 {
    /// Local semaphore on P1 (used by `tau1`, `tau2`).
    pub s1: ResourceId,
    /// Local semaphore on P3 (used by `tau5`, `tau6`).
    pub s2: ResourceId,
    /// Local semaphore on P3 (used by `tau5`, `tau7`).
    pub s3: ResourceId,
    /// Global semaphore (used by `tau2`, `tau3`, `tau4`, `tau5`).
    pub sg0: ResourceId,
    /// Global semaphore (used by `tau4`, `tau6`).
    pub sg1: ResourceId,
    /// The seven tasks, `tau[0]` = `tau1` (highest priority).
    pub tau: [TaskId; 7],
    /// The three processors.
    pub procs: [ProcessorId; 3],
}

/// The Example 3 configuration (Figure 4-2) as reconstructed for
/// Tables 4-1/4-2 and the Example 4 schedule (Figure 5-1):
///
/// * P1: `tau1`, `tau2`; local semaphore S1.
/// * P2: `tau3`, `tau4`; no local semaphores.
/// * P3: `tau5`, `tau6`, `tau7`; local semaphores S2, S3.
/// * Globals SG0 (`tau2`,`tau3`,`tau4`,`tau5`) and SG1 (`tau4`,`tau6`).
///
/// Simulating the first jobs under MPCP reproduces, at integer times,
/// each beat of the Figure 5-1 narrative: a gcs refusing preemption by an
/// arriving higher-priority task, priority-ordered queueing and hand-off
/// on SG0, a gcs preempting a lower-priority gcs, local PCP blocking with
/// inheritance on S2, and lower-priority execution during a suspension.
pub fn example3() -> (System, Example3) {
    let mut b = System::builder();
    let procs = b.add_processors(3);
    let s1 = b.add_resource("S1");
    let s2 = b.add_resource("S2");
    let s3 = b.add_resource("S3");
    let sg0 = b.add_resource("SG0");
    let sg1 = b.add_resource("SG1");

    let tau1 = b.add_task(
        TaskDef::new("tau1", procs[0])
            .period(50)
            .priority(7)
            .offset(2)
            .body(
                Body::builder()
                    .compute(1)
                    .critical(s1, |c| c.compute(1))
                    .compute(1)
                    .build(),
            ),
    );
    let tau2 = b.add_task(
        TaskDef::new("tau2", procs[0]).period(60).priority(6).body(
            Body::builder()
                .critical(s1, |c| c.compute(1))
                .critical(sg0, |c| c.compute(3))
                .compute(1)
                .critical(s1, |c| c.compute(1))
                .build(),
        ),
    );
    let tau3 = b.add_task(
        TaskDef::new("tau3", procs[1])
            .period(70)
            .priority(5)
            .offset(1)
            .body(
                Body::builder()
                    .compute(1)
                    .critical(sg0, |c| c.compute(2))
                    .compute(1)
                    .build(),
            ),
    );
    let tau4 = b.add_task(
        TaskDef::new("tau4", procs[1]).period(80).priority(4).body(
            Body::builder()
                .compute(2)
                .critical(sg0, |c| c.compute(1))
                .compute(1)
                .critical(sg1, |c| c.compute(1))
                .compute(1)
                .build(),
        ),
    );
    let tau5 = b.add_task(
        TaskDef::new("tau5", procs[2]).period(90).priority(3).body(
            Body::builder()
                .compute(1)
                .critical(sg0, |c| c.compute(1))
                .compute(1)
                .critical(s2, |c| c.compute(1))
                .critical(s3, |c| c.compute(1))
                .build(),
        ),
    );
    let tau6 = b.add_task(
        TaskDef::new("tau6", procs[2])
            .period(95)
            .priority(2)
            .offset(2)
            .body(
                Body::builder()
                    .critical(sg1, |c| c.compute(6))
                    .critical(s2, |c| c.compute(2))
                    .compute(1)
                    .build(),
            ),
    );
    let tau7 = b.add_task(
        TaskDef::new("tau7", procs[2]).period(99).priority(1).body(
            Body::builder()
                .critical(s3, |c| c.compute(3))
                .compute(1)
                .build(),
        ),
    );
    let system = b.build().expect("example 3 is valid");
    (
        system,
        Example3 {
            s1,
            s2,
            s3,
            sg0,
            sg1,
            tau: [tau1, tau2, tau3, tau4, tau5, tau6, tau7],
            procs: [procs[0], procs[1], procs[2]],
        },
    )
}

/// The §3.2 Dhall-effect system: `m` light tasks (C=1, T=10) and one
/// heavy task (C=11, T=12) on `m` processors. Under dynamic binding the
/// heavy task misses; under static binding (heavy task alone on one
/// processor, light tasks spread over the rest) everything fits.
///
/// `dedicated` selects the static variant.
pub fn dhall_system(m: usize, dedicated: bool) -> System {
    assert!(m >= 2, "the Dhall example needs at least two processors");
    let mut b = System::builder();
    let procs = b.add_processors(m);
    for i in 0..m {
        // Under static binding, spread the light tasks over procs
        // 0..m-1 so the heavy task gets a processor to itself; under
        // dynamic binding the engine ignores the placement anyway.
        // Priorities are rate-monotonic (T=10 < T=12) with unique levels.
        let proc = if dedicated {
            procs[i % (m - 1)]
        } else {
            procs[i % m]
        };
        b.add_task(
            TaskDef::new(format!("light{i}"), proc)
                .period(10)
                .priority(10 + i as u32)
                .body(Body::builder().compute(1).build()),
        );
    }
    let heavy_proc = if dedicated { procs[m - 1] } else { procs[0] };
    b.add_task(
        TaskDef::new("heavy", heavy_proc)
            .period(12)
            .priority(1)
            .body(Body::builder().compute(11).build()),
    );
    b.build().expect("dhall system is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_core::{CeilingTable, GcsPriorities};
    use mpcp_model::{Priority, Scope};

    #[test]
    fn example3_scopes_match_figure_4_2() {
        let (sys, ex) = example3();
        let info = sys.info();
        assert_eq!(info.scope(ex.s1), Scope::Local(ex.procs[0]));
        assert_eq!(info.scope(ex.s2), Scope::Local(ex.procs[2]));
        assert_eq!(info.scope(ex.s3), Scope::Local(ex.procs[2]));
        assert_eq!(info.scope(ex.sg0), Scope::Global);
        assert_eq!(info.scope(ex.sg1), Scope::Global);
        // P2 has no local semaphores, as in the figure.
        assert!(info.local_resources_on(ex.procs[1]).is_empty());
    }

    #[test]
    fn example3_ceilings_match_table_4_1_shape() {
        let (sys, ex) = example3();
        let t = CeilingTable::compute(&sys);
        assert_eq!(t.ceiling(ex.s1), Priority::task(7));
        assert_eq!(t.ceiling(ex.s2), Priority::task(3));
        assert_eq!(t.ceiling(ex.s3), Priority::task(3));
        assert_eq!(t.ceiling(ex.sg0), Priority::global(6));
        assert_eq!(t.ceiling(ex.sg1), Priority::global(4));
    }

    #[test]
    fn example3_gcs_priorities_match_table_4_2_shape() {
        let (sys, ex) = example3();
        let g = GcsPriorities::compute(&sys);
        // SG0: tau2's remote users are tau3(5), tau4(4), tau5(3).
        assert_eq!(g.of(ex.tau[1], ex.sg0), Some(Priority::global(5)));
        // tau3/tau4/tau5 see tau2 (6) remotely.
        assert_eq!(g.of(ex.tau[2], ex.sg0), Some(Priority::global(6)));
        assert_eq!(g.of(ex.tau[3], ex.sg0), Some(Priority::global(6)));
        assert_eq!(g.of(ex.tau[4], ex.sg0), Some(Priority::global(6)));
        // SG1: tau4 sees tau6 (2); tau6 sees tau4 (4).
        assert_eq!(g.of(ex.tau[3], ex.sg1), Some(Priority::global(2)));
        assert_eq!(g.of(ex.tau[5], ex.sg1), Some(Priority::global(4)));
    }

    #[test]
    fn example_systems_build() {
        let (s1, _) = example1(10);
        assert_eq!(s1.tasks().len(), 3);
        let (s2, _) = example2(10);
        assert_eq!(s2.tasks().len(), 3);
        let d = dhall_system(4, false);
        assert_eq!(d.tasks().len(), 5);
        let ds = dhall_system(4, true);
        // Heavy task alone on the last processor.
        let heavy = ds.tasks().last().unwrap();
        assert_eq!(ds.tasks_on(heavy.processor()).len(), 1);
    }
}
