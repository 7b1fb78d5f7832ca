//! E8 — cross-validation of the §5.1 blocking analysis against the
//! simulator: on randomly generated systems satisfying the protocol's
//! assumptions, the measured blocking of every job must stay within the
//! analytical bound (sound carry-in variant).

use mpcp::analysis::{mpcp_bounds_with, theorem3, BlockingConfig};
use mpcp::model::Dur;
use mpcp::protocols::ProtocolKind;
use mpcp::sim::{SimConfig, Simulator};
use mpcp::taskgen::{generate, WorkloadConfig};
use mpcp_bench::experiments::validate_bounds_once;
use mpcp_prop::cases;

#[test]
fn simulated_blocking_within_bounds_fixed_seeds() {
    for seed in 0..40u64 {
        for (task, measured, bound) in validate_bounds_once(seed) {
            assert!(
                measured <= bound,
                "seed {seed}, {task}: measured {measured} exceeds bound {bound}"
            );
        }
    }
}

/// The property over a wider parameter space: random seeds, sharing
/// intensity and section lengths.
#[test]
fn simulated_blocking_within_bounds() {
    cases(24, 0xE8_01, |rng| {
        let seed = rng.range_u64(0, 9_999);
        let globals = rng.range_usize(1, 3);
        let frac = rng.range_f64(0.2, 1.0);
        let len = rng.range_f64(0.02, 0.12);
        let cfg = WorkloadConfig::default()
            .processors(2)
            .tasks_per_processor(3)
            .utilization(0.3)
            .resources(1, globals)
            .sections(0, 2)
            .global_access(frac)
            .section_len(len, len + 0.05);
        let sys = generate(&cfg, seed);
        let bounds = mpcp_bounds_with(&sys, BlockingConfig::sound()).expect("valid system");
        let mut sim = Simulator::with_config(
            &sys,
            ProtocolKind::Mpcp.build(),
            SimConfig {
                record_trace: false,
                ..SimConfig::until(sys.hyperperiod().ticks().min(150_000))
            },
        );
        sim.run();
        let metrics = sim.metrics();
        for t in sys.tasks() {
            let measured = metrics.task(t.id()).max_blocking;
            let bound = bounds[t.id().index()].total();
            assert!(
                measured <= bound,
                "seed {seed}, {}: measured {measured} > bound {bound}",
                t.id()
            );
        }
    });
}

/// The paper-literal bound is never larger than the sound variant.
#[test]
fn paper_bounds_below_sound_bounds() {
    cases(24, 0xE8_02, |rng| {
        let seed = rng.range_u64(0, 9_999);
        let cfg = WorkloadConfig::default().resources(1, 2).sections(0, 3);
        let sys = generate(&cfg, seed);
        let paper = mpcp_bounds_with(&sys, BlockingConfig::paper()).expect("valid");
        let sound = mpcp_bounds_with(&sys, BlockingConfig::sound()).expect("valid");
        for (p, s) in paper.iter().zip(&sound) {
            assert!(p.blocking() <= s.blocking(), "seed {seed}");
            assert!(p.total() <= s.total(), "seed {seed}");
        }
    });
}

/// Removing all resource sharing zeroes every blocking factor.
#[test]
fn no_sharing_no_blocking() {
    cases(24, 0xE8_03, |rng| {
        let seed = rng.range_u64(0, 9_999);
        let cfg = WorkloadConfig::default().sections(0, 0);
        let sys = generate(&cfg, seed);
        for b in mpcp_bounds_with(&sys, BlockingConfig::sound()).expect("valid") {
            assert_eq!(b.total(), Dur::ZERO, "seed {seed}");
        }
    });
}

/// Theorem 3 with sound bounds is safe in practice: accepted systems do
/// not miss deadlines in simulation.
#[test]
fn theorem3_accepted_systems_do_not_miss() {
    let mut accepted = 0u32;
    for seed in 0..60u64 {
        let cfg = WorkloadConfig::default()
            .processors(2)
            .tasks_per_processor(3)
            .utilization(0.4)
            .resources(1, 2)
            .sections(0, 2)
            .section_len(0.02, 0.08);
        let sys = generate(&cfg, 40_000 + seed);
        let Ok(bounds) = mpcp_bounds_with(&sys, BlockingConfig::sound()) else {
            continue;
        };
        let blocking: Vec<Dur> = bounds
            .iter()
            .map(mpcp::analysis::BlockingBreakdown::total)
            .collect();
        if !theorem3(&sys, &blocking).schedulable() {
            continue;
        }
        accepted += 1;
        let mut sim = Simulator::with_config(
            &sys,
            ProtocolKind::Mpcp.build(),
            SimConfig {
                record_trace: false,
                ..SimConfig::until(sys.hyperperiod().ticks().min(150_000))
            },
        );
        sim.run();
        assert_eq!(
            sim.misses(),
            0,
            "seed {seed}: Theorem 3 accepted but the simulation missed"
        );
    }
    assert!(
        accepted >= 10,
        "too few accepted systems ({accepted}) for the check to be meaningful"
    );
}

/// The DPCP analysis is validated the same way: on random systems, no
/// job's measured blocking under the DPCP protocol exceeds the DPCP
/// bound (sound variant, default hosts).
#[test]
fn dpcp_simulated_blocking_within_bounds() {
    use mpcp::analysis::{default_hosts, dpcp_bounds_with};
    for seed in 0..40u64 {
        let cfg = WorkloadConfig::default()
            .processors(2)
            .tasks_per_processor(3)
            .utilization(0.35)
            .resources(1, 2)
            .sections(0, 2)
            .section_len(0.05, 0.15);
        let sys = generate(&cfg, seed);
        let bounds = dpcp_bounds_with(&sys, &default_hosts(&sys), BlockingConfig::sound()).unwrap();
        let mut sim = Simulator::with_config(
            &sys,
            ProtocolKind::Dpcp.build(),
            SimConfig {
                record_trace: false,
                ..SimConfig::until(sys.hyperperiod().ticks().min(200_000))
            },
        );
        sim.run();
        let m = sim.metrics();
        for t in sys.tasks() {
            let measured = m.task(t.id()).max_blocking;
            let bound = bounds[t.id().index()].total();
            assert!(
                measured <= bound,
                "seed {seed}, {}: measured {measured} > bound {bound}",
                t.id()
            );
        }
    }
}

/// The trap in walking "the sharers of my semaphores" instead of every
/// task: `hi` shares *two* semaphores with `mid`, so a walk per semaphore
/// meets it twice. Factor 3 must still charge its sections once —
/// `(4 + 5) x 2 instances = 18`, not 36 — and the blocking-processor set
/// of factor 4 must still hold P1 once.
///
/// P0: mid (pri 2, T 100): SA 2, SB 3.
/// P1: hi (pri 3, T 50): SA 4, SB 5; lo (pri 1, T 200): SA 6, SB 7;
///     by (pri 4, T 100): SC 8.
/// P2: top (pri 5, T 40): SC 1.
#[test]
fn a_task_sharing_two_semaphores_is_counted_once() {
    use mpcp::model::{Body, System, TaskDef};
    let mut b = System::builder();
    let p = b.add_processors(3);
    let (sa, sb, sc) = (
        b.add_resource("SA"),
        b.add_resource("SB"),
        b.add_resource("SC"),
    );
    let two = |a: u64, c: u64| {
        Body::builder()
            .critical(sa, |s| s.compute(a))
            .critical(sb, |s| s.compute(c))
            .build()
    };
    b.add_task(
        TaskDef::new("mid", p[0])
            .period(100)
            .priority(2)
            .body(two(2, 3)),
    );
    b.add_task(
        TaskDef::new("hi", p[1])
            .period(50)
            .priority(3)
            .body(two(4, 5)),
    );
    b.add_task(
        TaskDef::new("lo", p[1])
            .period(200)
            .priority(1)
            .body(two(6, 7)),
    );
    b.add_task(
        TaskDef::new("by", p[1])
            .period(100)
            .priority(4)
            .body(Body::builder().critical(sc, |s| s.compute(8)).build()),
    );
    b.add_task(
        TaskDef::new("top", p[2])
            .period(40)
            .priority(5)
            .body(Body::builder().critical(sc, |s| s.compute(1)).build()),
    );
    let sys = b.build().unwrap();
    let bounds = mpcp_bounds_with(&sys, BlockingConfig::paper()).unwrap();

    let mid = bounds[0];
    assert_eq!(mid.local_cs, Dur::ZERO);
    // Per request, lo's longer section on the same semaphore: 6 + 7.
    assert_eq!(mid.lower_gcs_same_sem, Dur::new(13));
    assert_eq!(mid.higher_remote_gcs, Dur::new(18));
    // lo blocks from P1 at P_G + 2; only by's section (P_G + 5) runs
    // above that there: 8 x 1 instance.
    assert_eq!(mid.blocking_processor_gcs, Dur::new(8));
    assert_eq!(mid.lower_local_gcs, Dur::ZERO);
    assert_eq!(mid.deferred_penalty, Dur::ZERO);

    let hi = bounds[1];
    assert_eq!(hi.lower_gcs_same_sem, Dur::new(13));
    assert_eq!(hi.higher_remote_gcs, Dur::ZERO);
    assert_eq!(hi.blocking_processor_gcs, Dur::ZERO);
    // lo's longest gcs (7) x min(NC_hi + 1, 2 x NC_lo) = 7 x 3.
    assert_eq!(hi.lower_local_gcs, Dur::new(21));
    assert_eq!(hi.deferred_penalty, Dur::new(8));
}
