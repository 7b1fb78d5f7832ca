//! E9/E10 — consistency of the schedulability machinery: Theorem 3,
//! response-time analysis, breakdown utilization and the MPCP/DPCP
//! comparison.

use mpcp::analysis::{
    breakdown_scale, dpcp_bounds, liu_layland_bound, mpcp_bounds, response_times, rta_schedulable,
    scale_system, theorem3,
};
use mpcp::model::Dur;
use mpcp::taskgen::{generate, WorkloadConfig};
use mpcp_bench::experiments::sched_fraction;
use mpcp_prop::cases;

#[test]
fn liu_layland_bound_is_monotone_to_ln2() {
    let mut prev = f64::INFINITY;
    for n in 1..200 {
        let b = liu_layland_bound(n);
        assert!(b <= prev + 1e-12, "bound must decrease");
        assert!(b > std::f64::consts::LN_2 - 1e-4, "bound stays above ln 2");
        prev = b;
    }
    assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
}

/// RTA accepts everything Theorem 3 accepts (it is exact for
/// synchronous fixed-priority uniprocessors, Theorem 3 is
/// sufficient-only).
#[test]
fn rta_dominates_theorem3() {
    cases(32, 0xE9_01, |rng| {
        let seed = rng.range_u64(0, 9_999);
        let util = rng.range_f64(0.2, 0.8);
        let cfg = WorkloadConfig::default()
            .utilization(util)
            .resources(1, 2)
            .sections(0, 2);
        let sys = generate(&cfg, seed);
        let Ok(bounds) = mpcp_bounds(&sys) else {
            return;
        };
        let blocking: Vec<Dur> = bounds
            .iter()
            .map(mpcp::analysis::BlockingBreakdown::total)
            .collect();
        if theorem3(&sys, &blocking).schedulable() {
            assert!(rta_schedulable(&sys, &blocking), "seed {seed}");
        }
    });
}

/// Scaling computation up can only hurt schedulability.
#[test]
fn schedulability_is_antitone_in_scale() {
    cases(32, 0xE9_02, |rng| {
        let seed = rng.range_u64(0, 9_999);
        let cfg = WorkloadConfig::default()
            .utilization(0.4)
            .resources(1, 2)
            .sections(0, 2);
        let sys = generate(&cfg, seed);
        let check = |s: &mpcp::model::System| -> bool {
            mpcp_bounds(s).is_ok_and(|b| {
                let blocking: Vec<Dur> = b
                    .iter()
                    .map(mpcp::analysis::BlockingBreakdown::total)
                    .collect();
                rta_schedulable(s, &blocking)
            })
        };
        let bigger = scale_system(&sys, 3, 2);
        if !check(&sys) {
            assert!(
                !check(&bigger),
                "seed {seed}: scaling up cannot make an unschedulable system schedulable"
            );
        }
    });
}

/// The breakdown scale is consistent: the system scaled to the found
/// factor is schedulable.
#[test]
fn breakdown_scale_point_is_schedulable() {
    cases(16, 0xE9_03, |rng| {
        let seed = rng.range_u64(0, 999);
        let cfg = WorkloadConfig::default()
            .utilization(0.2)
            .resources(1, 1)
            .sections(0, 1);
        let sys = generate(&cfg, seed);
        let check = |s: &mpcp::model::System| -> bool {
            mpcp_bounds(s).is_ok_and(|b| {
                let blocking: Vec<Dur> = b
                    .iter()
                    .map(mpcp::analysis::BlockingBreakdown::total)
                    .collect();
                rta_schedulable(s, &blocking)
            })
        };
        let f = breakdown_scale(&sys, 10.0, check);
        if f >= 0.002 {
            let at = scale_system(&sys, (f * 1000.0) as u64, 1000);
            assert!(check(&at), "seed {seed}: f={f}");
        }
    });
}

/// The schedulable fraction decreases with utilization, and the ideal
/// (no-blocking) curve dominates both protocol curves.
#[test]
fn schedulability_curves_have_the_paper_shape() {
    let lo = sched_fraction(0.2, 30);
    let hi = sched_fraction(0.7, 30);
    // Ideal dominates MPCP and DPCP at every point.
    assert!(lo.0 >= lo.1 && lo.0 >= lo.2, "{lo:?}");
    assert!(hi.0 >= hi.1 && hi.0 >= hi.2, "{hi:?}");
    // Higher utilization cannot increase the schedulable fraction.
    assert!(lo.0 >= hi.0, "ideal: {} -> {}", lo.0, hi.0);
    assert!(lo.1 >= hi.1, "mpcp: {} -> {}", lo.1, hi.1);
    // At low utilization with light sharing, most systems pass.
    assert!(lo.1 > 0.5, "mpcp at U=0.2 should mostly pass, got {}", lo.1);
}

/// MPCP and DPCP bounds agree on the sharing-free parts (factors 1–3)
/// and both collapse to zero without global resources.
#[test]
fn mpcp_dpcp_agree_where_the_paper_says() {
    for seed in 0..20u64 {
        let cfg = WorkloadConfig::default().resources(2, 0).sections(0, 2);
        let sys = generate(&cfg, seed);
        let m = mpcp_bounds(&sys).expect("valid");
        let d = dpcp_bounds(&sys).expect("valid");
        for (mb, db) in m.iter().zip(&d) {
            // No globals: only factor 1 (local) can be non-zero and the
            // protocols coincide entirely.
            assert_eq!(mb.local_cs, db.local_cs);
            assert_eq!(mb.blocking(), mb.local_cs);
            assert_eq!(db.blocking(), db.local_cs);
        }
    }
}

/// Response times are monotone in the blocking vector.
#[test]
fn response_times_monotone_in_blocking() {
    let cfg = WorkloadConfig::default().utilization(0.3).sections(0, 0);
    let sys = generate(&cfg, 5);
    let zero = vec![Dur::ZERO; sys.tasks().len()];
    let some = vec![Dur::new(3); sys.tasks().len()];
    let r0 = response_times(&sys, &zero);
    let r1 = response_times(&sys, &some);
    for (a, b) in r0.iter().zip(&r1) {
        match (a, b) {
            (Some(a), Some(b)) => assert!(b >= a),
            (None, Some(_)) => panic!("blocking cannot fix divergence"),
            _ => {}
        }
    }
}

/// The jitter-based treatment of the deferred-execution penalty
/// (`response_times_suspension_aware` over factors-only blocking) accepts
/// at least as many systems as the crude one-extra-C_h charge
/// (deterministic seed set; measured 93 vs 91 of 100).
#[test]
fn jitter_rta_is_no_worse_than_crude_deferred_penalty() {
    use mpcp::analysis::{mpcp_bounds, response_times_suspension_aware};
    let mut crude = 0u32;
    let mut jitter = 0u32;
    for seed in 0..100u64 {
        let cfg = WorkloadConfig::default()
            .processors(2)
            .tasks_per_processor(4)
            .utilization(0.55)
            .resources(1, 2)
            .sections(0, 2)
            .section_len(0.02, 0.1);
        let sys = generate(&cfg, 70_000 + seed);
        let Ok(b) = mpcp_bounds(&sys) else { continue };
        let total: Vec<Dur> = b
            .iter()
            .map(mpcp::analysis::BlockingBreakdown::total)
            .collect();
        let factors: Vec<Dur> = b
            .iter()
            .map(mpcp::analysis::BlockingBreakdown::blocking)
            .collect();
        if rta_schedulable(&sys, &total) {
            crude += 1;
        }
        if response_times_suspension_aware(&sys, &factors)
            .iter()
            .all(Option::is_some)
        {
            jitter += 1;
        }
    }
    assert!(
        jitter >= crude,
        "jitter treatment ({jitter}) should not lose to the crude penalty ({crude})"
    );
    assert!(crude > 50, "the comparison needs a meaningful base rate");
}
