//! Small-scope model checking acceptance: every release-offset variant
//! is judged by the sweep oracle's arm for its protocol, the exhaustive
//! exploration passes for every protocol on several small systems, and
//! it detects seeded protocol mutations — FIFO hand-off where MPCP's
//! priority-queued hand-off is required, no boost (and so a broken
//! blocking bound) where MSRP's non-preemptable sections are, and an
//! online policy where DGA's offline schedule is.

use mpcp::model::{Body, System, TaskDef};
use mpcp::protocols::ProtocolKind;
use mpcp::sweep::checker::{explore, explore_all, explore_with, report};
use mpcp::sweep::{CheckerConfig, Exploration};

fn small_config() -> CheckerConfig {
    CheckerConfig {
        horizon: 0,
        max_offset: 2,
        offset_step: 1,
        max_variants: 4096,
    }
}

/// The violation codes of an exploration, one per violation.
fn codes(ex: &Exploration) -> Vec<String> {
    ex.violations.iter().map(|v| v.kind.code()).collect()
}

/// How many variants of `ex` flagged `code` at least once.
fn variants_flagging(ex: &Exploration, code: &str) -> usize {
    let mut offsets: Vec<&Vec<u64>> = ex
        .violations
        .iter()
        .filter(|v| v.kind.code() == code)
        .map(|v| &v.offsets)
        .collect();
    offsets.dedup();
    offsets.len()
}

/// Three tasks on two processors sharing one global semaphore.
fn sys_shared_global() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("SG");
    b.add_task(
        TaskDef::new("t0", p[0]).period(12).priority(3).body(
            Body::builder()
                .compute(1)
                .critical(s, |c| c.compute(2))
                .compute(1)
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t1", p[1]).period(16).priority(2).body(
            Body::builder()
                .compute(2)
                .critical(s, |c| c.compute(3))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t2", p[1])
            .period(24)
            .priority(1)
            .body(Body::builder().critical(s, |c| c.compute(2)).build()),
    );
    b.build().unwrap()
}

/// A global semaphore plus a local one on P0 (exercises the PCP path).
fn sys_mixed_scopes() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let sg = b.add_resource("SG");
    let sl = b.add_resource("SL");
    b.add_task(
        TaskDef::new("t0", p[0]).period(10).priority(3).body(
            Body::builder()
                .compute(1)
                .critical(sl, |c| c.compute(1))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t1", p[0]).period(20).priority(2).body(
            Body::builder()
                .critical(sl, |c| c.compute(2))
                .critical(sg, |c| c.compute(2))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t2", p[1])
            .period(15)
            .priority(1)
            .body(Body::builder().critical(sg, |c| c.compute(3)).build()),
    );
    b.build().unwrap()
}

/// Three processors contending on one semaphore from different rates.
fn sys_three_procs() -> System {
    let mut b = System::builder();
    let p = b.add_processors(3);
    let s = b.add_resource("SG");
    b.add_task(
        TaskDef::new("t0", p[0])
            .period(8)
            .priority(3)
            .body(Body::builder().critical(s, |c| c.compute(2)).build()),
    );
    b.add_task(
        TaskDef::new("t1", p[1]).period(12).priority(2).body(
            Body::builder()
                .compute(1)
                .critical(s, |c| c.compute(3))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t2", p[2]).period(16).priority(1).body(
            Body::builder()
                .critical(s, |c| c.compute(4))
                .compute(1)
                .build(),
        ),
    );
    b.build().unwrap()
}

/// Three processors, one semaphore: a long holder, then a low- and a
/// high-priority waiter that queue behind it in that order.
fn sys_holder_low_high() -> System {
    let mut b = System::builder();
    let p = b.add_processors(3);
    let s = b.add_resource("SG");
    b.add_task(
        TaskDef::new("holder", p[0])
            .period(30)
            .priority(1)
            .body(Body::builder().critical(s, |c| c.compute(10)).build()),
    );
    b.add_task(
        TaskDef::new("low", p[1]).period(30).priority(2).body(
            Body::builder()
                .compute(1)
                .critical(s, |c| c.compute(2))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("high", p[2]).period(30).priority(3).body(
            Body::builder()
                .compute(2)
                .critical(s, |c| c.compute(2))
                .build(),
        ),
    );
    b.build().unwrap()
}

#[test]
fn all_protocols_pass_on_small_systems() {
    let config = small_config();
    for (name, sys) in [
        ("shared-global", sys_shared_global()),
        ("mixed-scopes", sys_mixed_scopes()),
        ("three-procs", sys_three_procs()),
        ("holder-low-high", sys_holder_low_high()),
    ] {
        let explorations = explore_all(&sys, &config);
        assert_eq!(explorations.len(), ProtocolKind::ALL.len());
        for ex in &explorations {
            // 3 tasks x offsets {0,1,2} = 27 variants, fully explored.
            assert_eq!(ex.variants, 27, "{name}/{}", ex.protocol);
            assert!(!ex.truncated, "{name}/{}", ex.protocol);
            assert!(ex.passed(), "{name}/{}: {:?}", ex.protocol, codes(ex));
        }
        assert!(!report(&explorations).has_errors());
    }
}

/// Raw FIFO semaphores satisfy their own (minimal) contract...
#[test]
fn raw_passes_under_its_own_profile() {
    let ex = explore(&sys_three_procs(), ProtocolKind::Raw, &small_config());
    assert!(ex.passed(), "{:?}", codes(&ex));
}

/// ...but swapping them in where the MPCP's priority-queued hand-off is
/// required is caught by the checker: with two waiters queued behind a
/// long holder, FIFO hands the semaphore to the lower-priority waiter.
#[test]
fn fifo_handoff_mutation_is_detected() {
    let sys = sys_holder_low_high();
    let mutated = explore_with(&sys, &small_config(), ProtocolKind::Mpcp, || {
        ProtocolKind::Raw.build()
    });
    assert!(
        codes(&mutated).contains(&"mpcp/invariant:priority_ordered_handoffs".to_owned()),
        "wrong invariant flagged: {:?}",
        codes(&mutated)
    );

    // The genuine MPCP on the same system is clean.
    let genuine = explore(&sys, ProtocolKind::Mpcp, &small_config());
    assert!(genuine.passed(), "{:?}", codes(&genuine));

    // And the violations surface as error diagnostics.
    let r = report(&[mutated]);
    assert!(r.has_errors());
    assert!(r
        .render_human()
        .contains("mpcp: mpcp/invariant:priority_ordered_handoffs violated (offsets ["));
}

/// The model checker demands what the sweep's oracle demands: raw
/// semaphores never boost a holder, so judged as MSRP they break
/// boost-while-holding — while genuine MSRP and FMLP+, both promising
/// it, stay clean on every small-scope system of this file
/// (`all_protocols_pass_on_small_systems`) — and they are held to
/// MSRP's blocking bound as well: `t2` waits 4–5 ticks against a
/// spin + arrival bound of 2 in 11 of the 27 variants.
#[test]
fn unboosted_holder_mutation_is_detected() {
    let mutated = explore_with(
        &sys_shared_global(),
        &small_config(),
        ProtocolKind::Msrp,
        || ProtocolKind::Raw.build(),
    );
    assert!(
        codes(&mutated).contains(&"msrp/invariant:boost_while_holding".to_owned()),
        "wrong invariant flagged: {:?}",
        codes(&mutated)
    );
    assert_eq!(variants_flagging(&mutated, "msrp/blocking-bound"), 11);
    assert!(report(&[mutated])
        .render_human()
        .contains("msrp: msrp/blocking-bound violated (offsets ["));

    // So `all_protocols_pass_on_small_systems` is not vacuous for them.
    assert!(ProtocolKind::Msrp.monitor_spec().boost_while_holding);
    assert!(ProtocolKind::Fmlp.monitor_spec().boost_while_holding);
    assert!(ProtocolKind::Msrp.monitor_spec().spin_occupancy);
}

/// Judged as DGA, a run must follow the offline schedule built for its
/// variant grant for grant: MPCP's online priority-queued hand-offs
/// depart from it in 22 of the 27 variants.
#[test]
fn an_online_policy_breaks_the_dga_schedule() {
    let mutated = explore_with(
        &sys_holder_low_high(),
        &small_config(),
        ProtocolKind::Dga,
        || ProtocolKind::Mpcp.build(),
    );
    assert_eq!(
        variants_flagging(&mutated, "dga/invariant:schedule_conformance"),
        22,
        "{:?}",
        codes(&mutated)
    );
}

/// The variant cap truncates instead of hanging, and says so.
#[test]
fn truncation_is_reported() {
    let config = CheckerConfig {
        max_variants: 5,
        ..small_config()
    };
    let ex = explore(&sys_shared_global(), ProtocolKind::Mpcp, &config);
    assert!(ex.truncated);
    assert_eq!(ex.variants, 5);
    let r = report(&[ex]);
    assert!(!r.has_errors());
    assert!(r.render_human().contains("V101"));
}

/// Paper Example 3 (the §4/§5 worked system) passes under MPCP with a
/// coarser grid (7 tasks make the full 3^7 grid needlessly large).
#[test]
fn example3_passes_under_mpcp() {
    let (sys, _) = mpcp::taskgen::paper::example3();
    let config = CheckerConfig {
        max_offset: 1,
        max_variants: 200,
        ..small_config()
    };
    let ex = explore(&sys, ProtocolKind::Mpcp, &config);
    assert!(ex.passed(), "{:?}", codes(&ex));
    assert_eq!(ex.variants, 128);
}
