//! Every lint fires on a crafted bad system and stays silent on the
//! paper's example systems; the JSON rendering is snapshot-stable.

use mpcp_model::{Body, System, TaskDef};
use mpcp_verify::{lint_system, Severity};

fn codes(report: &mpcp_verify::Report) -> Vec<&'static str> {
    report.diagnostics().iter().map(|d| d.code).collect()
}

/// Two tasks on two processors nest the same global semaphores in
/// opposite orders.
fn lock_cycle_system() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let sa = b.add_resource("SA");
    let sb = b.add_resource("SB");
    b.add_task(
        TaskDef::new("tau1", p[0]).period(100).priority(2).body(
            Body::builder()
                .compute(1)
                .critical(sa, |c| c.compute(1).critical(sb, |c| c.compute(1)))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("tau2", p[1]).period(200).priority(1).body(
            Body::builder()
                .compute(1)
                .critical(sb, |c| c.compute(1).critical(sa, |c| c.compute(1)))
                .build(),
        ),
    );
    b.build().unwrap()
}

#[test]
fn v001_fires_on_lock_order_cycle_and_names_the_cycle() {
    let report = lint_system(&lock_cycle_system());
    assert!(report.has_errors());
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "V001")
        .expect("V001 fired");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("SA") && d.message.contains("SB"));
    assert!(
        d.message.contains("->"),
        "cycle path rendered: {}",
        d.message
    );
}

fn v002_system() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("S");
    let cs = |_: u32| Body::builder().critical(s, |c| c.compute(1)).build();
    b.add_task(TaskDef::new("a", p[0]).period(10).priority(3).body(cs(0)));
    b.add_task(TaskDef::new("b", p[0]).period(20).priority(2).body(cs(1)));
    b.add_task(
        TaskDef::new("stray", p[1])
            .period(40)
            .priority(1)
            .body(cs(2)),
    );
    b.build().unwrap()
}

#[test]
fn v002_fires_on_resource_global_because_of_one_task() {
    let report = lint_system(&v002_system());
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "V002")
        .expect("V002 fired");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.tasks.contains(&"stray".to_string()));
    assert!(d.hint.as_deref().unwrap_or("").contains("local"));
}

fn v003_system() -> System {
    let mut b = System::builder();
    let p = b.add_processor("P0");
    b.add_resource("GHOST");
    b.add_task(
        TaskDef::new("t", p)
            .period(10)
            .priority(1)
            .body(Body::builder().compute(1).build()),
    );
    b.build().unwrap()
}

#[test]
fn v003_fires_on_unused_resource() {
    let report = lint_system(&v003_system());
    assert!(codes(&report).contains(&"V003"));
    assert!(!report.has_errors());
}

fn v004_system() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let sg = b.add_resource("SG");
    let sl = b.add_resource("SL");
    b.add_task(
        TaskDef::new("t0", p[0]).period(20).priority(2).body(
            Body::builder()
                .critical(sg, |c| c.compute(1).critical(sl, |c| c.compute(1)))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t1", p[1])
            .period(40)
            .priority(1)
            .body(Body::builder().critical(sg, |c| c.compute(1)).build()),
    );
    b.build().unwrap()
}

#[test]
fn v004_fires_on_local_section_nested_in_global() {
    let report = lint_system(&v004_system());
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "V004")
        .expect("V004 fired");
    assert_eq!(d.severity, Severity::Error);
    assert!(report.has_errors());
}

fn v005_system() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let sa = b.add_resource("SA");
    let sb = b.add_resource("SB");
    // Same nesting order everywhere: deadlock-safe, so V001 stays quiet
    // and only the lock-group advisory fires.
    b.add_task(
        TaskDef::new("t0", p[0]).period(20).priority(2).body(
            Body::builder()
                .critical(sa, |c| c.compute(1).critical(sb, |c| c.compute(1)))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t1", p[1]).period(40).priority(1).body(
            Body::builder()
                .critical(sa, |c| c.compute(1))
                .critical(sb, |c| c.compute(1))
                .build(),
        ),
    );
    b.build().unwrap()
}

#[test]
fn v005_fires_on_nested_global_sections() {
    let report = lint_system(&v005_system());
    assert!(codes(&report).contains(&"V005"));
    assert!(!codes(&report).contains(&"V001"));
}

fn v006_system() -> System {
    let mut b = System::builder();
    let p = b.add_processor("P0");
    let s = b.add_resource("S");
    b.add_task(
        TaskDef::new("t", p).period(50).priority(1).body(
            Body::builder()
                .critical(s, |c| c.compute(1).suspend(5).compute(1))
                .build(),
        ),
    );
    b.build().unwrap()
}

#[test]
fn v006_fires_on_suspension_inside_critical_section() {
    let report = lint_system(&v006_system());
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "V006")
        .expect("V006 fired");
    assert_eq!(d.severity, Severity::Error);
}

fn v007_system() -> System {
    // U = 0.6 + 0.6 = 1.2 > 1.0: error.
    let mut b = System::builder();
    let p = b.add_processor("P0");
    for (i, (per, c)) in [(10u64, 6u64), (20, 12)].iter().enumerate() {
        b.add_task(
            TaskDef::new(format!("t{i}"), p)
                .period(*per)
                .priority(2 - i as u32)
                .body(Body::builder().compute(*c).build()),
        );
    }
    b.build().unwrap()
}

#[test]
fn v007_error_above_full_utilization_warning_above_liu_layland() {
    let report = lint_system(&v007_system());
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "V007")
        .expect("V007 fired");
    assert_eq!(d.severity, Severity::Error);

    // U = 3 * 0.3 = 0.9: above the 3-task Liu-Layland bound (~0.780)
    // but feasible, so only a warning.
    let mut b = System::builder();
    let p = b.add_processor("P0");
    for (i, per) in [10u64, 20, 40].iter().enumerate() {
        b.add_task(
            TaskDef::new(format!("t{i}"), p)
                .period(*per)
                .priority(3 - i as u32)
                .body(Body::builder().compute(per * 3 / 10).build()),
        );
    }
    let report = lint_system(&b.build().unwrap());
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "V007")
        .expect("V007 fired");
    assert_eq!(d.severity, Severity::Warning);
}

fn v008_system() -> System {
    let mut b = System::builder();
    let p = b.add_processor("P0");
    b.add_task(
        TaskDef::new("slow", p)
            .period(100)
            .priority(2)
            .body(Body::builder().compute(1).build()),
    );
    b.add_task(
        TaskDef::new("fast", p)
            .period(10)
            .priority(1)
            .body(Body::builder().compute(1).build()),
    );
    b.build().unwrap()
}

#[test]
fn v008_fires_on_non_rate_monotonic_priorities() {
    let report = lint_system(&v008_system());
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "V008")
        .expect("V008 fired");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.tasks.contains(&"slow".to_string()));
}

fn v009_system() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let s = b.add_resource("S");
    b.add_task(
        TaskDef::new("hog", p[0])
            .period(200)
            .priority(1)
            .body(Body::builder().critical(s, |c| c.compute(50)).build()),
    );
    b.add_task(
        TaskDef::new("tight", p[1])
            .period(40)
            .priority(2)
            .body(Body::builder().critical(s, |c| c.compute(1)).build()),
    );
    b.build().unwrap()
}

#[test]
fn v009_fires_when_a_remote_gcs_covers_a_deadline() {
    let report = lint_system(&v009_system());
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "V009")
        .expect("V009 fired");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.tasks.contains(&"tight".to_string()));
}

fn v010_system() -> System {
    let mut b = System::builder();
    let p = b.add_processor("P0");
    let solo = b.add_resource("SOLO");
    let shared = b.add_resource("SH");
    b.add_task(
        TaskDef::new("alone", p).period(20).priority(2).body(
            Body::builder()
                .critical(solo, |c| c.compute(1))
                .compute(1)
                .critical(shared, |c| c.compute(1))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("peer", p)
            .period(40)
            .priority(1)
            .body(Body::builder().critical(shared, |c| c.compute(1)).build()),
    );
    b.build().unwrap()
}

#[test]
fn v010_fires_on_single_user_semaphore_only() {
    let report = lint_system(&v010_system());
    let fired: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == "V010")
        .collect();
    assert_eq!(fired.len(), 1, "only SOLO is uncontended");
    assert_eq!(fired[0].severity, Severity::Warning);
    assert!(fired[0].resources.contains(&"SOLO".to_string()));
    assert!(fired[0].tasks.contains(&"alone".to_string()));
}

fn v011_system() -> System {
    let mut b = System::builder();
    let p = b.add_processor("P0");
    let s = b.add_resource("S");
    let outer = b.add_resource("OUTER");
    // Adjacent at top level in "churn"; adjacent inside a nested body in
    // "wrapped"; separated by compute in "fine" so it stays quiet.
    b.add_task(
        TaskDef::new("churn", p).period(30).priority(3).body(
            Body::builder()
                .critical(s, |c| c.compute(1))
                .critical(s, |c| c.compute(1))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("wrapped", p).period(60).priority(2).body(
            Body::builder()
                .critical(outer, |c| {
                    c.critical(s, |c| c.compute(1))
                        .critical(s, |c| c.compute(1))
                })
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("fine", p).period(120).priority(1).body(
            Body::builder()
                .critical(s, |c| c.compute(1))
                .compute(1)
                .critical(s, |c| c.compute(1))
                .build(),
        ),
    );
    b.build().unwrap()
}

#[test]
fn v011_fires_on_back_to_back_sections_even_nested() {
    let report = lint_system(&v011_system());
    let tasks: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == "V011")
        .flat_map(|d| d.tasks.clone())
        .collect();
    assert!(tasks.contains(&"churn".to_string()));
    assert!(tasks.contains(&"wrapped".to_string()));
    assert!(!tasks.contains(&"fine".to_string()));
}

fn v012_system() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let sl = b.add_resource("SL");
    let sg = b.add_resource("SG");
    b.add_task(
        TaskDef::new("t0", p[0]).period(20).priority(3).body(
            Body::builder()
                .critical(sl, |c| c.compute(1))
                .critical(sg, |c| c.compute(1))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t1", p[0]).period(40).priority(2).body(
            Body::builder()
                .critical(sl, |c| c.compute(1))
                .critical(sg, |c| c.compute(1))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("remote", p[1])
            .period(80)
            .priority(1)
            .body(Body::builder().critical(sg, |c| c.compute(1)).build()),
    );
    b.build().unwrap()
}

#[test]
fn v012_fires_only_when_every_user_has_a_global_section() {
    let report = lint_system(&v012_system());
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "V012")
        .expect("V012 fired");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.resources.contains(&"SL".to_string()));

    // Give t1 a purely-local profile: the ceiling now matters, no V012.
    let mut b = System::builder();
    let p = b.add_processors(2);
    let sl = b.add_resource("SL");
    let sg = b.add_resource("SG");
    b.add_task(
        TaskDef::new("t0", p[0]).period(20).priority(3).body(
            Body::builder()
                .critical(sl, |c| c.compute(1))
                .critical(sg, |c| c.compute(1))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t1", p[0])
            .period(40)
            .priority(2)
            .body(Body::builder().critical(sl, |c| c.compute(1)).build()),
    );
    b.add_task(
        TaskDef::new("remote", p[1])
            .period(80)
            .priority(1)
            .body(Body::builder().critical(sg, |c| c.compute(1)).build()),
    );
    let report = lint_system(&b.build().unwrap());
    assert!(!codes(&report).contains(&"V012"));
}

/// A system tripping all three new advisory lints at once, golden-pinned
/// so their JSON shape is a stable contract like the V001 snapshot.
fn advisory_trifecta_system() -> System {
    let mut b = System::builder();
    let p = b.add_processors(2);
    let solo = b.add_resource("SOLO");
    let sl = b.add_resource("SL");
    let sg = b.add_resource("SG");
    b.add_task(
        TaskDef::new("t0", p[0]).period(20).priority(3).body(
            Body::builder()
                .critical(solo, |c| c.compute(1))
                .critical(sl, |c| c.compute(1))
                .critical(sl, |c| c.compute(1))
                .critical(sg, |c| c.compute(1))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("t1", p[0]).period(40).priority(2).body(
            Body::builder()
                .critical(sl, |c| c.compute(1))
                .compute(1)
                .critical(sg, |c| c.compute(1))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("remote", p[1])
            .period(80)
            .priority(1)
            .body(Body::builder().critical(sg, |c| c.compute(1)).build()),
    );
    b.build().unwrap()
}

#[test]
fn new_lints_json_matches_golden_snapshot() {
    let report = lint_system(&advisory_trifecta_system());
    let fired = codes(&report);
    for code in ["V010", "V011", "V012"] {
        assert!(fired.contains(&code), "{code} missing from {fired:?}");
    }
    let json = report.render_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/new_lints.json");
        std::fs::write(path, &json).unwrap();
        return;
    }
    let golden = include_str!("golden/new_lints.json");
    assert_eq!(json, golden, "JSON diagnostics drifted:\n{json}");
}

#[test]
fn paper_examples_produce_no_errors() {
    let (ex1, _) = mpcp_taskgen::paper::example1(40);
    let (ex2, _) = mpcp_taskgen::paper::example2(40);
    let (ex3, _) = mpcp_taskgen::paper::example3();
    for (name, sys) in [("example1", ex1), ("example2", ex2), ("example3", ex3)] {
        let report = lint_system(&sys);
        assert!(
            !report.has_errors(),
            "{name} has lint errors:\n{}",
            report.render_human()
        );
    }
}

#[test]
fn default_lints_have_unique_codes_and_names() {
    let lints = &mpcp_verify::LINTS;
    let mut codes: Vec<_> = lints.iter().map(|l| l.code).collect();
    let mut names: Vec<_> = lints.iter().map(|l| l.name).collect();
    for seen in [&mut codes, &mut names] {
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), lints.len());
    }
}

/// The JSON rendering is a stable contract: golden-snapshot it for the
/// lock-order-cycle system.
#[test]
fn json_diagnostics_match_golden_snapshot() {
    let report = lint_system(&lock_cycle_system());
    let json = report.render_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lock_cycle.json");
        std::fs::write(path, &json).unwrap();
        return;
    }
    let golden = include_str!("golden/lock_cycle.json");
    assert_eq!(json, golden, "JSON diagnostics drifted:\n{json}");
}

/// Each lint's fixture above, in code order: the system its `v0NN_*`
/// test lints.
fn every_lint_fixtures() -> [(&'static str, System); 12] {
    [
        ("V001", lock_cycle_system()),
        ("V002", v002_system()),
        ("V003", v003_system()),
        ("V004", v004_system()),
        ("V005", v005_system()),
        ("V006", v006_system()),
        ("V007", v007_system()),
        ("V008", v008_system()),
        ("V009", v009_system()),
        ("V010", v010_system()),
        ("V011", v011_system()),
        ("V012", v012_system()),
    ]
}

/// Every lint's findings, byte for byte: one JSON object keyed by code,
/// each value the JSON report of that code's fixture. V001's report is
/// `lock_cycle.json`, pinned above, so here it only has to fire.
#[test]
fn every_lint_json_matches_golden_snapshot() {
    let fixtures = every_lint_fixtures();
    let mut json = String::from("{\n");
    for (i, (code, system)) in fixtures.iter().enumerate() {
        let report = lint_system(system);
        assert!(codes(&report).contains(code), "{code} missing");
        if *code == "V001" {
            continue;
        }
        let sep = if i + 1 < fixtures.len() { "," } else { "" };
        json += &format!("\"{code}\": {}{sep}\n", report.render_json().trim_end());
    }
    json += "}\n";
    mpcp_json::parse(&json).expect("the golden is one JSON document");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/every_lint.json");
        std::fs::write(path, &json).unwrap();
        return;
    }
    let golden = include_str!("golden/every_lint.json");
    assert_eq!(json, golden, "JSON diagnostics drifted:\n{json}");
}
