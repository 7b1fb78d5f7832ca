//! Differential property for the incremental analysis engine: after
//! *every* edit of a random edit script, the engine's snapshot must be
//! byte-identical with a from-scratch recompute of the same system,
//! under every analysis (one engine each, driven through the same
//! edits). This is the property the `mpcp audit` command and the
//! sweep's `delta/divergence` oracle arm spot-check; here it is driven
//! with randomized interleavings of add / remove / modify edits.

use mpcp_analysis::{Analysis, DepGraph, Edit};
use mpcp_model::System;
use mpcp_prop::cases;
use mpcp_taskgen::{generate, WorkloadConfig};
use mpcp_verify::{
    full_snapshot_json, with_scaled_period, with_task_from, without_task, IncrementalAnalysis,
};

/// The engine's snapshot against the from-scratch one under its
/// `analysis` — and, since the engine derives each version's facts and
/// graph by sharing with the version before, those two against the same
/// built alone.
fn certify(engine: &IncrementalAnalysis, analysis: Analysis, context: &str) {
    assert_eq!(
        engine.snapshot_json(),
        full_snapshot_json(engine.system(), analysis),
        "{context}: snapshot diverged under {analysis}"
    );
    let alone = engine.system().detached();
    assert_eq!(engine.system().info(), alone.info(), "{context}: info");
    assert_eq!(
        *engine.graph(),
        DepGraph::build(&alone, None),
        "{context}: graph"
    );
}

/// One engine per analysis, in [`Analysis::ALL`] order, driven through
/// the same edits.
struct Engines(Vec<IncrementalAnalysis>);

impl Engines {
    fn new(system: &System) -> Engines {
        let engine = |a| IncrementalAnalysis::new(system.clone(), a);
        let all = Analysis::ALL.map(|a| engine(a).expect("generated task names are unique"));
        Engines(all.into())
    }

    fn system(&self) -> &System {
        self.0[0].system()
    }

    /// Applies `edit` to every engine and certifies each.
    fn apply(&mut self, next: &System, edit: &Edit, context: &str) {
        for (engine, analysis) in self.0.iter_mut().zip(Analysis::ALL) {
            engine.apply(next.clone(), edit);
            certify(engine, analysis, context);
        }
    }
}

fn workload(rng: &mut mpcp_prop::Rng) -> (System, u64) {
    let seed = rng.range_u64(0, 99_999);
    let cfg = WorkloadConfig::default()
        .processors(rng.range_usize(2, 4))
        .tasks_per_processor(rng.range_usize(2, 3))
        .resources(1, rng.range_usize(1, 2))
        .sections(0, 2)
        .utilization(rng.range_f64(0.3, 0.7));
    (generate(&cfg, seed), seed)
}

#[test]
fn random_edit_scripts_stay_certified() {
    cases(25, 0xDE17A, |rng| {
        let (sys, seed) = workload(rng);
        let mut engines = Engines::new(&sys);
        // Tasks removed so far, each paired with a system that still
        // contains it (the donor an add-task edit copies it back from).
        let mut removed: Vec<(String, System)> = Vec::new();
        let steps = rng.range_usize(8, 16);
        for step in 0..steps {
            let current = engines.system().clone();
            let names: Vec<String> = current
                .tasks()
                .iter()
                .map(|t| t.name().to_owned())
                .collect();
            let kind = rng.range_usize(0, 2);
            let (next, edit) = if kind == 1 && names.len() > 1 {
                let name = rng.choice(&names).clone();
                let next = without_task(&current, &name).expect("name came from the system");
                removed.push((name.clone(), current.clone()));
                (next, Edit::RemoveTask(name))
            } else if kind == 2 && !removed.is_empty() {
                let (name, donor) = removed.remove(rng.range_usize(0, removed.len() - 1));
                let next = with_task_from(&current, &donor, &name)
                    .expect("removed task stays addable: names and priorities were unique");
                (next, Edit::AddTask(name))
            } else {
                let name = rng.choice(&names).clone();
                let factor = rng.range_u64(2, 3);
                let next = with_scaled_period(&current, &name, factor)
                    .expect("scaling a period keeps the system valid");
                (next, Edit::ModifyTask(name))
            };
            engines.apply(&next, &edit, &format!("seed {seed}, step {step}, {edit}"));
        }
    });
}

/// The engine must also recover from systems the analysis rejects (for
/// example when an edit pushes a section layout the bounds refuse):
/// drive the script through an engine whose underlying analysis errors
/// round-trip, and require certification to hold there too. Scaling
/// periods only ever *relaxes* the system, so this variant instead
/// certifies long remove-until-singleton then re-add-everything sweeps,
/// where the dirty set repeatedly collapses and regrows.
#[test]
fn drain_and_refill_scripts_stay_certified() {
    cases(10, 0xDE17B, |rng| {
        let (sys, seed) = workload(rng);
        let original = sys.clone();
        let mut engines = Engines::new(&sys);
        let mut names: Vec<String> = sys.tasks().iter().map(|t| t.name().to_owned()).collect();
        // Drain to a single task…
        while names.len() > 1 {
            let name = names.swap_remove(rng.range_usize(0, names.len() - 1));
            let next = without_task(engines.system(), &name).expect("name is present");
            let edit = Edit::RemoveTask(name);
            engines.apply(&next, &edit, &format!("seed {seed}, {edit}"));
        }
        // …then refill from the original system.
        for t in original.tasks() {
            let name = t.name().to_owned();
            if names.contains(&name) {
                continue;
            }
            let next = with_task_from(engines.system(), &original, &name)
                .expect("original task re-adds cleanly");
            let edit = Edit::AddTask(name.clone());
            engines.apply(&next, &edit, &format!("seed {seed}, {edit}"));
            names.push(name);
        }
        assert_eq!(
            engines.system().tasks().len(),
            original.tasks().len(),
            "seed {seed}: refill restored every task"
        );
    });
}

/// `system` plus a fresh task built by `def` (handed the processor
/// list). Existing priorities are respaced to even levels, keeping their
/// order, and the newcomer takes the odd level above `below` of them, so
/// it can land anywhere in the priority order.
fn with_new_task(
    system: &System,
    below: u32,
    def: impl FnOnce(&[mpcp_model::ProcessorId]) -> mpcp_model::TaskDef,
) -> System {
    let mut b = System::builder();
    let procs: Vec<_> = system
        .processors()
        .iter()
        .map(|p| b.add_processor(p.name()))
        .collect();
    for r in system.resources() {
        b.add_resource(r.name());
    }
    let mut levels: Vec<u32> = system
        .tasks()
        .iter()
        .map(|t| t.priority().level())
        .collect();
    levels.sort_unstable();
    for t in system.tasks() {
        let rank = levels.binary_search(&t.priority().level()).unwrap() as u32;
        b.add_task(t.to_def().priority(2 * (rank + 1)));
    }
    b.add_task(def(&procs).priority(2 * below + 1));
    b.build().expect("a fresh name and a fresh priority level")
}

fn is_section_free(system: &System, name: &str) -> bool {
    let idx = system.task_index_by_name(name).expect("task exists");
    let task_use = &system.info().all_task_use()[idx];
    task_use.sections.is_empty() && task_use.suspension_count == 0
}

/// The section-free dirty rule (a changed task with no critical section
/// and no suspension dirties only itself and its processor's rows) under
/// every edit that can meet it: adding, rescaling and removing such
/// tasks anywhere in the priority order (some of them suspending, which
/// the rule must not cover), and flipping tasks between section-free and
/// sectioned bodies — which can also flip a semaphore's scope.
#[test]
fn section_free_edit_scripts_stay_certified() {
    cases(12, 0xDE17C, |rng| {
        let seed = rng.range_u64(0, 99_999);
        let cfg = WorkloadConfig::default()
            .processors(8)
            .tasks_per_processor(8)
            .resources(1, 3)
            .sections(0, 2)
            .suspensions(0.2)
            .utilization(rng.range_f64(0.3, 0.6));
        let sys = generate(&cfg, seed);
        let mut engines = Engines::new(&sys);
        let mut fresh: Vec<String> = Vec::new();
        for step in 0..12 {
            let current = engines.system().clone();
            let names: Vec<String> = current
                .tasks()
                .iter()
                .map(|t| t.name().to_owned())
                .collect();
            let (next, edit) = match rng.range_usize(0, 3) {
                0 => {
                    let name = format!("fresh{step}");
                    let proc = rng.range_usize(0, current.processors().len() - 1);
                    let period = rng.range_u64(200, 5_000);
                    let wcet = rng.range_u64(1, 5);
                    let below = rng.range_u32(0, names.len() as u32);
                    // The near miss: a suspension and nothing else still
                    // feeds every lower mate's deferred penalty.
                    let body = mpcp_model::Body::builder().compute(wcet);
                    let body = if rng.chance(0.3) {
                        body.suspend(2).compute(1)
                    } else {
                        body
                    };
                    let next = with_new_task(&current, below, |procs| {
                        mpcp_model::TaskDef::new(name.clone(), procs[proc])
                            .period(period)
                            .body(body.build())
                    });
                    fresh.push(name.clone());
                    (next, Edit::AddTask(name))
                }
                1 if !fresh.is_empty() => {
                    let name = fresh.swap_remove(rng.range_usize(0, fresh.len() - 1));
                    let next = without_task(&current, &name).expect("name is present");
                    (next, Edit::RemoveTask(name))
                }
                2 if !fresh.is_empty() => {
                    let name = rng.choice(&fresh).clone();
                    let next = with_scaled_period(&current, &name, 2).expect("still valid");
                    (next, Edit::ModifyTask(name))
                }
                _ => {
                    // Flip one task across the section-free boundary.
                    let name = rng.choice(&names).clone();
                    let body = if is_section_free(&current, &name) {
                        let donor = rng.choice(&names);
                        let idx = current.task_index_by_name(donor).unwrap();
                        current.tasks()[idx].body().clone()
                    } else {
                        let idx = current.task_index_by_name(&name).unwrap();
                        let wcet = current.tasks()[idx].wcet().ticks();
                        mpcp_model::Body::builder().compute(wcet).build()
                    };
                    let next = mpcp_verify::with_body(&current, &name, &body)
                        .expect("a body of the same system stays valid");
                    (next, Edit::ModifyTask(name))
                }
            };
            engines.apply(&next, &edit, &format!("seed {seed}, step {step}, {edit}"));
        }
    });
}

/// The counts behind MPCP's rule, on the benchmark's edit family (8
/// processors x 40 tasks): a compute-only `add-task` recomputes one
/// task's factors and one processor's rows; one with a global section
/// still cascades to its sharers.
#[test]
fn compute_only_add_recomputes_one_task_and_one_processor() {
    let cfg = WorkloadConfig::default()
        .processors(8)
        .tasks_per_processor(40)
        .utilization(0.1)
        .resources(1, 3)
        .sections(1, 4)
        .global_access(0.7)
        .section_len(0.01, 0.05)
        .clusters(2);
    let sys = generate(&cfg, 7);
    let n = sys.tasks().len() as u64;
    let mut engine = IncrementalAnalysis::new(sys.clone(), Analysis::Mpcp).unwrap();

    let before = engine.stats();
    let plain = with_new_task(&sys, 0, |procs| {
        mpcp_model::TaskDef::new("incoming", procs[0])
            .period(10_000)
            .body(mpcp_model::Body::builder().compute(50).build())
    });
    engine.apply(plain.clone(), &Edit::AddTask("incoming".into()));
    let after = engine.stats();
    assert_eq!(after.tasks_recomputed - before.tasks_recomputed, 1);
    assert_eq!(after.tasks_reused - before.tasks_reused, n);
    assert_eq!(
        after.processors_recomputed - before.processors_recomputed,
        1
    );
    assert_eq!(after.processors_reused - before.processors_reused, 7);
    assert_eq!(
        engine.snapshot_json(),
        full_snapshot_json(&plain, Analysis::Mpcp)
    );

    let gcs_body = sys
        .tasks()
        .iter()
        .find(|t| !sys.info().task_use(t.id()).global_sections.is_empty())
        .expect("the family has global sections")
        .body()
        .clone();
    let before = engine.stats();
    let shared = with_new_task(&plain, 0, |procs| {
        mpcp_model::TaskDef::new("sharer", procs[0])
            .period(10_000)
            .body(gcs_body)
    });
    engine.apply(shared.clone(), &Edit::AddTask("sharer".into()));
    let after = engine.stats();
    assert!(
        after.tasks_recomputed - before.tasks_recomputed > 40,
        "a gcs-bearing task dirties its mates and its sharers: {after:?}"
    );
    assert!(after.processors_recomputed - before.processors_recomputed > 1);
    assert_eq!(
        engine.snapshot_json(),
        full_snapshot_json(&shared, Analysis::Mpcp)
    );
}
