//! Randomized tests of the model's structural invariants (deterministic
//! seeded generation via `mpcp-prop`).

use mpcp_model::{
    rate_monotonic_order, Body, BodyBuilder, Dur, ResourceId, Segment, System, TaskDef,
};
use mpcp_prop::{cases, Rng};

/// A random (non-self-nesting) body over `n_res` resources.
fn random_body(rng: &mut Rng, n_res: u32, depth: u32) -> Body {
    Body::from_segments(random_segments(rng, n_res, depth))
}

fn random_segments(rng: &mut Rng, n_res: u32, depth: u32) -> Vec<Segment> {
    let n = rng.range_usize(0, 3);
    (0..n)
        .map(|_| match rng.range_u32(0, if depth == 0 { 1 } else { 2 }) {
            0 => Segment::Compute(Dur::new(rng.range_u64(1, 19))),
            1 => Segment::Suspend(Dur::new(rng.range_u64(1, 4))),
            _ => {
                let r = ResourceId::from_index(rng.range_u32(0, n_res - 1));
                let inner = random_segments(rng, n_res, depth - 1);
                Segment::Critical(r, strip(inner, r))
            }
        })
        .collect()
}

/// Strip self-nesting: replace any inner section on `r` by its compute
/// demand (mirrors what the old proptest strategy did).
fn strip(segs: Vec<Segment>, r: ResourceId) -> Vec<Segment> {
    segs.into_iter()
        .map(|s| match s {
            Segment::Critical(res, body) if res == r => Segment::Compute(
                body.iter()
                    .map(mpcp_model::Segment::compute_demand)
                    .sum::<Dur>()
                    .max(Dur::new(1)),
            ),
            Segment::Critical(res, body) => Segment::Critical(res, strip(body, r)),
            other => other,
        })
        .collect()
}

/// WCET equals the sum of all compute segments, wherever they nest.
#[test]
fn wcet_is_total_compute() {
    cases(64, 0x030D_0001, |rng| {
        let body = random_body(rng, 3, 2);
        fn total(segs: &[Segment]) -> Dur {
            segs.iter()
                .map(|s| match s {
                    Segment::Compute(d) => *d,
                    Segment::Suspend(_) => Dur::ZERO,
                    Segment::Critical(_, b) => total(b),
                })
                .sum()
        }
        assert_eq!(body.wcet(), total(body.segments()));
    });
}

/// Critical-section durations are consistent: a section's duration
/// includes every directly nested section's duration (checked
/// structurally, since the same resource can guard several distinct
/// sections).
#[test]
fn outer_sections_contain_inner_durations() {
    cases(64, 0x030D_0002, |rng| {
        let body = random_body(rng, 3, 2);
        fn check(segs: &[Segment]) {
            for seg in segs {
                if let Segment::Critical(_, inner) = seg {
                    let own = seg.compute_demand();
                    let nested: Dur = inner
                        .iter()
                        .filter(|s| matches!(s, Segment::Critical(..)))
                        .map(mpcp_model::Segment::compute_demand)
                        .sum();
                    assert!(own >= nested);
                    check(inner);
                }
            }
        }
        check(body.segments());
    });
}

/// Section counts split exactly into outermost and nested.
#[test]
fn depth_partition() {
    cases(64, 0x030D_0003, |rng| {
        let body = random_body(rng, 3, 2);
        let sections = body.critical_sections();
        let outer = sections.iter().filter(|c| c.is_outermost()).count();
        let nested = sections.iter().filter(|c| !c.is_outermost()).count();
        assert_eq!(outer + nested, sections.len());
        assert_eq!(body.has_nested_sections(), nested > 0);
        assert!(!body.has_self_nesting());
    });
}

/// The builder's one validation walk refuses exactly what the
/// definitions over [`Body::critical_sections`] refuse: the first
/// section in lock order on a resource outside the table, or else any
/// section enclosed by one on its own resource.
#[test]
fn body_validation_matches_the_section_list_definitions() {
    fn raw(rng: &mut Rng, depth: u32) -> Vec<Segment> {
        (0..rng.range_usize(0, 3))
            .map(|_| match rng.range_u32(0, if depth == 0 { 0 } else { 2 }) {
                0 => Segment::Compute(Dur::new(1)),
                _ => Segment::Critical(
                    ResourceId::from_index(rng.range_u32(0, 4)),
                    raw(rng, depth - 1),
                ),
            })
            .collect()
    }
    let mut seen = [0u32; 3];
    cases(256, 0x030D_0007, |rng| {
        let body = Body::from_segments(raw(rng, 3));
        let table = rng.range_usize(3, 5);
        let expected = match body.resources_used().iter().find(|r| r.index() >= table) {
            Some(&resource) => Err(mpcp_model::ModelError::UnknownResource {
                task: mpcp_model::TaskId::from_index(0),
                resource,
            }),
            None if body
                .critical_sections()
                .iter()
                .any(|cs| cs.enclosing.contains(&cs.resource)) =>
            {
                Err(mpcp_model::ModelError::SelfNesting {
                    task: mpcp_model::TaskId::from_index(0),
                })
            }
            None => Ok(()),
        };
        seen[match expected {
            Ok(()) => 0,
            Err(mpcp_model::ModelError::SelfNesting { .. }) => 1,
            Err(_) => 2,
        }] += 1;
        assert_eq!(body.has_self_nesting(), {
            let sections = body.critical_sections();
            sections
                .iter()
                .any(|cs| cs.enclosing.contains(&cs.resource))
        });
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_resources(table);
        b.add_task(TaskDef::new("t", p).period(100).body(body));
        assert_eq!(b.build().map(|_| ()), expected);
    });
    assert!(seen.iter().all(|&n| n >= 10), "{seen:?}");
}

/// A system built from random bodies validates and derives consistent
/// info: every used resource has users and a scope; every gcs a task
/// reports is on a Global resource.
#[test]
fn system_info_is_consistent() {
    cases(64, 0x030D_0004, |rng| {
        let n_bodies = rng.range_usize(1, 5);
        let bodies: Vec<Body> = (0..n_bodies).map(|_| random_body(rng, 3, 1)).collect();
        let mut b = System::builder();
        let procs = b.add_processors(2);
        b.add_resources(3);
        for (i, body) in bodies.iter().enumerate() {
            b.add_task(
                TaskDef::new(format!("t{i}"), procs[i % 2])
                    .period(100 + i as u64)
                    .body(body.clone()),
            );
        }
        let sys = b.build().expect("valid random system");
        let info = sys.info();
        for usage in info.all_usage() {
            match usage.scope {
                mpcp_model::Scope::Unused => assert!(usage.users.is_empty()),
                _ => assert!(!usage.users.is_empty()),
            }
            // Users are sorted by decreasing priority.
            for w in usage.users.windows(2) {
                assert!(sys.task(w[0]).priority() > sys.task(w[1]).priority());
            }
        }
        for task in sys.tasks() {
            for cs in &info.task_use(task.id()).global_sections {
                assert!(info.scope(cs.resource).is_global());
            }
        }
    });
}

/// `SystemInfo` computed with the previous version as a hint equals the
/// one computed from scratch, after every edit of random scripts that
/// hit what sharing could get wrong: removals from the middle (every
/// later id shifts), bodies replaced, tasks moved across processors
/// (scopes flip under tasks that did not change), repeated names and
/// reorderings (the hint's tasks are not where the walk expects them).
#[test]
fn info_built_after_a_previous_version_equals_info_built_alone() {
    let (mut shared, mut built) = (0usize, 0usize);
    cases(48, 0x030D_0008, |rng| {
        let mut b = System::builder();
        let procs = b.add_processors(3);
        b.add_resources(3);
        for i in 0..rng.range_usize(2, 6) {
            b.add_task(
                TaskDef::new(format!("t{}", i % 4), procs[i % 3])
                    .period(100 + i as u64)
                    .body(random_body(rng, 3, 2)),
            );
        }
        let mut sys = b.build().expect("valid random system");
        sys.info();
        let mut level = 1_000;
        for step in 0..24 {
            let mut defs: Vec<TaskDef> = sys.tasks().iter().map(mpcp_model::Task::to_def).collect();
            let at = rng.range_usize(0, defs.len() - 1);
            let task = &sys.tasks()[at];
            level += 1;
            match rng.range_usize(0, 5) {
                0 if defs.len() > 1 => drop(defs.remove(at)),
                1 => defs.push(
                    // Sometimes a name the system already has.
                    TaskDef::new(format!("t{}", rng.range_usize(0, 7)), procs[step % 3])
                        .period(50 + step as u64)
                        .priority(level)
                        .body(random_body(rng, 3, 2)),
                ),
                2 => defs[at] = task.to_def().body(random_body(rng, 3, 2)),
                3 => {
                    // Same body, same name, another processor.
                    let mut moved = TaskDef::new(task.name(), procs[rng.range_usize(0, 2)])
                        .period(task.period().ticks())
                        .priority(task.priority().level())
                        .body(task.body().clone());
                    if rng.chance(0.5) {
                        moved = moved.offset(3);
                    }
                    defs[at] = moved;
                }
                4 => defs.swap(0, at),
                _ => defs.rotate_left(at),
            }
            let next = sys.with_tasks(defs).expect("edits keep the system valid");
            let alone = next.detached();
            assert_eq!(next.info_after(&sys), alone.info(), "step {step}");
            let before = sys.info().all_task_use();
            for part in next.info().all_task_use() {
                let was_there = before.iter().any(|b| std::sync::Arc::ptr_eq(part, b));
                *(if was_there { &mut shared } else { &mut built }) += 1;
            }
            sys = next;
        }
    });
    // The hint did something, and not everything.
    assert!(
        shared > 1_000 && built > 500,
        "{shared} shared, {built} built"
    );
}

/// Rate-monotonic order sorts periods non-decreasingly and is a
/// permutation.
#[test]
fn rm_order_is_a_sorted_permutation() {
    cases(64, 0x030D_0005, |rng| {
        let n = rng.range_usize(1, 19);
        let periods: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 999)).collect();
        let durs: Vec<Dur> = periods.iter().map(|&p| Dur::new(p)).collect();
        let order = rate_monotonic_order(durs.clone());
        let mut seen = vec![false; periods.len()];
        for &i in &order {
            assert!(!seen[i]);
            seen[i] = true;
        }
        for w in order.windows(2) {
            assert!(durs[w[0]] <= durs[w[1]]);
        }
    });
}

/// Builder priorities: rate-monotonic auto-assignment gives shorter
/// periods strictly higher priorities, uniquely.
#[test]
fn auto_priorities_follow_periods() {
    cases(64, 0x030D_0006, |rng| {
        let n = rng.range_usize(2, 9);
        let periods: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 999)).collect();
        let mut b = System::builder();
        let p = b.add_processor("P0");
        for (i, &t) in periods.iter().enumerate() {
            b.add_task(TaskDef::new(format!("t{i}"), p).period(t));
        }
        let sys = b.build().unwrap();
        let mut levels: Vec<u32> = sys.tasks().iter().map(|t| t.priority().level()).collect();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels.len(), periods.len(), "unique priorities");
        for a in sys.tasks() {
            for c in sys.tasks() {
                if a.period() < c.period() {
                    assert!(a.priority() > c.priority());
                }
            }
        }
    });
}

/// Builder ergonomics survive a round trip through raw segments.
#[test]
fn builder_and_from_segments_agree() {
    let r = ResourceId::from_index(0);
    let built = Body::builder()
        .compute(3)
        .critical(r, |c: BodyBuilder| c.compute(2))
        .suspend(1)
        .build();
    let manual = Body::from_segments(vec![
        Segment::Compute(Dur::new(3)),
        Segment::Critical(r, vec![Segment::Compute(Dur::new(2))]),
        Segment::Suspend(Dur::new(1)),
    ]);
    assert_eq!(built, manual);
}
