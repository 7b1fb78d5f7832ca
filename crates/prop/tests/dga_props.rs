//! Property tests for the dependency-graph scheduling subsystem:
//! structural guarantees of graph construction and list scheduling, and
//! the replay-equals-schedule contract, over randomly generated
//! multi-critical-section systems.

use mpcp_dga::{DependencyGraph, DgaReplay, DgaSchedule};
use mpcp_model::{JobId, System, Time};
use mpcp_prop::cases;
use mpcp_sim::{Monitor, MonitorSpec, SimConfig, Simulator};
use mpcp_taskgen::{generate, WorkloadConfig};

/// A DGA-friendly workload: no nesting, several global sections per
/// job (the regime where offline scheduling differs most from the
/// online protocols).
fn workload(rng: &mut mpcp_prop::Rng) -> (System, u64) {
    let seed = rng.range_u64(0, 99_999);
    let cfg = WorkloadConfig::default()
        .processors(rng.range_usize(2, 3))
        .tasks_per_processor(rng.range_usize(2, 3))
        .resources(1, rng.range_usize(1, 2))
        .sections(0, 2)
        .global_sections(rng.range_usize(0, 3))
        .utilization(rng.range_f64(0.2, 0.5));
    (generate(&cfg, seed), seed)
}

fn horizon_for(system: &System) -> Time {
    mpcp_dga::horizon_capped(system, 4_000)
}

/// Maps each chain entry back to its vertex index: the k-th occurrence
/// of a job in resource r's chain is that job's k-th section on r, in
/// program order.
fn chain_vertex_indices(graph: &DependencyGraph, schedule: &DgaSchedule) -> Vec<Vec<usize>> {
    schedule
        .chains
        .iter()
        .enumerate()
        .map(|(r, chain)| {
            let mut used: Vec<usize> = Vec::new();
            chain
                .iter()
                .map(|entry| {
                    let idx = graph
                        .vertices()
                        .iter()
                        .enumerate()
                        .position(|(i, v)| {
                            v.job == entry.job && v.resource.index() == r && !used.contains(&i)
                        })
                        .expect("chain entry has a matching vertex");
                    used.push(idx);
                    idx
                })
                .collect()
        })
        .collect()
}

/// The combined precedence graph — intra-job edges plus the chain
/// (mutual-exclusion) edges the scheduler chose — is acyclic.
#[test]
fn combined_dependency_graph_is_acyclic() {
    cases(40, 0xD6A1, |rng| {
        let (sys, seed) = workload(rng);
        let horizon = horizon_for(&sys);
        let graph = DependencyGraph::build(&sys, horizon).unwrap();
        let schedule = DgaSchedule::compute(&sys, horizon).unwrap();
        let n = graph.vertices().len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        let add = |succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, a: usize, b: usize| {
            succs[a].push(b);
            indeg[b] += 1;
        };
        for e in graph.edges() {
            add(&mut succs, &mut indeg, e.from, e.to);
        }
        for chain in chain_vertex_indices(&graph, &schedule) {
            for w in chain.windows(2) {
                add(&mut succs, &mut indeg, w[0], w[1]);
            }
        }
        // Kahn's algorithm must consume every vertex.
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(v) = ready.pop() {
            seen += 1;
            for &s in &succs[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(seen, n, "seed {seed}: combined graph has a cycle");
    });
}

/// Every critical-section vertex is scheduled exactly once, on its own
/// resource's chain.
#[test]
fn every_section_scheduled_exactly_once() {
    cases(40, 0xD6A2, |rng| {
        let (sys, seed) = workload(rng);
        let horizon = horizon_for(&sys);
        let graph = DependencyGraph::build(&sys, horizon).unwrap();
        let schedule = DgaSchedule::compute(&sys, horizon).unwrap();
        assert_eq!(
            schedule.sections(),
            graph.vertices().len(),
            "seed {seed}: chain entries != vertices"
        );
        for (r, chain) in schedule.chains.iter().enumerate() {
            let expected = graph
                .vertices()
                .iter()
                .filter(|v| v.resource.index() == r)
                .count();
            assert_eq!(chain.len(), expected, "seed {seed}: resource {r}");
            // Per job, the chain carries exactly that job's section
            // count on this resource.
            for entry in chain {
                let per_job = chain.iter().filter(|e| e.job == entry.job).count();
                let vertices = graph
                    .vertices()
                    .iter()
                    .filter(|v| v.job == entry.job && v.resource.index() == r)
                    .count();
                assert_eq!(per_job, vertices, "seed {seed}: job {:?}", entry.job);
            }
        }
    });
}

/// No two scheduled sections of the same resource overlap, and the
/// grants respect the chain order in time.
#[test]
fn same_resource_sections_never_overlap() {
    cases(40, 0xD6A3, |rng| {
        let (sys, seed) = workload(rng);
        let schedule = DgaSchedule::compute(&sys, horizon_for(&sys)).unwrap();
        for (r, chain) in schedule.chains.iter().enumerate() {
            for w in chain.windows(2) {
                let (Some(end), Some(start)) = (w[0].end, w[1].start) else {
                    continue;
                };
                assert!(
                    end <= start,
                    "seed {seed}: resource {r} sections overlap: {w:?}"
                );
            }
            for entry in chain {
                if let (Some(s), Some(e)) = (entry.start, entry.end) {
                    assert!(s <= e, "seed {seed}: negative section span {entry:?}");
                }
            }
        }
    });
}

/// A job's sections start in program order.
#[test]
fn intra_job_section_order_is_respected() {
    cases(40, 0xD6A4, |rng| {
        let (sys, seed) = workload(rng);
        let horizon = horizon_for(&sys);
        let graph = DependencyGraph::build(&sys, horizon).unwrap();
        let schedule = DgaSchedule::compute(&sys, horizon).unwrap();
        // Collect (sec_idx, start) per job from the chains.
        let mut per_job: Vec<(JobId, usize, Time)> = Vec::new();
        for (r, chain) in schedule.chains.iter().enumerate() {
            let idx = chain_vertex_indices(&graph, &schedule);
            for (entry, &v) in chain.iter().zip(&idx[r]) {
                if let Some(start) = entry.start {
                    per_job.push((entry.job, graph.vertices()[v].sec_idx, start));
                }
            }
        }
        per_job.sort_by_key(|&(job, sec, _)| (job, sec));
        for w in per_job.windows(2) {
            let (ja, sa, ta) = w[0];
            let (jb, sb, tb) = w[1];
            if ja == jb {
                assert!(
                    sa < sb && ta <= tb,
                    "seed {seed}: job {ja:?} sections out of order"
                );
            }
        }
    });
}

/// Replaying the schedule in the simulator reproduces the offline
/// result exactly: per-task response bounds, completions, misses, the
/// makespan, and grant-for-grant schedule conformance.
#[test]
fn replay_matches_offline_schedule() {
    cases(25, 0xD6A5, |rng| {
        let (sys, seed) = workload(rng);
        let horizon = horizon_for(&sys);
        let schedule = DgaSchedule::compute(&sys, horizon).unwrap();
        let mut sim = Simulator::with_config(
            &sys,
            DgaReplay::from_schedule(schedule.clone()),
            SimConfig::until(horizon.ticks()),
        );
        sim.run();
        // Conformance and mutual exclusion, judged from the recorded run.
        let mut monitor = Monitor::new(&sys, MonitorSpec::default());
        monitor.set_conformance(schedule.expected_grants());
        monitor.replay(sim.trace());
        let fired: Vec<_> = monitor.violations().collect();
        assert!(fired.is_empty(), "seed {seed}: replay breaks {fired:?}");
        let metrics = sim.metrics();
        for (m, b) in metrics.per_task().iter().zip(&schedule.bounds) {
            assert_eq!(m.task, b.task, "seed {seed}");
            assert_eq!(m.completed, b.completed, "seed {seed}: completions");
            assert_eq!(m.misses, b.misses, "seed {seed}: misses");
            assert_eq!(
                (m.completed > 0).then_some(m.max_response),
                b.wcr,
                "seed {seed}: response bound"
            );
        }
        // The replay's last recorded unlock is the offline makespan.
        let observed = sim
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, mpcp_sim::EventKind::Unlocked { .. }))
            .map(|e| e.time)
            .max();
        assert_eq!(observed, schedule.makespan, "seed {seed}: makespan");
    });
}

/// The selection rule executed literally: for every append, rescan all
/// vertices for the selectable one (first section of its job, or its
/// predecessor already appended) with the least `(est, longest first,
/// task, instance)`. Θ(n²), and `min_by_key` keeps the first of equal
/// minima.
fn quadratic_chains(graph: &DependencyGraph, resources: usize) -> Vec<Vec<JobId>> {
    let vertices = graph.vertices();
    let mut done = vec![false; vertices.len()];
    let mut chains = vec![Vec::new(); resources];
    for _ in 0..vertices.len() {
        let pick = (0..vertices.len())
            .filter(|&i| !done[i] && (vertices[i].sec_idx == 0 || done[i - 1]))
            .min_by_key(|&i| {
                let v = &vertices[i];
                (
                    v.est,
                    std::cmp::Reverse(v.duration),
                    v.job.task.index(),
                    v.job.instance,
                )
            })
            .expect("a selectable vertex remains");
        done[pick] = true;
        chains[vertices[pick].resource.index()].push(vertices[pick].job);
    }
    chains
}

/// Differential check of the O(n log n) list scheduler against the
/// quadratic rule it replaced, chain for chain, over `systems` seeded
/// systems of `family` at the sweep's horizon.
fn heap_scheduler_matches_quadratic_rule(family: &WorkloadConfig, systems: u64, seed: u64) {
    cases(systems, seed, |rng| {
        let seed = rng.range_u64(0, 99_999);
        let sys = generate(&family.clone().utilization(rng.range_f64(0.3, 0.75)), seed);
        let horizon = mpcp_dga::default_horizon(&sys);
        let graph = DependencyGraph::build(&sys, horizon).unwrap();
        let schedule = DgaSchedule::from_graph(&sys, &graph, horizon);
        let chains: Vec<Vec<JobId>> = schedule
            .chains
            .iter()
            .map(|c| c.iter().map(|e| e.job).collect())
            .collect();
        assert_eq!(
            chains,
            quadratic_chains(&graph, sys.resources().len()),
            "seed {seed}: {} vertices",
            graph.vertices().len()
        );
    });
}

/// The benchmark's everyday family: 4 processors × 3 tasks.
#[test]
fn heap_scheduler_matches_quadratic_rule_4x3() {
    let family = WorkloadConfig::default()
        .processors(4)
        .tasks_per_processor(3)
        .resources(1, 2)
        .sections(0, 2);
    heap_scheduler_matches_quadratic_rule(&family, 120, 0xD6A6);
}

/// The benchmark's wide family: 8 × 8 tasks, two forced global
/// sections per job (about 2 000 vertices a system).
#[test]
fn heap_scheduler_matches_quadratic_rule_8x8() {
    let family = WorkloadConfig::default()
        .processors(8)
        .tasks_per_processor(8)
        .resources(1, 2)
        .sections(0, 2)
        .global_sections(2)
        .periods(500, 5000);
    heap_scheduler_matches_quadratic_rule(&family, 100, 0xD6A7);
}
