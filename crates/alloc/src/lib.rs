//! Task-to-processor allocation with synchronization awareness.
//!
//! The protocol assumes tasks are statically bound to processors (§3.2);
//! §6 notes that a good allocation "would attempt to allocate tasks with
//! a high degree of resource sharing to the same processor(s)", because
//! co-locating sharers turns global semaphores into local ones — and local
//! blocking (plain PCP) is far cheaper than remote blocking.
//!
//! This crate rebinds an existing [`System`]'s tasks onto a processor
//! count using classic bin-packing heuristics plus the resource-affinity
//! clustering the paper sketches, and evaluates the result with the MPCP
//! blocking analysis.
//!
//! # Example
//!
//! ```
//! use mpcp_alloc::{allocate, Heuristic};
//! use mpcp_taskgen::{generate, WorkloadConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = generate(&WorkloadConfig::default().utilization(0.3), 7);
//! let result = allocate(&system, 2, Heuristic::ResourceAffinity)?;
//! assert_eq!(result.system.processors().len(), 2);
//! println!("global semaphores after allocation: {}", result.global_resources);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mpcp_analysis::{liu_layland_bound, Analysis, BlockingConfig};
use mpcp_model::{System, TaskDef, TaskId};
use std::error::Error;
use std::fmt;

/// Allocation heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Heuristic {
    /// First-fit decreasing by utilization.
    FirstFitDecreasing,
    /// Best-fit decreasing (most loaded bin that still fits).
    BestFitDecreasing,
    /// Worst-fit decreasing (least loaded bin), which balances load.
    WorstFitDecreasing,
    /// The paper's §6 idea: cluster tasks by shared resources, place each
    /// cluster on one processor (emptiest first), splitting oversized
    /// clusters first-fit.
    ResourceAffinity,
}

impl Heuristic {
    /// All heuristics.
    pub const ALL: [Heuristic; 4] = [
        Heuristic::FirstFitDecreasing,
        Heuristic::BestFitDecreasing,
        Heuristic::WorstFitDecreasing,
        Heuristic::ResourceAffinity,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::FirstFitDecreasing => "ffd",
            Heuristic::BestFitDecreasing => "bfd",
            Heuristic::WorstFitDecreasing => "wfd",
            Heuristic::ResourceAffinity => "affinity",
        }
    }
}

impl fmt::Display for Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why allocation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AllocError {
    /// A task could not be placed without exceeding the per-processor
    /// capacity test.
    NoCapacity {
        /// The task that did not fit.
        task: TaskId,
        /// Its utilization.
        utilization: f64,
    },
    /// No processors were requested.
    NoProcessors,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NoCapacity { task, utilization } => write!(
                f,
                "task {task} (utilization {utilization:.3}) does not fit on any processor"
            ),
            AllocError::NoProcessors => write!(f, "zero processors requested"),
        }
    }
}

impl Error for AllocError {}

/// Outcome of an allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// The rebound system.
    pub system: System,
    /// Utilization of each processor after binding.
    pub per_processor_utilization: Vec<f64>,
    /// Number of semaphores that remained global.
    pub global_resources: usize,
    /// Whether Theorem 3 (with MPCP blocking) accepts the result. `false`
    /// also when the rebound system violates the analysis assumptions.
    pub schedulable: bool,
}

/// Rebinds `system`'s tasks onto `processors` processors using
/// `heuristic`.
///
/// The bin-capacity test during placement is the Liu & Layland bound for
/// the bin's task count (blocking terms are evaluated on the final
/// system, not during placement). Task priorities, bodies and periods are
/// preserved.
///
/// # Errors
///
/// [`AllocError::NoCapacity`] if some task cannot fit;
/// [`AllocError::NoProcessors`] if `processors` is zero.
pub fn allocate(
    system: &System,
    processors: usize,
    heuristic: Heuristic,
) -> Result<Allocation, AllocError> {
    if processors == 0 {
        return Err(AllocError::NoProcessors);
    }
    let assignment = match heuristic {
        Heuristic::FirstFitDecreasing => pack(system, processors, Fit::First)?,
        Heuristic::BestFitDecreasing => pack(system, processors, Fit::Best)?,
        Heuristic::WorstFitDecreasing => pack(system, processors, Fit::Worst)?,
        Heuristic::ResourceAffinity => affinity(system, processors)?,
    };
    Ok(finish(system, processors, assignment))
}

#[derive(Clone, Copy)]
enum Fit {
    First,
    Best,
    Worst,
}

struct Bins {
    util: Vec<f64>,
    count: Vec<usize>,
}

impl Bins {
    fn new(m: usize) -> Self {
        Bins {
            util: vec![0.0; m],
            count: vec![0; m],
        }
    }

    fn fits(&self, bin: usize, u: f64) -> bool {
        self.util[bin] + u <= liu_layland_bound(self.count[bin] + 1) + 1e-12
    }

    fn place(&mut self, bin: usize, u: f64) {
        self.util[bin] += u;
        self.count[bin] += 1;
    }

    fn pick(&self, u: f64, fit: Fit) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.util.len()).filter(|&b| self.fits(b, u)).collect();
        match fit {
            Fit::First => candidates.first().copied(),
            Fit::Best => candidates
                .into_iter()
                .max_by(|&a, &b| self.util[a].partial_cmp(&self.util[b]).unwrap()),
            Fit::Worst => candidates
                .into_iter()
                .min_by(|&a, &b| self.util[a].partial_cmp(&self.util[b]).unwrap()),
        }
    }
}

fn by_utilization_desc(system: &System) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = system.tasks().iter().map(mpcp_model::Task::id).collect();
    ids.sort_by(|a, b| {
        system
            .task(*b)
            .utilization()
            .partial_cmp(&system.task(*a).utilization())
            .unwrap()
            .then(a.cmp(b))
    });
    ids
}

fn pack(system: &System, m: usize, fit: Fit) -> Result<Vec<usize>, AllocError> {
    let mut bins = Bins::new(m);
    let mut assignment = vec![0usize; system.tasks().len()];
    for id in by_utilization_desc(system) {
        let u = system.task(id).utilization();
        let bin = bins.pick(u, fit).ok_or(AllocError::NoCapacity {
            task: id,
            utilization: u,
        })?;
        bins.place(bin, u);
        assignment[id.index()] = bin;
    }
    Ok(assignment)
}

fn affinity(system: &System, m: usize) -> Result<Vec<usize>, AllocError> {
    // Union-find of tasks over shared resources.
    let n = system.tasks().len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    let info = system.info();
    for usage in info.all_usage() {
        for w in usage.users.windows(2) {
            let a = find(&mut parent, w[0].index());
            let b = find(&mut parent, w[1].index());
            parent[a] = b;
        }
    }
    // Clusters sorted by total utilization, descending.
    let mut clusters: std::collections::HashMap<usize, Vec<TaskId>> = Default::default();
    for t in system.tasks() {
        let root = find(&mut parent, t.id().index());
        clusters.entry(root).or_default().push(t.id());
    }
    let mut clusters: Vec<Vec<TaskId>> = clusters.into_values().collect();
    for c in &mut clusters {
        c.sort_by(|a, b| {
            system
                .task(*b)
                .utilization()
                .partial_cmp(&system.task(*a).utilization())
                .unwrap()
                .then(a.cmp(b))
        });
    }
    clusters.sort_by(|a, b| {
        let ua: f64 = a.iter().map(|t| system.task(*t).utilization()).sum();
        let ub: f64 = b.iter().map(|t| system.task(*t).utilization()).sum();
        ub.partial_cmp(&ua).unwrap().then(a[0].cmp(&b[0]))
    });

    let mut bins = Bins::new(m);
    let mut assignment = vec![0usize; n];
    for cluster in clusters {
        // Try to place the whole cluster on the emptiest processor that
        // takes it.
        let whole = (0..m)
            .filter(|&b| {
                let mut probe_util = bins.util[b];
                let mut probe_count = bins.count[b];
                cluster.iter().all(|t| {
                    let u = system.task(*t).utilization();
                    let ok = probe_util + u <= liu_layland_bound(probe_count + 1) + 1e-12;
                    probe_util += u;
                    probe_count += 1;
                    ok
                })
            })
            .min_by(|&a, &b| bins.util[a].partial_cmp(&bins.util[b]).unwrap());
        if let Some(bin) = whole {
            for t in &cluster {
                bins.place(bin, system.task(*t).utilization());
                assignment[t.index()] = bin;
            }
        } else {
            // Split: place members first-fit.
            for t in &cluster {
                let u = system.task(*t).utilization();
                let bin = bins.pick(u, Fit::First).ok_or(AllocError::NoCapacity {
                    task: *t,
                    utilization: u,
                })?;
                bins.place(bin, u);
                assignment[t.index()] = bin;
            }
        }
    }
    Ok(assignment)
}

fn finish(system: &System, m: usize, assignment: Vec<usize>) -> Allocation {
    let mut b = System::builder();
    let procs = b.add_processors(m);
    for r in system.resources() {
        b.add_resource(r.name());
    }
    for t in system.tasks() {
        b.add_task(
            TaskDef::new(t.name(), procs[assignment[t.id().index()]])
                .period(t.period().ticks())
                .deadline(t.deadline().ticks())
                .offset(t.offset().ticks())
                .priority(t.priority().level())
                .body(t.body().clone()),
        );
    }
    let rebound = b.build().expect("rebinding preserves validity");
    let per_processor_utilization = (0..m)
        .map(|p| rebound.utilization_on(mpcp_model::ProcessorId::from_index(p as u32)))
        .collect();
    let info = rebound.info();
    let global_resources = info.global_resources().len();
    let schedulable = Analysis::Mpcp
        .bounds(&rebound, BlockingConfig::paper())
        .is_ok_and(|set| set.schedulable());
    Allocation {
        system: rebound,
        per_processor_utilization,
        global_resources,
        schedulable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, ProcessorId};
    use mpcp_taskgen::{generate, WorkloadConfig};

    fn sharing_system() -> System {
        // Two pairs of sharers; affinity should co-locate each pair.
        let mut b = System::builder();
        let p0 = b.add_processor("P0");
        let sa = b.add_resource("SA");
        let sb = b.add_resource("SB");
        for (i, (res, period)) in [(sa, 100), (sa, 110), (sb, 120), (sb, 130)]
            .iter()
            .enumerate()
        {
            b.add_task(
                TaskDef::new(format!("t{i}"), p0).period(*period).body(
                    Body::builder()
                        .compute(10)
                        .critical(*res, |c| c.compute(2))
                        .build(),
                ),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn affinity_localizes_shared_resources() {
        let sys = sharing_system();
        let alloc = allocate(&sys, 2, Heuristic::ResourceAffinity).unwrap();
        assert_eq!(alloc.global_resources, 0);
        assert_eq!(alloc.system.processors().len(), 2);
        assert!(alloc.schedulable);
    }

    #[test]
    fn wfd_balances_load() {
        let sys = sharing_system();
        let alloc = allocate(&sys, 2, Heuristic::WorstFitDecreasing).unwrap();
        let u = &alloc.per_processor_utilization;
        assert!((u[0] - u[1]).abs() < 0.1, "{u:?}");
    }

    #[test]
    fn ffd_fills_in_order() {
        let sys = sharing_system();
        let alloc = allocate(&sys, 4, Heuristic::FirstFitDecreasing).unwrap();
        assert!(alloc.per_processor_utilization[0] > 0.0);
        assert_eq!(alloc.per_processor_utilization[3], 0.0);
    }

    #[test]
    fn capacity_errors_are_reported() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        for i in 0..3 {
            b.add_task(
                TaskDef::new(format!("t{i}"), p)
                    .period(10)
                    .body(Body::builder().compute(9).build()),
            );
        }
        let sys = b.build().unwrap();
        assert!(matches!(
            allocate(&sys, 2, Heuristic::FirstFitDecreasing),
            Err(AllocError::NoCapacity { .. })
        ));
        assert!(matches!(
            allocate(&sys, 0, Heuristic::FirstFitDecreasing),
            Err(AllocError::NoProcessors)
        ));
    }

    #[test]
    fn priorities_and_bodies_survive_rebinding() {
        let sys = sharing_system();
        let alloc = allocate(&sys, 2, Heuristic::BestFitDecreasing).unwrap();
        for (orig, new) in sys.tasks().iter().zip(alloc.system.tasks()) {
            assert_eq!(orig.priority(), new.priority());
            assert_eq!(orig.body(), new.body());
            assert_eq!(orig.period(), new.period());
        }
    }

    #[test]
    fn affinity_never_worse_on_global_count_for_generated_systems() {
        for seed in 0..10u64 {
            let sys = generate(
                &WorkloadConfig::default()
                    .processors(4)
                    .tasks_per_processor(3)
                    .utilization(0.3)
                    .resources(0, 4),
                seed,
            );
            let aff = allocate(&sys, 4, Heuristic::ResourceAffinity);
            let ffd = allocate(&sys, 4, Heuristic::FirstFitDecreasing);
            if let (Ok(aff), Ok(ffd)) = (aff, ffd) {
                assert!(
                    aff.global_resources <= ffd.global_resources,
                    "seed {seed}: affinity {} > ffd {}",
                    aff.global_resources,
                    ffd.global_resources
                );
            }
        }
    }

    #[test]
    fn utilization_vector_matches_binding() {
        let sys = sharing_system();
        let alloc = allocate(&sys, 2, Heuristic::ResourceAffinity).unwrap();
        for (p, &u) in alloc.per_processor_utilization.iter().enumerate() {
            let expect = alloc
                .system
                .utilization_on(ProcessorId::from_index(p as u32));
            assert!((u - expect).abs() < 1e-12);
        }
    }
}
