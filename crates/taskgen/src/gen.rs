//! Synthetic system generation.

use crate::rng::{uunifast, Rng};
use mpcp_model::{Body, BodyBuilder, ResourceId, System, TaskDef};

/// Parameters of a synthetic workload.
///
/// Defaults model a small shared-memory multiprocessor: 2 processors,
/// 4 tasks each at 50% total utilization per processor, periods log-
/// uniform in `[100, 10000]`, one local semaphore per processor and two
/// global semaphores, short critical sections (1–10% of `C_i`).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of processors.
    pub processors: usize,
    /// Tasks bound to each processor.
    pub tasks_per_processor: usize,
    /// Total utilization of each processor's tasks (UUniFast split).
    pub utilization_per_processor: f64,
    /// Periods are log-uniform in this inclusive range.
    pub period_range: (u64, u64),
    /// Local semaphores created per processor.
    pub local_resources_per_processor: usize,
    /// Global semaphores created (shared across processors).
    pub global_resources: usize,
    /// Critical sections per task, uniform in this inclusive range.
    pub cs_range: (usize, usize),
    /// Probability a critical section uses a global (vs. local)
    /// semaphore.
    pub global_access_prob: f64,
    /// Force at least this many *global* critical sections per task
    /// (raising [`WorkloadConfig::cs_range`]'s upper end if needed,
    /// bounded only by the WCET budget): the first that many sections
    /// target the global pool unconditionally instead of rolling
    /// [`WorkloadConfig::global_access_prob`]. `0` (the default) keeps
    /// the legacy draw order, so existing seeds generate byte-identical
    /// systems. The multi-gcs regime is where offline dependency-graph
    /// scheduling differs most from the online protocols.
    pub min_global_sections: usize,
    /// Each section's length as a fraction of `C_i`, uniform in this
    /// range.
    pub cs_len_fraction: (f64, f64),
    /// Probability a task gets one explicit self-suspension between
    /// sections.
    pub suspension_prob: f64,
    /// Probability a global critical section nests a second global
    /// semaphore (kept 0 for the base protocol's assumptions).
    pub nested_global_prob: f64,
    /// Semaphore locality: `0` (the default) creates one system-wide
    /// pool of [`WorkloadConfig::global_resources`] semaphores; `w > 0`
    /// groups processors into contiguous clusters of `w` and creates
    /// that many global semaphores *per cluster*, touched only from
    /// inside the cluster. Clustered sharing models sessions whose
    /// coupling is local — an edit then only perturbs its own cluster,
    /// which is what makes incremental re-analysis pay off.
    pub cluster_width: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            processors: 2,
            tasks_per_processor: 4,
            utilization_per_processor: 0.5,
            period_range: (100, 10_000),
            local_resources_per_processor: 1,
            global_resources: 2,
            cs_range: (0, 3),
            global_access_prob: 0.5,
            min_global_sections: 0,
            cs_len_fraction: (0.01, 0.1),
            suspension_prob: 0.0,
            nested_global_prob: 0.0,
            cluster_width: 0,
        }
    }
}

impl WorkloadConfig {
    /// Sets the processor count.
    pub fn processors(mut self, n: usize) -> Self {
        self.processors = n;
        self
    }

    /// Sets the tasks per processor.
    pub fn tasks_per_processor(mut self, n: usize) -> Self {
        self.tasks_per_processor = n;
        self
    }

    /// Sets the per-processor utilization.
    pub fn utilization(mut self, u: f64) -> Self {
        self.utilization_per_processor = u;
        self
    }

    /// Sets the period range.
    pub fn periods(mut self, lo: u64, hi: u64) -> Self {
        self.period_range = (lo, hi);
        self
    }

    /// Sets the resource pool sizes.
    pub fn resources(mut self, local_per_proc: usize, global: usize) -> Self {
        self.local_resources_per_processor = local_per_proc;
        self.global_resources = global;
        self
    }

    /// Sets the per-task critical-section count range.
    pub fn sections(mut self, lo: usize, hi: usize) -> Self {
        self.cs_range = (lo, hi);
        self
    }

    /// Sets the probability that a section targets a global semaphore.
    pub fn global_access(mut self, p: f64) -> Self {
        self.global_access_prob = p;
        self
    }

    /// Forces at least `n` global critical sections per task (see
    /// [`WorkloadConfig::min_global_sections`]).
    pub fn global_sections(mut self, n: usize) -> Self {
        self.min_global_sections = n;
        self
    }

    /// Sets the section-length fraction range.
    pub fn section_len(mut self, lo: f64, hi: f64) -> Self {
        self.cs_len_fraction = (lo, hi);
        self
    }

    /// Sets the self-suspension probability.
    pub fn suspensions(mut self, p: f64) -> Self {
        self.suspension_prob = p;
        self
    }

    /// Sets the nested-global probability.
    pub fn nesting(mut self, p: f64) -> Self {
        self.nested_global_prob = p;
        self
    }

    /// Groups processors into clusters of `width` with per-cluster
    /// global semaphore pools (`0` restores one system-wide pool).
    pub fn clusters(mut self, width: usize) -> Self {
        self.cluster_width = width;
        self
    }
}

/// Generates a system from `config`, deterministically from `seed`.
///
/// Priorities are rate-monotonic. Every task's WCET equals its UUniFast
/// share (rounded, minimum 1 tick); critical sections are carved out of
/// that WCET, so utilization is preserved.
///
/// # Panics
///
/// Panics if the configuration is degenerate (no processors or tasks,
/// empty period range, or a section requested with no resources to use).
pub fn generate(config: &WorkloadConfig, seed: u64) -> System {
    assert!(config.processors > 0, "no processors");
    assert!(config.tasks_per_processor > 0, "no tasks");
    assert!(
        config.period_range.0 > 0 && config.period_range.0 <= config.period_range.1,
        "bad period range"
    );
    let needs_resources = config.cs_range.1 > 0;
    let has_resources = config.local_resources_per_processor > 0 || config.global_resources > 0;
    assert!(
        !needs_resources || has_resources,
        "sections requested but no resources configured"
    );

    let mut rng = Rng::new(seed);
    let mut b = System::builder();
    let procs = b.add_processors(config.processors);
    let mut local_pools: Vec<Vec<ResourceId>> = Vec::new();
    for p in 0..config.processors {
        local_pools.push(
            (0..config.local_resources_per_processor)
                .map(|i| b.add_resource(format!("L{p}.{i}")))
                .collect(),
        );
    }
    let global_pools: Vec<Vec<ResourceId>> = if config.cluster_width == 0 {
        vec![(0..config.global_resources)
            .map(|i| b.add_resource(format!("G{i}")))
            .collect()]
    } else {
        (0..config.processors.div_ceil(config.cluster_width))
            .map(|c| {
                (0..config.global_resources)
                    .map(|i| b.add_resource(format!("G{c}.{i}")))
                    .collect()
            })
            .collect()
    };

    for (pi, &proc) in procs.iter().enumerate() {
        let global_pool = &global_pools[pi.checked_div(config.cluster_width).unwrap_or(0)];
        let utils = uunifast(
            &mut rng,
            config.tasks_per_processor,
            config.utilization_per_processor,
        );
        for (ti, u) in utils.into_iter().enumerate() {
            let period = rng.log_uniform(config.period_range.0, config.period_range.1);
            let wcet = ((u * period as f64).round() as u64).max(1);
            let body = build_body(&mut rng, config, wcet, &local_pools[pi], global_pool);
            b.add_task(
                TaskDef::new(format!("t{pi}.{ti}"), proc)
                    .period(period)
                    .body(body),
            );
        }
    }
    b.build().expect("generated systems are valid")
}

/// Generates a Poisson arrival trace: exponential inter-arrival times
/// with the given mean, within `[0, horizon)`. Deterministic from `rng`.
///
/// # Panics
///
/// Panics if `mean_interarrival` is not positive.
#[track_caller]
pub fn poisson_arrivals(rng: &mut Rng, mean_interarrival: f64, horizon: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = rng.exponential(mean_interarrival);
    while t < horizon {
        out.push(t);
        t += rng.exponential(mean_interarrival);
    }
    out
}

fn build_body(
    rng: &mut Rng,
    config: &WorkloadConfig,
    wcet: u64,
    locals: &[ResourceId],
    globals: &[ResourceId],
) -> Body {
    let max_sections = config.cs_range.1.min(wcet as usize);
    let min_sections = config.cs_range.0.min(max_sections);
    // The range draw always happens (keeps legacy streams identical);
    // the knob only raises its floor — past cs_range.1 if need be,
    // bounded by the WCET budget alone.
    let k = rng
        .range_usize(min_sections, max_sections)
        .max(config.min_global_sections.min(wcet as usize));

    // Pick section resources and lengths out of the WCET budget.
    let mut sections: Vec<(ResourceId, u64, Option<ResourceId>)> = Vec::new();
    let mut cs_budget = wcet;
    for i in 0..k {
        if cs_budget == 0 {
            break;
        }
        // Knob-on only: the first min_global_sections sections skip the
        // global/local roll and target the global pool directly.
        let forced_global = i < config.min_global_sections && !globals.is_empty();
        let use_global = forced_global
            || !globals.is_empty() && (locals.is_empty() || rng.chance(config.global_access_prob));
        let res = if use_global {
            *rng.choice(globals)
        } else {
            *rng.choice(locals)
        };
        let frac = rng.range_f64(config.cs_len_fraction.0, config.cs_len_fraction.1);
        let len = ((wcet as f64 * frac).round() as u64).clamp(1, cs_budget);
        if cs_budget < len {
            break;
        }
        cs_budget -= len;
        // Possibly nest a different global semaphore (ordered by index to
        // avoid deadlocks).
        let nested = if use_global && len >= 2 && rng.chance(config.nested_global_prob) {
            globals
                .iter()
                .copied()
                .filter(|g| g.index() > res.index())
                .min_by_key(|g| g.index())
        } else {
            None
        };
        sections.push((res, len, nested));
    }

    // Interleave compute chunks around the sections.
    let chunks = sections.len() + 1;
    let mut remaining = cs_budget;
    let mut body = Body::builder();
    let suspend_at = if config.suspension_prob > 0.0 && rng.chance(config.suspension_prob) {
        Some(rng.range_usize(0, sections.len()))
    } else {
        None
    };
    for (i, (res, len, nested)) in sections.into_iter().enumerate() {
        let chunk = remaining / (chunks - i) as u64;
        remaining -= chunk;
        if chunk > 0 {
            body = body.compute(chunk);
        }
        if suspend_at == Some(i) {
            body = body.suspend(rng.range_u64(1, 10));
        }
        body = add_section(body, res, len, nested);
    }
    if remaining > 0 {
        body = body.compute(remaining);
    }
    body.build()
}

fn add_section(
    body: BodyBuilder,
    res: ResourceId,
    len: u64,
    nested: Option<ResourceId>,
) -> BodyBuilder {
    match nested {
        Some(inner) => body.critical(res, |c| {
            let pre = len / 2;
            let post = len - pre - 1;
            let mut c = if pre > 0 { c.compute(pre) } else { c };
            c = c.critical(inner, |n| n.compute(1));
            if post > 0 {
                c = c.compute(post);
            }
            c
        }),
        None => body.critical(res, |c| c.compute(len)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::Scope;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::default();
        let a = generate(&cfg, 123);
        let b = generate(&cfg, 123);
        assert_eq!(a, b);
        let c = generate(&cfg, 124);
        assert_ne!(a, c);
    }

    #[test]
    fn utilization_close_to_target() {
        let cfg = WorkloadConfig::default()
            .processors(3)
            .tasks_per_processor(5)
            .utilization(0.6);
        let sys = generate(&cfg, 7);
        assert_eq!(sys.tasks().len(), 15);
        for p in sys.processors() {
            let u = sys.utilization_on(p.id());
            // Rounding C_i to integers distorts utilization slightly.
            assert!((u - 0.6).abs() < 0.15, "{u}");
        }
    }

    #[test]
    fn scopes_match_pools() {
        let cfg = WorkloadConfig::default()
            .resources(1, 2)
            .sections(1, 3)
            .global_access(0.5);
        let sys = generate(&cfg, 99);
        let info = sys.info();
        for (i, u) in info.all_usage().iter().enumerate() {
            let name = sys.resources()[i].name();
            match u.scope {
                Scope::Local(p) => {
                    // An "L" resource must be local to its own processor;
                    // a "G" resource may degrade to local when only one
                    // processor happened to use it.
                    if name.starts_with('L') {
                        assert!(
                            name.starts_with(&format!("L{}", p.index())),
                            "{name} local to wrong processor"
                        );
                    }
                }
                Scope::Global => assert!(name.starts_with('G'), "{name} global"),
                // A pool resource can also end up unused; that is fine.
                Scope::Unused => {}
            }
            // A "G" resource used from one processor only is reported
            // Local — allowed; an "L" resource can never be global.
            if name.starts_with('L') {
                assert!(!u.scope.is_global(), "{name} must not be global");
            }
        }
    }

    #[test]
    fn wcet_is_positive_and_periods_in_range() {
        let cfg = WorkloadConfig::default().periods(50, 500);
        let sys = generate(&cfg, 5);
        for t in sys.tasks() {
            assert!(t.wcet().ticks() >= 1);
            assert!((50..=500).contains(&t.period().ticks()));
            assert!(t.wcet() <= t.period() || t.utilization() > 1.0);
        }
    }

    #[test]
    fn no_sections_when_range_is_zero() {
        let cfg = WorkloadConfig::default().sections(0, 0);
        let sys = generate(&cfg, 1);
        for t in sys.tasks() {
            assert!(t.body().critical_sections().is_empty());
        }
    }

    #[test]
    fn nesting_obeys_resource_order() {
        let cfg = WorkloadConfig::default()
            .resources(0, 4)
            .sections(1, 3)
            .global_access(1.0)
            .nesting(1.0);
        let sys = generate(&cfg, 42);
        let mut saw_nesting = false;
        for t in sys.tasks() {
            for cs in t.body().critical_sections() {
                for inner in &cs.nested {
                    saw_nesting = true;
                    assert!(inner.index() > cs.resource.index());
                }
            }
        }
        assert!(saw_nesting, "nesting=1.0 should produce nested sections");
    }

    #[test]
    fn suspensions_appear_when_enabled() {
        let cfg = WorkloadConfig::default().suspensions(1.0).sections(1, 2);
        let sys = generate(&cfg, 8);
        assert!(sys.tasks().iter().any(|t| t.body().suspension_count() > 0));
    }

    #[test]
    fn clustered_globals_stay_inside_their_cluster() {
        let cfg = WorkloadConfig::default()
            .processors(8)
            .resources(1, 2)
            .sections(1, 3)
            .global_access(0.8)
            .clusters(2);
        let sys = generate(&cfg, 11);
        let info = sys.info();
        let mut clustered = 0;
        for (i, u) in info.all_usage().iter().enumerate() {
            let name = sys.resources()[i].name();
            let Some(rest) = name.strip_prefix('G') else {
                continue;
            };
            let cluster: usize = rest.split('.').next().unwrap().parse().unwrap();
            for &t in &u.users {
                let p = sys.task(t).processor().index();
                assert_eq!(p / 2, cluster, "{name} used from outside its cluster");
            }
            clustered += u.users.is_empty() as usize ^ 1;
        }
        assert!(
            clustered >= 2,
            "expected used global semaphores per cluster"
        );
    }

    /// Golden structural pin for seed 42 under the default (knob-off)
    /// config: the multi-gcs knob must not perturb legacy RNG streams,
    /// so any change here means existing sweep seeds no longer
    /// reproduce.
    #[test]
    fn legacy_stream_is_pinned() {
        let sys = generate(&WorkloadConfig::default(), 42);
        let got: Vec<(String, u64, u64, usize)> = sys
            .tasks()
            .iter()
            .map(|t| {
                (
                    t.name().to_owned(),
                    t.period().ticks(),
                    t.wcet().ticks(),
                    t.body().critical_sections().len(),
                )
            })
            .collect();
        let want = [
            ("t0.0", 2525, 84, 3),
            ("t0.1", 1236, 251, 2),
            ("t0.2", 4282, 18, 0),
            ("t0.3", 712, 185, 3),
            ("t1.0", 5088, 660, 2),
            ("t1.1", 305, 30, 3),
            ("t1.2", 8575, 467, 2),
            ("t1.3", 109, 24, 1),
        ];
        let want: Vec<(String, u64, u64, usize)> = want
            .into_iter()
            .map(|(n, p, c, k)| (n.to_owned(), p, c, k))
            .collect();
        assert_eq!(got, want);
        // The knob at 0 is exactly the legacy path.
        assert_eq!(
            sys,
            generate(&WorkloadConfig::default().global_sections(0), 42)
        );
    }

    #[test]
    fn multi_gcs_knob_forces_global_sections() {
        let cfg = WorkloadConfig::default()
            .resources(1, 2)
            .sections(0, 1)
            .global_access(0.0)
            .global_sections(3);
        let sys = generate(&cfg, 42);
        let mut saw_multi = false;
        for t in sys.tasks() {
            let globals = t
                .body()
                .critical_sections()
                .iter()
                .filter(|cs| sys.resource(cs.resource).name().starts_with('G'))
                .count();
            // Sections each take ≤ 10% of C_i, so tasks with a real
            // budget must honour the floor despite cs_range = (0, 1)
            // and a zero global-access probability.
            if t.wcet().ticks() >= 10 {
                assert!(globals >= 3, "{}: {globals} global sections", t.name());
            }
            saw_multi |= globals > 1;
        }
        assert!(saw_multi, "knob produced no multi-gcs task");
        // Same knob, same seed: still deterministic.
        assert_eq!(sys, generate(&cfg, 42));
    }

    #[test]
    #[should_panic(expected = "no resources")]
    fn sections_without_resources_panic() {
        let cfg = WorkloadConfig::default().resources(0, 0).sections(1, 2);
        generate(&cfg, 1);
    }
}
