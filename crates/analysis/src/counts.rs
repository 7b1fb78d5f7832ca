//! Derived per-task facts shared by the blocking analyses.

use crate::depgraph::DirtySet;
use crate::error::AnalysisError;
use mpcp_core::{CeilingTable, GcsPriorities};
use mpcp_model::{
    CriticalSection, Dur, Priority, ProcessorId, ResourceId, ResourceUsage, Segment, System, TaskId,
};

/// Facts about one task used by the §5.1 factors. Section lists borrow
/// from the system's cached [`mpcp_model::SystemInfo`].
#[derive(Debug, Clone)]
pub(crate) struct TaskFacts<'a> {
    pub id: TaskId,
    pub proc: ProcessorId,
    pub prio: Priority,
    pub period: Dur,
    pub wcet: Dur,
    /// `NC_i`: number of outermost global critical sections per job.
    pub nc: usize,
    /// Number of explicit self-suspensions per job.
    pub n_susp: usize,
    /// Outermost global critical sections.
    pub gcs: &'a [CriticalSection],
    /// Outermost local critical sections.
    pub lcs: &'a [CriticalSection],
    /// Global resources used (sorted, deduplicated).
    pub global_resources: &'a [ResourceId],
    /// Longest outermost section on any resource (FMLP+'s `s_max`).
    pub s_max: Dur,
}

/// Precomputed facts for a whole system, with the indices the blocking
/// terms walk: a task's processor mates, the users of a semaphore, and
/// per processor the sum of `s_max`. Every term is a `Dur` sum, maximum
/// or minimum over such a neighbourhood, so its value does not depend
/// on the visiting order.
#[derive(Debug, Clone)]
pub(crate) struct Facts<'a> {
    pub tasks: Vec<TaskFacts<'a>>,
    pub ceilings: CeilingTable,
    pub gcs_pri: GcsPriorities,
    /// Task indices grouped by processor, each group in decreasing
    /// priority order; processor `p` owns
    /// `by_proc[proc_start[p]..proc_start[p + 1]]`.
    by_proc: Vec<u32>,
    proc_start: Vec<u32>,
    /// Per processor, the sum of its tasks' [`TaskFacts::s_max`].
    s_max_sum: Vec<Dur>,
    /// Per-resource usage from [`mpcp_model::SystemInfo`]: `users` lists
    /// every task with a section on the resource.
    usage: &'a [ResourceUsage],
    /// Task bitsets of `words` words (task `t` is bit `t % 64` of word
    /// `t / 64`): global resource `r`'s users at `user_bits[r * words..]`,
    /// processor `p`'s tasks at `proc_bits[p * words..]`.
    words: usize,
    user_bits: Vec<u64>,
    proc_bits: Vec<u64>,
    /// Entry `m` from `longest_start[r]`: the longest section on global
    /// `r` of its `m` lowest-priority users (`m` up to all of them).
    longest_low: Vec<Dur>,
    longest_start: Vec<u32>,
}

impl<'a> Facts<'a> {
    /// Computes facts, validating the base-protocol assumptions (§4.2:
    /// non-nested gcs's; suspensions outside critical sections).
    pub fn compute(system: &'a System) -> Result<Facts<'a>, AnalysisError> {
        Facts::compute_assuming_clean(system, &DirtySet::full(), false)
    }

    /// [`Facts::compute`], but validating only the tasks `dirty` names
    /// (all of them when `dirty.full`), and when `flat` also refusing
    /// any nested section, local or global. Sound when every other task
    /// was validated in a previous successful compute and is
    /// structurally unchanged — which is exactly what a [`DirtySet`]
    /// certifies — and then returns the same result (including the same
    /// first offender) the full validation would.
    pub fn compute_assuming_clean(
        system: &'a System,
        dirty: &DirtySet,
        flat: bool,
    ) -> Result<Facts<'a>, AnalysisError> {
        let info = system.info();
        // Ordered passes, filtered the same way, so the first error
        // reported matches a full validation byte for byte: clean tasks
        // cannot offend, and within each class the first offender by id
        // is found either way.
        let validated = |t: &&mpcp_model::Task| dirty.full || dirty.tasks.contains(t.name());
        let sections = |t: &mpcp_model::Task| info.task_use(t.id()).sections.iter();
        for t in system.tasks().iter().filter(validated) {
            if sections(t).any(|cs| {
                info.scope(cs.resource).is_global()
                    && (!cs.nested.is_empty() || !cs.enclosing.is_empty())
            }) {
                return Err(AnalysisError::NestedGlobalSections { task: t.id() });
            }
        }
        for t in system.tasks().iter().filter(validated) {
            if suspends_inside_cs(t.body().segments(), false) {
                return Err(AnalysisError::SuspensionInCriticalSection { task: t.id() });
            }
        }
        for t in system.tasks().iter().filter(validated).filter(|_| flat) {
            if sections(t).any(|cs| !cs.nested.is_empty() || !cs.enclosing.is_empty()) {
                return Err(AnalysisError::NestedGlobalSections { task: t.id() });
            }
        }
        let tasks: Vec<TaskFacts<'a>> = system
            .tasks()
            .iter()
            .map(|t| {
                let tu = info.task_use(t.id());
                TaskFacts {
                    id: t.id(),
                    proc: t.processor(),
                    prio: t.priority(),
                    period: t.period(),
                    wcet: t.wcet(),
                    nc: tu.gcs_count(),
                    n_susp: tu.suspension_count,
                    gcs: &tu.global_sections,
                    lcs: &tu.local_sections,
                    global_resources: &tu.global_resources,
                    s_max: (tu.global_sections.iter())
                        .chain(&tu.local_sections)
                        .map(|cs| cs.duration)
                        .max()
                        .unwrap_or(Dur::ZERO),
                }
            })
            .collect();
        let mut by_proc: Vec<u32> = (0..tasks.len() as u32).collect();
        by_proc.sort_unstable_by_key(|&i| {
            let t = &tasks[i as usize];
            (t.proc, std::cmp::Reverse(t.prio))
        });
        let n_procs = system.processors().len();
        let words = tasks.len().div_ceil(64);
        let mut proc_start = vec![0u32; n_procs + 1];
        let mut s_max_sum = vec![Dur::ZERO; n_procs];
        let mut proc_bits = vec![0u64; n_procs * words];
        for t in &tasks {
            proc_start[t.proc.index() + 1] += 1;
            s_max_sum[t.proc.index()] += t.s_max;
            proc_bits[t.proc.index() * words + t.id.index() / 64] |= 1 << (t.id.index() % 64);
        }
        for p in 0..n_procs {
            proc_start[p + 1] += proc_start[p];
        }
        let usage = info.all_usage();
        let mut user_bits = vec![0u64; usage.len() * words];
        let mut longest_low = Vec::with_capacity(usage.iter().map(|u| u.users.len() + 1).sum());
        let mut longest_start = Vec::with_capacity(usage.len());
        for u in usage {
            longest_start.push(longest_low.len() as u32);
            let mut longest = Dur::ZERO;
            longest_low.push(longest);
            for &t in u.users.iter().rev().filter(|_| u.scope.is_global()) {
                user_bits[u.resource.index() * words + t.index() / 64] |= 1 << (t.index() % 64);
                let on_u = (tasks[t.index()].gcs.iter()).filter(|cs| cs.resource == u.resource);
                longest = on_u.map(|cs| cs.duration).fold(longest, Dur::max);
                longest_low.push(longest);
            }
        }
        Ok(Facts {
            tasks,
            ceilings: CeilingTable::compute(system),
            gcs_pri: GcsPriorities::compute(system),
            by_proc,
            proc_start,
            s_max_sum,
            usage,
            words,
            user_bits,
            proc_bits,
            longest_low,
            longest_start,
        })
    }

    /// Indices of the tasks bound to `proc`, in decreasing priority order.
    fn mates(&self, proc: ProcessorId) -> &[u32] {
        let p = proc.index();
        &self.by_proc[self.proc_start[p] as usize..self.proc_start[p + 1] as usize]
    }

    fn pick<'b>(&'b self, indices: &'b [u32]) -> impl Iterator<Item = &'b TaskFacts<'a>> {
        indices.iter().map(move |&i| &self.tasks[i as usize])
    }

    /// Tasks bound to `proc`, in decreasing priority order.
    pub fn on_processor<'b>(
        &'b self,
        proc: ProcessorId,
    ) -> impl Iterator<Item = &'b TaskFacts<'a>> {
        self.pick(self.mates(proc))
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.s_max_sum.len()
    }

    /// Sum of [`TaskFacts::s_max`] over the tasks bound to `proc`.
    pub fn s_max_sum(&self, proc: ProcessorId) -> Dur {
        self.s_max_sum[proc.index()]
    }

    /// The global resources, in id order.
    pub fn globals(&self) -> impl Iterator<Item = ResourceId> + '_ {
        (self.usage.iter())
            .filter(|u| u.scope.is_global())
            .map(|u| u.resource)
    }

    /// The default DPCP host of global `resource`: the processor of its
    /// highest-priority user ([`crate::default_hosts`]).
    pub fn host(&self, resource: ResourceId) -> ProcessorId {
        self.tasks[self.usage[resource.index()].users[0].index()].proc
    }

    /// Tasks with a critical section on `resource`.
    pub fn users<'b>(&'b self, resource: ResourceId) -> impl Iterator<Item = &'b TaskFacts<'a>> {
        self.usage[resource.index()]
            .users
            .iter()
            .map(move |t| &self.tasks[t.index()])
    }

    /// The other tasks sharing at least one global semaphore with `i`,
    /// as a task bitset; empty (no allocation) when `i` uses none.
    pub fn sharer_bits(&self, i: &TaskFacts<'_>) -> Vec<u64> {
        let mut bits = Vec::new();
        for &r in i.global_resources {
            let users = &self.user_bits[r.index() * self.words..][..self.words];
            bits.resize(self.words, 0);
            bits.iter_mut().zip(users).for_each(|(b, u)| *b |= u);
        }
        if let Some(w) = bits.get_mut(i.id.index() / 64) {
            *w &= !(1 << (i.id.index() % 64));
        }
        bits
    }

    /// Processor `proc`'s tasks as a task bitset.
    pub fn proc_bits(&self, proc: ProcessorId) -> &[u64] {
        &self.proc_bits[proc.index() * self.words..][..self.words]
    }

    /// The tasks whose bits `bits` sets, in id order.
    pub fn members(&self, bits: impl Iterator<Item = u64>) -> impl Iterator<Item = &TaskFacts<'a>> {
        bits.enumerate().flat_map(move |(w, mut word)| {
            std::iter::from_fn(move || {
                let bit = word.trailing_zeros() as usize;
                word &= word.wrapping_sub(1);
                (bit < 64).then(|| &self.tasks[w * 64 + bit])
            })
        })
    }

    /// The longest section on global `resource` among its users of
    /// priority below `prio` (factor 2's per-request term).
    pub fn longest_below(&self, resource: ResourceId, prio: Priority) -> Dur {
        let users = &self.usage[resource.index()].users;
        let lower = users.len() - users.partition_point(|t| self.tasks[t.index()].prio >= prio);
        self.longest_low[self.longest_start[resource.index()] as usize + lower]
    }

    /// Number of job instances of `other` that can run within one period
    /// of `of`: the paper's `⌈T_i / T_h⌉`, plus one carry-in instance when
    /// `carry_in` is set (the sound variant used by the validation tests).
    pub fn instances(&self, of: &TaskFacts<'_>, other: &TaskFacts<'_>, carry_in: bool) -> u64 {
        other.period.div_ceil_of(of.period) + u64::from(carry_in)
    }

    /// Lower-priority tasks on the same processor as `i`.
    pub fn lower_local<'b>(
        &'b self,
        i: &'b TaskFacts<'a>,
    ) -> impl Iterator<Item = &'b TaskFacts<'a>> {
        let mates = self.mates(i.proc);
        let from = mates.partition_point(|&t| self.tasks[t as usize].prio >= i.prio);
        self.pick(&mates[from..])
    }

    /// Higher-priority tasks on the same processor as `i`.
    pub fn higher_local<'b>(
        &'b self,
        i: &'b TaskFacts<'a>,
    ) -> impl Iterator<Item = &'b TaskFacts<'a>> {
        let mates = self.mates(i.proc);
        let to = mates.partition_point(|&t| self.tasks[t as usize].prio > i.prio);
        self.pick(&mates[..to])
    }
}

fn suspends_inside_cs(segments: &[Segment], inside: bool) -> bool {
    segments.iter().any(|s| match s {
        Segment::Suspend(_) => inside,
        Segment::Critical(_, body) => suspends_inside_cs(body, true),
        Segment::Compute(_) => false,
    })
}

#[cfg(test)]
pub(crate) use tests::reference_systems;

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, System, TaskDef};
    use mpcp_taskgen::{generate, WorkloadConfig};

    /// Seeded `taskgen` systems for the differential tests that hold
    /// each indexed term to the scan it replaced: 2×2 through 8×8, 16×4
    /// (one full bitset word), 9×8 and 8×40 (task bitsets crossing word
    /// boundaries), two forced global sections, some with suspensions, some
    /// clustered, some nested (then collapsed, since every analysis
    /// refuses nested global sections). `MPCP_REFERENCE_CASES` (default
    /// 3) sets the seeds per shape.
    pub(crate) fn reference_systems() -> Vec<(String, System)> {
        let n = std::env::var("MPCP_REFERENCE_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3);
        let shapes = [
            (2, 2),
            (3, 3),
            (4, 4),
            (6, 6),
            (8, 8),
            (16, 4),
            (9, 8),
            (8, 40),
        ];
        let mut out = Vec::new();
        mpcp_prop::cases(n, 0x5CA4, |rng| {
            for (procs, tasks) in shapes {
                let seed = rng.next_u64();
                let nesting = if rng.chance(0.3) { 0.3 } else { 0.0 };
                let cfg = WorkloadConfig::default()
                    .processors(procs)
                    .tasks_per_processor(tasks)
                    .utilization(rng.range_f64(0.2, 0.7))
                    .periods(*rng.choice(&[100, 500]), *rng.choice(&[5000, 10_000]))
                    .resources(1, rng.range_usize(1, 4))
                    .sections(0, 3)
                    .global_sections(2)
                    .suspensions(if rng.chance(0.5) { 0.3 } else { 0.0 })
                    .nesting(nesting)
                    .clusters(*rng.choice(&[0, 0, 2]));
                let (system, _) = crate::collapse_nested_globals(&generate(&cfg, seed));
                let label = format!("{procs}x{tasks} seed={seed} nesting={nesting}");
                out.push((label, system));
            }
        });
        out
    }

    #[test]
    fn facts_reject_nested_globals() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sg = b.add_resource("SG");
        let sl = b.add_resource("SL");
        b.add_task(
            TaskDef::new("a", p[0]).period(10).priority(2).body(
                Body::builder()
                    .critical(sl, |c| c.critical(sg, |c| c.compute(1)))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(20)
                .priority(1)
                .body(Body::builder().critical(sg, |c| c.compute(1)).build()),
        );
        let sys = b.build().unwrap();
        assert!(matches!(
            Facts::compute(&sys),
            Err(AnalysisError::NestedGlobalSections { .. })
        ));
    }

    #[test]
    fn facts_reject_suspension_in_cs() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("a", p)
                .period(10)
                .body(Body::builder().critical(s, |c| c.suspend(1)).build()),
        );
        let sys = b.build().unwrap();
        assert!(matches!(
            Facts::compute(&sys),
            Err(AnalysisError::SuspensionInCriticalSection { .. })
        ));
    }

    #[test]
    fn facts_counts() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sg = b.add_resource("SG");
        let sl = b.add_resource("SL");
        b.add_task(
            TaskDef::new("a", p[0]).period(10).priority(2).body(
                Body::builder()
                    .critical(sg, |c| c.compute(2))
                    .suspend(1)
                    .critical(sl, |c| c.compute(1))
                    .critical(sg, |c| c.compute(3))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(25)
                .priority(1)
                .body(Body::builder().critical(sg, |c| c.compute(1)).build()),
        );
        let sys = b.build().unwrap();
        let f = Facts::compute(&sys).unwrap();
        let a = &f.tasks[0];
        assert_eq!(a.nc, 2);
        assert_eq!(a.n_susp, 1);
        assert_eq!(a.lcs.len(), 1);
        assert_eq!(a.global_resources, vec![sg]);
        let b_ = &f.tasks[1];
        let sharers: Vec<TaskId> = f
            .members(f.sharer_bits(a).into_iter())
            .map(|t| t.id)
            .collect();
        assert_eq!(sharers, vec![b_.id]);
        // ⌈T_b / T_a⌉ = ⌈25/10⌉ = 3 instances of a within b's period.
        assert_eq!(f.instances(b_, a, false), 3);
        assert_eq!(f.instances(b_, a, true), 4);
        assert_eq!(f.lower_local(a).count(), 0);
        assert_eq!(f.higher_local(b_).count(), 0);
    }
}
