//! Schedulability tests: Theorem 3's utilization bound, response-time
//! analysis, and breakdown-utilization search.

use mpcp_model::{Dur, ProcessorId, Segment, System, Task, TaskDef, TaskId};

/// The Liu & Layland least upper bound `n(2^{1/n} - 1)` for `n` tasks.
///
/// # Example
///
/// ```
/// use mpcp_analysis::liu_layland_bound;
///
/// assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
/// assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-3);
/// assert!(liu_layland_bound(100) > 0.69);
/// ```
pub fn liu_layland_bound(n: usize) -> f64 {
    assert!(n > 0, "bound of zero tasks");
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Verdict for one task under Theorem 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSched {
    /// The task.
    pub task: TaskId,
    /// Its processor.
    pub processor: ProcessorId,
    /// `Σ_{j ≤ i} C_j/T_j + B_i/T_i` over local tasks of priority ≥ its
    /// own.
    pub demand: f64,
    /// The Liu & Layland bound for its rank.
    pub bound: f64,
    /// Whether the inequality holds.
    pub ok: bool,
}

/// Result of [`theorem3`] over a whole system.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedReport {
    per_task: Vec<TaskSched>,
    schedulable: bool,
}

impl SchedReport {
    /// Whether every task passed.
    pub fn schedulable(&self) -> bool {
        self.schedulable
    }

    /// Per-task verdicts, indexed by [`TaskId`].
    pub fn per_task(&self) -> &[TaskSched] {
        &self.per_task
    }

    /// Verdict of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the analyzed system.
    #[track_caller]
    pub fn task(&self, task: TaskId) -> &TaskSched {
        &self.per_task[task.index()]
    }
}

/// Theorem 3: per processor, for each task `i` (in decreasing priority),
/// checks `Σ_{j=1..i} C_j/T_j + B_i/T_i ≤ i(2^{1/i} − 1)`.
///
/// `blocking[t]` is the worst-case waiting time `B_t` of task `t` (use
/// [`BlockingBreakdown::total`](crate::BlockingBreakdown::total) or
/// [`blocking`](crate::BlockingBreakdown::blocking) per taste).
///
/// # Panics
///
/// Panics if `blocking` is not indexed like the system's tasks.
pub fn theorem3(system: &System, blocking: &[Dur]) -> SchedReport {
    assert_eq!(blocking.len(), system.tasks().len());
    let per_task = theorem3_all(system, |t| (t.wcet(), blocking[t.id().index()]));
    let schedulable = per_task.iter().all(|t| t.ok);
    SchedReport {
        per_task,
        schedulable,
    }
}

/// The Theorem 3 rows of every processor, in [`TaskId`] order.
pub(crate) fn theorem3_all(
    system: &System,
    inputs: impl Fn(&Task) -> (Dur, Dur),
) -> Vec<TaskSched> {
    let mut per_task: Vec<Option<TaskSched>> = vec![None; system.tasks().len()];
    for proc in system.processors() {
        for row in theorem3_rows(system, proc.id(), &inputs) {
            per_task[row.task.index()] = Some(row);
        }
    }
    per_task
        .into_iter()
        .map(|t| t.expect("every task is bound to a processor"))
        .collect()
}

/// The rate-monotonic rows of one processor, in decreasing priority
/// order: `Σ_{j ≤ i} cost(j)/T_j + blocking(i)/T_i` against the Liu &
/// Layland bound of the rank, where `inputs(t)` is task `t`'s `(cost,
/// blocking)`. This is the only such loop in the crate: Theorem 3
/// proper charges `cost = C_j` and `blocking = B_i`, and the MSRP and
/// FMLP+ tests are the same rows with a spin-inflated cost or a
/// different blocking term. The utilization accumulation order is fixed
/// by `tasks_on`, so recomputing a single processor reproduces the
/// whole-system floats bit-for-bit — the property the incremental engine
/// certifies.
pub(crate) fn theorem3_rows(
    system: &System,
    proc: ProcessorId,
    inputs: impl Fn(&Task) -> (Dur, Dur),
) -> Vec<TaskSched> {
    let local = system.tasks_on(proc); // decreasing priority
    let mut util_sum = 0.0;
    local
        .iter()
        .enumerate()
        .map(|(rank, task)| {
            let (cost, blocking) = inputs(task);
            util_sum += cost.ratio(task.period());
            let demand = util_sum + blocking.ratio(task.period());
            let bound = liu_layland_bound(rank + 1);
            TaskSched {
                task: task.id(),
                processor: proc,
                demand,
                bound,
                ok: demand <= bound + 1e-12,
            }
        })
        .collect()
}

/// The higher-priority tasks on `task`'s processor.
fn higher_local<'a>(system: &'a System, task: &'a Task) -> impl Iterator<Item = &'a Task> {
    system
        .tasks()
        .iter()
        .filter(move |h| h.processor() == task.processor() && h.priority() > task.priority())
}

/// The one response-time recurrence: the least fixed point of
/// `R = C_i + B_i + Σ_h ⌈(R + J_h)/T_h⌉ · C_h` over `hp`, the
/// higher-priority local tasks paired with their release jitter `J_h`.
/// `None` if the iteration passes the deadline (or fails to settle).
fn rta_fixed_point(task: &Task, blocking: Dur, hp: &[(&Task, Dur)]) -> Option<Dur> {
    let base = task.wcet() + blocking;
    let mut r = base;
    for _ in 0..1_000 {
        let interference: Dur = hp
            .iter()
            .map(|(h, jitter)| h.wcet() * h.period().div_ceil_of(r + *jitter))
            .sum();
        let next = base + interference;
        if next == r {
            return Some(r);
        }
        if next > task.deadline() {
            return None;
        }
        r = next;
    }
    None
}

/// Exact response-time analysis with blocking (a tighter, post-1990
/// fixed-point test): `R_i = C_i + B_i + Σ_{j ∈ hp_local(i)} ⌈R_i/T_j⌉
/// C_j`. Returns `None` for a task whose recurrence diverges past its
/// deadline.
///
/// # Panics
///
/// Panics if `blocking` is not indexed like the system's tasks.
pub fn response_times(system: &System, blocking: &[Dur]) -> Vec<Option<Dur>> {
    assert_eq!(blocking.len(), system.tasks().len());
    system
        .tasks()
        .iter()
        .map(|task| {
            let hp: Vec<_> = higher_local(system, task).map(|h| (h, Dur::ZERO)).collect();
            rta_fixed_point(task, blocking[task.id().index()], &hp)
        })
        .collect()
}

/// Whether every task's response time converges within its deadline.
///
/// # Panics
///
/// Panics if `blocking` is not indexed like the system's tasks.
pub fn rta_schedulable(system: &System, blocking: &[Dur]) -> bool {
    response_times(system, blocking).iter().all(Option::is_some)
}

/// Response-time analysis with **full response jitter**: `R_i = C_i +
/// B_i + Σ_{h ∈ hp_local(i)} ⌈(R_i + J_h)/T_h⌉ · C_h`, where a
/// higher-priority task `h` carries jitter `J_h = R_h - C_h` — its whole
/// response minus its computation.
///
/// This is the principled treatment of the §5.1 deferred-execution
/// penalty: instead of charging one whole extra `C_h` per suspending
/// higher-priority task (the conservative
/// [`BlockingBreakdown::deferred_penalty`](crate::BlockingBreakdown)),
/// the deferral of `h`'s demand is modelled as release jitter. `B_h`
/// alone under-counts that deferral: preemption by tasks above `h` also
/// pushes `h`'s execution toward the end of its window, bunching it
/// back-to-back with the next job, and the sweep oracle observed
/// responses above a `J_h = B_h` fixed point. `R_h - C_h` is the
/// standard conservative jitter for deferrable higher-priority demand.
///
/// Responses are computed in decreasing priority order per processor so
/// each task's jitter is available to the tasks below it; a task whose
/// own recurrence diverges makes every lower-priority task on its
/// processor diverge too (`None`).
///
/// Use with the *factors-only* blocking
/// ([`TaskBounds::factors`](crate::TaskBounds::factors)) — the
/// deferred-execution penalty is superseded by the jitter term.
///
/// **Advisory.** Scenario sweeps observe MPCP responses slightly above
/// this fixed point on under 1% of random systems. The engine, not the
/// recurrence, causes them: it completes a job whose last tick ends at
/// `t` only after `t`'s releases, so a higher-priority release stretches
/// a response with no work left (DESIGN §10, E17). Until that is fixed,
/// a [`BoundSet`](crate::BoundSet)'s blocking bound and verdict are the
/// results to rely on.
///
/// # Panics
///
/// Panics if `blocking` is not indexed like the system's tasks.
pub fn response_times_suspension_aware(system: &System, blocking: &[Dur]) -> Vec<Option<Dur>> {
    assert_eq!(blocking.len(), system.tasks().len());
    let mut order: Vec<&Task> = system.tasks().iter().collect();
    order.sort_by_key(|t| std::cmp::Reverse(t.priority()));
    let mut response: Vec<Option<Dur>> = vec![None; system.tasks().len()];
    for task in order {
        // Higher-priority tasks were computed first; one that diverged
        // (`None`) takes this task with it.
        let hp: Option<Vec<_>> = higher_local(system, task)
            .map(|h| Some((h, response[h.id().index()]?.saturating_sub(h.wcet()))))
            .collect();
        response[task.id().index()] =
            hp.and_then(|hp| rta_fixed_point(task, blocking[task.id().index()], &hp));
    }
    response
}

/// Returns a copy of `system` with every computation segment scaled by
/// `num/den` (rounded up, so non-zero segments stay non-zero). Critical
/// sections scale with the rest of the code, as in breakdown-utilization
/// experiments.
///
/// # Panics
///
/// Panics if `den` is zero.
pub fn scale_system(system: &System, num: u64, den: u64) -> System {
    assert!(den > 0, "scale_system: zero denominator");
    fn scale_segs(segs: &[Segment], num: u64, den: u64) -> Vec<Segment> {
        segs.iter()
            .map(|s| match s {
                Segment::Compute(d) => Segment::Compute(Dur::new((d.ticks() * num).div_ceil(den))),
                Segment::Suspend(d) => Segment::Suspend(*d),
                Segment::Critical(r, body) => Segment::Critical(*r, scale_segs(body, num, den)),
            })
            .collect()
    }
    let mut b = System::builder();
    for p in system.processors() {
        b.add_processor(p.name());
    }
    for r in system.resources() {
        b.add_resource(r.name());
    }
    for t in system.tasks() {
        let body = mpcp_model::Body::from_segments(scale_segs(t.body().segments(), num, den));
        b.add_task(
            TaskDef::new(t.name(), t.processor())
                .period(t.period().ticks())
                .deadline(t.deadline().ticks())
                .offset(t.offset().ticks())
                .priority(t.priority().level())
                .body(body),
        );
    }
    b.build().expect("scaling preserves validity")
}

/// Finds (to `precision` parts per thousand) the largest scale factor
/// `f ≤ max_scale` such that `schedulable(scale_system(system, f))`, and
/// returns it as a float. The *breakdown utilization* is then the scaled
/// system's utilization.
pub fn breakdown_scale(
    system: &System,
    max_scale: f64,
    mut schedulable: impl FnMut(&System) -> bool,
) -> f64 {
    let den = 1000u64;
    let mut lo = 0u64; // known schedulable (0 = trivially)
    let mut hi = (max_scale * den as f64) as u64; // search ceiling
    if schedulable(&scale_system(system, hi, den)) {
        return hi as f64 / den as f64;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if mid == 0 || schedulable(&scale_system(system, mid, den)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo as f64 / den as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, System, TaskDef};

    fn simple(c1: u64, c2: u64) -> System {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("a", p)
                .period(10)
                .body(Body::builder().compute(c1).build()),
        );
        b.add_task(
            TaskDef::new("b", p)
                .period(20)
                .body(Body::builder().compute(c2).build()),
        );
        b.build().unwrap()
    }

    #[test]
    fn theorem3_accepts_light_load() {
        let sys = simple(2, 4);
        let rep = theorem3(&sys, &[Dur::ZERO, Dur::ZERO]);
        assert!(rep.schedulable());
        assert!(rep.task(TaskId::from_index(0)).ok);
        assert!((rep.task(TaskId::from_index(0)).demand - 0.2).abs() < 1e-9);
    }

    #[test]
    fn theorem3_rejects_blocking_heavy_task() {
        let sys = simple(2, 4);
        // B_a = 9 pushes a's demand to 0.2 + 0.9 > 1.
        let rep = theorem3(&sys, &[Dur::new(9), Dur::ZERO]);
        assert!(!rep.schedulable());
        assert!(!rep.task(TaskId::from_index(0)).ok);
        assert!(rep.task(TaskId::from_index(1)).ok);
    }

    #[test]
    fn response_times_match_hand_computation() {
        let sys = simple(2, 4);
        let r = response_times(&sys, &[Dur::ZERO, Dur::ZERO]);
        assert_eq!(r[0], Some(Dur::new(2)));
        assert_eq!(r[1], Some(Dur::new(6))); // 4 + one preemption of 2
        assert!(rta_schedulable(&sys, &[Dur::ZERO, Dur::ZERO]));
    }

    #[test]
    fn response_time_detects_overload() {
        let sys = simple(6, 9);
        let r = response_times(&sys, &[Dur::ZERO, Dur::ZERO]);
        assert_eq!(r[0], Some(Dur::new(6)));
        assert_eq!(r[1], None); // 9 + preemptions cannot fit in 20
    }

    #[test]
    fn rta_is_no_more_pessimistic_than_theorem3() {
        // Utilization above the LL bound but RTA-schedulable.
        let sys = simple(4, 7); // U = 0.4 + 0.35 = 0.75 < 0.828 ok both...
        let blocking = vec![Dur::ZERO, Dur::ZERO];
        let t3 = theorem3(&sys, &blocking).schedulable();
        let rta = rta_schedulable(&sys, &blocking);
        assert!(rta || !t3, "RTA must accept whatever Theorem 3 accepts");
    }

    #[test]
    fn suspension_aware_rta_charges_higher_task_jitter() {
        // hi (a gcs, blocking 5) responds in 1 + 1 + 5 = 7 => jitter
        // 7 - 2 = 5; lo sees an extra hi instance inside its window.
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("SG");
        b.add_task(
            TaskDef::new("hi", p[0]).period(10).priority(3).body(
                Body::builder()
                    .compute(1)
                    .critical(s, |c| c.compute(1))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("lo", p[0])
                .period(30)
                .priority(1)
                .body(Body::builder().compute(7).build()),
        );
        b.add_task(
            TaskDef::new("rem", p[1])
                .period(40)
                .priority(2)
                .body(Body::builder().critical(s, |c| c.compute(5)).build()),
        );
        let sys = b.build().unwrap();
        let blocking = vec![Dur::new(5), Dur::ZERO, Dur::ZERO];
        let plain = response_times(&sys, &blocking);
        let jitter = response_times_suspension_aware(&sys, &blocking);
        // lo: plain: R = 7 + ceil(R/10)*2 -> 7+2=9, 7+2=9 stable -> 9.
        assert_eq!(plain[1], Some(Dur::new(9)));
        // jitter: window R+5: R=9 -> ceil(14/10)=2 -> 7+4=11 ->
        // ceil(16/10)=2 -> stable 11.
        assert_eq!(jitter[1], Some(Dur::new(11)));
        assert!(jitter[1] >= plain[1]);
    }

    #[test]
    fn scale_system_scales_computes_only() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("a", p).period(100).body(
                Body::builder()
                    .compute(10)
                    .suspend(5)
                    .critical(s, |c| c.compute(4))
                    .build(),
            ),
        );
        let sys = b.build().unwrap();
        let scaled = scale_system(&sys, 3, 2);
        let t = &scaled.tasks()[0];
        assert_eq!(t.wcet(), Dur::new(21)); // 15 + 6
        assert_eq!(t.body().total_suspension(), Dur::new(5));
        assert_eq!(t.period(), Dur::new(100));
    }

    #[test]
    fn breakdown_scale_brackets_the_limit() {
        let sys = simple(1, 1);
        // Schedulable iff demand fits; utilization at scale f is
        // f·(0.1+0.05) with blocking zero; Theorem 3 bound for 2 tasks is
        // 0.828 for the lower task; breakdown scale ≈ 0.828/0.15 ≈ 5.5 but
        // capped by task a's own bound 1.0/0.1 = 10. Use RTA for an exact
        // check of monotonicity instead of a specific value.
        let f = breakdown_scale(&sys, 20.0, |s| {
            rta_schedulable(s, &vec![Dur::ZERO; s.tasks().len()])
        });
        assert!(f >= 1.0);
        let ok = rta_schedulable(
            &scale_system(&sys, (f * 1000.0) as u64, 1000),
            &[Dur::ZERO, Dur::ZERO],
        );
        assert!(ok);
    }
}
