//! Systems: processors, resources and tasks, with validation.

use crate::error::ModelError;
use crate::ids::{ProcessorId, ResourceId, TaskId};
use crate::info::SystemInfo;
use crate::priority::Priority;
use crate::rm::rate_monotonic_order;
use crate::segment::{Body, BodyFault};
use crate::task::Task;
use crate::time::{Dur, Time};
use std::sync::{Arc, OnceLock};

/// A processing element with its own local memory (Figure 4-1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Processor {
    pub(crate) id: ProcessorId,
    pub(crate) name: String,
}

impl Processor {
    /// The processor's identifier.
    pub fn id(&self) -> ProcessorId {
        self.id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A shared resource guarded by a binary semaphore.
///
/// Whether the resource is *local* or *global* is not a property of the
/// resource itself but of where its users are bound; see
/// [`SystemInfo::scope`](crate::SystemInfo::scope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    pub(crate) id: ResourceId,
    pub(crate) name: String,
}

impl Resource {
    /// The resource's identifier.
    pub fn id(&self) -> ResourceId {
        self.id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Definition of a task handed to [`SystemBuilder::add_task`].
///
/// A definition needs at least a name, a processor binding and a period;
/// everything else has defaults (deadline = period, offset = 0, empty body,
/// rate-monotonic priority).
#[derive(Debug, Clone)]
pub struct TaskDef {
    name: Arc<str>,
    processor: ProcessorId,
    period: Dur,
    deadline: Option<Dur>,
    offset: Time,
    priority: Option<u32>,
    body: Body,
    arrivals: Option<Vec<Time>>,
}

impl TaskDef {
    /// Starts a definition for a task named `name` bound to `processor`.
    pub fn new(name: impl Into<Arc<str>>, processor: ProcessorId) -> Self {
        TaskDef {
            name: name.into(),
            processor,
            period: Dur::ZERO,
            deadline: None,
            offset: Time::ZERO,
            priority: None,
            body: Body::new(),
            arrivals: None,
        }
    }

    /// Sets the period `T_i` in ticks. Required and non-zero.
    pub fn period(mut self, ticks: u64) -> Self {
        self.period = Dur::new(ticks);
        self
    }

    /// Sets a relative deadline in ticks (defaults to the period).
    pub fn deadline(mut self, ticks: u64) -> Self {
        self.deadline = Some(Dur::new(ticks));
        self
    }

    /// Sets the release offset of the first job (defaults to 0).
    pub fn offset(mut self, ticks: u64) -> Self {
        self.offset = Time::new(ticks);
        self
    }

    /// Sets an explicit task-band priority level (larger = more urgent).
    ///
    /// Either every task gets an explicit level or none does; mixing
    /// explicit and rate-monotonic assignment is rejected at
    /// [`SystemBuilder::build`].
    pub fn priority(mut self, level: u32) -> Self {
        self.priority = Some(level);
        self
    }

    /// Sets the job body.
    pub fn body(mut self, body: Body) -> Self {
        self.body = body;
        self
    }

    /// Makes the task aperiodic/sporadic: jobs are released at exactly
    /// these times (strictly increasing) instead of periodically. The
    /// period still provides the minimum inter-arrival time for priority
    /// assignment, and the relative deadline applies per arrival.
    pub fn arrivals(mut self, times: impl IntoIterator<Item = u64>) -> Self {
        self.arrivals = Some(times.into_iter().map(Time::new).collect());
        self
    }
}

impl Task {
    /// This task as a [`TaskDef`] with its priority made explicit, so a
    /// system rebuilt from it ([`System::with_tasks`]) keeps the same
    /// priority assignment even where the original relied on
    /// rate-monotonic defaults. Arrival traces are copied.
    pub fn to_def(&self) -> TaskDef {
        TaskDef {
            name: self.name.clone(),
            processor: self.processor,
            period: self.period,
            deadline: Some(self.deadline),
            offset: self.offset,
            priority: Some(self.priority.level()),
            body: self.body.clone(),
            arrivals: self.arrivals.clone(),
        }
    }
}

/// Builder for [`System`]; see [`System::builder`].
#[derive(Debug, Default)]
pub struct SystemBuilder {
    processors: Vec<Processor>,
    resources: Vec<Resource>,
    defs: Vec<TaskDef>,
}

impl SystemBuilder {
    /// Adds a processor and returns its id.
    pub fn add_processor(&mut self, name: impl Into<String>) -> ProcessorId {
        let id = ProcessorId(self.processors.len() as u32);
        self.processors.push(Processor {
            id,
            name: name.into(),
        });
        id
    }

    /// Adds `n` processors named `P0..P{n-1}` and returns their ids.
    pub fn add_processors(&mut self, n: usize) -> Vec<ProcessorId> {
        (0..n)
            .map(|i| self.add_processor(format!("P{i}")))
            .collect()
    }

    /// Adds a resource (binary semaphore) and returns its id.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            id,
            name: name.into(),
        });
        id
    }

    /// Adds `n` resources named `S0..S{n-1}` and returns their ids.
    pub fn add_resources(&mut self, n: usize) -> Vec<ResourceId> {
        (0..n).map(|i| self.add_resource(format!("S{i}"))).collect()
    }

    /// Adds a task definition and returns the id it will receive.
    pub fn add_task(&mut self, def: TaskDef) -> TaskId {
        let id = TaskId(self.defs.len() as u32);
        self.defs.push(def);
        id
    }

    /// Validates the definitions and produces the immutable [`System`].
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if:
    ///
    /// * there are no processors or no tasks,
    /// * a task has a zero period, a deadline longer than its period, or
    ///   references an unknown processor or resource,
    /// * a task's body nests a resource inside itself (self-deadlock, ruled
    ///   out in §3.1),
    /// * priorities are explicit for some tasks but not all, or explicit
    ///   levels collide.
    pub fn build(self) -> Result<System, ModelError> {
        if self.processors.is_empty() {
            return Err(ModelError::NoProcessors);
        }
        if self.defs.is_empty() {
            return Err(ModelError::NoTasks);
        }

        for (i, def) in self.defs.iter().enumerate() {
            let id = TaskId(i as u32);
            if def.period.is_zero() {
                return Err(ModelError::ZeroPeriod { task: id });
            }
            if let Some(d) = def.deadline {
                if d.is_zero() || d > def.period {
                    return Err(ModelError::BadDeadline { task: id });
                }
            }
            if def.processor.index() >= self.processors.len() {
                return Err(ModelError::UnknownProcessor {
                    task: id,
                    processor: def.processor,
                });
            }
            match def.body.fault(self.resources.len()) {
                Some(BodyFault::UnknownResource(resource)) => {
                    return Err(ModelError::UnknownResource { task: id, resource });
                }
                Some(BodyFault::SelfNesting) => return Err(ModelError::SelfNesting { task: id }),
                None => {}
            }
            if let Some(times) = &def.arrivals {
                if times.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(ModelError::UnorderedArrivals { task: id });
                }
            }
        }

        let explicit = self.defs.iter().filter(|d| d.priority.is_some()).count();
        let priorities: Vec<Priority> = if explicit == self.defs.len() {
            let mut levels: Vec<u32> = self.defs.iter().map(|d| d.priority.unwrap()).collect();
            let mut sorted = levels.clone();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return Err(ModelError::DuplicatePriority);
            }
            levels.drain(..).map(Priority::task).collect()
        } else if explicit == 0 {
            let order = rate_monotonic_order(self.defs.iter().map(|d| d.period));
            // order[k] is the index of the k-th highest-priority task;
            // assign descending levels n..1 so every level is unique.
            let n = self.defs.len() as u32;
            let mut levels = vec![Priority::MIN; self.defs.len()];
            for (rank, &idx) in order.iter().enumerate() {
                levels[idx] = Priority::task(n - rank as u32);
            }
            levels
        } else {
            return Err(ModelError::MixedPriorities);
        };

        let tasks = self
            .defs
            .into_iter()
            .zip(priorities)
            .enumerate()
            .map(|(i, (def, priority))| Task {
                id: TaskId(i as u32),
                name: def.name,
                processor: def.processor,
                period: def.period,
                deadline: def.deadline.unwrap_or(def.period),
                offset: def.offset,
                priority,
                body: def.body,
                arrivals: def.arrivals,
            })
            .collect();

        Ok(System {
            processors: self.processors,
            resources: self.resources,
            tasks,
            info: Arc::new(OnceLock::new()),
        })
    }
}

/// An immutable, validated system: processors, resources and tasks.
///
/// Create one with [`System::builder`]. All cross-references have been
/// checked, every task has a unique task-band priority, and derived
/// structure is available through [`System::info`].
#[derive(Debug, Clone)]
pub struct System {
    processors: Vec<Processor>,
    resources: Vec<Resource>,
    tasks: Vec<Task>,
    /// Lazily computed [`SystemInfo`], shared by clones. Purely derived
    /// from the three fields above, so it is excluded from equality.
    info: Arc<OnceLock<SystemInfo>>,
}

impl PartialEq for System {
    fn eq(&self, other: &Self) -> bool {
        self.processors == other.processors
            && self.resources == other.resources
            && self.tasks == other.tasks
    }
}

impl System {
    /// Starts building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// A fresh system over this one's processor and resource tables
    /// (same ids, same order) with `defs` as its tasks: the one way to
    /// derive an edited system. [`Task::to_def`] carries a task over
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Whatever [`SystemBuilder::build`] rejects.
    pub fn with_tasks(
        &self,
        defs: impl IntoIterator<Item = TaskDef>,
    ) -> Result<System, ModelError> {
        let builder = SystemBuilder {
            processors: self.processors.clone(),
            resources: self.resources.clone(),
            defs: defs.into_iter().collect(),
        };
        builder.build()
    }

    /// The processors, indexed by [`ProcessorId`].
    pub fn processors(&self) -> &[Processor] {
        &self.processors
    }

    /// The resources, indexed by [`ResourceId`].
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// The tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this system.
    #[track_caller]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The resource with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this system.
    #[track_caller]
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }

    /// The processor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this system.
    #[track_caller]
    pub fn processor(&self, id: ProcessorId) -> &Processor {
        &self.processors[id.index()]
    }

    /// Tasks bound to `processor`, in decreasing priority order.
    pub fn tasks_on(&self, processor: ProcessorId) -> Vec<&Task> {
        let mut ts: Vec<&Task> = self
            .tasks
            .iter()
            .filter(|t| t.processor == processor)
            .collect();
        ts.sort_by_key(|t| std::cmp::Reverse(t.priority));
        ts
    }

    /// The highest assigned task priority in the entire system — the
    /// paper's `P_H`.
    pub fn highest_priority(&self) -> Priority {
        self.tasks
            .iter()
            .map(|t| t.priority)
            .max()
            .expect("validated systems have tasks")
    }

    /// Total utilization over all tasks.
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Utilization of the tasks bound to `processor`.
    pub fn utilization_on(&self, processor: ProcessorId) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.processor == processor)
            .map(Task::utilization)
            .sum()
    }

    /// Hyperperiod (least common multiple of all periods), saturating at
    /// [`Dur::MAX`].
    pub fn hyperperiod(&self) -> Dur {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let mut l: u64 = 1;
        for t in &self.tasks {
            let p = t.period.ticks();
            let g = gcd(l, p);
            l = match (l / g).checked_mul(p) {
                Some(v) => v,
                None => return Dur::MAX,
            };
        }
        Dur::new(l)
    }

    /// Derived structure: resource scopes, usage maps and per-task
    /// critical-section facts. Computed once per system (clones share
    /// the cache).
    pub fn info(&self) -> &SystemInfo {
        self.info.get_or_init(|| SystemInfo::compute(self, None))
    }

    /// [`System::info`], computed — unless it already has been — with
    /// `prev`, the version this system was edited from, as a hint: the
    /// per-task facts of every task that kept its body and its
    /// resources' scopes are shared with `prev`'s info, not derived
    /// again. The value is the one [`System::info`] alone computes.
    pub fn info_after(&self, prev: &System) -> &SystemInfo {
        self.info
            .get_or_init(|| SystemInfo::compute(self, Some(prev)))
    }

    /// A copy that shares this system's inputs — tables, names, bodies —
    /// and none of its derived state: its [`System::info`] is computed
    /// from scratch. What a differential check must recompute from.
    pub fn detached(&self) -> System {
        System {
            info: Arc::new(OnceLock::new()),
            ..self.clone()
        }
    }

    /// Whether two tasks share a name (adjacent in the cached name order).
    pub fn has_duplicate_task_names(&self) -> bool {
        let name = |i: u32| self.tasks[i as usize].name();
        (self.info().tasks_by_name.windows(2)).any(|w| name(w[0]) == name(w[1]))
    }

    /// Index of the task named `name` (the first in declaration order
    /// when names collide), via the cached name-sorted index.
    pub fn task_index_by_name(&self, name: &str) -> Option<usize> {
        let order = &self.info().tasks_by_name;
        let pos = order.partition_point(|&i| self.tasks[i as usize].name() < name);
        let i = *order.get(pos)? as usize;
        (self.tasks[i].name() == name).then_some(i)
    }

    /// [`System::task_index_by_name`], trying slot `guess` first. Walking
    /// an edited version's tasks with `guess` one past the last hit finds
    /// each in the version before without a search: edits keep the
    /// surviving tasks in order.
    pub fn task_index_near(&self, guess: usize, name: &str) -> Option<usize> {
        match self.tasks.get(guess) {
            Some(t) if t.name() == name => Some(guess),
            _ => self.task_index_by_name(name),
        }
    }

    /// Index of the resource named `name`, via the cached name-sorted
    /// index.
    pub fn resource_index_by_name(&self, name: &str) -> Option<usize> {
        let order = &self.info().resources_by_name;
        let pos = order.partition_point(|&i| self.resources[i as usize].name() < name);
        let i = *order.get(pos)? as usize;
        (self.resources[i].name() == name).then_some(i)
    }

    /// Index of the processor named `name`, via the cached name-sorted
    /// index.
    pub fn processor_index_by_name(&self, name: &str) -> Option<usize> {
        let order = &self.info().processors_by_name;
        let pos = order.partition_point(|&i| self.processors[i as usize].name() < name);
        let i = *order.get(pos)? as usize;
        (self.processors[i].name() == name).then_some(i)
    }

    /// Whether any task's body nests one critical section inside another.
    pub fn has_nested_sections(&self) -> bool {
        self.tasks.iter().any(|t| t.body.has_nested_sections())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Body;

    fn body_with(res: ResourceId) -> Body {
        Body::builder()
            .compute(1)
            .critical(res, |c| c.compute(1))
            .build()
    }

    #[test]
    fn with_tasks_keeps_tables_priorities_and_arrivals() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("S");
        b.add_task(TaskDef::new("slow", p[0]).period(40).body(body_with(s)));
        b.add_task(
            TaskDef::new("fast", p[1])
                .period(10)
                .deadline(8)
                .offset(3)
                .arrivals([3, 20])
                .body(body_with(s)),
        );
        let sys = b.build().unwrap();
        // Identity: rate-monotonic levels become explicit, nothing moves.
        let copy = sys
            .with_tasks(sys.tasks().iter().map(Task::to_def))
            .unwrap();
        assert_eq!(copy, sys);
        // Dropping the fast task keeps the slow one's level (an RM
        // re-assignment would have renumbered it).
        let one = sys.with_tasks([sys.tasks()[0].to_def()]).unwrap();
        assert_eq!(one.tasks()[0].priority(), sys.tasks()[0].priority());
        assert_eq!(one.resources(), sys.resources());
        assert_eq!(one.processors(), sys.processors());
        assert_eq!(sys.with_tasks([]), Err(ModelError::NoTasks));
    }

    #[test]
    fn builder_assigns_rate_monotonic_priorities() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(TaskDef::new("slow", p).period(100));
        b.add_task(TaskDef::new("fast", p).period(10));
        b.add_task(TaskDef::new("mid", p).period(50));
        let sys = b.build().unwrap();
        let pr: Vec<u32> = sys.tasks().iter().map(|t| t.priority().level()).collect();
        // fast > mid > slow
        assert!(pr[1] > pr[2] && pr[2] > pr[0]);
        assert_eq!(sys.highest_priority(), Priority::task(pr[1]));
    }

    #[test]
    fn explicit_priorities_are_respected() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(TaskDef::new("a", p).period(10).priority(7));
        b.add_task(TaskDef::new("b", p).period(10).priority(3));
        let sys = b.build().unwrap();
        assert_eq!(sys.tasks()[0].priority(), Priority::task(7));
        assert_eq!(sys.tasks()[1].priority(), Priority::task(3));
    }

    #[test]
    fn mixed_priorities_rejected() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(TaskDef::new("a", p).period(10).priority(7));
        b.add_task(TaskDef::new("b", p).period(10));
        assert!(matches!(b.build(), Err(ModelError::MixedPriorities)));
    }

    #[test]
    fn duplicate_priorities_rejected() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(TaskDef::new("a", p).period(10).priority(7));
        b.add_task(TaskDef::new("b", p).period(10).priority(7));
        assert!(matches!(b.build(), Err(ModelError::DuplicatePriority)));
    }

    #[test]
    fn zero_period_rejected() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(TaskDef::new("a", p));
        assert!(matches!(b.build(), Err(ModelError::ZeroPeriod { .. })));
    }

    #[test]
    fn deadline_beyond_period_rejected() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(TaskDef::new("a", p).period(10).deadline(11));
        assert!(matches!(b.build(), Err(ModelError::BadDeadline { .. })));
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        b.add_task(
            TaskDef::new("a", p)
                .period(10)
                .body(body_with(ResourceId::from_index(9))),
        );
        assert!(matches!(b.build(), Err(ModelError::UnknownResource { .. })));
    }

    #[test]
    fn self_nesting_rejected() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s = b.add_resource("S");
        let body = Body::builder()
            .critical(s, |c| c.critical(s, |c| c.compute(1)))
            .build();
        b.add_task(TaskDef::new("a", p).period(10).body(body));
        assert!(matches!(b.build(), Err(ModelError::SelfNesting { .. })));
    }

    #[test]
    fn empty_system_rejected() {
        assert!(matches!(
            System::builder().build(),
            Err(ModelError::NoProcessors)
        ));
        let mut b = System::builder();
        b.add_processor("P0");
        assert!(matches!(b.build(), Err(ModelError::NoTasks)));
    }

    #[test]
    fn utilization_and_hyperperiod() {
        let mut b = System::builder();
        let p0 = b.add_processor("P0");
        let p1 = b.add_processor("P1");
        b.add_task(
            TaskDef::new("a", p0)
                .period(10)
                .body(Body::builder().compute(2).build()),
        );
        b.add_task(
            TaskDef::new("b", p1)
                .period(15)
                .body(Body::builder().compute(3).build()),
        );
        let sys = b.build().unwrap();
        assert!((sys.total_utilization() - 0.4).abs() < 1e-12);
        assert!((sys.utilization_on(p0) - 0.2).abs() < 1e-12);
        assert_eq!(sys.hyperperiod(), Dur::new(30));
        assert_eq!(sys.tasks_on(p0).len(), 1);
    }

    #[test]
    fn duplicate_task_names_are_adjacent_in_the_name_index() {
        let with_names = |names: [&str; 3]| {
            let mut b = System::builder();
            let p = b.add_processor("P0");
            for (k, name) in names.into_iter().enumerate() {
                b.add_task(TaskDef::new(name, p).period(10 * (k as u64 + 1)));
            }
            b.build().unwrap()
        };
        assert!(!with_names(["b", "a", "c"]).has_duplicate_task_names());
        assert!(with_names(["b", "a", "b"]).has_duplicate_task_names());
    }
}
