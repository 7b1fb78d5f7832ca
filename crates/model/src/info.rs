//! Derived system structure: resource scopes and usage maps.

use crate::ids::{ProcessorId, ResourceId, TaskId};
use crate::segment::CriticalSection;
use crate::system::System;
use crate::time::Dur;
use std::borrow::Cow;
use std::sync::Arc;

/// Where a resource's users live: on one processor, on several, or nowhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Every task using the resource is bound to this processor; the
    /// semaphore is *local* and lives in that processor's local memory.
    Local(ProcessorId),
    /// Tasks on at least two processors use the resource; the semaphore is
    /// *global* and lives in shared memory.
    Global,
    /// No task uses the resource.
    Unused,
}

impl Scope {
    /// Whether this is [`Scope::Global`].
    pub fn is_global(self) -> bool {
        matches!(self, Scope::Global)
    }
}

/// Usage facts for one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceUsage {
    /// The resource described.
    pub resource: ResourceId,
    /// Local / global / unused classification.
    pub scope: Scope,
    /// Tasks with at least one critical section on the resource, in
    /// decreasing priority order.
    pub users: Vec<TaskId>,
    /// Longest single critical section on the resource over all users.
    pub longest_cs: Dur,
}

/// Per-task critical-section facts split by resource scope: a pure
/// function of the task's body and of the scope of each resource the
/// body names — no task id in it — so versions of an edited system
/// share the value for every task that kept both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskResourceUse {
    /// Critical sections on **global** resources (outermost only), in lock
    /// order. Its length is the paper's `NC_i` (number of gcs's of the
    /// task).
    pub global_sections: Vec<CriticalSection>,
    /// Critical sections on **local** resources (outermost only), in lock
    /// order.
    pub local_sections: Vec<CriticalSection>,
    /// Every critical section of the task (nested included), in lock
    /// order — the cached result of
    /// [`Body::critical_sections`](crate::Body::critical_sections).
    pub sections: Vec<CriticalSection>,
    /// Global resources the task uses, sorted by id, deduplicated.
    pub global_resources: Vec<ResourceId>,
    /// Number of explicit self-suspensions per job.
    pub suspension_count: usize,
}

impl TaskResourceUse {
    /// The paper's `NC_i`: number of global critical sections the task
    /// enters per job.
    pub fn gcs_count(&self) -> usize {
        self.global_sections.len()
    }
}

/// Derived structure of a [`System`]; obtain via [`System::info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemInfo {
    usage: Vec<ResourceUsage>,
    task_use: Vec<Arc<TaskResourceUse>>,
    /// Task indices sorted by task name (ties in declaration order).
    pub(crate) tasks_by_name: Vec<u32>,
    /// Resource indices sorted by resource name.
    pub(crate) resources_by_name: Vec<u32>,
    /// Processor indices sorted by processor name.
    pub(crate) processors_by_name: Vec<u32>,
}

impl SystemInfo {
    /// The one constructor. `prev`, a previous version of the system, is
    /// a hint that changes the cost and never the value: a task's
    /// [`TaskResourceUse`] is taken from its info only where the inputs
    /// the part is a pure function of compare equal — the body is the
    /// same allocation and every resource it names kept its scope — and
    /// `None` is the build from scratch.
    pub(crate) fn compute(system: &System, prev: Option<&System>) -> SystemInfo {
        let tasks = system.tasks();
        let n_res = system.resources().len();

        // The facts of `prev`'s task of the same name and body, if any.
        let mut next = 0;
        let carried: Vec<Option<&Arc<TaskResourceUse>>> = tasks
            .iter()
            .map(|t| {
                let p = prev?;
                let at = p.task_index_near(next, t.name())?;
                next = at + 1;
                let same = p.tasks()[at].body().is_same_allocation(t.body());
                same.then(|| &p.info().task_use[at])
            })
            .collect();

        // Walk each body exactly once — or not at all where the previous
        // version already did; the section lists are cached in
        // `task_use` so downstream passes never re-walk.
        let per_task: Vec<Cow<'_, [CriticalSection]>> = (tasks.iter().zip(&carried))
            .map(|(t, carried)| match carried {
                Some(tu) => Cow::Borrowed(&tu.sections[..]),
                None => Cow::Owned(t.body().critical_sections()),
            })
            .collect();

        let mut users: Vec<Vec<TaskId>> = vec![Vec::new(); n_res];
        let mut longest: Vec<Dur> = vec![Dur::ZERO; n_res];
        for (task, sections) in tasks.iter().zip(&per_task) {
            for cs in sections.iter() {
                let ri = cs.resource.index();
                // Tasks are visited in id order: a repeat is the last entry.
                if users[ri].last() != Some(&task.id()) {
                    users[ri].push(task.id());
                }
                longest[ri] = longest[ri].max(cs.duration);
            }
        }

        let usage: Vec<ResourceUsage> = users
            .into_iter()
            .enumerate()
            .map(|(ri, mut us)| {
                us.sort_by_key(|t| std::cmp::Reverse(system.task(*t).priority()));
                let mut procs: Vec<ProcessorId> =
                    us.iter().map(|t| system.task(*t).processor()).collect();
                procs.sort_unstable();
                procs.dedup();
                let scope = match procs.len() {
                    0 => Scope::Unused,
                    1 => Scope::Local(procs[0]),
                    _ => Scope::Global,
                };
                ResourceUsage {
                    resource: ResourceId::from_index(ri as u32),
                    scope,
                    users: us,
                    longest_cs: longest[ri],
                }
            })
            .collect();

        let task_use = per_task
            .into_iter()
            .enumerate()
            .map(|(i, sections)| {
                if let (Some(tu), Some(p)) = (carried[i], prev) {
                    let kept = |cs: &CriticalSection| {
                        p.info().scope(cs.resource) == usage[cs.resource.index()].scope
                    };
                    if tu.sections.iter().all(kept) {
                        return Arc::clone(tu);
                    }
                }
                let sections = sections.into_owned();
                let mut global_sections = Vec::new();
                let mut local_sections = Vec::new();
                for cs in &sections {
                    // Only outermost sections count towards NC_i; a nested
                    // section is part of its outermost section's duration.
                    if !cs.is_outermost() {
                        continue;
                    }
                    match usage[cs.resource.index()].scope {
                        Scope::Global => global_sections.push(cs.clone()),
                        Scope::Local(_) => local_sections.push(cs.clone()),
                        Scope::Unused => unreachable!("used resource marked unused"),
                    }
                }
                let mut global_resources: Vec<ResourceId> =
                    global_sections.iter().map(|cs| cs.resource).collect();
                global_resources.sort_unstable();
                global_resources.dedup();
                Arc::new(TaskResourceUse {
                    global_sections,
                    local_sections,
                    sections,
                    global_resources,
                    suspension_count: tasks[i].body().suspension_count(),
                })
            })
            .collect();

        fn sorted_by<'a>(n: usize, name: impl Fn(usize) -> &'a str) -> Vec<u32> {
            let mut v: Vec<u32> = (0..n as u32).collect();
            v.sort_by_key(|&i| name(i as usize));
            v
        }
        let tasks_by_name = sorted_by(tasks.len(), |i| tasks[i].name());
        let resources_by_name =
            sorted_by(system.resources().len(), |i| system.resources()[i].name());
        let processors_by_name =
            sorted_by(system.processors().len(), |i| system.processors()[i].name());

        SystemInfo {
            usage,
            task_use,
            tasks_by_name,
            resources_by_name,
            processors_by_name,
        }
    }

    /// Scope of `resource`.
    ///
    /// # Panics
    ///
    /// Panics if `resource` does not belong to the system.
    #[track_caller]
    pub fn scope(&self, resource: ResourceId) -> Scope {
        self.usage[resource.index()].scope
    }

    /// Usage facts for `resource`.
    ///
    /// # Panics
    ///
    /// Panics if `resource` does not belong to the system.
    #[track_caller]
    pub fn usage(&self, resource: ResourceId) -> &ResourceUsage {
        &self.usage[resource.index()]
    }

    /// Usage facts for every resource, indexed by [`ResourceId`].
    pub fn all_usage(&self) -> &[ResourceUsage] {
        &self.usage
    }

    /// Critical-section facts for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the system.
    #[track_caller]
    pub fn task_use(&self, task: TaskId) -> &TaskResourceUse {
        &self.task_use[task.index()]
    }

    /// Critical-section facts for every task, indexed by [`TaskId`].
    pub fn all_task_use(&self) -> &[Arc<TaskResourceUse>] {
        &self.task_use
    }

    /// Task indices sorted by task name, ties in declaration order.
    pub fn tasks_by_name(&self) -> &[u32] {
        &self.tasks_by_name
    }

    /// Global resources, in id order.
    pub fn global_resources(&self) -> Vec<ResourceId> {
        self.usage
            .iter()
            .filter(|u| u.scope.is_global())
            .map(|u| u.resource)
            .collect()
    }

    /// Local resources on `processor`, in id order.
    pub fn local_resources_on(&self, processor: ProcessorId) -> Vec<ResourceId> {
        self.usage
            .iter()
            .filter(|u| u.scope == Scope::Local(processor))
            .map(|u| u.resource)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Body;
    use crate::system::{System, TaskDef};

    fn sample() -> System {
        let mut b = System::builder();
        let p0 = b.add_processor("P0");
        let p1 = b.add_processor("P1");
        let sl = b.add_resource("S_local");
        let sg = b.add_resource("S_global");
        let su = b.add_resource("S_unused");
        let _ = su;
        b.add_task(
            TaskDef::new("hi", p0).period(10).priority(3).body(
                Body::builder()
                    .critical(sl, |c| c.compute(2))
                    .critical(sg, |c| c.compute(4))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("mid", p0)
                .period(20)
                .priority(2)
                .body(Body::builder().critical(sl, |c| c.compute(5)).build()),
        );
        b.add_task(
            TaskDef::new("lo", p1)
                .period(30)
                .priority(1)
                .body(Body::builder().critical(sg, |c| c.compute(1)).build()),
        );
        b.build().unwrap()
    }

    #[test]
    fn scopes_are_classified() {
        let sys = sample();
        let info = sys.info();
        assert_eq!(
            info.scope(ResourceId::from_index(0)),
            Scope::Local(ProcessorId::from_index(0))
        );
        assert_eq!(info.scope(ResourceId::from_index(1)), Scope::Global);
        assert_eq!(info.scope(ResourceId::from_index(2)), Scope::Unused);
        assert!(info.scope(ResourceId::from_index(1)).is_global());
    }

    #[test]
    fn users_sorted_by_priority_and_longest_cs() {
        let sys = sample();
        let info = sys.info();
        let u = info.usage(ResourceId::from_index(0));
        assert_eq!(u.users, vec![TaskId::from_index(0), TaskId::from_index(1)]);
        assert_eq!(u.longest_cs, Dur::new(5));
        let g = info.usage(ResourceId::from_index(1));
        assert_eq!(g.longest_cs, Dur::new(4));
    }

    #[test]
    fn task_use_splits_by_scope() {
        let sys = sample();
        let info = sys.info();
        let tu = info.task_use(TaskId::from_index(0));
        assert_eq!(tu.gcs_count(), 1);
        assert_eq!(tu.local_sections.len(), 1);
        let lo = info.task_use(TaskId::from_index(2));
        assert_eq!(lo.gcs_count(), 1);
    }

    #[test]
    fn resource_lists() {
        let sys = sample();
        let info = sys.info();
        assert_eq!(info.global_resources(), vec![ResourceId::from_index(1)]);
        assert_eq!(
            info.local_resources_on(ProcessorId::from_index(0)),
            vec![ResourceId::from_index(0)]
        );
        assert!(info
            .local_resources_on(ProcessorId::from_index(1))
            .is_empty());
    }
}
