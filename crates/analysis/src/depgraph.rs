//! Explicit dependency graph over a task system, and dirty-set
//! computation for incremental re-analysis.
//!
//! The §5.1 blocking factors and Theorem 3 are per-processor,
//! per-semaphore computations with a small, enumerable set of
//! cross-task dependencies: a task's bound depends on its processor
//! mates, on the users of the global semaphores those mates touch, and
//! — through the gcs execution priorities — on the highest-priority
//! *remote* user of each shared semaphore. [`DepGraph`] materializes
//! exactly those edges (task → processor → semaphore → ceiling scope;
//! the DPCP host of a global semaphore is the processor of its first,
//! highest-priority, user), and [`dirty_set`] closes an edit over them
//! for one [`Analysis`]: the result names every task, resource and
//! processor whose analysis output can differ between the old and new
//! system. Everything *not* named is guaranteed byte-identical, which
//! is what lets [`DeltaBounds`](crate::DeltaBounds) reuse cached
//! results.
//!
//! # Dirty-set rules
//!
//! Let `C` be the *changed* tasks: tasks named by the edit, tasks
//! present in only one of the two systems, tasks whose shape
//! (processor, period, deadline, offset, body) differs, and every user
//! of a resource whose scope flipped (local ↔ global ↔ unused). In
//! **both** graphs a changed task and its processor's rows are dirty
//! (its execution time enters every lower row), and so is what the
//! analysis' row of the table reaches from it: nothing more from a
//! *section-free* task (no critical section, no suspension: no term of
//! any analysis reads such a task, nor does a task-scope lint, so the
//! narrowing holds for [`DirtySet::tasks`] as the lint unit list too),
//! its local reach from one without a global section, its global
//! reach otherwise. Under MPCP a task with local sections only reaches
//! its mates (factors 1, 5 and the deferred penalty), one with a global
//! section also every user of a global semaphore a mate holds (factors
//! 2-4: it can join or leave a remote task's blocking-processor set).
//! Scope flips are promoted to `C` first, so a flipped resource is
//! global in the graph where that matters. A row with `argmax` also
//! dirties, for a global semaphore whose remote-argmax signature
//! changed (by task name; an argmax that is itself changed counts as
//! changed), the blocking processors of all its users: MPCP's factor 4
//! compares gcs priorities across semaphores. DESIGN §11 argues every
//! footprint.
//!
//! Priorities never enter the cached values themselves — the analysis
//! only ever *compares* them — and the implicit rate-monotonic
//! relabeling performed on add/remove preserves the relative order of
//! surviving tasks. `dirty_set` verifies that order preservation
//! explicitly and falls back to a full recompute when it does not hold
//! (e.g. explicit-priority systems edited in ways that reorder
//! untouched tasks), as well as when processor or resource tables
//! differ or task names are ambiguous.

use crate::bounds::Analysis;
use mpcp_model::{Body, System, Task};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One session edit, by name. `dirty_set` detects added, removed and
/// structurally modified tasks on its own; naming the task here is
/// still required for edits the shape diff cannot see (an explicit
/// priority change) and documents intent for the ones they can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// A task was added.
    AddTask(String),
    /// A task was removed.
    RemoveTask(String),
    /// A task's parameters or body changed.
    ModifyTask(String),
}

impl Edit {
    /// The task named by the edit.
    pub fn task_name(&self) -> &str {
        match self {
            Edit::AddTask(n) | Edit::RemoveTask(n) | Edit::ModifyTask(n) => n,
        }
    }
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self {
            Edit::AddTask(_) => "add-task",
            Edit::RemoveTask(_) => "remove-task",
            Edit::ModifyTask(_) => "modify-task",
        };
        write!(f, "{op} {}", self.task_name())
    }
}

/// A neighbourhood of a changed task that an analysis' terms read: the
/// reach columns of the analysis table.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reach {
    /// Every task on its processor.
    Mates,
    /// Every user of its global semaphores.
    Sharers,
    /// Every task on the processor of a user of its global semaphores.
    MatesOfSharers,
    /// Every task on its processor and every user of a global semaphore
    /// one of them holds.
    SharersOfMates,
    /// Every task on, and every user of a global semaphore hosted on,
    /// the host processor of each of its global semaphores.
    Hosts,
}

/// Names of everything an edit can have invalidated. When
/// [`DirtySet::full`] is set the name sets are meaningless and the
/// caller must recompute everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// The closure rules could not bound the edit; recompute all.
    pub full: bool,
    /// Tasks whose blocking factors or task-scope lints may differ.
    pub tasks: BTreeSet<String>,
    /// Resources whose resource-scope lints may differ.
    pub resources: BTreeSet<String>,
    /// Processors whose Theorem 3 rows or processor-scope lints may
    /// differ.
    pub processors: BTreeSet<String>,
}

impl DirtySet {
    /// A dirty set demanding a full recompute.
    pub fn full() -> Self {
        DirtySet {
            full: true,
            ..DirtySet::default()
        }
    }
}

/// How a resource's users are spread, keyed so it compares across
/// systems (processors by index; the processor tables must match).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKey {
    Local(usize),
    Global,
    Unused,
}

/// One task's node: a pure function of the task's name and shape —
/// processor, period, deadline, offset and body, everything the analysis
/// reads except the priority, which is order-compared separately — and
/// of which of the body's resources are global. No task index in it:
/// versions of an edited system share the nodes of the tasks an edit
/// left alone.
#[derive(Debug, Clone, PartialEq)]
struct TaskNode {
    name: Arc<str>,
    proc: usize,
    period: u64,
    deadline: u64,
    offset: u64,
    body: Body,
    /// Resources the task has sections on (deduplicated, id order).
    resources: Vec<usize>,
    /// The global subset of `resources`.
    globals: Vec<usize>,
    /// Whether the body self-suspends explicitly.
    suspends: bool,
}

impl TaskNode {
    /// Whether `other` has this node's shape. Bodies in one allocation
    /// are not walked.
    fn same_shape(&self, other: &TaskNode) -> bool {
        (self.proc, self.period, self.deadline, self.offset)
            == (other.proc, other.period, other.deadline, other.offset)
            && (self.body.is_same_allocation(&other.body) || self.body == other.body)
    }

    /// Whether this node, built for a task of an earlier version, is the
    /// node `t` gets now that `is_global` classifies the resources.
    fn still_describes(&self, t: &Task, is_global: impl Fn(usize) -> bool) -> bool {
        *self.name == *t.name()
            && self.body.is_same_allocation(t.body())
            && self.proc == t.processor().index()
            && self.period == t.period().ticks()
            && self.deadline == t.deadline().ticks()
            && self.offset == t.offset().ticks()
            && (self.resources.iter().filter(|&&r| is_global(r))).eq(&self.globals)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct ResNode {
    name: String,
    scope: ScopeKey,
    /// Task indices with sections on this resource, in decreasing
    /// priority order (as [`mpcp_model::ResourceUsage::users`]).
    users: Vec<usize>,
    /// For a global resource: per user (by name), the name of the
    /// highest-priority *remote* user — the task whose priority sets
    /// the user's gcs execution priority. Ties broken by smallest
    /// name so the signature is stable across id relabelings.
    argmax: Vec<(Arc<str>, Option<Arc<str>>)>,
}

/// The dependency graph of one system. Build once per system version;
/// [`dirty_set`] consumes the versions before and after an edit.
#[derive(Debug, Clone, PartialEq)]
pub struct DepGraph {
    proc_names: Vec<String>,
    resources: Vec<ResNode>,
    tasks: Vec<Arc<TaskNode>>,
    /// Task indices per processor, in decreasing priority order.
    proc_tasks: Vec<Vec<usize>>,
    /// Task indices in decreasing global priority order (ties by
    /// insertion order). Ranks are what the analysis compares;
    /// absolute priority levels never enter cached values.
    by_prio: Vec<usize>,
    /// Task indices sorted by name, for O(log n) name lookup.
    by_name: Vec<usize>,
    duplicate_tasks: bool,
}

impl DepGraph {
    /// Builds the graph for `system` — the one constructor. `prev`, the
    /// graph of the version `system` was edited from, is a hint that
    /// changes the cost and never the value: a task's node is taken from
    /// it only where everything the node is a function of compares equal
    /// (`TaskNode::still_describes`); `None` builds every node.
    pub fn build(system: &System, prev: Option<&DepGraph>) -> DepGraph {
        let info = system.info();
        let proc_names: Vec<String> = system
            .processors()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        let is_global = |ri: usize| info.all_usage()[ri].scope.is_global();

        // Edits keep surviving tasks in order: the slot after the last
        // match is tried before the name index.
        let mut next = 0;
        let tasks: Vec<Arc<TaskNode>> = system
            .tasks()
            .iter()
            .map(|t| {
                let old = prev.and_then(|p| {
                    let at = match p.tasks.get(next) {
                        Some(n) if *n.name == *t.name() => next,
                        _ => p.task_idx(t.name())?,
                    };
                    next = at + 1;
                    Some(&p.tasks[at])
                });
                if let Some(node) = old.filter(|n| n.still_describes(t, is_global)) {
                    return Arc::clone(node);
                }
                let mut resources: Vec<usize> = info
                    .task_use(t.id())
                    .sections
                    .iter()
                    .map(|cs| cs.resource.index())
                    .collect();
                resources.sort_unstable();
                resources.dedup();
                let globals = resources
                    .iter()
                    .copied()
                    .filter(|&r| is_global(r))
                    .collect();
                Arc::new(TaskNode {
                    name: Arc::clone(t.shared_name()),
                    proc: t.processor().index(),
                    period: t.period().ticks(),
                    deadline: t.deadline().ticks(),
                    offset: t.offset().ticks(),
                    body: t.body().clone(),
                    suspends: info.task_use(t.id()).suspension_count > 0,
                    resources,
                    globals,
                })
            })
            .collect();

        // Orders "highest priority first; among ties, smallest name" —
        // the tied tasks are interchangeable for comparisons.
        let beats = |a: usize, b: usize| {
            let (ta, tb) = (&system.tasks()[a], &system.tasks()[b]);
            (ta.priority(), std::cmp::Reverse(ta.name()))
                > (tb.priority(), std::cmp::Reverse(tb.name()))
        };
        let resources: Vec<ResNode> = info
            .all_usage()
            .iter()
            .map(|u| {
                let users: Vec<usize> = u.users.iter().map(|t| t.index()).collect();
                let scope = match u.scope {
                    mpcp_model::Scope::Local(p) => ScopeKey::Local(p.index()),
                    mpcp_model::Scope::Global => ScopeKey::Global,
                    mpcp_model::Scope::Unused => ScopeKey::Unused,
                };
                let argmax = if scope == ScopeKey::Global {
                    // Per user, the best user on another processor. The
                    // winner is the globally best user `b1` for everyone
                    // except `b1`'s own processor mates, who get the
                    // best user bound elsewhere — an O(users) scan
                    // instead of the quadratic per-user max.
                    let mut b1: Option<usize> = None;
                    for &v in &users {
                        if b1.is_none_or(|b| beats(v, b)) {
                            b1 = Some(v);
                        }
                    }
                    let mut b2: Option<usize> = None;
                    for &v in &users {
                        if Some(tasks[v].proc) != b1.map(|b| tasks[b].proc)
                            && b2.is_none_or(|b| beats(v, b))
                        {
                            b2 = Some(v);
                        }
                    }
                    users
                        .iter()
                        .map(|&ui| {
                            let best = if Some(tasks[ui].proc) == b1.map(|b| tasks[b].proc) {
                                b2
                            } else {
                                b1
                            };
                            (
                                Arc::clone(&tasks[ui].name),
                                best.map(|v| Arc::clone(&tasks[v].name)),
                            )
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                ResNode {
                    name: system.resource(u.resource).name().to_string(),
                    scope,
                    users,
                    argmax,
                }
            })
            .collect();

        let mut proc_tasks: Vec<Vec<usize>> = vec![Vec::new(); proc_names.len()];
        for (i, t) in tasks.iter().enumerate() {
            proc_tasks[t.proc].push(i);
        }
        for v in &mut proc_tasks {
            v.sort_by_key(|&i| std::cmp::Reverse(system.tasks()[i].priority()));
        }

        // Sorted once per system version, by its info.
        let by_name: Vec<usize> = (info.tasks_by_name().iter()).map(|&i| i as usize).collect();

        let mut by_prio: Vec<usize> = (0..tasks.len()).collect();
        by_prio.sort_by_key(|&i| std::cmp::Reverse(system.tasks()[i].priority()));

        DepGraph {
            proc_names,
            resources,
            tasks,
            proc_tasks,
            by_prio,
            by_name,
            duplicate_tasks: system.has_duplicate_task_names(),
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Whether two tasks share a name, defeating name-keyed caching.
    pub fn has_duplicate_task_names(&self) -> bool {
        self.duplicate_tasks
    }

    /// How many task nodes another graph version holds too. Counted
    /// while the hint a graph was built from is alive, that is how many
    /// nodes the build took over instead of making.
    pub fn shared_nodes(&self) -> usize {
        (self.tasks.iter())
            .filter(|n| Arc::strong_count(n) > 1)
            .count()
    }

    fn task_idx(&self, name: &str) -> Option<usize> {
        self.by_name
            .binary_search_by(|&i| (*self.tasks[i].name).cmp(name))
            .ok()
            .map(|pos| self.by_name[pos])
    }

    /// Whether `other` has this graph's processor and resource tables.
    fn same_tables(&self, other: &DepGraph) -> bool {
        let names = self.resources.iter().map(|r| &r.name);
        self.proc_names == other.proc_names && names.eq(other.resources.iter().map(|r| &r.name))
    }

    /// The DPCP host processor of resource `r`, if it is global: that
    /// of its highest-priority user.
    fn host(&self, r: usize) -> Option<usize> {
        let res = &self.resources[r];
        (res.scope == ScopeKey::Global).then(|| self.tasks[res.users[0]].proc)
    }

    /// Tasks in decreasing priority order (ties by insertion order),
    /// restricted to names not in `skip` — the order-preservation
    /// witness compared across graph versions.
    fn priority_order<'a>(
        &'a self,
        skip: &'a BTreeSet<String>,
    ) -> impl Iterator<Item = &'a str> + 'a {
        self.by_prio
            .iter()
            .map(|&i| &*self.tasks[i].name)
            .filter(|n| !skip.contains(*n))
    }
}

/// Per-graph dirty flags by index, converted to names once at the end
/// of [`dirty_set`]. Index 0 is the old graph, 1 the new.
struct Marks {
    tasks: [Vec<bool>; 2],
    /// Processors whose Theorem 3 rows must be recomputed. Says nothing
    /// about which of their tasks are marked.
    procs: [Vec<bool>; 2],
    /// Visited guard: the users of this resource are already marked.
    res_users: [Vec<bool>; 2],
    /// Visited guard for [`Marks::mark_processor`]'s global cascade,
    /// kept separate from `procs` because a processor can first be
    /// marked for a changed task that stops short of the cascade and
    /// later need it for another changed task.
    cascaded: [Vec<bool>; 2],
}

impl Marks {
    fn new(old: &DepGraph, new: &DepGraph) -> Marks {
        Marks {
            tasks: [vec![false; old.tasks.len()], vec![false; new.tasks.len()]],
            procs: [
                vec![false; old.proc_names.len()],
                vec![false; new.proc_names.len()],
            ],
            res_users: [
                vec![false; old.resources.len()],
                vec![false; new.resources.len()],
            ],
            cascaded: [
                vec![false; old.proc_names.len()],
                vec![false; new.proc_names.len()],
            ],
        }
    }

    /// Marks task `t` of graph `gi` and the rows of its processor —
    /// enough for a changed section-free task, which appears in no
    /// other task's factors (see the module docs).
    fn mark_alone(&mut self, g: &DepGraph, gi: usize, t: usize) {
        self.procs[gi][g.tasks[t].proc] = true;
        self.tasks[gi][t] = true;
    }

    /// Marks processor `p` of graph `gi` and every task on it.
    fn mark_mates(&mut self, g: &DepGraph, gi: usize, p: usize) {
        self.procs[gi][p] = true;
        for &mate in &g.proc_tasks[p] {
            self.tasks[gi][mate] = true;
        }
    }

    /// Marks every user of resource `r` of graph `gi`.
    fn mark_users(&mut self, g: &DepGraph, gi: usize, r: usize) {
        if !std::mem::replace(&mut self.res_users[gi][r], true) {
            for &u in &g.resources[r].users {
                self.tasks[gi][u] = true;
            }
        }
    }

    /// Marks processor `p` of graph `gi`, every task on it, and every
    /// user of every global semaphore those tasks touch — the shared
    /// inner rule of both the changed-task and the gcs-repriority
    /// closures.
    fn mark_processor(&mut self, g: &DepGraph, gi: usize, p: usize) {
        if std::mem::replace(&mut self.cascaded[gi][p], true) {
            return;
        }
        self.mark_mates(g, gi, p);
        for &mate in &g.proc_tasks[p] {
            for &r in &g.tasks[mate].globals {
                self.mark_users(g, gi, r);
            }
        }
    }

    /// Marks what changed task `t` of graph `gi` of `graphs` reaches
    /// through `reach`.
    fn mark_reach(&mut self, graphs: [&DepGraph; 2], gi: usize, t: usize, reach: Reach) {
        let g = graphs[gi];
        let node = &g.tasks[t];
        match reach {
            Reach::Mates => self.mark_mates(g, gi, node.proc),
            Reach::SharersOfMates => self.mark_processor(g, gi, node.proc),
            Reach::Sharers => node.globals.iter().for_each(|&r| self.mark_users(g, gi, r)),
            Reach::MatesOfSharers => {
                for &r in &node.globals {
                    for &u in &g.resources[r].users {
                        self.mark_mates(g, gi, g.tasks[u].proc);
                    }
                }
            }
            Reach::Hosts => {
                // The host in either version: a task that becomes or
                // stops being a semaphore's top user moves it, and the
                // task is in one version only when it came or went.
                let hosts = node.globals.iter().flat_map(|&r| graphs.map(|g| g.host(r)));
                for h in hosts.flatten() {
                    self.mark_mates(g, gi, h);
                    for r in 0..g.resources.len() {
                        if g.host(r) == Some(h) {
                            self.mark_users(g, gi, r);
                        }
                    }
                }
            }
        }
    }
}

/// Closes `edit` over the dependency edges of the `old` and `new`
/// graphs, naming everything whose output under `analysis` (and whose
/// lint findings) can differ. See the module docs for the rules; any
/// configuration the rules cannot bound yields [`DirtySet::full`].
pub fn dirty_set(old: &DepGraph, new: &DepGraph, edit: &Edit, analysis: Analysis) -> DirtySet {
    let row = analysis.row();
    if old.duplicate_tasks || new.duplicate_tasks || !old.same_tables(new) {
        return DirtySet::full();
    }

    // Changed tasks: named by the edit, present in only one version,
    // or structurally different. Both `by_name` orders are sorted, so
    // a lockstep merge finds the differences in one pass.
    let mut changed: BTreeSet<String> = BTreeSet::from([edit.task_name().to_string()]);
    let (mut oi, mut ni) = (0, 0);
    loop {
        let o = old.by_name.get(oi).map(|&i| &old.tasks[i]);
        let n = new.by_name.get(ni).map(|&i| &new.tasks[i]);
        let order = match (o, n) {
            (Some(o), Some(n)) => o.name.cmp(&n.name),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => break,
        };
        let (o_step, n_step) = (order.is_le(), order.is_ge());
        let differs = match (o, n) {
            (Some(o), Some(n)) if order.is_eq() => !o.same_shape(n),
            _ => true,
        };
        if differs {
            let node = if o_step { o } else { n };
            changed.insert(node.expect("a side advances").name.to_string());
        }
        (oi, ni) = (oi + usize::from(o_step), ni + usize::from(n_step));
    }

    // Relative priority order among unchanged tasks must be preserved,
    // or cached comparisons (which is all the analysis does with
    // priorities) are invalid.
    if !old
        .priority_order(&changed)
        .eq(new.priority_order(&changed))
    {
        return DirtySet::full();
    }

    let mut dirty = DirtySet::default();
    // Per-graph dirty marks by index; converted to names at the end.
    // The closure loops below revisit the same tasks many times over
    // (every mate of every changed task, every user of every shared
    // semaphore), so set-of-name insertion would allocate thousands of
    // strings per edit where a flag test costs nothing.
    let mut marks = Marks::new(old, new);

    // Scope flips promote every user (in either version) to changed.
    for (ri, o) in old.resources.iter().enumerate() {
        let n = &new.resources[ri];
        if o.scope != n.scope {
            dirty.resources.insert(o.name.clone());
            for &u in &o.users {
                changed.insert(old.tasks[u].name.to_string());
            }
            for &u in &n.users {
                changed.insert(new.tasks[u].name.to_string());
            }
        }
    }

    // Per changed task, in both versions: itself, its processor's rows,
    // what the analysis reaches from it, and its own resources. A
    // section-free task reaches nothing further; one with no global
    // section, only the local reach (scope flips it could cause were
    // already promoted above, and then its globals are non-empty in the
    // graph where the resource is global).
    for c in &changed {
        for (gi, g) in [old, new].into_iter().enumerate() {
            let Some(ti) = g.task_idx(c) else { continue };
            let t = &g.tasks[ti];
            marks.mark_alone(g, gi, ti);
            let reach = match (t.resources.is_empty() && !t.suspends, t.globals.is_empty()) {
                (true, _) => &[][..],
                (false, true) => row.local_reach,
                (false, false) => row.global_reach,
            };
            for &r in reach {
                marks.mark_reach([old, new], gi, ti, r);
            }
            for &r in &t.resources {
                dirty.resources.insert(g.resources[r].name.clone());
            }
        }
    }

    // Gcs-priority propagation, for a row with `argmax`: a global
    // semaphore whose remote-argmax signature changed (or whose argmax
    // is itself a changed task) invalidates factor-4 comparisons on the
    // processors of its users.
    // Resource tables are equal (checked above): indices name the same
    // semaphore in both versions.
    let mut candidates: BTreeSet<usize> = BTreeSet::new();
    for c in changed.iter().filter(|_| row.argmax) {
        for g in [old, new] {
            if let Some(ti) = g.task_idx(c) {
                candidates.extend(&g.tasks[ti].globals);
            }
        }
    }
    for r in candidates {
        let (o, n) = (&old.resources[r], &new.resources[r]);
        if o.scope != ScopeKey::Global || n.scope != ScopeKey::Global {
            continue; // flips are already fully promoted above
        }
        let touched = o.argmax != n.argmax
            || o.argmax
                .iter()
                .chain(&n.argmax)
                .any(|(_, best)| best.as_deref().is_some_and(|b| changed.contains(b)));
        if touched {
            for (gi, g) in [old, new].into_iter().enumerate() {
                for &u in &g.resources[r].users {
                    marks.mark_processor(g, gi, g.tasks[u].proc);
                }
            }
        }
    }

    // Convert index marks to names (deduplicating across versions).
    for (gi, g) in [old, new].into_iter().enumerate() {
        for (ti, &m) in marks.tasks[gi].iter().enumerate() {
            if m {
                dirty.tasks.insert(g.tasks[ti].name.to_string());
            }
        }
        for (pi, &m) in marks.procs[gi].iter().enumerate() {
            if m {
                dirty.processors.insert(g.proc_names[pi].clone());
            }
        }
    }

    // Theorem 3 rows live per processor: every dirty task's processor
    // (in both versions) must be re-rowed.
    for t in dirty.tasks.iter().cloned().collect::<Vec<_>>() {
        for g in [old, new] {
            if let Some(ti) = g.task_idx(&t) {
                dirty
                    .processors
                    .insert(g.proc_names[g.tasks[ti].proc].clone());
            }
        }
    }

    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, System, TaskDef};

    const MPCP: Analysis = Analysis::Mpcp;

    /// P0: t0 (pri 3, SG). P1: t1 (pri 2, SG). P2: t2 (pri 1, SL). Plus,
    /// when given, a fourth task (pri 4, T 400) on P1 with that name and
    /// body; SG is resource 0.
    fn base_plus(extra: Option<(&str, Body)>) -> System {
        let mut b = System::builder();
        let p = b.add_processors(3);
        let sg = b.add_resource("SG");
        let sl = b.add_resource("SL");
        b.add_task(
            TaskDef::new("t0", p[0])
                .period(100)
                .priority(3)
                .body(Body::builder().critical(sg, |c| c.compute(2)).build()),
        );
        b.add_task(
            TaskDef::new("t1", p[1])
                .period(200)
                .priority(2)
                .body(Body::builder().critical(sg, |c| c.compute(3)).build()),
        );
        b.add_task(
            TaskDef::new("t2", p[2])
                .period(300)
                .priority(1)
                .body(Body::builder().critical(sl, |c| c.compute(1)).build()),
        );
        if let Some((name, body)) = extra {
            b.add_task(TaskDef::new(name, p[1]).period(400).priority(4).body(body));
        }
        b.build().unwrap()
    }

    fn base() -> System {
        base_plus(None)
    }

    /// `base()` plus t3 on P1 sharing SG.
    fn with_t3() -> System {
        let sg = mpcp_model::ResourceId::from_index(0);
        let body = Body::builder().critical(sg, |c| c.compute(5)).build();
        base_plus(Some(("t3", body)))
    }

    /// A graph built with the previous version as a hint equals the one
    /// built alone, and takes over exactly the nodes whose every input
    /// compared equal — one edit per input here, and one task whose
    /// only change is the scope of a semaphore under it.
    #[test]
    fn hinted_build_shares_only_nodes_whose_inputs_are_unchanged() {
        let base = base();
        let old = DepGraph::build(&base, None);
        let t1 = &base.tasks()[1];
        let edits: [(&str, mpcp_model::TaskDef, usize); 7] = [
            ("nothing", t1.to_def(), 3),
            ("period", t1.to_def().period(250), 2),
            ("deadline", t1.to_def().deadline(150), 2),
            ("offset", t1.to_def().offset(7), 2),
            (
                "processor",
                {
                    let p2 = base.processors()[2].id();
                    mpcp_model::TaskDef::new("t1", p2)
                        .period(200)
                        .priority(2)
                        .body(t1.body().clone())
                },
                2,
            ),
            // An equal body in an allocation of its own.
            (
                "body",
                {
                    let copy = Body::from_segments(t1.body().segments().to_vec());
                    assert_eq!(&copy, t1.body());
                    t1.to_def().body(copy)
                },
                2,
            ),
            // t1 takes SL too, which t2 holds on another processor: SL
            // turns global under t2, which did not change.
            (
                "scope",
                {
                    let [sg, sl] = [0, 1].map(mpcp_model::ResourceId::from_index);
                    let body = Body::builder()
                        .critical(sg, |c| c.compute(3))
                        .critical(sl, |c| c.compute(1));
                    t1.to_def().body(body.build())
                },
                1,
            ),
        ];
        for (what, def, shared) in edits {
            let defs = [base.tasks()[0].to_def(), def, base.tasks()[2].to_def()];
            let next = base.with_tasks(defs).unwrap();
            let hinted = DepGraph::build(&next, Some(&old));
            assert_eq!(hinted.shared_nodes(), shared, "{what}");
            assert_eq!(hinted, DepGraph::build(&next.detached(), None), "{what}");
        }
        // A removal from the front shifts every id; nodes carry none.
        // (t2, the bystander, goes: without t0 or t1 SG would turn local
        // under the other.)
        let [t0, t1, t2] = [0, 1, 2].map(|i| base.tasks()[i].to_def());
        let rotated = base.with_tasks([t2, t0.clone(), t1.clone()]).unwrap();
        let old = DepGraph::build(&rotated, None);
        let next = base.with_tasks([t0, t1]).unwrap();
        let hinted = DepGraph::build(&next, Some(&old));
        assert_eq!(hinted.shared_nodes(), 2);
        assert_eq!(hinted, DepGraph::build(&next.detached(), None));
    }

    #[test]
    fn add_task_dirties_sharers_but_not_bystanders() {
        let old = DepGraph::build(&base(), None);
        let new = DepGraph::build(&with_t3(), None);
        let d = dirty_set(&old, &new, &Edit::AddTask("t3".into()), MPCP);
        assert!(!d.full);
        for t in ["t0", "t1", "t3"] {
            assert!(d.tasks.contains(t), "{t} should be dirty: {d:?}");
        }
        assert!(!d.tasks.contains("t2"), "bystander went dirty: {d:?}");
        assert!(d.processors.contains("P0") && d.processors.contains("P1"));
        assert!(!d.processors.contains("P2"));
        assert!(d.resources.contains("SG"));
        assert!(!d.resources.contains("SL"));
    }

    #[test]
    fn section_free_task_dirties_itself_and_its_rows_only() {
        let old = DepGraph::build(&base(), None);
        let extra = base_plus(Some(("extra", Body::builder().compute(5).build())));
        let new = DepGraph::build(&extra, None);
        for (a, b, edit) in [
            (&old, &new, Edit::AddTask("extra".into())),
            (&new, &old, Edit::RemoveTask("extra".into())),
        ] {
            let d = dirty_set(a, b, &edit, MPCP);
            assert!(!d.full);
            assert_eq!(d.tasks, BTreeSet::from(["extra".to_string()]), "{edit}");
            assert_eq!(d.processors, BTreeSet::from(["P1".to_string()]), "{edit}");
            assert!(d.resources.is_empty(), "{edit}: {d:?}");
        }
        // One suspension is enough to reach the mates again: it feeds
        // their deferred-execution penalty.
        let body = Body::builder().compute(2).suspend(1).compute(2).build();
        let suspending = base_plus(Some(("extra", body)));
        let d = dirty_set(
            &old,
            &DepGraph::build(&suspending, None),
            &Edit::AddTask("extra".into()),
            MPCP,
        );
        assert!(d.tasks.contains("t1"), "{d:?}");
        assert!(!d.tasks.contains("t0"), "{d:?}");
    }

    #[test]
    fn removal_is_detected_without_the_edit_naming_it() {
        let old = DepGraph::build(&with_t3(), None);
        let new = DepGraph::build(&base(), None);
        // Mislabel the edit entirely; the graph diff still finds t3.
        let d = dirty_set(&old, &new, &Edit::ModifyTask("t1".into()), MPCP);
        assert!(!d.full);
        assert!(d.tasks.contains("t3"));
        assert!(d.tasks.contains("t0"));
        assert!(!d.tasks.contains("t2"));
    }

    /// A shape change the edit does not name is found by the name merge.
    #[test]
    fn shape_change_is_detected_without_the_edit_naming_it() {
        let base = base();
        let [t0, t1, t2] = [0, 1, 2].map(|i| base.tasks()[i].to_def());
        let next = base.with_tasks([t0, t1.period(250), t2]).unwrap();
        let (old, new) = (DepGraph::build(&base, None), DepGraph::build(&next, None));
        let d = dirty_set(&old, &new, &Edit::ModifyTask("t2".into()), MPCP);
        assert!(d.tasks.contains("t1") && d.tasks.contains("t0"), "{d:?}");
    }

    #[test]
    fn scope_flip_promotes_every_user() {
        // SL is local to P2 (only t2). A new P0 task touching SL flips
        // it global: t2 must go dirty even though nothing else about
        // it changed.
        let mut b = System::builder();
        let p = b.add_processors(3);
        let sg = b.add_resource("SG");
        let sl = b.add_resource("SL");
        b.add_task(
            TaskDef::new("t0", p[0])
                .period(100)
                .priority(3)
                .body(Body::builder().critical(sg, |c| c.compute(2)).build()),
        );
        b.add_task(
            TaskDef::new("t1", p[1])
                .period(200)
                .priority(2)
                .body(Body::builder().critical(sg, |c| c.compute(3)).build()),
        );
        b.add_task(
            TaskDef::new("t2", p[2])
                .period(300)
                .priority(1)
                .body(Body::builder().critical(sl, |c| c.compute(1)).build()),
        );
        b.add_task(
            TaskDef::new("t4", p[0])
                .period(500)
                .priority(4)
                .body(Body::builder().critical(sl, |c| c.compute(2)).build()),
        );
        let new = b.build().unwrap();
        let old = DepGraph::build(&base(), None);
        let new = DepGraph::build(&new, None);
        let d = dirty_set(&old, &new, &Edit::AddTask("t4".into()), MPCP);
        assert!(!d.full);
        assert!(d.tasks.contains("t2"), "flipped resource user stayed clean");
        assert!(d.resources.contains("SL"));
        assert!(d.processors.contains("P2"));
    }

    #[test]
    fn structural_mismatches_force_full() {
        let two = {
            let mut b = System::builder();
            let p = b.add_processors(2);
            let s = b.add_resource("SG");
            b.add_task(
                TaskDef::new("a", p[0])
                    .period(10)
                    .priority(2)
                    .body(Body::builder().critical(s, |c| c.compute(1)).build()),
            );
            b.add_task(
                TaskDef::new("b", p[1])
                    .period(20)
                    .priority(1)
                    .body(Body::builder().critical(s, |c| c.compute(1)).build()),
            );
            b.build().unwrap()
        };
        let old = DepGraph::build(&base(), None);
        let new = DepGraph::build(&two, None);
        assert!(dirty_set(&old, &new, &Edit::ModifyTask("a".into()), MPCP).full);
    }

    #[test]
    fn priority_reorder_of_untouched_tasks_forces_full() {
        let make = |pa: u32, pb: u32| {
            let mut b = System::builder();
            let p = b.add_processors(2);
            let s = b.add_resource("SG");
            b.add_task(
                TaskDef::new("a", p[0])
                    .period(10)
                    .priority(pa)
                    .body(Body::builder().critical(s, |c| c.compute(1)).build()),
            );
            b.add_task(
                TaskDef::new("b", p[1])
                    .period(20)
                    .priority(pb)
                    .body(Body::builder().critical(s, |c| c.compute(1)).build()),
            );
            b.add_task(
                TaskDef::new("c", p[0])
                    .period(30)
                    .priority(1)
                    .body(Body::builder().compute(1).build()),
            );
            b.build().unwrap()
        };
        let old = DepGraph::build(&make(3, 2), None);
        let new = DepGraph::build(&make(2, 3), None);
        // The edit names only c; a and b swapped order behind its back.
        assert!(dirty_set(&old, &new, &Edit::ModifyTask("c".into()), MPCP).full);
    }

    /// DPCP's host edge: a task that takes SG over (its new top user,
    /// on P2) moves SG's host off P1, so every task on P1 is dirty under
    /// DPCP (agents no longer run there), section-free `quiet` included.
    /// FMLP+'s footprint has no host edge and leaves `quiet` alone.
    #[test]
    fn dpcp_footprint_reaches_the_old_and_new_host() {
        let quiet = TaskDef::new("quiet", mpcp_model::ProcessorId::from_index(1))
            .period(900)
            .priority(6)
            .body(Body::builder().compute(1).build());
        let sg = mpcp_model::ResourceId::from_index(0);
        let late = TaskDef::new("late", mpcp_model::ProcessorId::from_index(2))
            .period(800)
            .priority(7)
            .body(Body::builder().critical(sg, |c| c.compute(1)).build());
        let base = with_t3();
        let defs = || base.tasks().iter().map(Task::to_def).chain([quiet.clone()]);
        let before = base.with_tasks(defs()).unwrap();
        let after = base.with_tasks(defs().chain([late])).unwrap();
        let (old, new) = (
            DepGraph::build(&before, None),
            DepGraph::build(&after, None),
        );
        assert_eq!((old.host(0), new.host(0)), (Some(1), Some(2)));
        let edit = Edit::AddTask("late".into());
        let dpcp = dirty_set(&old, &new, &edit, Analysis::Dpcp);
        assert!(dpcp.tasks.contains("quiet"), "{dpcp:?}");
        let fmlp = dirty_set(&old, &new, &edit, Analysis::Fmlp);
        assert!(!fmlp.tasks.contains("quiet"), "{fmlp:?}");
    }
}
