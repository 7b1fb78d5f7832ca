//! A threaded MPCP runtime on *virtual processors*.
//!
//! The paper's implementation (§5.4) relies on an RT kernel that can fix
//! task priorities per processor. Portable user space cannot set true
//! scheduling priorities, so this runtime enforces them itself: each task
//! is an OS thread cooperatively gated by a per-virtual-processor
//! admission rule — between checkpoints, only the highest
//! effective-priority runnable actor of a virtual processor proceeds.
//! Semaphores follow the shared-memory protocol exactly: local semaphores
//! use the uniprocessor PCP, global semaphores use atomic grant /
//! priority-queued suspension / direct hand-off, and global critical
//! sections run at their fixed `P_G + P_H` priority.

use crate::log::{RtEvent, RtEventKind, RtLog};
use mpcp_core::{CeilingTable, GcsPriorities, GlobalSemaphore, Pcp, PcpDecision, ReleaseOutcome};
use mpcp_model::{Priority, ResourceId, Scope, Segment, System, TaskId};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type ActorId = u64;

#[derive(Debug)]
struct Actor {
    task: TaskId,
    proc: usize,
    base: Priority,
    eff: Priority,
    runnable: bool,
    saved: Vec<(ResourceId, Priority)>,
}

#[derive(Debug)]
struct Sched {
    actors: HashMap<ActorId, Actor>,
    pcp: Vec<Pcp<ActorId>>,
    blocked_local: Vec<Vec<ActorId>>,
    gsems: Vec<GlobalSemaphore<ActorId>>,
    log: RtLog,
    next_seq: u64,
    next_actor: ActorId,
}

impl Sched {
    fn log(&mut self, actor: &Actor, kind: RtEventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.log.push(RtEvent {
            seq,
            task: actor.task,
            priority: actor.base,
            kind,
        });
    }

    /// Whether `id` is the actor its virtual processor would dispatch.
    fn admitted(&self, id: ActorId) -> bool {
        let me = &self.actors[&id];
        if !me.runnable {
            return false;
        }
        self.actors
            .iter()
            .filter(|(_, a)| a.proc == me.proc && a.runnable)
            .max_by(|(ia, a), (ib, b)| a.eff.cmp(&b.eff).then(ib.cmp(ia)))
            .is_some_and(|(winner, _)| *winner == id)
    }
}

struct Inner {
    sched: Mutex<Sched>,
    cv: Condvar,
    system: System,
    scopes: Vec<Scope>,
    ceilings: CeilingTable,
    gcs: GcsPriorities,
}

/// A threaded executor running a [`System`]'s jobs under the MPCP on
/// virtual processors.
///
/// # Example
///
/// ```
/// use mpcp_model::{Body, System, TaskDef};
/// use mpcp_runtime::Runtime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = System::builder();
/// let p = b.add_processors(2);
/// let s = b.add_resource("SG");
/// b.add_task(TaskDef::new("a", p[0]).period(100).priority(2).body(
///     Body::builder().compute(3).critical(s, |c| c.compute(2)).build(),
/// ));
/// b.add_task(TaskDef::new("b", p[1]).period(100).priority(1).body(
///     Body::builder().critical(s, |c| c.compute(2)).build(),
/// ));
/// let system = b.build()?;
///
/// let rt = Runtime::new(&system);
/// let log = rt.run_all_once();
/// log.assert_mutual_exclusion();
/// assert_eq!(log.completions(), 2);
/// # Ok(())
/// # }
/// ```
pub struct Runtime {
    inner: Arc<Inner>,
}

impl Runtime {
    /// Creates a runtime for `system` (one virtual processor per model
    /// processor).
    pub fn new(system: &System) -> Runtime {
        let info = system.info();
        let nprocs = system.processors().len();
        Runtime {
            inner: Arc::new(Inner {
                sched: Mutex::new(Sched {
                    actors: HashMap::new(),
                    pcp: (0..nprocs).map(|_| Pcp::new()).collect(),
                    blocked_local: vec![Vec::new(); nprocs],
                    gsems: (0..system.resources().len())
                        .map(|_| GlobalSemaphore::new())
                        .collect(),
                    log: RtLog::default(),
                    next_seq: 0,
                    next_actor: 0,
                }),
                cv: Condvar::new(),
                system: system.clone(),
                scopes: info.all_usage().iter().map(|u| u.scope).collect(),
                ceilings: CeilingTable::compute(system),
                gcs: GcsPriorities::compute(system),
            }),
        }
    }

    /// Registers an actor for one job of `task` without starting it, so
    /// a batch of jobs can be made visible to the admission rule before
    /// any of them runs (a simultaneous release).
    fn register(&self, task: TaskId) -> ActorId {
        let t = self.inner.system.task(task);
        let proc = t.processor().index();
        let base = t.priority();
        let mut s = self.inner.sched.lock().unwrap();
        let id = s.next_actor;
        s.next_actor += 1;
        s.actors.insert(
            id,
            Actor {
                task,
                proc,
                base,
                eff: base,
                runnable: true,
                saved: Vec::new(),
            },
        );
        id
    }

    /// Starts the thread for a previously [`register`](Self::register)ed
    /// actor.
    fn spawn_registered(&self, id: ActorId, task: TaskId, iterations: u32) -> JoinHandle<()> {
        assert!(iterations > 0, "zero iterations");
        let inner = Arc::clone(&self.inner);
        let body = inner.system.task(task).body().clone();
        self.inner.cv.notify_all();
        std::thread::spawn(move || {
            for _ in 0..iterations {
                drive(&inner, id, body.segments());
            }
            let mut s = inner.sched.lock().unwrap();
            let actor = s.actors.remove(&id).expect("actor registered");
            debug_assert!(actor.saved.is_empty(), "completed holding locks");
            let seq = s.next_seq;
            s.next_seq += 1;
            s.log.push(RtEvent {
                seq,
                task: actor.task,
                priority: actor.base,
                kind: RtEventKind::Completed,
            });
            drop(s);
            inner.cv.notify_all();
        })
    }

    /// Releases one job of every task simultaneously, waits for all to
    /// finish and returns the log.
    pub fn run_all_once(&self) -> RtLog {
        self.run_all_repeated(1)
    }

    /// Runs `iterations` back-to-back jobs of every task (each task is
    /// one thread executing its body repeatedly) and returns the log.
    /// More iterations mean more lock-contention interleavings.
    pub fn run_all_repeated(&self, iterations: u32) -> RtLog {
        // Register every actor before starting any thread: the admission
        // rule only arbitrates among registered actors, so spawning as we
        // register would let an early low-priority job run unopposed.
        let ids: Vec<(ActorId, TaskId)> = self
            .inner
            .system
            .tasks()
            .iter()
            .map(|t| (self.register(t.id()), t.id()))
            .collect();
        let handles: Vec<_> = ids
            .into_iter()
            .map(|(id, task)| self.spawn_registered(id, task, iterations))
            .collect();
        for h in handles {
            h.join().expect("runtime job panicked");
        }
        self.inner.sched.lock().unwrap().log.clone()
    }

    /// A snapshot of the log so far.
    pub fn log(&self) -> RtLog {
        self.inner.sched.lock().unwrap().log.clone()
    }
}

/// Waits until `id` is the dispatched actor of its virtual processor.
fn checkpoint(inner: &Inner, id: ActorId) {
    let mut s = inner.sched.lock().unwrap();
    while !s.admitted(id) {
        s = inner.cv.wait(s).unwrap();
    }
}

fn drive(inner: &Inner, id: ActorId, segments: &[Segment]) {
    for seg in segments {
        match seg {
            Segment::Compute(d) => {
                for _ in 0..d.ticks() {
                    checkpoint(inner, id);
                    std::hint::spin_loop();
                }
            }
            Segment::Suspend(d) => {
                {
                    let mut s = inner.sched.lock().unwrap();
                    s.actors.get_mut(&id).expect("actor").runnable = false;
                }
                inner.cv.notify_all();
                std::thread::sleep(std::time::Duration::from_micros(d.ticks()));
                {
                    let mut s = inner.sched.lock().unwrap();
                    s.actors.get_mut(&id).expect("actor").runnable = true;
                }
                inner.cv.notify_all();
                checkpoint(inner, id);
            }
            Segment::Critical(res, body) => {
                lock(inner, id, *res);
                checkpoint(inner, id);
                drive(inner, id, body);
                unlock(inner, id, *res);
                checkpoint(inner, id);
            }
        }
    }
}

fn lock(inner: &Inner, id: ActorId, res: ResourceId) {
    checkpoint(inner, id);
    let mut s = inner.sched.lock().unwrap();
    let snap = snapshot(&s.actors[&id]);
    s.log(&snap, RtEventKind::Requested(res));
    match inner.scopes[res.index()] {
        Scope::Global => {
            if s.gsems[res.index()].try_acquire(id) {
                let task = s.actors[&id].task;
                let gp = inner.gcs.of(task, res).expect("gcs priority");
                let actor = s.actors.get_mut(&id).expect("actor");
                actor.saved.push((res, actor.eff));
                actor.eff = actor.eff.max(gp);
                let snap = snapshot(&s.actors[&id]);
                s.log(&snap, RtEventKind::Locked(res));
                drop(s);
                inner.cv.notify_all();
            } else {
                let base = s.actors[&id].base;
                s.gsems[res.index()].enqueue(id, base);
                s.actors.get_mut(&id).expect("actor").runnable = false;
                let snap = snapshot(&s.actors[&id]);
                s.log(&snap, RtEventKind::Blocked(res));
                inner.cv.notify_all();
                // Wait for the hand-off (the releaser does all the
                // bookkeeping, including our log entry and priority).
                while !s.actors[&id].runnable {
                    s = inner.cv.wait(s).unwrap();
                }
                drop(s);
            }
        }
        Scope::Local(p) => {
            let p = p.index();
            loop {
                let (eff, decision) = {
                    let actor = &s.actors[&id];
                    (actor.eff, s.pcp[p].try_lock(id, actor.eff, res))
                };
                match decision {
                    PcpDecision::Granted => {
                        s.pcp[p].lock(id, res, inner.ceilings.ceiling(res));
                        let actor = s.actors.get_mut(&id).expect("actor");
                        actor.saved.push((res, actor.eff));
                        let snap = snapshot(&s.actors[&id]);
                        s.log(&snap, RtEventKind::Locked(res));
                        drop(s);
                        inner.cv.notify_all();
                        return;
                    }
                    PcpDecision::Blocked { holder, .. } => {
                        if let Some(h) = s.actors.get_mut(&holder) {
                            if h.eff < eff {
                                h.eff = eff;
                            }
                        }
                        s.blocked_local[p].push(id);
                        s.actors.get_mut(&id).expect("actor").runnable = false;
                        let snap = snapshot(&s.actors[&id]);
                        s.log(&snap, RtEventKind::Blocked(res));
                        inner.cv.notify_all();
                        while !s.actors[&id].runnable {
                            s = inner.cv.wait(s).unwrap();
                        }
                        // Retry only once dispatched, so a higher-priority
                        // woken waiter re-runs the PCP test first (as a
                        // preemptive kernel would dispatch it first).
                        while !s.admitted(id) {
                            s = inner.cv.wait(s).unwrap();
                        }
                    }
                }
            }
        }
        Scope::Unused => unreachable!("lock of unused resource"),
    }
}

fn unlock(inner: &Inner, id: ActorId, res: ResourceId) {
    checkpoint(inner, id);
    let mut s = inner.sched.lock().unwrap();
    match inner.scopes[res.index()] {
        Scope::Global => {
            {
                let actor = s.actors.get_mut(&id).expect("actor");
                let idx = actor
                    .saved
                    .iter()
                    .rposition(|(r, _)| *r == res)
                    .expect("balanced unlock");
                let (_, prev) = actor.saved.remove(idx);
                actor.eff = prev;
            }
            let snap = snapshot(&s.actors[&id]);
            s.log(&snap, RtEventKind::Unlocked(res));
            match s.gsems[res.index()].release(id).expect("holder releases") {
                ReleaseOutcome::Freed => {}
                ReleaseOutcome::HandedTo(next) => {
                    let task = s.actors[&next].task;
                    let gp = inner.gcs.of(task, res).expect("gcs priority");
                    let actor = s.actors.get_mut(&next).expect("waiter");
                    actor.saved.push((res, actor.eff));
                    actor.eff = actor.eff.max(gp);
                    actor.runnable = true;
                    let snap = snapshot(&s.actors[&next]);
                    s.log(&snap, RtEventKind::HandedOff(res));
                }
            }
        }
        Scope::Local(p) => {
            let p = p.index();
            s.pcp[p].unlock(id, res).expect("PCP holder releases");
            {
                let actor = s.actors.get_mut(&id).expect("actor");
                let idx = actor
                    .saved
                    .iter()
                    .rposition(|(r, _)| *r == res)
                    .expect("balanced unlock");
                let (_, prev) = actor.saved.remove(idx);
                actor.eff = prev;
            }
            let snap = snapshot(&s.actors[&id]);
            s.log(&snap, RtEventKind::Unlocked(res));
            let woken = std::mem::take(&mut s.blocked_local[p]);
            for w in woken {
                if let Some(a) = s.actors.get_mut(&w) {
                    a.runnable = true;
                }
            }
        }
        Scope::Unused => unreachable!("unlock of unused resource"),
    }
    drop(s);
    inner.cv.notify_all();
}

fn snapshot(actor: &Actor) -> Actor {
    Actor {
        task: actor.task,
        proc: actor.proc,
        base: actor.base,
        eff: actor.eff,
        runnable: actor.runnable,
        saved: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, System, TaskDef};

    fn contended_system(tasks_per_proc: usize, procs: usize) -> System {
        let mut b = System::builder();
        let ps = b.add_processors(procs);
        let sg = b.add_resource("SG");
        let mut level = (tasks_per_proc * procs) as u32;
        for (pi, &p) in ps.iter().enumerate() {
            for i in 0..tasks_per_proc {
                b.add_task(
                    TaskDef::new(format!("t{pi}.{i}"), p)
                        .period(1_000)
                        .priority(level)
                        .body(
                            Body::builder()
                                .compute(3)
                                .critical(sg, |c| c.compute(2))
                                .compute(1)
                                .build(),
                        ),
                );
                level -= 1;
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn all_jobs_complete_with_mutual_exclusion() {
        let sys = contended_system(3, 2);
        let rt = Runtime::new(&sys);
        let log = rt.run_all_once();
        assert_eq!(log.completions(), 6);
        log.assert_mutual_exclusion();
        log.assert_priority_ordered_handoffs();
    }

    #[test]
    fn local_pcp_path_works_under_threads() {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s1 = b.add_resource("S1");
        let s2 = b.add_resource("S2");
        for i in 0..4u32 {
            let (ra, rb) = if i % 2 == 0 { (s1, s2) } else { (s2, s1) };
            b.add_task(
                TaskDef::new(format!("t{i}"), p)
                    .period(1_000)
                    .priority(10 - i)
                    .body(
                        Body::builder()
                            .compute(1)
                            .critical(ra, |c| c.compute(1))
                            .critical(rb, |c| c.compute(1))
                            .build(),
                    ),
            );
        }
        let sys = b.build().unwrap();
        let rt = Runtime::new(&sys);
        let log = rt.run_all_once();
        assert_eq!(log.completions(), 4);
        log.assert_mutual_exclusion();
    }

    #[test]
    fn repeated_runs_hold_invariants() {
        // Race-hunting loop: different interleavings each run.
        for _ in 0..10 {
            let sys = contended_system(2, 3);
            let rt = Runtime::new(&sys);
            let log = rt.run_all_once();
            assert_eq!(log.completions(), 6);
            log.assert_mutual_exclusion();
            log.assert_priority_ordered_handoffs();
        }
    }
}
