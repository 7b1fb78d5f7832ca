//! Standalone lock primitives implementing §5.4's acquisition scheme:
//! spin briefly on the semaphore flag ("spin on the other's cache entry"),
//! then enqueue in a **priority-ordered** wait queue; release hands the
//! lock directly to the highest-priority waiter.
//!
//! Poisoning: a thread that panics inside its critical section must not
//! brick the semaphore for every later requester (the admission server
//! runs analyses on a shared worker pool, where one poisoned lock would
//! otherwise cascade). All internal `std::sync::Mutex` acquisitions
//! recover from poison via [`PoisonError::into_inner`]; the gate state
//! is a token queue that stays consistent because the guard's `Drop`
//! (which runs during unwind) performs the hand-off.

use mpcp_core::PrioQueue;
use mpcp_model::Priority;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Debug-build lock-order checking for ceiling-tagged mutexes.
///
/// MPCP forbids nested *global* critical sections outright, and the
/// ceiling discipline makes any nesting that does happen safe only when
/// semaphores are acquired in **strictly increasing ceiling order** —
/// out-of-order acquisition is exactly the shape that deadlocks two
/// tasks on two semaphores. A [`MpcpMutex`] built with
/// [`MpcpMutex::with_ceiling`] participates in a per-thread held-ceiling
/// stack; acquiring one whose ceiling is not strictly above every
/// ceiling already held panics in debug builds (release builds skip the
/// bookkeeping entirely). Untagged mutexes ([`MpcpMutex::new`]) opt out.
#[cfg(debug_assertions)]
mod lockdep {
    use mpcp_model::Priority;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<Priority>> = const { RefCell::new(Vec::new()) };
    }

    /// Panics if acquiring `ceiling` would violate the ordered-
    /// acquisition discipline on this thread.
    pub fn check(ceiling: Priority) {
        HELD.with(|h| {
            if let Some(&top) = h.borrow().iter().max() {
                assert!(
                    ceiling > top,
                    "lock-order violation: acquiring a semaphore with ceiling \
                     {ceiling:?} while already holding one with ceiling {top:?}; \
                     ceiling-tagged mutexes must be acquired in strictly \
                     increasing ceiling order (this shape can deadlock)"
                );
            }
        });
    }

    /// Records a successful acquisition.
    pub fn acquired(ceiling: Priority) {
        HELD.with(|h| h.borrow_mut().push(ceiling));
    }

    /// Records a release.
    pub fn released(ceiling: Priority) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&c| c == ceiling) {
                h.remove(pos);
            }
        });
    }
}

#[derive(Debug)]
struct Gate {
    held: bool,
    granted: Option<u64>,
    next_token: u64,
    queue: PrioQueue<Priority, u64>,
}

/// A mutex whose contended acquisitions are served in **priority order**
/// (FIFO among equal priorities), the global-semaphore discipline of §5
/// rules 5–7, with the spin-then-queue entry of §5.4.
///
/// Unlike the simulator this cannot raise the *scheduling* priority of
/// the holder (that needs the [`vproc`](crate::Runtime) scheduler or an
/// RT kernel); it provides the queueing and hand-off semantics for
/// ordinary threads.
///
/// # Example
///
/// ```
/// use mpcp_runtime::MpcpMutex;
/// use mpcp_model::Priority;
///
/// let m = MpcpMutex::new(0u32);
/// {
///     let mut g = m.lock(Priority::task(1));
///     *g += 1;
/// }
/// assert_eq!(*m.lock(Priority::task(2)), 1);
/// ```
#[derive(Debug)]
pub struct MpcpMutex<T> {
    gate: Mutex<Gate>,
    cv: Condvar,
    data: Mutex<T>,
    spin: u32,
    /// Priority ceiling for debug-build lock-order checking; `None`
    /// opts out (see [`MpcpMutex::with_ceiling`]). Only debug builds
    /// read it, so only debug builds carry it.
    #[cfg(debug_assertions)]
    ceiling: Option<Priority>,
}

/// RAII guard for [`MpcpMutex`]; releases (with priority-ordered
/// hand-off) on drop.
#[derive(Debug)]
pub struct MpcpMutexGuard<'a, T> {
    lock: &'a MpcpMutex<T>,
    data: Option<MutexGuard<'a, T>>,
}

impl<T> MpcpMutex<T> {
    /// Creates the mutex with a default spin budget.
    pub fn new(value: T) -> Self {
        Self::with_spin(value, 64)
    }

    /// Creates the mutex spinning `spin` times before queueing (0 queues
    /// immediately).
    pub fn with_spin(value: T, spin: u32) -> Self {
        MpcpMutex {
            gate: Mutex::new(Gate {
                held: false,
                granted: None,
                next_token: 0,
                queue: PrioQueue::new(),
            }),
            cv: Condvar::new(),
            data: Mutex::new(value),
            spin,
            #[cfg(debug_assertions)]
            ceiling: None,
        }
    }

    /// Creates the mutex tagged with its priority ceiling (normally the
    /// highest priority of any task that locks it; use
    /// [`Priority::global`] levels for global semaphores per §4.4).
    ///
    /// Tagged mutexes participate in debug-build lock-order checking:
    /// a thread acquiring one while already holding a tagged mutex with
    /// an **equal or higher** ceiling panics, because only strictly
    /// increasing ceiling order rules out cross-thread deadlock (and
    /// MPCP forbids nesting global sections at all). Release builds do
    /// no checking. See the [`lockdep`] module docs.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub fn with_ceiling(value: T, ceiling: Priority) -> Self {
        MpcpMutex {
            #[cfg(debug_assertions)]
            ceiling: Some(ceiling),
            ..Self::new(value)
        }
    }

    /// Builds the guard after the gate was won, recording the
    /// acquisition with the debug lock-order checker.
    fn make_guard(&self) -> MpcpMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        if let Some(c) = self.ceiling {
            lockdep::check(c);
            lockdep::acquired(c);
        }
        MpcpMutexGuard {
            lock: self,
            data: Some(self.data.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    fn try_enter(&self) -> bool {
        let mut g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        if !g.held {
            debug_assert!(g.granted.is_none());
            g.held = true;
            true
        } else {
            false
        }
    }

    /// Attempts the lock without waiting.
    pub fn try_lock(&self) -> Option<MpcpMutexGuard<'_, T>> {
        if self.try_enter() {
            Some(self.make_guard())
        } else {
            None
        }
    }

    /// Acquires the lock; contended requests wait in priority order keyed
    /// by `priority` (the caller's assigned priority, per rule 6).
    pub fn lock(&self, priority: Priority) -> MpcpMutexGuard<'_, T> {
        // Flag an ordering violation *before* waiting: the wait that
        // never ends is precisely what the discipline rules out.
        #[cfg(debug_assertions)]
        if let Some(c) = self.ceiling {
            lockdep::check(c);
        }
        // §5.4: bounded busy-wait before joining the queue.
        for _ in 0..self.spin {
            if self.try_enter() {
                return self.make_guard();
            }
            std::hint::spin_loop();
        }
        let mut g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        if !g.held {
            g.held = true;
        } else {
            let token = g.next_token;
            g.next_token += 1;
            g.queue.push(priority, token);
            loop {
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                if g.granted == Some(token) {
                    g.granted = None;
                    break;
                }
            }
            debug_assert!(g.held, "hand-off keeps the semaphore held");
        }
        drop(g);
        self.make_guard()
    }

    /// Number of queued waiters (racy; for tests and metrics).
    pub fn queue_len(&self) -> usize {
        self.gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for MpcpMutex<T> {
    fn default() -> Self {
        MpcpMutex::new(T::default())
    }
}

impl<T> Deref for MpcpMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard holds data")
    }
}

impl<T> DerefMut for MpcpMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard holds data")
    }
}

impl<T> Drop for MpcpMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if let Some(c) = self.lock.ceiling {
            lockdep::released(c);
        }
        // Release the data before the gate so the next holder never
        // contends on the data mutex.
        self.data = None;
        let mut g = self
            .lock
            .gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match g.queue.pop() {
            Some(token) => {
                g.granted = Some(token);
                self.lock.cv.notify_all();
            }
            None => {
                g.held = false;
            }
        }
    }
}

/// A FIFO-ordered counterpart (the "raw semaphore" baseline), for the
/// §5.2-style overhead and ordering comparisons in the benchmarks.
#[derive(Debug)]
pub struct FifoMutex<T> {
    gate: Mutex<FifoGate>,
    cv: Condvar,
    data: Mutex<T>,
}

#[derive(Debug)]
struct FifoGate {
    held: bool,
    granted: Option<u64>,
    next_token: u64,
    queue: VecDeque<u64>,
}

/// RAII guard for [`FifoMutex`].
#[derive(Debug)]
pub struct FifoMutexGuard<'a, T> {
    lock: &'a FifoMutex<T>,
    data: Option<MutexGuard<'a, T>>,
}

impl<T> FifoMutex<T> {
    /// Creates the mutex.
    pub fn new(value: T) -> Self {
        FifoMutex {
            gate: Mutex::new(FifoGate {
                held: false,
                granted: None,
                next_token: 0,
                queue: VecDeque::new(),
            }),
            cv: Condvar::new(),
            data: Mutex::new(value),
        }
    }

    /// Acquires the lock; contended requests are served first-come
    /// first-served.
    pub fn lock(&self) -> FifoMutexGuard<'_, T> {
        let mut g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        if !g.held {
            g.held = true;
        } else {
            let token = g.next_token;
            g.next_token += 1;
            g.queue.push_back(token);
            loop {
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                if g.granted == Some(token) {
                    g.granted = None;
                    break;
                }
            }
        }
        drop(g);
        FifoMutexGuard {
            lock: self,
            data: Some(self.data.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T> Deref for FifoMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard holds data")
    }
}

impl<T> DerefMut for FifoMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard holds data")
    }
}

impl<T> Drop for FifoMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.data = None;
        let mut g = self
            .lock
            .gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match g.queue.pop_front() {
            Some(token) => {
                g.granted = Some(token);
                self.lock.cv.notify_all();
            }
            None => g.held = false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn uncontended_lock_round_trips() {
        let m = MpcpMutex::new(5u32);
        {
            let mut g = m.lock(Priority::task(1));
            *g += 1;
        }
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = MpcpMutex::new(());
        let g = m.lock(Priority::task(1));
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let m = Arc::new(MpcpMutex::new(0u64));
        let in_cs = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let m = Arc::clone(&m);
            let in_cs = Arc::clone(&in_cs);
            handles.push(thread::spawn(move || {
                for _ in 0..200 {
                    let mut g = m.lock(Priority::task(i));
                    assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                    *g += 1;
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(Priority::task(0)), 8 * 200);
    }

    #[test]
    fn contended_grants_follow_priority_order() {
        // Holder takes the lock; three waiters of different priorities
        // queue; on release they must be served highest-first.
        let m = Arc::new(MpcpMutex::with_spin(Vec::<u32>::new(), 0));
        let holder = m.lock(Priority::task(100));
        let mut handles = Vec::new();
        for pri in [1u32, 3, 2] {
            let mc = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                let mut g = mc.lock(Priority::task(pri));
                g.push(pri);
            }));
            // Give each thread time to enqueue so the order is contended
            // arrival order, not spawn racing.
            while m.queue_len() < handles.len() {
                thread::sleep(Duration::from_millis(1));
            }
        }
        drop(holder);
        for h in handles {
            h.join().unwrap();
        }
        let order = m.lock(Priority::task(0)).clone();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn fifo_mutex_grants_in_arrival_order() {
        let m = Arc::new(FifoMutex::new(Vec::<u32>::new()));
        let holder = m.lock();
        let mut handles = Vec::new();
        for id in [7u32, 9, 8] {
            let mc = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                mc.lock().push(id);
            }));
            while m.gate.lock().unwrap().queue.len() < handles.len() {
                thread::sleep(Duration::from_millis(1));
            }
        }
        drop(holder);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), vec![7, 9, 8]);
    }

    #[test]
    fn panicked_holder_does_not_brick_the_mutex() {
        let m = Arc::new(MpcpMutex::new(0u32));
        let mc = Arc::clone(&m);
        let joined = thread::spawn(move || {
            let _g = mc.lock(Priority::task(1));
            panic!("holder dies in its critical section");
        })
        .join();
        assert!(joined.is_err(), "holder must have panicked");
        // The poisoned mutex must still grant, mutate and release.
        {
            let mut g = m.lock(Priority::task(2));
            *g += 1;
        }
        assert!(m.try_lock().is_some());
        assert_eq!(
            Arc::try_unwrap(m).expect("no other holders").into_inner(),
            1
        );

        let f = Arc::new(FifoMutex::new(0u32));
        let fc = Arc::clone(&f);
        let _ = thread::spawn(move || {
            let _g = fc.lock();
            panic!("boom");
        })
        .join();
        *f.lock() += 1;
        assert_eq!(*f.lock(), 1);
    }

    #[test]
    fn panicked_holder_hands_off_to_queued_waiter() {
        let m = Arc::new(MpcpMutex::with_spin(0u32, 0));
        let mc = Arc::clone(&m);
        let holder = thread::spawn(move || {
            let _g = mc.lock(Priority::task(1));
            // Panic only once a waiter is queued, so the unwind path
            // exercises the hand-off (not the uncontended release).
            while mc.queue_len() == 0 {
                thread::sleep(Duration::from_millis(1));
            }
            panic!("die holding the lock with a waiter queued");
        });
        let waiter = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                let mut g = m.lock(Priority::task(2));
                *g += 1;
            })
        };
        assert!(holder.join().is_err());
        waiter.join().expect("waiter must acquire after the panic");
        assert_eq!(*m.lock(Priority::task(0)), 1);
    }

    #[test]
    fn ceiling_ordered_nesting_is_allowed() {
        let low = MpcpMutex::with_ceiling(0u32, Priority::task(3));
        let high = MpcpMutex::with_ceiling(0u32, Priority::global(1));
        {
            let _a = low.lock(Priority::task(1));
            let mut b = high.lock(Priority::task(1));
            *b += 1;
        }
        // After release the stack is empty again: re-acquiring the low
        // ceiling must not trip over stale bookkeeping.
        let _a = low.lock(Priority::task(1));
        drop(_a);
        assert_eq!(high.into_inner(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn out_of_order_ceiling_acquisition_panics_in_debug() {
        let high = MpcpMutex::with_ceiling((), Priority::global(2));
        let low = MpcpMutex::with_ceiling((), Priority::global(1));
        let _g = high.lock(Priority::task(1));
        // Ceiling 1 is not strictly above the held ceiling 2: the shape
        // that deadlocks when a second thread nests the other way.
        let _h = low.lock(Priority::task(1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn equal_ceiling_nesting_panics_in_debug() {
        let a = MpcpMutex::with_ceiling((), Priority::task(5));
        let b = MpcpMutex::with_ceiling((), Priority::task(5));
        let _g = a.lock(Priority::task(1));
        let _h = b.try_lock();
    }

    #[test]
    fn untagged_mutexes_skip_lock_order_checking() {
        let a = MpcpMutex::new(());
        let b = MpcpMutex::new(());
        let _g = a.lock(Priority::task(2));
        let _h = b.lock(Priority::task(1));
    }

    #[test]
    fn default_and_debug() {
        let m: MpcpMutex<u8> = MpcpMutex::default();
        assert!(!format!("{m:?}").is_empty());
        assert_eq!(*m.lock(Priority::task(0)), 0);
    }
}
