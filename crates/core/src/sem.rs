//! Global semaphore state machine (§5, rules 5–7; §5.4).
//!
//! A global semaphore lives in shared memory and is acquired with an
//! atomic read-modify-write. If it is held, the requester enqueues itself
//! in a **priority-ordered** queue keyed by its *normal* (assigned)
//! priority (rule 6) and suspends. A release hands the semaphore directly
//! to the highest-priority waiter (rule 7).
//!
//! [`GlobalSemaphore`] is a pure state machine; `W` is the waiter token
//! ([`JobId`] in the protocol policies).
//!
//! [`JobId`]: mpcp_model::JobId

use crate::error::CoreError;
use crate::queue::PrioQueue;
use mpcp_model::Priority;

/// Result of releasing a global semaphore; see
/// [`GlobalSemaphore::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseOutcome<W> {
    /// No job was waiting; the semaphore is now free.
    Freed,
    /// The semaphore was handed to the highest-priority waiter, which
    /// should resume at its gcs priority on its host processor.
    HandedTo(W),
}

/// State of one global semaphore: the holder and the prioritized wait
/// queue.
///
/// # Example
///
/// ```
/// use mpcp_core::{GlobalSemaphore, ReleaseOutcome};
/// use mpcp_model::Priority;
///
/// let mut s: GlobalSemaphore<&str> = GlobalSemaphore::new();
/// assert!(s.try_acquire("low"));
/// assert!(!s.try_acquire("mid"));
/// s.enqueue("mid", Priority::task(3));
/// s.enqueue("high", Priority::task(7));
/// assert_eq!(s.release("low").unwrap(), ReleaseOutcome::HandedTo("high"));
/// assert_eq!(s.holder(), Some("high"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalSemaphore<W> {
    holder: Option<W>,
    waiters: PrioQueue<Priority, W>,
}

impl<W: Copy + Eq + std::fmt::Debug> GlobalSemaphore<W> {
    /// Creates a free semaphore.
    pub fn new() -> Self {
        GlobalSemaphore {
            holder: None,
            waiters: PrioQueue::new(),
        }
    }

    /// Atomically acquires the semaphore if it is free (rule 5). Returns
    /// whether the acquisition succeeded.
    pub fn try_acquire(&mut self, waiter: W) -> bool {
        if self.holder.is_none() {
            self.holder = Some(waiter);
            true
        } else {
            false
        }
    }

    /// Enqueues `waiter` under `key`: the MPCP keys a waiter by its
    /// **assigned** priority (rule 6), the inheritance baselines by its
    /// effective one.
    ///
    /// # Panics
    ///
    /// Panics if the semaphore is free (the waiter should have acquired
    /// it) or if `waiter` already holds it (self-deadlock, excluded by
    /// §3.1).
    #[track_caller]
    pub fn enqueue(&mut self, waiter: W, key: Priority) {
        assert!(self.holder.is_some(), "enqueue on a free global semaphore");
        assert!(
            self.holder != Some(waiter),
            "waiter {waiter:?} already holds this semaphore"
        );
        self.waiters.push(key, waiter);
    }

    /// Releases the semaphore held by `holder` (rule 7): the
    /// highest-priority waiter (FIFO among equals) becomes the new holder,
    /// or the semaphore is freed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotHolder`] if `holder` does not hold the
    /// semaphore.
    pub fn release(&mut self, holder: W) -> Result<ReleaseOutcome<W>, CoreError> {
        if self.holder != Some(holder) {
            return Err(CoreError::NotHolder {
                resource: mpcp_model::ResourceId::from_index(u32::MAX),
                detail: format!("{holder:?} does not hold this global semaphore"),
            });
        }
        match self.waiters.pop() {
            Some(next) => {
                self.holder = Some(next);
                Ok(ReleaseOutcome::HandedTo(next))
            }
            None => {
                self.holder = None;
                Ok(ReleaseOutcome::Freed)
            }
        }
    }

    /// The current holder.
    pub fn holder(&self) -> Option<W> {
        self.holder
    }

    /// Number of queued waiters.
    pub fn queue_len(&self) -> usize {
        self.waiters.len()
    }

    /// The key of the waiter a release would hand to, if any.
    pub fn top_key(&self) -> Option<Priority> {
        self.waiters.peek_key().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_free_semaphore() {
        let mut s: GlobalSemaphore<u8> = GlobalSemaphore::new();
        assert_eq!(s.holder(), None);
        assert!(s.try_acquire(1));
        assert_eq!(s.holder(), Some(1));
        assert!(!s.try_acquire(2));
    }

    #[test]
    fn release_hands_to_highest_priority_waiter() {
        let mut s: GlobalSemaphore<u8> = GlobalSemaphore::new();
        s.try_acquire(1);
        s.enqueue(2, Priority::task(2));
        s.enqueue(3, Priority::task(9));
        s.enqueue(4, Priority::task(5));
        assert_eq!(s.top_key(), Some(Priority::task(9)));
        assert_eq!(s.release(1).unwrap(), ReleaseOutcome::HandedTo(3));
        assert_eq!(s.release(3).unwrap(), ReleaseOutcome::HandedTo(4));
        assert_eq!(s.release(4).unwrap(), ReleaseOutcome::HandedTo(2));
        assert_eq!(s.release(2).unwrap(), ReleaseOutcome::Freed);
        assert_eq!(s.holder(), None);
        assert_eq!(s.top_key(), None);
    }

    #[test]
    fn fifo_among_equal_priorities() {
        let mut s: GlobalSemaphore<u8> = GlobalSemaphore::new();
        s.try_acquire(1);
        s.enqueue(2, Priority::task(5));
        s.enqueue(3, Priority::task(5));
        assert_eq!(s.release(1).unwrap(), ReleaseOutcome::HandedTo(2));
    }

    #[test]
    fn release_by_non_holder_errors() {
        let mut s: GlobalSemaphore<u8> = GlobalSemaphore::new();
        s.try_acquire(1);
        assert!(s.release(2).is_err());
        let mut free: GlobalSemaphore<u8> = GlobalSemaphore::new();
        assert!(free.release(1).is_err());
    }

    #[test]
    #[should_panic(expected = "free global semaphore")]
    fn enqueue_on_free_panics() {
        let mut s: GlobalSemaphore<u8> = GlobalSemaphore::new();
        s.enqueue(2, Priority::task(2));
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn self_enqueue_panics() {
        let mut s: GlobalSemaphore<u8> = GlobalSemaphore::new();
        s.try_acquire(1);
        s.enqueue(1, Priority::task(2));
    }
}
