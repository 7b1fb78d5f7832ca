//! Uniprocessor priority ceiling protocol decision procedure (§2.2, and
//! rule 2 of the shared-memory protocol in §5).
//!
//! [`Pcp`] tracks which local semaphores are held on one processor and
//! answers lock requests: a job may lock a semaphore only if its priority
//! is strictly higher than the ceiling of every semaphore currently locked
//! by *other* jobs; otherwise it is blocked by the job holding the
//! highest-ceiling such semaphore, which then inherits the blocked job's
//! priority (inheritance is computed by the caller from the returned
//! blocker).
//!
//! The struct is generic over the job token `J`; the protocol policies
//! use [`JobId`](mpcp_model::JobId).

use crate::error::CoreError;
use mpcp_model::{Priority, ResourceId};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Held<J> {
    resource: ResourceId,
    holder: J,
    ceiling: Priority,
}

/// Outcome of a PCP lock request; see [`Pcp::try_lock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcpDecision<J> {
    /// The lock may be granted; call [`Pcp::lock`] to take it.
    Granted,
    /// The request is blocked.
    Blocked {
        /// The job holding the semaphore with the highest ceiling among
        /// those locked by other jobs; it should inherit the requester's
        /// priority.
        holder: J,
        /// That semaphore (the paper's `S*`).
        ceiling_resource: ResourceId,
        /// Its ceiling.
        ceiling: Priority,
    },
}

/// Per-processor PCP lock state.
///
/// # Example
///
/// ```
/// use mpcp_core::{Pcp, PcpDecision};
/// use mpcp_model::{Priority, ResourceId};
///
/// let s0 = ResourceId::from_index(0);
/// let s1 = ResourceId::from_index(1);
/// let mut pcp: Pcp<&str> = Pcp::new();
///
/// // "low" (priority 1) locks S0 whose ceiling is 5.
/// assert_eq!(pcp.try_lock("low", Priority::task(1), s0), PcpDecision::Granted);
/// pcp.lock("low", s0, Priority::task(5));
///
/// // "mid" (priority 3) is blocked on S1 because 3 < ceiling(S0) = 5.
/// match pcp.try_lock("mid", Priority::task(3), s1) {
///     PcpDecision::Blocked { holder, .. } => assert_eq!(holder, "low"),
///     _ => panic!("expected blocking"),
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pcp<J> {
    held: Vec<Held<J>>,
}

impl<J: Copy + Eq + std::fmt::Debug> Pcp<J> {
    /// Creates an empty lock state.
    pub fn new() -> Self {
        Pcp { held: Vec::new() }
    }

    /// The highest-ceiling semaphore locked by jobs other than `job`
    /// (the paper's `S*`), if any.
    pub fn system_ceiling_excluding(&self, job: J) -> Option<(&ResourceId, J, Priority)> {
        self.held
            .iter()
            .filter(|h| h.holder != job)
            .max_by_key(|h| h.ceiling)
            .map(|h| (&h.resource, h.holder, h.ceiling))
    }

    /// Decides a lock request by `job` (at effective priority `priority`)
    /// for `resource` per the PCP rule. Does not mutate state.
    pub fn try_lock(&self, job: J, priority: Priority, _resource: ResourceId) -> PcpDecision<J> {
        match self.system_ceiling_excluding(job) {
            Some((res, holder, ceiling)) if priority <= ceiling => PcpDecision::Blocked {
                holder,
                ceiling_resource: *res,
                ceiling,
            },
            _ => PcpDecision::Granted,
        }
    }

    /// Records that `job` locked `resource`, whose ceiling is `ceiling`.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is already locked — the caller must only lock
    /// after a [`PcpDecision::Granted`], and PCP grants imply the resource
    /// is free (a held resource's own ceiling is at least the requester's
    /// priority).
    #[track_caller]
    pub fn lock(&mut self, job: J, resource: ResourceId, ceiling: Priority) {
        assert!(
            self.holder(resource).is_none(),
            "resource {resource} is already locked"
        );
        self.held.push(Held {
            resource,
            holder: job,
            ceiling,
        });
    }

    /// Records that `job` released `resource`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotHolder`] if `job` does not hold `resource`.
    pub fn unlock(&mut self, job: J, resource: ResourceId) -> Result<(), CoreError> {
        let idx = self
            .held
            .iter()
            .position(|h| h.resource == resource && h.holder == job);
        match idx {
            Some(i) => {
                self.held.remove(i);
                Ok(())
            }
            None => Err(CoreError::NotHolder {
                resource,
                detail: format!("{job:?} does not hold it"),
            }),
        }
    }

    /// The job currently holding `resource`, if any.
    pub fn holder(&self, resource: ResourceId) -> Option<J> {
        self.held
            .iter()
            .find(|h| h.resource == resource)
            .map(|h| h.holder)
    }

    /// Resources currently held by `job`, in lock order.
    pub fn held_by(&self, job: J) -> Vec<ResourceId> {
        self.held
            .iter()
            .filter(|h| h.holder == job)
            .map(|h| h.resource)
            .collect()
    }

    /// Whether any semaphore is currently locked.
    pub fn any_locked(&self) -> bool {
        !self.held.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ResourceId {
        ResourceId::from_index(i)
    }
    fn p(l: u32) -> Priority {
        Priority::task(l)
    }

    #[test]
    fn free_state_grants_everything() {
        let pcp: Pcp<u8> = Pcp::new();
        assert_eq!(pcp.try_lock(1, p(0), r(0)), PcpDecision::Granted);
        assert!(!pcp.any_locked());
    }

    #[test]
    fn own_locks_do_not_block() {
        let mut pcp: Pcp<u8> = Pcp::new();
        pcp.lock(1, r(0), p(9));
        // Job 1 requests another semaphore while holding the high-ceiling
        // S0: its own lock is excluded from S*.
        assert_eq!(pcp.try_lock(1, p(1), r(1)), PcpDecision::Granted);
    }

    #[test]
    fn equal_priority_to_ceiling_blocks() {
        // Classic PCP: strict inequality required.
        let mut pcp: Pcp<u8> = Pcp::new();
        pcp.lock(1, r(0), p(5));
        match pcp.try_lock(2, p(5), r(1)) {
            PcpDecision::Blocked {
                holder,
                ceiling_resource,
                ceiling,
            } => {
                assert_eq!(holder, 1);
                assert_eq!(ceiling_resource, r(0));
                assert_eq!(ceiling, p(5));
            }
            d => panic!("expected blocked, got {d:?}"),
        }
    }

    #[test]
    fn higher_than_ceiling_is_granted() {
        let mut pcp: Pcp<u8> = Pcp::new();
        pcp.lock(1, r(0), p(5));
        assert_eq!(pcp.try_lock(2, p(6), r(1)), PcpDecision::Granted);
    }

    #[test]
    fn highest_ceiling_among_others_is_the_blocker() {
        let mut pcp: Pcp<u8> = Pcp::new();
        pcp.lock(1, r(0), p(3));
        pcp.lock(2, r(1), p(7));
        match pcp.try_lock(3, p(5), r(2)) {
            PcpDecision::Blocked { holder, .. } => assert_eq!(holder, 2),
            d => panic!("expected blocked, got {d:?}"),
        }
    }

    #[test]
    fn unlock_restores_access() {
        let mut pcp: Pcp<u8> = Pcp::new();
        pcp.lock(1, r(0), p(5));
        pcp.unlock(1, r(0)).unwrap();
        assert_eq!(pcp.try_lock(2, p(1), r(1)), PcpDecision::Granted);
        assert_eq!(pcp.holder(r(0)), None);
    }

    #[test]
    fn unlock_by_non_holder_errors() {
        let mut pcp: Pcp<u8> = Pcp::new();
        pcp.lock(1, r(0), p(5));
        assert!(pcp.unlock(2, r(0)).is_err());
        assert!(pcp.unlock(1, r(1)).is_err());
    }

    #[test]
    fn held_by_lists_in_lock_order() {
        let mut pcp: Pcp<u8> = Pcp::new();
        pcp.lock(1, r(2), p(5));
        pcp.lock(1, r(0), p(5));
        assert_eq!(pcp.held_by(1), vec![r(2), r(0)]);
        assert_eq!(pcp.holder(r(2)), Some(1));
    }

    #[test]
    #[should_panic(expected = "already locked")]
    fn double_lock_panics() {
        let mut pcp: Pcp<u8> = Pcp::new();
        pcp.lock(1, r(0), p(5));
        pcp.lock(2, r(0), p(5));
    }
}
