//! Shared machinery for the protocol policies.

use mpcp_model::{JobId, Priority, ProcessorId, ResourceId};

/// Stack of (job, resource, priority-to-restore, processor-to-restore)
/// entries, pushed when a critical section is entered and popped when it
/// is left. Properly nested sections make each job's entries a true
/// stack. One flat vector for all jobs: a handful of sections are open
/// at once, so a reverse scan beats a map and the buffer never shrinks —
/// entering a section allocates nothing once the vector has grown.
#[derive(Debug, Default)]
pub(crate) struct SavedStack {
    open: Vec<(JobId, ResourceId, Priority, ProcessorId)>,
}

impl SavedStack {
    pub fn push(
        &mut self,
        job: JobId,
        resource: ResourceId,
        priority: Priority,
        processor: ProcessorId,
    ) {
        self.open.push((job, resource, priority, processor));
    }

    /// Pops the most recent entry of `job` for `resource`.
    ///
    /// # Panics
    ///
    /// Panics if no entry for `resource` exists (unbalanced lock/unlock,
    /// which the flattened programs rule out).
    #[track_caller]
    pub fn pop(&mut self, job: JobId, resource: ResourceId) -> (Priority, ProcessorId) {
        let Some(idx) = self
            .open
            .iter()
            .rposition(|&(j, r, _, _)| j == job && r == resource)
        else {
            if self.open.iter().any(|&(j, ..)| j == job) {
                panic!("{job} has no saved priority for {resource}");
            }
            panic!("{job} has no saved priorities");
        };
        let (_, _, pri, proc) = self.open.remove(idx);
        (pri, proc)
    }

    /// Drops all entries of a completed job, returning whether any were
    /// left (a protocol bug if so, since jobs release all locks before
    /// completion).
    pub fn clear(&mut self, job: JobId) -> bool {
        let before = self.open.len();
        self.open.retain(|&(j, ..)| j != job);
        self.open.len() != before
    }
}

/// A semaphore with a FIFO wait queue, used by the no-protocol, MSRP and
/// FMLP+ policies; the priority-queued ones use
/// [`mpcp_core::GlobalSemaphore`].
#[derive(Debug, Default)]
pub(crate) struct FifoSem {
    pub holder: Option<JobId>,
    pub queue: std::collections::VecDeque<JobId>,
}

impl FifoSem {
    pub fn try_acquire(&mut self, job: JobId) -> bool {
        if self.holder.is_none() {
            self.holder = Some(job);
            true
        } else {
            false
        }
    }

    pub fn hand_off(&mut self) -> Option<JobId> {
        let next = self.queue.pop_front();
        self.holder = next;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::TaskId;

    fn jid(i: u32) -> JobId {
        JobId::first(TaskId::from_index(i))
    }
    fn proc(i: u32) -> ProcessorId {
        ProcessorId::from_index(i)
    }
    fn res(i: u32) -> ResourceId {
        ResourceId::from_index(i)
    }

    #[test]
    fn saved_stack_nests() {
        let mut s = SavedStack::default();
        s.push(jid(0), res(0), Priority::task(1), proc(0));
        s.push(jid(0), res(1), Priority::global(3), proc(1));
        assert_eq!(s.pop(jid(0), res(1)), (Priority::global(3), proc(1)));
        assert_eq!(s.pop(jid(0), res(0)), (Priority::task(1), proc(0)));
        assert!(!s.clear(jid(0)));
    }

    #[test]
    #[should_panic(expected = "no saved priority")]
    fn unbalanced_pop_panics() {
        let mut s = SavedStack::default();
        s.push(jid(0), res(0), Priority::task(1), proc(0));
        s.pop(jid(0), res(1));
    }

    #[test]
    #[should_panic(expected = "J1.0 has no saved priorities")]
    fn pop_for_a_job_with_no_entries_panics() {
        let mut s = SavedStack::default();
        s.push(jid(0), res(0), Priority::task(1), proc(0));
        s.pop(jid(1), res(0));
    }

    /// Two jobs' sections interleave in the one flat vector; each pop
    /// finds its own job's innermost entry for the resource, and an
    /// improperly nested release (outer before inner) still resolves.
    #[test]
    fn saved_stack_interleaves_jobs_and_tolerates_unnested_release() {
        let mut s = SavedStack::default();
        s.push(jid(0), res(0), Priority::task(1), proc(0));
        s.push(jid(1), res(0), Priority::task(2), proc(1));
        s.push(jid(0), res(1), Priority::global(3), proc(0));
        s.push(jid(1), res(1), Priority::global(4), proc(1));
        assert_eq!(s.pop(jid(0), res(0)), (Priority::task(1), proc(0)));
        assert_eq!(s.pop(jid(1), res(1)), (Priority::global(4), proc(1)));
        assert_eq!(s.pop(jid(0), res(1)), (Priority::global(3), proc(0)));
        assert!(s.clear(jid(1)), "J1 still has its outer section open");
        assert!(!s.clear(jid(1)));
        assert!(!s.clear(jid(0)));
    }

    #[test]
    fn fifo_sem_order() {
        let mut s = FifoSem::default();
        assert!(s.try_acquire(jid(0)));
        s.queue.push_back(jid(1));
        s.queue.push_back(jid(2));
        assert_eq!(s.hand_off(), Some(jid(1)));
        assert_eq!(s.hand_off(), Some(jid(2)));
        assert_eq!(s.hand_off(), None);
        assert_eq!(s.holder, None);
    }
}
