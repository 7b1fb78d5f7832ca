//! A stable max-priority queue.
//!
//! Semaphore wait queues under the protocol are *prioritized* (§3.3: "the
//! higher priority job will be allowed to access the resource first even if
//! [the other] has been waiting for a longer duration"), with FCFS order
//! among equal priorities (§3.1).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    seq: u64,
    value: V,
}

impl<K: Ord, V> PartialEq for Entry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K: Ord, V> Eq for Entry<K, V> {}
impl<K: Ord, V> PartialOrd for Entry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for Entry<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max key first; among equal keys, smaller sequence (earlier
        // insertion) first.
        self.key
            .cmp(&other.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A max-priority queue with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use mpcp_core::PrioQueue;
///
/// let mut q = PrioQueue::new();
/// q.push(1, "low");
/// q.push(9, "high-first");
/// q.push(9, "high-second");
/// assert_eq!(q.pop(), Some("high-first"));
/// assert_eq!(q.pop(), Some("high-second"));
/// assert_eq!(q.pop(), Some("low"));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct PrioQueue<K, V> {
    heap: BinaryHeap<Entry<K, V>>,
    next_seq: u64,
}

impl<K: Ord, V> PrioQueue<K, V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PrioQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Enqueues `value` with priority `key`.
    pub fn push(&mut self, key: K, value: V) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { key, seq, value });
    }

    /// Removes and returns the highest-priority value (FIFO among equals).
    pub fn pop(&mut self) -> Option<V> {
        self.heap.pop().map(|e| e.value)
    }

    /// The key of the highest-priority value.
    pub fn peek_key(&self) -> Option<&K> {
        self.heap.peek().map(|e| &e.key)
    }

    /// Number of queued values.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<K: Ord, V> Default for PrioQueue<K, V> {
    fn default() -> Self {
        PrioQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::Priority;

    #[test]
    fn max_first_fifo_ties() {
        let mut q = PrioQueue::new();
        q.push(Priority::task(1), 'a');
        q.push(Priority::task(3), 'b');
        q.push(Priority::task(3), 'c');
        q.push(Priority::global(0), 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec!['d', 'b', 'c', 'a']);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = PrioQueue::new();
        q.push(2, "x");
        q.push(5, "y");
        assert_eq!(q.peek_key(), Some(&5));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some("y"));
    }

    #[test]
    fn empty_behaviour() {
        let mut q: PrioQueue<u32, u32> = PrioQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn fifo_survives_interleaved_pops() {
        let mut q = PrioQueue::new();
        q.push(1, "a1");
        q.push(1, "a2");
        assert_eq!(q.pop(), Some("a1"));
        q.push(1, "a3");
        assert_eq!(q.pop(), Some("a2"));
        assert_eq!(q.pop(), Some("a3"));
    }
}
