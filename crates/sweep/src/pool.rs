//! Deterministic index pool.
//!
//! [`run_indexed_with`] evaluates `f(0) .. f(n-1)` on a fixed-size worker
//! pool and returns the results in index order. Workers claim the next
//! index from one shared atomic cursor. Because `f` is a pure function
//! of the index and results are re-ordered by index afterwards, the
//! output is byte-identical for every worker count — only wall-clock
//! time changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Evaluates `f` at every index in `0..n` using `jobs` worker threads
/// and returns the results in index order, independent of scheduling.
/// Every worker owns a persistent scratch value created by `init`,
/// passed to each `f` call it makes — sweep
/// workers recycle one simulator (and its arena, heaps and buffers)
/// across every index they claim. Determinism is unchanged *provided*
/// `f`'s result is a pure function of the index: scratch state must
/// only affect allocation behaviour, never output (the sweep's
/// report-hash tests enforce this across worker counts).
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_indexed_with<T: Send, W>(
    n: usize,
    jobs: usize,
    init: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, usize) -> T + Sync,
) -> Vec<T> {
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }

    // The cursor publishes no data, so `Relaxed` suffices: results
    // reach this thread through the joins.
    let next = AtomicUsize::new(0);
    let worker = || -> Vec<(usize, T)> {
        let mut scratch = init();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return out;
            }
            out.push((i, f(&mut scratch, i)));
        }
    };

    let collected: Vec<Vec<(usize, T)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..jobs).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, v) in collected.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} evaluated twice");
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("index {i} never evaluated")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_indexed<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        run_indexed_with(n, jobs, || (), |_, i| f(i))
    }

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let f = |i: usize| i * i;
        let reference: Vec<usize> = (0..257).map(f).collect();
        for jobs in [1, 2, 3, 8, 300] {
            assert_eq!(run_indexed(257, jobs, f), reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn every_index_is_evaluated_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_indexed(1000, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn worker_scratch_persists_within_a_worker() {
        let out = run_indexed_with(
            100,
            4,
            || 0usize,
            |calls, i| {
                *calls += 1;
                (i, *calls)
            },
        );
        assert!(out.iter().enumerate().all(|(i, (idx, _))| *idx == i));
        // Scratch persisted across calls: some worker saw more than one.
        assert!(out.iter().any(|(_, c)| *c > 1));
        // The busiest worker made at least its fair share of calls.
        assert!(out.iter().map(|(_, c)| *c).max() >= Some(25));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i), vec![0]);
        assert_eq!(run_indexed(3, 16, |i| i), vec![0, 1, 2]);
    }
}
