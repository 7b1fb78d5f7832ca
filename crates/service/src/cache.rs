//! Concurrent memoization of admission analyses.
//!
//! Admission control sees the same system many times: resubmissions,
//! retries, load-generator streams, several sessions running identical
//! workloads. Admission is a pure function of `(spec, allocate,
//! protocol)`, so its results memoize perfectly: the key is one pass of
//! [`hash_fields`](crate::json::hash_fields) over that triple — the
//! decoded fields, never re-encoded text. An entry keeps only what later
//! requests read: the verdict, the reply's tail, the triple's packed
//! [`field_words`](crate::json::field_words) and any spec analysis
//! changed. A key is a hint: a hit counts only when the submission
//! [`fields_match`](crate::json::fields_match) the entry's words, so two
//! submissions that share a key get their own verdicts.
//!
//! The map is sharded 16 ways so worker threads hitting different
//! submissions do not serialize on one lock, and hit/miss counters are
//! plain atomics exposed through the `query` response — the acceptance
//! criterion "cache effectiveness is measurable" reads them.

use crate::json;
use crate::proto::{AdmissionProtocol, AllocDirective};
use crate::reply::admission_suffix;
use crate::session::{admit, Admission};
use crate::wire::SystemSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

const SHARDS: usize = 16;

/// A memoized verdict: what answering and committing a submission
/// again needs of its analysis, kept instead of the analysis.
#[derive(Debug)]
pub struct CachedAnalysis {
    /// Whether the system was admitted.
    pub admitted: bool,
    /// The reply's result-dependent tail, from `"verdict"` through the
    /// closing brace; a reply appends it to its per-request fields.
    pub suffix: Box<str>,
    /// The packed field words of the `(spec, allocate, protocol)` it answers.
    words: Box<[u8]>,
    /// The analyzed spec, kept only where it differs from the submitted
    /// one (allocation rebound it, or the submission spells out what
    /// [`SystemSpec::from_system`] elides).
    analyzed: Option<SystemSpec>,
}

/// With its spec, what an analysis is a function of.
type How = (Option<AllocDirective>, AdmissionProtocol);

impl CachedAnalysis {
    fn new(spec: &SystemSpec, (allocate, protocol): How, admission: Admission) -> Self {
        CachedAnalysis {
            admitted: admission.head.admitted,
            // Copied into an exact allocation, not shrunk in place: with
            // shrunk tails `serve-uncached` peaked ~6 MB higher (DESIGN §13).
            suffix: Box::from(admission_suffix(&admission).as_str()),
            words: json::field_words(&(spec, allocate, protocol)),
            analyzed: admission.analyzed,
        }
    }

    fn answers(&self, spec: &SystemSpec, (allocate, protocol): How) -> bool {
        json::fields_match(&(spec, allocate, protocol), &self.words)
    }

    /// What a session commits for `submitted`, the spec this entry was
    /// looked up with: `submitted` itself, moved, where analysis left it
    /// as it was, else a copy of the analyzed spec.
    pub(crate) fn analyzed(&self, submitted: SystemSpec) -> SystemSpec {
        self.analyzed.clone().unwrap_or(submitted)
    }
}

/// Sharded, counter-instrumented analysis cache.
#[derive(Debug)]
pub struct AnalysisCache {
    shards: Vec<Mutex<HashMap<u64, Arc<CachedAnalysis>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity_per_shard: usize,
}

/// A snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the analysis.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl AnalysisCache {
    /// Creates a cache bounded to roughly `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        AnalysisCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity_per_shard: capacity.div_ceil(SHARDS).max(1),
        }
    }

    /// The cache key for a submission: one hash of the spec's fields,
    /// the allocation directive and the admission protocol (an
    /// allocated and a plain submission of the same system — or the
    /// same system under two analyses — are different analyses).
    pub fn key(
        spec: &SystemSpec,
        allocate: Option<AllocDirective>,
        protocol: AdmissionProtocol,
    ) -> u64 {
        json::hash_fields(&(spec, allocate, protocol))
    }

    /// Returns the memoized verdict of `spec` under `how`, the allocation
    /// directive and protocol, looked up by `key` and admitted afresh on
    /// a miss. The boolean is `true` on a hit, which takes an entry
    /// whose field words are those of `spec` and `how`; an entry of
    /// another submission under the same key is recomputed and replaced.
    ///
    /// On a miss the shard lock is *not* held while the analysis runs,
    /// so a slow one never blocks unrelated lookups; two racing misses on
    /// the same key may both compute, and the later insert wins —
    /// harmless for a pure function.
    pub fn get_or_compute(
        &self,
        key: u64,
        spec: &SystemSpec,
        how: How,
    ) -> (Arc<CachedAnalysis>, bool) {
        let shard = &self.shards[(key as usize) % SHARDS];
        let found = shard
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        if let Some(hit) = found.filter(|e| e.answers(spec, how)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (hit, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(CachedAnalysis::new(spec, how, admit(spec, how.0, how.1)));
        let mut map = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if map.len() >= self.capacity_per_shard && !map.contains_key(&key) {
            // Simple bound: clearing a full shard keeps memory flat
            // without an LRU list; the next wave repopulates it.
            map.clear();
        }
        map.insert(key, Arc::clone(&computed));
        (computed, false)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
                .sum(),
        }
    }
}

impl Default for AnalysisCache {
    fn default() -> Self {
        AnalysisCache::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{SegSpec, TaskSpec};

    const MPCP: How = (None, AdmissionProtocol::Mpcp);

    fn spec(period: u64) -> SystemSpec {
        SystemSpec {
            processors: vec!["P0".into()],
            resources: vec![],
            tasks: vec![TaskSpec {
                name: "t".into(),
                processor: 0,
                period,
                deadline: None,
                offset: 0,
                priority: None,
                body: vec![SegSpec::Compute(1)],
            }],
        }
    }

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = AnalysisCache::new(64);
        let s = spec(100);
        let key = AnalysisCache::key(&s, None, AdmissionProtocol::Mpcp);
        let (a, hit_a) = cache.get_or_compute(key, &s, MPCP);
        let (b, hit_b) = cache.get_or_compute(key, &s, MPCP);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
    }

    /// A key is a hint: a second system under the first one's key is a
    /// miss with its own verdict, which then replaces the first.
    #[test]
    fn a_shared_key_is_confirmed_by_equality() {
        let cache = AnalysisCache::new(64);
        let (light, mut heavy) = (spec(100), spec(100));
        heavy.tasks[0].body = vec![SegSpec::Compute(150)];
        let (a, hit_a) = cache.get_or_compute(7, &light, MPCP);
        let (b, hit_b) = cache.get_or_compute(7, &heavy, MPCP);
        assert!(!hit_a && !hit_b);
        assert!(a.admitted && !b.admitted);
        assert!(b.answers(&heavy, MPCP) && !b.answers(&light, MPCP));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (0, 2, 1));
        let (c, hit_c) = cache.get_or_compute(7, &heavy, MPCP);
        assert!(hit_c && Arc::ptr_eq(&b, &c));
        assert_eq!(cache.stats().hits, 1);
        // The same spec under another protocol is another submission.
        let msrp = (None, AdmissionProtocol::Msrp);
        let (d, hit_d) = cache.get_or_compute(7, &heavy, msrp);
        assert!(!hit_d && !Arc::ptr_eq(&c, &d));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 3, 1));
    }

    /// A hit commits the submitted spec itself where analysis left it as
    /// it was, and the analyzed one where it did not.
    #[test]
    fn an_entry_commits_the_spec_it_was_looked_up_with() {
        let cache = AnalysisCache::new(64);
        let plain = spec(100);
        let key = AnalysisCache::key(&plain, None, AdmissionProtocol::Mpcp);
        let (entry, _) = cache.get_or_compute(key, &plain, MPCP);
        assert!(entry.analyzed.is_none());
        assert_eq!(entry.analyzed(plain.clone()), plain);
        // An explicit rate-monotonic priority is elided by analysis.
        let mut spelled = spec(100);
        spelled.tasks[0].priority = Some(1);
        let key = AnalysisCache::key(&spelled, None, AdmissionProtocol::Mpcp);
        let (entry, hit) = cache.get_or_compute(key, &spelled, MPCP);
        assert!(!hit);
        assert_eq!(entry.analyzed.as_ref(), Some(&plain));
        assert_eq!(entry.analyzed(spelled.clone()), plain);
        let (_, hit) = cache.get_or_compute(key, &spelled, MPCP);
        assert!(hit);
    }

    /// The key ignores how the client formatted its JSON and moves with
    /// every field of the spec, the allocation directive and the
    /// protocol.
    #[test]
    fn the_key_is_the_fields_not_the_text() {
        let base = SystemSpec {
            processors: vec!["P0".into(), "P1".into()],
            resources: vec!["SA".into(), "SB".into()],
            tasks: vec![
                TaskSpec {
                    name: "a".into(),
                    processor: 0,
                    period: 100,
                    deadline: None,
                    offset: 0,
                    priority: None,
                    body: vec![
                        SegSpec::Critical(0, vec![SegSpec::Compute(2)]),
                        SegSpec::Compute(3),
                    ],
                },
                TaskSpec {
                    name: "b".into(),
                    processor: 1,
                    period: 200,
                    deadline: None,
                    offset: 0,
                    priority: None,
                    body: vec![SegSpec::Compute(5)],
                },
            ],
        };
        let mpcp = |s: &SystemSpec| AnalysisCache::key(s, None, AdmissionProtocol::Mpcp);
        let text = base
            .to_json()
            .encode()
            .replace(',', " ,\n\t")
            .replace(':', ": ");
        let reparsed = SystemSpec::from_json(crate::json::Doc::parse(&text).unwrap().root());
        assert_eq!(mpcp(&reparsed.unwrap()), mpcp(&base));

        type Change = (&'static str, fn(&mut SystemSpec));
        let changes: [Change; 17] = [
            ("processor name", |s| s.processors[1] = "P2".into()),
            ("processor order", |s| s.processors.swap(0, 1)),
            ("resource name", |s| s.resources[1] = "SC".into()),
            ("resource order", |s| s.resources.swap(0, 1)),
            ("task name", |s| s.tasks[1].name = "c".into()),
            ("task order", |s| s.tasks.swap(0, 1)),
            ("processor", |s| s.tasks[1].processor = 0),
            ("period", |s| s.tasks[1].period = 201),
            ("deadline", |s| s.tasks[1].deadline = Some(200)),
            ("offset", |s| s.tasks[1].offset = 1),
            ("priority", |s| s.tasks[1].priority = Some(1)),
            ("segment kind", |s| s.tasks[1].body[0] = SegSpec::Suspend(5)),
            ("segment value", |s| {
                s.tasks[1].body[0] = SegSpec::Compute(6);
            }),
            ("section resource", |s| {
                s.tasks[0].body[0] = SegSpec::Critical(1, vec![SegSpec::Compute(2)]);
            }),
            ("nesting", |s| {
                let body = vec![SegSpec::Compute(2), SegSpec::Compute(3)];
                s.tasks[0].body = vec![SegSpec::Critical(0, body)];
            }),
            ("empty section", |s| {
                s.tasks[0].body[0] = SegSpec::Critical(0, vec![]);
            }),
            ("empty body", |s| s.tasks[1].body.clear()),
        ];
        let mut submissions = vec![(base.clone(), None, AdmissionProtocol::Mpcp)];
        for (what, change) in changes {
            let mut changed = base.clone();
            change(&mut changed);
            assert_ne!(changed, base, "{what}");
            submissions.push((changed, None, AdmissionProtocol::Mpcp));
        }
        for processors in [2, 3] {
            let heuristic = mpcp_alloc::Heuristic::FirstFitDecreasing;
            let alloc = AllocDirective {
                processors,
                heuristic,
            };
            submissions.push((base.clone(), Some(alloc), AdmissionProtocol::Mpcp));
        }
        for protocol in AdmissionProtocol::ALL.into_iter().skip(1) {
            submissions.push((base.clone(), None, protocol));
        }
        let keys: Vec<u64> = (submissions.iter())
            .map(|(s, a, p)| AnalysisCache::key(s, *a, *p))
            .collect();
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), keys.len(), "{keys:x?}");
        // Each submission's words confirm it and refuse every other.
        for (i, (s, a, p)) in submissions.iter().enumerate() {
            let words = crate::json::field_words(&(s, *a, *p));
            for (j, (s, a, p)) in submissions.iter().enumerate() {
                let matched = crate::json::fields_match(&(s, *a, *p), &words);
                assert_eq!(matched, i == j, "submission {j} against the words of {i}");
            }
        }
    }

    #[test]
    fn capacity_bound_clears_rather_than_grows() {
        let cache = AnalysisCache::new(16); // 1 entry per shard
        for p in 1..200u64 {
            let s = spec(p);
            let key = AnalysisCache::key(&s, None, AdmissionProtocol::Mpcp);
            cache.get_or_compute(key, &s, MPCP);
        }
        assert!(cache.stats().entries <= 32, "{:?}", cache.stats());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(AnalysisCache::new(256));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for p in 1..50u64 {
                        let s = spec(100 + (p + i) % 10);
                        let key = AnalysisCache::key(&s, None, AdmissionProtocol::Mpcp);
                        let (r, _) = cache.get_or_compute(key, &s, MPCP);
                        assert!(r.admitted);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let st = cache.stats();
        assert!(st.hits > 0 && st.entries <= 10);
    }
}
