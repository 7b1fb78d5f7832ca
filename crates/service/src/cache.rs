//! Concurrent memoization of admission analyses.
//!
//! Admission control sees the same system many times: resubmissions,
//! retries, load-generator streams, several sessions running identical
//! workloads. [`analyze`](crate::session::analyze) is a pure function
//! of the canonical submission, so its results memoize perfectly: the
//! cache key is [`SystemSpec::canonical_hash`] mixed with the
//! allocation directive, and the value is the shared
//! [`AdmissionResult`].
//!
//! The map is sharded 16 ways so worker threads hitting different
//! submissions do not serialize on one lock, and hit/miss counters are
//! plain atomics exposed through the `query` response — the acceptance
//! criterion "cache effectiveness is measurable" reads them.

use crate::proto::{AdmissionProtocol, AllocDirective};
use crate::session::AdmissionResult;
use crate::wire::SystemSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

const SHARDS: usize = 16;

/// A memoized analysis plus its lazily-rendered response body.
///
/// The server renders an admission response's result-dependent tail
/// (verdict, breakdown, …) once per distinct analysis and parks it in
/// [`CachedAnalysis::rendered`]; cache hits then answer with a string
/// append instead of re-encoding the JSON tree. The cache itself never
/// renders — the server owns the response shape.
#[derive(Debug)]
pub struct CachedAnalysis {
    /// The analysis verdict and breakdown.
    pub result: AdmissionResult,
    /// Render memo, filled by the first response that needs it.
    pub rendered: OnceLock<String>,
}

impl CachedAnalysis {
    fn new(result: AdmissionResult) -> Self {
        CachedAnalysis {
            result,
            rendered: OnceLock::new(),
        }
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

    /// The cache key for a submission: the spec's canonical hash mixed
    /// with the allocation directive and the admission protocol (an
    /// allocated and a plain submission of the same system — or the
    /// same system under two analyses — are different analyses). MPCP
    /// with no allocation keeps the bare canonical hash.
    pub fn key(
        spec: &SystemSpec,
        allocate: Option<AllocDirective>,
        protocol: AdmissionProtocol,
    ) -> u64 {
        let mut base = spec.canonical_hash();
        if let Some(d) = allocate {
            let tag = format!("|alloc:{}:{}", d.processors, d.heuristic.name());
            base ^= crate::json::fnv1a(tag.as_bytes());
        }
        if protocol != AdmissionProtocol::Mpcp {
            let tag = format!("|proto:{protocol}");
            base ^= crate::json::fnv1a(tag.as_bytes());
        }
        base
    }

    /// Returns the memoized result for `key`, computing it with `f` on
    /// a miss. The boolean is `true` on a hit.
    ///
    /// On a miss the shard lock is *not* held while `f` runs, so a slow
    /// analysis never blocks unrelated lookups; two racing misses on
    /// the same key may both compute, and the later insert wins —
    /// harmless for a pure function.
    pub fn get_or_compute(
        &self,
        key: u64,
        f: impl FnOnce() -> AdmissionResult,
    ) -> (Arc<CachedAnalysis>, bool) {
        let shard = &self.shards[(key as usize) % SHARDS];
        if let Some(hit) = shard
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(hit), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(CachedAnalysis::new(f()));
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
    use crate::session::analyze;
    use crate::wire::{SegSpec, TaskSpec};

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
        let (a, hit_a) = cache.get_or_compute(key, || analyze(&s, None));
        let (b, hit_b) = cache.get_or_compute(key, || panic!("must not recompute"));
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
    }

    #[test]
    fn different_alloc_directives_key_differently() {
        let s = spec(100);
        let k0 = AnalysisCache::key(&s, None, AdmissionProtocol::Mpcp);
        let k1 = AnalysisCache::key(
            &s,
            Some(AllocDirective {
                processors: 2,
                heuristic: mpcp_alloc::Heuristic::FirstFitDecreasing,
            }),
            AdmissionProtocol::Mpcp,
        );
        let k2 = AnalysisCache::key(
            &s,
            Some(AllocDirective {
                processors: 3,
                heuristic: mpcp_alloc::Heuristic::FirstFitDecreasing,
            }),
            AdmissionProtocol::Mpcp,
        );
        assert_ne!(k0, k1);
        assert_ne!(k1, k2);
        // Same system, different admission analysis: distinct entries.
        let m0 = AnalysisCache::key(&s, None, AdmissionProtocol::Msrp);
        let f0 = AnalysisCache::key(&s, None, AdmissionProtocol::Fmlp);
        assert_ne!(k0, m0);
        assert_ne!(k0, f0);
        assert_ne!(m0, f0);
    }

    #[test]
    fn capacity_bound_clears_rather_than_grows() {
        let cache = AnalysisCache::new(16); // 1 entry per shard
        for p in 1..200u64 {
            let s = spec(p);
            let key = AnalysisCache::key(&s, None, AdmissionProtocol::Mpcp);
            cache.get_or_compute(key, || analyze(&s, None));
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
                        let (r, _) = cache.get_or_compute(key, || analyze(&s, None));
                        assert!(r.result.admitted);
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
