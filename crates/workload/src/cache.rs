//! Shared trace cache for multi-threaded experiment campaigns.
//!
//! A campaign replays the same `(platform, interval, seed)` workload under
//! many scenarios (policies × cap fractions × ablation knobs). Regenerating
//! the synthetic trace for every cell would dominate the runtime of small
//! replays and waste memory on identical copies; the [`TraceCache`] generates
//! each distinct trace once and hands out [`Arc`] clones.
//!
//! The cache holds each trace only as long as some caller does: an entry
//! is a [`Weak`] reference, so once the last `Arc` of a trace is dropped
//! (a campaign worker moved on to the next workload) its memory goes, and a
//! later lookup generates it again and counts a miss. Dead entries are
//! dropped when a miss inserts. A campaign runs a workload's cells one
//! after another, so its memory holds the traces its workers are replaying,
//! not every trace of the grid.
//!
//! The cache key captures everything trace generation depends on: the
//! platform shape (node count, cores per node) plus every generator
//! parameter (seed, interval, load, backlog, over-estimation, user count).
//! Two generators producing byte-identical traces therefore always share one
//! entry, and two that differ in any knob never collide.
//!
//! The cache is `Send + Sync` and safe to share across worker threads. On a
//! concurrent miss of the same key both workers may generate the trace, but
//! only the first insert wins while it lives, so every caller still observes
//! the same `Arc` and generation stays deterministic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

use apc_rjms::cluster::Platform;

use crate::synth::CurieTraceGenerator;
use crate::trace::Trace;

/// Everything a generated trace depends on, as a hashable key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceCacheKey {
    /// Number of nodes of the target platform.
    pub nodes: usize,
    /// Cores per node of the target platform.
    pub cores_per_node: u32,
    /// Generator seed.
    pub seed: u64,
    /// Interval flavour.
    pub interval: crate::synth::IntervalKind,
    /// `f64::to_bits` of the arrival load factor.
    pub load_bits: u64,
    /// `f64::to_bits` of the initial backlog factor.
    pub backlog_bits: u64,
    /// `f64::to_bits` of the median walltime over-estimation.
    pub overestimation_bits: u64,
    /// Number of distinct users the generator draws from.
    pub user_count: usize,
}

/// A concurrency-safe, deterministic memoiser of generated traces, holding
/// each trace while some caller holds it.
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: Mutex<HashMap<TraceCacheKey, Weak<Trace>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The trace `generator` would produce for `platform`, generated at most
    /// once per distinct key for as long as some caller holds it.
    pub fn get_or_generate(
        &self,
        generator: &CurieTraceGenerator,
        platform: &Platform,
    ) -> Arc<Trace> {
        let key = generator.cache_key(platform);
        let held = self
            .entries
            .lock()
            .unwrap()
            .get(&key)
            .and_then(Weak::upgrade);
        if let Some(found) = held {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        // Generate outside the lock so other keys make progress; a racing
        // generation of the same key that is still held wins.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(generator.generate_for(platform));
        let mut entries = self.entries.lock().unwrap();
        if let Some(raced) = entries.get(&key).and_then(Weak::upgrade) {
            return raced;
        }
        entries.retain(|_, trace| trace.strong_count() > 0);
        entries.insert(key, Arc::downgrade(&fresh));
        fresh
    }

    /// Number of distinct traces currently held, by this cache's callers.
    pub fn len(&self) -> usize {
        let entries = self.entries.lock().unwrap();
        entries.values().filter(|t| t.strong_count() > 0).count()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to generate a trace so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Forget every cached trace (counters are kept); callers keep theirs.
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::IntervalKind;

    #[test]
    fn identical_generators_share_one_entry() {
        let cache = TraceCache::new();
        let platform = Platform::curie_scaled(1);
        let gen = CurieTraceGenerator::new(7)
            .load_factor(0.5)
            .backlog_factor(0.2);
        let a = cache.get_or_generate(&gen, &platform);
        let b = cache.get_or_generate(&gen, &platform);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn any_differing_knob_gets_its_own_entry() {
        let cache = TraceCache::new();
        let platform = Platform::curie_scaled(1);
        let base = CurieTraceGenerator::new(7)
            .load_factor(0.5)
            .backlog_factor(0.2);
        let _held = [
            cache.get_or_generate(&base, &platform),
            cache.get_or_generate(&base.clone().interval(IntervalKind::BigJob), &platform),
            cache.get_or_generate(&base.clone().load_factor(0.6), &platform),
            cache.get_or_generate(
                &CurieTraceGenerator::new(8)
                    .load_factor(0.5)
                    .backlog_factor(0.2),
                &platform,
            ),
            cache.get_or_generate(&base, &Platform::curie_scaled(2)),
        ];
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn cached_trace_equals_direct_generation() {
        let cache = TraceCache::new();
        let platform = Platform::curie_scaled(1);
        let gen = CurieTraceGenerator::new(3)
            .load_factor(0.4)
            .backlog_factor(0.1);
        let cached = cache.get_or_generate(&gen, &platform);
        assert_eq!(*cached, gen.generate_for(&platform));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(TraceCache::new());
        let platform = Platform::curie_scaled(1);
        let gen = CurieTraceGenerator::new(11)
            .load_factor(0.3)
            .backlog_factor(0.1);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let platform = platform.clone();
            let gen = gen.clone();
            handles.push(std::thread::spawn(move || {
                cache.get_or_generate(&gen, &platform)
            }));
        }
        let traces: Vec<Arc<Trace>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(traces.windows(2).all(|w| w[0].len() == w[1].len()));
        // A racing generation loses to the held entry: one `Arc` for all.
        assert!(traces.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = TraceCache::new();
        let platform = Platform::curie_scaled(1);
        let gen = CurieTraceGenerator::new(1)
            .load_factor(0.3)
            .backlog_factor(0.0);
        let trace = cache.get_or_generate(&gen, &platform);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        drop(trace);
    }

    #[test]
    fn a_trace_is_held_only_while_a_caller_holds_it() {
        let cache = TraceCache::new();
        let platform = Platform::curie_scaled(1);
        let gen = CurieTraceGenerator::new(5)
            .load_factor(0.3)
            .backlog_factor(0.1);
        let trace = cache.get_or_generate(&gen, &platform);
        let weak = Arc::downgrade(&trace);
        assert_eq!(cache.len(), 1);
        drop(trace);
        assert!(cache.is_empty());
        assert!(weak.upgrade().is_none(), "the cache kept the trace alive");
        // A later lookup generates it again, as a miss.
        let again = cache.get_or_generate(&gen, &platform);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(*again, gen.generate_for(&platform));
        drop(again);
        // A miss drops the dead entries it finds.
        let _other = cache.get_or_generate(&gen.clone().load_factor(0.4), &platform);
        assert_eq!(cache.entries.lock().unwrap().len(), 1);
    }
}
