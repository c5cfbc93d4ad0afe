//! The metrics registry: atomic counters and fixed-bucket log2 histograms.
//!
//! Every instrument is a cheap `Clone`-able handle around an optional
//! `Arc`-shared cell. A handle obtained from a **disabled** registry (or
//! built via `Default`) carries no cell at all: its hot-path methods are one
//! `Option` branch that the optimiser folds away, so uninstrumented code
//! paths pay nothing — no allocation, no atomic traffic, no lock.
//!
//! Live instruments use relaxed atomics only: recording is wait-free and
//! never blocks the simulation, and cross-thread visibility is eventual —
//! exactly what a monitor sampling snapshots needs. Registration (creating a
//! named instrument) takes a mutex, but that happens at setup time, never on
//! the hot path.
//!
//! Nothing here feeds back into simulation state, which is how the
//! instrumentation-neutrality tests can prove byte-identical output with
//! metrics on and off.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 holds zero values, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`, up to every representable `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
///
/// `Counter::default()` is a no-op handle; live handles come from a
/// [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A no-op handle (same as `Counter::default()`).
    pub fn disabled() -> Self {
        Counter::default()
    }

    /// Increment by one.
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.cell.is_some()
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The exclusive upper bound of a bucket (`u64::MAX` for the last).
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket >= 64 {
        u64::MAX
    } else {
        1u64 << bucket
    }
}

/// A fixed-bucket log2 histogram over `u64` samples (durations in
/// nanoseconds, queue depths, sizes).
///
/// Recording is two relaxed atomic adds plus min/max updates — wait-free,
/// allocation-free, and a no-op branch on a disabled handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// A no-op handle (same as `Histogram::default()`).
    pub fn disabled() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(v, Ordering::Relaxed);
            cell.min.fetch_min(v, Ordering::Relaxed);
            cell.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.cell.is_some()
    }

    /// A point-in-time copy of the recorded distribution (empty for a no-op
    /// handle).
    pub fn snapshot(&self) -> HistogramSnapshot {
        if let Some(cell) = &self.cell {
            let buckets: Vec<u64> = cell
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let count = cell.count.load(Ordering::Relaxed);
            return HistogramSnapshot {
                buckets,
                count,
                sum: cell.sum.load(Ordering::Relaxed),
                min: if count == 0 {
                    0
                } else {
                    cell.min.load(Ordering::Relaxed)
                },
                max: cell.max.load(Ordering::Relaxed),
            };
        }
        HistogramSnapshot::default()
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`bucket_of`] indexing); empty when nothing
    /// was recorded.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wraps only past `u64::MAX` total).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`); 0 when empty. Log2 buckets make this a ≤2×
    /// over-estimate — good enough to spot a latency cliff.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Registered instruments in registration order. Linear lookup by name:
    /// registration is setup-time only and registries stay small (tens of
    /// instruments), so a map would buy nothing.
    instruments: Mutex<Vec<(String, Instrument)>>,
}

/// A named collection of instruments.
///
/// `Registry::new()` is live; `Registry::disabled()` (and `Default`) hands
/// out no-op instruments so the same instrumentation code runs uninstrumented
/// for free. Handles share the registry's cells: cloning a `Registry` clones
/// a reference, and requesting an already-registered name returns a handle
/// over the *same* cell.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// A disabled registry: every instrument it hands out is a no-op.
    pub fn disabled() -> Self {
        Registry::default()
    }

    /// Whether instruments from this registry record anywhere.
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// The instrument registered as `name`, registering `make()` on first
    /// request; `None` from a disabled registry.
    fn instrument(&self, name: &str, make: impl FnOnce() -> Instrument) -> Option<Instrument> {
        let inner = self.inner.as_ref()?;
        let mut instruments = inner.instruments.lock().expect("registry poisoned");
        if let Some((_, found)) = instruments.iter().find(|(n, _)| n == name) {
            return Some(found.clone());
        }
        let made = make();
        instruments.push((name.to_string(), made.clone()));
        Some(made)
    }

    /// The counter named `name`, creating it at zero on first request.
    pub fn counter(&self, name: &str) -> Counter {
        match self.instrument(name, || Instrument::Counter(Arc::default())) {
            Some(Instrument::Counter(cell)) => Counter { cell: Some(cell) },
            Some(_) => type_clash(name),
            None => Counter::default(),
        }
    }

    /// The histogram named `name`, creating it empty on first request.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.instrument(name, || {
            Instrument::Histogram(Arc::new(HistogramCell::new()))
        }) {
            Some(Instrument::Histogram(cell)) => Histogram { cell: Some(cell) },
            Some(_) => type_clash(name),
            None => Histogram::default(),
        }
    }

    /// A point-in-time copy of every registered instrument, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        if let Some(inner) = &self.inner {
            let instruments = inner.instruments.lock().expect("registry poisoned");
            let mut entries: Vec<(String, MetricValue)> = instruments
                .iter()
                .map(|(name, i)| {
                    let value = match i {
                        Instrument::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                        Instrument::Histogram(cell) => {
                            let handle = Histogram {
                                cell: Some(Arc::clone(cell)),
                            };
                            MetricValue::Histogram(handle.snapshot())
                        }
                    };
                    (name.clone(), value)
                })
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            return Snapshot { entries };
        }
        Snapshot::default()
    }
}

fn type_clash(name: &str) -> ! {
    panic!("metric {name:?} is already registered with another type")
}

/// The value of one instrument in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A histogram's recorded distribution.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a whole [`Registry`], sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` pairs in name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Look one metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// A counter's value, or `None` if absent / not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's snapshot, or `None` if absent / not a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

impl fmt::Display for Snapshot {
    /// A plain-text metrics report: one line per instrument, histograms with
    /// count/mean/min/p50/p99/max.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => writeln!(f, "{name:<44} {v}")?,
                MetricValue::Histogram(h) => writeln!(
                    f,
                    "{name:<44} count {} mean {:.1} min {} p50 \u{2264}{} p99 \u{2264}{} max {}",
                    h.count,
                    h.mean(),
                    h.min,
                    h.quantile_upper_bound(0.5),
                    h.quantile_upper_bound(0.99),
                    h.max,
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instruments_are_noops() {
        let registry = Registry::disabled();
        let c = registry.counter("c");
        let h = registry.histogram("h");
        c.inc();
        c.add(41);
        h.record(1000);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        assert!(!c.is_live());
        assert!(!h.is_live());
        assert!(!registry.is_live());
        assert!(registry.snapshot().entries.is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let registry = Registry::new();
        let c = registry.counter("sim.events");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Same name ⇒ same cell.
        let c2 = registry.counter("sim.events");
        c2.inc();
        assert_eq!(c.get(), 11);
        assert_eq!(registry.snapshot().counter("sim.events"), Some(11));
    }

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(10), 1024);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value falls strictly below its bucket's upper bound.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 123_456_789] {
            assert!(v < bucket_upper_bound(bucket_of(v)) || v == u64::MAX);
        }
    }

    #[test]
    fn histogram_snapshot_summarises_the_distribution() {
        let registry = Registry::new();
        let h = registry.histogram("latency_ns");
        for v in [3u64, 5, 9, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 3 + 5 + 9 + 1000 + 1_000_000);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 1_000_000);
        assert!((s.mean() - s.sum as f64 / 5.0).abs() < 1e-9);
        // Median sample is 9 ⇒ its bucket's upper bound is 16.
        assert_eq!(s.quantile_upper_bound(0.5), 16);
        assert!(s.quantile_upper_bound(1.0) >= 1_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn snapshot_sorts_by_name_and_renders() {
        let registry = Registry::new();
        registry.counter("zzz").inc();
        registry.counter("aaa").add(4);
        registry.histogram("mmm").record(2);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["aaa", "mmm", "zzz"]);
        let text = snapshot.to_string();
        assert!(text.contains("aaa"));
        assert!(text.contains("count 1"));
        assert!(snapshot.histogram("mmm").is_some());
        assert!(snapshot.histogram("zzz").is_none());
    }

    #[test]
    fn instruments_are_shared_across_threads() {
        let registry = Registry::new();
        let c = registry.counter("par");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn name_collisions_across_types_panic() {
        let registry = Registry::new();
        registry.counter("x");
        registry.histogram("x");
    }
}
