//! Controller-side observability: schedule-pass histograms, blocked-set
//! cache hit/miss counters, power-probe path counters and per-pass spans.
//!
//! A [`ControllerObs`] is attached with
//! [`Controller::set_obs`](crate::controller::Controller::set_obs). The
//! default is [`ControllerObs::disabled`]: every publication is a single
//! branch, and the controller only reads the clock when observability is
//! live — the simulation itself never sees any of it (instrumentation
//! neutrality is enforced by the workspace's golden-fingerprint tests).
//!
//! Metric names (all under the `rjms.` prefix):
//!
//! | name                             | kind      | meaning                               |
//! |----------------------------------|-----------|---------------------------------------|
//! | `rjms.schedule_pass.duration_ns` | histogram | wall time of one non-empty pass       |
//! | `rjms.schedule_pass.queue_depth` | histogram | pending jobs at the start of the pass |
//! | `rjms.blocked_cache.hits`        | counter   | blocked-set signature cache hits      |
//! | `rjms.blocked_cache.misses`      | counter   | … misses (set built from scratch)     |
//! | `rjms.probe.fast`                | counter   | power probes on the `Busy` fast path  |
//! | `rjms.probe.slow`                | counter   | power probes walking the group scratch|
//!
//! `rjms.probe.fast` counts one probe per start decision of a capped
//! policy: the count-only idle probe is built once per `authorize_start`,
//! also when the power floor postpones the job without a ladder walk.

use apc_obs::{Counter, Histogram, Registry, SpanRecorder, SpanStart};

/// Per-pass measurements the controller hands to
/// [`ControllerObs::pass_end`]. Accumulated in plain locals inside the
/// scheduling loop (free), published once per pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassMeasurements {
    /// Pending jobs at the start of the pass.
    pub queue_depth: usize,
    /// Blocked-set signature cache hits during the pass.
    pub cache_hits: u64,
    /// Blocked-set signature cache misses during the pass.
    pub cache_misses: u64,
    /// Jobs started by the pass.
    pub started: u64,
}

/// Observability handles for one [`Controller`](crate::controller::Controller).
#[derive(Debug, Clone, Default)]
pub struct ControllerObs {
    pass_duration_ns: Histogram,
    pass_queue_depth: Histogram,
    blocked_cache_hits: Counter,
    blocked_cache_misses: Counter,
    probe_fast: Counter,
    probe_slow: Counter,
    spans: SpanRecorder,
    /// Trace lane (`tid`) the pass spans land on — lets several controllers
    /// (e.g. one per profiled scenario) share a recorder without their spans
    /// overlapping in the viewer.
    lane: u64,
    /// Accountant probe totals already published, so each pass publishes
    /// deltas (the accountant counts for its whole lifetime). Plain fields:
    /// a controller is single-threaded.
    published_fast: u64,
    published_slow: u64,
}

impl ControllerObs {
    /// Build handles from `registry` and record pass spans on `spans` (pass
    /// [`SpanRecorder::disabled`] for metrics-only instrumentation).
    pub fn new(registry: &Registry, spans: SpanRecorder) -> Self {
        ControllerObs {
            pass_duration_ns: registry.histogram("rjms.schedule_pass.duration_ns"),
            pass_queue_depth: registry.histogram("rjms.schedule_pass.queue_depth"),
            blocked_cache_hits: registry.counter("rjms.blocked_cache.hits"),
            blocked_cache_misses: registry.counter("rjms.blocked_cache.misses"),
            probe_fast: registry.counter("rjms.probe.fast"),
            probe_slow: registry.counter("rjms.probe.slow"),
            spans,
            lane: 0,
            published_fast: 0,
            published_slow: 0,
        }
    }

    /// The do-nothing default.
    pub fn disabled() -> Self {
        ControllerObs::default()
    }

    /// Put this controller's spans on trace lane `lane` (builder style).
    pub fn with_lane(mut self, lane: u64) -> Self {
        self.lane = lane;
        self
    }

    /// Whether anything here records (metrics or spans).
    #[inline]
    pub fn is_live(&self) -> bool {
        self.pass_duration_ns.is_live() || self.blocked_cache_hits.is_live() || self.spans.is_live()
    }

    /// Mark the start of a schedule pass (reads the clock only when live).
    #[inline]
    pub fn pass_begin(&self) -> SpanStart {
        self.spans.start_if(self.is_live())
    }

    /// Publish one finished schedule pass: histograms, cache counters, the
    /// probe-count deltas since the previous publication, and a span.
    pub fn pass_end(&mut self, pass: SpanStart, m: PassMeasurements, probe_counts: (u64, u64)) {
        if !self.is_live() {
            return;
        }
        self.pass_duration_ns.record(pass.elapsed_ns());
        self.pass_queue_depth.record(m.queue_depth as u64);
        self.blocked_cache_hits.add(m.cache_hits);
        self.blocked_cache_misses.add(m.cache_misses);
        let (fast, slow) = probe_counts;
        let fast_delta = fast - self.published_fast;
        let slow_delta = slow - self.published_slow;
        self.probe_fast.add(fast_delta);
        self.probe_slow.add(slow_delta);
        self.published_fast = fast;
        self.published_slow = slow;
        self.spans.complete(
            pass,
            "schedule_pass",
            "rjms",
            self.lane,
            vec![
                ("pending", m.queue_depth.into()),
                ("started", m.started.into()),
                ("cache_hits", m.cache_hits.into()),
                ("cache_misses", m.cache_misses.into()),
                ("probe_fast", fast_delta.into()),
                ("probe_slow", slow_delta.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_publishes_nothing() {
        let mut obs = ControllerObs::disabled();
        assert!(!obs.is_live());
        let pass = obs.pass_begin();
        obs.pass_end(pass, PassMeasurements::default(), (5, 3));
        // Nothing to assert against — the point is it does not panic and the
        // probe baseline is untouched (publication was skipped entirely).
        assert_eq!(obs.published_fast, 0);
    }

    #[test]
    fn pass_end_publishes_deltas_not_totals() {
        let registry = Registry::new();
        let mut obs = ControllerObs::new(&registry, SpanRecorder::disabled());
        assert!(obs.is_live());
        let m = PassMeasurements {
            queue_depth: 12,
            cache_hits: 4,
            cache_misses: 1,
            started: 2,
        };
        obs.pass_end(obs.pass_begin(), m, (100, 10));
        obs.pass_end(obs.pass_begin(), m, (150, 12));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rjms.probe.fast"), Some(150));
        assert_eq!(snap.counter("rjms.probe.slow"), Some(12));
        assert_eq!(snap.counter("rjms.blocked_cache.hits"), Some(8));
        assert_eq!(snap.counter("rjms.blocked_cache.misses"), Some(2));
        let depth = snap.histogram("rjms.schedule_pass.queue_depth").unwrap();
        assert_eq!(depth.count, 2);
        assert_eq!(depth.min, 12);
    }

    #[test]
    fn spans_are_recorded_when_a_recorder_is_attached() {
        let recorder = SpanRecorder::new();
        let mut obs = ControllerObs::new(&Registry::disabled(), recorder.clone());
        assert!(obs.is_live(), "spans alone keep the obs live");
        obs.pass_end(obs.pass_begin(), PassMeasurements::default(), (1, 0));
        let events = recorder.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "schedule_pass");
        assert_eq!(events[0].category, "rjms");
    }
}
