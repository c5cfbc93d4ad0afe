//! Controller-side observability: schedule-pass histograms, blocked-set
//! cache hit/miss counters, the power-probe counter and per-pass spans.
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
//! | `rjms.schedule_pass.idle`        | counter   | non-empty passes that started no job  |
//! | `rjms.schedule_pass.skipped`     | counter   | … of which the skip rule ended early  |
//! | `rjms.blocked_cache.hits`        | counter   | prefix blocked sets reused            |
//! | `rjms.blocked_cache.misses`      | counter   | … built (first use of a prefix)       |
//! | `rjms.probe.fast`                | counter   | power probes (`idle_busy_probe`)      |
//!
//! A pass builds one blocked set per prefix of the node-carrying
//! reservations sorted by start (see the controller's module docs), so
//! `rjms.blocked_cache` counts, per examined job, a prefix set reused (a
//! hit) or built on its first use in the pass (a miss).
//!
//! `rjms.probe.fast` counts one probe per `authorize_start` of a capped
//! policy: the count-only idle probe is built once per call, also when the
//! power floor postpones the job without a ladder walk, whether the call
//! decides a job or asks the skip rule's question.
//!
//! `rjms.schedule_pass.skipped` counts the non-empty passes that provably
//! start nothing (no pending job fits the free nodes, or the hook postpones
//! the narrowest and shortest fitting job) and so end before the priority
//! sort; they are a subset of `rjms.schedule_pass.idle`. Debug builds run
//! such a pass to the end to check that it starts nothing, so there its
//! cache and probe counts include that check's work.

use apc_obs::{Counter, Histogram, Registry, SpanRecorder, SpanStart};

/// Per-pass measurements the controller hands to
/// [`ControllerObs::pass_end`]. Accumulated in plain locals inside the
/// scheduling loop (free), published once per pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassMeasurements {
    /// Pending jobs at the start of the pass.
    pub queue_depth: usize,
    /// Examined jobs whose prefix blocked set the pass had already built.
    pub cache_hits: u64,
    /// Prefix blocked sets the pass built (first use of each prefix).
    pub cache_misses: u64,
    /// Jobs started by the pass.
    pub started: u64,
    /// The pass provably starts nothing, so it ends before the priority
    /// sort (debug builds run it on, as a check).
    pub skipped: bool,
}

/// Observability handles for one [`Controller`](crate::controller::Controller).
#[derive(Debug, Clone, Default)]
pub struct ControllerObs {
    pass_duration_ns: Histogram,
    pass_queue_depth: Histogram,
    pass_idle: Counter,
    pass_skipped: Counter,
    blocked_cache_hits: Counter,
    blocked_cache_misses: Counter,
    probe_fast: Counter,
    spans: SpanRecorder,
    /// Trace lane (`tid`) the pass spans land on — lets several controllers
    /// (e.g. one per profiled scenario) share a recorder without their spans
    /// overlapping in the viewer.
    lane: u64,
    /// Accountant probe total already published, so each pass publishes
    /// a delta (the accountant counts for its whole lifetime). A plain
    /// field: a controller is single-threaded.
    published_fast: u64,
}

impl ControllerObs {
    /// Build handles from `registry` and record pass spans on `spans` (pass
    /// [`SpanRecorder::disabled`] for metrics-only instrumentation).
    pub fn new(registry: &Registry, spans: SpanRecorder) -> Self {
        ControllerObs {
            pass_duration_ns: registry.histogram("rjms.schedule_pass.duration_ns"),
            pass_queue_depth: registry.histogram("rjms.schedule_pass.queue_depth"),
            pass_idle: registry.counter("rjms.schedule_pass.idle"),
            pass_skipped: registry.counter("rjms.schedule_pass.skipped"),
            blocked_cache_hits: registry.counter("rjms.blocked_cache.hits"),
            blocked_cache_misses: registry.counter("rjms.blocked_cache.misses"),
            probe_fast: registry.counter("rjms.probe.fast"),
            spans,
            lane: 0,
            published_fast: 0,
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

    /// Publish one finished schedule pass: histograms, the idle-pass,
    /// skipped-pass and cache counters, the probe-count delta since the
    /// previous publication, and a span.
    pub fn pass_end(&mut self, pass: SpanStart, m: PassMeasurements, probes: u64) {
        if !self.is_live() {
            return;
        }
        self.pass_duration_ns.record(pass.elapsed_ns());
        self.pass_queue_depth.record(m.queue_depth as u64);
        self.pass_idle.add(u64::from(m.started == 0));
        self.pass_skipped.add(u64::from(m.skipped));
        self.blocked_cache_hits.add(m.cache_hits);
        self.blocked_cache_misses.add(m.cache_misses);
        let fast_delta = probes - self.published_fast;
        self.probe_fast.add(fast_delta);
        self.published_fast = probes;
        self.spans.complete(
            pass,
            "schedule_pass",
            "rjms",
            self.lane,
            vec![
                ("pending", m.queue_depth.into()),
                ("started", m.started.into()),
                ("skipped", u64::from(m.skipped).into()),
                ("cache_hits", m.cache_hits.into()),
                ("cache_misses", m.cache_misses.into()),
                ("probe_fast", fast_delta.into()),
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
        obs.pass_end(pass, PassMeasurements::default(), 5);
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
            skipped: false,
        };
        obs.pass_end(obs.pass_begin(), m, 100);
        obs.pass_end(obs.pass_begin(), m, 150);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rjms.probe.fast"), Some(150));
        assert_eq!(snap.counter("rjms.blocked_cache.hits"), Some(8));
        assert_eq!(snap.counter("rjms.blocked_cache.misses"), Some(2));
        let depth = snap.histogram("rjms.schedule_pass.queue_depth").unwrap();
        assert_eq!(depth.count, 2);
        assert_eq!(depth.min, 12);
        assert_eq!(snap.counter("rjms.schedule_pass.idle"), Some(0));
        assert_eq!(snap.counter("rjms.schedule_pass.skipped"), Some(0));
    }

    #[test]
    fn idle_counter_counts_only_passes_that_start_nothing() {
        let registry = Registry::new();
        let mut obs = ControllerObs::new(&registry, SpanRecorder::disabled());
        for started in [0, 2, 0, 1] {
            let m = PassMeasurements {
                queue_depth: 3,
                started,
                ..PassMeasurements::default()
            };
            obs.pass_end(obs.pass_begin(), m, 0);
        }
        assert_eq!(
            registry.snapshot().counter("rjms.schedule_pass.idle"),
            Some(2)
        );
    }

    #[test]
    fn skipped_counter_counts_only_passes_the_skip_rule_ended() {
        let registry = Registry::new();
        let mut obs = ControllerObs::new(&registry, SpanRecorder::disabled());
        for (started, skipped) in [(0, true), (0, false), (2, false), (0, true)] {
            let m = PassMeasurements {
                queue_depth: 3,
                started,
                skipped,
                ..PassMeasurements::default()
            };
            obs.pass_end(obs.pass_begin(), m, 0);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rjms.schedule_pass.skipped"), Some(2));
        assert_eq!(snap.counter("rjms.schedule_pass.idle"), Some(3));
    }

    #[test]
    fn spans_are_recorded_when_a_recorder_is_attached() {
        let recorder = SpanRecorder::new();
        let mut obs = ControllerObs::new(&Registry::disabled(), recorder.clone());
        assert!(obs.is_live(), "spans alone keep the obs live");
        obs.pass_end(obs.pass_begin(), PassMeasurements::default(), 1);
        let events = recorder.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "schedule_pass");
        assert_eq!(events[0].category, "rjms");
    }
}
