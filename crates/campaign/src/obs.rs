//! Campaign-side observability: the executor's metrics and per-cell spans.
//!
//! [`CampaignObs`] is what callers attach to a
//! [`CampaignRunner`](crate::exec::CampaignRunner) via
//! [`with_obs`](crate::exec::CampaignRunner::with_obs): a metrics
//! [`Registry`] plus a [`SpanRecorder`]. The executor publishes onto it —
//! and when the caller attaches nothing, the executor instruments itself on
//! a **private live registry** anyway, because [`RunStats`](crate::exec::RunStats)
//! is now *derived from* these instruments rather than from ad-hoc per-worker
//! counters. The per-cell publication cost (a handful of relaxed atomics per
//! multi-millisecond cell) is pinned by the `obs` criterion bench and the
//! perf gate.
//!
//! Metric names (all under the `campaign.` prefix):
//!
//! | name                                   | kind      | meaning                                   |
//! |----------------------------------------|-----------|-------------------------------------------|
//! | `campaign.cells.completed`             | counter   | cells executed                            |
//! | `campaign.cell.latency_ns`             | histogram | wall time of one cell replay              |
//! | `campaign.trace_cache.hits`            | counter   | trace-cache lookups served from cache     |
//! | `campaign.trace_cache.misses`          | counter   | distinct traces generated                 |
//! | `campaign.worker.W.completed`          | counter   | cells completed by worker thread `W`      |
//! | `campaign.worker.W.lease.claims`       | counter   | lease claims worker process `W` won       |
//! | `campaign.worker.W.lease.steals`       | counter   | of those, claims over an expired lease    |
//! | `campaign.worker.W.lease.renews`       | counter   | heartbeat renews worker process `W` wrote |
//! | `campaign.worker.W.lease.conflicts`    | counter   | claim races worker process `W` lost       |
//! | `campaign.worker.W.lease.batches_done` | counter   | lease batches worker process `W` retired  |
//!
//! The `lease.*` counters come from
//! [`run_worker`](crate::exec::CampaignRunner::run_worker), where `W` is the
//! process's `--worker-id`; the others from every run, where `W` is the
//! thread index inside one process.

use apc_obs::{ArgValue, Counter, Histogram, Registry, SpanRecorder, SpanStart};

use crate::exec::WorkerStats;

/// Observability attachments for a campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignObs {
    /// Metrics registry; the live progress monitor samples it.
    pub registry: Registry,
    /// Per-cell span recorder (Chrome-trace export).
    pub spans: SpanRecorder,
}

impl CampaignObs {
    /// Nothing attached: the executor still keeps exact run statistics on a
    /// private registry, invisibly to the caller.
    pub fn disabled() -> Self {
        CampaignObs::default()
    }

    /// A live metrics registry, no span recording.
    pub fn metrics() -> Self {
        CampaignObs {
            registry: Registry::new(),
            spans: SpanRecorder::disabled(),
        }
    }

    /// Live metrics and span recording.
    pub fn full() -> Self {
        CampaignObs {
            registry: Registry::new(),
            spans: SpanRecorder::new(),
        }
    }

    /// The registry a run publishes on: the attached one when it is live
    /// (so a progress monitor sampling it sees the same numbers), a
    /// private live one otherwise. Either way the run publishes the same
    /// instruments and reads its statistics back off them.
    pub(crate) fn live_registry(&self) -> Registry {
        if self.registry.is_live() {
            self.registry.clone()
        } else {
            Registry::new()
        }
    }
}

/// One worker's completion counter.
pub(crate) struct WorkerObs {
    completed: Counter,
    /// The counter's value at run start, so a registry shared across
    /// several runs still yields exact per-run [`WorkerStats`].
    base_completed: u64,
}

/// One run's executor instruments, shared read-only by every worker.
pub(crate) struct ExecObs {
    cells_completed: Counter,
    cell_latency: Histogram,
    cache_hits: Counter,
    cache_misses: Counter,
    workers: Vec<WorkerObs>,
    spans: SpanRecorder,
}

impl ExecObs {
    /// Register this run's instruments on `registry` (which must be live —
    /// the executor substitutes a private live one for disabled callers).
    pub(crate) fn new(registry: &Registry, spans: SpanRecorder, threads: usize) -> Self {
        let workers = (0..threads)
            .map(|w| {
                let completed = registry.counter(&format!("campaign.worker.{w}.completed"));
                WorkerObs {
                    base_completed: completed.get(),
                    completed,
                }
            })
            .collect();
        ExecObs {
            cells_completed: registry.counter("campaign.cells.completed"),
            cell_latency: registry.histogram("campaign.cell.latency_ns"),
            cache_hits: registry.counter("campaign.trace_cache.hits"),
            cache_misses: registry.counter("campaign.trace_cache.misses"),
            workers,
            spans,
        }
    }

    /// Start timing one cell (always captures the clock: the latency
    /// histogram records every cell, instrumented caller or not).
    #[inline]
    pub(crate) fn cell_begin(&self) -> SpanStart {
        self.spans.start_if(true)
    }

    /// Publish one finished cell: worker + run counters, the latency
    /// histogram, and (when a recorder is attached) a span on the worker's
    /// trace lane.
    pub(crate) fn cell_end(&self, cell: SpanStart, worker: usize, index: usize, scenario: &str) {
        self.cell_latency.record(cell.elapsed_ns());
        self.cells_completed.inc();
        self.workers[worker].completed.inc();
        self.spans.complete(
            cell,
            "cell",
            "campaign",
            worker as u64,
            vec![
                ("index", index.into()),
                ("scenario", ArgValue::Str(scenario.to_string())),
            ],
        );
    }

    /// Publish the trace cache's end-of-run totals.
    pub(crate) fn publish_cache(&self, hits: usize, misses: usize) {
        self.cache_hits.add(hits as u64);
        self.cache_misses.add(misses as u64);
    }

    /// This run's per-worker statistics, read back off the registry
    /// (net of any counts a shared registry carried in from earlier runs).
    pub(crate) fn per_worker_stats(&self) -> Vec<WorkerStats> {
        self.workers
            .iter()
            .enumerate()
            .map(|(worker, w)| WorkerStats {
                worker,
                completed: (w.completed.get() - w.base_completed) as usize,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_worker_stats_are_deltas_over_a_shared_registry() {
        let registry = Registry::new();
        // A previous run left counts behind.
        registry.counter("campaign.worker.0.completed").add(7);
        let obs = ExecObs::new(&registry, SpanRecorder::disabled(), 2);
        obs.cell_end(obs.cell_begin(), 0, 3, "60%/SHUT");
        obs.cell_end(obs.cell_begin(), 1, 4, "60%/MIX");
        let stats = obs.per_worker_stats();
        assert_eq!(stats[0].completed, 1, "previous run's 7 are excluded");
        assert_eq!(stats[1].completed, 1);
        // The run-wide counters are cumulative across runs by design.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("campaign.cells.completed"), Some(2));
        assert_eq!(snap.histogram("campaign.cell.latency_ns").unwrap().count, 2);
    }

    #[test]
    fn cell_spans_land_on_the_worker_lane() {
        let spans = SpanRecorder::new();
        let obs = ExecObs::new(&Registry::new(), spans.clone(), 3);
        obs.cell_end(obs.cell_begin(), 2, 9, "40%/DVFS");
        let events = spans.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tid, 2);
        assert_eq!(events[0].name, "cell");
        assert!(events[0]
            .args
            .iter()
            .any(|(k, v)| *k == "scenario" && *v == ArgValue::Str("40%/DVFS".into())));
    }
}
