//! The per-layer metrics of a traced run, derived from its spans, the
//! executor's and the controller's own instruments and a few byte counts,
//! with the table printed beside them.

use apc_campaign::query::ScanStats;
use apc_obs::Snapshot;

use crate::campaign::ExecCounts;
use crate::trace::{SpanStats, Tracer};
use crate::util::{percentile, ratio};
use crate::Metric;

/// Work the checking scans and compactions did.
#[derive(Debug, Default)]
pub struct QueryTotals {
    pub rows_matched: usize,
    pub partitions_scanned: usize,
    pub partitions_skipped: usize,
    pub compact_in: u64,
    pub compact_out: u64,
}

impl QueryTotals {
    pub fn add(&mut self, stats: &ScanStats) {
        self.rows_matched += stats.matched;
        self.partitions_scanned += stats.partitions_scanned;
        self.partitions_skipped += stats.partitions_skipped;
    }
}

/// Everything besides the spans that the per-layer metrics read.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Cells the traced rounds recorded.
    pub cells: usize,
    /// Distinct (interval, seed) workloads among those cells.
    pub workloads: usize,
    /// Wall time of the same work run untraced.
    pub untraced_ms: f64,
    /// Store bytes (partitions, manifest, lease log) the traced rounds left.
    pub store_bytes: u64,
    /// Of those, lease-log bytes.
    pub lease_bytes: u64,
    /// What `CampaignRunner` published running the same seeds untraced.
    pub exec: ExecCounts,
    pub query: QueryTotals,
    /// The `rjms.*` instruments after the instrumented replays.
    pub rjms: Option<Snapshot>,
}

/// Turn a traced run into its per-layer metrics, printing the layer table
/// (self time, span count, share) and every metric with its base.
pub fn finish(tr: &Tracer, inputs: LayerInputs) -> Vec<Metric> {
    let s = SpanStats::new(tr.spans());
    let (wall_ms, idle_ms, coord_ms) = s.rounds();
    let us = 1e3;
    let ms = 1e6;

    let ExecCounts {
        generated,
        cache_hits: hits,
        batches,
        claims,
        conflicts,
        ..
    } = inputs.exec;
    let none = s.durations("replay.none", ms);
    let capped: Vec<f64> = ["replay.shut", "replay.dvfs", "replay.mix"]
        .iter()
        .flat_map(|n| s.durations(n, ms))
        .collect();
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let rjms = inputs.rjms.unwrap_or_default();
    let hist = |name: &str| rjms.histogram(name).cloned().unwrap_or_default();
    let counter = |name: &str| rjms.counter(name).unwrap_or(0) as f64;
    let passes = hist("rjms.schedule_pass.duration_ns");
    let (bc_hits, bc_misses) = (
        counter("rjms.blocked_cache.hits"),
        counter("rjms.blocked_cache.misses"),
    );
    let appends = s.count("store.append");
    let cells = inputs.cells as f64;
    let q = &inputs.query;

    let m = |name, value, unit, base: String| Metric {
        name,
        value,
        unit,
        base,
    };
    let metrics = vec![
        m(
            "spec.expand_ms",
            s.total_ms("spec.expand"),
            "ms",
            format!("{} expansions", s.count("spec.expand")),
        ),
        m(
            "workload.traces_generated",
            generated as f64,
            "count",
            format!(
                "CampaignRunner's trace-cache misses, for {} distinct workloads over {cells} cells",
                inputs.workloads
            ),
        ),
        m(
            "workload.generate_ms",
            s.total_ms("workload.generate"),
            "ms",
            format!("{generated} generations"),
        ),
        m(
            "workload.cache_hit_ratio",
            ratio(hits as f64, (hits + generated) as f64),
            "ratio",
            format!(
                "CampaignRunner's {hits} hits / {} lookups",
                hits + generated
            ),
        ),
        m(
            "replay.none_ms_p50",
            percentile(&none, 0.5),
            "ms",
            format!("{} baseline replays", none.len()),
        ),
        m(
            "replay.shut_ms_p50",
            s.p("replay.shut", 0.5, ms),
            "ms",
            format!("{} replays", s.count("replay.shut")),
        ),
        m(
            "replay.dvfs_ms_p50",
            s.p("replay.dvfs", 0.5, ms),
            "ms",
            format!("{} replays", s.count("replay.dvfs")),
        ),
        m(
            "replay.mix_ms_p50",
            s.p("replay.mix", 0.5, ms),
            "ms",
            format!("{} replays", s.count("replay.mix")),
        ),
        m(
            "replay.ms_total",
            s.layer_self_ms("replay"),
            "ms",
            "platform + harness + run_summary self time".into(),
        ),
        m(
            "replay.capped_over_baseline",
            ratio(mean(&capped), mean(&none)),
            "ratio",
            format!(
                "mean capped {:.3} ms / mean baseline {:.3} ms",
                mean(&capped),
                mean(&none)
            ),
        ),
        m(
            "rjms.schedule_passes",
            passes.count as f64,
            "count",
            "instrumented replays of the same cells".into(),
        ),
        m(
            "rjms.schedule_pass.ms_total",
            passes.sum as f64 / ms,
            "ms",
            format!("{} passes", passes.count),
        ),
        m(
            "rjms.schedule_pass.queue_depth_mean",
            hist("rjms.schedule_pass.queue_depth").mean(),
            "jobs",
            format!("{} passes", passes.count),
        ),
        m(
            "rjms.blocked_cache.hit_ratio",
            ratio(bc_hits, bc_hits + bc_misses),
            "ratio",
            format!("{bc_hits} hits / {} lookups", bc_hits + bc_misses),
        ),
        m(
            "rjms.probe.fast",
            counter("rjms.probe.fast"),
            "count",
            "Busy fast-path power probes".into(),
        ),
        m(
            "rjms.probe.slow",
            counter("rjms.probe.slow"),
            "count",
            "group-scratch power probes".into(),
        ),
        m(
            "agg.reduce_us_p50",
            s.p("agg.reduce", 0.5, us),
            "us",
            format!("{} reductions", s.count("agg.reduce")),
        ),
        m(
            "agg.summarize_ms",
            s.total_ms("agg.summarize"),
            "ms",
            format!("{} folds", s.count("agg.summarize")),
        ),
        m(
            "store.appends",
            appends as f64,
            "count",
            "ResultStore::append calls".into(),
        ),
        m(
            "store.append_us_p50",
            s.p("store.append", 0.5, us),
            "us",
            format!("{appends} appends"),
        ),
        m(
            "store.append_us_p95",
            s.p("store.append", 0.95, us),
            "us",
            format!("{appends} appends"),
        ),
        m(
            "store.encode_us_p50",
            s.p("store.encode", 0.5, us),
            "us",
            format!("{} one-row blocks", s.count("store.encode")),
        ),
        m(
            "store.bytes_per_append",
            ratio(inputs.store_bytes as f64, appends as f64),
            "B",
            format!("{} B / {appends} appends", inputs.store_bytes),
        ),
        m(
            "store.coordinator_busy_ratio",
            ratio(coord_ms, wall_ms),
            "ratio",
            format!("{coord_ms:.1} ms encode+append / {wall_ms:.1} ms traced wall"),
        ),
        m(
            "lease.batches",
            batches as f64,
            "count",
            format!("CampaignRunner's batches done, {claims} claims"),
        ),
        m(
            "lease.log_bytes_per_cell",
            ratio(inputs.lease_bytes as f64, cells),
            "B",
            format!("{} B / {cells} cells", inputs.lease_bytes),
        ),
        m(
            "lease.conflicts",
            conflicts as f64,
            "count",
            "CampaignRunner's claim races lost".into(),
        ),
        m(
            "exec.overhead_ms",
            idle_ms,
            "ms",
            format!("traced wall {wall_ms:.1} ms not covered by any layer span"),
        ),
        m(
            "query.open_ms",
            s.p("query.open", 0.5, ms),
            "ms",
            format!("p50 of {} opens", s.count("query.open")),
        ),
        m(
            "query.full_ms_p50",
            s.p("query.full", 0.5, ms),
            "ms",
            format!("{} scans", s.count("query.full")),
        ),
        m(
            "query.filter_ms_p50",
            s.p("query.filter", 0.5, ms),
            "ms",
            format!("{} scans", s.count("query.filter")),
        ),
        m(
            "query.project_ms_p50",
            s.p("query.project", 0.5, ms),
            "ms",
            format!("{} scans", s.count("query.project")),
        ),
        m(
            "query.groupby_ms_p50",
            s.p("query.groupby", 0.5, ms),
            "ms",
            format!("{} scans", s.count("query.groupby")),
        ),
        m(
            "query.rows_matched",
            q.rows_matched as f64,
            "count",
            "all traced scans".into(),
        ),
        m(
            "query.partitions_scanned",
            q.partitions_scanned as f64,
            "count",
            "all traced scans".into(),
        ),
        m(
            "query.partitions_skipped",
            q.partitions_skipped as f64,
            "count",
            format!(
                "of {} partition visits",
                q.partitions_scanned + q.partitions_skipped
            ),
        ),
        m(
            "compact.ms",
            s.total_ms("compact.run"),
            "ms",
            format!("{} compactions", s.count("compact.run")),
        ),
        m(
            "compact.bytes_in",
            q.compact_in as f64,
            "B",
            "live partition bytes read".into(),
        ),
        m(
            "compact.bytes_out",
            q.compact_out as f64,
            "B",
            "compacted partition bytes written".into(),
        ),
        m(
            "sink.render_ms",
            s.total_ms("sink.render"),
            "ms",
            format!("{} render sets", s.count("sink.render")),
        ),
        m(
            "trace.overhead_ms",
            wall_ms - inputs.untraced_ms,
            "ms",
            format!(
                "traced {wall_ms:.1} ms - untraced {:.1} ms",
                inputs.untraced_ms
            ),
        ),
        m(
            "trace.overhead_pct",
            100.0 * ratio(wall_ms - inputs.untraced_ms, inputs.untraced_ms),
            "%",
            format!("of untraced {:.1} ms", inputs.untraced_ms),
        ),
    ];

    let self_total: f64 = s.by_layer().values().map(|e| e.1).sum();
    println!(
        "{:<10} {:>9} {:>12} {:>7}",
        "layer", "spans", "self_ms", "share"
    );
    for (layer, (n, self_ms)) in s.by_layer() {
        println!(
            "{layer:<10} {n:>9} {self_ms:>12.3} {:>6.1}%",
            100.0 * ratio(self_ms, self_total)
        );
    }
    for metric in &metrics {
        println!(
            "{:<38} {:>14.4} {:<6} ({})",
            metric.name, metric.value, metric.unit, metric.base
        );
    }
    // Lease latencies exist only where the lease layer runs, so they are
    // printed here rather than reported as metrics every workload has.
    println!(
        "lease.claim_us_p50 {:.1} us, lease.done_us_p50 {:.1} us ({batches} batches)",
        s.p("lease.claim", 0.5, us),
        s.p("lease.done", 0.5, us)
    );
    println!(
        "tracing overhead: traced {wall_ms:.1} ms - untraced {:.1} ms = {:.1} ms ({:+.1} %)",
        inputs.untraced_ms,
        wall_ms - inputs.untraced_ms,
        100.0 * ratio(wall_ms - inputs.untraced_ms, inputs.untraced_ms)
    );
    metrics
}
