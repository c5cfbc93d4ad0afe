//! `apc-obs`: observability for the adaptive-powercap stack, free when
//! disabled and gated when live.
//!
//! Two halves:
//!
//! - [`metrics`] — a registry of atomic counters, gauges and fixed-bucket
//!   log2 histograms. Handles are cheap clones; a handle from a disabled
//!   registry is a one-branch no-op.
//! - [`trace`] — a span/event recorder emitting Chrome Trace Event Format
//!   (load the output at chrome://tracing or ui.perfetto.dev). Spans are
//!   recorded per schedule pass / campaign cell, never per simulator event.
//!
//! The contract the instrumented crates rely on: **observability never
//! feeds back into simulation state.** Instruments only observe, so every
//! output byte (result store, summaries, replay fingerprints) is identical
//! with recording on or off — the workspace's instrumentation-neutrality
//! tests enforce this.
//!
//! What live instruments cost is measured where the perf gate sees it:
//! `perf-baseline` times the 60 % DVFS replay with a live registry and
//! span recorder attached against the same replay without them, and gates
//! the quotient (`cap60_dvfs_obs / cap60_dvfs`) like every other ratio.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{write_chrome_trace, ArgValue, SpanRecorder, SpanStart, TraceEvent};
