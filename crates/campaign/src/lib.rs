//! # apc-campaign — parallel experiment campaigns
//!
//! The paper's evaluation is a grid — {SHUT, DVFS, MIX} policies ×
//! {80, 60, 40 %} cap fractions × four workload intervals × seeds — but the
//! replay harness runs one `(Scenario, Trace)` cell at a time. This crate
//! turns "replay one scenario" into "run a campaign":
//!
//! * [`spec`] — a declarative [`CampaignSpec`](spec::CampaignSpec) expanding
//!   policies × caps × ablation knobs × intervals × seeds × rack scales into
//!   densely-indexed [`CampaignCell`](spec::CampaignCell)s;
//! * [`exec`] — a **work-stealing** [`CampaignRunner`](exec::CampaignRunner)
//!   on `std::thread`: per-worker deques seeded by stable cell index with
//!   steal-on-empty (so a straggler cell no longer idles the other
//!   workers), shared generated traces through the
//!   [`TraceCache`](apc_workload::TraceCache), worker-local harness reuse,
//!   and **byte-identical results for any thread count**;
//! * [`store`] — the append-only partitioned
//!   [`ResultStore`](store::ResultStore) (binary columnar
//!   `cells/part-NNNN.apc` partitions — see [`colstore`] — plus a manifest
//!   recording the spec fingerprint and completed cell indices) that rows
//!   stream into as they finish, giving crash-safe campaigns and
//!   `--resume`; v2 CSV stores stay readable and [`compact`] migrates
//!   them;
//! * [`agg`] — streaming reduction of each replay outcome to a flat
//!   [`CellRow`](agg::CellRow) plus across-seed mean/min/max/stddev
//!   [`SummaryRow`](agg::SummaryRow)s, without ever buffering whole
//!   [`ReplayOutcome`](apc_replay::ReplayOutcome)s;
//! * [`sink`] — CSV and JSON render frontends over the store (or an
//!   in-memory outcome) writing `cells.*` and `summary.*`;
//! * [`diff`] — cross-campaign comparison of two `summary.csv` files with
//!   a regression threshold, exposed as the `campaign-diff` binary;
//! * the `campaign` binary (`cargo run --release -p apc-campaign --bin
//!   campaign -- --threads N --seeds K [--resume DIR] …`) exposing all of
//!   the above.
//!
//! ```no_run
//! use apc_campaign::prelude::*;
//!
//! let spec = CampaignSpec::paper(2012, 3); // the paper grid, 3 seeds
//! let runner = CampaignRunner::new(spec).with_threads(4);
//! // Stream rows into a crash-resumable on-disk store as cells finish…
//! let mut store =
//!     ResultStore::create("results", runner.fingerprint(), runner.cells().unwrap().len())
//!         .unwrap();
//! let outcome = runner.run_with_store(&mut store).unwrap();
//! // …or run purely in memory.
//! println!("{}", render_summary_csv(&outcome.summaries));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod colstore;
pub mod compact;
pub mod diff;
pub mod exec;
pub mod lease;
pub mod obs;
pub mod pareto;
pub mod progress;
pub mod query;
pub mod sink;
pub mod spec;
pub mod store;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::agg::{summarize, CellRow, MetricSummary, SummaryRow};
    pub use crate::colstore::{encode_block, PartitionBuf};
    pub use crate::compact::{compact_store, CompactStats};
    pub use crate::diff::{diff_summary_csv, DiffReport, MetricDelta};
    pub use crate::exec::{
        platform_for, CampaignOutcome, CampaignRunner, RunStats, WorkerOutcome, WorkerStats,
    };
    pub use crate::lease::{
        now_ms, Backoff, BatchLease, LeaseAction, LeaseHeader, LeaseLog, LeaseState,
        WorkerLeaseStats, DEFAULT_LEASE_CELLS, DEFAULT_LEASE_TTL_MS, LEASES_NAME,
    };
    pub use crate::obs::CampaignObs;
    pub use crate::pareto::{
        pareto_front, pareto_front_cells, render_pareto_cells_csv, render_pareto_csv, Objectives,
        ParetoCellRow, ParetoRow,
    };
    pub use crate::progress::{render_lease_progress, render_progress, ProgressMonitor};
    pub use crate::query::{
        numeric, project, scan_store, AggKind, GroupAggregator, Projection, RowFilter, ScanFlow,
        ScanStats, StoreScanner, DEFAULT_AGG_COLUMNS, NUMERIC_COLUMNS, QUERY_COLUMNS,
    };
    pub use crate::sink::{
        render_cells_csv, render_cells_json, render_summary_csv, render_summary_json, CampaignSink,
        CsvSink, JsonSink,
    };
    pub use crate::spec::{
        place_windows, CampaignCell, CampaignSpec, CellWorkload, TraceSource, WindowPlacement,
        WindowSet, SINGLE_PAPER_WINDOW,
    };
    pub use crate::store::{ResultStore, STORE_SCHEMA_V2, STORE_SCHEMA_VERSION};
}

pub use prelude::*;

/// Compile-time audit that everything the sharded executor moves across or
/// shares between worker threads really is `Send`/`Sync`. The replay stack
/// is plain owned data (no `Rc`, no interior mutability besides the trace
/// cache's own locks), so these hold structurally — this pins that property
/// against future regressions.
#[allow(dead_code)]
fn thread_safety_audit() {
    fn send<T: Send>() {}
    fn send_sync<T: Send + Sync>() {}
    // Shared read-only between workers.
    send_sync::<apc_rjms::cluster::Platform>();
    send_sync::<apc_workload::Trace>();
    send_sync::<apc_workload::TraceCache>();
    send_sync::<apc_replay::Scenario>();
    send_sync::<spec::CampaignSpec>();
    send_sync::<spec::TraceSource>();
    send_sync::<spec::CampaignCell>();
    // Moved from workers to the aggregator.
    send::<apc_replay::ReplayOutcome>();
    send::<apc_rjms::controller::SimulationReport>();
    send::<agg::CellRow>();
    // Worker-local state and per-worker results under the stealing executor.
    send::<apc_replay::ReplayHarness>();
    send::<exec::WorkerStats>();
}
