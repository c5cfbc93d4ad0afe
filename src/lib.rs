//! # adaptive-powercap
//!
//! Facade crate for the reproduction of *"Adaptive Resource and Job
//! Management for Limited Power Consumption"* (Georgiou, Glesser, Trystram —
//! IPDPSW 2015).
//!
//! The workspace is organised in layers, re-exported here for convenience:
//!
//! * [`power`] — power/energy substrate: DVFS ladder, node power profiles,
//!   Curie topology with power bonus, cluster power accounting, the
//!   Section III trade-off model.
//! * [`rjms`] — a SLURM-like resource and job management system simulator:
//!   discrete-event engine, controller, backfilling, priorities,
//!   reservations.
//! * [`core`] — the paper's contribution: the adaptive powercap scheduler
//!   (offline Algorithm 1, online Algorithm 2, SHUT/DVFS/MIX policies).
//! * [`workload`] — SWF traces and the calibrated synthetic Curie workload
//!   generator.
//! * [`replay`] — the experiment harness regenerating every table and figure
//!   of the paper's evaluation.
//! * [`campaign`] — the parallel experiment-campaign subsystem: declarative
//!   grids, a sharded multi-threaded executor, streaming aggregation and
//!   CSV/JSON sinks (plus the `campaign` binary).
//! * [`obs`] — zero-overhead observability: a metrics registry (counters,
//!   log2 histograms), a span recorder with a Chrome Trace Event writer, and
//!   the instrumentation hooks the layers above publish onto.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a complete end-to-end run; the outline is:
//!
//! ```no_run
//! use adaptive_powercap::prelude::*;
//!
//! // A scaled-down Curie-like cluster and a synthetic workload interval.
//! let platform = Platform::curie_scaled(4);
//! let trace = CurieTraceGenerator::new(42)
//!     .interval(IntervalKind::MedianJob)
//!     .generate_for(&platform);
//!
//! // A 1-hour powercap reservation at 60 % of the cluster's maximum power,
//! // handled with the SHUT policy, placed in the middle of the interval.
//! let scenario = Scenario::paper(PowercapPolicy::Shut, 0.60, trace.duration);
//!
//! let outcome = ReplayHarness::new(platform, trace).run(&scenario);
//! println!("{}", outcome.summary());
//! ```

#![forbid(unsafe_code)]

pub use apc_campaign as campaign;
pub use apc_core as core;
pub use apc_obs as obs;
pub use apc_power as power;
pub use apc_replay as replay;
pub use apc_rjms as rjms;
pub use apc_workload as workload;

/// One-stop prelude re-exporting the items used by the examples and most
/// downstream code.
pub mod prelude {
    pub use apc_campaign::prelude::*;
    pub use apc_core::prelude::*;
    pub use apc_power::prelude::*;
    pub use apc_replay::prelude::*;
    pub use apc_rjms::prelude::*;
    pub use apc_workload::prelude::*;
}
