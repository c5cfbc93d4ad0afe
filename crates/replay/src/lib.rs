//! # apc-replay — experiment harness
//!
//! Everything needed to regenerate the evaluation of the paper:
//!
//! * [`scenario`] — the powercap scenarios of Section VII (policy ×
//!   cap-fraction × 1-hour window in the middle of the interval);
//! * [`harness`] — the four-phase replay methodology (environment setup,
//!   interval initial state, workload replay, post-treatment) driving the
//!   RJMS controller with the powercap hook;
//! * [`metrics`] — reconstruction of the utilisation and power time series
//!   (Figures 6 and 7) from the simulation log, and the normalised
//!   energy / launched-jobs / work outcome triple of Figure 8;
//! * [`figures`] — one driver per table and figure of the paper, each
//!   producing an aligned text table that can be compared side-by-side with
//!   the published one;
//! * the `experiments` binary (`cargo run --release -p apc-replay --bin
//!   experiments -- <fig2|fig3|...|all>`) exposing all of the above from the
//!   command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod metrics;
pub mod scenario;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::harness::{platform_for, ReplayHarness, ReplayOutcome, ReplaySummary};
    pub use crate::metrics::{
        NormalizedOutcome, PowerSeries, UtilizationSample, UtilizationSeries,
    };
    pub use crate::scenario::{CapSchedule, CapSegment, FaultPlan, Scenario};
}

pub use prelude::*;

// Re-export the lower-layer pieces a replay driver (the `experiments` bin,
// the `apc-campaign` executor) needs, so such drivers can be written against
// `apc_replay` alone.
pub use apc_rjms::cluster::Platform;
pub use apc_rjms::controller::SimulationReport;
pub use apc_workload::{CurieTraceGenerator, IntervalKind, Trace, TraceCache};

/// Compile-time audit that the replay pipeline is thread-compatible: the
/// campaign executor shares one [`Scenario`] grid across workers and runs
/// one [`ReplayHarness`] per worker, so the whole chain must be `Send` (and
/// `Sync` where shared read-only).
#[allow(dead_code)]
fn thread_safety_audit() {
    fn send<T: Send>() {}
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Scenario>();
    send_sync::<ReplayHarness>();
    send_sync::<Trace>();
    send::<ReplayOutcome>();
    send::<NormalizedOutcome>();
    send::<PowerSeries>();
    send::<UtilizationSeries>();
}
