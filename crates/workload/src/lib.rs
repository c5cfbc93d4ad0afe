//! # apc-workload — workload traces for the Curie replay
//!
//! The paper replays time intervals extracted from the 2012 production trace
//! of the Curie supercomputer (Parallel Workloads Archive, `l_cea_curie`).
//! That trace cannot be bundled here, so this crate provides:
//!
//! * [`trace`] — an in-memory job-trace representation carrying the
//!   SWF-compatible fields the replay needs, plus conversion to the RJMS
//!   [`JobSubmission`](apc_rjms::JobSubmission) type;
//! * [`swf`] — a reader/writer for the Standard Workload Format, so the real
//!   Curie trace (or any other SWF trace) can be dropped in when available;
//! * [`synth`] — a **calibrated synthetic Curie generator** reproducing every
//!   quantitative property the paper states about its extracted intervals:
//!   an overloaded submission queue, 69 % of jobs below 512 cores and
//!   2 minutes of runtime, 0.1 % of huge jobs exceeding a full-cluster hour,
//!   and walltime over-estimation around four orders of magnitude
//!   (mean ≈ 12 670×, median ≈ 12 000×);
//! * [`stats`] — trace statistics used both by the calibration tests and by
//!   the experiment reports;
//! * [`cache`] — a concurrency-safe trace cache so multi-threaded experiment
//!   campaigns generate each `(platform, interval, seed)` workload only once;
//! * [`rng`] — the workspace's one generator (SplitMix64) and one byte hash
//!   (FNV-1a), which every synthetic trace and fingerprint is pinned to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod rng;
pub mod stats;
pub mod swf;
pub mod synth;
pub mod trace;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::cache::{TraceCache, TraceCacheKey};
    pub use crate::stats::TraceStats;
    pub use crate::swf::{load_swf_file, parse_swf, write_swf};
    pub use crate::synth::{CurieTraceGenerator, IntervalKind};
    pub use crate::trace::{Trace, TraceJob};
}

pub use prelude::*;
