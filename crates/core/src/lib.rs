//! # apc-core — adaptive powercap scheduling (the paper's contribution)
//!
//! This crate implements the scheduling strategy of *"Adaptive Resource and
//! Job Management for Limited Power Consumption"*: a power-cap mechanism
//! built into the RJMS, combining an **offline** planning phase and an
//! **online** enforcement phase.
//!
//! * [`policy`] — the three administrator-selectable powercap policies of the
//!   paper, **SHUT**, **DVFS** and **MIX** (plus the no-powercap baseline):
//!   which power-reduction mechanisms the scheduler may use and which part of
//!   the frequency ladder is permitted.
//! * [`offline`] — Algorithm 1: when a powercap reservation is submitted,
//!   decide how many nodes must be switched off (using the Section III
//!   trade-off model) and *which* nodes, grouping them by chassis/rack to
//!   harvest the power bonus.
//! * [`online`] — Algorithm 2: when a job is about to start, pick the highest
//!   CPU frequency that keeps the cluster's power — computed from the known
//!   state of every node — under every power cap overlapping the job's
//!   execution window; keep the job pending if even the lowest permitted
//!   frequency does not fit.
//! * [`hook`] — the [`PowercapHook`] gluing both phases
//!   into the RJMS controller through the
//!   [`SchedulingHook`](apc_rjms::SchedulingHook) interface (the grey boxes
//!   of the paper's Fig. 1), including the optional "extreme actions"
//!   (killing jobs when the cap is violated at activation time).
//! * [`config`] — the `SchedulerParameters`-style configuration bundle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod hook;
pub mod offline;
pub mod online;
pub mod policy;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::config::PowercapConfig;
    pub use crate::hook::PowercapHook;
    pub use crate::offline::{OfflineDecision, OfflinePlanner};
    pub use crate::online::OnlineScheduler;
    pub use crate::policy::PowercapPolicy;
}

pub use prelude::*;
