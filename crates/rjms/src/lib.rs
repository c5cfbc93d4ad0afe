//! # apc-rjms — a SLURM-like resource and job management system simulator
//!
//! The paper implements its powercap scheduler inside SLURM and evaluates it
//! by replaying Curie traces under the *multiple-slurmd* emulation (jobs are
//! replaced by `sleep` commands, so only RJMS decisions are exercised). This
//! crate provides the equivalent substrate as a deterministic discrete-event
//! simulator:
//!
//! * a central **controller** ([`controller::Controller`]) playing the role of
//!   `slurmctld`: job submission, scheduling cycles, dispatch, completion,
//!   node power transitions;
//! * **FCFS + EASY backfilling** with multifactor priorities (age, size,
//!   fair-share) and user-provided — typically wildly over-estimated —
//!   walltimes ([`backfill`], [`priority`]), and contiguous node selection
//!   ([`select`]);
//! * **advanced reservations**: powercap windows (time × watts) and
//!   switch-off reservations ([`reservation`]);
//! * a **node/cluster model** tied to the `apc-power` accounting so the
//!   controller always knows the instantaneous cluster power; a node stays
//!   off while any switch-off window or outage holds it
//!   ([`node`], [`cluster`]);
//! * a **scheduling hook** ([`hook::SchedulingHook`]) — the grey boxes of the
//!   paper's Fig. 1 — through which the `apc-core` powercap logic vetoes or
//!   re-frequencies job starts and plans switch-off reservations;
//! * an **event log** ([`log`]) from which the replay crate reconstructs the
//!   utilisation and power time series of Figures 6 and 7.
//!
//! The scheduler runs one setup, the paper's SLURM "configured as on
//! Curie": its values are constants beside the code that uses them
//! ([`backfill`], [`select`], [`priority`]), not settings, and every
//! controller records a power sample on every node state change.
//!
//! The simulator is deterministic: identical inputs (trace, hook) produce
//! identical schedules, which is what makes the paper's policy-versus-policy
//! comparisons meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backfill;
pub mod cluster;
pub mod controller;
pub mod event;
pub mod hook;
pub mod job;
pub mod log;
pub mod mask;
pub mod node;
pub mod obs;
pub mod priority;
pub mod reservation;
pub mod select;
pub mod time;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::cluster::{Cluster, Platform};
    pub use crate::controller::{Controller, SimulationReport};
    pub use crate::event::{Event, EventQueue};
    pub use crate::hook::{NullHook, SchedulingHook, StartDecision};
    pub use crate::job::{Job, JobId, JobOutcome, JobState, JobSubmission};
    pub use crate::log::{SimEvent, SimEventKind, SimLog};
    pub use crate::mask::NodeMask;
    pub use crate::node::SimNode;
    pub use crate::obs::{ControllerObs, PassMeasurements};
    pub use crate::priority::{FairShareTracker, MultifactorPriority};
    pub use crate::reservation::{Reservation, ReservationId, ReservationKind};
    pub use crate::time::SimTime;
}

pub use prelude::*;

/// Compile-time audit that the simulator's data types can cross thread
/// boundaries: the campaign executor (`apc-campaign`) shares platforms and
/// moves reports/logs between `std::thread` workers. The shared read-only
/// types (`Platform`, submissions) are plain owned data and stay `Sync`; the
/// [`Cluster`] is `Send`-only — its power accountant counts probes in a
/// `Cell`, which is fine because every worker owns its own cluster.
/// The audit pins these bounds against regressions (e.g. someone caching an
/// `Rc` inside `Platform`).
#[allow(dead_code)]
fn thread_safety_audit() {
    fn send<T: Send>() {}
    fn send_sync<T: Send + Sync>() {}
    send_sync::<cluster::Platform>();
    send_sync::<job::JobSubmission>();
    send_sync::<time::TimeWindow>();
    send::<cluster::Cluster>();
    send::<controller::SimulationReport>();
    send::<log::SimLog>();
    send::<log::SimEvent>();
}
