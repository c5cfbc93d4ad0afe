//! The scheduling hook: where the powercap logic plugs into the controller.
//!
//! The paper's Fig. 1 shows the modified (grey) boxes of SLURM: the offline
//! algorithm triggered by powercap reservations, and the online algorithm
//! inserted into the node-selection phase. [`SchedulingHook`] is that
//! interface. The RJMS itself ships only the [`NullHook`] (no power control);
//! the `apc-core` crate provides the real implementation with the SHUT, DVFS
//! and MIX policies. One method, [`SchedulingHook::authorize_start`], decides
//! every start: it sees a job only as a node count and a walltime, so the
//! same answer serves the job about to be placed and the controller's rule
//! that ends a pass which provably starts nothing.

use apc_power::{Frequency, Watts};

use crate::cluster::Cluster;
use crate::job::{Job, JobId};
use crate::reservation::ReservationBook;
use crate::time::{SimTime, TimeWindow};

/// Decision returned by the hook when the controller is about to start a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartDecision {
    /// Start the job now, with its cores clocked at `frequency`.
    Start {
        /// CPU frequency the job must run at.
        frequency: Frequency,
    },
    /// Keep the job pending (e.g. no frequency keeps the cluster under the
    /// power budget).
    Postpone,
}

/// The plan returned by the offline phase for a powercap reservation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OfflinePlan {
    /// Nodes to reserve for switch-off during the powercap window.
    pub switch_off_nodes: Vec<usize>,
}

/// Interface between the controller and the power-aware scheduling logic.
pub trait SchedulingHook {
    /// Whether a job of `walltime` seconds may start at `now` on
    /// `node_count` idle nodes, and at which frequency.
    ///
    /// The controller asks this before placing a pending job, once it has
    /// found `node_count` selectable nodes, and picks them only on
    /// [`StartDecision::Start`]. Selectable nodes come from the cluster's
    /// availability mask (no job, no hold), so all are idle and the
    /// answer cannot depend on which ones are picked. Once per pass it also
    /// asks with the narrowest node count and the shortest walltime among
    /// the pending jobs that fit the free nodes, and ends the pass on
    /// [`StartDecision::Postpone`] without examining a job.
    ///
    /// That skip rule needs postponing to be monotone in both arguments: if
    /// `(node_count, walltime)` is postponed, so is every wider and longer
    /// request in the same state. Breaking it silently delays jobs (debug
    /// builds run a skipped pass anyway and assert that it started nothing).
    /// The default starts every job at the maximum frequency, so it never
    /// has a pass skipped on its account.
    fn authorize_start(
        &self,
        cluster: &Cluster,
        reservations: &ReservationBook,
        node_count: usize,
        walltime: SimTime,
        now: SimTime,
    ) -> StartDecision {
        let _ = (reservations, node_count, walltime, now);
        StartDecision::Start {
            frequency: cluster.platform().ladder.max(),
        }
    }

    /// Called when a powercap reservation is submitted (the offline phase of
    /// the paper's algorithm). The returned nodes are placed under a
    /// switch-off reservation covering the same window.
    fn plan_powercap(
        &mut self,
        cluster: &Cluster,
        reservations: &ReservationBook,
        window: TimeWindow,
        cap: Watts,
        now: SimTime,
    ) -> OfflinePlan {
        let _ = (cluster, reservations, window, cap, now);
        OfflinePlan::default()
    }

    /// Runtime stretch factor of `job` running at `frequency` (1.0 at the
    /// maximum frequency). The default stretches nothing; application-aware
    /// hooks (the paper's future-work extension where an application
    /// provides its own DVFS sensitivity) may use the job's application
    /// class.
    fn runtime_factor(&self, job: &Job, frequency: Frequency) -> f64 {
        let _ = (job, frequency);
        1.0
    }

    /// Called when a powercap window opens while the cluster consumes more
    /// than the cap. Return the jobs to kill ("extreme actions"); the default
    /// — like the paper's default — kills nothing and lets the consumption
    /// decay as jobs finish.
    fn on_cap_start(
        &mut self,
        cluster: &Cluster,
        running_jobs: &[&Job],
        cap: Watts,
        now: SimTime,
    ) -> Vec<JobId> {
        let _ = (cluster, running_jobs, cap, now);
        Vec::new()
    }
}

/// A hook that performs no power control at all: every job starts immediately
/// at the maximum frequency. This is the paper's "100 %/None" baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl SchedulingHook for NullHook {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Platform;
    use crate::job::JobSubmission;

    #[test]
    fn null_hook_starts_everything_at_fmax() {
        let cluster = Cluster::new(Platform::curie_scaled(1));
        let reservations = ReservationBook::new();
        let job = Job::new(0, JobSubmission::new(0, 0, 64, 3600, 60));
        let mut hook = NullHook;
        let decision = hook.authorize_start(&cluster, &reservations, 4, 3600, 0);
        assert_eq!(
            decision,
            StartDecision::Start {
                frequency: Frequency::from_ghz(2.7)
            }
        );
        assert_eq!(hook.runtime_factor(&job, Frequency::from_ghz(1.2)), 1.0);
        assert!(hook
            .plan_powercap(
                &cluster,
                &reservations,
                TimeWindow::new(0, 10),
                Watts(1000.0),
                0
            )
            .switch_off_nodes
            .is_empty());
        assert!(hook
            .on_cap_start(&cluster, &[], Watts(1000.0), 0)
            .is_empty());
    }
}
