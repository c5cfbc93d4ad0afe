//! The scheduling hook: where the powercap logic plugs into the controller.
//!
//! The paper's Fig. 1 shows the modified (grey) boxes of SLURM: the offline
//! algorithm triggered by powercap reservations, and the online algorithm
//! inserted into the node-selection phase. [`SchedulingHook`] is that
//! interface. The RJMS itself ships only the [`NullHook`] (no power control);
//! the `apc-core` crate provides the real implementation with the SHUT, DVFS
//! and MIX policies.

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
    /// Called during the allocation phase, *before* node placement: the
    /// controller has found `node_count` selectable nodes for `job` at `now`
    /// and picks them only if this returns [`StartDecision::Start`].
    ///
    /// Every selectable node comes from the cluster's availability mask
    /// (free, powered, undrained), so all of them are idle: starting the job
    /// turns `node_count` idle nodes busy, whichever ones are picked. The
    /// default implementation starts every job at the platform's maximum
    /// frequency.
    fn authorize_start(
        &mut self,
        cluster: &Cluster,
        reservations: &ReservationBook,
        job: &Job,
        node_count: usize,
        now: SimTime,
    ) -> StartDecision {
        let _ = (cluster, reservations, job, node_count, now);
        StartDecision::Start {
            frequency: cluster_max_frequency(cluster),
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

    /// Runtime stretch factor applied to a job running at `frequency`
    /// (1.0 at the maximum frequency).
    fn runtime_factor(&self, frequency: Frequency) -> f64 {
        let _ = frequency;
        1.0
    }

    /// Runtime stretch factor for a *specific* job. The default ignores the
    /// job and delegates to [`runtime_factor`](SchedulingHook::runtime_factor);
    /// application-aware hooks (the paper's future-work extension where an
    /// application provides its own DVFS sensitivity) override this to use
    /// the job's application class.
    fn runtime_factor_for(&self, job: &Job, frequency: Frequency) -> f64 {
        let _ = job;
        self.runtime_factor(frequency)
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

/// Highest frequency of the cluster's ladder.
pub(crate) fn cluster_max_frequency(cluster: &Cluster) -> Frequency {
    cluster.platform().ladder.max()
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
        let decision = hook.authorize_start(&cluster, &reservations, &job, 4, 0);
        assert_eq!(
            decision,
            StartDecision::Start {
                frequency: Frequency::from_ghz(2.7)
            }
        );
        assert_eq!(hook.runtime_factor(Frequency::from_ghz(1.2)), 1.0);
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
