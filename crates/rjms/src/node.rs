//! Compute-node records.
//!
//! Each node carries two orthogonal pieces of state:
//!
//! * the **allocation state** — free, allocated to a job, drained for a
//!   switch-off reservation — which drives scheduling decisions, and
//! * the **power state** (off / idle / busy at a frequency) owned by the
//!   [`ClusterPowerAccountant`](apc_power::ClusterPowerAccountant) and kept in
//!   sync by the [`Cluster`](crate::cluster::Cluster) wrapper.

use crate::job::JobId;

/// Scheduling-relevant state of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationState {
    /// Powered on, not running any job, available for scheduling.
    #[default]
    Free,
    /// Exclusively allocated to a job.
    Allocated(JobId),
    /// Powered off (or reserved for switch-off): not available for jobs.
    PoweredOff,
}

impl AllocationState {
    /// Can the scheduler place a job on this node right now?
    #[inline]
    pub fn is_available(self) -> bool {
        matches!(self, AllocationState::Free)
    }

    /// The job occupying the node, if any.
    #[inline]
    pub fn job(self) -> Option<JobId> {
        match self {
            AllocationState::Allocated(j) => Some(j),
            _ => None,
        }
    }
}

/// One compute node as tracked by the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimNode {
    /// Dense node identifier (matches the power topology's `NodeId`).
    pub id: usize,
    /// Scheduling state.
    pub alloc: AllocationState,
    /// Whether the node is earmarked by an active switch-off reservation and
    /// must not be handed to jobs even while technically still powered.
    pub drained: bool,
}

impl SimNode {
    /// A fresh, free node.
    pub fn new(id: usize) -> Self {
        SimNode {
            id,
            alloc: AllocationState::Free,
            drained: false,
        }
    }

    /// Is the node available for a new job (free, powered and not drained)?
    #[inline]
    pub fn is_available(&self) -> bool {
        self.alloc.is_available() && !self.drained
    }

    /// Is the node running a job?
    #[inline]
    pub fn is_allocated(&self) -> bool {
        matches!(self.alloc, AllocationState::Allocated(_))
    }

    /// Is the node powered off?
    #[inline]
    pub fn is_off(&self) -> bool {
        self.alloc == AllocationState::PoweredOff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_is_available() {
        let n = SimNode::new(7);
        assert_eq!(n.id, 7);
        assert!(n.is_available());
        assert!(!n.is_allocated());
        assert!(!n.is_off());
    }

    #[test]
    fn allocation_state_transitions() {
        let mut n = SimNode::new(0);
        n.alloc = AllocationState::Allocated(42);
        assert!(!n.is_available());
        assert!(n.is_allocated());
        assert_eq!(n.alloc.job(), Some(42));
        n.alloc = AllocationState::PoweredOff;
        assert!(n.is_off());
        assert!(!n.is_available());
        assert_eq!(n.alloc.job(), None);
    }

    #[test]
    fn drained_nodes_are_not_available() {
        let mut n = SimNode::new(0);
        n.drained = true;
        assert!(!n.is_available());
        assert!(!n.is_allocated());
    }
}
