//! Compute-node records.
//!
//! Each node carries two orthogonal pieces of state:
//!
//! * the **scheduling state** — the job on the node, if any, and a count of
//!   holds, one per reason keeping the node off (an active switch-off
//!   reservation, an outage) — which drives scheduling decisions, and
//! * the **power state** (off / idle / busy at a frequency) owned by the
//!   [`ClusterPowerAccountant`](apc_power::ClusterPowerAccountant) and kept in
//!   sync by the [`Cluster`](crate::cluster::Cluster) wrapper.
//!
//! A free node powers off when its first hold arrives and back on when its
//! last hold goes; a busy node that is held powers off when its job releases
//! it. Counting the holds lets reasons overlap on one node: two adjacent
//! switch-off windows, an outage inside a window, two outages.

use crate::job::JobId;

/// One compute node as tracked by the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimNode {
    /// Dense node identifier (matches the power topology's `NodeId`).
    pub id: usize,
    /// The job running on the node, if any.
    pub job: Option<JobId>,
    /// How many reasons keep the node off: active switch-off reservations
    /// and outages on it.
    pub holds: u32,
}

impl SimNode {
    /// A fresh, free node.
    pub fn new(id: usize) -> Self {
        SimNode {
            id,
            job: None,
            holds: 0,
        }
    }

    /// Is the node available for a new job (no job and no hold)?
    #[inline]
    pub fn is_available(&self) -> bool {
        self.job.is_none() && self.holds == 0
    }

    /// Is the node running a job?
    #[inline]
    pub fn is_allocated(&self) -> bool {
        self.job.is_some()
    }

    /// Is the node powered off (no job and at least one hold)?
    #[inline]
    pub fn is_off(&self) -> bool {
        self.job.is_none() && self.holds > 0
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
        n.job = Some(42);
        assert!(!n.is_available());
        assert!(n.is_allocated());
        assert_eq!(n.job, Some(42));
        n.job = None;
        n.holds = 1;
        assert!(n.is_off());
        assert!(!n.is_available());
        assert_eq!(n.job, None);
    }

    /// A held node running a job stays on until the job releases it, and is
    /// not available either way.
    #[test]
    fn drained_nodes_are_not_available() {
        let mut n = SimNode::new(0);
        n.job = Some(3);
        n.holds = 1;
        assert!(!n.is_available());
        assert!(!n.is_off());
        n.job = None;
        assert!(!n.is_available());
        assert!(!n.is_allocated());
    }
}
