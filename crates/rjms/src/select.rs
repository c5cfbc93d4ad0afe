//! Node selection.
//!
//! The second scheduling phase of the paper's Fig. 1: once a job has been
//! picked, concrete nodes must be chosen for it. Selection is *contiguous*:
//! it fills partially used chassis first and then takes whole free chassis
//! in ascending order, which both matches how Curie allocates
//! topology-aware jobs and keeps whole chassis free for the offline
//! switch-off planner.
//!
//! Selection runs on the cluster's availability [`NodeMask`]: it walks
//! chassis bit-ranges of `available & !blocked` in preference order — no
//! candidate vector is materialised and, with a caller-provided
//! [`SelectScratch`] and output buffer, a selection performs no heap
//! allocation in the steady state.

use crate::cluster::Cluster;
use crate::mask::NodeMask;

/// Reusable buffers for [`select_into`] (the per-chassis candidate counts).
/// Hold one per scheduling context and reuse it across passes.
#[derive(Debug, Clone, Default)]
pub struct SelectScratch {
    free_per_chassis: Vec<usize>,
}

impl SelectScratch {
    /// Allocated capacity (allocation-tracking diagnostics).
    pub fn footprint(&self) -> usize {
        self.free_per_chassis.capacity()
    }
}

/// Pick `needed` available nodes, excluding `blocked` (nodes owned by
/// overlapping reservations), appending them to `out` in ascending id
/// order. Returns `false` — leaving `out` empty — when not enough nodes
/// are available. Allocation-free once `scratch` and `out` have reached
/// their steady-state capacities.
pub fn select_into(
    cluster: &Cluster,
    needed: usize,
    blocked: &NodeMask,
    scratch: &mut SelectScratch,
    out: &mut Vec<usize>,
) -> bool {
    out.clear();
    if needed == 0 {
        return true;
    }
    let available = cluster.available_mask();
    if available_count(cluster, blocked) < needed {
        return false;
    }
    let topo = &cluster.platform().topology;
    let chassis_size = topo.nodes_per_group(0);
    let chassis_count = topo.group_count(0);
    // Candidate count per chassis: a chassis whose every node is
    // selectable is "fully free" and kept whole for switch-off grouping —
    // partially used chassis are consumed first.
    scratch.free_per_chassis.clear();
    scratch.free_per_chassis.resize(chassis_count, 0);
    for id in available.iter_and_not(blocked) {
        scratch.free_per_chassis[topo.group_of(0, id)] += 1;
    }
    // Pass 1: partially used chassis, ascending chassis id; pass 2: fully
    // free ones.
    'outer: for pass_fully_free in [false, true] {
        for (chassis, &free) in scratch.free_per_chassis.iter().enumerate() {
            if free == 0 || (free == chassis_size) != pass_fully_free {
                continue;
            }
            let range = topo.nodes_of_group(0, chassis);
            for id in available.iter_and_not_in(blocked, range.start, range.end) {
                out.push(id);
                if out.len() == needed {
                    break 'outer;
                }
            }
        }
    }
    // Pass 2 can select lower node ids than pass 1; hand the allocation
    // back in ascending order like the seed did.
    out.sort_unstable();
    debug_assert_eq!(out.len(), needed);
    true
}

/// Convenience wrapper over [`select_into`] that allocates its own buffers
/// (tests, one-off callers).
pub fn select(cluster: &Cluster, needed: usize, blocked: &NodeMask) -> Option<Vec<usize>> {
    let mut scratch = SelectScratch::default();
    let mut out = Vec::new();
    select_into(cluster, needed, blocked, &mut scratch, &mut out).then_some(out)
}

/// Count how many nodes are selectable right now given the blocked set
/// (a word-wise popcount of `available & !blocked`).
pub fn available_count(cluster: &Cluster, blocked: &NodeMask) -> usize {
    if blocked.is_empty() {
        cluster.free_count()
    } else {
        cluster.available_mask().count_and_not(blocked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Platform;
    use apc_power::Frequency;

    fn cluster() -> Cluster {
        Cluster::new(Platform::curie_scaled(1))
    }

    fn mask(ids: impl IntoIterator<Item = usize>) -> NodeMask {
        ids.into_iter().collect()
    }

    #[test]
    fn selects_exactly_the_requested_count() {
        let c = cluster();
        let nodes = select(&c, 10, &NodeMask::default()).unwrap();
        assert_eq!(nodes.len(), 10);
        // All selected nodes are distinct and ascending.
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert!(select(&c, 0, &NodeMask::default()).unwrap().is_empty());
    }

    #[test]
    fn returns_none_when_not_enough_nodes() {
        let c = cluster();
        assert!(select(&c, 91, &NodeMask::default()).is_none());
        let blocked = mask(0..85);
        assert!(select(&c, 10, &blocked).is_none());
        assert_eq!(available_count(&c, &blocked), 5);
    }

    #[test]
    fn respects_blocked_nodes() {
        let c = cluster();
        let blocked = mask(0..18);
        let nodes = select(&c, 5, &blocked).unwrap();
        assert!(nodes.iter().all(|n| !blocked.contains(*n)));
    }

    #[test]
    fn contiguous_fills_partially_used_chassis_first() {
        let mut c = cluster();
        // Occupy 10 nodes of chassis 1 (nodes 18..28).
        let occupied: Vec<usize> = (18..28).collect();
        c.allocate(1, &occupied, Frequency::from_ghz(2.7), 0);
        let nodes = select(&c, 8, &NodeMask::default()).unwrap();
        // The 8 remaining nodes of chassis 1 are preferred over untouched
        // chassis 0.
        assert_eq!(nodes, (28..36).collect::<Vec<_>>());
    }

    #[test]
    fn contiguous_spills_into_fully_free_chassis_in_ascending_order() {
        let mut c = cluster();
        // Chassis 3 partially used: its 8 leftovers come first, then the
        // fully free chassis starting from chassis 0 — so the final
        // selection mixes low and high ids and must come back sorted.
        let occupied: Vec<usize> = (54..64).collect();
        c.allocate(1, &occupied, Frequency::from_ghz(2.7), 0);
        let nodes = select(&c, 12, &NodeMask::default()).unwrap();
        let mut expected: Vec<usize> = (64..72).collect(); // rest of chassis 3
        expected.extend(0..4); // then chassis 0
        expected.sort_unstable();
        assert_eq!(nodes, expected);
    }

    #[test]
    fn available_count_matches_free_count_without_blocks() {
        let c = cluster();
        assert_eq!(available_count(&c, &NodeMask::default()), 90);
    }

    #[test]
    fn select_into_reuses_buffers_without_reallocating() {
        let c = cluster();
        let mut scratch = SelectScratch::default();
        let mut out = Vec::new();
        assert!(select_into(
            &c,
            30,
            &NodeMask::default(),
            &mut scratch,
            &mut out
        ));
        let out_cap = out.capacity();
        let scratch_cap = scratch.free_per_chassis.capacity();
        let out_ptr = out.as_ptr();
        for needed in [10usize, 25, 30, 1] {
            assert!(select_into(
                &c,
                needed,
                &NodeMask::default(),
                &mut scratch,
                &mut out
            ));
            assert_eq!(out.len(), needed);
        }
        assert_eq!(out.capacity(), out_cap, "output buffer must not regrow");
        assert_eq!(scratch.free_per_chassis.capacity(), scratch_cap);
        assert_eq!(out.as_ptr(), out_ptr, "no reallocation happened");
    }
}
