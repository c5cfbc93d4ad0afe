//! EASY backfilling.
//!
//! The controller schedules FCFS by priority; when the head job cannot start
//! for lack of nodes, EASY backfilling [Mu'alem & Feitelson, TPDS 2001]
//! computes the *shadow time* at which the head job is expected to start
//! (based on the running jobs' walltime limits) and lets lower-priority jobs
//! jump ahead only if they do not delay that start: either they terminate
//! before the shadow time, or they fit in the nodes left over once the head
//! job's future allocation is accounted for. Backfilling is always on, and a
//! pass examines at most 200 pending jobs (`BACKFILL_DEPTH`, SLURM's
//! `bf_max_job_test`).
//!
//! Because Curie users over-estimate walltimes by roughly four orders of
//! magnitude, the shadow time is hugely pessimistic and backfilling is far
//! less effective than it could be — an effect the paper observes
//! ("backfilling is not efficient because of wrong walltime estimations") and
//! that the replay reproduces.

use crate::time::SimTime;

/// Maximum number of pending jobs examined per scheduling pass (SLURM's
/// `bf_max_job_test`).
pub(crate) const BACKFILL_DEPTH: usize = 200;

/// The node reservation computed for a blocked head job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowReservation {
    /// Earliest time at which the head job is expected to have enough nodes.
    pub shadow_time: SimTime,
    /// Nodes that will remain free after the head job starts at
    /// `shadow_time` (the room available for long backfill jobs).
    pub spare_nodes: usize,
}

/// Compute the shadow reservation of a head job needing `needed` nodes, given
/// `free_now` currently free nodes and the walltime-based releases of running
/// jobs (`(walltime_end, node_count)`, in any order — the slice is sorted in
/// place, so callers with a reusable scratch buffer pay no allocation).
///
/// Returns `None` when the head job can already start (`free_now >= needed`)
/// or can never start (total nodes insufficient even after every release).
pub fn shadow_reservation(
    needed: usize,
    free_now: usize,
    releases: &mut [(SimTime, usize)],
    now: SimTime,
) -> Option<ShadowReservation> {
    if free_now >= needed {
        return None;
    }
    releases.sort_unstable();
    let mut free = free_now;
    for &(t, nodes) in releases.iter() {
        free += nodes;
        if free >= needed {
            return Some(ShadowReservation {
                shadow_time: t.max(now),
                spare_nodes: free - needed,
            });
        }
    }
    None
}

/// Can a backfill candidate needing `needed` nodes for `walltime` seconds
/// start at `now` without delaying the head job described by `shadow`?
pub fn can_backfill(
    needed: usize,
    walltime: SimTime,
    free_now: usize,
    now: SimTime,
    shadow: &ShadowReservation,
) -> bool {
    if needed > free_now {
        return false;
    }
    // Either the job is over before the head job needs its nodes…
    if now.saturating_add(walltime) <= shadow.shadow_time {
        return true;
    }
    // …or it only uses nodes the head job will not need.
    needed <= shadow.spare_nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_reservation_needed_when_enough_nodes() {
        assert_eq!(shadow_reservation(10, 10, &mut [(100, 5)], 0), None);
        assert_eq!(shadow_reservation(0, 0, &mut [], 0), None);
    }

    #[test]
    fn shadow_time_is_the_earliest_sufficient_release() {
        let mut releases = vec![(300, 4), (100, 2), (200, 3)];
        // Need 8, have 1: after t=100 -> 3, t=200 -> 6, t=300 -> 10 >= 8.
        let s = shadow_reservation(8, 1, &mut releases, 0).unwrap();
        assert_eq!(s.shadow_time, 300);
        assert_eq!(s.spare_nodes, 2);
        // Need 5: satisfied at t=200 with 6 free -> spare 1.
        let s = shadow_reservation(5, 1, &mut releases, 0).unwrap();
        assert_eq!(s.shadow_time, 200);
        assert_eq!(s.spare_nodes, 1);
    }

    #[test]
    fn impossible_head_job_has_no_shadow() {
        assert_eq!(shadow_reservation(100, 1, &mut [(10, 5)], 0), None);
    }

    #[test]
    fn shadow_time_never_precedes_now() {
        let s = shadow_reservation(3, 0, &mut [(50, 5)], 200).unwrap();
        assert_eq!(s.shadow_time, 200);
    }

    #[test]
    fn backfill_conditions() {
        let shadow = ShadowReservation {
            shadow_time: 1000,
            spare_nodes: 4,
        };
        // Short job finishing before the shadow time.
        assert!(can_backfill(10, 900, 20, 0, &shadow));
        // Too long, but small enough for the spare nodes.
        assert!(can_backfill(4, 10_000, 20, 0, &shadow));
        // Too long and too big.
        assert!(!can_backfill(5, 10_000, 20, 0, &shadow));
        // Not enough free nodes right now.
        assert!(!can_backfill(30, 10, 20, 0, &shadow));
        // Exactly ending at the shadow time is allowed (half-open semantics).
        assert!(can_backfill(10, 1000, 20, 0, &shadow));
        assert!(!can_backfill(10, 1001, 20, 0, &shadow));
    }

    #[test]
    fn default_config() {
        assert_eq!(BACKFILL_DEPTH, 200);
    }
}
