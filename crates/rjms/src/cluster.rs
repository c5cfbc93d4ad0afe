//! Platform description and dynamic cluster state.
//!
//! [`Platform`] is the static description of the machine (topology, node
//! power profile, frequency ladder, cores per node) — the information SLURM
//! reads from `slurm.conf` (`MaxWatts`, `IdleWatts`, `DownWatts`,
//! `CpuFreqXWatts`, node counts). [`Cluster`] is the dynamic state the
//! controller mutates: per-node jobs and holds, power states and the
//! resulting instantaneous power and energy (via
//! [`ClusterPowerAccountant`]).

use apc_power::{
    ClusterPowerAccountant, Frequency, FrequencyLadder, Joules, NodePowerProfile, PowerState,
    Topology, Watts,
};

use crate::job::JobId;
use crate::mask::NodeMask;
use crate::node::SimNode;
use crate::time::SimTime;

/// Static description of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Hierarchical topology (nodes, chassis, racks).
    pub topology: Topology,
    /// Per-node power profile.
    pub profile: NodePowerProfile,
    /// DVFS ladder available on the nodes.
    pub ladder: FrequencyLadder,
    /// Cores per node (16 on Curie: two 8-core Sandy Bridge sockets).
    pub cores_per_node: u32,
}

impl Platform {
    /// The full Curie platform of the paper: 5 040 nodes, 80 640 cores.
    pub fn curie() -> Self {
        Platform {
            topology: Topology::curie(),
            profile: NodePowerProfile::curie(),
            ladder: FrequencyLadder::curie(),
            cores_per_node: 16,
        }
    }

    /// A Curie-like platform scaled down to `racks` racks (90 nodes per
    /// rack), keeping the same chassis/rack structure, power profile and
    /// frequency ladder. Used by tests, examples and `perf-baseline`.
    pub fn curie_scaled(racks: usize) -> Self {
        Platform {
            topology: Topology::curie_scaled(racks),
            profile: NodePowerProfile::curie(),
            ladder: FrequencyLadder::curie(),
            cores_per_node: 16,
        }
    }

    /// Number of compute nodes.
    pub fn total_nodes(&self) -> usize {
        self.topology.total_nodes()
    }

    /// Number of cores in the machine.
    pub fn total_cores(&self) -> u64 {
        self.total_nodes() as u64 * self.cores_per_node as u64
    }

    /// Maximum cluster power: every node busy at top frequency plus all
    /// shared equipment. This is the "100 %" reference of the powercap
    /// percentages in the paper's evaluation.
    pub fn max_power(&self) -> Watts {
        self.topology.max_cluster_power(&self.profile)
    }

    /// The power corresponding to a fraction of the maximum power.
    pub fn power_fraction(&self, fraction: f64) -> Watts {
        self.max_power() * fraction
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::curie()
    }
}

/// Dynamic cluster state: node allocation + power accounting.
///
/// Availability is tracked twice, deliberately: per node (the
/// [`SimNode`] records, for inspection and power transitions) and as an
/// incrementally maintained [`NodeMask`] (the scheduling hot path — node
/// selection and blocked-set counting never scan the node table).
#[derive(Debug, Clone)]
pub struct Cluster {
    platform: Platform,
    nodes: Vec<SimNode>,
    accountant: ClusterPowerAccountant,
    /// Nodes currently available for scheduling (no job, no hold); kept in
    /// lockstep with every allocation and hold transition.
    available: NodeMask,
}

impl Cluster {
    /// Create a cluster with every node free and idle.
    pub fn new(platform: Platform) -> Self {
        let n = platform.total_nodes();
        let nodes = (0..n).map(SimNode::new).collect();
        let accountant = ClusterPowerAccountant::new(&platform.topology, &platform.profile);
        Cluster {
            platform,
            nodes,
            accountant,
            available: NodeMask::full(n),
        }
    }

    /// The static platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Total number of nodes.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes currently available for scheduling.
    pub fn free_count(&self) -> usize {
        self.available.len()
    }

    /// The availability bitmask (nodes with no job and no hold).
    pub fn available_mask(&self) -> &NodeMask {
        &self.available
    }

    /// The node records.
    pub fn nodes(&self) -> &[SimNode] {
        &self.nodes
    }

    /// One node record.
    pub fn node(&self, id: usize) -> &SimNode {
        &self.nodes[id]
    }

    /// The power accountant (read access for hooks and metrics).
    pub fn accountant(&self) -> &ClusterPowerAccountant {
        &self.accountant
    }

    /// Instantaneous cluster power.
    pub fn current_power(&self) -> Watts {
        self.accountant.current_power()
    }

    /// Total energy consumed so far (up to the last state change or
    /// [`advance_time`](Cluster::advance_time) call).
    pub fn energy(&self) -> Joules {
        self.accountant.energy()
    }

    /// Advance the energy integration clock without changing any state.
    pub fn advance_time(&mut self, time: SimTime) {
        self.accountant.advance_time(time);
    }

    /// Iterate over the ids of nodes currently available for scheduling.
    pub fn available_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.available.iter()
    }

    /// Mark `nodes` as allocated to `job` running at `freq` starting at
    /// `time`.
    ///
    /// # Panics
    /// Panics if any of the nodes is not available (programming error in the
    /// scheduler).
    pub fn allocate(&mut self, job: JobId, nodes: &[usize], freq: Frequency, time: SimTime) {
        for &id in nodes {
            let node = &mut self.nodes[id];
            assert!(
                node.is_available(),
                "node {id} is not available for job {job}"
            );
            node.job = Some(job);
            self.available.remove(id);
            self.accountant.set_state(id, PowerState::Busy(freq), time);
        }
    }

    /// Release the nodes of a finished job: a held node powers off, the
    /// others return to the idle pool. Returns the nodes powered off.
    pub fn release_mask(&mut self, nodes: &NodeMask, time: SimTime) -> Vec<usize> {
        let mut switched = Vec::new();
        for id in nodes.iter() {
            let node = &mut self.nodes[id];
            debug_assert!(node.is_allocated(), "releasing a non-allocated node {id}");
            node.job = None;
            if node.holds > 0 {
                self.accountant.set_state(id, PowerState::Off, time);
                switched.push(id);
            } else {
                self.available.insert(id);
                self.accountant.set_state(id, PowerState::Idle, time);
            }
        }
        switched
    }

    /// Place one hold on each of `nodes` (a switch-off reservation starting,
    /// an outage). A free node powers off with its first hold; a busy one
    /// powers off when its job releases it. Returns the nodes powered off
    /// now.
    pub fn hold_off(&mut self, nodes: &[usize], time: SimTime) -> Vec<usize> {
        let mut switched = Vec::new();
        for &id in nodes {
            let node = &mut self.nodes[id];
            node.holds += 1;
            if node.holds == 1 && node.job.is_none() {
                self.available.remove(id);
                self.accountant.set_state(id, PowerState::Off, time);
                switched.push(id);
            }
        }
        switched
    }

    /// Take one hold off each of `nodes` (a switch-off reservation ending, a
    /// recovery). A node whose last hold goes powers back on to idle, unless
    /// it still runs its job. Returns the nodes powered on now.
    ///
    /// # Panics
    /// Panics if a node has no hold to release (programming error in the
    /// controller).
    pub fn release_hold(&mut self, nodes: &[usize], time: SimTime) -> Vec<usize> {
        let mut switched = Vec::new();
        for &id in nodes {
            let node = &mut self.nodes[id];
            node.holds = node
                .holds
                .checked_sub(1)
                .unwrap_or_else(|| panic!("node {id} has no hold to release"));
            if node.holds == 0 && node.job.is_none() {
                self.available.insert(id);
                self.accountant.set_state(id, PowerState::Idle, time);
                switched.push(id);
            }
        }
        switched
    }

    /// Number of cores currently allocated to running jobs.
    pub fn allocated_cores(&self) -> u64 {
        self.nodes.iter().filter(|n| n.is_allocated()).count() as u64
            * self.platform.cores_per_node as u64
    }

    /// Number of nodes currently powered off.
    pub fn powered_off_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_off()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        Cluster::new(Platform::curie_scaled(1))
    }

    #[test]
    fn platform_dimensions() {
        let p = Platform::curie();
        assert_eq!(p.total_nodes(), 5040);
        assert_eq!(p.total_cores(), 80_640);
        assert_eq!(p.cores_per_node, 16);
        let scaled = Platform::curie_scaled(2);
        assert_eq!(scaled.total_nodes(), 180);
        // Max power includes shared equipment.
        assert!(p.max_power().as_watts() > 5040.0 * 358.0);
        assert!(p.power_fraction(0.5).approx_eq(p.max_power() * 0.5, 1e-6));
    }

    #[test]
    fn new_cluster_all_free_and_idle() {
        let c = small_cluster();
        assert_eq!(c.total_nodes(), 90);
        assert_eq!(c.free_count(), 90);
        assert_eq!(c.allocated_cores(), 0);
        assert_eq!(c.powered_off_count(), 0);
        assert_eq!(c.available_nodes().count(), 90);
        let expected = Watts(90.0 * 117.0) + c.platform().topology.total_overhead();
        assert!(c.current_power().approx_eq(expected, 1e-6));
    }

    #[test]
    fn allocate_and_release_cycle() {
        let mut c = small_cluster();
        let nodes: Vec<usize> = (0..4).collect();
        c.allocate(7, &nodes, Frequency::from_ghz(2.7), 10);
        assert_eq!(c.free_count(), 86);
        assert_eq!(c.allocated_cores(), 64);
        assert_eq!(c.node(0).job, Some(7));
        let busy_power = c.current_power();
        c.release_mask(&nodes.iter().copied().collect(), 100);
        assert_eq!(c.free_count(), 90);
        assert_eq!(c.allocated_cores(), 0);
        assert!(c.current_power() < busy_power);
        // Energy accumulated over the 90 s of execution plus the first 10 s.
        assert!(c.energy().as_joules() > 0.0);
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn allocating_a_busy_node_panics() {
        let mut c = small_cluster();
        c.allocate(1, &[0], Frequency::from_ghz(2.7), 0);
        c.allocate(2, &[0], Frequency::from_ghz(2.7), 0);
    }

    #[test]
    fn power_off_free_and_busy_nodes() {
        let mut c = small_cluster();
        c.allocate(1, &[0, 1], Frequency::from_ghz(2.7), 0);
        let switched = c.hold_off(&[0, 1, 2, 3], 10);
        // Only the free nodes switch immediately.
        assert_eq!(switched, vec![2, 3]);
        assert_eq!(c.powered_off_count(), 2);
        assert!(c.node(0).holds == 1 && c.node(1).holds == 1);
        // Releasing the job's nodes now powers them off instead of idling.
        let released = c.release_mask(&[0, 1].into_iter().collect(), 20);
        assert_eq!(released, vec![0, 1]);
        assert_eq!(c.powered_off_count(), 4);
        assert_eq!(c.free_count(), 86);
        // Releasing the holds restores availability.
        assert_eq!(c.release_hold(&[0, 1, 2, 3], 30), vec![0, 1, 2, 3]);
        assert_eq!(c.powered_off_count(), 0);
        assert_eq!(c.free_count(), 90);
        assert!(c.node(0).is_available());
    }

    #[test]
    fn power_if_busy_matches_committed_allocation() {
        let mut c = small_cluster();
        let nodes: Vec<usize> = (10..20).collect();
        let predicted = c
            .accountant()
            .power_if(&nodes, PowerState::Busy(Frequency::from_ghz(2.0)));
        c.allocate(3, &nodes, Frequency::from_ghz(2.0), 0);
        assert!(predicted.approx_eq(c.current_power(), 1e-6));
    }

    #[test]
    fn power_if_off_includes_bonus() {
        let c = small_cluster();
        let chassis: Vec<usize> = (0..18).collect();
        let predicted = c.accountant().power_if(&chassis, PowerState::Off);
        let drop = c.current_power() - predicted;
        // 18 idle nodes -> off: 18*(117-14) + 500 W completion bonus.
        assert!(drop.approx_eq(Watts(18.0 * 103.0 + 500.0), 1e-6));
    }

    /// Two reasons to be off overlap on node 0: the first release leaves it
    /// off, the second powers it on.
    #[test]
    fn a_node_held_twice_stays_off_after_one_release() {
        let mut c = small_cluster();
        assert_eq!(c.hold_off(&[0], 10), vec![0]);
        assert!(
            c.hold_off(&[0], 20).is_empty(),
            "a second hold switches nothing"
        );
        assert!(c.release_hold(&[0], 30).is_empty());
        assert!(c.node(0).is_off() && !c.node(0).is_available());
        assert_eq!(c.free_count(), 89);
        assert_eq!(c.release_hold(&[0], 40), vec![0]);
        assert!(c.node(0).is_available());
        assert_eq!(c.accountant().state(0), PowerState::Idle);
        assert_eq!(c.free_count(), 90);
    }

    #[test]
    fn free_count_tracks_all_transitions() {
        let mut c = small_cluster();
        c.allocate(1, &[5], Frequency::from_ghz(2.7), 0);
        c.hold_off(&[6, 7], 0);
        assert_eq!(c.free_count(), 87);
        assert_eq!(
            c.free_count(),
            c.nodes().iter().filter(|n| n.is_available()).count()
        );
        c.release_mask(&[5].into_iter().collect(), 10);
        c.release_hold(&[6, 7], 10);
        assert_eq!(c.free_count(), 90);
    }

    /// The incrementally maintained availability mask must agree with the
    /// per-node records after every kind of transition.
    #[test]
    fn availability_mask_stays_in_lockstep_with_node_records() {
        let mut c = small_cluster();
        let check = |c: &Cluster| {
            for n in c.nodes() {
                assert_eq!(
                    c.available_mask().contains(n.id),
                    n.is_available(),
                    "mask and node record disagree on node {}",
                    n.id
                );
            }
            assert_eq!(c.available_mask().len(), c.free_count());
        };
        check(&c);
        let mask: NodeMask = (0..4).collect();
        c.allocate(3, &[0, 1, 2, 3], Frequency::from_ghz(2.7), 0);
        check(&c);
        c.hold_off(&[2, 10, 11], 5); // 2 is allocated: held, not switched
        check(&c);
        c.hold_off(&[11, 20, 21], 6); // 11 is held twice
        check(&c);
        c.release_mask(&mask, 10); // node 2 powers off instead of idling
        check(&c);
        assert_eq!(c.powered_off_count(), 5);
        c.release_hold(&[11, 20, 21], 15);
        check(&c);
        c.release_hold(&[2, 10, 11], 20);
        check(&c);
        assert_eq!(c.free_count(), 90);
        assert_eq!(c.available_nodes().count(), 90);
    }
}
