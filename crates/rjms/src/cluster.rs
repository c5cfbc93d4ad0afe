//! Platform description and dynamic cluster state.
//!
//! [`Platform`] is the static description of the machine (topology, node
//! power profile, frequency ladder, cores per node) — the information SLURM
//! reads from `slurm.conf` (`MaxWatts`, `IdleWatts`, `DownWatts`,
//! `CpuFreqXWatts`, node counts). [`Cluster`] is the dynamic state the
//! controller mutates: per-node allocation, power states and the resulting
//! instantaneous power and energy (via
//! [`ClusterPowerAccountant`]).

use apc_power::{
    ClusterPowerAccountant, Frequency, FrequencyLadder, Joules, NodePowerProfile, PowerState,
    Topology, Watts,
};

use crate::job::JobId;
use crate::mask::NodeMask;
use crate::node::{AllocationState, SimNode};
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
    /// Nodes currently available for scheduling (free, powered, undrained);
    /// kept in lockstep with every allocation/power transition.
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

    /// The availability bitmask (free, powered, undrained nodes).
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

    /// Enable power-sample recording on the underlying accountant.
    pub fn record_power_samples(&mut self, enabled: bool) {
        self.accountant.set_record_samples(enabled);
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

    /// Hypothetical cluster power if `nodes` were running a job at `freq`.
    pub fn power_if_busy(&self, nodes: &[usize], freq: Frequency) -> Watts {
        self.accountant.power_if(nodes, PowerState::Busy(freq))
    }

    /// Hypothetical cluster power if `nodes` were switched off.
    pub fn power_if_off(&self, nodes: &[usize]) -> Watts {
        self.accountant.power_if(nodes, PowerState::Off)
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
            self.allocate_one(job, id, freq, time);
        }
    }

    /// [`allocate`](Self::allocate) over a bitmask node set.
    pub fn allocate_mask(&mut self, job: JobId, nodes: &NodeMask, freq: Frequency, time: SimTime) {
        for id in nodes.iter() {
            self.allocate_one(job, id, freq, time);
        }
    }

    fn allocate_one(&mut self, job: JobId, id: usize, freq: Frequency, time: SimTime) {
        let node = &mut self.nodes[id];
        assert!(
            node.is_available(),
            "node {id} is not available for job {job}"
        );
        node.alloc = AllocationState::Allocated(job);
        self.available.remove(id);
        self.accountant.set_state(id, PowerState::Busy(freq), time);
    }

    /// Release the nodes of a finished job back to the idle pool. Nodes that
    /// are marked `drained` (earmarked by an active switch-off reservation)
    /// are powered off instead of returning to idle.
    pub fn release(&mut self, nodes: &[usize], time: SimTime) {
        for &id in nodes {
            self.release_one(id, time);
        }
    }

    /// [`release`](Self::release) over a bitmask node set.
    pub fn release_mask(&mut self, nodes: &NodeMask, time: SimTime) {
        for id in nodes.iter() {
            self.release_one(id, time);
        }
    }

    fn release_one(&mut self, id: usize, time: SimTime) {
        let node = &mut self.nodes[id];
        debug_assert!(node.is_allocated(), "releasing a non-allocated node {id}");
        if node.drained {
            node.alloc = AllocationState::PoweredOff;
            self.accountant.set_state(id, PowerState::Off, time);
        } else {
            node.alloc = AllocationState::Free;
            self.available.insert(id);
            self.accountant.set_state(id, PowerState::Idle, time);
        }
    }

    /// Power off a set of nodes (only free nodes actually change state;
    /// allocated nodes are marked drained and will power off on release).
    /// Returns the nodes that were powered off immediately.
    pub fn power_off(&mut self, nodes: &[usize], time: SimTime) -> Vec<usize> {
        let mut switched = Vec::new();
        for &id in nodes {
            let node = &mut self.nodes[id];
            match node.alloc {
                AllocationState::Free => {
                    if !node.drained {
                        self.available.remove(id);
                    }
                    node.alloc = AllocationState::PoweredOff;
                    node.drained = true;
                    self.accountant.set_state(id, PowerState::Off, time);
                    switched.push(id);
                }
                AllocationState::Allocated(_) => {
                    node.drained = true;
                }
                AllocationState::PoweredOff => {
                    node.drained = true;
                }
            }
        }
        switched
    }

    /// Drain nodes without powering them off (maintenance reservations):
    /// running jobs keep their nodes, but no new job may be placed there.
    pub fn drain(&mut self, nodes: &[usize]) {
        for &id in nodes {
            let node = &mut self.nodes[id];
            if !node.drained && node.alloc == AllocationState::Free {
                self.available.remove(id);
            }
            node.drained = true;
        }
    }

    /// Clear the drain mark of nodes that are still powered on.
    pub fn undrain(&mut self, nodes: &[usize]) {
        for &id in nodes {
            let node = &mut self.nodes[id];
            if node.drained && node.alloc == AllocationState::Free {
                self.available.insert(id);
            }
            if node.alloc != AllocationState::PoweredOff {
                node.drained = false;
            }
        }
    }

    /// Power a set of nodes back on (to idle) and clear their drain mark.
    pub fn power_on(&mut self, nodes: &[usize], time: SimTime) {
        for &id in nodes {
            let node = &mut self.nodes[id];
            node.drained = false;
            if node.alloc == AllocationState::PoweredOff {
                node.alloc = AllocationState::Free;
                self.available.insert(id);
                self.accountant.set_state(id, PowerState::Idle, time);
            }
        }
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
        assert_eq!(c.node(0).alloc, AllocationState::Allocated(7));
        let busy_power = c.current_power();
        c.release(&nodes, 100);
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
        let switched = c.power_off(&[0, 1, 2, 3], 10);
        // Only the free nodes switch immediately.
        assert_eq!(switched, vec![2, 3]);
        assert_eq!(c.powered_off_count(), 2);
        assert!(c.node(0).drained && c.node(1).drained);
        // Releasing the job's nodes now powers them off instead of idling.
        c.release(&[0, 1], 20);
        assert_eq!(c.powered_off_count(), 4);
        assert_eq!(c.free_count(), 86);
        // Power back on restores availability.
        c.power_on(&[0, 1, 2, 3], 30);
        assert_eq!(c.powered_off_count(), 0);
        assert_eq!(c.free_count(), 90);
        assert!(c.node(0).is_available());
    }

    #[test]
    fn power_if_busy_matches_committed_allocation() {
        let mut c = small_cluster();
        let nodes: Vec<usize> = (10..20).collect();
        let predicted = c.power_if_busy(&nodes, Frequency::from_ghz(2.0));
        c.allocate(3, &nodes, Frequency::from_ghz(2.0), 0);
        assert!(predicted.approx_eq(c.current_power(), 1e-6));
    }

    #[test]
    fn power_if_off_includes_bonus() {
        let c = small_cluster();
        let chassis: Vec<usize> = (0..18).collect();
        let predicted = c.power_if_off(&chassis);
        let drop = c.current_power() - predicted;
        // 18 idle nodes -> off: 18*(117-14) + 500 W completion bonus.
        assert!(drop.approx_eq(Watts(18.0 * 103.0 + 500.0), 1e-6));
    }

    #[test]
    fn drain_and_undrain() {
        let mut c = small_cluster();
        c.drain(&[0, 1]);
        assert_eq!(c.free_count(), 88);
        assert!(!c.node(0).is_available());
        assert_eq!(c.powered_off_count(), 0, "drained nodes stay powered");
        // Draining twice does not double-count.
        c.drain(&[0]);
        assert_eq!(c.free_count(), 88);
        c.undrain(&[0, 1]);
        assert_eq!(c.free_count(), 90);
        assert!(c.node(0).is_available());
        // Power-off after drain keeps the count consistent.
        c.drain(&[2]);
        c.power_off(&[2], 5);
        assert_eq!(c.free_count(), 89);
        assert_eq!(c.powered_off_count(), 1);
        // Undrain does not resurrect a powered-off node; power_on does.
        c.undrain(&[2]);
        assert_eq!(c.free_count(), 89);
        c.power_on(&[2], 10);
        assert_eq!(c.free_count(), 90);
    }

    #[test]
    fn free_count_tracks_all_transitions() {
        let mut c = small_cluster();
        c.allocate(1, &[5], Frequency::from_ghz(2.7), 0);
        c.power_off(&[6, 7], 0);
        assert_eq!(c.free_count(), 87);
        assert_eq!(
            c.free_count(),
            c.nodes().iter().filter(|n| n.is_available()).count()
        );
        c.release(&[5], 10);
        c.power_on(&[6, 7], 10);
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
        let mask: crate::mask::NodeMask = (0..4).collect();
        c.allocate_mask(3, &mask, Frequency::from_ghz(2.7), 0);
        check(&c);
        c.power_off(&[2, 10, 11], 5); // 2 is allocated: drained, not switched
        check(&c);
        c.drain(&[20, 21]);
        check(&c);
        c.release_mask(&mask, 10); // node 2 powers off instead of idling
        check(&c);
        assert_eq!(c.powered_off_count(), 3);
        c.undrain(&[20, 21]);
        c.power_on(&[2, 10, 11], 20);
        check(&c);
        assert_eq!(c.free_count(), 90);
        assert_eq!(c.available_nodes().count(), 90);
    }
}
