//! Hierarchical cluster topology with power-bonus levels.
//!
//! Section III-B of the paper defines power *levels*: groups of hardware that
//! can be switched off together (node → chassis → rack → cluster on Curie).
//! Each level above the node owns shared equipment — network switches, fans,
//! cold doors — that keeps drawing power as long as at least one node below it
//! is powered. Switching off *every* node of a group therefore yields a
//! "power bonus": the group's shared equipment can be powered off too, and the
//! residual BMC power of its nodes disappears.
//!
//! The Curie numbers (paper Fig. 2):
//!
//! | level | members | shared-equipment power | bonus when fully off |
//! |---|---|---|---|
//! | node | — | — | 358 − 14 = 344 W |
//! | chassis | 18 nodes | 248 W | 248 + 18·14 = 500 W |
//! | rack | 5 chassis | 900 W | 900 + 5·500 = 3 400 W |
//! | cluster | 56 racks | — | — |

use crate::profile::NodePowerProfile;
use crate::units::Watts;

/// Identifier of a compute node: a dense index in `0..topology.total_nodes()`.
pub type NodeId = usize;

/// One aggregation level above the node (chassis, rack, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyLevel {
    /// Human-readable name ("chassis", "rack", ...).
    pub name: String,
    /// How many groups of the level below form one group of this level
    /// (18 nodes per chassis, 5 chassis per rack, ...).
    pub arity: usize,
    /// Power drawn by the level's shared equipment while at least one node
    /// below it is powered on (switches, fans, cold door, ...).
    pub overhead: Watts,
}

impl TopologyLevel {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, arity: usize, overhead: Watts) -> Self {
        assert!(arity > 0, "a topology level must group at least one member");
        TopologyLevel {
            name: name.into(),
            arity,
            overhead,
        }
    }
}

/// A hierarchical cluster topology.
///
/// Nodes are numbered densely and packed level by level: node `i` belongs to
/// chassis `i / 18`, to rack `i / (18*5)` and so on. This matches how Curie
/// numbers its Bullx B chassis and how the paper groups contiguous nodes for
/// switch-off.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    levels: Vec<TopologyLevel>,
    total_nodes: usize,
    /// Cumulative group sizes expressed in nodes: `group_sizes[l]` is the
    /// number of nodes contained in one group of level `l`.
    group_sizes: Vec<usize>,
    /// When `true`, the residual standby (BMC) power of a switched-off node
    /// disappears once its level-0 group (chassis) is completely off — the
    /// behaviour encoded in the paper's Fig. 2 chassis bonus (248 + 18·14 W).
    standby_off_with_chassis: bool,
}

impl Topology {
    /// Build a topology from levels ordered bottom-up (first entry groups
    /// nodes, second groups first-level groups, ...).
    ///
    /// The total node count is the product of all arities.
    pub fn new(levels: Vec<TopologyLevel>) -> Self {
        assert!(!levels.is_empty(), "a topology needs at least one level");
        let mut group_sizes = Vec::with_capacity(levels.len());
        let mut size = 1usize;
        for level in &levels {
            size = size
                .checked_mul(level.arity)
                .expect("topology size overflows usize");
            group_sizes.push(size);
        }
        let total_nodes = size;
        Topology {
            levels,
            total_nodes,
            group_sizes,
            standby_off_with_chassis: false,
        }
    }

    /// Enable the Fig. 2 behaviour where a node's standby (BMC) power
    /// disappears once its chassis is completely switched off.
    pub fn with_standby_off_with_chassis(mut self, enabled: bool) -> Self {
        self.standby_off_with_chassis = enabled;
        self
    }

    /// Does a node's standby power disappear when its chassis is fully off?
    #[inline]
    pub fn standby_off_with_chassis(&self) -> bool {
        self.standby_off_with_chassis
    }

    /// A single flat level: `n` independent nodes with no shared equipment.
    pub fn flat(n: usize) -> Self {
        Topology::new(vec![TopologyLevel::new("cluster", n, Watts::ZERO)])
    }

    /// The Curie topology of the paper: 18-node chassis (248 W of shared
    /// equipment), 5-chassis racks (900 W), 56 racks — 5 040 nodes in total.
    pub fn curie() -> Self {
        Topology::new(vec![
            TopologyLevel::new("chassis", 18, Watts(248.0)),
            TopologyLevel::new("rack", 5, Watts(900.0)),
            TopologyLevel::new("cluster", 56, Watts::ZERO),
        ])
        .with_standby_off_with_chassis(true)
    }

    /// A scaled-down Curie-like topology useful for fast tests and Criterion
    /// benchmarks: same 18/5 grouping but only `racks` racks.
    pub fn curie_scaled(racks: usize) -> Self {
        Topology::new(vec![
            TopologyLevel::new("chassis", 18, Watts(248.0)),
            TopologyLevel::new("rack", 5, Watts(900.0)),
            TopologyLevel::new("cluster", racks.max(1), Watts::ZERO),
        ])
        .with_standby_off_with_chassis(true)
    }

    /// Total number of compute nodes.
    #[inline]
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// The aggregation levels, bottom-up.
    #[inline]
    pub fn levels(&self) -> &[TopologyLevel] {
        &self.levels
    }

    /// Number of levels above the node.
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of nodes contained in one group of level `level`.
    #[inline]
    pub fn nodes_per_group(&self, level: usize) -> usize {
        self.group_sizes[level]
    }

    /// Number of groups at `level` in the whole cluster.
    #[inline]
    pub fn group_count(&self, level: usize) -> usize {
        self.total_nodes / self.group_sizes[level]
    }

    /// The group of `level` that `node` belongs to.
    #[inline]
    pub fn group_of(&self, level: usize, node: NodeId) -> usize {
        debug_assert!(node < self.total_nodes);
        node / self.group_sizes[level]
    }

    /// The nodes contained in group `group` of level `level`.
    pub fn nodes_of_group(&self, level: usize, group: usize) -> std::ops::Range<NodeId> {
        let size = self.group_sizes[level];
        let start = group * size;
        let end = (start + size).min(self.total_nodes);
        start..end
    }

    /// Index of the level named `name`, if any.
    pub fn level_index(&self, name: &str) -> Option<usize> {
        self.levels.iter().position(|l| l.name == name)
    }

    /// Chassis index of a node on a Curie-like topology (level 0).
    #[inline]
    pub fn chassis_of(&self, node: NodeId) -> usize {
        self.group_of(0, node)
    }

    /// The nodes of a chassis on a Curie-like topology (level 0).
    pub fn nodes_of_chassis(&self, chassis: usize) -> std::ops::Range<NodeId> {
        self.nodes_of_group(0, chassis)
    }

    /// Shared-equipment power of the whole cluster when every group is
    /// powered (all chassis and rack equipment on).
    pub fn total_overhead(&self) -> Watts {
        self.levels
            .iter()
            .enumerate()
            .map(|(l, level)| level.overhead * self.group_count(l) as f64)
            .sum()
    }

    /// Maximum power of the cluster: every node busy at maximum frequency
    /// plus all shared equipment. This is the 100 % reference the powercap
    /// percentages of the paper's evaluation are taken from.
    pub fn max_cluster_power(&self, profile: &NodePowerProfile) -> Watts {
        profile.max_watts() * self.total_nodes as f64 + self.total_overhead()
    }

    /// Minimum power of the cluster with every node powered off but the
    /// shared equipment still on (the controller never powers chassis
    /// equipment off unless the whole group is off, which
    /// [`ClusterPowerAccountant`](crate::accounting::ClusterPowerAccountant)
    /// handles dynamically).
    pub fn min_cluster_power_all_off(&self, profile: &NodePowerProfile) -> Watts {
        profile.off_watts() * self.total_nodes as f64
    }

    /// The *power bonus* of one group at `level` (paper Fig. 2): the extra
    /// power recovered when the entire group is switched off, beyond the
    /// per-node `max − off` savings. It is the group's own shared-equipment
    /// power, plus the residual off-power of its nodes (when
    /// [`standby_off_with_chassis`](Topology::standby_off_with_chassis) is
    /// set), plus the bonus of the levels below it (which also shut down
    /// completely).
    pub fn group_bonus(&self, level: usize, profile: &NodePowerProfile) -> Watts {
        let nodes = self.group_sizes[level] as f64;
        // Shared equipment of this level and of every level strictly below.
        let mut shared = self.levels[level].overhead;
        for l in 0..level {
            let groups_below = self.group_sizes[level] / self.group_sizes[l];
            shared += self.levels[l].overhead * groups_below as f64;
        }
        if self.standby_off_with_chassis {
            shared + profile.off_watts() * nodes
        } else {
            shared
        }
    }

    /// The *incremental* power recovered at the instant a group of `level`
    /// becomes completely switched off, assuming every smaller group it
    /// contains already got its own completion credit: the level's own shared
    /// equipment, plus — for the chassis level only — the standby power of
    /// its nodes.
    pub fn group_completion_bonus(&self, level: usize, profile: &NodePowerProfile) -> Watts {
        let mut bonus = self.levels[level].overhead;
        if level == 0 && self.standby_off_with_chassis {
            bonus += profile.off_watts() * self.group_sizes[0] as f64;
        }
        bonus
    }

    /// The accumulated power recovered by switching an entire group off
    /// (paper Fig. 2 right column): per-node savings plus every bonus.
    pub fn group_accumulated_saving(&self, level: usize, profile: &NodePowerProfile) -> Watts {
        let nodes = self.group_sizes[level] as f64;
        profile.shutdown_saving() * nodes + self.group_bonus(level, profile)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::curie()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curie_dimensions() {
        let t = Topology::curie();
        assert_eq!(t.total_nodes(), 5040);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.nodes_per_group(0), 18); // chassis
        assert_eq!(t.nodes_per_group(1), 90); // rack
        assert_eq!(t.nodes_per_group(2), 5040); // cluster
        assert_eq!(t.group_count(0), 280);
        assert_eq!(t.group_count(1), 56);
        assert_eq!(t.group_count(2), 1);
    }

    #[test]
    fn group_membership() {
        let t = Topology::curie();
        assert_eq!(t.chassis_of(0), 0);
        assert_eq!(t.chassis_of(17), 0);
        assert_eq!(t.chassis_of(18), 1);
        assert_eq!(t.group_of(1, 89), 0);
        assert_eq!(t.group_of(1, 90), 1);
        assert_eq!(t.nodes_of_chassis(1), 18..36);
        assert_eq!(t.nodes_of_group(1, 55), 4950..5040);
    }

    #[test]
    fn fig2_power_bonus_values() {
        let t = Topology::curie();
        let p = NodePowerProfile::curie();
        // Node-level saving: 358 - 14 = 344 W.
        assert_eq!(p.shutdown_saving(), Watts(344.0));
        // Chassis bonus: 248 + 18*14 = 500 W.
        assert!(t.group_bonus(0, &p).approx_eq(Watts(500.0), 1e-9));
        // Rack bonus: 900 + 5*500 = 3400 W.
        assert!(t.group_bonus(1, &p).approx_eq(Watts(3400.0), 1e-9));
        // Chassis accumulated: 344*18 + 500 = 6692 W.
        assert!(t
            .group_accumulated_saving(0, &p)
            .approx_eq(Watts(6692.0), 1e-9));
        // Rack accumulated: 6692*5 + 900 = 34360 W.
        assert!(t
            .group_accumulated_saving(1, &p)
            .approx_eq(Watts(34360.0), 1e-9));
    }

    #[test]
    fn completion_bonus_is_incremental() {
        let t = Topology::curie();
        let p = NodePowerProfile::curie();
        // Chassis completion: 248 + 18*14 = 500 W.
        assert!(t
            .group_completion_bonus(0, &p)
            .approx_eq(Watts(500.0), 1e-9));
        // Rack completion adds only the rack's own equipment: 900 W.
        assert!(t
            .group_completion_bonus(1, &p)
            .approx_eq(Watts(900.0), 1e-9));
        // Summing per-node savings + incremental bonuses reproduces the
        // accumulated column of Fig. 2.
        let rack_total = p.shutdown_saving() * 90.0
            + t.group_completion_bonus(0, &p) * 5.0
            + t.group_completion_bonus(1, &p);
        assert!(rack_total.approx_eq(Watts(34_360.0), 1e-9));
        // Without the standby elimination flag the chassis bonus is only the
        // shared equipment.
        let t2 = Topology::curie().with_standby_off_with_chassis(false);
        assert!(t2
            .group_completion_bonus(0, &p)
            .approx_eq(Watts(248.0), 1e-9));
        assert!(t2.group_bonus(0, &p).approx_eq(Watts(248.0), 1e-9));
    }

    #[test]
    fn chassis_example_from_paper() {
        // Paper Section VI-A: a 6 600 W reduction needs 20 scattered nodes
        // (6 880 W) but only 18 grouped nodes of one chassis (6 692 W).
        let t = Topology::curie();
        let p = NodePowerProfile::curie();
        let scattered_20 = p.shutdown_saving() * 20.0;
        assert!(scattered_20.approx_eq(Watts(6880.0), 1e-9));
        let one_chassis = t.group_accumulated_saving(0, &p);
        assert!(one_chassis.as_watts() >= 6600.0);
        assert!(one_chassis.as_watts() < scattered_20.as_watts());
    }

    #[test]
    fn overhead_and_max_power() {
        let t = Topology::curie();
        let p = NodePowerProfile::curie();
        let overhead = t.total_overhead();
        // 280 chassis * 248 W + 56 racks * 900 W.
        assert!(overhead.approx_eq(Watts(280.0 * 248.0 + 56.0 * 900.0), 1e-6));
        let max = t.max_cluster_power(&p);
        assert!(max.approx_eq(Watts(5040.0 * 358.0) + overhead, 1e-6));
        let min = t.min_cluster_power_all_off(&p);
        assert!(min.approx_eq(Watts(5040.0 * 14.0), 1e-6));
    }

    #[test]
    fn flat_topology() {
        let t = Topology::flat(100);
        assert_eq!(t.total_nodes(), 100);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.total_overhead(), Watts::ZERO);
        assert_eq!(t.group_of(0, 57), 0);
        assert_eq!(t.nodes_of_group(0, 0), 0..100);
    }

    #[test]
    fn scaled_topology() {
        let t = Topology::curie_scaled(2);
        assert_eq!(t.total_nodes(), 180);
        assert_eq!(t.group_count(0), 10);
        assert_eq!(t.group_count(1), 2);
        // Bonus structure identical to full Curie.
        let p = NodePowerProfile::curie();
        assert!(t.group_bonus(0, &p).approx_eq(Watts(500.0), 1e-9));
        assert!(t.group_bonus(1, &p).approx_eq(Watts(3400.0), 1e-9));
    }

    #[test]
    fn level_lookup_by_name() {
        let t = Topology::curie();
        assert_eq!(t.level_index("chassis"), Some(0));
        assert_eq!(t.level_index("rack"), Some(1));
        assert_eq!(t.level_index("cluster"), Some(2));
        assert_eq!(t.level_index("drawer"), None);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_topology_panics() {
        let _ = Topology::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_arity_panics() {
        let _ = TopologyLevel::new("chassis", 0, Watts::ZERO);
    }
}
