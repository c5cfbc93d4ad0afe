//! Grouped switch-off planning to harvest the power bonus.
//!
//! "In order to take advantage of the power bonus and keep more nodes
//! powered-on, we need to prepare an efficient grouping of nodes to
//! switch-off. Hence that is why the choice of which nodes will be switched
//! off takes place during the offline part of the algorithm."
//! (paper Section VI-A.)
//!
//! The [`GroupedShutdownPlanner`] selects which nodes to power down so that a
//! requested power reduction is reached while keeping as many nodes powered
//! as possible: it prefers complete racks, then complete chassis (each
//! complete group unlocks its bonus), then pads with individual nodes —
//! preferring nodes that complete an already-touched chassis.

use crate::profile::NodePowerProfile;
use crate::topology::{NodeId, Topology};
use crate::units::Watts;
use std::collections::BTreeSet;

/// How nodes are grouped when planning a shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingStrategy {
    /// Prefer complete top-level groups (racks), then chassis, then single
    /// nodes — the paper's strategy.
    #[default]
    Grouped,
    /// Ignore the hierarchy and pick individual nodes in index order. Used as
    /// the ablation baseline quantifying the value of the power bonus.
    Scattered,
}

impl GroupingStrategy {
    /// Stable lower-case name, used in CLI flags and result tables.
    pub fn name(self) -> &'static str {
        match self {
            GroupingStrategy::Grouped => "grouped",
            GroupingStrategy::Scattered => "scattered",
        }
    }
}

impl std::fmt::Display for GroupingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for GroupingStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "grouped" => Ok(GroupingStrategy::Grouped),
            "scattered" => Ok(GroupingStrategy::Scattered),
            other => Err(format!(
                "unknown grouping strategy: {other} (valid: grouped, scattered)"
            )),
        }
    }
}

/// The outcome of planning a shutdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutdownPlan {
    /// Nodes selected for switch-off, ascending.
    pub nodes: Vec<NodeId>,
    /// Power recovered by the plan, bonuses included, assuming the selected
    /// nodes would otherwise run at maximum frequency.
    pub recovered: Watts,
    /// The reduction that was requested.
    pub requested: Watts,
    /// Complete groups (level, group index) switched off by the plan.
    pub complete_groups: Vec<(usize, usize)>,
}

impl ShutdownPlan {
    /// Does the plan meet the requested reduction?
    pub fn satisfied(&self) -> bool {
        self.recovered.as_watts() + 1e-9 >= self.requested.as_watts()
    }

    /// Number of nodes switched off.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The bonus part of the recovered power (anything beyond the plain
    /// per-node `max − off` savings).
    pub fn bonus(&self, profile: &NodePowerProfile) -> Watts {
        (self.recovered - profile.shutdown_saving() * self.nodes.len() as f64).max_zero()
    }
}

/// Planner that selects nodes to switch off for a requested power reduction.
#[derive(Debug, Clone)]
pub struct GroupedShutdownPlanner {
    topology: Topology,
    profile: NodePowerProfile,
    strategy: GroupingStrategy,
}

impl GroupedShutdownPlanner {
    /// Create a planner for the given topology and power profile.
    pub fn new(topology: &Topology, profile: &NodePowerProfile) -> Self {
        GroupedShutdownPlanner {
            topology: topology.clone(),
            profile: profile.clone(),
            strategy: GroupingStrategy::default(),
        }
    }

    /// Select the grouping strategy (builder style).
    pub fn with_strategy(mut self, strategy: GroupingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The strategy in use.
    pub fn strategy(&self) -> GroupingStrategy {
        self.strategy
    }

    /// The topology the planner operates on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Plan a shutdown recovering at least `reduction` watts using only the
    /// nodes in `candidates` (typically the nodes that can be freed during
    /// the powercap window). Returns the plan even when the candidates are
    /// insufficient; check [`ShutdownPlan::satisfied`].
    pub fn plan(&self, reduction: Watts, candidates: &BTreeSet<NodeId>) -> ShutdownPlan {
        match self.strategy {
            GroupingStrategy::Grouped => self.plan_grouped(reduction, candidates),
            GroupingStrategy::Scattered => self.plan_scattered(reduction, candidates),
        }
    }

    /// Plan using every node of the cluster as a candidate.
    pub fn plan_unrestricted(&self, reduction: Watts) -> ShutdownPlan {
        let all: BTreeSet<NodeId> = (0..self.topology.total_nodes()).collect();
        self.plan(reduction, &all)
    }

    fn plan_scattered(&self, reduction: Watts, candidates: &BTreeSet<NodeId>) -> ShutdownPlan {
        let per_node = self.profile.shutdown_saving();
        let mut nodes = Vec::new();
        let mut recovered = Watts::ZERO;
        // Round-robin across chassis so the selection is genuinely scattered
        // (position within the chassis first, then chassis index).
        let mut ordered: Vec<NodeId> = candidates.iter().copied().collect();
        ordered.sort_by_key(|&n| {
            let chassis_size = self.topology.nodes_per_group(0);
            (n % chassis_size, n / chassis_size)
        });
        for n in ordered {
            if recovered.as_watts() + 1e-9 >= reduction.as_watts() {
                break;
            }
            nodes.push(n);
            recovered += per_node;
        }
        nodes.sort_unstable();
        // Scattered selection may still complete groups by accident; credit
        // the corresponding bonuses so the comparison against the grouped
        // strategy stays fair.
        let complete_groups = self.complete_groups_of(&nodes);
        for &(level, _) in &complete_groups {
            recovered += self.topology.group_completion_bonus(level, &self.profile);
        }
        ShutdownPlan {
            nodes,
            recovered,
            requested: reduction,
            complete_groups,
        }
    }

    fn plan_grouped(&self, reduction: Watts, candidates: &BTreeSet<NodeId>) -> ShutdownPlan {
        let per_node = self.profile.shutdown_saving();
        let mut selected: BTreeSet<NodeId> = BTreeSet::new();
        let mut recovered = Watts::ZERO;
        let mut complete_groups: Vec<(usize, usize)> = Vec::new();

        // Walk levels top-down (largest groups first). A complete group is
        // only taken when the remaining need could not be covered with fewer
        // individual nodes, so capacity is never sacrificed for bonus alone.
        let top = self.topology.depth().saturating_sub(1);
        for level in (0..top).rev() {
            let group_nodes = self.topology.nodes_per_group(level);
            let accumulated = self.topology.group_accumulated_saving(level, &self.profile);
            for group in 0..self.topology.group_count(level) {
                let remaining = (reduction - recovered).max_zero();
                if remaining == Watts::ZERO {
                    break;
                }
                let plain_nodes_needed =
                    (remaining.as_watts() / per_node.as_watts()).ceil() as usize;
                if plain_nodes_needed < group_nodes {
                    // Individual nodes (or smaller groups) are cheaper.
                    break;
                }
                let members: Vec<NodeId> = self.topology.nodes_of_group(level, group).collect();
                let all_available = members
                    .iter()
                    .all(|n| candidates.contains(n) && !selected.contains(n));
                if !all_available {
                    continue;
                }
                for &n in &members {
                    selected.insert(n);
                }
                recovered += accumulated;
                complete_groups.push((level, group));
                // Every smaller group inside this one is complete as well.
                for sub in 0..level {
                    let start = self.topology.group_of(sub, members[0]);
                    let count = group_nodes / self.topology.nodes_per_group(sub);
                    for g in start..start + count {
                        complete_groups.push((sub, g));
                    }
                }
            }
        }

        // Pad with individual nodes, preferring to complete partially-selected
        // chassis (cheapest path to additional bonus).
        if recovered.as_watts() + 1e-9 < reduction.as_watts() {
            let mut remaining_nodes: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|n| !selected.contains(n))
                .collect();
            remaining_nodes.sort_by_key(|&n| {
                let chassis = self.topology.group_of(0, n);
                let has_selected = self
                    .topology
                    .nodes_of_group(0, chassis)
                    .any(|m| selected.contains(&m));
                (!has_selected, n)
            });
            for n in remaining_nodes {
                if recovered.as_watts() + 1e-9 >= reduction.as_watts() {
                    break;
                }
                selected.insert(n);
                recovered += per_node;
                // Did this node complete its chassis or a higher group?
                for level in 0..top {
                    let g = self.topology.group_of(level, n);
                    let complete = self
                        .topology
                        .nodes_of_group(level, g)
                        .all(|m| selected.contains(&m));
                    if complete && !complete_groups.contains(&(level, g)) {
                        recovered += self.topology.group_completion_bonus(level, &self.profile);
                        complete_groups.push((level, g));
                    }
                }
            }
        }

        complete_groups.sort_unstable();
        complete_groups.dedup();
        ShutdownPlan {
            nodes: selected.into_iter().collect(),
            recovered,
            requested: reduction,
            complete_groups,
        }
    }

    fn complete_groups_of(&self, nodes: &[NodeId]) -> Vec<(usize, usize)> {
        let selected: BTreeSet<NodeId> = nodes.iter().copied().collect();
        let mut out = Vec::new();
        let top = self.topology.depth().saturating_sub(1);
        for level in 0..top {
            for group in 0..self.topology.group_count(level) {
                let members = self.topology.nodes_of_group(level, group);
                let mut any = false;
                let mut all = true;
                for m in members {
                    if selected.contains(&m) {
                        any = true;
                    } else {
                        all = false;
                    }
                }
                if any && all {
                    out.push((level, group));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> GroupedShutdownPlanner {
        GroupedShutdownPlanner::new(&Topology::curie_scaled(2), &NodePowerProfile::curie())
    }

    fn all_candidates(p: &GroupedShutdownPlanner) -> BTreeSet<NodeId> {
        (0..p.topology().total_nodes()).collect()
    }

    #[test]
    fn paper_example_6600_watts() {
        // Section VI-A: a 6 600 W reduction costs 20 scattered nodes but only
        // 18 grouped nodes (one chassis, 6 692 W recovered).
        let p = planner();
        let req = Watts(6600.0);
        let grouped = p.plan(req, &all_candidates(&p));
        assert!(grouped.satisfied());
        assert_eq!(grouped.node_count(), 18);
        assert!(grouped.recovered.approx_eq(Watts(6692.0), 1e-6));
        assert_eq!(grouped.complete_groups, vec![(0, 0)]);

        let scattered = p
            .clone()
            .with_strategy(GroupingStrategy::Scattered)
            .plan(req, &all_candidates(&p));
        assert!(scattered.satisfied());
        assert_eq!(scattered.node_count(), 20);
        assert!(scattered.recovered.approx_eq(Watts(6880.0), 1e-6));
    }

    #[test]
    fn grouped_never_uses_more_nodes_than_scattered() {
        let p = planner();
        let scattered_planner = p.clone().with_strategy(GroupingStrategy::Scattered);
        let candidates = all_candidates(&p);
        for kw in [1.0, 3.0, 6.6, 10.0, 30.0, 34.4, 60.0] {
            let req = Watts(kw * 1000.0);
            let g = p.plan(req, &candidates);
            let s = scattered_planner.plan(req, &candidates);
            assert!(g.satisfied(), "grouped plan must satisfy {kw} kW");
            assert!(s.satisfied(), "scattered plan must satisfy {kw} kW");
            assert!(
                g.node_count() <= s.node_count(),
                "grouped uses {} nodes vs scattered {} for {kw} kW",
                g.node_count(),
                s.node_count()
            );
        }
    }

    #[test]
    fn rack_scale_reduction_takes_whole_racks() {
        let p = planner();
        // One full rack recovers 34 360 W.
        let plan = p.plan(Watts(34_000.0), &all_candidates(&p));
        assert!(plan.satisfied());
        assert_eq!(plan.node_count(), 90);
        assert!(plan.recovered.approx_eq(Watts(34_360.0), 1e-6));
        assert!(plan.complete_groups.contains(&(1, 0)));
        // All five of its chassis are complete too.
        let chassis_count = plan
            .complete_groups
            .iter()
            .filter(|(level, _)| *level == 0)
            .count();
        assert_eq!(chassis_count, 5);
    }

    #[test]
    fn respects_candidate_restrictions() {
        let p = planner();
        // Only nodes 18..36 (chassis 1) are available.
        let candidates: BTreeSet<NodeId> = (18..36).collect();
        let plan = p.plan(Watts(6600.0), &candidates);
        assert!(plan.satisfied());
        assert!(plan.nodes.iter().all(|n| candidates.contains(n)));
        assert_eq!(plan.complete_groups, vec![(0, 1)]);
        // Request beyond what the candidates can provide.
        let too_much = p.plan(Watts(50_000.0), &candidates);
        assert!(!too_much.satisfied());
        assert_eq!(too_much.node_count(), 18);
    }

    #[test]
    fn zero_reduction_needs_no_nodes() {
        let p = planner();
        let plan = p.plan(Watts::ZERO, &all_candidates(&p));
        assert!(plan.satisfied());
        assert!(plan.nodes.is_empty());
        assert_eq!(plan.recovered, Watts::ZERO);
    }

    #[test]
    fn small_reduction_uses_single_nodes_not_a_chassis() {
        let p = planner();
        let plan = p.plan(Watts(1000.0), &all_candidates(&p));
        assert!(plan.satisfied());
        // 1 000 W needs ceil(1000/344) = 3 nodes; taking a whole chassis
        // would sacrifice 18.
        assert_eq!(plan.node_count(), 3);
    }

    #[test]
    fn bonus_accessor_reports_extra_power() {
        let p = planner();
        let profile = NodePowerProfile::curie();
        let plan = p.plan(Watts(6600.0), &all_candidates(&p));
        // 18 nodes plain savings = 6 192 W; recovered 6 692 W; bonus 500 W.
        assert!(plan.bonus(&profile).approx_eq(Watts(500.0), 1e-6));
        let scattered = p
            .clone()
            .with_strategy(GroupingStrategy::Scattered)
            .plan(Watts(1000.0), &all_candidates(&p));
        assert_eq!(scattered.bonus(&profile), Watts::ZERO);
    }

    #[test]
    fn padding_prefers_completing_touched_chassis() {
        let p = planner();
        // Slightly more than one chassis' worth: one extra node at most.
        let plan = p.plan(Watts(7000.0), &all_candidates(&p));
        assert!(plan.satisfied());
        assert!(plan.node_count() <= 19);
    }

    #[test]
    fn recovered_power_matches_accountant() {
        // The planner's predicted recovery must agree with what the power
        // accountant observes when the plan is committed against an all-busy
        // cluster.
        use crate::accounting::ClusterPowerAccountant;
        use crate::state::PowerState;

        let topo = Topology::curie_scaled(2);
        let profile = NodePowerProfile::curie();
        let p = GroupedShutdownPlanner::new(&topo, &profile);
        for req in [1_000.0, 6_600.0, 20_000.0, 34_000.0] {
            let plan = p.plan_unrestricted(Watts(req));
            let mut acct = ClusterPowerAccountant::new(&topo, &profile);
            for n in 0..topo.total_nodes() {
                acct.set_state(n, PowerState::busy_max_curie(), 0);
            }
            let before = acct.current_power();
            for &n in &plan.nodes {
                acct.set_state(n, PowerState::Off, 0);
            }
            let observed = before - acct.current_power();
            assert!(
                observed.approx_eq(plan.recovered, 1e-6),
                "request {req} W: planner predicted {} but accountant observed {}",
                plan.recovered,
                observed
            );
        }
    }
}
