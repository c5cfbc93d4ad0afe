//! Powercap scheduler configuration.

use apc_power::bonus::GroupingStrategy;
use apc_power::tradeoff::DecisionRule;

use crate::policy::PowercapPolicy;

/// Configuration bundle for the powercap hook (the SLURM implementation's
/// `SchedulerParameters=powercap_*` options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowercapConfig {
    /// Which policy (SHUT / DVFS / MIX / None) arbitrates power reductions.
    pub policy: PowercapPolicy,
    /// How switch-off nodes are grouped by the offline planner. The paper
    /// groups contiguous nodes to harvest the power bonus; `Scattered` is the
    /// ablation baseline.
    pub grouping: GroupingStrategy,
    /// Which rule decides between DVFS and switch-off when both could satisfy
    /// the cap (see `apc_power::tradeoff` for the discussion).
    pub decision_rule: DecisionRule,
    /// "Extreme actions": kill running jobs when a powercap window opens
    /// while the cluster consumes more than the budget. The paper's default
    /// (and ours) is to wait for jobs to finish instead.
    pub kill_on_cap_violation: bool,
    /// Application-aware DVFS degradation (the paper's future-work
    /// extension): when a job carries an application class, its runtime is
    /// stretched with that class's measured degradation (Linpack 2.14 …
    /// Gromacs 1.16) instead of the policy-wide common value.
    pub per_application_degradation: bool,
}

impl Default for PowercapConfig {
    fn default() -> Self {
        PowercapConfig {
            policy: PowercapPolicy::Mix,
            grouping: GroupingStrategy::Grouped,
            decision_rule: DecisionRule::PaperRho,
            kill_on_cap_violation: false,
            per_application_degradation: false,
        }
    }
}

impl PowercapConfig {
    /// Configuration for a given policy with every other knob at its default.
    pub fn for_policy(policy: PowercapPolicy) -> Self {
        PowercapConfig {
            policy,
            ..PowercapConfig::default()
        }
    }

    /// Enable the "extreme actions" kill behaviour (builder style).
    pub fn with_kill_on_violation(mut self) -> Self {
        self.kill_on_cap_violation = true;
        self
    }

    /// Select the switch-off grouping strategy (builder style).
    pub fn with_grouping(mut self, grouping: GroupingStrategy) -> Self {
        self.grouping = grouping;
        self
    }

    /// Select the DVFS-vs-shutdown decision rule (builder style).
    pub fn with_decision_rule(mut self, rule: DecisionRule) -> Self {
        self.decision_rule = rule;
        self
    }

    /// Enable application-aware DVFS degradation (builder style).
    pub fn with_per_application_degradation(mut self) -> Self {
        self.per_application_degradation = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = PowercapConfig::default();
        assert_eq!(c.policy, PowercapPolicy::Mix);
        assert_eq!(c.grouping, GroupingStrategy::Grouped);
        assert_eq!(c.decision_rule, DecisionRule::PaperRho);
        assert!(!c.kill_on_cap_violation);
        assert!(!c.per_application_degradation);
    }

    #[test]
    fn builders() {
        let c = PowercapConfig::for_policy(PowercapPolicy::Shut)
            .with_kill_on_violation()
            .with_grouping(GroupingStrategy::Scattered)
            .with_decision_rule(DecisionRule::WorkMaximizing)
            .with_per_application_degradation();
        assert_eq!(c.policy, PowercapPolicy::Shut);
        assert!(c.kill_on_cap_violation);
        assert_eq!(c.grouping, GroupingStrategy::Scattered);
        assert_eq!(c.decision_rule, DecisionRule::WorkMaximizing);
        assert!(c.per_application_degradation);
    }
}
