//! Section III analytic model: DVFS versus node switch-off under a power cap.
//!
//! The model maximises the computational load `W` available during a unit
//! period (constraint C1) subject to the power cap (constraint C3) and the
//! node budget (constraint C2):
//!
//! ```text
//! W     = (N − Noff − Ndvfs) + Ndvfs / degmin                      (C1, T = 1)
//! Noff + Ndvfs ≤ N                                                  (C2)
//! Noff·Poff + Ndvfs·Pdvfs + (N − Noff − Ndvfs)·Pmax ≤ P             (C3)
//! ```
//!
//! Four cases follow (paper Section III-A): switch-off only, DVFS only,
//! either (tie), or — when the cap is lower than `N·Pdvfs` — both mechanisms
//! combined.
//!
//! ## The ρ indicator and the two decision rules
//!
//! The paper summarises the switch-off/DVFS choice with
//! `ρ = 1 − 1/degmin − (Pmax − Pdvfs)/(Pmax − Poff)` and the rule
//! *"DVFS is better when ρ > 0"*. Reproducing the published Fig. 5 requires
//! following that rule verbatim, and it is what Algorithm 1 (offline planning)
//! executes, so it is the default here ([`DecisionRule::PaperRho`]).
//!
//! Deriving the comparison directly from C1/C3, however, gives the opposite
//! orientation (DVFS maximises W exactly when `1 − 1/degmin <
//! (Pmax − Pdvfs)/(Pmax − Poff)`). Both rules are implemented —
//! [`DecisionRule::WorkMaximizing`] is the direct derivation — and the replay
//! crate ships an ablation comparing them; EXPERIMENTS.md discusses the
//! discrepancy and the effective power values implied by the paper's Fig. 5
//! numbers.

use crate::degradation::DegradationModel;
use crate::profile::NodePowerProfile;
use crate::units::Watts;

/// Which formula arbitrates between DVFS and switch-off when both can satisfy
/// the cap on their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionRule {
    /// The rule exactly as printed in the paper: DVFS is chosen when ρ > 0
    /// (so switch-off whenever ρ ≤ 0). This is what Algorithm 1 implements
    /// and what the evaluation ran with.
    #[default]
    PaperRho,
    /// Pick whichever mechanism yields the larger computational load `W`
    /// according to C1/C3 directly.
    WorkMaximizing,
}

impl DecisionRule {
    /// Stable lower-case name, used in CLI flags and result tables.
    pub fn name(self) -> &'static str {
        match self {
            DecisionRule::PaperRho => "paper-rho",
            DecisionRule::WorkMaximizing => "work-max",
        }
    }
}

impl std::fmt::Display for DecisionRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DecisionRule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "paper-rho" | "rho" | "paper" => Ok(DecisionRule::PaperRho),
            "work-max" | "work-maximizing" | "workmax" => Ok(DecisionRule::WorkMaximizing),
            other => Err(format!(
                "unknown decision rule: {other} (valid: paper-rho, work-max)"
            )),
        }
    }
}

/// The mechanism selected for a given power cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// The cap is above the cluster's maximum power: nothing to do.
    Uncapped,
    /// Only node switch-off is used.
    ShutdownOnly,
    /// Only DVFS is used.
    DvfsOnly,
    /// Both mechanisms yield the same W; either may be used.
    Either,
    /// The cap is below `N·Pdvfs`: DVFS alone cannot reach it, both
    /// mechanisms must be combined (paper case 4).
    Both,
    /// The cap is below `N·Poff`: unreachable even with every node off.
    Infeasible,
}

/// Outcome of the trade-off analysis for one power cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffDecision {
    /// Selected mechanism.
    pub mechanism: Mechanism,
    /// Number of nodes to switch off (fractional; callers round as needed).
    pub n_off: f64,
    /// Number of nodes to run at the lowest permitted frequency (fractional).
    pub n_dvfs: f64,
    /// The computational load `W` achieved (in node·periods, `N` = no cap).
    pub work: f64,
}

impl TradeoffDecision {
    /// Number of switched-off nodes rounded up to an integer (power caps are
    /// hard limits, so rounding must never under-provision the reduction).
    pub fn n_off_nodes(&self) -> usize {
        self.n_off.ceil().max(0.0) as usize
    }

    /// Number of DVFS nodes rounded up to an integer.
    pub fn n_dvfs_nodes(&self) -> usize {
        self.n_dvfs.ceil().max(0.0) as usize
    }
}

/// The Section III model for a homogeneous cluster of `N` nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct PowercapTradeoff {
    n: usize,
    p_max: Watts,
    p_dvfs: Watts,
    p_off: Watts,
    p_idle: Watts,
    degmin: f64,
    rule: DecisionRule,
}

impl PowercapTradeoff {
    /// Build the model from explicit per-node power values.
    ///
    /// * `p_max` — power of a busy node at maximum frequency,
    /// * `p_dvfs` — power of a busy node at the lowest *permitted* frequency,
    /// * `p_off` — power of a switched-off node,
    /// * `p_idle` — power of an idle node,
    /// * `degmin` — runtime degradation at the lowest permitted frequency.
    pub fn new(
        n: usize,
        p_max: Watts,
        p_dvfs: Watts,
        p_off: Watts,
        p_idle: Watts,
        degmin: f64,
    ) -> Self {
        assert!(n > 0, "the cluster must have at least one node");
        assert!(degmin >= 1.0, "degmin must be >= 1");
        assert!(
            p_off <= p_idle && p_idle <= p_dvfs && p_dvfs <= p_max,
            "power values must be ordered off <= idle <= dvfs <= max"
        );
        PowercapTradeoff {
            n,
            p_max,
            p_dvfs,
            p_off,
            p_idle,
            degmin,
            rule: DecisionRule::default(),
        }
    }

    /// Build the model from a node power profile and a degradation model,
    /// using the degradation model's minimum frequency as the lowest
    /// permitted DVFS step (this is how SHUT/DVFS differ from MIX).
    pub fn from_profile(
        n: usize,
        profile: &NodePowerProfile,
        degradation: &DegradationModel,
    ) -> Self {
        PowercapTradeoff::new(
            n,
            profile.max_watts(),
            profile.busy_watts(degradation.fmin()),
            profile.off_watts(),
            profile.idle_watts(),
            degradation.degmin(),
        )
    }

    /// The Curie model of the paper: 5 040 nodes, Fig. 4 watt values, the
    /// default degradation of 1.63 over the full 1.2–2.7 GHz ladder.
    pub fn curie_default() -> Self {
        PowercapTradeoff::from_profile(
            5040,
            &NodePowerProfile::curie(),
            &DegradationModel::paper_default(),
        )
    }

    /// Select the decision rule (builder style).
    pub fn with_rule(mut self, rule: DecisionRule) -> Self {
        self.rule = rule;
        self
    }

    /// Variant where nodes cannot be switched off and "SHUT" merely keeps
    /// them idle: the off power is replaced by the idle power (paper
    /// Section VI-B, last paragraph).
    pub fn with_idle_as_off(mut self) -> Self {
        self.p_off = self.p_idle;
        self
    }

    /// Override the effective off power (used to reproduce the exact ρ values
    /// printed in the paper's Fig. 5 — see EXPERIMENTS.md).
    pub fn with_off_power(mut self, p_off: Watts) -> Self {
        assert!(p_off <= self.p_idle, "off power must not exceed idle power");
        self.p_off = p_off;
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Per-node power at maximum frequency.
    pub fn p_max(&self) -> Watts {
        self.p_max
    }

    /// Per-node power at the lowest permitted frequency.
    pub fn p_dvfs(&self) -> Watts {
        self.p_dvfs
    }

    /// Per-node power when switched off.
    pub fn p_off(&self) -> Watts {
        self.p_off
    }

    /// Per-node power when idle.
    pub fn p_idle(&self) -> Watts {
        self.p_idle
    }

    /// The degradation at the lowest permitted frequency.
    pub fn degmin(&self) -> f64 {
        self.degmin
    }

    /// Maximum cluster power of the model (`N·Pmax`, node power only — the
    /// normalisation the paper uses for λ).
    pub fn max_power(&self) -> Watts {
        self.p_max * self.n as f64
    }

    /// Lowest cap reachable with DVFS alone (`N·Pdvfs`).
    pub fn dvfs_only_floor(&self) -> Watts {
        self.p_dvfs * self.n as f64
    }

    /// Lowest reachable cap (`N·Poff`).
    pub fn absolute_floor(&self) -> Watts {
        self.p_off * self.n as f64
    }

    /// λ threshold below which DVFS alone cannot satisfy the cap:
    /// `Pdvfs / Pmax` (the paper's `λ < Pmin/Pmax` condition).
    pub fn lambda_dvfs_floor(&self) -> f64 {
        self.p_dvfs / self.p_max
    }

    /// The paper's ρ indicator:
    /// `ρ = 1 − 1/degmin − (Pmax − Pdvfs)/(Pmax − Poff)`.
    pub fn rho(&self) -> f64 {
        1.0 - 1.0 / self.degmin - (self.p_max - self.p_dvfs) / (self.p_max - self.p_off)
    }

    /// ρ computed for an arbitrary degradation value (used to regenerate the
    /// per-benchmark rows of Fig. 5).
    pub fn rho_for_degradation(&self, degmin: f64) -> f64 {
        assert!(degmin >= 1.0);
        1.0 - 1.0 / degmin - (self.p_max - self.p_dvfs) / (self.p_max - self.p_off)
    }

    /// The degradation value at which ρ crosses zero (the "NA" row of
    /// Fig. 5): `1 / (1 − (Pmax − Pdvfs)/(Pmax − Poff))`, or `None` when the
    /// power ratio is ≥ 1 and ρ never becomes positive.
    pub fn rho_zero_degradation(&self) -> Option<f64> {
        let x = (self.p_max - self.p_dvfs) / (self.p_max - self.p_off);
        if x >= 1.0 {
            None
        } else {
            Some(1.0 / (1.0 - x))
        }
    }

    /// Number of nodes to switch off when using switch-off alone:
    /// `(N·Pmax − P)/(Pmax − Poff)`, clamped to `[0, N]`.
    pub fn n_off_only(&self, cap: Watts) -> f64 {
        let d = self.max_power() - cap;
        (d / (self.p_max - self.p_off)).clamp(0.0, self.n as f64)
    }

    /// Number of nodes to down-clock when using DVFS alone:
    /// `(N·Pmax − P)/(Pmax − Pdvfs)`, clamped to `[0, N]`.
    pub fn n_dvfs_only(&self, cap: Watts) -> f64 {
        let d = self.max_power() - cap;
        if self.p_max <= self.p_dvfs {
            return if d.as_watts() > 0.0 {
                self.n as f64
            } else {
                0.0
            };
        }
        (d / (self.p_max - self.p_dvfs)).clamp(0.0, self.n as f64)
    }

    /// The combined split for caps below the DVFS floor (paper case 4):
    /// `Ndvfs = (P − N·Poff)/(Pdvfs − Poff)`, `Noff = N − Ndvfs`.
    pub fn split_both(&self, cap: Watts) -> (f64, f64) {
        let n = self.n as f64;
        if self.p_dvfs <= self.p_off {
            return (n, 0.0);
        }
        let n_dvfs = ((cap - self.absolute_floor()) / (self.p_dvfs - self.p_off)).clamp(0.0, n);
        (n - n_dvfs, n_dvfs)
    }

    /// Computational load with switch-off alone at the given cap.
    pub fn work_off_only(&self, cap: Watts) -> f64 {
        self.n as f64 - self.n_off_only(cap)
    }

    /// Computational load with DVFS alone at the given cap (only meaningful
    /// when the cap is at or above the DVFS floor).
    pub fn work_dvfs_only(&self, cap: Watts) -> f64 {
        let n_dvfs = self.n_dvfs_only(cap);
        self.n as f64 - n_dvfs * (1.0 - 1.0 / self.degmin)
    }

    /// Computational load of an explicit `(n_off, n_dvfs)` split (C1).
    pub fn work_of(&self, n_off: f64, n_dvfs: f64) -> f64 {
        (self.n as f64 - n_off - n_dvfs) + n_dvfs / self.degmin
    }

    /// Cluster power of an explicit `(n_off, n_dvfs)` split with every other
    /// node busy at maximum frequency (left-hand side of C3).
    pub fn power_of(&self, n_off: f64, n_dvfs: f64) -> Watts {
        self.p_off * n_off + self.p_dvfs * n_dvfs + self.p_max * (self.n as f64 - n_off - n_dvfs)
    }

    /// Full trade-off analysis for one cap value, following the configured
    /// [`DecisionRule`].
    pub fn decide(&self, cap: Watts) -> TradeoffDecision {
        let n = self.n as f64;
        if cap >= self.max_power() {
            return TradeoffDecision {
                mechanism: Mechanism::Uncapped,
                n_off: 0.0,
                n_dvfs: 0.0,
                work: n,
            };
        }
        if cap < self.absolute_floor() {
            return TradeoffDecision {
                mechanism: Mechanism::Infeasible,
                n_off: n,
                n_dvfs: 0.0,
                work: 0.0,
            };
        }
        if cap < self.dvfs_only_floor() {
            // Case 4: the cap cannot be met by DVFS alone.
            let (n_off, n_dvfs) = self.split_both(cap);
            return TradeoffDecision {
                mechanism: Mechanism::Both,
                n_off,
                n_dvfs,
                work: self.work_of(n_off, n_dvfs),
            };
        }
        let w_off = self.work_off_only(cap);
        let w_dvfs = self.work_dvfs_only(cap);
        let dvfs_better = match self.rule {
            DecisionRule::PaperRho => self.rho() > 0.0,
            DecisionRule::WorkMaximizing => w_dvfs > w_off,
        };
        let tie = match self.rule {
            DecisionRule::PaperRho => self.rho().abs() < 1e-12,
            DecisionRule::WorkMaximizing => (w_dvfs - w_off).abs() < 1e-9,
        };
        if tie {
            TradeoffDecision {
                mechanism: Mechanism::Either,
                n_off: self.n_off_only(cap),
                n_dvfs: self.n_dvfs_only(cap),
                work: w_off,
            }
        } else if dvfs_better {
            TradeoffDecision {
                mechanism: Mechanism::DvfsOnly,
                n_off: 0.0,
                n_dvfs: self.n_dvfs_only(cap),
                work: w_dvfs,
            }
        } else {
            TradeoffDecision {
                mechanism: Mechanism::ShutdownOnly,
                n_off: self.n_off_only(cap),
                n_dvfs: 0.0,
                work: w_off,
            }
        }
    }

    /// Convenience: analyse a cap expressed as a fraction λ of `N·Pmax`.
    pub fn decide_fraction(&self, lambda: f64) -> TradeoffDecision {
        self.decide(self.max_power() * lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curie() -> PowercapTradeoff {
        PowercapTradeoff::curie_default()
    }

    #[test]
    fn reference_values() {
        let m = curie();
        assert_eq!(m.node_count(), 5040);
        assert_eq!(m.p_max(), Watts(358.0));
        assert_eq!(m.p_dvfs(), Watts(193.0));
        assert_eq!(m.p_off(), Watts(14.0));
        assert_eq!(m.p_idle(), Watts(117.0));
        assert!(m.max_power().approx_eq(Watts(5040.0 * 358.0), 1e-6));
        assert!(m.dvfs_only_floor().approx_eq(Watts(5040.0 * 193.0), 1e-6));
        assert!(m.absolute_floor().approx_eq(Watts(5040.0 * 14.0), 1e-6));
        // λ floor for DVFS-only operation: Pdvfs / Pmax = 193/358 ≈ 0.539.
        assert!((m.lambda_dvfs_floor() - 193.0 / 358.0).abs() < 1e-12);
    }

    #[test]
    fn rho_default_prefers_shutdown() {
        // With the Fig. 4 watt values and degmin = 1.63 the paper's ρ is
        // negative, so Algorithm 1 plans switch-offs — matching the paper.
        let m = curie();
        let rho = m.rho();
        assert!(rho < 0.0, "rho = {rho}");
        assert!((rho - (1.0 - 1.0 / 1.63 - 165.0 / 344.0)).abs() < 1e-12);
    }

    #[test]
    fn rho_zero_crossing() {
        let m = curie();
        let z = m.rho_zero_degradation().unwrap();
        assert!((z - 1.0 / (1.0 - 165.0 / 344.0)).abs() < 1e-9);
        assert!(m.rho_for_degradation(z - 0.01) < 0.0);
        assert!(m.rho_for_degradation(z + 0.01) > 0.0);
    }

    #[test]
    fn uncapped_and_infeasible_extremes() {
        let m = curie();
        let d = m.decide(m.max_power() + Watts(1.0));
        assert_eq!(d.mechanism, Mechanism::Uncapped);
        assert_eq!(d.work, 5040.0);
        let d = m.decide(m.absolute_floor() - Watts(1.0));
        assert_eq!(d.mechanism, Mechanism::Infeasible);
        assert_eq!(d.work, 0.0);
        assert_eq!(d.n_off_nodes(), 5040);
    }

    #[test]
    fn off_only_node_count_formula() {
        let m = curie();
        // Reduce by exactly 344 kW -> 1000 nodes off.
        let cap = m.max_power() - Watts(344_000.0);
        assert!((m.n_off_only(cap) - 1000.0).abs() < 1e-6);
        // Reduce by 165 kW with DVFS -> 1000 nodes down-clocked.
        let cap = m.max_power() - Watts(165_000.0);
        assert!((m.n_dvfs_only(cap) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn case4_split_meets_cap_exactly() {
        let m = curie();
        // 40 % of N·Pmax is below the DVFS floor (53.9 %), so both mechanisms
        // are required — the situation of the paper's 40 % scenarios.
        let cap = m.max_power() * 0.40;
        let d = m.decide(cap);
        assert_eq!(d.mechanism, Mechanism::Both);
        assert!(d.n_off > 0.0 && d.n_dvfs > 0.0);
        assert!(
            (d.n_off + d.n_dvfs - 5040.0).abs() < 1e-6,
            "all nodes are touched"
        );
        // The split saturates the cap exactly.
        let p = m.power_of(d.n_off, d.n_dvfs);
        assert!(p.approx_eq(cap, 1e-3), "{p} vs {cap}");
        assert!(d.work > 0.0 && d.work < 5040.0);
    }

    #[test]
    fn paper_rho_rule_picks_shutdown_at_60_percent() {
        let m = curie();
        let d = m.decide_fraction(0.60);
        assert_eq!(d.mechanism, Mechanism::ShutdownOnly);
        assert!(d.n_dvfs == 0.0 && d.n_off > 0.0);
        // The work equals N - n_off.
        assert!((d.work - (5040.0 - d.n_off)).abs() < 1e-9);
    }

    #[test]
    fn work_maximizing_rule_may_differ() {
        let paper = curie();
        let direct = curie().with_rule(DecisionRule::WorkMaximizing);
        let cap = paper.max_power() * 0.80;
        let d_paper = paper.decide(cap);
        let d_direct = direct.decide(cap);
        // With degmin = 1.63 and the Fig. 4 watts, the direct W comparison
        // favours DVFS while the published ρ rule favours switch-off. The
        // ablation in the replay crate quantifies the consequences.
        assert_eq!(d_paper.mechanism, Mechanism::ShutdownOnly);
        assert_eq!(d_direct.mechanism, Mechanism::DvfsOnly);
        assert!(d_direct.work >= d_paper.work);
    }

    #[test]
    fn work_maximizing_agrees_with_explicit_w() {
        let m = curie().with_rule(DecisionRule::WorkMaximizing);
        for lambda in [0.55, 0.6, 0.7, 0.8, 0.9, 0.99] {
            let cap = m.max_power() * lambda;
            let d = m.decide(cap);
            let w_best = m.work_off_only(cap).max(m.work_dvfs_only(cap));
            assert!((d.work - w_best).abs() < 1e-9, "lambda {lambda}");
        }
    }

    #[test]
    fn idle_as_off_favours_dvfs_under_work_rule() {
        // When nodes cannot be powered off, "switching off" only brings a node
        // to idle (117 W). DVFS then dominates for every measured degradation.
        let m = PowercapTradeoff::curie_default()
            .with_idle_as_off()
            .with_rule(DecisionRule::WorkMaximizing);
        for degmin in [1.16, 1.26, 1.5, 1.63, 1.74, 1.89, 2.14, 2.27] {
            let m = PowercapTradeoff::new(
                5040,
                Watts(358.0),
                Watts(193.0),
                Watts(117.0),
                Watts(117.0),
                degmin,
            )
            .with_rule(DecisionRule::WorkMaximizing);
            let cap = m.max_power() * 0.80;
            let d = m.decide(cap);
            assert_eq!(
                d.mechanism,
                Mechanism::DvfsOnly,
                "degmin {degmin} should favour DVFS when shutdown is unavailable"
            );
            let _ = m;
        }
        let _ = m;
    }

    #[test]
    fn mix_floor_is_75_percent() {
        // MIX restricts DVFS to >= 2.0 GHz (269 W). DVFS alone then works only
        // above λ = 269/358 ≈ 0.75 — the paper's "both mechanisms should be
        // used together when the powercap is inferior to 75 %".
        let m = PowercapTradeoff::from_profile(
            5040,
            &NodePowerProfile::curie(),
            &DegradationModel::paper_mix(),
        );
        assert!((m.lambda_dvfs_floor() - 269.0 / 358.0).abs() < 1e-12);
        assert_eq!(m.decide_fraction(0.70).mechanism, Mechanism::Both);
        assert_ne!(m.decide_fraction(0.80).mechanism, Mechanism::Both);
    }

    #[test]
    fn decision_is_monotone_in_cap_for_work_maximizing_rule() {
        let m = curie().with_rule(DecisionRule::WorkMaximizing);
        let mut last_work = -1.0;
        for i in 1..=20 {
            let lambda = 0.05 * i as f64;
            let d = m.decide_fraction(lambda);
            assert!(
                d.work + 1e-9 >= last_work,
                "work must not decrease as the cap rises (λ = {lambda})"
            );
            last_work = d.work;
        }
    }

    #[test]
    fn paper_rho_rule_can_lose_work_across_the_dvfs_floor() {
        // Just above the DVFS-only floor the published ρ rule switches nodes
        // off, giving up more work than the mixed split available just below
        // the floor — the discontinuity the work-maximising ablation removes.
        let m = curie();
        let below = m.decide_fraction(0.52);
        let above = m.decide_fraction(0.55);
        assert_eq!(below.mechanism, Mechanism::Both);
        assert_eq!(above.mechanism, Mechanism::ShutdownOnly);
        assert!(above.work < below.work);
    }

    #[test]
    fn integer_rounding_never_underestimates() {
        let m = curie();
        let d = m.decide_fraction(0.61);
        assert!(d.n_off_nodes() as f64 >= d.n_off);
        assert!(d.n_dvfs_nodes() as f64 >= d.n_dvfs);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn rejects_disordered_power_values() {
        let _ = PowercapTradeoff::new(
            10,
            Watts(100.0),
            Watts(200.0),
            Watts(10.0),
            Watts(50.0),
            1.5,
        );
    }
}
