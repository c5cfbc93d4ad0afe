//! Powercap policies: SHUT, DVFS, MIX and the no-powercap baseline.
//!
//! "We defined three policies SHUT, DVFS and MIX. SHUT means that the system
//! will have the possibility to switch-off nodes and keep others in an idle
//! state if needed. DVFS policy means that the system will have the
//! possibility to oblige jobs to be executed at lower CPU frequencies.
//! Finally, MIX is a mixed DVFS and SHUT strategy, which considers both
//! possibilities of saving power." (paper Section IV-B.)
//!
//! MIX restricts DVFS to the 2.0–2.7 GHz band: measurements showed the
//! energy/performance optimum lies there, so "the minimum DVFS frequency is
//! 2.0 GHz instead of 1.2 GHz" and its degradation is 1.29 instead of 1.63.

use apc_power::{DegradationModel, Frequency, FrequencyLadder};

/// The administrator-selectable powercap scheduling mode
/// (`SchedulerParameters` option in the SLURM implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PowercapPolicy {
    /// No power control at all: the paper's "100 %/None" baseline.
    None,
    /// Node switch-off only; jobs always run at the maximum frequency.
    Shut,
    /// DVFS only; nodes are never switched off (they idle at best).
    Dvfs,
    /// Both mechanisms, with DVFS restricted to the high 2.0–2.7 GHz range.
    #[default]
    Mix,
}

impl PowercapPolicy {
    /// All policies, in the order used by the paper's Fig. 8 rows.
    pub const ALL: [PowercapPolicy; 4] = [
        PowercapPolicy::None,
        PowercapPolicy::Shut,
        PowercapPolicy::Dvfs,
        PowercapPolicy::Mix,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PowercapPolicy::None => "None",
            PowercapPolicy::Shut => "SHUT",
            PowercapPolicy::Dvfs => "DVFS",
            PowercapPolicy::Mix => "MIX",
        }
    }

    /// May the scheduler switch nodes off under this policy?
    pub fn allows_shutdown(self) -> bool {
        matches!(self, PowercapPolicy::Shut | PowercapPolicy::Mix)
    }

    /// May the scheduler lower job frequencies under this policy?
    pub fn allows_dvfs(self) -> bool {
        matches!(self, PowercapPolicy::Dvfs | PowercapPolicy::Mix)
    }

    /// Does the policy enforce power caps at all?
    pub fn enforces_cap(self) -> bool {
        self != PowercapPolicy::None
    }

    /// The MIX frequency floor (2.0 GHz on Curie).
    pub fn mix_frequency_floor() -> Frequency {
        Frequency::from_ghz(2.0)
    }

    /// The frequency ladder the online algorithm may choose from under this
    /// policy. `None` and `Shut` may only use the maximum frequency; `Dvfs`
    /// uses the whole ladder; `Mix` uses the steps at or above 2.0 GHz.
    pub fn allowed_ladder(self, full: &FrequencyLadder) -> FrequencyLadder {
        match self {
            PowercapPolicy::None | PowercapPolicy::Shut => FrequencyLadder::new(vec![full.max()]),
            PowercapPolicy::Dvfs => full.clone(),
            PowercapPolicy::Mix => full
                .clamp_min(Self::mix_frequency_floor())
                .unwrap_or_else(|| FrequencyLadder::new(vec![full.max()])),
        }
    }

    /// The runtime-degradation model associated with this policy's frequency
    /// range: 1.63 down to 1.2 GHz for DVFS, 1.29 down to 2.0 GHz for MIX,
    /// no degradation for the others (jobs always run at fmax).
    pub fn degradation(self, full: &FrequencyLadder) -> DegradationModel {
        match self {
            PowercapPolicy::None | PowercapPolicy::Shut => {
                DegradationModel::new(1.0, full.max(), full.max())
            }
            PowercapPolicy::Dvfs => DegradationModel::paper_default(),
            PowercapPolicy::Mix => DegradationModel::paper_mix(),
        }
    }
}

impl std::fmt::Display for PowercapPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PowercapPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "off" => Ok(PowercapPolicy::None),
            "shut" | "shutdown" => Ok(PowercapPolicy::Shut),
            "dvfs" => Ok(PowercapPolicy::Dvfs),
            "mix" | "mixed" => Ok(PowercapPolicy::Mix),
            other => Err(format!("unknown powercap policy: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_permissions() {
        assert!(!PowercapPolicy::None.allows_shutdown());
        assert!(!PowercapPolicy::None.allows_dvfs());
        assert!(!PowercapPolicy::None.enforces_cap());
        assert!(PowercapPolicy::Shut.allows_shutdown());
        assert!(!PowercapPolicy::Shut.allows_dvfs());
        assert!(!PowercapPolicy::Dvfs.allows_shutdown());
        assert!(PowercapPolicy::Dvfs.allows_dvfs());
        assert!(PowercapPolicy::Mix.allows_shutdown());
        assert!(PowercapPolicy::Mix.allows_dvfs());
        assert!(PowercapPolicy::Mix.enforces_cap());
    }

    #[test]
    fn allowed_ladders() {
        let full = FrequencyLadder::curie();
        assert_eq!(PowercapPolicy::None.allowed_ladder(&full).len(), 1);
        assert_eq!(PowercapPolicy::Shut.allowed_ladder(&full).len(), 1);
        assert_eq!(
            PowercapPolicy::Shut.allowed_ladder(&full).max(),
            Frequency::from_ghz(2.7)
        );
        assert_eq!(PowercapPolicy::Dvfs.allowed_ladder(&full).len(), 8);
        let mix = PowercapPolicy::Mix.allowed_ladder(&full);
        assert_eq!(mix.len(), 4);
        assert_eq!(mix.min(), Frequency::from_ghz(2.0));
    }

    #[test]
    fn degradation_models_match_the_paper() {
        let full = FrequencyLadder::curie();
        assert_eq!(PowercapPolicy::Shut.degradation(&full).degmin(), 1.0);
        assert_eq!(PowercapPolicy::Dvfs.degradation(&full).degmin(), 1.63);
        assert_eq!(PowercapPolicy::Mix.degradation(&full).degmin(), 1.29);
        assert_eq!(
            PowercapPolicy::Mix.degradation(&full).fmin(),
            Frequency::from_ghz(2.0)
        );
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(
            "shut".parse::<PowercapPolicy>().unwrap(),
            PowercapPolicy::Shut
        );
        assert_eq!(
            "DVFS".parse::<PowercapPolicy>().unwrap(),
            PowercapPolicy::Dvfs
        );
        assert_eq!(
            "Mix".parse::<PowercapPolicy>().unwrap(),
            PowercapPolicy::Mix
        );
        assert_eq!(
            "none".parse::<PowercapPolicy>().unwrap(),
            PowercapPolicy::None
        );
        assert!("frobnicate".parse::<PowercapPolicy>().is_err());
        assert_eq!(PowercapPolicy::Mix.to_string(), "MIX");
        assert_eq!(PowercapPolicy::ALL.len(), 4);
    }

    #[test]
    fn mix_floor_constant() {
        assert_eq!(
            PowercapPolicy::mix_frequency_floor(),
            Frequency::from_ghz(2.0)
        );
    }
}
