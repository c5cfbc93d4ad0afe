//! Per-node power profiles.
//!
//! A [`NodePowerProfile`] gives the maximum power drawn by a node in every
//! power state: switched off (`DownWatts` in SLURM terms), idle (`IdleWatts`),
//! and busy at each DVFS frequency (`CpuFreqXWatts` / `MaxWatts`). The Curie
//! values are those of the paper's Fig. 4, measured through SLURM's IPMI
//! power-profiling plugin.

use crate::freq::{Frequency, FrequencyLadder};
use crate::state::PowerState;
use crate::units::Watts;
use std::collections::BTreeMap;

/// Errors produced when validating a power profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The profile defines no busy frequency at all.
    NoFrequencies,
    /// A power value is negative or NaN.
    InvalidPower(String),
    /// The idle power is above the lowest busy power, which breaks the
    /// monotonicity every formula of Section III relies on.
    IdleAboveBusy,
    /// The off power is above the idle power.
    OffAboveIdle,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NoFrequencies => write!(f, "profile defines no busy frequencies"),
            ProfileError::InvalidPower(which) => write!(f, "invalid power value for {which}"),
            ProfileError::IdleAboveBusy => {
                write!(f, "idle power exceeds the lowest busy power")
            }
            ProfileError::OffAboveIdle => write!(f, "off power exceeds idle power"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Maximum power consumption of a node in each of its states.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePowerProfile {
    /// Power drawn when the node is switched off (BMC still powered).
    off: Watts,
    /// Power drawn when the node is idle.
    idle: Watts,
    /// Maximum power drawn when busy, per CPU frequency (MHz key).
    busy: BTreeMap<u32, Watts>,
}

impl NodePowerProfile {
    /// Build a profile from explicit values.
    ///
    /// `busy` maps each available frequency to the maximum power drawn at
    /// that frequency. The profile is validated; see [`ProfileError`].
    pub fn new(
        off: Watts,
        idle: Watts,
        busy: impl IntoIterator<Item = (Frequency, Watts)>,
    ) -> Result<Self, ProfileError> {
        let busy: BTreeMap<u32, Watts> = busy.into_iter().map(|(f, w)| (f.as_mhz(), w)).collect();
        let profile = NodePowerProfile { off, idle, busy };
        profile.validate()?;
        Ok(profile)
    }

    /// The measured Curie profile of the paper's Fig. 4:
    ///
    /// | state | watts |
    /// |---|---|
    /// | switched off | 14 |
    /// | idle | 117 |
    /// | 1.2 GHz | 193 |
    /// | 1.4 GHz | 213 |
    /// | 1.6 GHz | 234 |
    /// | 1.8 GHz | 248 |
    /// | 2.0 GHz | 269 |
    /// | 2.2 GHz | 289 |
    /// | 2.4 GHz | 317 |
    /// | 2.7 GHz | 358 |
    pub fn curie() -> Self {
        let busy = [
            (1200, 193.0),
            (1400, 213.0),
            (1600, 234.0),
            (1800, 248.0),
            (2000, 269.0),
            (2200, 289.0),
            (2400, 317.0),
            (2700, 358.0),
        ]
        .into_iter()
        .map(|(mhz, w)| (Frequency::from_mhz(mhz), Watts(w)));
        NodePowerProfile::new(Watts(14.0), Watts(117.0), busy)
            .expect("the Curie reference profile is valid")
    }

    fn validate(&self) -> Result<(), ProfileError> {
        if self.busy.is_empty() {
            return Err(ProfileError::NoFrequencies);
        }
        let check = |name: &str, w: Watts| -> Result<(), ProfileError> {
            if !w.as_watts().is_finite() || w.as_watts() < 0.0 {
                Err(ProfileError::InvalidPower(name.to_string()))
            } else {
                Ok(())
            }
        };
        check("off", self.off)?;
        check("idle", self.idle)?;
        for (mhz, w) in &self.busy {
            check(&format!("{mhz} MHz"), *w)?;
        }
        let min_busy = self
            .busy
            .values()
            .copied()
            .fold(Watts(f64::INFINITY), Watts::min);
        if self.idle > min_busy {
            return Err(ProfileError::IdleAboveBusy);
        }
        if self.off > self.idle {
            return Err(ProfileError::OffAboveIdle);
        }
        Ok(())
    }

    /// Power drawn when switched off.
    #[inline]
    pub fn off_watts(&self) -> Watts {
        self.off
    }

    /// Power drawn when idle.
    #[inline]
    pub fn idle_watts(&self) -> Watts {
        self.idle
    }

    /// Maximum power drawn at the given frequency.
    ///
    /// When the exact frequency is not present in the profile, the value is
    /// linearly interpolated between the surrounding entries (and clamped to
    /// the table's ends), matching the paper's linear interpolation of
    /// intermediate values.
    pub fn busy_watts(&self, f: Frequency) -> Watts {
        let mhz = f.as_mhz();
        if let Some(w) = self.busy.get(&mhz) {
            return *w;
        }
        let below = self.busy.range(..mhz).next_back();
        let above = self.busy.range(mhz + 1..).next();
        match (below, above) {
            (Some((&m0, &w0)), Some((&m1, &w1))) => {
                let t = (mhz - m0) as f64 / (m1 - m0) as f64;
                w0 + (w1 - w0) * t
            }
            (Some((_, &w0)), None) => w0,
            (None, Some((_, &w1))) => w1,
            (None, None) => unreachable!("validated profiles have at least one frequency"),
        }
    }

    /// Power drawn at the maximum frequency (SLURM's `MaxWatts`).
    #[inline]
    pub fn max_watts(&self) -> Watts {
        *self
            .busy
            .values()
            .next_back()
            .expect("validated profiles have at least one frequency")
    }

    /// Power drawn at the minimum busy frequency.
    #[inline]
    pub fn min_busy_watts(&self) -> Watts {
        *self
            .busy
            .values()
            .next()
            .expect("validated profiles have at least one frequency")
    }

    /// Power drawn in an arbitrary [`PowerState`].
    pub fn watts(&self, state: PowerState) -> Watts {
        match state {
            PowerState::Off => self.off,
            PowerState::Idle => self.idle,
            PowerState::Busy(f) => self.busy_watts(f),
        }
    }

    /// The frequencies explicitly listed in the profile, ascending.
    pub fn frequencies(&self) -> Vec<Frequency> {
        self.busy
            .keys()
            .map(|&mhz| Frequency::from_mhz(mhz))
            .collect()
    }

    /// The frequency ladder induced by the profile.
    pub fn ladder(&self) -> FrequencyLadder {
        FrequencyLadder::new(self.frequencies())
    }

    /// Power saved by switching an otherwise fully busy node off
    /// (358 − 14 = 344 W on Curie, the per-node entry of Fig. 2).
    #[inline]
    pub fn shutdown_saving(&self) -> Watts {
        self.max_watts() - self.off
    }

    /// Power saved by running a busy node at `f` instead of the maximum
    /// frequency.
    #[inline]
    pub fn dvfs_saving(&self, f: Frequency) -> Watts {
        (self.max_watts() - self.busy_watts(f)).max_zero()
    }
}

impl Default for NodePowerProfile {
    fn default() -> Self {
        NodePowerProfile::curie()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curie_matches_fig4() {
        let p = NodePowerProfile::curie();
        assert_eq!(p.off_watts(), Watts(14.0));
        assert_eq!(p.idle_watts(), Watts(117.0));
        assert_eq!(p.busy_watts(Frequency::from_ghz(1.2)), Watts(193.0));
        assert_eq!(p.busy_watts(Frequency::from_ghz(1.8)), Watts(248.0));
        assert_eq!(p.busy_watts(Frequency::from_ghz(2.4)), Watts(317.0));
        assert_eq!(p.busy_watts(Frequency::from_ghz(2.7)), Watts(358.0));
        assert_eq!(p.max_watts(), Watts(358.0));
        assert_eq!(p.min_busy_watts(), Watts(193.0));
        assert_eq!(p.shutdown_saving(), Watts(344.0));
    }

    #[test]
    fn watts_by_state() {
        let p = NodePowerProfile::curie();
        assert_eq!(p.watts(PowerState::Off), Watts(14.0));
        assert_eq!(p.watts(PowerState::Idle), Watts(117.0));
        assert_eq!(
            p.watts(PowerState::Busy(Frequency::from_ghz(2.0))),
            Watts(269.0)
        );
    }

    #[test]
    fn interpolates_unknown_frequencies() {
        let p = NodePowerProfile::curie();
        // 2.1 GHz is halfway between 2.0 (269 W) and 2.2 (289 W).
        let w = p.busy_watts(Frequency::from_mhz(2100));
        assert!(w.approx_eq(Watts(279.0), 1e-9), "{w:?}");
        // Outside the table the value is clamped.
        assert_eq!(p.busy_watts(Frequency::from_mhz(3000)), Watts(358.0));
        assert_eq!(p.busy_watts(Frequency::from_mhz(800)), Watts(193.0));
    }

    #[test]
    fn ladder_round_trips() {
        let p = NodePowerProfile::curie();
        assert_eq!(p.ladder(), FrequencyLadder::curie());
        assert_eq!(p.frequencies().len(), 8);
    }

    #[test]
    fn dvfs_saving_monotone() {
        let p = NodePowerProfile::curie();
        let ladder = p.ladder();
        let mut last = Watts(f64::INFINITY);
        for f in ladder.steps() {
            let s = p.dvfs_saving(*f);
            assert!(s <= last, "saving must shrink as frequency grows");
            last = s;
        }
        assert_eq!(p.dvfs_saving(ladder.max()), Watts(0.0));
        assert_eq!(p.dvfs_saving(ladder.min()), Watts(165.0));
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        assert_eq!(
            NodePowerProfile::new(Watts(10.0), Watts(100.0), std::iter::empty()).unwrap_err(),
            ProfileError::NoFrequencies
        );
        assert_eq!(
            NodePowerProfile::new(
                Watts(150.0),
                Watts(100.0),
                [(Frequency::from_ghz(2.0), Watts(300.0))]
            )
            .unwrap_err(),
            ProfileError::OffAboveIdle
        );
        assert_eq!(
            NodePowerProfile::new(
                Watts(10.0),
                Watts(400.0),
                [(Frequency::from_ghz(2.0), Watts(300.0))]
            )
            .unwrap_err(),
            ProfileError::IdleAboveBusy
        );
        assert!(matches!(
            NodePowerProfile::new(
                Watts(-1.0),
                Watts(100.0),
                [(Frequency::from_ghz(2.0), Watts(300.0))]
            )
            .unwrap_err(),
            ProfileError::InvalidPower(_)
        ));
        assert!(matches!(
            NodePowerProfile::new(
                Watts(10.0),
                Watts(100.0),
                [(Frequency::from_ghz(2.0), Watts(f64::NAN))]
            )
            .unwrap_err(),
            ProfileError::InvalidPower(_)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = NodePowerProfile::new(Watts(10.0), Watts(100.0), std::iter::empty()).unwrap_err();
        assert!(format!("{e}").contains("no busy frequencies"));
    }
}
