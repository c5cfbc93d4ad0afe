//! Node power states.
//!
//! The paper treats power as a new kind of resource characteristic: "According
//! to its state (PowerDown, Idle, Busy, etc.), the resource will consume a
//! different amount of power" (Section IV-A). A busy node additionally carries
//! the CPU frequency its job runs at, because every frequency is a distinct
//! power state.

use crate::freq::Frequency;
use std::fmt;

/// The power-relevant state of a compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PowerState {
    /// The node is switched off. Only the BMC remains powered (14 W on Curie)
    /// so that the node can be woken up over the network.
    Off,
    /// The node is powered on but runs no job.
    #[default]
    Idle,
    /// The node executes a job with its cores clocked at the given frequency.
    Busy(Frequency),
}

impl PowerState {
    /// Busy at the highest Curie frequency — convenience constructor used
    /// pervasively in tests.
    pub fn busy_max_curie() -> Self {
        PowerState::Busy(Frequency::from_ghz(2.7))
    }

    /// Is the node switched off?
    #[inline]
    pub fn is_off(self) -> bool {
        matches!(self, PowerState::Off)
    }

    /// Is the node powered on (idle or busy)?
    #[inline]
    pub fn is_on(self) -> bool {
        !self.is_off()
    }

    /// Is the node running a job?
    #[inline]
    pub fn is_busy(self) -> bool {
        matches!(self, PowerState::Busy(_))
    }

    /// The frequency the node runs at, when busy.
    #[inline]
    pub fn frequency(self) -> Option<Frequency> {
        match self {
            PowerState::Busy(f) => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerState::Off => write!(f, "off"),
            PowerState::Idle => write!(f, "idle"),
            PowerState::Busy(freq) => write!(f, "busy@{freq}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(PowerState::Off.is_off());
        assert!(!PowerState::Off.is_on());
        assert!(!PowerState::Off.is_busy());
        assert!(PowerState::Idle.is_on());
        assert!(!PowerState::Idle.is_busy());
        let busy = PowerState::Busy(Frequency::from_ghz(2.0));
        assert!(busy.is_on());
        assert!(busy.is_busy());
    }

    #[test]
    fn frequency_extraction() {
        assert_eq!(PowerState::Off.frequency(), None);
        assert_eq!(PowerState::Idle.frequency(), None);
        assert_eq!(
            PowerState::Busy(Frequency::from_ghz(1.8)).frequency(),
            Some(Frequency::from_ghz(1.8))
        );
        assert_eq!(
            PowerState::busy_max_curie().frequency(),
            Some(Frequency::from_ghz(2.7))
        );
    }

    #[test]
    fn default_is_idle() {
        assert_eq!(PowerState::default(), PowerState::Idle);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", PowerState::Off), "off");
        assert_eq!(format!("{}", PowerState::Idle), "idle");
        assert_eq!(
            format!("{}", PowerState::Busy(Frequency::from_ghz(2.4))),
            "busy@2.4 GHz"
        );
    }
}
