//! Controller configuration (the simulator's `slurm.conf`).

use crate::backfill::BackfillConfig;
use crate::priority::PriorityWeights;
use crate::select::SelectionPolicy;

/// Scheduler tuning knobs (SLURM's `SchedulerParameters`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedulerParameters {
    /// Backfilling configuration.
    pub backfill: BackfillConfig,
    /// Multifactor priority weights.
    pub priority: PriorityWeights,
}

/// Full controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControllerConfig {
    /// Scheduler parameters.
    pub params: SchedulerParameters,
    /// Record a power sample on every node state change (needed for the
    /// power time-series figures; off by default to keep replays lean).
    pub record_power_samples: bool,
    /// Node-selection policy.
    pub selection: SelectionPolicy,
}

impl ControllerConfig {
    /// Configuration with power-sample recording enabled.
    pub fn with_power_samples(mut self) -> Self {
        self.record_power_samples = true;
        self
    }

    /// Override the scheduler parameters (builder style).
    pub fn with_params(mut self, params: SchedulerParameters) -> Self {
        self.params = params;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ControllerConfig::default();
        assert!(c.params.backfill.enabled);
        assert!(!c.record_power_samples);
        assert_eq!(c.selection, SelectionPolicy::Contiguous);
    }

    #[test]
    fn builders() {
        let params = SchedulerParameters {
            backfill: BackfillConfig {
                enabled: false,
                ..BackfillConfig::default()
            },
            ..SchedulerParameters::default()
        };
        let c = ControllerConfig::default()
            .with_power_samples()
            .with_params(params);
        assert!(c.record_power_samples);
        assert!(!c.params.backfill.enabled);
    }
}
