//! Application classes.
//!
//! The paper measures four representative workloads (Linpack, IMB, STREAM,
//! GROMACS) whose DVFS sensitivity differs widely (degmin 2.14 down to 1.16).
//! Trace jobs are tagged with an [`AppClass`] so the degradation-sensitivity
//! ablation can stretch each job according to its own class instead of the
//! single "common value" used in the paper's main evaluation.

use apc_power::{BenchmarkApp, DegradationModel};

/// The application class of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// Compute-bound (Linpack-like), highest DVFS sensitivity.
    ComputeBound,
    /// Network-bound (IMB-like).
    NetworkBound,
    /// Memory-bound (STREAM-like), low DVFS sensitivity.
    MemoryBound,
    /// Production molecular dynamics (GROMACS-like), lowest sensitivity.
    MolecularDynamics,
}

impl AppClass {
    /// All classes, indexable by the trace's `app_class` byte.
    pub const ALL: [AppClass; 4] = [
        AppClass::ComputeBound,
        AppClass::NetworkBound,
        AppClass::MemoryBound,
        AppClass::MolecularDynamics,
    ];

    /// Decode from the trace byte (wraps around for robustness).
    pub fn from_index(index: u8) -> Self {
        Self::ALL[(index as usize) % Self::ALL.len()]
    }

    /// Encode to the trace byte.
    pub fn index(self) -> u8 {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class is in ALL") as u8
    }

    /// The measured benchmark this class corresponds to.
    pub fn benchmark(self) -> BenchmarkApp {
        match self {
            AppClass::ComputeBound => BenchmarkApp::Linpack,
            AppClass::NetworkBound => BenchmarkApp::Imb,
            AppClass::MemoryBound => BenchmarkApp::Stream,
            AppClass::MolecularDynamics => BenchmarkApp::Gromacs,
        }
    }

    /// The degradation model of this class over the Curie ladder.
    pub fn degradation(self) -> DegradationModel {
        self.benchmark().degradation()
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AppClass::ComputeBound => "compute-bound",
            AppClass::NetworkBound => "network-bound",
            AppClass::MemoryBound => "memory-bound",
            AppClass::MolecularDynamics => "molecular-dynamics",
        }
    }
}

impl std::fmt::Display for AppClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for class in AppClass::ALL {
            assert_eq!(AppClass::from_index(class.index()), class);
        }
        // Wrap-around for out-of-range bytes.
        assert_eq!(AppClass::from_index(4), AppClass::ComputeBound);
        assert_eq!(AppClass::from_index(255), AppClass::MolecularDynamics);
    }

    #[test]
    fn benchmark_mapping_and_degradation() {
        assert_eq!(AppClass::ComputeBound.benchmark(), BenchmarkApp::Linpack);
        assert_eq!(AppClass::MemoryBound.benchmark(), BenchmarkApp::Stream);
        assert!(
            AppClass::ComputeBound.degradation().degmin()
                > AppClass::MolecularDynamics.degradation().degmin()
        );
        assert_eq!(AppClass::MolecularDynamics.degradation().degmin(), 1.16);
    }

    #[test]
    fn names() {
        assert_eq!(AppClass::MemoryBound.to_string(), "memory-bound");
        assert_eq!(AppClass::NetworkBound.name(), "network-bound");
    }
}
