//! Measured benchmark profiles (paper Figures 3, 4 and 5).
//!
//! The paper characterises Curie nodes by running four workloads at every
//! DVFS step and recording the maximum node power and the execution-time
//! degradation:
//!
//! * **Linpack** — compute bound, the highest power draw, degmin 2.14;
//! * **IMB** — network bound, degmin 2.13;
//! * **Stream** — memory bound, low DVFS sensitivity, degmin 1.26;
//! * **Gromacs** — a production molecular-dynamics application, degmin 1.16.
//!
//! Fig. 4's per-state maxima are the envelope of those runs and live in
//! [`NodePowerProfile::curie`](crate::profile::NodePowerProfile::curie).
//! This module provides the per-application curves used to regenerate Fig. 3
//! (power vs. normalised execution time) and Fig. 5 (degmin, ρ and best
//! mechanism per benchmark), plus the literature values the paper quotes
//! (SPEC, NAS, the 1.63 "common value").

use crate::degradation::DegradationModel;
use crate::freq::{Frequency, FrequencyLadder};
use crate::profile::NodePowerProfile;
use crate::tradeoff::PowercapTradeoff;
use crate::units::Watts;

/// The workload classes characterised in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkApp {
    /// HPL / Linpack: dense linear algebra, compute bound.
    Linpack,
    /// Intel MPI Benchmarks: network bound.
    Imb,
    /// STREAM: memory-bandwidth bound.
    Stream,
    /// GROMACS: molecular dynamics production application.
    Gromacs,
}

impl BenchmarkApp {
    /// All four measured applications.
    pub const ALL: [BenchmarkApp; 4] = [
        BenchmarkApp::Linpack,
        BenchmarkApp::Imb,
        BenchmarkApp::Stream,
        BenchmarkApp::Gromacs,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkApp::Linpack => "Linpack",
            BenchmarkApp::Imb => "IMB",
            BenchmarkApp::Stream => "STREAM",
            BenchmarkApp::Gromacs => "GROMACS",
        }
    }

    /// Execution-time degradation at 1.2 GHz relative to 2.7 GHz (Fig. 5).
    pub fn degmin(self) -> f64 {
        match self {
            BenchmarkApp::Linpack => 2.14,
            BenchmarkApp::Imb => 2.13,
            BenchmarkApp::Stream => 1.26,
            BenchmarkApp::Gromacs => 1.16,
        }
    }

    /// Maximum node power at the top frequency for this application.
    ///
    /// Fig. 3 shows Linpack peaking at the node's 358 W envelope with the
    /// other applications drawing progressively less; the values below
    /// reconstruct that ordering (Linpack > Gromacs > IMB > Stream) while
    /// keeping the envelope equal to Fig. 4.
    pub fn peak_watts(self) -> Watts {
        match self {
            BenchmarkApp::Linpack => Watts(358.0),
            BenchmarkApp::Gromacs => Watts(330.0),
            BenchmarkApp::Imb => Watts(300.0),
            BenchmarkApp::Stream => Watts(280.0),
        }
    }

    /// Node power at the lowest frequency for this application. The spread
    /// between applications narrows at 1.2 GHz, as in Fig. 3.
    pub fn floor_watts(self) -> Watts {
        match self {
            BenchmarkApp::Linpack => Watts(193.0),
            BenchmarkApp::Gromacs => Watts(185.0),
            BenchmarkApp::Imb => Watts(175.0),
            BenchmarkApp::Stream => Watts(170.0),
        }
    }

    /// The degradation model of this application over the Curie ladder.
    pub fn degradation(self) -> DegradationModel {
        DegradationModel::new(
            self.degmin(),
            Frequency::from_ghz(1.2),
            Frequency::from_ghz(2.7),
        )
    }
}

impl std::fmt::Display for BenchmarkApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Literature reference points quoted in Fig. 5 alongside the measured
/// applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiteratureDegradation {
    /// Row label ("SPEC Float", "Common value", ...).
    pub name: &'static str,
    /// Reported degradation at minimum frequency.
    pub degmin: f64,
}

/// The non-measured rows of Fig. 5.
pub const LITERATURE_DEGRADATIONS: [LiteratureDegradation; 4] = [
    LiteratureDegradation {
        name: "SPEC Float",
        degmin: 1.89,
    },
    LiteratureDegradation {
        name: "SPEC Integer",
        degmin: 1.74,
    },
    LiteratureDegradation {
        name: "Common value",
        degmin: 1.63,
    },
    LiteratureDegradation {
        name: "NAS suite",
        degmin: 1.5,
    },
];

/// One point of a Fig. 3 curve: the behaviour of an application at one
/// frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyPoint {
    /// CPU frequency.
    pub frequency: Frequency,
    /// Maximum node power observed at that frequency.
    pub power: Watts,
    /// Execution time normalised to the top frequency (1.0 at 2.7 GHz).
    pub normalized_time: f64,
}

/// Power/performance profile of one application across the frequency ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Which application the profile describes.
    pub app: BenchmarkApp,
    /// One point per frequency, slowest first.
    pub points: Vec<FrequencyPoint>,
}

impl BenchmarkProfile {
    /// Build the profile of `app` across the given ladder.
    ///
    /// Power interpolates between the application's floor and peak with the
    /// same curvature as the Fig. 4 envelope (power grows super-linearly with
    /// frequency because voltage scales with it); execution time follows the
    /// application's [`DegradationModel`].
    pub fn for_app(app: BenchmarkApp, ladder: &FrequencyLadder) -> Self {
        let envelope = NodePowerProfile::curie();
        let env_min = envelope.min_busy_watts();
        let env_max = envelope.max_watts();
        let deg = app.degradation();
        let points = ladder
            .steps()
            .iter()
            .map(|&f| {
                // Shape factor in [0, 1] taken from the measured envelope so
                // per-application curves bend like the real measurements.
                let shape = (envelope.busy_watts(f) - env_min) / (env_max - env_min);
                let power = app.floor_watts() + (app.peak_watts() - app.floor_watts()) * shape;
                FrequencyPoint {
                    frequency: f,
                    power,
                    normalized_time: deg.factor(f),
                }
            })
            .collect();
        BenchmarkProfile { app, points }
    }

    /// Profiles of all four applications over the Curie ladder (Fig. 3).
    pub fn all_curie() -> Vec<BenchmarkProfile> {
        let ladder = FrequencyLadder::curie();
        BenchmarkApp::ALL
            .iter()
            .map(|&app| BenchmarkProfile::for_app(app, &ladder))
            .collect()
    }

    /// The point measured at a specific frequency, if present.
    pub fn at(&self, f: Frequency) -> Option<&FrequencyPoint> {
        self.points.iter().find(|p| p.frequency == f)
    }

    /// Maximum power across the profile (at the top frequency).
    pub fn peak_power(&self) -> Watts {
        self.points
            .iter()
            .map(|p| p.power)
            .fold(Watts::ZERO, Watts::max)
    }

    /// Energy-to-solution relative to running at the top frequency, assuming
    /// power `P(f)` held for the stretched duration. Used for the paper's
    /// observation that the energy/performance trade-off is not monotonic and
    /// motivates the MIX policy's 2.0 GHz floor.
    pub fn relative_energy(&self, f: Frequency) -> Option<f64> {
        let top = self.points.last()?;
        let p = self.at(f)?;
        Some(
            (p.power.as_watts() * p.normalized_time) / (top.power.as_watts() * top.normalized_time),
        )
    }
}

/// One row of the reproduced Fig. 5 table.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Row label.
    pub name: String,
    /// Degradation at the minimum frequency.
    pub degmin: f64,
    /// ρ computed with the Fig. 4 watt values (this repository's model).
    pub rho: f64,
    /// ρ computed with the effective off-power implied by the paper's
    /// published table (see EXPERIMENTS.md).
    pub rho_paper_effective: f64,
    /// Best mechanism according to the paper's rule (ρ > 0 ⇒ DVFS) applied to
    /// `rho_paper_effective` — the column printed in the paper.
    pub best_mechanism: &'static str,
}

/// Effective switched-off node power implied by the ρ values printed in the
/// paper's Fig. 5 (their ρ values correspond to
/// `(Pmax − Pdvfs)/(Pmax − Poff) ≈ 0.56`, i.e. `Poff ≈ 63 W` with the Fig. 4
/// `Pmax`/`Pdvfs`). Kept as an explicit, documented constant so the published
/// table can be regenerated exactly.
pub const PAPER_EFFECTIVE_OFF_WATTS: Watts = Watts(63.1);

/// Regenerate the rows of Fig. 5 (measured benchmarks + literature values),
/// sorted by decreasing degmin as in the paper.
pub fn fig5_table() -> Vec<Fig5Row> {
    let base = PowercapTradeoff::curie_default();
    let effective = PowercapTradeoff::curie_default().with_off_power(PAPER_EFFECTIVE_OFF_WATTS);

    let mut rows: Vec<Fig5Row> = Vec::new();
    // The "NA" threshold row: the degradation at which ρ crosses zero.
    if let Some(z) = effective.rho_zero_degradation() {
        rows.push(Fig5Row {
            name: "NA (rho = 0 threshold)".to_string(),
            degmin: z,
            rho: base.rho_for_degradation(z),
            rho_paper_effective: effective.rho_for_degradation(z),
            best_mechanism: "-",
        });
    }
    let mut entries: Vec<(String, f64)> = BenchmarkApp::ALL
        .iter()
        .map(|a| (a.name().to_string(), a.degmin()))
        .chain(
            LITERATURE_DEGRADATIONS
                .iter()
                .map(|l| (l.name.to_string(), l.degmin)),
        )
        .collect();
    entries.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("degmin values are finite"));
    for (name, degmin) in entries {
        let rho_eff = effective.rho_for_degradation(degmin);
        rows.push(Fig5Row {
            name,
            degmin,
            rho: base.rho_for_degradation(degmin),
            rho_paper_effective: rho_eff,
            best_mechanism: if rho_eff > 0.0 { "DVFS" } else { "Switch-off" },
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degmin_values_match_fig5() {
        assert_eq!(BenchmarkApp::Linpack.degmin(), 2.14);
        assert_eq!(BenchmarkApp::Imb.degmin(), 2.13);
        assert_eq!(BenchmarkApp::Stream.degmin(), 1.26);
        assert_eq!(BenchmarkApp::Gromacs.degmin(), 1.16);
    }

    #[test]
    fn profiles_cover_the_whole_ladder() {
        for profile in BenchmarkProfile::all_curie() {
            assert_eq!(profile.points.len(), 8);
            // Normalised time is 1.0 at the top frequency and degmin at the
            // bottom one.
            let first = &profile.points[0];
            let last = profile.points.last().unwrap();
            assert_eq!(last.normalized_time, 1.0);
            assert!((first.normalized_time - profile.app.degmin()).abs() < 1e-9);
            // Power grows with frequency.
            for w in profile.points.windows(2) {
                assert!(w[0].power <= w[1].power);
                assert!(w[0].normalized_time >= w[1].normalized_time);
            }
        }
    }

    #[test]
    fn linpack_peaks_at_the_envelope() {
        let ladder = FrequencyLadder::curie();
        let p = BenchmarkProfile::for_app(BenchmarkApp::Linpack, &ladder);
        assert_eq!(p.peak_power(), Watts(358.0));
        assert_eq!(p.at(Frequency::from_ghz(1.2)).unwrap().power, Watts(193.0));
        // Other applications stay below the envelope.
        let s = BenchmarkProfile::for_app(BenchmarkApp::Stream, &ladder);
        assert!(s.peak_power() < p.peak_power());
    }

    #[test]
    fn power_ordering_matches_fig3() {
        let profiles = BenchmarkProfile::all_curie();
        let peak = |app: BenchmarkApp| profiles.iter().find(|p| p.app == app).unwrap().peak_power();
        assert!(peak(BenchmarkApp::Linpack) > peak(BenchmarkApp::Gromacs));
        assert!(peak(BenchmarkApp::Gromacs) > peak(BenchmarkApp::Imb));
        assert!(peak(BenchmarkApp::Imb) > peak(BenchmarkApp::Stream));
    }

    #[test]
    fn energy_tradeoff_depends_on_application() {
        // The energy/performance trade-off differs per application: for
        // compute-bound Linpack, slowing below ~2.0 GHz costs energy (runtime
        // stretch dominates), whereas memory-bound applications keep saving.
        // This is the observation motivating the MIX policy's 2.0 GHz floor.
        let ladder = FrequencyLadder::curie();
        let linpack = BenchmarkProfile::for_app(BenchmarkApp::Linpack, &ladder);
        let gromacs = BenchmarkProfile::for_app(BenchmarkApp::Gromacs, &ladder);
        for p in [&linpack, &gromacs] {
            assert!((p.relative_energy(Frequency::from_ghz(2.7)).unwrap() - 1.0).abs() < 1e-12);
        }
        // Linpack: running at 1.2 GHz consumes more energy than at 2.7 GHz.
        assert!(linpack.relative_energy(Frequency::from_ghz(1.2)).unwrap() > 1.0);
        // Gromacs: DVFS keeps saving energy all the way down.
        assert!(gromacs.relative_energy(Frequency::from_ghz(1.2)).unwrap() < 1.0);
        // In the 2.0–2.7 GHz band (the MIX range) the energy penalty stays
        // bounded even for the worst case (Linpack ≈ +15 %), whereas dropping
        // Linpack to 1.2 GHz costs noticeably more.
        for p in [&linpack, &gromacs] {
            let e20 = p.relative_energy(Frequency::from_ghz(2.0)).unwrap();
            assert!(e20 < 1.2, "{}: {e20}", p.app);
        }
        let lin12 = linpack.relative_energy(Frequency::from_ghz(1.2)).unwrap();
        let lin20 = linpack.relative_energy(Frequency::from_ghz(2.0)).unwrap();
        assert!(lin12 > lin20 * 0.99);
    }

    #[test]
    fn fig5_table_rows_and_ordering() {
        let rows = fig5_table();
        // Threshold row + 4 measured + 4 literature.
        assert_eq!(rows.len(), 9);
        assert!(rows[0].name.starts_with("NA"));
        // Descending degmin after the threshold row.
        for w in rows[1..].windows(2) {
            assert!(w[0].degmin >= w[1].degmin);
        }
        // Every measured/literature row is labelled Switch-off when using the
        // paper-effective values (the column printed in the paper).
        for row in &rows[1..] {
            assert_eq!(row.best_mechanism, "Switch-off", "{}", row.name);
            assert!(row.rho_paper_effective < 0.0);
        }
    }

    #[test]
    fn fig5_paper_effective_rho_matches_published_values() {
        let rows = fig5_table();
        let find = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        // Paper values: linpack -0.027, IMB -0.029, common value -0.174,
        // STREAM -0.350, GROMACS -0.422 (within rounding of the effective
        // off-power calibration).
        assert!((find("Linpack").rho_paper_effective - (-0.027)).abs() < 0.01);
        assert!((find("IMB").rho_paper_effective - (-0.029)).abs() < 0.01);
        assert!((find("Common value").rho_paper_effective - (-0.174)).abs() < 0.01);
        assert!((find("STREAM").rho_paper_effective - (-0.350)).abs() < 0.01);
        assert!((find("GROMACS").rho_paper_effective - (-0.422)).abs() < 0.01);
    }

    #[test]
    fn display_names() {
        assert_eq!(BenchmarkApp::Linpack.to_string(), "Linpack");
        assert_eq!(BenchmarkApp::Stream.to_string(), "STREAM");
    }
}
