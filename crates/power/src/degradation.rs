//! DVFS runtime-degradation model.
//!
//! Running a job below the maximum CPU frequency stretches its execution
//! time. The paper characterises the stretch by `degmin`, the completion-time
//! degradation at the *minimum* frequency relative to the maximum one, and
//! linearly interpolates intermediate frequencies ("the walltime should be
//! increased up to 60 % for the minimum CPU frequency, while intermediate
//! values of walltimes are linearly interpolated", Section V).
//!
//! The evaluation uses `degmin = 1.63` for the full 1.2–2.7 GHz range (the
//! community's "common value") and `1.29` for the MIX policy whose floor is
//! 2.0 GHz.

use crate::freq::{Frequency, FrequencyLadder};

/// Linear DVFS degradation model between a maximum and a minimum frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationModel {
    /// Runtime multiplier at `fmin` relative to `fmax` (e.g. 1.63).
    degmin: f64,
    /// Fastest frequency (degradation 1.0).
    fmax: Frequency,
    /// Slowest frequency (degradation `degmin`).
    fmin: Frequency,
}

impl DegradationModel {
    /// Build a model. `degmin` must be `>= 1`, and `fmin <= fmax`.
    pub fn new(degmin: f64, fmin: Frequency, fmax: Frequency) -> Self {
        assert!(degmin >= 1.0, "degradation cannot speed jobs up: {degmin}");
        assert!(fmin <= fmax, "fmin must not exceed fmax");
        DegradationModel { degmin, fmax, fmin }
    }

    /// The paper's default model: degmin 1.63 over the Curie 1.2–2.7 GHz
    /// ladder (value retained from Etinski et al. and matching the measured
    /// benchmark range).
    pub fn paper_default() -> Self {
        DegradationModel::new(1.63, Frequency::from_ghz(1.2), Frequency::from_ghz(2.7))
    }

    /// The paper's MIX-policy model: only the 2.0–2.7 GHz range is allowed
    /// and the degradation at 2.0 GHz is 1.29.
    pub fn paper_mix() -> Self {
        DegradationModel::new(1.29, Frequency::from_ghz(2.0), Frequency::from_ghz(2.7))
    }

    /// A model for a specific measured benchmark degradation over a ladder.
    pub fn for_ladder(degmin: f64, ladder: &FrequencyLadder) -> Self {
        DegradationModel::new(degmin, ladder.min(), ladder.max())
    }

    /// Degradation at the minimum frequency.
    #[inline]
    pub fn degmin(&self) -> f64 {
        self.degmin
    }

    /// Fastest frequency of the model.
    #[inline]
    pub fn fmax(&self) -> Frequency {
        self.fmax
    }

    /// Slowest frequency of the model.
    #[inline]
    pub fn fmin(&self) -> Frequency {
        self.fmin
    }

    /// Runtime multiplier when running at `f`: 1.0 at `fmax`, `degmin` at
    /// `fmin`, linear in frequency in between, clamped outside the range.
    pub fn factor(&self, f: Frequency) -> f64 {
        if f >= self.fmax {
            return 1.0;
        }
        if f <= self.fmin {
            return self.degmin;
        }
        let span = (self.fmax.as_mhz() - self.fmin.as_mhz()) as f64;
        if span <= 0.0 {
            return 1.0;
        }
        let t = (self.fmax.as_mhz() - f.as_mhz()) as f64 / span;
        1.0 + (self.degmin - 1.0) * t
    }

    /// Stretch a nominal runtime (measured at `fmax`) for execution at `f`.
    /// The result is rounded up to a whole second and is never shorter than
    /// the nominal runtime.
    pub fn stretch_runtime(&self, nominal_secs: u64, f: Frequency) -> u64 {
        let stretched = (nominal_secs as f64 * self.factor(f)).ceil() as u64;
        stretched.max(nominal_secs)
    }

    /// The *computational throughput* of a node at `f` relative to `fmax`
    /// (the `1/degmin` term of the paper's constraint C1).
    pub fn relative_throughput(&self, f: Frequency) -> f64 {
        1.0 / self.factor(f)
    }
}

impl Default for DegradationModel {
    fn default() -> Self {
        DegradationModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        let m = DegradationModel::paper_default();
        assert_eq!(m.factor(Frequency::from_ghz(2.7)), 1.0);
        assert!((m.factor(Frequency::from_ghz(1.2)) - 1.63).abs() < 1e-12);
        assert_eq!(m.degmin(), 1.63);
        assert_eq!(m.fmin(), Frequency::from_ghz(1.2));
        assert_eq!(m.fmax(), Frequency::from_ghz(2.7));
    }

    #[test]
    fn clamping_outside_range() {
        let m = DegradationModel::paper_default();
        assert_eq!(m.factor(Frequency::from_ghz(3.0)), 1.0);
        assert!((m.factor(Frequency::from_ghz(1.0)) - 1.63).abs() < 1e-12);
    }

    #[test]
    fn linear_interpolation() {
        let m = DegradationModel::paper_default();
        // Midpoint of 1.2 and 2.7 GHz is 1.95 GHz -> factor 1 + 0.63/2.
        let mid = m.factor(Frequency::from_mhz(1950));
        assert!((mid - 1.315).abs() < 1e-9, "{mid}");
        // Monotonically decreasing with frequency.
        let ladder = FrequencyLadder::curie();
        let mut prev = f64::INFINITY;
        for f in ladder.steps() {
            let x = m.factor(*f);
            assert!(x <= prev);
            prev = x;
        }
    }

    #[test]
    fn mix_model_range() {
        let m = DegradationModel::paper_mix();
        assert_eq!(m.factor(Frequency::from_ghz(2.7)), 1.0);
        assert!((m.factor(Frequency::from_ghz(2.0)) - 1.29).abs() < 1e-12);
        // Below the MIX floor the factor saturates at degmin.
        assert!((m.factor(Frequency::from_ghz(1.2)) - 1.29).abs() < 1e-12);
    }

    #[test]
    fn runtime_stretching() {
        let m = DegradationModel::paper_default();
        assert_eq!(m.stretch_runtime(100, Frequency::from_ghz(2.7)), 100);
        assert_eq!(m.stretch_runtime(100, Frequency::from_ghz(1.2)), 163);
        // Ceil rounding, never below nominal.
        assert_eq!(m.stretch_runtime(1, Frequency::from_ghz(2.4)), 2);
        assert_eq!(m.stretch_runtime(0, Frequency::from_ghz(1.2)), 0);
    }

    #[test]
    fn throughput_is_inverse_of_factor() {
        let m = DegradationModel::paper_default();
        for mhz in [1200, 1800, 2200, 2700] {
            let f = Frequency::from_mhz(mhz);
            let prod = m.factor(f) * m.relative_throughput(f);
            assert!((prod - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn for_ladder_uses_ladder_endpoints() {
        let ladder = FrequencyLadder::curie()
            .clamp_min(Frequency::from_ghz(2.0))
            .unwrap();
        let m = DegradationModel::for_ladder(1.29, &ladder);
        assert_eq!(m.fmin(), Frequency::from_ghz(2.0));
        assert_eq!(m.fmax(), Frequency::from_ghz(2.7));
    }

    #[test]
    #[should_panic(expected = "cannot speed jobs up")]
    fn rejects_degmin_below_one() {
        let _ = DegradationModel::new(0.9, Frequency::from_ghz(1.2), Frequency::from_ghz(2.7));
    }

    #[test]
    #[should_panic(expected = "fmin must not exceed fmax")]
    fn rejects_inverted_range() {
        let _ = DegradationModel::new(1.5, Frequency::from_ghz(2.7), Frequency::from_ghz(1.2));
    }
}
