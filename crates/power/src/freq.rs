//! DVFS frequency ladder.
//!
//! Curie's Sandy Bridge nodes expose eight P-states between 1.2 GHz and
//! 2.7 GHz (Fig. 4 of the paper). The scheduler reasons about frequencies in
//! discrete steps ("the next slower value", "the highest allowed value"), so
//! the ladder is modelled as an ordered list of [`Frequency`] values.

use std::fmt;

/// A CPU frequency, stored in megahertz.
///
/// Stored as an integer so that frequencies can be used as map keys, compared
/// exactly and serialized losslessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frequency(u32);

impl Frequency {
    /// Build a frequency from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: u32) -> Self {
        Frequency(mhz)
    }

    /// Build a frequency from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency((ghz * 1000.0).round() as u32)
    }

    /// The frequency in megahertz.
    #[inline]
    pub const fn as_mhz(self) -> u32 {
        self.0
    }

    /// The frequency in gigahertz.
    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GHz", self.as_ghz())
    }
}

/// An ordered set of frequencies a node can run at, from slowest to fastest.
///
/// The ladder always contains at least one frequency. The paper's scheduling
/// algorithm walks the ladder downwards ("job.DVFS = a slower value of
/// job.DVFS") until the cluster fits under the power cap, so [`next_lower`]
/// and [`next_higher`](FrequencyLadder::next_higher) are the primary lookups.
///
/// [`next_lower`]: FrequencyLadder::next_lower
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyLadder {
    /// Sorted ascending, deduplicated, non-empty.
    steps: Vec<Frequency>,
}

impl FrequencyLadder {
    /// Build a ladder from an arbitrary list of frequencies.
    ///
    /// Duplicates are removed and the list is sorted ascending.
    ///
    /// # Panics
    /// Panics if `steps` is empty.
    pub fn new(mut steps: Vec<Frequency>) -> Self {
        assert!(!steps.is_empty(), "a frequency ladder cannot be empty");
        steps.sort_unstable();
        steps.dedup();
        FrequencyLadder { steps }
    }

    /// The eight-step ladder of a Curie compute node (Fig. 4): 1.2, 1.4, 1.6,
    /// 1.8, 2.0, 2.2, 2.4 and 2.7 GHz.
    pub fn curie() -> Self {
        FrequencyLadder::new(
            [1200, 1400, 1600, 1800, 2000, 2200, 2400, 2700]
                .into_iter()
                .map(Frequency::from_mhz)
                .collect(),
        )
    }

    /// Number of steps in the ladder.
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// A ladder is never empty; provided for clippy-friendliness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lowest (slowest) frequency.
    #[inline]
    pub fn min(&self) -> Frequency {
        self.steps[0]
    }

    /// Highest (fastest) frequency.
    #[inline]
    pub fn max(&self) -> Frequency {
        *self.steps.last().expect("non-empty ladder")
    }

    /// All steps, slowest first.
    #[inline]
    pub fn steps(&self) -> &[Frequency] {
        &self.steps
    }

    /// All steps, fastest first (the order the online algorithm probes them).
    pub fn steps_descending(&self) -> impl Iterator<Item = Frequency> + '_ {
        self.steps.iter().rev().copied()
    }

    /// Does the ladder contain this exact frequency?
    #[inline]
    pub fn contains(&self, f: Frequency) -> bool {
        self.steps.binary_search(&f).is_ok()
    }

    /// The next slower step, or `None` when already at the minimum or when
    /// the frequency is not part of the ladder.
    pub fn next_lower(&self, f: Frequency) -> Option<Frequency> {
        match self.steps.binary_search(&f) {
            Ok(0) => None,
            Ok(i) => Some(self.steps[i - 1]),
            Err(_) => None,
        }
    }

    /// The next faster step, or `None` when already at the maximum or when
    /// the frequency is not part of the ladder.
    pub fn next_higher(&self, f: Frequency) -> Option<Frequency> {
        match self.steps.binary_search(&f) {
            Ok(i) if i + 1 < self.steps.len() => Some(self.steps[i + 1]),
            _ => None,
        }
    }

    /// The highest ladder step that is `<= f`, if any.
    pub fn floor(&self, f: Frequency) -> Option<Frequency> {
        match self.steps.binary_search(&f) {
            Ok(i) => Some(self.steps[i]),
            Err(0) => None,
            Err(i) => Some(self.steps[i - 1]),
        }
    }

    /// The lowest ladder step that is `>= f`, if any.
    pub fn ceil(&self, f: Frequency) -> Option<Frequency> {
        match self.steps.binary_search(&f) {
            Ok(i) => Some(self.steps[i]),
            Err(i) if i < self.steps.len() => Some(self.steps[i]),
            Err(_) => None,
        }
    }

    /// Restrict the ladder to steps `>= floor`, as done by the MIX policy
    /// which only allows the 2.0–2.7 GHz range.
    ///
    /// Returns `None` when no step satisfies the floor.
    pub fn clamp_min(&self, floor: Frequency) -> Option<FrequencyLadder> {
        let steps: Vec<Frequency> = self.steps.iter().copied().filter(|&f| f >= floor).collect();
        if steps.is_empty() {
            None
        } else {
            Some(FrequencyLadder { steps })
        }
    }

    /// Position of `f` in the ladder normalised to `[0, 1]` (0 = slowest,
    /// 1 = fastest), interpolating between steps by frequency value. Used for
    /// linear interpolation of degradation and power.
    pub fn normalized_position(&self, f: Frequency) -> f64 {
        let lo = self.min().as_mhz() as f64;
        let hi = self.max().as_mhz() as f64;
        if (hi - lo).abs() < f64::EPSILON {
            return 1.0;
        }
        ((f.as_mhz() as f64 - lo) / (hi - lo)).clamp(0.0, 1.0)
    }
}

impl Default for FrequencyLadder {
    fn default() -> Self {
        FrequencyLadder::curie()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_conversions() {
        let f = Frequency::from_ghz(2.7);
        assert_eq!(f.as_mhz(), 2700);
        assert!((f.as_ghz() - 2.7).abs() < 1e-9);
        assert_eq!(format!("{f}"), "2.7 GHz");
        assert_eq!(Frequency::from_mhz(1200), Frequency::from_ghz(1.2));
    }

    #[test]
    fn curie_ladder_shape() {
        let l = FrequencyLadder::curie();
        assert_eq!(l.len(), 8);
        assert_eq!(l.min(), Frequency::from_ghz(1.2));
        assert_eq!(l.max(), Frequency::from_ghz(2.7));
        assert!(l.contains(Frequency::from_ghz(1.8)));
        assert!(!l.contains(Frequency::from_ghz(2.6)));
    }

    #[test]
    fn ladder_sorts_and_dedups() {
        let l = FrequencyLadder::new(vec![
            Frequency::from_mhz(2000),
            Frequency::from_mhz(1200),
            Frequency::from_mhz(2000),
            Frequency::from_mhz(2700),
        ]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.steps()[0], Frequency::from_mhz(1200));
        assert_eq!(l.max(), Frequency::from_mhz(2700));
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_ladder_panics() {
        let _ = FrequencyLadder::new(vec![]);
    }

    #[test]
    fn next_lower_and_higher() {
        let l = FrequencyLadder::curie();
        assert_eq!(
            l.next_lower(Frequency::from_ghz(2.7)),
            Some(Frequency::from_ghz(2.4))
        );
        assert_eq!(
            l.next_lower(Frequency::from_ghz(1.4)),
            Some(Frequency::from_ghz(1.2))
        );
        assert_eq!(l.next_lower(Frequency::from_ghz(1.2)), None);
        assert_eq!(l.next_lower(Frequency::from_ghz(2.5)), None);
        assert_eq!(
            l.next_higher(Frequency::from_ghz(2.4)),
            Some(Frequency::from_ghz(2.7))
        );
        assert_eq!(l.next_higher(Frequency::from_ghz(2.7)), None);
    }

    #[test]
    fn floor_and_ceil() {
        let l = FrequencyLadder::curie();
        assert_eq!(
            l.floor(Frequency::from_mhz(2500)),
            Some(Frequency::from_mhz(2400))
        );
        assert_eq!(
            l.floor(Frequency::from_mhz(1200)),
            Some(Frequency::from_mhz(1200))
        );
        assert_eq!(l.floor(Frequency::from_mhz(1100)), None);
        assert_eq!(
            l.ceil(Frequency::from_mhz(2500)),
            Some(Frequency::from_mhz(2700))
        );
        assert_eq!(l.ceil(Frequency::from_mhz(2800)), None);
        assert_eq!(
            l.ceil(Frequency::from_mhz(100)),
            Some(Frequency::from_mhz(1200))
        );
    }

    #[test]
    fn clamp_min_for_mix_policy() {
        let l = FrequencyLadder::curie();
        let mix = l.clamp_min(Frequency::from_ghz(2.0)).unwrap();
        assert_eq!(mix.len(), 4);
        assert_eq!(mix.min(), Frequency::from_ghz(2.0));
        assert_eq!(mix.max(), Frequency::from_ghz(2.7));
        assert!(l.clamp_min(Frequency::from_ghz(3.5)).is_none());
    }

    #[test]
    fn descending_iteration_starts_at_max() {
        let l = FrequencyLadder::curie();
        let v: Vec<Frequency> = l.steps_descending().collect();
        assert_eq!(v[0], l.max());
        assert_eq!(*v.last().unwrap(), l.min());
        assert_eq!(v.len(), l.len());
    }

    #[test]
    fn normalized_position_bounds() {
        let l = FrequencyLadder::curie();
        assert_eq!(l.normalized_position(l.min()), 0.0);
        assert_eq!(l.normalized_position(l.max()), 1.0);
        let mid = l.normalized_position(Frequency::from_ghz(2.0));
        assert!(
            mid > 0.5 && mid < 0.6,
            "2.0 GHz sits just above the midpoint: {mid}"
        );
        let single = FrequencyLadder::new(vec![Frequency::from_ghz(2.0)]);
        assert_eq!(single.normalized_position(Frequency::from_ghz(2.0)), 1.0);
    }
}
