//! Simulation time.
//!
//! The whole workspace uses plain seconds on a `u64` simulation clock. The
//! helpers here exist mainly for readability of scenario definitions
//! ("2 hours into the interval", "a 1-hour window").

/// Simulation time, in seconds since the start of the replayed interval.
pub type SimTime = u64;

/// One minute, in seconds.
pub const MINUTE: SimTime = 60;
/// One hour, in seconds.
pub const HOUR: SimTime = 3600;
/// One day, in seconds.
pub const DAY: SimTime = 24 * HOUR;

/// A half-open time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeWindow {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl TimeWindow {
    /// Build a window; `end` must not precede `start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "time window end precedes start");
        TimeWindow { start, end }
    }

    /// Build a window from a start time and a duration.
    pub fn with_duration(start: SimTime, duration: SimTime) -> Self {
        TimeWindow::new(start, start.saturating_add(duration))
    }

    /// Window length in seconds.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }

    /// Does the window contain instant `t`?
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Does this window overlap `[start, end)`?
    pub fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && start < self.end
    }

    /// Does this window overlap another window?
    pub fn overlaps_window(&self, other: &TimeWindow) -> bool {
        self.overlaps(other.start, other.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_basics() {
        let w = TimeWindow::new(100, 200);
        assert_eq!(w.duration(), 100);
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
        assert!(!w.contains(99));
    }

    #[test]
    fn window_with_duration() {
        let w = TimeWindow::with_duration(2 * HOUR, HOUR);
        assert_eq!(w.start, 7200);
        assert_eq!(w.end, 10800);
        assert_eq!(w.duration(), HOUR);
    }

    #[test]
    fn overlap_semantics_are_half_open() {
        let w = TimeWindow::new(100, 200);
        assert!(w.overlaps(150, 250));
        assert!(w.overlaps(50, 101));
        assert!(!w.overlaps(200, 300), "touching at the end is not overlap");
        assert!(!w.overlaps(0, 100), "touching at the start is not overlap");
        assert!(w.overlaps_window(&TimeWindow::new(199, 500)));
    }

    #[test]
    #[should_panic(expected = "end precedes start")]
    fn rejects_negative_windows() {
        let _ = TimeWindow::new(10, 5);
    }

    #[test]
    fn constants() {
        assert_eq!(MINUTE * 60, HOUR);
        assert_eq!(HOUR * 24, DAY);
    }
}
