//! Advanced reservations.
//!
//! SLURM reservations carve out time × resources for a purpose. The paper
//! extends them with a `Watts` parameter so that an amount of *power* can be
//! reserved for a time slot (the powercap reservation), and the offline part
//! of the algorithm materialises its decisions as *switch-off* reservations
//! on specific node groups.

use apc_power::Watts;

use crate::mask::NodeMask;
use crate::time::{SimTime, TimeWindow};

/// Dense reservation identifier.
pub type ReservationId = usize;

/// What a reservation reserves.
#[derive(Debug, Clone, PartialEq)]
pub enum ReservationKind {
    /// A powercap window: during the window the cluster's power consumption
    /// must stay below the given budget (the paper's `Watts` reservation
    /// parameter / `PowerCap` controller state).
    PowerCap {
        /// The power budget during the window.
        cap: Watts,
    },
    /// A switch-off window on specific nodes, created by the offline part of
    /// the powercap algorithm to harvest the power bonus.
    SwitchOff {
        /// Nodes to power down during the window.
        nodes: Vec<usize>,
    },
    /// A maintenance window: the nodes are drained but stay powered.
    Maintenance {
        /// Nodes unavailable to jobs during the window.
        nodes: Vec<usize>,
    },
}

/// A reservation: a kind plus a time window.
#[derive(Debug, Clone, PartialEq)]
pub struct Reservation {
    /// Identifier assigned by the controller.
    pub id: ReservationId,
    /// The reserved window.
    pub window: TimeWindow,
    /// What is reserved.
    pub kind: ReservationKind,
}

impl Reservation {
    /// Build a reservation (ids are normally assigned by the controller).
    pub fn new(id: ReservationId, window: TimeWindow, kind: ReservationKind) -> Self {
        Reservation { id, window, kind }
    }

    /// Is the reservation active at instant `t`?
    pub fn active_at(&self, t: SimTime) -> bool {
        self.window.contains(t)
    }

    /// Does the reservation overlap `[start, end)`?
    pub fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.window.overlaps(start, end)
    }

    /// The power cap carried by the reservation, if it is a powercap one.
    pub fn cap(&self) -> Option<Watts> {
        match &self.kind {
            ReservationKind::PowerCap { cap } => Some(*cap),
            _ => None,
        }
    }

    /// The nodes blocked by the reservation, if any.
    pub fn blocked_nodes(&self) -> Option<&[usize]> {
        match &self.kind {
            ReservationKind::SwitchOff { nodes } | ReservationKind::Maintenance { nodes } => {
                Some(nodes)
            }
            ReservationKind::PowerCap { .. } => None,
        }
    }
}

/// Registry of reservations known to the controller.
#[derive(Debug, Clone, Default)]
pub struct ReservationBook {
    reservations: Vec<Reservation>,
}

impl ReservationBook {
    /// An empty registry.
    pub fn new() -> Self {
        ReservationBook::default()
    }

    /// Register a reservation, assigning it the next identifier.
    pub fn add(&mut self, window: TimeWindow, kind: ReservationKind) -> ReservationId {
        let id = self.reservations.len();
        self.reservations.push(Reservation::new(id, window, kind));
        id
    }

    /// Look a reservation up.
    pub fn get(&self, id: ReservationId) -> Option<&Reservation> {
        self.reservations.get(id)
    }

    /// All reservations.
    pub fn all(&self) -> &[Reservation] {
        &self.reservations
    }

    /// Number of registered reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// The tightest power cap applying at instant `t` (powercap reservations
    /// may overlap; the minimum wins).
    pub fn cap_at(&self, t: SimTime) -> Option<Watts> {
        self.reservations
            .iter()
            .filter(|r| r.active_at(t))
            .filter_map(Reservation::cap)
            .fold(None, |acc, c| Some(acc.map_or(c, |a: Watts| a.min(c))))
    }

    /// The tightest power cap applying anywhere inside `[start, end)` — what
    /// the online algorithm checks before starting a job whose execution may
    /// overlap a future powercap window.
    pub fn cap_within(&self, start: SimTime, end: SimTime) -> Option<Watts> {
        self.reservations
            .iter()
            .filter(|r| r.overlaps(start, end))
            .filter_map(Reservation::cap)
            .fold(None, |acc, c| Some(acc.map_or(c, |a: Watts| a.min(c))))
    }

    /// Nodes blocked (drained or powered off) by reservations overlapping
    /// `[start, end)`.
    pub fn blocked_nodes_within(&self, start: SimTime, end: SimTime) -> Vec<usize> {
        let mut mask = NodeMask::default();
        self.collect_blocked_within(start, end, &mut mask);
        mask.iter().collect()
    }

    /// Union the nodes blocked by reservations overlapping `[start, end)`
    /// into `out` (which the caller clears when a fresh set is wanted) —
    /// the allocation-free form the scheduling hot path uses.
    pub fn collect_blocked_within(&self, start: SimTime, end: SimTime, out: &mut NodeMask) {
        for reservation in &self.reservations {
            if !reservation.overlaps(start, end) {
                continue;
            }
            if let Some(nodes) = reservation.blocked_nodes() {
                out.extend(nodes.iter().copied());
            }
        }
    }

    /// The piecewise cap profile over `[start, end)`: maximal sub-windows in
    /// chronological order, each with the tightest cap active throughout it.
    /// Uncapped gaps are omitted; adjacent sub-windows with the same cap are
    /// merged. This resolves a time-varying schedule (one powercap
    /// reservation per segment) segment-wise instead of collapsing the whole
    /// range to a single min as [`cap_within`](Self::cap_within) does.
    pub fn cap_profile_within(&self, start: SimTime, end: SimTime) -> Vec<(TimeWindow, Watts)> {
        if start >= end {
            return Vec::new();
        }
        // Breakpoints: every powercap window edge clamped into [start, end).
        let mut cuts: Vec<SimTime> = vec![start, end];
        for r in &self.reservations {
            if r.cap().is_none() || !r.overlaps(start, end) {
                continue;
            }
            cuts.push(r.window.start.clamp(start, end));
            cuts.push(r.window.end.clamp(start, end));
        }
        cuts.sort_unstable();
        cuts.dedup();
        // Between adjacent breakpoints the active set is constant, so the
        // cap at the left edge holds over the whole piece.
        let mut profile: Vec<(TimeWindow, Watts)> = Vec::new();
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let Some(cap) = self.cap_at(a) else {
                continue;
            };
            match profile.last_mut() {
                Some((w, c)) if w.end == a && *c == cap => w.end = b,
                _ => profile.push((TimeWindow::new(a, b), cap)),
            }
        }
        profile
    }

    /// Powercap reservations overlapping `[start, end)`.
    pub fn powercaps_within(&self, start: SimTime, end: SimTime) -> Vec<&Reservation> {
        self.reservations
            .iter()
            .filter(|r| r.overlaps(start, end) && r.cap().is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book_with_cap() -> ReservationBook {
        let mut book = ReservationBook::new();
        book.add(
            TimeWindow::new(3600, 7200),
            ReservationKind::PowerCap {
                cap: Watts(500_000.0),
            },
        );
        book.add(
            TimeWindow::new(3600, 7200),
            ReservationKind::SwitchOff {
                nodes: vec![0, 1, 2],
            },
        );
        book
    }

    #[test]
    fn ids_are_sequential() {
        let book = book_with_cap();
        assert_eq!(book.len(), 2);
        assert_eq!(book.get(0).unwrap().id, 0);
        assert_eq!(book.get(1).unwrap().id, 1);
        assert!(book.get(2).is_none());
        assert!(!book.is_empty());
    }

    #[test]
    fn cap_lookup_by_instant_and_window() {
        let book = book_with_cap();
        assert_eq!(book.cap_at(0), None);
        assert_eq!(book.cap_at(3600), Some(Watts(500_000.0)));
        assert_eq!(book.cap_at(7199), Some(Watts(500_000.0)));
        assert_eq!(book.cap_at(7200), None);
        // Window queries.
        assert_eq!(book.cap_within(0, 3600), None);
        assert_eq!(book.cap_within(0, 3601), Some(Watts(500_000.0)));
        assert_eq!(book.cap_within(7200, 9000), None);
    }

    #[test]
    fn tightest_cap_wins_on_overlap() {
        let mut book = book_with_cap();
        book.add(
            TimeWindow::new(5000, 6000),
            ReservationKind::PowerCap {
                cap: Watts(300_000.0),
            },
        );
        assert_eq!(book.cap_at(4000), Some(Watts(500_000.0)));
        assert_eq!(book.cap_at(5500), Some(Watts(300_000.0)));
        assert_eq!(book.cap_within(0, 100_000), Some(Watts(300_000.0)));
    }

    #[test]
    fn blocked_nodes_and_powercaps() {
        let mut book = book_with_cap();
        book.add(
            TimeWindow::new(4000, 5000),
            ReservationKind::Maintenance { nodes: vec![2, 7] },
        );
        let blocked = book.blocked_nodes_within(3600, 7200);
        assert_eq!(blocked, vec![0, 1, 2, 7]);
        assert!(book.blocked_nodes_within(0, 100).is_empty());
        assert_eq!(book.powercaps_within(0, 10_000).len(), 1);
        assert_eq!(book.powercaps_within(0, 3600).len(), 0);
    }

    #[test]
    fn cap_profile_resolves_segment_wise() {
        let mut book = ReservationBook::new();
        // A day/night-style schedule: two disjoint segments with different
        // caps, registered as independent powercap reservations.
        book.add(
            TimeWindow::new(0, 1000),
            ReservationKind::PowerCap { cap: Watts(800.0) },
        );
        book.add(
            TimeWindow::new(2000, 3000),
            ReservationKind::PowerCap { cap: Watts(400.0) },
        );
        let profile = book.cap_profile_within(0, 4000);
        assert_eq!(
            profile,
            vec![
                (TimeWindow::new(0, 1000), Watts(800.0)),
                (TimeWindow::new(2000, 3000), Watts(400.0)),
            ]
        );
        // Clamping: a query inside one segment sees only that slice.
        assert_eq!(
            book.cap_profile_within(500, 2500),
            vec![
                (TimeWindow::new(500, 1000), Watts(800.0)),
                (TimeWindow::new(2000, 2500), Watts(400.0)),
            ]
        );
        // Empty and uncapped ranges produce empty profiles.
        assert!(book.cap_profile_within(1000, 2000).is_empty());
        assert!(book.cap_profile_within(3000, 3000).is_empty());
    }

    #[test]
    fn cap_profile_overlaps_take_the_min_and_merge_equal_neighbours() {
        let mut book = book_with_cap(); // 500 kW over [3600, 7200)
        book.add(
            TimeWindow::new(5000, 6000),
            ReservationKind::PowerCap {
                cap: Watts(300_000.0),
            },
        );
        let profile = book.cap_profile_within(0, 10_000);
        assert_eq!(
            profile,
            vec![
                (TimeWindow::new(3600, 5000), Watts(500_000.0)),
                (TimeWindow::new(5000, 6000), Watts(300_000.0)),
                (TimeWindow::new(6000, 7200), Watts(500_000.0)),
            ]
        );
        // Two abutting reservations with the same cap merge into one piece.
        let mut book = ReservationBook::new();
        book.add(
            TimeWindow::new(0, 100),
            ReservationKind::PowerCap { cap: Watts(9.0) },
        );
        book.add(
            TimeWindow::new(100, 200),
            ReservationKind::PowerCap { cap: Watts(9.0) },
        );
        assert_eq!(
            book.cap_profile_within(0, 300),
            vec![(TimeWindow::new(0, 200), Watts(9.0))]
        );
    }

    #[test]
    fn reservation_accessors() {
        let r = Reservation::new(
            0,
            TimeWindow::new(10, 20),
            ReservationKind::PowerCap { cap: Watts(1.0) },
        );
        assert!(r.active_at(10));
        assert!(!r.active_at(20));
        assert!(r.overlaps(19, 30));
        assert!(!r.overlaps(20, 30));
        assert_eq!(r.cap(), Some(Watts(1.0)));
        assert_eq!(r.blocked_nodes(), None);
        let s = Reservation::new(
            1,
            TimeWindow::new(10, 20),
            ReservationKind::SwitchOff { nodes: vec![5] },
        );
        assert_eq!(s.cap(), None);
        assert_eq!(s.blocked_nodes(), Some(&[5][..]));
    }
}
