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
            ReservationKind::SwitchOff { nodes } => Some(nodes),
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

    /// The tightest power cap applying anywhere inside `[start, end)` — what
    /// the online algorithm checks before starting a job whose execution may
    /// overlap a future powercap window. Powercap reservations may overlap,
    /// and a time-varying schedule is one reservation per segment: the
    /// minimum over every one of them wins, which is the safe check for a
    /// job whose draw lasts the whole window.
    pub fn cap_within(&self, start: SimTime, end: SimTime) -> Option<Watts> {
        self.reservations
            .iter()
            .filter(|r| r.overlaps(start, end))
            .filter_map(Reservation::cap)
            .fold(None, |acc, c| Some(acc.map_or(c, |a: Watts| a.min(c))))
    }

    /// Union the nodes that switch-off reservations overlapping
    /// `[start, end)` hold off into `out`, which the caller clears when a
    /// fresh set is wanted. The controller's prefix blocked sets are checked
    /// against this.
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
        // One-second windows: the cap at an instant.
        assert_eq!(book.cap_within(0, 1), None);
        assert_eq!(book.cap_within(3600, 3601), Some(Watts(500_000.0)));
        assert_eq!(book.cap_within(7199, 7200), Some(Watts(500_000.0)));
        assert_eq!(book.cap_within(7200, 7201), None);
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
        assert_eq!(book.cap_within(4000, 4001), Some(Watts(500_000.0)));
        assert_eq!(book.cap_within(5500, 5501), Some(Watts(300_000.0)));
        assert_eq!(book.cap_within(0, 100_000), Some(Watts(300_000.0)));
    }

    #[test]
    fn blocked_nodes_and_powercaps() {
        let mut book = book_with_cap();
        book.add(
            TimeWindow::new(4000, 5000),
            ReservationKind::SwitchOff { nodes: vec![2, 7] },
        );
        // The switch-off nodes, never the power cap's.
        let mut blocked = NodeMask::default();
        book.collect_blocked_within(3600, 7200, &mut blocked);
        assert_eq!(blocked.iter().collect::<Vec<_>>(), vec![0, 1, 2, 7]);
        blocked.clear();
        book.collect_blocked_within(0, 100, &mut blocked);
        assert!(blocked.is_empty());
    }

    #[test]
    fn reservation_accessors() {
        let r = Reservation::new(
            0,
            TimeWindow::new(10, 20),
            ReservationKind::PowerCap { cap: Watts(1.0) },
        );
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
