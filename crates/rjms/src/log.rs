//! Simulation event log.
//!
//! The controller appends a [`SimEvent`] for every externally visible action.
//! The replay crate reconstructs the paper's utilisation and power time
//! series (Figures 6 and 7) from this log, and the tests use it to assert on
//! scheduler behaviour without poking at controller internals.

use apc_power::{Frequency, Watts};

use crate::job::JobId;
use crate::reservation::ReservationId;
use crate::time::SimTime;

/// The kind of a logged event.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEventKind {
    /// A job entered the pending queue.
    JobSubmitted {
        /// Job identifier.
        job: JobId,
        /// Cores requested.
        cores: u32,
    },
    /// A job was dispatched.
    JobStarted {
        /// Job identifier.
        job: JobId,
        /// Cores allocated.
        cores: u32,
        /// Number of nodes allocated.
        nodes: usize,
        /// CPU frequency selected by the scheduler.
        frequency: Frequency,
    },
    /// A job finished normally.
    JobCompleted {
        /// Job identifier.
        job: JobId,
        /// Cores released.
        cores: u32,
        /// Frequency it was running at.
        frequency: Frequency,
    },
    /// A job was killed (powercap extreme actions or walltime excess).
    JobKilled {
        /// Job identifier.
        job: JobId,
        /// Cores released.
        cores: u32,
        /// Frequency it was running at.
        frequency: Frequency,
    },
    /// Nodes were powered off: free nodes gaining their first hold (a
    /// switch-off window starting, an outage), or held nodes a job released.
    NodesPoweredOff {
        /// The nodes switched off at this instant.
        nodes: Vec<usize>,
    },
    /// Nodes were powered back on: their last hold went.
    NodesPoweredOn {
        /// The nodes powered on at this instant.
        nodes: Vec<usize>,
    },
    /// A powercap window opened.
    CapActivated {
        /// Reservation carrying the cap.
        reservation: ReservationId,
        /// The power budget.
        cap: Watts,
    },
    /// A powercap window closed.
    CapDeactivated {
        /// Reservation carrying the cap.
        reservation: ReservationId,
    },
}

/// A timestamped log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SimEvent {
    /// Simulation time of the event.
    pub time: SimTime,
    /// What happened.
    pub kind: SimEventKind,
}

/// Append-only simulation log.
#[derive(Debug, Clone, Default)]
pub struct SimLog {
    events: Vec<SimEvent>,
}

impl SimLog {
    /// An empty log.
    pub fn new() -> Self {
        SimLog::default()
    }

    /// Append an event.
    pub fn push(&mut self, time: SimTime, kind: SimEventKind) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.time <= time),
            "log times must be monotone"
        );
        self.events.push(SimEvent { time, kind });
    }

    /// All events in chronological order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count events matching a predicate.
    pub fn count_matching(&self, mut pred: impl FnMut(&SimEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Iterate over the job-start events.
    pub fn job_starts(&self) -> impl Iterator<Item = (&SimEvent, JobId, u32, Frequency)> + '_ {
        self.events.iter().filter_map(|e| match &e.kind {
            SimEventKind::JobStarted {
                job,
                cores,
                frequency,
                ..
            } => Some((e, *job, *cores, *frequency)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut log = SimLog::new();
        assert!(log.is_empty());
        log.push(0, SimEventKind::JobSubmitted { job: 1, cores: 32 });
        log.push(
            5,
            SimEventKind::JobStarted {
                job: 1,
                cores: 32,
                nodes: 2,
                frequency: Frequency::from_ghz(2.7),
            },
        );
        log.push(
            60,
            SimEventKind::JobCompleted {
                job: 1,
                cores: 32,
                frequency: Frequency::from_ghz(2.7),
            },
        );
        assert_eq!(log.len(), 3);
        assert_eq!(log.events()[1].time, 5);
        assert_eq!(
            log.count_matching(|e| matches!(e.kind, SimEventKind::JobStarted { .. })),
            1
        );
        let starts: Vec<_> = log.job_starts().collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(starts[0].1, 1);
        assert_eq!(starts[0].2, 32);
    }

    #[test]
    fn power_events() {
        let mut log = SimLog::new();
        log.push(
            10,
            SimEventKind::CapActivated {
                reservation: 0,
                cap: Watts(100.0),
            },
        );
        log.push(10, SimEventKind::NodesPoweredOff { nodes: vec![1, 2] });
        log.push(20, SimEventKind::NodesPoweredOn { nodes: vec![1, 2] });
        log.push(20, SimEventKind::CapDeactivated { reservation: 0 });
        assert_eq!(log.len(), 4);
        assert_eq!(
            log.count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. })),
            1
        );
    }
}
