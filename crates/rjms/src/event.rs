//! Discrete-event queue.
//!
//! The controller advances a simulation clock by popping events in
//! chronological order. Ties are broken by a monotonically increasing
//! sequence number so that replays are fully deterministic regardless of the
//! insertion pattern.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::job::JobId;
use crate::reservation::ReservationId;
use crate::time::SimTime;

/// Something that happens at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// A job enters the pending queue.
    JobSubmit(JobId),
    /// A running job finishes execution.
    JobEnd(JobId),
    /// A reservation window opens (powercap becomes active, switch-off
    /// nodes get powered down, ...).
    ReservationStart(ReservationId),
    /// A reservation window closes.
    ReservationEnd(ReservationId),
    /// A node fails (fault injection): it powers off immediately and any job
    /// running on it is killed.
    NodeDown(usize),
    /// A failed node recovers: it powers back on and rejoins the idle pool.
    NodeUp(usize),
    /// End of the replayed interval: stop the simulation.
    EndOfSimulation,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedEvent {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Time-ordered event queue with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(QueuedEvent { time, seq, event }));
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse(q)| (q.time, q.event))
    }

    /// The time of the earliest queued event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(q)| q.time)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::JobEnd(1));
        q.push(10, Event::JobSubmit(1));
        q.push(20, Event::JobSubmit(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, Event::JobSubmit(1))));
        assert_eq!(q.pop(), Some((20, Event::JobSubmit(2))));
        assert_eq!(q.pop(), Some((30, Event::JobEnd(1))));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::JobSubmit(10));
        q.push(5, Event::JobSubmit(11));
        q.push(5, Event::ReservationStart(0));
        assert_eq!(q.pop(), Some((5, Event::JobSubmit(10))));
        assert_eq!(q.pop(), Some((5, Event::JobSubmit(11))));
        assert_eq!(q.pop(), Some((5, Event::ReservationStart(0))));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(100, Event::EndOfSimulation);
        q.push(1, Event::JobSubmit(0));
        assert_eq!(q.pop(), Some((1, Event::JobSubmit(0))));
        q.push(50, Event::JobEnd(0));
        q.push(2, Event::NodeUp(3));
        assert_eq!(q.pop(), Some((2, Event::NodeUp(3))));
        assert_eq!(q.pop(), Some((50, Event::JobEnd(0))));
        assert_eq!(q.pop(), Some((100, Event::EndOfSimulation)));
    }
}
