//! Discrete-event queue.
//!
//! A classic priority queue keyed by a point on the day-granular
//! [`SimTime`] world clock with a monotonically increasing sequence number
//! as tiebreaker, so events scheduled for the same day fire in insertion
//! order (deterministic FIFO within an instant). That `(fire_time, seq)`
//! order is what makes the world's event order a pure function of the
//! schedule.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// ```
/// use simcore::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime(5), "later");
/// q.schedule(SimTime(1), "first");
/// q.schedule(SimTime(1), "second");
/// assert_eq!(q.pop(), Some((SimTime(1), "first")));
/// assert_eq!(q.pop(), Some((SimTime(1), "second")));
/// assert_eq!(q.pop(), Some((SimTime(5), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::EPOCH,
        }
    }

    /// The time of the most recently popped event (starts at the epoch).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past (before
    /// `now`) is a logic error and panics — it would silently reorder the
    /// timeline otherwise.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling event at {at} before current time {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedule `event` `delay` days after the current time and
    /// return the absolute instant it will fire — the enqueue→fire window
    /// callers (e.g. causal tracing) can attribute as queue wait. A
    /// negative delay panics via the past-scheduling check in
    /// [`Self::schedule`].
    pub fn schedule_in(&mut self, delay: i32, event: E) -> SimTime {
        let at = self.now + delay;
        self.schedule(at, event);
        at
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Peek at the next event time without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 'c');
        q.schedule(SimTime(2), 'a');
        q.schedule(SimTime(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn now_advances() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(3), ());
        q.schedule(SimTime(7), ());
        assert_eq!(q.now(), SimTime::EPOCH);
        q.pop();
        assert_eq!(q.now(), SimTime(3));
        q.pop();
        assert_eq!(q.now(), SimTime(7));
    }

    #[test]
    #[should_panic]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), ());
        q.pop();
        q.schedule(SimTime(4), ());
    }

    #[test]
    fn schedule_in_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), 1);
        q.pop();
        q.schedule_in(2, 2);
        assert_eq!(q.pop(), Some((SimTime(7), 2)));
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), ());
        assert_eq!(q.peek_time(), Some(SimTime(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
