//! Discrete-event queue.
//!
//! A classic priority queue keyed by a point on a virtual clock with a
//! monotonically increasing sequence number as tiebreaker, so events
//! scheduled for the same instant fire in insertion order (deterministic
//! FIFO within an instant). Two clocks use it: the day-granular [`SimTime`]
//! world queue, and the nanosecond-granular [`crate::net::NetTime`]
//! completion queue the serve load driver drains — both inherit the same
//! `(fire_time, seq)` ordering contract, which is what makes completion
//! order a pure function of the schedule and never of thread timing.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// A point on a virtual clock usable as an [`EventQueue`] key.
pub trait QueueTime: Copy + Ord + fmt::Display {
    /// The additive delay type (days for [`SimTime`], nanoseconds for
    /// [`crate::net::NetTime`]).
    type Delta: Copy;
    /// The clock's origin — where a fresh queue's `now` starts.
    const ZERO: Self;
    /// The instant `delta` after `self`.
    fn after(self, delta: Self::Delta) -> Self;
}

impl QueueTime for SimTime {
    type Delta = i32;
    const ZERO: Self = SimTime::EPOCH;
    fn after(self, delta: i32) -> Self {
        self + delta
    }
}

struct Entry<T, E> {
    at: T,
    seq: u64,
    event: E,
}

impl<T: QueueTime, E> PartialEq for Entry<T, E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T: QueueTime, E> Eq for Entry<T, E> {}
impl<T: QueueTime, E> PartialOrd for Entry<T, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: QueueTime, E> Ord for Entry<T, E> {
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
pub struct EventQueue<E, T: QueueTime = SimTime> {
    heap: BinaryHeap<Entry<T, E>>,
    seq: u64,
    now: T,
}

impl<E, T: QueueTime> Default for EventQueue<E, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, T: QueueTime> EventQueue<E, T> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: T::ZERO,
        }
    }

    /// The time of the most recently popped event (starts at the clock's
    /// origin).
    pub fn now(&self) -> T {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past (before
    /// `now`) is a logic error and panics — it would silently reorder the
    /// timeline otherwise.
    pub fn schedule(&mut self, at: T, event: E) {
        assert!(
            at >= self.now,
            "scheduling event at {at} before current time {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedule `event` `delay` clock units after the current time and
    /// return the absolute instant it will fire — the enqueue→fire window
    /// callers (e.g. causal tracing) can attribute as queue wait. A
    /// negative delay panics via the past-scheduling check in
    /// [`Self::schedule`].
    pub fn schedule_in(&mut self, delay: T::Delta, event: E) -> T {
        let at = self.now.after(delay);
        self.schedule(at, event);
        at
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(T, E)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Peek at the next event time without popping.
    pub fn peek_time(&self) -> Option<T> {
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
    use crate::net::NetTime;

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

    #[test]
    fn net_clock_queue_orders_by_nanos_then_fifo() {
        let mut q: EventQueue<char, NetTime> = EventQueue::new();
        q.schedule(NetTime(5_000), 'c');
        q.schedule(NetTime(100), 'a');
        q.schedule(NetTime(100), 'b');
        assert_eq!(q.pop(), Some((NetTime(100), 'a')));
        assert_eq!(q.pop(), Some((NetTime(100), 'b')));
        q.schedule_in(50, 'd'); // 100ns + 50ns
        assert_eq!(q.pop(), Some((NetTime(150), 'd')));
        assert_eq!(q.pop(), Some((NetTime(5_000), 'c')));
    }
}
