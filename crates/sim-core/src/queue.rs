//! The pending-event set: a priority queue ordered by `(time, sequence)`.
//!
//! Ties at the same instant are broken by insertion order, which makes
//! simulations deterministic: the same schedule calls always replay in the
//! same order. Events can be cancelled by [`EventId`]: cancellation leaves a
//! tombstone, and the cancelled entry is dropped lazily when it reaches the
//! front. Scheduling touches nothing but the heap, and popping reads the
//! tombstone set only while it is non-empty.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::fxhash::FxHashSet;
use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of future events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers of entries still in `heap` that were cancelled.
    cancelled: FxHashSet<u64>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: FxHashSet::default(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated instant (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time — the past is immutable.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        EventId(seq)
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a scheduled event. Returns `true` if the event had not yet
    /// fired or been cancelled; `false` for already-fired, already-cancelled,
    /// or unknown ids.
    ///
    /// Telling a pending id from a fired one scans the heap, so this is
    /// O(pending events); the simulation's own event paths never cancel.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.cancelled.contains(&id.0) || !self.heap.iter().any(|e| e.seq == id.0) {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// Pops the front entry if it was cancelled. Returns `false` when the
    /// front entry is live (or the heap is empty).
    fn discard_cancelled_front(&mut self) -> bool {
        match self.heap.peek() {
            Some(front) if !self.cancelled.is_empty() && self.cancelled.remove(&front.seq) => {
                self.heap.pop();
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its firing time. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while self.discard_cancelled_front() {}
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// The firing time of the next live event, if any, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while self.discard_cancelled_front() {}
        self.heap.peek().map(|e| e.at)
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        // Every tombstone names an entry still in the heap.
        self.heap.len() - self.cancelled.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_at(t, 1);
        q.schedule_at(t, 2);
        q.schedule_at(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(2), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(12));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(5), ());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_after_fire_is_harmless() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.pop();
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }
}
