//! The pending-event set: a calendar queue ordered by `(time, sequence)`.
//!
//! Ties at the same instant are broken by insertion order, which makes
//! simulations deterministic: the same schedule calls always replay in the
//! same order.
//!
//! Events live in a ring of [`RING`] slots, each [`SLOT_US`] µs wide,
//! covering the next ~1 s of simulated time; anything further out waits in
//! a min-heap (`far`) and moves into the ring as the clock approaches it.
//! An occupancy bitmap finds the next non-empty slot. The *current* slot
//! (the one holding `now`) is kept sorted descending by `(time, sequence)`,
//! so the next event is a `Vec::pop`; every other slot is an unsorted
//! `Vec` that is sorted once, when it becomes current.
//!
//! Invariants:
//! - `cursor` is the absolute slot number of `now`, and only [`EventQueue::pop`]
//!   advances it. [`EventQueue::peek_time`] reads ahead without moving it,
//!   so a caller may peek, stop, and still schedule between `now` and the
//!   peeked time.
//! - The ring holds exactly the events whose slot number lies in
//!   `cursor .. cursor + RING`; `far` holds the rest.
//!
//! Every key `(time, sequence)` is unique and `pop` always returns the
//! least one, so the pop order is the same as a single binary heap's.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// log2 of a slot's width in µs.
const SLOT_BITS: u32 = 10;
/// A slot's width: 1,024 µs.
const SLOT_US: u64 = 1 << SLOT_BITS;
/// Slots in the ring; the ring spans `RING * SLOT_US` ≈ 1.05 s.
const RING: usize = 1024;
const WORDS: usize = RING / 64;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Slots sorted by this order are descending, minimum last.
        other.key().cmp(&self.key())
    }
}

/// The absolute slot number of an instant.
fn slot_of(at: SimTime) -> u64 {
    at.as_micros() / SLOT_US
}

/// Priority queue of future events.
pub struct EventQueue<E> {
    ring: Box<[Vec<Entry<E>>]>,
    /// Bit `i` is set iff `ring[i]` is non-empty.
    occupied: [u64; WORDS],
    /// Events at or beyond the ring's horizon.
    far: BinaryHeap<Entry<E>>,
    /// Absolute slot number of `now`.
    cursor: u64,
    len: usize,
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
            ring: (0..RING).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
            cursor: 0,
            len: 0,
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
        self.len += 1;
        let entry = Entry { at, seq, event };
        if slot_of(at) == self.cursor {
            // The current slot stays sorted descending: the new entry goes
            // after every later key, before every earlier one.
            let cur = self.cursor as usize % RING;
            let slot = &mut self.ring[cur];
            let pos = slot.partition_point(|e| e.key() > (at, seq));
            slot.insert(pos, entry);
            self.mark(cur);
        } else {
            self.place(entry);
        }
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
    /// Finding the event scans the pending set, so this is O(pending
    /// events); the simulation's own event paths never cancel.
    pub fn cancel(&mut self, id: EventId) -> bool {
        for w in 0..WORDS {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(pos) = self.ring[i].iter().position(|e| e.seq == id.0) {
                    // `remove` keeps the current slot's order.
                    self.ring[i].remove(pos);
                    self.unmark_if_empty(i);
                    self.len -= 1;
                    return true;
                }
            }
        }
        let before = self.far.len();
        self.far.retain(|e| e.seq != id.0);
        if self.far.len() < before {
            self.len -= 1;
            return true;
        }
        false
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its firing time. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ring[self.cursor as usize % RING].is_empty() {
            self.cursor = self.next_slot()?;
            self.refill_from_far();
            let slot = &mut self.ring[self.cursor as usize % RING];
            slot.sort_unstable_by_key(|e| Reverse(e.key()));
        }
        let i = self.cursor as usize % RING;
        let entry = self.ring[i].pop().expect("current slot is non-empty");
        self.unmark_if_empty(i);
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.len -= 1;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// The firing time of the next event, if any, without popping it and
    /// without moving the clock or the cursor.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(e) = self.ring[self.cursor as usize % RING].last() {
            return Some(e.at);
        }
        let next = self.next_slot()?;
        if next - self.cursor < RING as u64 {
            // A slot ahead of the cursor is unsorted; scan it for the minimum.
            self.ring[next as usize % RING].iter().map(|e| e.at).min()
        } else {
            self.far.peek().map(|e| e.at)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mark(&mut self, i: usize) {
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    fn unmark_if_empty(&mut self, i: usize) {
        if self.ring[i].is_empty() {
            self.occupied[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Files an entry whose slot is after the cursor: into the ring if it
    /// falls inside the horizon, into `far` otherwise.
    fn place(&mut self, entry: Entry<E>) {
        let ahead = slot_of(entry.at) - self.cursor;
        if ahead < RING as u64 {
            let i = slot_of(entry.at) as usize % RING;
            self.ring[i].push(entry);
            self.mark(i);
        } else {
            self.far.push(entry);
        }
    }

    /// Moves the `far` entries that the cursor's advance brought inside
    /// the horizon into the ring.
    fn refill_from_far(&mut self) {
        while self
            .far
            .peek()
            .is_some_and(|e| slot_of(e.at) - self.cursor < RING as u64)
        {
            let entry = self.far.pop().expect("peeked");
            self.place(entry);
        }
    }

    /// The absolute number of the first non-empty slot after the cursor:
    /// the next occupied ring slot, else the slot of `far`'s minimum.
    /// `None` when nothing is pending after the current slot.
    fn next_slot(&self) -> Option<u64> {
        let cur = self.cursor as usize % RING;
        // Ring slots in cursor order: the rest of `cur`'s word above `cur`,
        // the following words, then the low part of `cur`'s word (slots
        // a whole lap ahead). `cur` itself is empty when this is called.
        let w0 = cur / 64;
        let above = self.occupied[w0] & (!0u64 << (cur % 64));
        let found = (above != 0)
            .then(|| w0 * 64 + above.trailing_zeros() as usize)
            .or_else(|| {
                (1..=WORDS).find_map(|k| {
                    let w = (w0 + k) % WORDS;
                    let bits = self.occupied[w];
                    (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
                })
            });
        match found {
            Some(i) => Some(self.cursor + ((i + RING - cur) % RING) as u64),
            None => self.far.peek().map(|e| slot_of(e.at)),
        }
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

    #[test]
    fn peek_does_not_move_the_cursor() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(500), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(500)));
        // Scheduling before the peeked time is still allowed and pops first.
        q.schedule_at(SimTime::from_micros(1), "early");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "late"]);
    }

    #[test]
    fn far_events_join_the_ring_in_order() {
        let mut q = EventQueue::new();
        // Beyond the ~1 s horizon, on the far edge of a lap, and at the end
        // of time.
        q.schedule_at(SimTime::MAX, 3);
        q.schedule_at(SimTime::from_secs(5), 1);
        q.schedule_at(SimTime::from_micros(RING as u64 * SLOT_US), 0);
        q.schedule_at(SimTime::from_secs(5), 2);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            got,
            vec![
                (SimTime::from_micros(RING as u64 * SLOT_US), 0),
                (SimTime::from_secs(5), 1),
                (SimTime::from_secs(5), 2),
                (SimTime::MAX, 3),
            ]
        );
    }
}
