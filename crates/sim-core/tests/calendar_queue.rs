//! The calendar `EventQueue` against a plain binary-heap model.
//!
//! The queue keeps ~1 s of future events in a ring of slots and the rest in
//! a far heap; these properties drive it across that boundary (delays from
//! zero to the end of time), pile hundreds of events onto one instant,
//! schedule between `now` and a peeked time, and cancel events wherever
//! they sit. Every pop, peek, length and cancel result must match a
//! `BinaryHeap` ordered by `(time, issue order)`.
//!
//! `PROPTEST_CASES` raises the case count (CI runs 5,000 in release).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ks_sim_core::prelude::*;
use proptest::prelude::*;

/// The reference: a min-heap of `(time, issue index)`; the issue index
/// doubles as the payload and as the tie-break.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
}

impl Model {
    fn pop(&mut self) -> Option<(SimTime, usize)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    fn cancel(&mut self, idx: usize) -> bool {
        let before = self.heap.len();
        self.heap.retain(|Reverse((_, i))| *i != idx);
        self.heap.len() < before
    }
}

/// A delay in µs, drawn from scales that land in the current slot, the
/// ring, just past its ~1.05 s horizon, far beyond it, and at the end of
/// time (clamped to `SimTime::MAX` when applied).
fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => Just(0u64),
        3 => 0u64..2_048,
        3 => 0u64..1_100_000,
        2 => 1_000_000u64..1_100_000,
        2 => 0u64..60_000_000,
        1 => Just(u64::MAX),
    ]
}

/// One operation: `(kind, delay, count, pick)`.
fn op() -> impl Strategy<Value = (u8, u64, usize, usize)> {
    (0u8..7, delay(), 1usize..400, any::<usize>())
}

/// Schedules the next issue index at `at` on both sides.
fn schedule(q: &mut EventQueue<usize>, model: &mut Model, ids: &mut Vec<EventId>, at: SimTime) {
    let idx = ids.len();
    ids.push(q.schedule_at(at, idx));
    model.heap.push(Reverse((at, idx)));
}

fn at_after(now: SimTime, delay: u64) -> SimTime {
    SimTime::from_micros(now.as_micros().saturating_add(delay))
}

proptest! {
    #[test]
    fn calendar_queue_matches_binary_heap(ops in proptest::collection::vec(op(), 1..300)) {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        let mut ids: Vec<EventId> = Vec::new();
        for (kind, d, count, pick) in ops {
            match kind {
                // One event.
                0 | 1 => {
                    let at = at_after(q.now(), d);
                    schedule(&mut q, &mut model, &mut ids, at);
                }
                // Up to a few hundred events at one instant.
                2 => {
                    let at = at_after(q.now(), d);
                    for _ in 0..count {
                        schedule(&mut q, &mut model, &mut ids, at);
                    }
                }
                3 => prop_assert_eq!(q.pop(), model.pop()),
                // Peek, then schedule between `now` and the peeked time:
                // the peek must not have moved the queue past `now`.
                4 => {
                    let peeked = q.peek_time();
                    prop_assert_eq!(peeked, model.peek_time());
                    if let Some(t) = peeked {
                        let span = t.as_micros() - q.now().as_micros();
                        let at = at_after(q.now(), d % span.saturating_add(1));
                        schedule(&mut q, &mut model, &mut ids, at);
                    }
                }
                // Cancel any id ever issued: pending in the ring, pending
                // in the far heap, already fired, or already cancelled.
                5 => {
                    if !ids.is_empty() {
                        let idx = pick % ids.len();
                        prop_assert_eq!(q.cancel(ids[idx]), model.cancel(idx));
                    }
                }
                // Pop a run of events.
                _ => {
                    for _ in 0..count % 50 {
                        prop_assert_eq!(q.pop(), model.pop());
                    }
                }
            }
            prop_assert_eq!(q.len(), model.heap.len());
            prop_assert_eq!(q.is_empty(), model.heap.is_empty());
        }
        loop {
            let (got, want) = (q.pop(), model.pop());
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        for id in ids {
            prop_assert!(!q.cancel(id), "every id has fired or been cancelled");
        }
    }

    /// Events far beyond the horizon, cancelled while they wait in the far
    /// heap, never fire; the rest still pop in order once the clock
    /// reaches them.
    #[test]
    fn cancel_in_far_heap(
        delays in proptest::collection::vec(2_000_000u64..120_000_000, 1..200),
        mask in proptest::collection::vec(any::<bool>(), 200),
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        let ids: Vec<EventId> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let at = SimTime::from_micros(d);
                model.heap.push(Reverse((at, i)));
                q.schedule_at(at, i)
            })
            .collect();
        for (i, id) in ids.iter().enumerate() {
            if mask[i] {
                prop_assert!(q.cancel(*id));
                prop_assert!(model.cancel(i));
                prop_assert!(!q.cancel(*id), "double cancel");
            }
        }
        prop_assert_eq!(q.len(), model.heap.len());
        loop {
            prop_assert_eq!(q.peek_time(), model.peek_time());
            let (got, want) = (q.pop(), model.pop());
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}

/// Hundreds of events at one instant, scheduled both while that instant is
/// far ahead and after the clock has reached it, pop in issue order.
#[test]
fn hundreds_at_one_instant_keep_issue_order() {
    let mut q = EventQueue::new();
    let t = SimTime::from_secs(3);
    for i in 0..300 {
        q.schedule_at(t, i);
    }
    q.schedule_at(SimTime::from_millis(2_999), 999);
    assert_eq!(q.pop(), Some((SimTime::from_millis(2_999), 999)));
    // The clock is now in the slot before `t`'s; add more at `t` while
    // popping the first few.
    let mut got = Vec::new();
    for i in 300..600 {
        q.schedule_at(t, i);
        if i % 3 == 0 {
            got.push(q.pop().unwrap().1);
        }
    }
    got.extend(std::iter::from_fn(|| q.pop()).map(|(at, i)| {
        assert_eq!(at, t);
        i
    }));
    assert_eq!(got, (0..600).collect::<Vec<_>>());
}

/// An event at `SimTime::MAX` pops last, after which the clock is at the
/// end of time and zero-delay events still work.
#[test]
fn end_of_time() {
    let mut q = EventQueue::new();
    q.schedule_at(SimTime::MAX, "end");
    q.schedule_at(SimTime::from_secs(1), "soon");
    assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    assert_eq!(q.pop(), Some((SimTime::from_secs(1), "soon")));
    assert_eq!(q.peek_time(), Some(SimTime::MAX));
    assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
    q.schedule_in(SimDuration::ZERO, "again");
    assert_eq!(q.pop(), Some((SimTime::MAX, "again")));
    assert_eq!(q.pop(), None);
}
