//! Property-based tests for the simulation core.

use ks_sim_core::prelude::*;
use proptest::prelude::*;

proptest! {
    /// Popping the queue always yields events in non-decreasing time order,
    /// regardless of the insertion order.
    #[test]
    fn queue_pops_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Same-time events come out in insertion order (determinism).
    #[test]
    fn queue_fifo_within_instant(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_secs(1), i);
        }
        let got: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let want: Vec<usize> = (0..n).collect();
        prop_assert_eq!(got, want);
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exactly_the_cancelled(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        mask in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule_at(SimTime::from_micros(t), i)))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in &ids {
            if mask[*i % mask.len()] {
                prop_assert!(q.cancel(*id));
            } else {
                kept.push(*i);
            }
        }
        let mut got: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        got.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(got, kept);
    }

    /// Interleaved schedule / pop / cancel / peek against a sorted-map
    /// model: pop order, `len`, `is_empty`, `peek_time` and every `cancel`
    /// result (including cancel-after-fire and double cancel) agree.
    #[test]
    fn queue_state_machine_matches_model(
        ops in proptest::collection::vec((0u8..5, 0u64..2_000, any::<usize>()), 1..400),
    ) {
        use std::collections::BTreeMap;

        let mut q = EventQueue::new();
        // (time, issue order) -> payload, for events not yet fired or cancelled.
        let mut model: BTreeMap<(SimTime, usize), usize> = BTreeMap::new();
        // Every id ever issued, with its model key.
        let mut issued: Vec<(EventId, (SimTime, usize))> = Vec::new();
        for (op, delay, pick) in ops {
            match op {
                // Schedule (twice as likely as each other op).
                0 | 1 => {
                    let at = q.now() + SimDuration::from_micros(delay);
                    let key = (at, issued.len());
                    let id = q.schedule_at(at, issued.len());
                    model.insert(key, issued.len());
                    issued.push((id, key));
                }
                2 => {
                    let want = model.pop_first().map(|((at, _), e)| (at, e));
                    prop_assert_eq!(q.pop(), want);
                }
                3 => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (id, key) = issued[pick % issued.len()];
                    let want = model.remove(&key).is_some();
                    prop_assert_eq!(q.cancel(id), want);
                }
                _ => {
                    let want = model.keys().next().map(|&(at, _)| at);
                    prop_assert_eq!(q.peek_time(), want);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        let rest: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        let want: Vec<(SimTime, usize)> = model.into_iter().map(|((at, _), e)| (at, e)).collect();
        prop_assert_eq!(rest, want);
        for (id, _) in issued {
            prop_assert!(!q.cancel(id), "every id has fired or been cancelled");
        }
    }

    /// Welford accumulator agrees with the naive two-pass computation.
    #[test]
    fn online_stats_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..500)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var));
    }

    /// BusyIntegrator integral equals the hand-computed piecewise sum.
    #[test]
    fn busy_integrator_matches_manual(levels in proptest::collection::vec(0f64..8.0, 1..50)) {
        let mut b = BusyIntegrator::new(SimTime::ZERO, 0.0);
        let step = SimDuration::from_secs(1);
        let mut t = SimTime::ZERO;
        for &l in &levels {
            b.set_level(t, l);
            t += step;
        }
        let manual: f64 = levels.iter().sum(); // each level held for 1s
        prop_assert!((b.integral_until(t) - manual).abs() < 1e-6);
    }

    /// Clamped normal always lands inside the clamp interval.
    #[test]
    fn normal_clamped_in_bounds(seed in any::<u64>(), mean in -2.0f64..2.0, sd in 0.0f64..3.0) {
        let mut r = SimRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = r.normal_clamped(mean, sd, 0.0, 1.0);
            prop_assert!((0.0..=1.0).contains(&x));
        }
    }

    /// Exponential variates are non-negative and finite.
    #[test]
    fn exponential_non_negative(seed in any::<u64>(), rate in 0.01f64..100.0) {
        let mut r = SimRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = r.exponential(rate);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }
}

/// Deterministic end-to-end check: an M/D/1-style queue simulated twice with
/// the same seed produces identical completion times.
#[test]
fn engine_runs_are_reproducible() {
    fn run(seed: u64) -> Vec<SimTime> {
        struct World {
            rng: SimRng,
            busy_until: SimTime,
            completions: Vec<SimTime>,
            remaining: u32,
        }
        enum Ev {
            Arrive,
            Done,
        }
        impl SimEvent<World> for Ev {
            fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
                match self {
                    Ev::Arrive => {
                        let service = SimDuration::from_millis(50);
                        let start = now.max(w.busy_until);
                        w.busy_until = start + service;
                        q.schedule_at(w.busy_until, Ev::Done);
                        if w.remaining > 0 {
                            w.remaining -= 1;
                            let gap = w.rng.exp_interarrival(SimDuration::from_millis(40));
                            q.schedule_in(gap, Ev::Arrive);
                        }
                    }
                    Ev::Done => w.completions.push(now),
                }
            }
        }
        let mut eng = Engine::new(World {
            rng: SimRng::seed_from_u64(seed),
            busy_until: SimTime::ZERO,
            completions: Vec::new(),
            remaining: 200,
        });
        eng.queue.schedule_at(SimTime::ZERO, Ev::Arrive);
        assert_eq!(eng.run_to_completion(10_000), RunOutcome::Drained);
        eng.world.completions
    }

    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert_eq!(a, b, "same seed must replay identically");
    assert_ne!(a, c, "different seeds should differ");
    assert_eq!(a.len(), 201);
}
