//! Property tests for the usage window and the token policy in isolation.

use ks_sim_core::time::{SimDuration, SimTime};
use ks_vgpu::policy::{select_next, Candidate};
use ks_vgpu::{ClientId, ShareSpec, UsageWindow};
use proptest::prelude::*;

proptest! {
    /// Usage is always a fraction in [0, 1], whatever the hold pattern.
    #[test]
    fn usage_is_always_a_fraction(
        holds in proptest::collection::vec((0u64..5_000, 1u64..500), 1..50),
        query_offset in 0u64..10_000,
    ) {
        let mut w = UsageWindow::new(SimDuration::from_millis(1_000));
        let c = ClientId(1);
        let mut last_end = SimTime::ZERO;
        for (gap, len) in holds {
            let t = last_end + SimDuration::from_millis(gap);
            let end = t + SimDuration::from_millis(len);
            w.begin_hold(t, c);
            w.end_hold(end, c);
            last_end = end;
        }
        let q = last_end + SimDuration::from_millis(query_offset);
        let u = w.usage(q, c);
        prop_assert!((0.0..=1.0).contains(&u), "usage {u}");
    }

    /// Continuous holding reads 1.0; full idleness reads 0.0 after the
    /// window has slid past.
    #[test]
    fn usage_extremes(window_ms in 100u64..5_000, hold_ms in 100u64..5_000) {
        let mut w = UsageWindow::new(SimDuration::from_millis(window_ms));
        let c = ClientId(1);
        w.begin_hold(SimTime::ZERO, c);
        let u = w.usage(SimTime::from_millis(hold_ms), c);
        prop_assert!((u - 1.0).abs() < 1e-9, "continuous holder reads {u}");
        w.end_hold(SimTime::from_millis(hold_ms), c);
        // Far in the future the hold has left the window entirely.
        let far = SimTime::from_millis(hold_ms + 2 * window_ms + 1);
        prop_assert_eq!(w.usage(far, c), 0.0);
    }

    /// The running-total `usage` equals a brute-force re-sum of every hold
    /// interval clipped to the window, bit for bit, under interleaved holds
    /// and non-decreasing queries across several clients.
    #[test]
    fn usage_matches_brute_force_resum(
        window_us in 1u64..20_000,
        steps in proptest::collection::vec((0u64..4_000, 0usize..3, any::<bool>()), 1..300),
    ) {
        let window = SimDuration::from_micros(window_us);
        let mut w = UsageWindow::new(window);
        // Per client: every closed interval ever, and the open hold.
        let mut closed: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); 3];
        let mut open: Vec<Option<SimTime>> = vec![None; 3];
        let mut now = SimTime::ZERO;
        for (dt, client, toggle) in steps {
            now += SimDuration::from_micros(dt);
            let c = ClientId(client as u64);
            if toggle {
                match open[client].take() {
                    Some(start) => {
                        w.end_hold(now, c);
                        closed[client].push((start, now));
                    }
                    None => {
                        w.begin_hold(now, c);
                        open[client] = Some(now);
                    }
                }
                continue;
            }
            let horizon = SimTime::from_micros(now.as_micros().saturating_sub(window_us));
            let mut held = SimDuration::ZERO;
            for &(start, end) in &closed[client] {
                held += end.saturating_since(start.max(horizon));
            }
            if let Some(start) = open[client] {
                held += now.saturating_since(start.max(horizon));
            }
            let denom = now.saturating_since(horizon).max(SimDuration::from_micros(1));
            let want = (held.as_micros() as f64 / denom.as_micros() as f64).clamp(0.0, 1.0);
            let got = w.usage(now, c);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "client {} at {}: {} vs {}", client, now, got, want);
        }
    }

    /// The policy never selects a candidate at or over its limit, and if
    /// anyone is strictly below their request, the winner is one of the
    /// most-deprived such candidates.
    #[test]
    fn policy_respects_limit_and_request_priority(
        cands in proptest::collection::vec((0.05f64..1.0, 0.0f64..1.0, 0.0f64..1.2), 1..10)
    ) {
        let candidates: Vec<Candidate> = cands
            .iter()
            .enumerate()
            .map(|(i, &(request, headroom, usage))| Candidate {
                client: ClientId(i as u64 + 1),
                spec: ShareSpec {
                    request,
                    limit: (request + headroom).min(1.0).max(request),
                    mem: 0.5,
                },
                usage,
            })
            .collect();
        match select_next(&candidates) {
            None => {
                // Only legal if every candidate is at/over its limit.
                for c in &candidates {
                    prop_assert!(c.usage >= c.spec.limit - 1e-9, "{c:?} was eligible");
                }
            }
            Some(winner) => {
                let w = candidates.iter().find(|c| c.client == winner).unwrap();
                prop_assert!(w.usage < w.spec.limit, "winner at its limit: {w:?}");
                let deprived: Vec<&Candidate> = candidates
                    .iter()
                    .filter(|c| c.usage < c.spec.request - 1e-9 && c.usage < c.spec.limit - 1e-9)
                    .collect();
                if !deprived.is_empty() {
                    let max_gap = deprived
                        .iter()
                        .map(|c| c.spec.request - c.usage)
                        .fold(f64::MIN, f64::max);
                    let w_gap = w.spec.request - w.usage;
                    prop_assert!(
                        w_gap >= max_gap - 1e-9,
                        "winner gap {w_gap} < max gap {max_gap}"
                    );
                }
            }
        }
    }

    /// Permuting the candidate list never changes the selection.
    #[test]
    fn policy_is_order_independent(
        cands in proptest::collection::vec((0.05f64..1.0, 0.0f64..0.5, 0.0f64..1.0), 2..8),
        rotate in 0usize..8,
    ) {
        let candidates: Vec<Candidate> = cands
            .iter()
            .enumerate()
            .map(|(i, &(request, headroom, usage))| Candidate {
                client: ClientId(i as u64 + 1),
                spec: ShareSpec {
                    request,
                    limit: (request + headroom).min(1.0).max(request),
                    mem: 0.5,
                },
                usage,
            })
            .collect();
        let mut rotated = candidates.clone();
        let k = rotate % rotated.len();
        rotated.rotate_left(k);
        prop_assert_eq!(select_next(&candidates), select_next(&rotated));
    }
}
