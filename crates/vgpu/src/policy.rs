//! The token scheduling policy (paper §4.5, three steps).
//!
//! Given the set of containers currently *requesting* the token and each
//! one's sliding-window usage:
//!
//! 1. **Filter** requesters whose usage already reached their `gpu_limit`
//!    — the hard cap is never exceeded.
//! 2. Among requesters still **below** their `gpu_request`, grant to the
//!    one *farthest* below it — this is what guarantees the minimum.
//! 3. If everyone already reached their minimum, grant to the requester
//!    with the **lowest current usage**, so residual capacity is divided
//!    fairly (elastic allocation).

use crate::spec::ShareSpec;
use crate::window::ClientId;

/// One pending token request with the requester's current usage.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Requesting container.
    pub client: ClientId,
    /// Its resource spec.
    pub spec: ShareSpec,
    /// Its sliding-window usage in `[0, 1]`.
    pub usage: f64,
}

/// Floating-point slack so a holder at exactly its cap is filtered.
const EPS: f64 = 1e-9;

impl Candidate {
    /// Still below its `gpu_request`: step 2 serves these first.
    pub(crate) fn below_request(&self) -> bool {
        self.usage < self.spec.request - EPS
    }
}

/// Selects the next token holder, or `None` if every requester is at its
/// limit (the token then stays idle until usage decays).
pub fn select_next(candidates: &[Candidate]) -> Option<ClientId> {
    // Step 1: filter out candidates at/over their gpu_limit. Steps 2 and 3
    // each walk the filtered candidates, so nothing is collected.
    let eligible = || candidates.iter().filter(|c| c.usage < c.spec.limit - EPS);

    // Step 2: prefer the candidate farthest below its gpu_request.
    let below_request = eligible().filter(|c| c.below_request()).max_by(|a, b| {
        let da = a.spec.request - a.usage;
        let db = b.spec.request - b.usage;
        da.partial_cmp(&db)
            .unwrap()
            // Deterministic tie-break by client id.
            .then_with(|| b.client.cmp(&a.client))
    });
    if let Some(c) = below_request {
        return Some(c.client);
    }

    // Step 3: everyone met their minimum — grant to the lowest usage.
    // No eligible candidate at all leaves the token idle.
    eligible()
        .min_by(|a, b| {
            a.usage
                .partial_cmp(&b.usage)
                .unwrap()
                .then_with(|| a.client.cmp(&b.client))
        })
        .map(|c| c.client)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(request: f64, limit: f64) -> ShareSpec {
        ShareSpec {
            request,
            limit,
            mem: 1.0,
        }
    }

    fn cand(id: u64, request: f64, limit: f64, usage: f64) -> Candidate {
        Candidate {
            client: ClientId(id),
            spec: spec(request, limit),
            usage,
        }
    }

    #[test]
    fn empty_input_yields_none() {
        assert_eq!(select_next(&[]), None);
    }

    #[test]
    fn at_limit_is_filtered() {
        // Single requester exactly at its cap: token stays idle.
        assert_eq!(select_next(&[cand(1, 0.3, 0.6, 0.6)]), None);
        // Slightly below the cap: granted.
        assert_eq!(select_next(&[cand(1, 0.3, 0.6, 0.59)]), Some(ClientId(1)));
    }

    #[test]
    fn farthest_below_request_wins() {
        // A is 0.25 below its request, B is 0.10 below.
        let got = select_next(&[cand(1, 0.30, 1.0, 0.05), cand(2, 0.40, 1.0, 0.30)]);
        assert_eq!(got, Some(ClientId(1)));
    }

    #[test]
    fn below_request_beats_lower_absolute_usage() {
        // B has lower usage but already met its request; A hasn't.
        let got = select_next(&[cand(1, 0.50, 1.0, 0.40), cand(2, 0.10, 1.0, 0.20)]);
        assert_eq!(got, Some(ClientId(1)));
    }

    #[test]
    fn residual_goes_to_lowest_usage() {
        // Both met their request; lower usage wins.
        let got = select_next(&[cand(1, 0.2, 1.0, 0.5), cand(2, 0.2, 1.0, 0.35)]);
        assert_eq!(got, Some(ClientId(2)));
    }

    #[test]
    fn limit_filter_applies_before_residual_split() {
        // Client 2 has lower usage but is at its limit.
        let got = select_next(&[cand(1, 0.2, 1.0, 0.5), cand(2, 0.2, 0.35, 0.35)]);
        assert_eq!(got, Some(ClientId(1)));
    }

    #[test]
    fn deterministic_tie_break() {
        let a = select_next(&[cand(1, 0.3, 1.0, 0.1), cand(2, 0.3, 1.0, 0.1)]);
        let b = select_next(&[cand(2, 0.3, 1.0, 0.1), cand(1, 0.3, 1.0, 0.1)]);
        assert_eq!(a, b, "order of candidates must not matter");
        assert_eq!(a, Some(ClientId(1)));
    }

    #[test]
    fn converges_to_requests_under_full_subscription() {
        // Simulate alternating grants: requests sum to 1.0; after both reach
        // their request, grants alternate by lowest usage.
        let mut usage = [0.0f64, 0.0];
        let specs = [(0.3, 1.0), (0.7, 1.0)];
        // 1000 rounds of 1% quota each, decaying window approximated by
        // normalizing total to 1.0.
        for _ in 0..1000 {
            let cands = [
                cand(1, specs[0].0, specs[0].1, usage[0]),
                cand(2, specs[1].0, specs[1].1, usage[1]),
            ];
            let winner = select_next(&cands).unwrap();
            let idx = (winner.0 - 1) as usize;
            usage[idx] += 0.01;
            // crude decay keeping total at most 1.0
            let total: f64 = usage.iter().sum();
            if total > 1.0 {
                for u in &mut usage {
                    *u /= total;
                }
            }
        }
        assert!((usage[0] - 0.3).abs() < 0.05, "usage {usage:?}");
        assert!((usage[1] - 0.7).abs() < 0.05, "usage {usage:?}");
    }
}
