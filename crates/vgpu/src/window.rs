//! Sliding-window token-hold accounting.
//!
//! The paper measures a container's GPU usage rate as "the time it holds
//! the valid token within a sliding window timeframe" (§4.5). This module
//! records hold intervals per client and answers "what fraction of the last
//! `window` did this client hold the token?" — the quantity the backend's
//! elastic scheduling policy filters and ranks on.

use std::collections::VecDeque;

use ks_sim_core::dense::{DenseKey, DenseMap};
use ks_sim_core::time::{SimDuration, SimTime};

/// Identifies a container attached to a shared GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

impl DenseKey for ClientId {
    #[inline]
    fn raw(self) -> u64 {
        self.0
    }
}

impl ClientId {
    /// The display form, formatted on the stack: a metric label or trace
    /// field value for paths that must not allocate.
    pub(crate) fn label(self) -> ClientLabel {
        const PREFIX: &[u8] = b"client-";
        let mut buf = [0u8; ClientLabel::MAX];
        buf[..PREFIX.len()].copy_from_slice(PREFIX);
        let digits = 1 + self.0.checked_ilog10().unwrap_or(0) as usize;
        let len = PREFIX.len() + digits;
        let mut n = self.0;
        for b in buf[PREFIX.len()..len].iter_mut().rev() {
            *b = b'0' + (n % 10) as u8;
            n /= 10;
        }
        ClientLabel { buf, len }
    }
}

/// A [`ClientId`]'s display form in a fixed buffer; see [`ClientId::label`].
pub(crate) struct ClientLabel {
    buf: [u8; ClientLabel::MAX],
    len: usize,
}

impl ClientLabel {
    /// `client-` plus the 20 digits of `u64::MAX`.
    const MAX: usize = 27;

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("formatted as UTF-8")
    }
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    start: SimTime,
    end: SimTime,
}

/// One client's hold history.
#[derive(Debug, Default)]
struct Holds {
    /// Closed hold intervals, oldest first. They are disjoint and sorted:
    /// a client opens a new hold only after closing the previous one.
    closed: VecDeque<Interval>,
    /// Exact sum of the lengths of `closed`, kept in step with it so a
    /// usage query need not re-sum the intervals.
    closed_total: SimDuration,
    /// Hold currently open (token held right now).
    open: Option<SimTime>,
}

/// Per-client sliding-window usage tracker.
#[derive(Debug)]
pub struct UsageWindow {
    window: SimDuration,
    clients: DenseMap<ClientId, Holds>,
}

impl UsageWindow {
    /// Creates a tracker with the given window length.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        UsageWindow {
            window,
            clients: DenseMap::new(),
        }
    }

    /// Window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Client-id slots the tracker's table spans (see
    /// [`DenseMap::span`]).
    #[cfg(test)]
    pub(crate) fn span(&self) -> usize {
        self.clients.span()
    }

    /// Marks `client` as holding the token from `now`.
    ///
    /// # Panics
    /// Panics if the client already has an open hold.
    pub fn begin_hold(&mut self, now: SimTime, client: ClientId) {
        let prev = self
            .clients
            .get_or_insert_with(client, Holds::default)
            .open
            .replace(now);
        assert!(prev.is_none(), "{client} already holds the token");
    }

    /// Ends `client`'s open hold at `now`.
    ///
    /// # Panics
    /// Panics if the client has no open hold.
    pub fn end_hold(&mut self, now: SimTime, client: ClientId) {
        let open = self
            .clients
            .get_mut(client)
            .and_then(|h| Some((h.open.take()?, h)));
        let Some((start, holds)) = open else {
            panic!("{client} has no open hold");
        };
        debug_assert!(now >= start);
        if now > start {
            holds.closed.push_back(Interval { start, end: now });
            holds.closed_total += now - start;
        }
    }

    /// True if the client currently has an open hold.
    pub fn holding(&self, client: ClientId) -> bool {
        self.clients.get(client).is_some_and(|h| h.open.is_some())
    }

    /// Usage rate of `client` over `[now - window, now]`, in `[0, 1]`.
    ///
    /// Also garbage-collects intervals that have fully left the window.
    /// Amortised O(1): each interval is added to and subtracted from the
    /// running total once, and only the oldest surviving interval can
    /// straddle the horizon.
    pub fn usage(&mut self, now: SimTime, client: ClientId) -> f64 {
        let horizon = if now.as_micros() >= self.window.as_micros() {
            now - self.window
        } else {
            SimTime::ZERO
        };
        let mut held = SimDuration::ZERO;
        if let Some(holds) = self.clients.get_mut(client) {
            while let Some(front) = holds.closed.front() {
                if front.end > horizon {
                    break;
                }
                holds.closed_total -= front.end - front.start;
                holds.closed.pop_front();
            }
            held = holds.closed_total;
            if let Some(front) = holds.closed.front() {
                held -= horizon.saturating_since(front.start);
            }
            if let Some(start) = holds.open {
                held += now.saturating_since(start.max(horizon));
            }
        }
        // Early in the run the window is only partially elapsed; normalize
        // by elapsed time so a full-time holder reads 1.0 from the start.
        let denom = now
            .saturating_since(horizon)
            .max(SimDuration::from_micros(1));
        (held.as_micros() as f64 / denom.as_micros() as f64).clamp(0.0, 1.0)
    }

    /// Removes all state for a departed client.
    pub fn forget(&mut self, client: ClientId) {
        self.clients.remove(client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ClientId = ClientId(1);
    const B: ClientId = ClientId(2);

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn label_matches_display() {
        for id in [0, 7, 1_000_000, u64::MAX] {
            assert_eq!(ClientId(id).label().as_str(), ClientId(id).to_string());
        }
    }

    fn win() -> UsageWindow {
        UsageWindow::new(SimDuration::from_millis(1000))
    }

    #[test]
    fn usage_of_unknown_client_is_zero() {
        let mut w = win();
        assert_eq!(w.usage(t(500), A), 0.0);
    }

    #[test]
    fn single_hold_fraction() {
        let mut w = win();
        w.begin_hold(t(0), A);
        w.end_hold(t(250), A);
        // At t=1000 the window is [0, 1000]; A held 250ms.
        let u = w.usage(t(1000), A);
        assert!((u - 0.25).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn open_hold_counts_up_to_now() {
        let mut w = win();
        w.begin_hold(t(0), A);
        assert!(w.holding(A));
        let u = w.usage(t(500), A);
        assert!((u - 1.0).abs() < 1e-9, "held the whole elapsed time: {u}");
    }

    #[test]
    fn old_intervals_slide_out() {
        let mut w = win();
        w.begin_hold(t(0), A);
        w.end_hold(t(400), A);
        // At t=2000, window is [1000, 2000]; the hold fully left.
        assert_eq!(w.usage(t(2000), A), 0.0);
        // At t=1200, window [200,1200]: 200ms of the hold remains.
        let mut w2 = win();
        w2.begin_hold(t(0), A);
        w2.end_hold(t(400), A);
        let u = w2.usage(t(1200), A);
        assert!((u - 0.2).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn partial_window_normalizes_by_elapsed() {
        let mut w = win();
        w.begin_hold(t(0), A);
        w.end_hold(t(100), A);
        // Only 200ms elapsed; A held half of it.
        let u = w.usage(t(200), A);
        assert!((u - 0.5).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn clients_are_independent() {
        let mut w = win();
        w.begin_hold(t(0), A);
        w.end_hold(t(500), A);
        w.begin_hold(t(500), B);
        w.end_hold(t(1000), B);
        let ua = w.usage(t(1000), A);
        let ub = w.usage(t(1000), B);
        assert!((ua - 0.5).abs() < 1e-9);
        assert!((ub - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn double_begin_panics() {
        let mut w = win();
        w.begin_hold(t(0), A);
        w.begin_hold(t(1), A);
    }

    #[test]
    #[should_panic(expected = "no open hold")]
    fn end_without_begin_panics() {
        let mut w = win();
        w.end_hold(t(1), A);
    }

    #[test]
    fn forget_clears_state() {
        let mut w = win();
        w.begin_hold(t(0), A);
        w.forget(A);
        assert!(!w.holding(A));
        assert_eq!(w.usage(t(100), A), 0.0);
    }

    #[test]
    fn zero_length_hold_ignored() {
        let mut w = win();
        w.begin_hold(t(100), A);
        w.end_hold(t(100), A);
        assert_eq!(w.usage(t(1000), A), 0.0);
    }
}
