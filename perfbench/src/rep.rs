//! What one repetition of a workload reports, and the host clocks that
//! fill it in.

use std::time::Instant;

use ks_sim_core::time::SimTime;

use crate::ledger::Ledger;

/// A named value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand for a [`Value`].
pub fn value(name: &'static str, unit: &'static str, value: f64) -> Value {
    Value { name, unit, value }
}

/// One repetition: set-up, the measured phase, and its checks.
#[derive(Debug)]
pub struct Rep {
    /// Host time building the world, pool, jobs and threads.
    pub setup_ns: u64,
    /// Host time of the measured phase.
    pub wall_ns: u64,
    /// Host time of [`calibrate`] run just before this repetition.
    pub calib_ns: u64,
    /// Host threads making timed calls during the measured phase; the
    /// ledger's time budget is `wall_ns × threads`.
    pub threads: u64,
    /// Host time of each unit operation: one decision, one token
    /// handoff, or one active window of simulated time.
    pub op_ns: Vec<u64>,
    /// Outputs of the deterministic model (`sim_*`); they must repeat
    /// exactly for one seed.
    pub sim: Vec<Value>,
    /// Host-measured figures printed alongside but not gated.
    pub host: Vec<Value>,
    /// Operations attempted and failed (the workload's own definition).
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants; the operations they failed are in `failed`.
    pub failures: Vec<String>,
    /// Call counts (always) and call times (traced runs).
    pub ledger: Ledger,
}

impl Rep {
    /// An empty repetition around `ledger`.
    pub fn new(ledger: Ledger) -> Self {
        Rep {
            setup_ns: 0,
            wall_ns: 0,
            calib_ns: 0,
            threads: 1,
            op_ns: Vec::new(),
            sim: Vec::new(),
            host: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            ledger,
        }
    }

    /// Records a broken invariant that failed `n` operations.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        self.failures.push(msg);
    }

    /// A `sim_*` value by name.
    pub fn sim(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|v| v.name == name).map(|v| v.value)
    }
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Simulated time per [`WindowClock`] window: 10 s, so one sample
/// averages the second-to-second swings in load and host speed.
pub const WINDOW_US: u64 = 10_000_000;

/// Host time per active window of simulated time in a DES run: each time
/// the popped event's window changes, the host time since the previous
/// change is one sample. It is how far a real-time-paced run of the same
/// simulation would fall behind per window.
pub struct WindowClock {
    window: Option<u64>,
    mark: Instant,
    samples: Vec<u64>,
}

impl WindowClock {
    /// Starts the clock now.
    pub fn start() -> Self {
        WindowClock {
            window: None,
            mark: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Notes that an event at `now` is about to be handled.
    #[inline]
    pub fn at(&mut self, now: SimTime) {
        let window = now.as_micros() / WINDOW_US;
        if self.window != Some(window) {
            if self.window.is_some() {
                self.close();
            }
            self.window = Some(window);
        }
    }

    fn close(&mut self) {
        let t = Instant::now();
        self.samples
            .push(t.duration_since(self.mark).as_nanos() as u64);
        self.mark = t;
    }

    /// Closes the last window and returns the samples, in nanoseconds.
    pub fn finish(mut self) -> Vec<u64> {
        if self.window.is_some() {
            self.close();
        }
        self.samples
    }
}

/// Operations in one run of [`calibrate`].
const CALIBRATION_OPS: u64 = 200_000;

/// [`calibrate`]'s typical time on the host the bounds were set on (a
/// shared 2-core x86-64 VM); a run's host speed is this over its median
/// calibration time.
pub const CALIBRATION_REF_NS: u64 = 60_000_000;

/// Times a fixed, seeded kernel of ordered-map churn and binary-heap
/// traffic (the data structures a DES spends its time in) that uses only
/// the standard library, so no change to the program can change it.
/// Timed next to each repetition, it measures how fast the shared host
/// runs at that moment: on the host the bounds were set on, the
/// program's speed drifted by up to 1.75× over minutes, and the
/// calibration's speed drifted with it. Returns nanoseconds.
pub fn calibrate() -> u64 {
    let start = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut heap = std::collections::BinaryHeap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..CALIBRATION_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 65_536, i);
        heap.push(std::cmp::Reverse(x));
        if i % 2 == 1 {
            map.remove(&(x.rotate_left(29) % 65_536));
            heap.pop();
        }
    }
    std::hint::black_box((&map, &heap));
    ns_since(start)
}

/// The process's resident-set high-water mark in MiB, from
/// `/proc/self/status` (`VmHWM`). `None` where that file is missing.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
