//! `rt_handoff`: the threaded `vgpu::realtime` token backend. One
//! frontend thread per core, equal shares, a 1 ms quota. Each thread
//! acquires, spins through its next kernel, releases, and repeats (closed
//! loop). Handoff latency is timed from a release to the next grant, on
//! grants that change holder only: a releasing thread that wins its own
//! token back has no handoff.

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use ks_sim_core::rng::SimRng;
use ks_vgpu::realtime::{RtBackend, RtConfig};
use ks_vgpu::ShareSpec;

use crate::ledger::{quantile, Ledger, Site};
use crate::rep::{ns_since, value, Rep};

/// The run shape.
#[derive(Debug, Clone)]
pub struct Config {
    /// Frontend threads.
    pub threads: usize,
    /// Acquire/kernel/release cycles per thread per repetition.
    pub cycles: usize,
    /// Kernel lengths are drawn uniformly from this range, microseconds.
    pub kernel_us: (f64, f64),
    pub seed: u64,
}

const QUOTA: Duration = Duration::from_millis(1);
/// The backend's reaper interval for a 1 ms quota (`max(quota / 4, 1 ms)`).
const REAPER: Duration = Duration::from_millis(1);
const MEMORY_BYTES: u64 = 16 << 30;

/// Per-thread kernel lengths, generated from the seed.
pub fn kernels(cfg: &Config) -> Vec<Vec<Duration>> {
    (0..cfg.threads)
        .map(|t| {
            let mut rng = SimRng::seed_from_u64(cfg.seed ^ (t as u64 + 1).rotate_left(32));
            (0..cfg.cycles)
                .map(|_| {
                    let us = rng.uniform_range(cfg.kernel_us.0, cfg.kernel_us.1);
                    Duration::from_nanos((us * 1e3) as u64)
                })
                .collect()
        })
        .collect()
}

struct ThreadOut {
    ledger: Ledger,
    acquires: u64,
    late: u64,
    handoff_ns: Vec<u64>,
    self_regrants: u64,
}

/// One repetition: backend, frontends and threads (set-up), then every
/// thread runs its cycles.
pub fn rep(cfg: &Config, traced: bool) -> Rep {
    let setup = Instant::now();
    let kernels = kernels(cfg);
    let backend = RtBackend::new(RtConfig {
        quota: QUOTA,
        window: Duration::from_millis(100),
        memory_bytes: MEMORY_BYTES,
    });
    let share = 1.0 / cfg.threads as f64;
    let mut mem_errors = 0u64;
    let frontends: Vec<_> = (0..cfg.threads)
        .map(|_| {
            let fe = backend.register(ShareSpec::new(share, 1.0, share).expect("valid share"));
            // The container loads its model through the memory guard.
            if fe
                .mem_alloc((share * 0.8 * MEMORY_BYTES as f64) as u64)
                .is_err()
            {
                mem_errors += 1;
            }
            fe
        })
        .collect();
    // The last releaser and when it released; `usize::MAX` before any.
    let last_release = Mutex::new((Instant::now(), usize::MAX));
    let start = Barrier::new(cfg.threads + 1);

    let (setup_ns, wall_ns, outs) = std::thread::scope(|s| {
        let handles: Vec<_> = frontends
            .iter()
            .zip(&kernels)
            .enumerate()
            .map(|(me, (fe, ks))| {
                let (start, last_release) = (&start, &last_release);
                s.spawn(move || {
                    let mut out = ThreadOut {
                        ledger: Ledger::new(traced),
                        acquires: 0,
                        late: 0,
                        handoff_ns: Vec::with_capacity(ks.len()),
                        self_regrants: 0,
                    };
                    start.wait();
                    for &kernel in ks {
                        let t0 = Instant::now();
                        let lease = fe.acquire();
                        let granted = Instant::now();
                        out.ledger.count_call(Site::VgpuRtAcquire);
                        if traced {
                            out.ledger
                                .record(Site::VgpuRtAcquire, me as u64, t0, granted);
                        }
                        out.acquires += 1;
                        if granted.duration_since(t0) > QUOTA + REAPER {
                            out.late += 1;
                        }
                        let (released, by) = *last_release.lock().expect("no thread panics");
                        if by == me {
                            out.self_regrants += 1;
                        } else if by != usize::MAX {
                            out.handoff_ns
                                .push(granted.duration_since(released).as_nanos() as u64);
                        }
                        while granted.elapsed() < kernel {
                            std::hint::spin_loop();
                        }
                        *last_release.lock().expect("no thread panics") = (Instant::now(), me);
                        drop(lease);
                    }
                    out
                })
            })
            .collect();
        start.wait();
        let setup_ns = ns_since(setup);
        let wall = Instant::now();
        let outs: Vec<ThreadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("frontend thread panicked"))
            .collect();
        (setup_ns, ns_since(wall), outs)
    });

    let mut rep = Rep::new(Ledger::new(traced));
    rep.setup_ns = setup_ns;
    rep.wall_ns = wall_ns;
    rep.threads = cfg.threads as u64;
    let (mut late, mut self_regrants) = (0, 0);
    for out in outs {
        rep.attempted += out.acquires;
        late += out.late;
        self_regrants += out.self_regrants;
        rep.op_ns.extend(out.handoff_ns);
        rep.ledger.absorb(out.ledger);
    }
    if late > 0 {
        rep.fail(
            late,
            format!("{late} acquires waited longer than quota + reaper interval"),
        );
    }
    if mem_errors > 0 {
        rep.fail(
            mem_errors,
            format!("{mem_errors} memory-guard errors within quota"),
        );
    }
    let grants = backend.grant_count();
    if grants != rep.attempted {
        rep.fail(1, format!("{grants} grants for {} acquires", rep.attempted));
    }
    let acquire_ns = rep.ledger.span_ns(Site::VgpuRtAcquire);
    rep.host = vec![
        value(
            "handoff_us_p50",
            "us",
            quantile(&rep.op_ns, 0.5) as f64 / 1e3,
        ),
        value(
            "rt_grants_per_s",
            "1/s",
            grants as f64 / (wall_ns as f64 / 1e9),
        ),
        value(
            "self_regrant_frac",
            "ratio",
            self_regrants as f64 / rep.attempted.max(1) as f64,
        ),
        value("acquire_ns_p99", "ns", quantile(&acquire_ns, 0.99) as f64),
    ];
    rep
}
