//! The token path allocates nothing once warm.
//!
//! A counting global allocator watches every `SharedGpu::submit_burst`,
//! `SharedGpu::handle` and `SharedGpu::client_usage` call after a warm-up,
//! with telemetry on and its tracer already full. Grants, quota expiries
//! and idle releases all happen in the watched phase; the caller's `out`
//! and `notes` vectors keep their capacity, so any allocation counted is
//! the library's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ks_gpu::device::{GpuDevice, GpuSpec};
use ks_sim_core::prelude::*;
use ks_telemetry::{Telemetry, Tracer};
use ks_vgpu::{ClientId, IsolationMode, ShareSpec, SharedGpu, VgpuConfig, VgpuEvent, VgpuNotice};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations made on this thread while armed.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract the caller upholds is the one `System` needs.
// The counters are const-initialised thread-locals without destructors,
// so touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: `layout` comes from our caller under the same contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as our caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: as for `dealloc`, with `new_size` checked by our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with the allocation counter armed.
fn watched<T>(f: impl FnOnce() -> T) -> T {
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    out
}

enum Ev {
    Gpu(VgpuEvent),
    Submit(usize),
}

const KERNEL: SimDuration = SimDuration::from_millis(20);

/// Think time before client `i`'s next burst: client 0 is always busy,
/// client 1 pauses every other burst, client 2 after every burst. The
/// pauses leave lone holders idle past the grace, so idle releases fire.
fn think(i: usize, bursts: u64) -> SimDuration {
    match i {
        0 => SimDuration::ZERO,
        1 if bursts.is_multiple_of(2) => SimDuration::from_millis(50),
        1 => SimDuration::ZERO,
        _ => SimDuration::from_millis(300),
    }
}

#[test]
fn warm_token_path_makes_no_allocations() {
    let telemetry = Telemetry::enabled();
    let cfg = VgpuConfig {
        window: SimDuration::from_secs(1),
        ..VgpuConfig::default()
    };
    let device = GpuDevice::new("node-0", 0, GpuSpec::test_gpu(1 << 30));
    let mut gpu = SharedGpu::new(device, cfg, IsolationMode::FULL);
    gpu.set_telemetry(telemetry.clone());
    let clients: Vec<ClientId> = [(0.2, 0.6), (0.3, 1.0), (0.1, 0.5)]
        .into_iter()
        .map(|(request, limit)| {
            let client = gpu.attach(ShareSpec::new(request, limit, 0.3).unwrap());
            let ctx = telemetry.trace_root(SimTime::ZERO, "sched", "sharepod", &[]);
            gpu.set_client_trace(client, ctx);
            client
        })
        .collect();
    // Fill the tracer, plus one drop, so every later span and event is
    // counted and dropped.
    for _ in 0..=Tracer::CAPACITY {
        telemetry.trace_event(SimTime::ZERO, "test", "fill", &[]);
    }

    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut out = Vec::with_capacity(64);
    let mut notes = Vec::with_capacity(64);
    let mut bursts = [0u64; 3];
    let (mut grants, mut expiries, mut idle_releases) = (0, 0, 0);
    for i in 0..clients.len() {
        q.schedule_at(SimTime::ZERO, Ev::Submit(i));
    }
    let warm_until = SimTime::from_secs(20);
    let stop_at = SimTime::from_secs(40);
    let mut baseline = None;
    while let Some((now, ev)) = q.pop() {
        if now > stop_at {
            break;
        }
        let warm = now >= warm_until;
        if warm && baseline.is_none() {
            baseline = Some(ALLOCS.with(Cell::get));
        }
        match ev {
            Ev::Submit(i) => {
                let c = clients[i];
                watched(|| {
                    gpu.submit_burst(now, c, KERNEL, bursts[i], &mut out);
                    gpu.client_usage(now, c);
                });
            }
            Ev::Gpu(ev) => {
                if warm {
                    match ev {
                        VgpuEvent::GrantEffective { .. } => grants += 1,
                        VgpuEvent::QuotaExpiry { .. } => expiries += 1,
                        VgpuEvent::IdleRelease { .. } => idle_releases += 1,
                        _ => {}
                    }
                }
                watched(|| gpu.handle(now, ev, &mut out, &mut notes));
            }
        }
        for (at, ev) in out.drain(..) {
            q.schedule_at(at, Ev::Gpu(ev));
        }
        for n in notes.drain(..) {
            let VgpuNotice::BurstDone { client, .. } = n;
            let i = clients.iter().position(|&c| c == client).unwrap();
            bursts[i] += 1;
            q.schedule_at(now + think(i, bursts[i]), Ev::Submit(i));
        }
    }

    assert!(
        grants > 100 && expiries > 10 && idle_releases > 10,
        "the watched phase must exercise the token path: \
         {grants} grants, {expiries} expiries, {idle_releases} idle releases"
    );
    assert!(telemetry.trace_dropped() > grants);
    let allocs = ALLOCS.with(Cell::get) - baseline.expect("ran past warm-up");
    assert_eq!(allocs, 0, "{allocs} allocations on the warm token path");
}
