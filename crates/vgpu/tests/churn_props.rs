//! Property test: client churn on one shared GPU.
//!
//! Random streams of attaches, detaches, burst submissions, backend
//! restarts and clock advances run against a [`SharedGpu`] under full
//! isolation (the token path) or none (device FIFO only). Advances are
//! often shorter than the 1 ms handoff, so detaches and restarts land
//! mid-handoff, while a client holds the token, and while its kernels sit
//! queued on the device. After the run drains:
//!
//! * every burst of a client still attached completed exactly once, in
//!   that client's submission order;
//! * a detached client received no `BurstDone` after its detach (and the
//!   ones before it are a prefix of what it submitted);
//! * the device is idle with an empty queue, and nothing panicked.
//!
//! Runs the default case count; `PROPTEST_CASES` overrides it.

use std::collections::{BTreeMap, BTreeSet};

use ks_gpu::device::{GpuDevice, GpuSpec};
use ks_sim_core::prelude::*;
use ks_vgpu::{ClientId, IsolationMode, ShareSpec, SharedGpu, VgpuConfig, VgpuEvent, VgpuNotice};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Attach a client with `SPECS[spec]`.
    Attach { spec: usize },
    /// Detach the `which`-th live client (modulo the live count).
    Detach { which: usize },
    /// Submit `bursts` bursts of `ms` milliseconds for a live client.
    Submit { which: usize, bursts: u64, ms: u64 },
    /// Kill and restart the token backend daemon.
    Restart,
    /// Run the simulation forward by `us` microseconds.
    Advance { us: u64 },
}

/// (request, limit) pairs: whole-GPU, shared and limit-throttled tenants.
const SPECS: [(f64, f64); 4] = [(1.0, 1.0), (0.5, 1.0), (0.3, 0.6), (0.2, 0.4)];

fn gen_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..SPECS.len()).prop_map(|spec| Op::Attach { spec }),
        1 => any::<usize>().prop_map(|which| Op::Detach { which }),
        4 => (any::<usize>(), 1u64..4, 1u64..30)
            .prop_map(|(which, bursts, ms)| Op::Submit { which, bursts, ms }),
        1 => Just(Op::Restart),
        4 => prop_oneof![0u64..2_000, 0u64..60_000].prop_map(|us| Op::Advance { us }),
    ]
}

enum Ev {
    Vgpu(VgpuEvent),
    /// Moves the clock to an op's instant; does nothing else.
    Tick,
}

struct World {
    gpu: SharedGpu,
    /// Completed tags per client, in completion order.
    done: BTreeMap<ClientId, Vec<u64>>,
    detached: BTreeSet<ClientId>,
    /// `BurstDone`s delivered to a client after it detached.
    late: Vec<(ClientId, u64)>,
}

impl SimEvent<World> for Ev {
    fn fire(self, now: SimTime, w: &mut World, q: &mut EventQueue<Self>) {
        let Ev::Vgpu(ev) = self else {
            return;
        };
        let mut out = Vec::new();
        let mut notes = Vec::new();
        w.gpu.handle(now, ev, &mut out, &mut notes);
        for VgpuNotice::BurstDone { client, tag } in notes {
            if w.detached.contains(&client) {
                w.late.push((client, tag));
            }
            w.done.entry(client).or_default().push(tag);
        }
        schedule(q, out);
    }
}

fn schedule(q: &mut EventQueue<Ev>, out: ks_vgpu::VgpuEmit) {
    for (at, ev) in out {
        q.schedule_at(at, Ev::Vgpu(ev));
    }
}

fn check_churn(mode: IsolationMode, ops: &[Op]) {
    let cfg = VgpuConfig {
        quota: SimDuration::from_millis(20),
        handoff: SimDuration::from_millis(1),
        window: SimDuration::from_secs(1),
        idle_grace: SimDuration::from_millis(2),
    };
    let device = GpuDevice::new("n", 0, GpuSpec::test_gpu(1 << 30));
    let mut eng = Engine::new(World {
        gpu: SharedGpu::new(device, cfg, mode),
        done: BTreeMap::new(),
        detached: BTreeSet::new(),
        late: Vec::new(),
    });
    let mut live: Vec<ClientId> = Vec::new();
    let mut submitted: BTreeMap<ClientId, Vec<u64>> = BTreeMap::new();
    let mut next_tag = 0u64;
    for op in ops {
        let now = eng.now();
        let mut out = Vec::new();
        match *op {
            Op::Attach { spec } => {
                let (request, limit) = SPECS[spec];
                let client = eng
                    .world
                    .gpu
                    .attach(ShareSpec::new(request, limit, 0.1).unwrap());
                live.push(client);
                submitted.insert(client, Vec::new());
            }
            Op::Detach { which } if !live.is_empty() => {
                let client = live.remove(which % live.len());
                eng.world.gpu.detach(now, client, &mut out);
                eng.world.detached.insert(client);
            }
            Op::Submit { which, bursts, ms } if !live.is_empty() => {
                let client = live[which % live.len()];
                for _ in 0..bursts {
                    next_tag += 1;
                    let dur = SimDuration::from_millis(ms);
                    eng.world
                        .gpu
                        .submit_burst(now, client, dur, next_tag, &mut out);
                    submitted.get_mut(&client).unwrap().push(next_tag);
                }
            }
            Op::Restart => eng.world.gpu.restart_backend(now, &mut out),
            Op::Advance { us } => {
                let at = now + SimDuration::from_micros(us);
                eng.queue.schedule_at(at, Ev::Tick);
                eng.run_until(at);
            }
            Op::Detach { .. } | Op::Submit { .. } => {}
        }
        schedule(&mut eng.queue, out);
        prop_assert_eq!(eng.world.gpu.client_count(), live.len());
    }
    prop_assert_eq!(eng.run_to_completion(10_000_000), RunOutcome::Drained);

    let w = &eng.world;
    prop_assert!(w.late.is_empty(), "BurstDone after detach: {:?}", w.late);
    for (client, tags) in &submitted {
        let done = w.done.get(client).map_or(&[][..], Vec::as_slice);
        if live.contains(client) {
            prop_assert_eq!(done, tags.as_slice(), "{} lost or reordered bursts", client);
        } else {
            prop_assert!(
                tags.starts_with(done),
                "{} completed {:?} of {:?}",
                client,
                done,
                tags
            );
        }
    }
    prop_assert!(!w.gpu.device().is_busy());
    prop_assert_eq!(w.gpu.device().queue_len(), 0);
}

proptest! {
    #[test]
    fn churn_keeps_bursts_exactly_once_and_in_order(
        full in any::<bool>(),
        ops in proptest::collection::vec(gen_op(), 1..100),
    ) {
        let mode = if full { IsolationMode::FULL } else { IsolationMode::NONE };
        check_churn(mode, &ops);
    }
}
