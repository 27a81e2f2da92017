//! `ks-sim-core` — the discrete-event simulation engine underpinning the
//! KubeShare (HPDC '20) reproduction.
//!
//! Everything in this workspace that "runs" — the Kubernetes control plane,
//! GPU devices, token daemons, workload generators — is driven by the
//! [`engine::Engine`] in this crate: a virtual clock ([`time::SimTime`]), a
//! deterministic pending-event set ([`queue::EventQueue`]), and seeded
//! randomness ([`rng::SimRng`]). Measurement instruments
//! ([`timeseries::TimeSeries`], [`timeseries::BusyIntegrator`],
//! [`stats::OnlineStats`], [`histogram::Histogram`]) produce the series the
//! paper's figures plot.
//!
//! # Example
//!
//! ```
//! use ks_sim_core::prelude::*;
//!
//! struct World { fired: u32 }
//! struct Ping;
//! impl SimEvent<World> for Ping {
//!     fn fire(self, _now: SimTime, world: &mut World, queue: &mut EventQueue<Self>) {
//!         world.fired += 1;
//!         if world.fired < 3 {
//!             queue.schedule_in(SimDuration::from_millis(10), Ping);
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(World { fired: 0 });
//! eng.queue.schedule_at(SimTime::ZERO, Ping);
//! eng.run_to_completion(100);
//! assert_eq!(eng.world.fired, 3);
//! assert_eq!(eng.now(), SimTime::from_millis(20));
//! ```

#![warn(missing_docs)]

pub mod dense;
pub mod engine;
pub mod fxhash;
pub mod histogram;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeseries;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::engine::{Engine, RunOutcome, SimEvent};
    pub use crate::queue::{EventId, EventQueue};
    pub use crate::rng::SimRng;
    pub use crate::stats::OnlineStats;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timeseries::{BusyIntegrator, TimeSeries};
}
