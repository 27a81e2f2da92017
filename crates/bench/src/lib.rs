//! `ks-bench` — experiment harnesses regenerating every table and figure
//! of the KubeShare paper's evaluation (§5).
//!
//! One module per experiment; one binary per figure. See `DESIGN.md` at
//! the repository root for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![warn(missing_docs)]

pub mod harness;
pub mod report;

pub mod ablation;
pub mod chaos;
pub mod explain;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod gateway_load;
pub mod metrics_demo;
pub mod partition;
pub mod remediation;
pub mod sched_scale;
pub mod table1;
pub mod trajectory;
