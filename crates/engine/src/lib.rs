//! # chipletqc-engine
//!
//! Parallel experiment orchestration for the chipletqc reproduction.
//!
//! This crate turns the paper's experiments into *data* and runs them
//! at scale:
//!
//! * [`scenario`] — a [`Scenario`](scenario::Scenario) names an
//!   experiment kind plus parameter overrides (batch, seed, link
//!   ratios, chiplet/system limits, module grids, comparison mode,
//!   fabrication precision);
//! * [`sweep`] — a [`Sweep`](sweep::Sweep) describes axes over the
//!   chiplet design space (grid size × link ratio × σ_f × batch ×
//!   seed, parsed from a small text format) and expands
//!   deterministically into a scenario batch;
//! * [`scheduler`] — a [`Scheduler`](scheduler::Scheduler) executes
//!   scenario batches on a fixed worker pool that hands each idle
//!   thread the next task round-robin across batches, sharing
//!   fabrication/characterization work through a
//!   [`CacheHub`](chipletqc::lab::CacheHub); with
//!   [`with_shards`](scheduler::Scheduler::with_shards) it splits a
//!   Fig. 8/9/10 scenario into system-slice tasks that interleave
//!   across the worker pool;
//! * [`report`] — a [`RunReport`](report::RunReport) serializes the
//!   batch deterministically: bit-identical JSON at any worker *and
//!   shard* count;
//! * [`suite`] — predefined batches, starting with the full paper
//!   figure suite;
//! * [`protocol`] / [`service`] — **service mode**: a framed wire
//!   format for batch submissions, and a long-lived daemon that runs
//!   them over a Unix domain socket against one warm
//!   [`CacheHub`](chipletqc::lab::CacheHub), so repeated submissions
//!   skip fabrication without touching disk;
//! * [`mesh`] — **distributed sweeps**: a coordinator partitions a
//!   sweep into work units, scatters them to mesh-worker daemons over
//!   the service protocol, and merges the returned pieces into the
//!   same byte-identical report a local run produces — with per-unit
//!   deadlines, retry on worker death, and straggler speculation.
//!
//! The `chipletqc-engine` binary wires these together as a CLI
//! (one-shot runs, `store` maintenance, `serve`/`submit` service
//! mode); it is the one regeneration path for every figure.
//!
//! # Quickstart
//!
//! ```
//! use chipletqc::lab::CacheHub;
//! use chipletqc_engine::scenario::{ExperimentKind, Overrides, Scale, Scenario, SystemSpec};
//! use chipletqc_engine::scheduler::Scheduler;
//!
//! let scenario = Scenario {
//!     name: "one-system".into(),
//!     kind: ExperimentKind::Fig8,
//!     scale: Scale::Quick,
//!     overrides: Overrides {
//!         batch: Some(100),
//!         systems: Some(vec![SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 }]),
//!         ..Overrides::default()
//!     },
//! };
//! let results = Scheduler::new(2).run(&[scenario], &CacheHub::new());
//! assert_eq!(results.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mesh;
pub mod protocol;
pub mod report;
pub mod scenario;
pub mod scheduler;
#[cfg(unix)]
pub mod service;
pub mod suite;
pub mod sweep;

pub use report::RunReport;
pub use scenario::{ExperimentKind, Overrides, Scale, Scenario, SystemSpec};
pub use scheduler::{ScenarioResult, Scheduler};
pub use suite::{paper_suite, resolve_batch};
pub use sweep::Sweep;
