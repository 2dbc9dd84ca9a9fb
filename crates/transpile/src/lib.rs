//! Layout, routing, basis decomposition, and ESP scoring.
//!
//! The compiler substrate that maps the paper's logical benchmark
//! circuits onto heavy-hex devices:
//!
//! * [`layout`] — initial logical→physical placement (trivial ascending
//!   or the default snake order, a low-degree-first depth-first walk
//!   that favors the chain-structured benchmarks);
//! * [`routing`] — SABRE-style SWAP insertion (front layer + extended
//!   set + decay, after Li, Ding & Xie, ASPLOS'19 — the paper's
//!   qubit-mapping reference), with an event-driven drain that visits
//!   only gates able to run, in the order a full rescan would;
//! * [`decompose`] — lowering to the IBM-style physical basis
//!   {RZ, SX, X, CX} (a CX keeps its direction; the paper treats
//!   reversal as free);
//! * [`esp`] — the fidelity-product figure of merit over all two-qubit
//!   gates, computed in log space;
//! * [`pipeline`] — the end-to-end [`pipeline::Transpiler`];
//!   [`Transpiler::transpile_many`] compiles a batch of circuits onto
//!   one device over a single all-pairs distance table.
//!
//! # Example
//!
//! ```
//! use chipletqc_benchmarks::suite::Benchmark;
//! use chipletqc_math::rng::Seed;
//! use chipletqc_topology::family::MonolithicSpec;
//! use chipletqc_transpile::pipeline::Transpiler;
//!
//! let device = MonolithicSpec::with_qubits(40).unwrap().build();
//! let circuit = Benchmark::Ghz.for_device_qubits(40, Seed(1));
//! let out = Transpiler::paper().transpile(&circuit, &device);
//! // Every two-qubit gate in the output respects device connectivity.
//! assert!(out.respects_connectivity(&device));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
pub mod esp;
pub mod layout;
pub mod pipeline;
pub mod routing;

pub use esp::esp_log;
pub use layout::{Layout, LayoutStrategy};
pub use pipeline::{TranspiledCircuit, Transpiler};
