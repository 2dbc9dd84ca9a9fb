//! Frequency-collision criteria and device checking.
//!
//! Implements Table I of *Scaling Superconducting Quantum Computers with
//! Chiplet Architectures* (MICRO 2022): the seven fixed-frequency
//! transmon collision conditions that bound cross-resonance gate error
//! from frequency-related noise to ≲ 1 %. A fabricated device is
//! **collision-free** iff none of the seven criteria fire anywhere on the
//! device; collision-free yield is the fraction of a fabrication batch
//! that passes (Section IV-B).
//!
//! * [`frequencies`] — a device's fabricated frequency/anharmonicity
//!   assignment, plus ideal (design-target) assignments from a
//!   [`chipletqc_topology::plan::FrequencyPlan`];
//! * [`criteria`] — the seven criteria as pure predicates over
//!   frequencies, with the paper's thresholds as defaults and every
//!   threshold parameterizable;
//! * [`checker`] — whole-device checking: a per-device check schedule
//!   that checks a Monte Carlo trial block by block while it is drawn
//!   and stops after the first block with a collision, the
//!   collision-free predicate over a full assignment, and full reports
//!   for analysis.
//!
//! # Example
//!
//! ```
//! use chipletqc_topology::family::ChipletSpec;
//! use chipletqc_topology::plan::FrequencyPlan;
//! use chipletqc_collision::checker::is_collision_free;
//! use chipletqc_collision::criteria::CollisionParams;
//! use chipletqc_collision::frequencies::Frequencies;
//!
//! let device = ChipletSpec::with_qubits(20).unwrap().build();
//! let plan = FrequencyPlan::state_of_the_art();
//! // A device fabricated with *perfect* precision lands exactly on the
//! // ideal plan and is collision-free by design.
//! let freqs = Frequencies::ideal(&device, &plan);
//! assert!(is_collision_free(&device, &freqs, &CollisionParams::paper()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod criteria;
pub mod frequencies;

pub use checker::{
    count_by_type, find_collisions, is_collision_free, CheckSchedule, CollisionReport,
};
pub use criteria::{Collision, CollisionParams, CollisionType};
pub use frequencies::Frequencies;
