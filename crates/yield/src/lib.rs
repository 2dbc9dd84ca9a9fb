//! Monte Carlo collision-free yield simulation.
//!
//! Reproduces the yield machinery of Section IV-B of the paper: devices
//! are "virtually fabricated" by sampling every qubit frequency from
//! `N(F_ideal, σ_f)`, then classified collision-free iff no Table I
//! criterion fires. Yield is the collision-free fraction of a batch.
//!
//! * [`fabrication`] — fabrication-precision parameters (σ_f) with the
//!   paper's three reference points: 0.1323 GHz (directly after
//!   fabrication), 0.014 GHz (laser-tuned, state of the art), and
//!   0.006 GHz (the projected threshold for >10³-qubit monolithic
//!   devices);
//! * [`monte_carlo`] — deterministic batch simulation;
//!   also produces the surviving *collision-free bin* with its sampled
//!   frequencies, which the assembly crate consumes. Any [`TrialRange`]
//!   of a batch can be simulated on its own: the survivors of
//!   contiguous ranges, concatenated in range order, are those of the
//!   full batch. Each trial is drawn in blocks of qubits and stops
//!   after the first block with a collision, with exactly the output
//!   of drawing every qubit first;
//! * [`sweep`] — yield-vs-size curve generation for the Fig. 4 and
//!   Fig. 8 reproductions;
//! * [`analytic`] — an independence-approximation analytic estimator
//!   that cross-checks the Monte Carlo (an extension beyond the paper).
//!
//! # Example
//!
//! ```
//! use chipletqc_topology::family::ChipletSpec;
//! use chipletqc_collision::criteria::CollisionParams;
//! use chipletqc_yield::fabrication::FabricationParams;
//! use chipletqc_yield::monte_carlo::simulate_yield;
//! use chipletqc_math::rng::Seed;
//!
//! let device = ChipletSpec::with_qubits(10).unwrap().build();
//! let fab = FabricationParams::state_of_the_art(); // sigma_f = 0.014
//! let est = simulate_yield(&device, &fab, &CollisionParams::paper(), 500, Seed(1));
//! // The paper reports ~0.85 yield for 10-qubit chiplets at this precision.
//! assert!(est.fraction() > 0.7 && est.fraction() < 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod fabrication;
pub mod monte_carlo;
pub mod sweep;

pub use fabrication::FabricationParams;
pub use monte_carlo::{fabricate_collision_free, simulate_yield, TrialRange, YieldEstimate};
pub use sweep::YieldCurve;
