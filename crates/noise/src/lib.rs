//! Empirical gate-infidelity models.
//!
//! Section VI of the paper builds its fidelity machinery from two data
//! sources: IBM Washington calibration data (on-chip CX infidelity vs.
//! qubit-qubit detuning, Fig. 7) and the Gold et al. flip-chip link
//! measurements (inter-chip two-qubit fidelity). Neither dataset ships
//! with this reproduction, so this crate *synthesizes* statistically
//! equivalent data and then consumes it exactly the way the paper
//! consumes the real data: binned at 0.1 GHz detuning intervals, with
//! per-edge infidelity assigned by sampling from the matching bin.
//!
//! * [`response`] — the physics-motivated detuning→error-amplification
//!   response used by the synthetic calibration generator (peaks at the
//!   Table I collision conditions);
//! * [`washington`] — the synthetic Eagle-class calibration dataset
//!   (median ≈ 0.012, mean ≈ 0.018 pooled CX infidelity, the two
//!   statistics the paper reports for the real machine);
//! * [`detuning_model`] — the *empirical model*: binned bootstrap
//!   assignment (Fig. 7 methodology);
//! * [`link`] — flip-chip link infidelity (LogNormal matched to
//!   mean 7.5 % / median 5.6 %), parameterized by the `e_link/e_chip`
//!   ratio swept in Fig. 9;
//! * [`assign`] — whole-device noise assignment and the `E_avg` metric
//!   (average two-qubit infidelity across every coupled pair);
//! * [`fleet`] — synthetic 15-cycle calibration summaries for the three
//!   IBM machines of Fig. 3(b).
//!
//! # Example
//!
//! ```
//! use chipletqc_math::rng::Seed;
//! use chipletqc_noise::NoiseModel;
//! use chipletqc_topology::family::ChipletSpec;
//! use chipletqc_topology::plan::FrequencyPlan;
//! use chipletqc_collision::frequencies::Frequencies;
//!
//! let model = NoiseModel::paper(Seed(1));
//! let device = ChipletSpec::with_qubits(20).unwrap().build();
//! let freqs = Frequencies::ideal(&device, &FrequencyPlan::state_of_the_art());
//! let noise = model.assign(&device, &freqs, &mut Seed(2).rng());
//! let eavg = noise.eavg();
//! assert!(eavg > 0.001 && eavg < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod detuning_model;
pub mod fleet;
pub mod link;
pub mod response;
pub mod washington;

pub use assign::{EdgeNoise, NoiseModel};
pub use detuning_model::EmpiricalDetuningModel;
pub use link::LinkModel;
