//! Known-good-die binning, MCM assembly, and fabrication-output models.
//!
//! Implements the manufacturing pipeline of Sections V and VII-B of the
//! paper:
//!
//! 1. fabricate a batch of chiplets (the yield crate) and keep the
//!    collision-free bin;
//! 2. **KGD characterization** ([`kgd`]): assign every surviving chiplet
//!    its measured per-edge CX infidelity and rank the bin by average
//!    error, best first — the quantum analogue of speed binning;
//! 3. **assembly** ([`assembler`]): place MCMs best-chiplet-first; if
//!    an inter-chiplet frequency collision appears, reshuffle chip
//!    placement (up to 100 reconfigurations) before setting the subset
//!    aside. The [`Placement`] is link-independent; inter-chip link
//!    noise is sampled afterwards, for as many completed modules as
//!    a caller reads ([`Placement::modules`]);
//! 4. **bonding** ([`bonding`]): C4 bump-bond success modeling
//!    (`s_l = 99.999960642 %` per bump, 25 bumps per linked qubit) for
//!    post-assembly yield, including the paper's 100× failure
//!    sensitivity variant;
//! 5. **output model** ([`output_model`]): the analytic Eq. 1 comparing
//!    MCM fabrication output with monolithic output on equal wafer
//!    area (Section V-C's ~7.7× example);
//! 6. **configuration counting** ([`configurations`]): the factorial
//!    configuration space of Fig. 6.
//!
//! # Example
//!
//! ```
//! use chipletqc_assembly::prelude::*;
//! use chipletqc_collision::criteria::CollisionParams;
//! use chipletqc_math::rng::Seed;
//! use chipletqc_noise::NoiseModel;
//! use chipletqc_topology::family::ChipletSpec;
//! use chipletqc_topology::mcm::McmSpec;
//! use chipletqc_yield::fabrication::FabricationParams;
//! use chipletqc_yield::monte_carlo::fabricate_collision_free;
//!
//! let chiplet = ChipletSpec::with_qubits(10).unwrap();
//! let device = chiplet.build();
//! let bin = fabricate_collision_free(
//!     &device,
//!     &FabricationParams::state_of_the_art(),
//!     &CollisionParams::paper(),
//!     200,
//!     Seed(1),
//! );
//! let model = NoiseModel::paper(Seed(2));
//! let kgd = KgdBin::characterize(&device, bin, &model, Seed(3));
//! let spec = McmSpec::new(chiplet, 2, 2);
//! let outcome = Assembler::new(AssemblyParams::paper())
//!     .assemble(&spec, &kgd, model.link_model(), Seed(4));
//! assert!(!outcome.mcms.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembler;
pub mod bonding;
pub mod configurations;
pub mod kgd;
pub mod output_model;

/// Commonly used assembly types.
pub mod prelude {
    pub use crate::assembler::{
        AssembledMcm, Assembler, AssemblyOutcome, AssemblyParams, Placement,
    };
    pub use crate::bonding::BondParams;
    pub use crate::kgd::{CharacterizedChiplet, KgdBin};
    pub use crate::output_model::OutputModel;
}

pub use assembler::{AssembledMcm, Assembler, AssemblyOutcome, AssemblyParams, Placement};
pub use bonding::BondParams;
pub use kgd::{CharacterizedChiplet, KgdBin};
pub use output_model::OutputModel;
