//! Property tests for KGD binning and MCM assembly.

use proptest::prelude::*;

use chipletqc_assembly::assembler::{Assembler, AssemblyParams};
use chipletqc_assembly::bonding::BondParams;
use chipletqc_assembly::kgd::KgdBin;
use chipletqc_assembly::output_model::OutputModel;
use chipletqc_collision::checker::is_collision_free;
use chipletqc_collision::criteria::CollisionParams;
use chipletqc_math::rng::Seed;
use chipletqc_noise::link::{LinkModel, PAPER_CHIP_MEAN};
use chipletqc_noise::NoiseModel;
use chipletqc_topology::family::ChipletSpec;
use chipletqc_topology::mcm::McmSpec;
use chipletqc_yield::fabrication::FabricationParams;
use chipletqc_yield::monte_carlo::fabricate_collision_free;

fn make_bin(batch: usize, seed: u64) -> KgdBin {
    let device = ChipletSpec::with_qubits(10).unwrap().build();
    let raw = fabricate_collision_free(
        &device,
        &FabricationParams::state_of_the_art(),
        &CollisionParams::paper(),
        batch,
        Seed(seed),
    );
    KgdBin::characterize(&device, raw, &NoiseModel::paper(Seed(seed + 1)), Seed(seed + 2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chiplet conservation: used + unplaced == bin, for any grid.
    #[test]
    fn chiplets_are_conserved(k in 1usize..4, m in 1usize..4, seed in 0u64..20) {
        let bin = make_bin(150, seed);
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), k, m);
        let outcome = Assembler::new(AssemblyParams::paper()).assemble(
            &spec,
            &bin,
            &LinkModel::paper(),
            Seed(seed + 3),
        );
        prop_assert_eq!(outcome.chiplets_used() + outcome.unplaced, bin.len());
        // No chiplet is used twice.
        let mut all: Vec<usize> =
            outcome.mcms.iter().flat_map(|mcm| mcm.chip_order.clone()).collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), before);
        // Every module really is collision-free end to end.
        let device = spec.build();
        for mcm in outcome.mcms.iter().take(3) {
            prop_assert!(is_collision_free(&device, &mcm.freqs, &CollisionParams::paper()));
        }
    }

    /// The two halves of assembly reproduce the whole: the first `n`
    /// modules a placement draws are the full assembly's first `n`,
    /// under either link model, and the placement carries the
    /// outcome's counters and post-assembly yield.
    #[test]
    fn modules_are_a_prefix_of_the_assembly(k in 1usize..4, m in 1usize..4, seed in 0u64..20) {
        let bin = make_bin(150, seed);
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), k, m);
        let assembler = Assembler::new(AssemblyParams::paper());
        let placement = assembler.place(&spec, &bin, Seed(seed + 3));
        let len = placement.len();
        let bond = BondParams::paper();
        for link_model in [LinkModel::paper(), LinkModel::with_ratio(2.0, PAPER_CHIP_MEAN)] {
            let outcome = assembler.assemble(&spec, &bin, &link_model, Seed(seed + 3));
            prop_assert_eq!(len, outcome.mcms.len());
            prop_assert_eq!(placement.unplaced(), outcome.unplaced);
            prop_assert_eq!(placement.timed_out_subsets(), outcome.timed_out_subsets);
            prop_assert_eq!(placement.reshuffles(), outcome.reshuffles);
            prop_assert_eq!(placement.link_qubits_per_mcm(), outcome.link_qubits_per_mcm);
            prop_assert_eq!(placement.chiplets_used(), outcome.chiplets_used());
            prop_assert_eq!(
                placement.post_assembly_yield(150, &bond).to_bits(),
                outcome.post_assembly_yield(150, &bond).to_bits()
            );
            for n in [0, 1, len / 2, len, len + 3] {
                let modules = placement.modules(&spec, &bin, &link_model, n);
                prop_assert_eq!(&modules[..], &outcome.mcms[..n.min(len)]);
            }
        }
    }

    /// Post-assembly yield is monotone in bonding quality and bounded
    /// by the raw bin fraction.
    #[test]
    fn bonding_monotonicity(multiplier in 1.0f64..500.0, links in 0usize..500) {
        let good = BondParams::paper();
        let bad = good.with_failure_multiplier(multiplier);
        prop_assert!(bad.module_survival(links) <= good.module_survival(links) + 1e-15);
        prop_assert!(good.module_survival(links) <= 1.0);
        prop_assert!(bad.module_survival(links) >= 0.0);
    }

    /// Eq. 1 scales linearly in batch and inversely in chips per
    /// module.
    #[test]
    fn output_model_scaling(batch in 100usize..10_000, chips in 2usize..40) {
        let base = OutputModel {
            chips_per_mcm: chips,
            batch,
            ..OutputModel::paper_example()
        };
        let doubled = OutputModel { batch: batch * 2, ..base };
        prop_assert!((doubled.mcm_output() - 2.0 * base.mcm_output()).abs() < 1e-6);
        let denser = OutputModel { chips_per_mcm: chips * 2, ..base };
        prop_assert!((denser.mcm_output() - base.mcm_output() / 2.0).abs() < 1e-6);
    }
}

/// KGD sorting is stable across repeated characterization of the same
/// bin.
#[test]
fn kgd_is_idempotent() {
    let a = make_bin(120, 7);
    let b = make_bin(120, 7);
    assert_eq!(a, b);
    let resorted = KgdBin::from_chiplets(a.chiplets().to_vec());
    assert_eq!(resorted, a);
}
