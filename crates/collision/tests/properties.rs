//! Property tests for the collision criteria and checker.

use proptest::prelude::*;

use chipletqc_collision::checker::{find_collisions, is_collision_free, CheckSchedule};
use chipletqc_collision::criteria::{type1, type3, type5, type6, CollisionParams};
use chipletqc_collision::frequencies::Frequencies;
use chipletqc_math::dist::Normal;
use chipletqc_math::rng::Seed;
use chipletqc_topology::device::Device;
use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
use chipletqc_topology::mcm::McmSpec;
use chipletqc_topology::plan::FrequencyPlan;
use chipletqc_topology::qubit::QubitId;

/// A small chiplet (`kind` 0), monolithic (1) or MCM (2) device.
fn small_device(kind: usize, rows: usize, m: usize) -> Device {
    match kind {
        0 => ChipletSpec::new(2 * rows, m).unwrap().build(),
        1 => MonolithicSpec::new(rows, m).unwrap().build(),
        _ => McmSpec::new(ChipletSpec::new(2, m).unwrap(), rows.min(2), 2).build(),
    }
}

proptest! {
    /// The fast predicate and the full report always agree.
    #[test]
    fn predicate_matches_report(seed_offsets in prop::collection::vec(-0.05f64..0.05, 20)) {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let plan = FrequencyPlan::state_of_the_art();
        let base = Frequencies::ideal(&device, &plan);
        let perturbed: Vec<f64> = base
            .as_slice()
            .iter()
            .zip(&seed_offsets)
            .map(|(f, d)| f + d)
            .collect();
        let freqs = Frequencies::with_uniform_alpha(perturbed, plan.anharmonicity()).unwrap();
        let params = CollisionParams::paper();
        let report = find_collisions(&device, &freqs, &params);
        prop_assert_eq!(is_collision_free(&device, &freqs, &params), report.is_collision_free());
        let total: usize = report.counts_by_type().iter().sum();
        prop_assert_eq!(total, report.collisions.len());
    }

    /// Symmetric criteria are symmetric in their qubit arguments.
    #[test]
    fn pair_criteria_are_symmetric(fa in 4.5f64..5.5, fb in 4.5f64..5.5) {
        let freqs = Frequencies::with_uniform_alpha(vec![fa, fb], -0.33).unwrap();
        let p = CollisionParams::paper();
        let (a, b) = (QubitId(0), QubitId(1));
        prop_assert_eq!(type1(&freqs, a, b, &p), type1(&freqs, b, a, &p));
        prop_assert_eq!(type3(&freqs, a, b, &p), type3(&freqs, b, a, &p));
        prop_assert_eq!(type5(&freqs, a, b, &p), type5(&freqs, b, a, &p));
        prop_assert_eq!(type6(&freqs, a, b, &p), type6(&freqs, b, a, &p));
    }

    /// A global frequency translation never changes any verdict (the
    /// criteria depend only on detunings; the paper: "although detuning
    /// between frequencies is important, absolute values are not").
    #[test]
    fn criteria_are_translation_invariant(
        offsets in prop::collection::vec(-0.08f64..0.08, 10),
        shift in -0.5f64..0.5,
    ) {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let plan = FrequencyPlan::state_of_the_art();
        let base: Vec<f64> = Frequencies::ideal(&device, &plan)
            .as_slice()
            .iter()
            .zip(&offsets)
            .map(|(f, d)| f + d)
            .collect();
        let shifted: Vec<f64> = base.iter().map(|f| f + shift).collect();
        let p = CollisionParams::paper();
        let a = find_collisions(
            &device,
            &Frequencies::with_uniform_alpha(base, -0.33).unwrap(),
            &p,
        );
        let b = find_collisions(
            &device,
            &Frequencies::with_uniform_alpha(shifted, -0.33).unwrap(),
            &p,
        );
        prop_assert_eq!(a.counts_by_type(), b.counts_by_type());
    }

    /// Collapsing all qubits onto one frequency floods the device with
    /// near-null collisions.
    #[test]
    fn degenerate_frequencies_always_collide(f in 4.0f64..6.0) {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let freqs = Frequencies::with_uniform_alpha(vec![f; 20], -0.33).unwrap();
        let report = find_collisions(&device, &freqs, &CollisionParams::paper());
        prop_assert!(!report.is_collision_free());
        // Every edge fires Type 1 at zero detuning.
        prop_assert_eq!(report.counts_by_type()[0], device.graph().num_edges());
    }

    /// The check schedule run over a full assignment agrees with both
    /// full-assignment checks: it stops after the block holding the
    /// lowest, over the report's collisions, of the highest qubit each
    /// involves (so it finds a collision exactly when `is_collision_free`
    /// says there is one), after drawing exactly the qubits up to that
    /// block's end.
    #[test]
    fn schedule_agrees_with_the_full_assignment_checks(
        (kind, rows, m) in (0usize..3, 1usize..4, 1usize..4),
        sigma in prop_oneof![Just(0.0), Just(0.1323), 0.0f64..0.05],
        (step, window, straddling) in (0.04f64..0.08, 0.5f64..1.5, 0u8..4),
        seed in 0u64..1_000_000,
    ) {
        let device = small_device(kind, rows, m);
        let plan = FrequencyPlan::with_step(step);
        let noise = Normal::new(0.0, sigma).unwrap();
        let mut rng = Seed(seed).rng();
        let raw = device.qubits().map(|q| plan.ideal(device.class(q)) + noise.sample(&mut rng));
        let full = Frequencies::with_uniform_alpha(raw.collect(), plan.anharmonicity()).unwrap();
        let params = CollisionParams {
            enforce_straddling: straddling != 0,
            ..CollisionParams::paper().scaled(window)
        };
        let schedule = CheckSchedule::new(&device);
        let expected = find_collisions(&device, &full, &params)
            .collisions
            .iter()
            .map(|c| c.qubits.iter().max().unwrap().index())
            .min()
            .map(|q| schedule.blocks().find(|block| block.contains(&q)).unwrap());
        let mut scratch = Frequencies::ideal(&device, &plan);
        let mut draws = 0;
        let hit = schedule.fill_until_collision(&mut scratch, &params, |block, values| {
            draws += values.len();
            values.copy_from_slice(&full.as_slice()[block]);
        });
        prop_assert_eq!(&hit, &expected);
        prop_assert_eq!(hit.is_none(), is_collision_free(&device, &full, &params));
        prop_assert_eq!(draws, hit.as_ref().map_or(device.num_qubits(), |block| block.end));
        if hit.is_none() {
            prop_assert_eq!(&scratch, &full);
        }
    }
}
