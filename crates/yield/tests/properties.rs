//! Property tests for the Monte Carlo trial loop.

use proptest::prelude::*;

use chipletqc_collision::checker::is_collision_free;
use chipletqc_collision::criteria::CollisionParams;
use chipletqc_collision::frequencies::Frequencies;
use chipletqc_math::rng::Seed;
use chipletqc_topology::device::Device;
use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
use chipletqc_topology::mcm::McmSpec;
use chipletqc_topology::plan::FrequencyPlan;
use chipletqc_yield::fabrication::FabricationParams;
use chipletqc_yield::monte_carlo::{
    fabricate_collision_free_range, simulate_yield_range, TrialRange,
};

/// A small chiplet (`kind` 0), monolithic (1) or MCM (2) device.
fn small_device(kind: usize, rows: usize, m: usize) -> Device {
    match kind {
        0 => ChipletSpec::new(2 * rows, m).unwrap().build(),
        1 => MonolithicSpec::new(rows, m).unwrap().build(),
        _ => McmSpec::new(ChipletSpec::new(2, m).unwrap(), rows.min(2), 2).build(),
    }
}

/// The trial loop with full draws: sample every trial's whole
/// assignment, then keep those that pass `is_collision_free`.
fn full_draw_survivors(
    device: &Device,
    fab: &FabricationParams,
    params: &CollisionParams,
    range: TrialRange,
    seed: Seed,
) -> Vec<Frequencies> {
    (range.start..range.end)
        .map(|i| fab.sample(device, &mut seed.split(i as u64).rng()))
        .filter(|freqs| is_collision_free(device, freqs, params))
        .collect()
}

fn collision_params() -> impl Strategy<Value = CollisionParams> {
    prop_oneof![
        Just(CollisionParams::paper()),
        (0.5f64..1.5).prop_map(|f| CollisionParams::paper().scaled(f)),
        Just(CollisionParams { enforce_straddling: false, ..CollisionParams::paper() }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tally and the bin of any sub-range equal the full-draw
    /// reference, and the bins of the range's two halves, either side
    /// of any cut, concatenate to the whole.
    #[test]
    fn trial_loop_matches_full_draws(
        (kind, rows, m) in (0usize..3, 1usize..4, 1usize..4),
        step in 0.04f64..0.08,
        sigma_f in prop_oneof![Just(0.0), Just(0.1323), Just(0.014), 0.0f64..0.03],
        params in collision_params(),
        (seed, start, len, cut) in (0u64..1_000_000, 0usize..5000, 0usize..120, 0usize..120),
    ) {
        let device = small_device(kind, rows, m);
        let fab = FabricationParams::new(FrequencyPlan::with_step(step), sigma_f);
        let (range, seed) = (TrialRange { start, end: start + len }, Seed(seed));
        let reference = full_draw_survivors(&device, &fab, &params, range, seed);
        let survivors = reference.len();
        let bin = |start, end| {
            fabricate_collision_free_range(&device, &fab, &params, TrialRange { start, end }, seed)
        };
        let middle = start + cut.min(len);
        let mut halves = bin(start, middle);
        halves.extend(bin(middle, range.end));
        prop_assert_eq!(&halves, &reference);
        prop_assert_eq!(bin(start, range.end), reference);
        let estimate = simulate_yield_range(&device, &fab, &params, range, seed, None);
        prop_assert_eq!((estimate.survivors, estimate.batch), (survivors, len));
    }
}
