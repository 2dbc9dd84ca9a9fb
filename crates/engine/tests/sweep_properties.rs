//! Property tests (vendored `proptest`) for sweep expansion.
//!
//! For arbitrary sweeps over candidate axis pools:
//!
//! * the scenario count equals the product of the non-empty axis
//!   lengths;
//! * expansion is a pure function of the sweep (the same sweep always
//!   produces the same scenarios in the same order, with unique
//!   names);
//! * the canonical formatting round-trips through the parser into a
//!   sweep with the identical expansion.

#![expect(clippy::unwrap_used, reason = "test code panics on harness failures by design")]

use chipletqc_engine::scenario::{ExperimentKind, Scale, SystemSpec};
use chipletqc_engine::sweep::Sweep;
use proptest::prelude::*;

/// Candidate pools: subsets are selected by bitmask so axis values are
/// always unique (a validity requirement).
const GRID_POOL: [(usize, usize, usize); 3] = [(10, 2, 2), (10, 2, 3), (20, 2, 2)];
const RATIO_POOL: [f64; 4] = [0.5, 1.0, 2.5, 4.17];
const SIGMA_POOL: [f64; 3] = [0.006, 0.014, 0.1323];
const BATCH_POOL: [usize; 3] = [60, 120, 400];
const SEED_POOL: [u64; 4] = [0, 7, 8, u64::MAX];

fn pick<T: Clone>(pool: &[T], mask: u8) -> Vec<T> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, v)| v.clone())
        .collect()
}

fn sweep_from(masks: (u8, u8, u8, u8, u8), kind_pick: u8, group_tail: bool) -> Sweep {
    let kind = match kind_pick % 3 {
        0 => ExperimentKind::Fig8,
        1 => ExperimentKind::Fig9,
        _ => ExperimentKind::Fig10,
    };
    // Fig. 9 panels sweep their own ratio list, so the scalar
    // link-ratio axis does not apply to it (validate rejects it).
    let ratio_mask = if kind == ExperimentKind::Fig9 { 0 } else { masks.1 };
    let mut grids: Vec<Vec<SystemSpec>> = pick(&GRID_POOL, masks.0)
        .into_iter()
        .map(|(q, r, c)| vec![SystemSpec { chiplet_qubits: q, rows: r, cols: c }])
        .collect();
    if group_tail && !grids.is_empty() {
        // Turn the last entry into a two-system group (still unique:
        // no single-system entry formats with a '+').
        let mut group = grids.pop().unwrap();
        group.push(SystemSpec { chiplet_qubits: 20, rows: 3, cols: 3 });
        grids.push(group);
    }
    Sweep {
        name: "prop".into(),
        grids,
        link_ratios: pick(&RATIO_POOL, ratio_mask),
        sigma_fs: pick(&SIGMA_POOL, masks.2),
        batches: pick(&BATCH_POOL, masks.3),
        seeds: pick(&SEED_POOL, masks.4),
        ..Sweep::new(kind, Scale::Quick)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scenario_count_is_the_product_of_nonempty_axis_lengths(
        masks in (0u8..8, 0u8..16, 0u8..8, 0u8..8, 0u8..16),
        kind_pick in 0u8..3,
        group_tail in prop_oneof![Just(false), Just(true)],
    ) {
        let sweep = sweep_from(masks, kind_pick, group_tail);
        prop_assert!(sweep.validate().is_ok(), "pool-built sweeps are valid");
        let expected: usize = [
            sweep.grids.len(),
            sweep.link_ratios.len(),
            sweep.sigma_fs.len(),
            sweep.batches.len(),
            sweep.seeds.len(),
        ]
        .into_iter()
        .filter(|&n| n > 0)
        .product();
        prop_assert_eq!(sweep.expanded_len(), expected);
        prop_assert_eq!(sweep.expand().len(), expected);
    }

    #[test]
    fn expansion_is_pure_and_duplicate_free(
        masks in (0u8..8, 0u8..16, 0u8..8, 0u8..8, 0u8..16),
        kind_pick in 0u8..3,
        group_tail in prop_oneof![Just(false), Just(true)],
    ) {
        let sweep = sweep_from(masks, kind_pick, group_tail);
        let first = sweep.expand();
        // Same input, same scenarios, same order — including a
        // freshly cloned sweep (no hidden interior state).
        prop_assert_eq!(&first, &sweep.expand());
        prop_assert_eq!(&first, &sweep.clone().expand());
        let mut names: Vec<&str> = first.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        prop_assert_eq!(names.len(), first.len());
        for scenario in &first {
            prop_assert_eq!(scenario.kind, sweep.kind);
            prop_assert_eq!(scenario.scale, sweep.scale);
        }
    }

    #[test]
    fn formatting_round_trips_through_the_parser(
        masks in (0u8..8, 0u8..16, 0u8..8, 0u8..8, 0u8..16),
        kind_pick in 0u8..3,
        group_tail in prop_oneof![Just(false), Just(true)],
    ) {
        let sweep = sweep_from(masks, kind_pick, group_tail);
        let text = sweep.to_text();
        let reparsed = match Sweep::parse(&text) {
            Ok(reparsed) => reparsed,
            Err(error) => return Err(TestCaseError::Fail(
                format!("canonical text failed to parse: {error}\n{text}"),
            )),
        };
        prop_assert_eq!(&reparsed, &sweep);
        prop_assert_eq!(reparsed.expand(), sweep.expand());
    }
}
