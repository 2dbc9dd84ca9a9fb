//! The paper's evaluation set of MCM configurations.
//!
//! Section VII-B: "We considered chiplets with 10, 20, 40, 60, 90, 120,
//! 160, 200, and 250 qubits. We evaluated a total of 102 MCMs … MCM
//! dimensions of k×m were chosen so that each MCM in a chiplet category
//! had a unique size ≤ 500 qubits … MCM dimensions that were more
//! 'square' were prioritized." For every chiplet size `q_c` this is
//! exactly the chip counts `n = 2 … ⌊500/q_c⌋` with the most-square
//! factorization of `n`, which reproduces the paper's count of 102
//! configurations (including its worked example: the 2×2 of 10-qubit
//! chiplets is kept and the 4×1 dropped).

use chipletqc_math::combinatorics::most_square_dims;

use crate::family::ChipletSpec;
use crate::mcm::McmSpec;

/// The paper's system size cap (qubits).
pub const MAX_QUBITS: usize = 500;

/// Every MCM in the paper's evaluation set (102 systems), ordered by
/// chiplet size then total qubits.
///
/// # Example
///
/// ```
/// use chipletqc_topology::evalset::paper_mcms;
///
/// let systems = paper_mcms();
/// assert_eq!(systems.len(), 102);
/// assert!(systems.iter().all(|s| s.num_qubits() <= 500));
/// ```
pub fn paper_mcms() -> Vec<McmSpec> {
    let mut systems = Vec::new();
    for chiplet in ChipletSpec::catalog() {
        let max_chips = MAX_QUBITS / chiplet.num_qubits();
        for chips in 2..=max_chips {
            let (k, m) = most_square_dims(chips);
            systems.push(McmSpec::new(chiplet, k, m));
        }
    }
    systems
}

/// The square (`n×n`) MCMs of the evaluation set — the subset compared
/// in the Fig. 9 infidelity heatmaps.
///
/// # Example
///
/// ```
/// use chipletqc_topology::evalset::square_mcms;
///
/// let squares = square_mcms();
/// // 10q: 2x2..7x7 (6), 20q: 2x2..5x5 (4), 40q: 2 (2x2, 3x3),
/// // 60q/90q/120q: 2x2 only.
/// assert_eq!(squares.len(), 15);
/// assert!(squares.iter().all(|s| s.is_square()));
/// ```
pub fn square_mcms() -> Vec<McmSpec> {
    let mut systems = Vec::new();
    for chiplet in ChipletSpec::catalog() {
        let mut n = 2;
        while n * n * chiplet.num_qubits() <= MAX_QUBITS {
            systems.push(McmSpec::new(chiplet, n, n));
            n += 1;
        }
    }
    systems
}

/// The monolithic-size ladder used by the Fig. 4 yield sweeps: multiples
/// of 5 spanning ~5 to ~1000 qubits with denser coverage at small sizes
/// (where yield changes fastest).
pub fn fig4_size_ladder() -> Vec<usize> {
    let mut sizes: Vec<usize> = (5..=100).step_by(5).collect();
    sizes.extend((120..=300).step_by(20));
    sizes.extend((350..=1000).step_by(50));
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn exactly_102_systems_like_the_paper() {
        assert_eq!(paper_mcms().len(), 102);
    }

    #[test]
    fn per_chiplet_counts_match_derivation() {
        // 49+24+11+7+4+3+2+1+1 = 102: chip counts 2..=500/q_c, one
        // most-square grid per count (the module docs).
        let systems = paper_mcms();
        let count = |q: usize| systems.iter().filter(|s| s.chiplet().num_qubits() == q).count();
        assert_eq!(count(10), 49);
        assert_eq!(count(20), 24);
        assert_eq!(count(40), 11);
        assert_eq!(count(60), 7);
        assert_eq!(count(90), 4);
        assert_eq!(count(120), 3);
        assert_eq!(count(160), 2);
        assert_eq!(count(200), 1);
        assert_eq!(count(250), 1);
    }

    #[test]
    fn sizes_unique_within_chiplet_category() {
        let systems = paper_mcms();
        for chiplet in ChipletSpec::catalog() {
            let sizes: Vec<usize> = systems
                .iter()
                .filter(|s| s.chiplet() == chiplet)
                .map(|s| s.num_qubits())
                .collect();
            let dedup: BTreeSet<usize> = sizes.iter().copied().collect();
            assert_eq!(dedup.len(), sizes.len());
        }
    }

    #[test]
    fn paper_worked_example_present() {
        // "a 40-qubit MCM of dimension 2×2 with 10-qubit chiplets was
        // included … whereas a 4×1 configuration … was omitted."
        let systems = paper_mcms();
        assert!(systems.iter().any(|s| s.chiplet().num_qubits() == 10
            && s.grid_rows() == 2
            && s.grid_cols() == 2));
        assert!(!systems.iter().any(|s| s.chiplet().num_qubits() == 10
            && ((s.grid_rows() == 4 && s.grid_cols() == 1)
                || (s.grid_rows() == 1 && s.grid_cols() == 4))));
    }

    #[test]
    fn excluded_200q_single_counterpart_is_400_qubits() {
        // The paper excludes the 200q chiplet from the yield-improvement
        // average because its only MCM (400 qubits) had a 0%-yield
        // monolithic counterpart.
        let systems = paper_mcms();
        let two_hundred: Vec<_> =
            systems.iter().filter(|s| s.chiplet().num_qubits() == 200).collect();
        assert_eq!(two_hundred.len(), 1);
        assert_eq!(two_hundred[0].num_qubits(), 400);
    }

    #[test]
    fn square_set_matches_fig9_axes() {
        let squares = square_mcms();
        assert_eq!(squares.len(), 15);
        let largest = squares.iter().map(McmSpec::num_qubits).max().unwrap();
        assert_eq!(largest, 500); // 5x5 of 20q chiplets
                                  // The paper's highlighted configurations exist:
        assert!(squares.iter().any(|s| s.chiplet().num_qubits() == 20 && s.grid_rows() == 3)); // 180q
        assert!(squares.iter().any(|s| s.chiplet().num_qubits() == 40 && s.grid_rows() == 3));
        // 360q, best ratio 0.815
    }

    #[test]
    fn squarer_dims_have_smaller_diameter() {
        // The paper's stated reason for preferring square MCMs.
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let square = McmSpec::new(chiplet, 2, 2).build();
        let line = McmSpec::new(chiplet, 1, 4).build();
        assert!(square.graph().diameter().unwrap() < line.graph().diameter().unwrap());
    }

    #[test]
    fn fig4_ladder_is_sorted_multiples_of_five() {
        let ladder = fig4_size_ladder();
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        assert!(ladder.iter().all(|q| q % 5 == 0));
        assert_eq!(*ladder.first().unwrap(), 5);
        assert_eq!(*ladder.last().unwrap(), 1000);
    }
}
