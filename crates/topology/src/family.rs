//! The heavy-hex chiplet family `Q = 5·D·m`.
//!
//! Reconstructed from the paper's chiplet descriptions:
//! a chiplet has `D` dense rows of `4m` qubit sites — `4m − 1` pattern
//! columns plus one F2 *right link qubit* — `D − 1` sparse connector rows
//! between them, and one row of F2 *bottom link connectors*, for
//! `5·D·m` qubits total. The paper's own 20-qubit (one complete heavy-hex
//! honeycomb) and 60-qubit (+2 dense rows of +4 qubits, +2 sparse rows of
//! +1 qubit) chiplets pin down the family uniquely.
//!
//! Monolithic devices reuse the identical layout as a single die, so a
//! monolithic device and an MCM of the same total qubit count are
//! structurally comparable (the paper's 100-qubit example: one 100-qubit
//! die vs. a 2×5 module of 10-qubit chiplets).

use crate::device::{Device, DeviceBuilder};
use crate::qubit::ChipIndex;
use crate::rowlayout::{connector_cols, RowLayout};

/// Error constructing a device spec from a qubit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// The qubit count is not expressible as `5·D·m` (monolithic) with
    /// the required constraints.
    UnsupportedSize {
        /// The requested qubit count.
        qubits: usize,
    },
    /// A dimension was zero.
    ZeroDimension,
    /// Chiplets require an even number of dense rows so that the
    /// three-frequency pattern continues across vertical chip
    /// boundaries.
    OddChipletRows {
        /// The requested dense-row count.
        dense_rows: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnsupportedSize { qubits } => {
                write!(f, "no heavy-hex family member with {qubits} qubits (sizes are 5*D*m)")
            }
            SpecError::ZeroDimension => write!(f, "device dimensions must be nonzero"),
            SpecError::OddChipletRows { dense_rows } => {
                write!(f, "chiplets need an even dense-row count, got {dense_rows}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The paper's nine canonical chiplet sizes with their `(D, m)` shapes.
///
/// 20 and 60 are fixed by the paper's text; the rest follow the same
/// alternate-growth progression (grow rows, then widen).
const CATALOG: [(usize, usize, usize); 9] = [
    (10, 2, 1),
    (20, 2, 2),
    (40, 4, 2),
    (60, 4, 3),
    (90, 6, 3),
    (120, 8, 3),
    (160, 8, 4),
    (200, 10, 4),
    (250, 10, 5),
];

/// A chiplet design: `D` (even) dense rows, width parameter `m`.
///
/// # Example
///
/// ```
/// use chipletqc_topology::family::ChipletSpec;
///
/// let c = ChipletSpec::with_qubits(60).unwrap();
/// assert_eq!(c.dense_rows(), 4);
/// assert_eq!(c.pattern_width(), 11);
/// assert_eq!(c.num_qubits(), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChipletSpec {
    dense_rows: usize,
    m: usize,
}

impl ChipletSpec {
    /// Creates a chiplet with `dense_rows` (even, ≥ 2) dense rows and
    /// width parameter `m ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ZeroDimension`] or
    /// [`SpecError::OddChipletRows`] on invalid dimensions.
    pub fn new(dense_rows: usize, m: usize) -> Result<ChipletSpec, SpecError> {
        if dense_rows == 0 || m == 0 {
            return Err(SpecError::ZeroDimension);
        }
        if !dense_rows.is_multiple_of(2) {
            return Err(SpecError::OddChipletRows { dense_rows });
        }
        Ok(ChipletSpec { dense_rows, m })
    }

    /// The canonical chiplet for a qubit count.
    ///
    /// Paper sizes (10–250) use the catalog shapes; other multiples of
    /// ten use the most-square even-row factorization.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnsupportedSize`] if `qubits` is not `5·D·m`
    /// for any even `D`.
    pub fn with_qubits(qubits: usize) -> Result<ChipletSpec, SpecError> {
        if let Some((_, d, m)) = CATALOG.iter().find(|(q, _, _)| *q == qubits) {
            return ChipletSpec::new(*d, *m);
        }
        if qubits == 0 || !qubits.is_multiple_of(10) {
            return Err(SpecError::UnsupportedSize { qubits });
        }
        let dm = qubits / 5;
        best_factorization(dm, true)
            .map(|(d, m)| ChipletSpec { dense_rows: d, m })
            .ok_or(SpecError::UnsupportedSize { qubits })
    }

    /// The paper's nine chiplet designs, ascending by size.
    pub fn catalog() -> Vec<ChipletSpec> {
        CATALOG.iter().map(|(_, d, m)| ChipletSpec { dense_rows: *d, m: *m }).collect()
    }

    /// The number of dense rows `D`.
    pub fn dense_rows(&self) -> usize {
        self.dense_rows
    }

    /// The width parameter `m`.
    pub fn width_param(&self) -> usize {
        self.m
    }

    /// The pattern width `W = 4m − 1` (columns before the right link
    /// qubit).
    pub fn pattern_width(&self) -> usize {
        4 * self.m - 1
    }

    /// Total qubits `5·D·m` (including the link qubits).
    pub fn num_qubits(&self) -> usize {
        5 * self.dense_rows * self.m
    }

    /// Builds this chiplet as a standalone single-chip [`Device`].
    pub fn build(&self) -> Device {
        let mut builder = DeviceBuilder::new(format!("chiplet-{}", self.num_qubits()));
        self.layout().instantiate(&mut builder, ChipIndex(0));
        builder.build()
    }

    /// The row layout of this chiplet (with bottom link gap).
    pub(crate) fn layout(&self) -> RowLayout {
        let end = 4 * self.m as u32 - 1;
        let layout = RowLayout {
            rows: vec![(0, end); self.dense_rows],
            gaps: (0..self.dense_rows).map(|g| connector_cols(g, 0, end)).collect(),
        };
        layout.validate();
        debug_assert_eq!(layout.num_qubits(), self.num_qubits());
        layout
    }
}

impl std::fmt::Display for ChipletSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chiplet-{} ({}x{}m)", self.num_qubits(), self.dense_rows, self.m)
    }
}

/// A monolithic device design from the same heavy-hex family.
///
/// # Example
///
/// ```
/// use chipletqc_topology::family::MonolithicSpec;
///
/// let mono = MonolithicSpec::with_qubits(100).unwrap();
/// let device = mono.build();
/// assert_eq!(device.num_qubits(), 100);
/// assert_eq!(device.num_chips(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MonolithicSpec {
    dense_rows: usize,
    m: usize,
}

impl MonolithicSpec {
    /// Creates a monolithic spec with `dense_rows ≥ 1` dense rows and
    /// width parameter `m ≥ 1` (row parity is unconstrained on a single
    /// die).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ZeroDimension`] on zero dimensions.
    pub fn new(dense_rows: usize, m: usize) -> Result<MonolithicSpec, SpecError> {
        if dense_rows == 0 || m == 0 {
            return Err(SpecError::ZeroDimension);
        }
        Ok(MonolithicSpec { dense_rows, m })
    }

    /// The most-square monolithic device with `qubits` qubits.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnsupportedSize`] unless `qubits` is a
    /// positive multiple of 5.
    pub fn with_qubits(qubits: usize) -> Result<MonolithicSpec, SpecError> {
        if qubits == 0 || !qubits.is_multiple_of(5) {
            return Err(SpecError::UnsupportedSize { qubits });
        }
        best_factorization(qubits / 5, false)
            .map(|(d, m)| MonolithicSpec { dense_rows: d, m })
            .ok_or(SpecError::UnsupportedSize { qubits })
    }

    /// The number of dense rows.
    pub fn dense_rows(&self) -> usize {
        self.dense_rows
    }

    /// The width parameter `m`.
    pub fn width_param(&self) -> usize {
        self.m
    }

    /// Total qubits `5·D·m`.
    pub fn num_qubits(&self) -> usize {
        5 * self.dense_rows * self.m
    }

    /// Builds the monolithic [`Device`].
    pub fn build(&self) -> Device {
        let mut builder = DeviceBuilder::new(format!("mono-{}", self.num_qubits()));
        let end = 4 * self.m as u32 - 1;
        let layout = RowLayout {
            rows: vec![(0, end); self.dense_rows],
            gaps: (0..self.dense_rows).map(|g| connector_cols(g, 0, end)).collect(),
        };
        layout.validate();
        layout.instantiate(&mut builder, ChipIndex(0));
        builder.build()
    }
}

impl std::fmt::Display for MonolithicSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mono-{} ({}x{}m)", self.num_qubits(), self.dense_rows, self.m)
    }
}

/// Picks `(D, m)` with `D·m = dm` minimizing the physical aspect
/// imbalance `|4m − (2D − 1)|`; ties prefer the taller (larger `D`)
/// shape. `even_rows` restricts to even `D` (chiplets).
fn best_factorization(dm: usize, even_rows: bool) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize, i64)> = None;
    for d in 1..=dm {
        if !dm.is_multiple_of(d) {
            continue;
        }
        if even_rows && d % 2 != 0 {
            continue;
        }
        let m = dm / d;
        let imbalance = (4 * m as i64 - (2 * d as i64 - 1)).abs();
        let better = match best {
            None => true,
            Some((bd, _, bi)) => imbalance < bi || (imbalance == bi && d > bd),
        };
        if better {
            best = Some((d, m, imbalance));
        }
    }
    best.map(|(d, m, _)| (d, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qubit::FrequencyClass;

    #[test]
    fn catalog_sizes_match_paper() {
        let sizes: Vec<usize> =
            ChipletSpec::catalog().iter().map(ChipletSpec::num_qubits).collect();
        assert_eq!(sizes, vec![10, 20, 40, 60, 90, 120, 160, 200, 250]);
    }

    #[test]
    fn catalog_builds_exact_sizes() {
        for spec in ChipletSpec::catalog() {
            let device = spec.build();
            assert_eq!(device.num_qubits(), spec.num_qubits(), "{spec}");
            assert!(device.graph().is_connected(), "{spec} disconnected");
        }
    }

    #[test]
    fn paper_20q_and_60q_shapes() {
        let c20 = ChipletSpec::with_qubits(20).unwrap();
        assert_eq!((c20.dense_rows(), c20.pattern_width()), (2, 7));
        let c60 = ChipletSpec::with_qubits(60).unwrap();
        assert_eq!((c60.dense_rows(), c60.pattern_width()), (4, 11));
        // The paper: 60q = 20q + 2 dense rows; dense rows hold 4 more
        // qubits each (8 -> 12 including the link qubit), sparse rows
        // hold 1 more qubit each (2 -> 3).
        assert_eq!(c60.dense_rows() - c20.dense_rows(), 2);
        assert_eq!((c60.pattern_width() + 1) - (c20.pattern_width() + 1), 4);
        assert_eq!(c60.width_param() - c20.width_param(), 1);
    }

    #[test]
    fn chiplet_rejects_bad_dims() {
        assert_eq!(ChipletSpec::new(0, 1).unwrap_err(), SpecError::ZeroDimension);
        assert_eq!(
            ChipletSpec::new(3, 1).unwrap_err(),
            SpecError::OddChipletRows { dense_rows: 3 }
        );
        assert!(ChipletSpec::with_qubits(15).is_err());
        assert!(ChipletSpec::with_qubits(0).is_err());
        assert!(ChipletSpec::with_qubits(12).is_err());
    }

    #[test]
    fn noncatalog_chiplet_sizes_work() {
        let c = ChipletSpec::with_qubits(30).unwrap();
        assert_eq!(c.num_qubits(), 30);
        assert_eq!(c.dense_rows() % 2, 0);
        assert_eq!(c.build().num_qubits(), 30);
    }

    #[test]
    fn monolithic_any_multiple_of_five() {
        for q in [5, 45, 100, 180, 495, 1000] {
            let mono = MonolithicSpec::with_qubits(q).unwrap();
            assert_eq!(mono.num_qubits(), q);
            let d = mono.build();
            assert_eq!(d.num_qubits(), q);
            assert_eq!(d.num_chips(), 1);
            assert!(d.graph().is_connected(), "mono-{q} disconnected");
        }
        assert!(MonolithicSpec::with_qubits(7).is_err());
    }

    #[test]
    fn monolithic_shape_is_squarish() {
        let mono = MonolithicSpec::with_qubits(100).unwrap();
        // 100/5 = 20 = D*m; |4m - (2D-1)| minimized at (5, 4).
        assert_eq!((mono.dense_rows(), mono.width_param()), (5, 4));
    }

    #[test]
    fn no_edge_joins_two_f2_qubits() {
        let device = ChipletSpec::with_qubits(90).unwrap().build();
        for e in device.edges() {
            let (ca, cb) = (device.class(e.a), device.class(e.b));
            assert!(
                !(ca == FrequencyClass::F2 && cb == FrequencyClass::F2),
                "F2-F2 edge {}-{}",
                e.a,
                e.b
            );
            assert_eq!(device.class(e.control), FrequencyClass::F2);
        }
    }

    #[test]
    fn class_balance_is_sane() {
        // In each dense row half the sites are F2; all connectors are F2,
        // so F2 is always the majority class.
        let device = ChipletSpec::with_qubits(250).unwrap().build();
        let [f0, f1, f2] = device.class_counts();
        assert_eq!(f0 + f1 + f2, 250);
        assert!(f2 > f0 && f2 > f1);
        assert_eq!(f0, f1, "F0/F1 should balance on even-row chiplets");
    }

    #[test]
    fn display_forms() {
        let c = ChipletSpec::with_qubits(20).unwrap();
        assert!(c.to_string().contains("chiplet-20"));
        let m = MonolithicSpec::with_qubits(100).unwrap();
        assert!(m.to_string().contains("mono-100"));
    }
}
