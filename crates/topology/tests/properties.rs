//! Property tests for the heavy-hex device family.

use proptest::prelude::*;

use chipletqc_topology::device::EdgeKind;
use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
use chipletqc_topology::mcm::McmSpec;
use chipletqc_topology::qubit::{FrequencyClass, QubitId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The family size formula Q = 5·D·m holds constructively for any
    /// shape, and the built device is a connected heavy-hex lattice.
    #[test]
    fn family_formula_holds(dm in 1usize..8, m in 1usize..6) {
        let spec = ChipletSpec::new(2 * dm, m).unwrap();
        prop_assert_eq!(spec.num_qubits(), 5 * 2 * dm * m);
        let device = spec.build();
        prop_assert_eq!(device.num_qubits(), spec.num_qubits());
        prop_assert!(device.graph().is_connected());
        // Heavy-hex: degree <= 3 everywhere.
        for q in device.qubits() {
            prop_assert!(device.graph().degree(q) <= 3);
        }
    }

    /// Monolithic devices of every constructible size are valid and
    /// class-balanced (F2 strictly dominates, F0 == F1 on even rows).
    #[test]
    fn monolithic_sizes_are_constructible(q5 in 1usize..200) {
        let qubits = q5 * 5;
        let device = MonolithicSpec::with_qubits(qubits).unwrap().build();
        prop_assert_eq!(device.num_qubits(), qubits);
        let [f0, f1, f2] = device.class_counts();
        prop_assert_eq!(f0 + f1 + f2, qubits);
        prop_assert!(f2 >= f0 && f2 >= f1);
    }

    /// BFS distances are symmetric and satisfy the triangle inequality
    /// on sampled triples.
    #[test]
    fn distances_are_metric(dm in 1usize..4, m in 1usize..4, s in 0usize..1000) {
        let device = ChipletSpec::new(2 * dm, m).unwrap().build();
        let n = device.num_qubits();
        let (a, b, c) = (
            QubitId((s % n) as u32),
            QubitId((s / 3 % n) as u32),
            QubitId((s / 7 % n) as u32),
        );
        let g = device.graph();
        let d = |x, y| g.distance(x, y).unwrap() as i64;
        prop_assert_eq!(d(a, b), d(b, a));
        prop_assert!(d(a, c) <= d(a, b) + d(b, c));
        prop_assert_eq!(d(a, a), 0);
    }

    /// MCM composition preserves per-chip structure: each chip's
    /// induced subgraph has exactly the standalone chiplet's edges.
    #[test]
    fn mcm_chips_are_exact_copies(m in 1usize..3, k in 1usize..4, g in 1usize..4) {
        let chiplet = ChipletSpec::new(2, m).unwrap();
        let device = McmSpec::new(chiplet, k, g).build();
        let standalone = chiplet.build();
        let per_chip_on_chip = device
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::OnChip)
            .count();
        prop_assert_eq!(per_chip_on_chip, standalone.graph().num_edges() * k * g);
        // Chip ids partition the qubits evenly.
        let qc = chiplet.num_qubits();
        for q in device.qubits() {
            prop_assert_eq!(device.chip(q).index(), q.index() / qc);
        }
    }

    /// Shortest paths returned by the graph are genuine paths of the
    /// stated length.
    #[test]
    fn shortest_paths_are_valid(m in 1usize..4, s in 0usize..500) {
        let device = ChipletSpec::new(4, m).unwrap().build();
        let n = device.num_qubits();
        let (a, b) = (QubitId((s % n) as u32), QubitId((s * 13 % n) as u32));
        let g = device.graph();
        let path = g.shortest_path(a, b).unwrap();
        prop_assert_eq!(path[0], a);
        prop_assert_eq!(*path.last().unwrap(), b);
        prop_assert_eq!(path.len() as u32 - 1, g.distance(a, b).unwrap());
        for w in path.windows(2) {
            prop_assert!(g.edge_between(w[0], w[1]).is_some());
        }
    }

    /// Link qubits are exactly the F2 boundary: every inter-chip edge
    /// is controlled by its F2 endpoint and never doubles up.
    #[test]
    fn link_discipline(m in 1usize..3, k in 2usize..4) {
        let device = McmSpec::new(ChipletSpec::new(2, m).unwrap(), k, k).build();
        let links = device.link_qubits();
        let mut seen = std::collections::BTreeSet::new();
        for e in device.inter_chip_edges() {
            prop_assert_eq!(device.class(e.control), FrequencyClass::F2);
            prop_assert!(links.contains(&e.a) && links.contains(&e.b));
            // No qubit carries two links in this family.
            prop_assert!(seen.insert(e.a));
            prop_assert!(seen.insert(e.b));
        }
    }
}
