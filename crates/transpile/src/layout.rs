//! Initial logical→physical placement.

use chipletqc_circuit::qubit::Qubit;
use chipletqc_topology::device::Device;
use chipletqc_topology::qubit::QubitId;

/// A bijective-on-its-domain mapping from logical circuit qubits to
/// physical device qubits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    to_physical: Vec<QubitId>,
    to_logical: Vec<Option<Qubit>>,
}

impl Layout {
    /// Builds a layout from an explicit logical→physical table over a
    /// device with `physical_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if the table maps two logical qubits to one physical
    /// qubit or indexes outside the device.
    pub fn from_mapping(to_physical: Vec<QubitId>, physical_qubits: usize) -> Layout {
        let mut to_logical = vec![None; physical_qubits];
        for (l, p) in to_physical.iter().enumerate() {
            assert!(p.index() < physical_qubits, "physical {p} out of range");
            assert!(
                to_logical[p.index()].is_none(),
                "physical {p} assigned to two logical qubits"
            );
            to_logical[p.index()] = Some(Qubit(l as u32));
        }
        Layout { to_physical, to_logical }
    }

    /// The physical home of logical `q`.
    pub fn physical(&self, q: Qubit) -> QubitId {
        self.to_physical[q.index()]
    }

    /// The logical occupant of physical `p`, if any.
    pub fn logical(&self, p: QubitId) -> Option<Qubit> {
        self.to_logical[p.index()]
    }

    /// Number of logical qubits placed.
    pub fn num_logical(&self) -> usize {
        self.to_physical.len()
    }

    /// Exchanges the occupants of two physical qubits (the effect of a
    /// routed SWAP). Either or both may be unoccupied ancillas.
    pub fn swap_physical(&mut self, a: QubitId, b: QubitId) {
        let (la, lb) = (self.to_logical[a.index()], self.to_logical[b.index()]);
        if let Some(l) = la {
            self.to_physical[l.index()] = b;
        }
        if let Some(l) = lb {
            self.to_physical[l.index()] = a;
        }
        self.to_logical.swap(a.index(), b.index());
    }
}

/// Initial-placement strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LayoutStrategy {
    /// Logical `i` on physical `i`.
    Trivial,
    /// Logical qubits along a greedy depth-first walk that prefers
    /// low-degree neighbors: the walk extends path-like runs through
    /// the heavy-hex lattice, so program-adjacent logical qubits land
    /// on device-adjacent physical qubits — a strong fit for the
    /// chain-heavy benchmarks (GHZ, QAOA, TFIM, bit code). The
    /// default.
    #[default]
    SnakeOrder,
}

impl LayoutStrategy {
    /// Places `logical_qubits` qubits on `device`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than the device has.
    pub fn place(self, logical_qubits: usize, device: &Device) -> Layout {
        assert!(
            logical_qubits <= device.num_qubits(),
            "{logical_qubits} logical qubits exceed device {} ({} qubits)",
            device.name(),
            device.num_qubits()
        );
        let order: Vec<QubitId> = match self {
            LayoutStrategy::Trivial => device.qubits().collect(),
            LayoutStrategy::SnakeOrder => snake_order(device),
        };
        Layout::from_mapping(order[..logical_qubits].to_vec(), device.num_qubits())
    }
}

/// Greedy depth-first order preferring low-degree-first expansion,
/// seeded at a minimum-degree qubit (a lattice corner), covering all
/// components.
fn snake_order(device: &Device) -> Vec<QubitId> {
    let graph = device.graph();
    let n = graph.num_qubits();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Seed at a corner: the lowest-degree qubit (ties to lowest id).
    let mut seeds: Vec<QubitId> = device.qubits().collect();
    seeds.sort_by_key(|q| (graph.degree(*q), q.0));
    for seed in seeds {
        if visited[seed.index()] {
            continue;
        }
        let mut stack = vec![seed];
        visited[seed.index()] = true;
        while let Some(q) = stack.pop() {
            order.push(q);
            // Push higher-degree neighbors first so the lowest-degree
            // one is popped next: the walk hugs the lattice boundary
            // and produces long adjacent runs.
            let mut neighbors: Vec<QubitId> = graph
                .neighbors(q)
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !visited[n.index()])
                .collect();
            neighbors.sort_by_key(|n| (std::cmp::Reverse(graph.degree(*n)), n.0));
            for n in neighbors {
                visited[n.index()] = true;
                stack.push(n);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_topology::family::ChipletSpec;

    #[test]
    fn trivial_is_identity() {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let layout = LayoutStrategy::Trivial.place(10, &device);
        for l in 0..10u32 {
            assert_eq!(layout.physical(Qubit(l)), QubitId(l));
        }
        assert_eq!(layout.logical(QubitId(3)), Some(Qubit(3)));
        assert_eq!(layout.logical(QubitId(15)), None);
    }

    #[test]
    fn snake_covers_all_qubits_injectively() {
        let device = ChipletSpec::with_qubits(60).unwrap().build();
        let layout = LayoutStrategy::SnakeOrder.place(60, &device);
        let mut seen = [false; 60];
        for l in 0..60u32 {
            let p = layout.physical(Qubit(l));
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn snake_keeps_program_neighbors_close() {
        let device = ChipletSpec::with_qubits(40).unwrap().build();
        let layout = LayoutStrategy::SnakeOrder.place(30, &device);
        // Average physical distance between consecutive logical qubits
        // should beat the trivial layout's (which strides across rows).
        let avg_dist = |layout: &Layout| {
            let d: u32 = (0..29u32)
                .map(|i| {
                    device
                        .graph()
                        .distance(layout.physical(Qubit(i)), layout.physical(Qubit(i + 1)))
                        .unwrap()
                })
                .sum();
            d as f64 / 29.0
        };
        let trivial = LayoutStrategy::Trivial.place(30, &device);
        assert!(avg_dist(&layout) <= avg_dist(&trivial) + 0.5);
    }

    #[test]
    fn swap_physical_updates_both_directions() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let mut layout = LayoutStrategy::Trivial.place(2, &device);
        layout.swap_physical(QubitId(0), QubitId(5));
        assert_eq!(layout.physical(Qubit(0)), QubitId(5));
        assert_eq!(layout.logical(QubitId(5)), Some(Qubit(0)));
        assert_eq!(layout.logical(QubitId(0)), None);
        // Swap back via the ancilla.
        layout.swap_physical(QubitId(5), QubitId(0));
        assert_eq!(layout.physical(Qubit(0)), QubitId(0));
    }

    #[test]
    #[should_panic(expected = "exceed device")]
    fn rejects_oversized_circuits() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        LayoutStrategy::Trivial.place(11, &device);
    }

    #[test]
    #[should_panic(expected = "assigned to two")]
    fn rejects_duplicate_mapping() {
        Layout::from_mapping(vec![QubitId(0), QubitId(0)], 4);
    }
}
