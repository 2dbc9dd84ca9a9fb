//! The annotated device model.
//!
//! A [`Device`] combines a [`CouplingGraph`] with the design information
//! the paper's models consume: the three-frequency pattern class of every
//! qubit, the cross-resonance control orientation of every edge, whether
//! each edge is on-chip or an inter-chip (flip-chip) link, and which chip
//! each qubit belongs to.

use crate::graph::{CouplingGraph, EdgeId};
use crate::qubit::{ChipIndex, FrequencyClass, QubitId};

/// Whether a coupling is realized on one die or across dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Resonator coupling between qubits on the same die.
    OnChip,
    /// Flip-chip link through the carrier interposer between qubits on
    /// different chiplets (the yellow links of Fig. 5).
    InterChip,
}

impl EdgeKind {
    /// Whether this is an inter-chip link.
    pub fn is_inter_chip(self) -> bool {
        self == EdgeKind::InterChip
    }
}

impl std::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeKind::OnChip => write!(f, "on-chip"),
            EdgeKind::InterChip => write!(f, "inter-chip"),
        }
    }
}

/// One two-qubit coupling with its CR orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The edge id within the device's coupling graph.
    pub id: EdgeId,
    /// First endpoint (insertion order; use [`Edge::control`]/[`Edge::target`]
    /// for the CR roles).
    pub a: QubitId,
    /// Second endpoint.
    pub b: QubitId,
    /// On-chip or inter-chip.
    pub kind: EdgeKind,
    /// The CR control qubit (always the `F2`-class endpoint in the
    /// heavy-hex plan).
    pub control: QubitId,
}

impl Edge {
    /// The CR target qubit (the endpoint that is not the control).
    pub fn target(&self) -> QubitId {
        if self.control == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// Whether `q` is an endpoint of this edge.
    pub fn touches(&self, q: QubitId) -> bool {
        self.a == q || self.b == q
    }

    /// The endpoint that is not `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not an endpoint.
    pub fn other(&self, q: QubitId) -> QubitId {
        if q == self.a {
            self.b
        } else if q == self.b {
            self.a
        } else {
            panic!("{q} is not an endpoint of edge {:?}", self.id)
        }
    }
}

/// A complete device: coupling graph + frequency classes + CR
/// orientations + chip membership.
///
/// Construct devices through [`crate::family`], [`crate::mcm`], or
/// [`crate::ibm`]; the [`DeviceBuilder`] is exposed for custom
/// topologies and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: String,
    graph: CouplingGraph,
    classes: Vec<FrequencyClass>,
    chips: Vec<ChipIndex>,
    edges: Vec<Edge>,
    num_chips: usize,
    targets_of: Vec<Vec<QubitId>>,
}

impl Device {
    /// The device name (e.g. `"heavy-hex-180 (3x3 of chiplet-20)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.graph.num_qubits()
    }

    /// The number of chips (1 for monolithic devices).
    pub fn num_chips(&self) -> usize {
        self.num_chips
    }

    /// The underlying coupling graph.
    pub fn graph(&self) -> &CouplingGraph {
        &self.graph
    }

    /// The frequency class of `q`.
    pub fn class(&self, q: QubitId) -> FrequencyClass {
        self.classes[q.index()]
    }

    /// The chip that `q` lives on.
    pub fn chip(&self, q: QubitId) -> ChipIndex {
        self.chips[q.index()]
    }

    /// All edges with their annotations.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge between `a` and `b`, if coupled.
    pub fn edge_between(&self, a: QubitId, b: QubitId) -> Option<&Edge> {
        self.graph.edge_between(a, b).map(|id| &self.edges[id.index()])
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// The qubits that `control` drives (its CR targets).
    ///
    /// Collision criteria 5–7 of Table I quantify over pairs of targets
    /// that share a control; the collision checker enumerates them
    /// through this accessor.
    pub fn targets_of(&self, control: QubitId) -> &[QubitId] {
        &self.targets_of[control.index()]
    }

    /// Iterator over all qubit ids.
    pub fn qubits(&self) -> impl Iterator<Item = QubitId> {
        (0..self.graph.num_qubits() as u32).map(QubitId)
    }

    /// The inter-chip edges only.
    pub fn inter_chip_edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(|e| e.kind.is_inter_chip())
    }

    /// The distinct qubits incident to at least one inter-chip link.
    ///
    /// This is the `L` of the paper's post-assembly yield model: every
    /// linked qubit needs 25 successful C4 bump bonds.
    pub fn link_qubits(&self) -> Vec<QubitId> {
        let mut seen = vec![false; self.num_qubits()];
        for e in self.inter_chip_edges() {
            seen[e.a.index()] = true;
            seen[e.b.index()] = true;
        }
        (0..self.num_qubits()).filter(|i| seen[*i]).map(|i| QubitId(i as u32)).collect()
    }

    /// Counts qubits per frequency class, indexed by
    /// [`FrequencyClass::steps`].
    pub fn class_counts(&self) -> [usize; 3] {
        let mut counts = [0; 3];
        for c in &self.classes {
            counts[c.steps() as usize] += 1;
        }
        counts
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} qubits, {} edges ({} inter-chip), {} chips",
            self.name,
            self.num_qubits(),
            self.edges.len(),
            self.inter_chip_edges().count(),
            self.num_chips
        )
    }
}

/// Incremental builder for [`Device`].
///
/// ```
/// use chipletqc_topology::device::{DeviceBuilder, EdgeKind};
/// use chipletqc_topology::qubit::{ChipIndex, FrequencyClass, QubitId};
///
/// let mut b = DeviceBuilder::new("demo");
/// let q0 = b.add_qubit(FrequencyClass::F0, ChipIndex(0));
/// let q1 = b.add_qubit(FrequencyClass::F2, ChipIndex(0));
/// b.add_edge(q0, q1, EdgeKind::OnChip);
/// let device = b.build();
/// assert_eq!(device.edges()[0].control, q1); // F2 controls
/// ```
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    name: String,
    classes: Vec<FrequencyClass>,
    chips: Vec<ChipIndex>,
    edges: Vec<(QubitId, QubitId, EdgeKind, Option<QubitId>)>,
}

impl DeviceBuilder {
    /// Starts a device with the given name.
    pub fn new(name: impl Into<String>) -> DeviceBuilder {
        DeviceBuilder {
            name: name.into(),
            classes: Vec::new(),
            chips: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a qubit and returns its id.
    pub fn add_qubit(&mut self, class: FrequencyClass, chip: ChipIndex) -> QubitId {
        let id = QubitId(self.classes.len() as u32);
        self.classes.push(class);
        self.chips.push(chip);
        id
    }

    /// Adds an edge; the control is inferred as the higher-class
    /// endpoint (`F2` in a well-formed heavy-hex plan).
    ///
    /// # Panics
    ///
    /// Panics if both endpoints have the same frequency class — such an
    /// edge has no well-defined CR direction under the heavy-hex plan;
    /// use [`DeviceBuilder::add_edge_with_control`] for exotic designs.
    pub fn add_edge(&mut self, a: QubitId, b: QubitId, kind: EdgeKind) {
        let (ca, cb) = (self.classes[a.index()], self.classes[b.index()]);
        assert_ne!(
            ca, cb,
            "edge {a}-{b} joins two {ca} qubits; specify the control explicitly"
        );
        let control = if ca > cb { a } else { b };
        self.edges.push((a, b, kind, Some(control)));
    }

    /// Adds an edge with an explicit control endpoint.
    ///
    /// # Panics
    ///
    /// Panics (on [`DeviceBuilder::build`]) if `control` is not an
    /// endpoint.
    pub fn add_edge_with_control(
        &mut self,
        a: QubitId,
        b: QubitId,
        kind: EdgeKind,
        control: QubitId,
    ) {
        self.edges.push((a, b, kind, Some(control)));
    }

    /// The number of qubits added so far.
    pub fn num_qubits(&self) -> usize {
        self.classes.len()
    }

    /// Finalizes the device.
    ///
    /// # Panics
    ///
    /// Panics on duplicate edges, out-of-range endpoints, or a control
    /// that is not an endpoint of its edge.
    pub fn build(self) -> Device {
        let mut graph = CouplingGraph::with_qubits(self.classes.len());
        let mut edges = Vec::with_capacity(self.edges.len());
        let mut targets_of: Vec<Vec<QubitId>> = vec![Vec::new(); self.classes.len()];
        let num_chips = self.chips.iter().map(|c| c.index() + 1).max().unwrap_or(1);
        for (a, b, kind, control) in self.edges {
            let id = graph.add_edge(a, b);
            let control = control.expect("control always set by builder methods");
            assert!(
                control == a || control == b,
                "control {control} is not an endpoint of {a}-{b}"
            );
            let edge = Edge { id, a, b, kind, control };
            targets_of[control.index()].push(edge.target());
            edges.push(edge);
        }
        Device {
            name: self.name,
            graph,
            classes: self.classes,
            chips: self.chips,
            edges,
            num_chips,
            targets_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_device() -> Device {
        // F0 - F2 - F1 path plus an F2 spur on the F0.
        let mut b = DeviceBuilder::new("tiny");
        let f0 = b.add_qubit(FrequencyClass::F0, ChipIndex(0));
        let f2 = b.add_qubit(FrequencyClass::F2, ChipIndex(0));
        let f1 = b.add_qubit(FrequencyClass::F1, ChipIndex(1));
        b.add_edge(f0, f2, EdgeKind::OnChip);
        b.add_edge(f2, f1, EdgeKind::InterChip);
        b.build()
    }

    #[test]
    fn control_is_higher_class() {
        let d = tiny_device();
        assert_eq!(d.edges()[0].control, QubitId(1));
        assert_eq!(d.edges()[0].target(), QubitId(0));
        assert_eq!(d.edges()[1].control, QubitId(1));
        assert_eq!(d.edges()[1].target(), QubitId(2));
    }

    #[test]
    fn targets_of_collects_both() {
        let d = tiny_device();
        assert_eq!(d.targets_of(QubitId(1)), &[QubitId(0), QubitId(2)]);
        assert!(d.targets_of(QubitId(0)).is_empty());
    }

    #[test]
    fn chips_and_links() {
        let d = tiny_device();
        assert_eq!(d.num_chips(), 2);
        assert_eq!(d.inter_chip_edges().count(), 1);
        assert_eq!(d.link_qubits(), vec![QubitId(1), QubitId(2)]);
        assert_eq!(d.chip(QubitId(2)), ChipIndex(1));
    }

    #[test]
    fn class_counts_sum_to_qubits() {
        let d = tiny_device();
        assert_eq!(d.class_counts(), [1, 1, 1]);
    }

    #[test]
    fn edge_accessors() {
        let d = tiny_device();
        let e = d.edge_between(QubitId(0), QubitId(1)).unwrap();
        assert!(e.touches(QubitId(0)));
        assert!(!e.touches(QubitId(2)));
        assert_eq!(e.other(QubitId(0)), QubitId(1));
        assert_eq!(d.edge(e.id).id, e.id);
        assert!(d.edge_between(QubitId(0), QubitId(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let d = tiny_device();
        let e = d.edge_between(QubitId(0), QubitId(1)).unwrap();
        let _ = e.other(QubitId(2));
    }

    #[test]
    #[should_panic(expected = "specify the control")]
    fn same_class_edge_needs_explicit_control() {
        let mut b = DeviceBuilder::new("bad");
        let x = b.add_qubit(FrequencyClass::F0, ChipIndex(0));
        let y = b.add_qubit(FrequencyClass::F0, ChipIndex(0));
        b.add_edge(x, y, EdgeKind::OnChip);
    }

    #[test]
    fn explicit_control_accepted() {
        let mut b = DeviceBuilder::new("explicit");
        let x = b.add_qubit(FrequencyClass::F0, ChipIndex(0));
        let y = b.add_qubit(FrequencyClass::F0, ChipIndex(0));
        b.add_edge_with_control(x, y, EdgeKind::OnChip, x);
        let d = b.build();
        assert_eq!(d.edges()[0].control, x);
    }

    #[test]
    fn display_summarizes() {
        let d = tiny_device();
        let s = d.to_string();
        assert!(s.contains("3 qubits"));
        assert!(s.contains("2 chips"));
        assert!(s.contains("1 inter-chip"));
    }
}
