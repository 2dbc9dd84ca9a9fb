//! Undirected coupling graphs.
//!
//! A [`CouplingGraph`] is the raw qubit-connectivity skeleton of a
//! device: which physical qubit pairs support two-qubit gates. The
//! annotated device model (frequency classes, control orientation, chip
//! membership) lives in [`crate::device`].

use std::collections::VecDeque;

use crate::qubit::QubitId;

/// Identifies one undirected edge within a [`CouplingGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An undirected multigraph-free coupling graph over `n` qubits.
///
/// # Example
///
/// ```
/// use chipletqc_topology::graph::CouplingGraph;
/// use chipletqc_topology::qubit::QubitId;
///
/// let mut g = CouplingGraph::with_qubits(3);
/// g.add_edge(QubitId(0), QubitId(1));
/// g.add_edge(QubitId(1), QubitId(2));
/// assert_eq!(g.degree(QubitId(1)), 2);
/// assert_eq!(g.distance(QubitId(0), QubitId(2)), Some(2));
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CouplingGraph {
    adjacency: Vec<Vec<(QubitId, EdgeId)>>,
    endpoints: Vec<(QubitId, QubitId)>,
}

impl CouplingGraph {
    /// Creates a graph with `n` isolated qubits.
    pub fn with_qubits(n: usize) -> CouplingGraph {
        CouplingGraph { adjacency: vec![Vec::new(); n], endpoints: Vec::new() }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.adjacency.len()
    }

    /// The number of edges.
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, if `a == b` (transmons
    /// do not self-couple), or if the edge already exists.
    pub fn add_edge(&mut self, a: QubitId, b: QubitId) -> EdgeId {
        assert!(a.index() < self.num_qubits(), "qubit {a} out of range");
        assert!(b.index() < self.num_qubits(), "qubit {b} out of range");
        assert_ne!(a, b, "self-loop on {a}");
        assert!(self.edge_between(a, b).is_none(), "duplicate edge {a}-{b}");
        let id = EdgeId(self.endpoints.len() as u32);
        self.endpoints.push((a, b));
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        id
    }

    /// The `(a, b)` endpoints of `edge` in insertion order.
    pub fn endpoints(&self, edge: EdgeId) -> (QubitId, QubitId) {
        self.endpoints[edge.index()]
    }

    /// The neighbors of `q` with the connecting edge ids.
    pub fn neighbors(&self, q: QubitId) -> &[(QubitId, EdgeId)] {
        &self.adjacency[q.index()]
    }

    /// The degree of `q`.
    pub fn degree(&self, q: QubitId) -> usize {
        self.adjacency[q.index()].len()
    }

    /// The edge between `a` and `b`, if present.
    pub fn edge_between(&self, a: QubitId, b: QubitId) -> Option<EdgeId> {
        self.adjacency[a.index()].iter().find(|(n, _)| *n == b).map(|(_, e)| *e)
    }

    /// Iterator over all edges as `(EdgeId, a, b)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, QubitId, QubitId)> + '_ {
        self.endpoints.iter().enumerate().map(|(i, (a, b))| (EdgeId(i as u32), *a, *b))
    }

    /// BFS hop distances from `from` to every qubit.
    ///
    /// Unreachable qubits get `u32::MAX`.
    pub fn bfs_distances(&self, from: QubitId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_qubits()];
        let mut queue = VecDeque::new();
        dist[from.index()] = 0;
        queue.push_back(from);
        while let Some(q) = queue.pop_front() {
            let d = dist[q.index()];
            for &(n, _) in &self.adjacency[q.index()] {
                if dist[n.index()] == u32::MAX {
                    dist[n.index()] = d + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// The hop distance between `a` and `b`, or `None` if disconnected.
    pub fn distance(&self, a: QubitId, b: QubitId) -> Option<u32> {
        let d = self.bfs_distances(a)[b.index()];
        (d != u32::MAX).then_some(d)
    }

    /// The full all-pairs hop-distance matrix (row-major,
    /// `matrix[a][b]`). `u32::MAX` marks disconnected pairs.
    ///
    /// Cost is `O(V·E)`, a few milliseconds for the paper's largest
    /// 500-qubit systems; the transpiler builds it once per device for
    /// a whole batch of circuits.
    pub fn distance_matrix(&self) -> Vec<Vec<u32>> {
        (0..self.num_qubits()).map(|q| self.bfs_distances(QubitId(q as u32))).collect()
    }

    /// Whether every qubit can reach every other qubit.
    pub fn is_connected(&self) -> bool {
        if self.num_qubits() == 0 {
            return true;
        }
        self.bfs_distances(QubitId(0)).iter().all(|d| *d != u32::MAX)
    }

    /// The graph diameter (longest shortest path), or `None` if the
    /// graph is disconnected or empty.
    ///
    /// The paper prefers square MCM dimensions precisely "to reduce
    /// topology graph diameter" (Section VII-B); [`crate::evalset`] uses
    /// this to verify that preference quantitatively.
    pub fn diameter(&self) -> Option<u32> {
        if self.num_qubits() == 0 {
            return None;
        }
        let mut best = 0;
        for q in 0..self.num_qubits() {
            let dists = self.bfs_distances(QubitId(q as u32));
            for d in dists {
                if d == u32::MAX {
                    return None;
                }
                best = best.max(d);
            }
        }
        Some(best)
    }

    /// The connected components, each a sorted list of qubits.
    pub fn components(&self) -> Vec<Vec<QubitId>> {
        let mut seen = vec![false; self.num_qubits()];
        let mut components = Vec::new();
        for start in 0..self.num_qubits() {
            if seen[start] {
                continue;
            }
            let mut component = Vec::new();
            let mut queue = VecDeque::new();
            seen[start] = true;
            queue.push_back(QubitId(start as u32));
            while let Some(q) = queue.pop_front() {
                component.push(q);
                for &(n, _) in &self.adjacency[q.index()] {
                    if !seen[n.index()] {
                        seen[n.index()] = true;
                        queue.push_back(n);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// A shortest path from `a` to `b` (inclusive of both), or `None` if
    /// disconnected. Used by the router's SWAP-path fallback.
    pub fn shortest_path(&self, a: QubitId, b: QubitId) -> Option<Vec<QubitId>> {
        if a == b {
            return Some(vec![a]);
        }
        let mut parent: Vec<Option<QubitId>> = vec![None; self.num_qubits()];
        let mut queue = VecDeque::new();
        parent[a.index()] = Some(a);
        queue.push_back(a);
        while let Some(q) = queue.pop_front() {
            for &(n, _) in &self.adjacency[q.index()] {
                if parent[n.index()].is_none() {
                    parent[n.index()] = Some(q);
                    if n == b {
                        let mut path = vec![b];
                        let mut cur = b;
                        while cur != a {
                            cur = parent[cur.index()].unwrap();
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(n);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CouplingGraph {
        let mut g = CouplingGraph::with_qubits(n);
        for i in 0..n - 1 {
            g.add_edge(QubitId(i as u32), QubitId(i as u32 + 1));
        }
        g
    }

    #[test]
    fn empty_graph() {
        let g = CouplingGraph::with_qubits(0);
        assert_eq!(g.num_qubits(), 0);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), None);
        assert!(g.components().is_empty());
    }

    #[test]
    fn path_distances_and_diameter() {
        let g = path_graph(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.distance(QubitId(0), QubitId(4)), Some(4));
        assert_eq!(g.diameter(), Some(4));
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_graph() {
        let mut g = CouplingGraph::with_qubits(4);
        g.add_edge(QubitId(0), QubitId(1));
        g.add_edge(QubitId(2), QubitId(3));
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
        assert_eq!(g.distance(QubitId(0), QubitId(3)), None);
        assert_eq!(g.components().len(), 2);
        assert_eq!(g.components()[0], vec![QubitId(0), QubitId(1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edges() {
        let mut g = CouplingGraph::with_qubits(2);
        g.add_edge(QubitId(0), QubitId(1));
        g.add_edge(QubitId(1), QubitId(0));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let mut g = CouplingGraph::with_qubits(2);
        g.add_edge(QubitId(1), QubitId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut g = CouplingGraph::with_qubits(2);
        g.add_edge(QubitId(0), QubitId(5));
    }

    #[test]
    fn edge_lookup_is_symmetric() {
        let g = path_graph(3);
        let e = g.edge_between(QubitId(0), QubitId(1)).unwrap();
        assert_eq!(g.edge_between(QubitId(1), QubitId(0)), Some(e));
        assert_eq!(g.edge_between(QubitId(0), QubitId(2)), None);
        assert_eq!(g.endpoints(e), (QubitId(0), QubitId(1)));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn distance_matrix_matches_pairwise() {
        let g = path_graph(6);
        let m = g.distance_matrix();
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(m[a][b], (a as i64 - b as i64).unsigned_abs() as u32);
            }
        }
    }

    #[test]
    fn shortest_path_endpoints_and_adjacency() {
        let g = path_graph(7);
        let p = g.shortest_path(QubitId(1), QubitId(5)).unwrap();
        assert_eq!(p.first(), Some(&QubitId(1)));
        assert_eq!(p.last(), Some(&QubitId(5)));
        assert_eq!(p.len(), 5);
        for w in p.windows(2) {
            assert!(g.edge_between(w[0], w[1]).is_some());
        }
        assert_eq!(g.shortest_path(QubitId(3), QubitId(3)), Some(vec![QubitId(3)]));
    }

    #[test]
    fn cycle_diameter() {
        let mut g = CouplingGraph::with_qubits(6);
        for i in 0..6 {
            g.add_edge(QubitId(i), QubitId((i + 1) % 6));
        }
        assert_eq!(g.diameter(), Some(3));
    }
}
