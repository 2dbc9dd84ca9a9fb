//! SABRE-style SWAP routing.
//!
//! After Li, Ding & Xie, "Tackling the Qubit Mapping Problem for
//! NISQ-Era Quantum Devices" (ASPLOS 2019) — the chiplet paper's
//! qubit-mapping reference. The router keeps the *front layer* of
//! blocked two-qubit gates,
//! scores every candidate SWAP by the distance change over the front
//! layer plus a discounted *extended set* lookahead, applies a decay
//! penalty to recently swapped qubits to spread SWAPs out, and inserts
//! the best SWAP until the front layer unblocks.
//!
//! Deviation from the original: tie-breaks are deterministic (lowest
//! edge id) instead of random, so routing is reproducible without an
//! RNG, and a shortest-path fallback guarantees progress if the
//! heuristic stalls.
//!
//! Between SWAPs the router *drains*: it runs every gate that can run,
//! in passes that visit the logical qubits in ascending order and run
//! the gate heading a qubit's queue when it heads all its queues and,
//! for a two-qubit gate, its qubits are adjacent. The drain is
//! event-driven. The front layer is a sorted set updated as gates run,
//! and a pass visits only queue positions whose head can run: after a
//! SWAP, the front gates it made adjacent; after a gate runs, the new
//! heads of its queues. A new head runs in the same pass at its first
//! position ahead of the cursor that no gate has popped in this pass,
//! and otherwise waits for the next pass. That is exactly where a
//! rescan of every queue head per pass would reach it, so the routed
//! circuit is gate-for-gate identical to the rescan's, not merely
//! equivalent up to commuting gates: any report built from gate order
//! stays byte-identical, and the tests compare against a rescan
//! reference by equality. The decay penalty, read only when scoring
//! SWAPs, resets once per drain that ran a gate.
//!
//! SWAPs are scored by delta. Once per SWAP decision the router sums
//! the integer hop distances over the front layer and over the extended
//! set; a candidate's sums are those plus the distance change of only
//! the gates with a logical qubit on one of its two physical qubits,
//! found through a per-logical-qubit index. Integer sums convert to
//! `f64` exactly, so every score, tie-break and chosen SWAP equals a
//! float re-sum over every gate. The front layer and the extended set
//! (with its index) are rebuilt only after a drain that ran a gate:
//! without one, the front layer and the executed gates are unchanged,
//! and SWAPs, the stall fallback's included, move only the layout.

use std::collections::{BTreeSet, VecDeque};

use chipletqc_circuit::circuit::Circuit;
use chipletqc_circuit::gate::{Gate, GateQubits};
use chipletqc_circuit::qubit::Qubit;
use chipletqc_topology::device::Device;
use chipletqc_topology::qubit::QubitId;

use crate::layout::Layout;

/// SABRE heuristic parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingParams {
    /// Extended-set size (lookahead gates).
    pub extended_set_size: usize,
    /// Extended-set weight `W`.
    pub extended_set_weight: f64,
    /// Decay increment per SWAP on the involved qubits.
    pub decay_delta: f64,
    /// SWAPs between decay resets.
    pub decay_reset_interval: usize,
}

impl RoutingParams {
    /// The parameters from the SABRE paper.
    pub fn sabre() -> RoutingParams {
        RoutingParams {
            extended_set_size: 20,
            extended_set_weight: 0.5,
            decay_delta: 0.001,
            decay_reset_interval: 5,
        }
    }
}

impl Default for RoutingParams {
    fn default() -> Self {
        RoutingParams::sabre()
    }
}

/// The routing result: a physical-qubit circuit plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed {
    /// The circuit over physical qubit indices; every two-qubit gate
    /// respects device connectivity.
    pub circuit: Circuit,
    /// SWAPs inserted.
    pub swaps: usize,
    /// Where each logical qubit ended up.
    pub final_layout: Layout,
}

/// Routes `circuit` onto `device` starting from `layout`.
///
/// `dist` is the device's all-pairs hop-distance table
/// ([`CouplingGraph::distance_matrix`](chipletqc_topology::graph::CouplingGraph::distance_matrix));
/// [`Transpiler::transpile_many`](crate::pipeline::Transpiler::transpile_many)
/// and [`Transpiler::usage_many`](crate::pipeline::Transpiler::usage_many)
/// build it once for all the circuits they route onto one device.
///
/// # Panics
///
/// Panics if the circuit is wider than the device, `dist` does not
/// cover the device, or the device is disconnected (no routing exists
/// between components).
pub fn route(
    circuit: &Circuit,
    device: &Device,
    dist: &[Vec<u32>],
    layout: &Layout,
    params: &RoutingParams,
) -> Routed {
    assert!(circuit.num_qubits() <= device.num_qubits(), "circuit wider than device");
    assert_eq!(dist.len(), device.num_qubits(), "distance table of another device");
    let gates = circuit.gates();
    let mut layout = layout.clone();
    let mut out = Circuit::named(device.num_qubits(), circuit.name().to_string());

    // Per-qubit gate queues: gate g is ready when it heads the queue of
    // every qubit it touches.
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); circuit.num_qubits()];
    for (g, gate) in gates.iter().enumerate() {
        for q in gate.qubits().iter() {
            queues[q.index()].push_back(g);
        }
    }
    let mut executed = vec![false; gates.len()];
    let mut remaining = gates.len();
    let mut swaps = 0usize;
    let mut decay = vec![1.0f64; device.num_qubits()];
    let mut swaps_since_reset = 0usize;
    let mut swaps_since_progress = 0usize;
    let mut scan_start = 0usize;
    let stall_limit = 4 * device.num_qubits() + 64;

    // The front layer (ready two-qubit gates), the queue positions whose
    // head can run when the next drain pass starts, and the pass that
    // last popped each queue (passes count from 1).
    let mut front: BTreeSet<(Qubit, Qubit)> = BTreeSet::new();
    let mut runnable: BTreeSet<usize> = BTreeSet::new();
    let mut popped = vec![0usize; queues.len()];
    let mut pass = 0usize;
    for q in 0..queues.len() {
        if let Some((lo, _)) = runnable_head(q, gates, &queues, &mut front, &layout, dist) {
            runnable.insert(lo);
        }
    }
    // A SWAP can move any placed logical qubit, so the lookahead's
    // per-qubit index spans the layout, not just the circuit's qubits.
    let mut lookahead = Lookahead::new(layout.num_logical());
    let mut candidates: Vec<(QubitId, QubitId)> = Vec::new();

    while remaining > 0 {
        // Front gates the last SWAPs made adjacent can run now.
        for &(a, b) in &front {
            if adjacent(dist, &layout, a, b) {
                runnable.insert(a.index().min(b.index()));
            }
        }

        // Phase 1: drain everything executable, pass by pass.
        let mut progressed = false;
        while !runnable.is_empty() {
            pass += 1;
            let mut visit = std::mem::take(&mut runnable);
            while let Some(p) = visit.pop_first() {
                // A runnable gate is queued at one position only, so
                // nothing has popped `p` earlier in this pass.
                debug_assert_ne!(popped[p], pass, "position visited after a pop");
                let g = queues[p][0];
                let gate = gates[g];
                emit(&mut out, &gate, &layout);
                for q in gate.qubits().iter() {
                    queues[q.index()].pop_front();
                    popped[q.index()] = pass;
                }
                if let GateQubits::Two(a, b) = gate.qubits() {
                    front.remove(&(a, b));
                }
                executed[g] = true;
                remaining -= 1;
                progressed = true;
                // A new head runs in this pass at its first position
                // ahead of the cursor that no gate has popped, else at
                // its lowest position in the next pass.
                for q in gate.qubits().iter() {
                    let Some((lo, hi)) =
                        runnable_head(q.index(), gates, &queues, &mut front, &layout, dist)
                    else {
                        continue;
                    };
                    match [lo, hi].into_iter().find(|&x| x > p && popped[x] != pass) {
                        Some(x) => visit.insert(x),
                        None => runnable.insert(lo),
                    };
                }
            }
        }
        if remaining == 0 {
            break;
        }
        if progressed {
            swaps_since_progress = 0;
            decay.iter_mut().for_each(|d| *d = 1.0);
        }

        // Phase 2: the front layer is blocked; pick a SWAP. The front
        // layer and the extended set change only when a gate runs.
        if progressed || lookahead.is_empty() {
            assert!(
                !front.is_empty(),
                "router stalled with {remaining} gates and an empty front layer"
            );
            // Advance the dense-executed-prefix pointer so the
            // extended-set scan stays O(window) instead of O(circuit).
            while scan_start < gates.len() && executed[scan_start] {
                scan_start += 1;
            }
            lookahead.rebuild(gates, &executed, scan_start, &front, params.extended_set_size);
        }
        let front_gates = lookahead.front();

        if swaps_since_progress >= stall_limit {
            // Fallback: force the first blocked gate together along a
            // shortest path.
            let (a, b) = front_gates[0];
            let (pa, pb) = (layout.physical(a), layout.physical(b));
            let path = device.graph().shortest_path(pa, pb).expect("device is connected");
            for w in path.windows(2).take(path.len().saturating_sub(2)) {
                out.swap(Qubit(w[0].0), Qubit(w[1].0));
                layout.swap_physical(w[0], w[1]);
                swaps += 1;
            }
            swaps_since_progress = 0;
            continue;
        }

        // Candidate SWAPs: every device edge touching a front gate's
        // physical qubits.
        candidates.clear();
        for &(a, b) in front_gates {
            for p in [layout.physical(a), layout.physical(b)] {
                for &(n, _) in device.graph().neighbors(p) {
                    let (x, y) = if p < n { (p, n) } else { (n, p) };
                    candidates.push((x, y));
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();

        // Integer distance sums convert to `f64` exactly, so these
        // costs equal the per-candidate float re-sums bit for bit.
        let (front_len, ext_len) = (front_gates.len() as f64, lookahead.extended_len() as f64);
        let base = lookahead.distance_sums(dist, &layout);
        let mut best: Option<((QubitId, QubitId), f64)> = None;
        for &(x, y) in &candidates {
            let [front_sum, ext_sum] = lookahead.swapped_sums(base, dist, &layout, x, y);
            let front_cost = front_sum as f64 / front_len;
            let ext_cost = if ext_len == 0.0 { 0.0 } else { ext_sum as f64 / ext_len };
            let score = decay[x.index()].max(decay[y.index()])
                * (front_cost + params.extended_set_weight * ext_cost);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some(((x, y), score));
            }
        }
        let ((x, y), _) = best.expect("blocked front implies candidate swaps");
        out.swap(Qubit(x.0), Qubit(y.0));
        layout.swap_physical(x, y);
        swaps += 1;
        swaps_since_progress += 1;
        decay[x.index()] += params.decay_delta;
        decay[y.index()] += params.decay_delta;
        swaps_since_reset += 1;
        if swaps_since_reset >= params.decay_reset_interval {
            decay.iter_mut().for_each(|d| *d = 1.0);
            swaps_since_reset = 0;
        }
    }

    Routed { circuit: out, swaps, final_layout: layout }
}

/// Where the gate heading queue `q` can run, as its lowest and highest
/// queue positions: a one-qubit head at `q` alone; a two-qubit head
/// once it heads both its queues (which adds it to `front`), and only
/// while its qubits are adjacent. `None` when the head cannot run yet
/// or was already found through its other queue.
fn runnable_head(
    q: usize,
    gates: &[Gate],
    queues: &[VecDeque<usize>],
    front: &mut BTreeSet<(Qubit, Qubit)>,
    layout: &Layout,
    dist: &[Vec<u32>],
) -> Option<(usize, usize)> {
    let &g = queues[q].front()?;
    match gates[g].qubits() {
        GateQubits::One(_) => Some((q, q)),
        GateQubits::Two(a, b) => {
            let heads = |x: Qubit| queues[x.index()].front() == Some(&g);
            (heads(a) && heads(b) && front.insert((a, b)) && adjacent(dist, layout, a, b))
                .then(|| (a.index().min(b.index()), a.index().max(b.index())))
        }
    }
}

/// Whether logical qubits `a` and `b` sit on coupled physical qubits.
fn adjacent(dist: &[Vec<u32>], layout: &Layout, a: Qubit, b: Qubit) -> bool {
    dist[layout.physical(a).index()][layout.physical(b).index()] == 1
}

/// The next `limit` unexecuted two-qubit gates in program order,
/// excluding the front layer itself — SABRE's lookahead window.
fn extended_set(
    gates: &[Gate],
    executed: &[bool],
    scan_start: usize,
    front: &[(Qubit, Qubit)],
    limit: usize,
) -> Vec<(Qubit, Qubit)> {
    let mut extended = Vec::with_capacity(limit);
    let mut skipped_front: Vec<(Qubit, Qubit)> = front.to_vec();
    for (g, gate) in gates.iter().enumerate().skip(scan_start) {
        if extended.len() >= limit {
            break;
        }
        if executed[g] {
            continue;
        }
        if let GateQubits::Two(a, b) = gate.qubits() {
            if let Some(pos) = skipped_front.iter().position(|f| *f == (a, b)) {
                skipped_front.swap_remove(pos);
                continue;
            }
            extended.push((a, b));
        }
    }
    extended
}

/// No entry: the end of a [`Lookahead`] list.
const NONE: u32 = u32::MAX;

/// The gates a SWAP is scored over — the front layer, then the extended
/// set — with each logical qubit's gates threaded into a list, so a
/// candidate SWAP re-measures only the gates on its two qubits.
struct Lookahead {
    /// Front-layer gates (ascending), then extended-set gates.
    gates: Vec<(Qubit, Qubit)>,
    /// How many of `gates` are the front layer.
    front_len: usize,
    /// Per logical qubit, its first entry, or [`NONE`]. Entry `2g + s`
    /// is side `s` (0 for `a`, 1 for `b`) of gate `g`.
    head: Vec<u32>,
    /// Per entry, the next entry on the same logical qubit, or [`NONE`].
    next: Vec<u32>,
}

impl Lookahead {
    fn new(logical_qubits: usize) -> Lookahead {
        Lookahead {
            gates: Vec::new(),
            front_len: 0,
            head: vec![NONE; logical_qubits],
            next: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    fn front(&self) -> &[(Qubit, Qubit)] {
        &self.gates[..self.front_len]
    }

    fn extended_len(&self) -> usize {
        self.gates.len() - self.front_len
    }

    /// Takes `front` and, after it, its [`extended_set`].
    fn rebuild(
        &mut self,
        gates: &[Gate],
        executed: &[bool],
        scan_start: usize,
        front: &BTreeSet<(Qubit, Qubit)>,
        limit: usize,
    ) {
        for &(a, b) in &self.gates {
            self.head[a.index()] = NONE;
            self.head[b.index()] = NONE;
        }
        self.gates.clear();
        self.gates.extend(front);
        self.front_len = self.gates.len();
        let extended = extended_set(gates, executed, scan_start, self.front(), limit);
        self.gates.extend(extended);
        self.next.clear();
        self.next.resize(2 * self.gates.len(), NONE);
        for (g, &(a, b)) in self.gates.iter().enumerate() {
            for (side, q) in [a, b].into_iter().enumerate() {
                let entry = 2 * g + side;
                self.next[entry] = self.head[q.index()];
                self.head[q.index()] = entry as u32;
            }
        }
    }

    /// The front layer's and the extended set's summed hop distances
    /// under `layout`.
    fn distance_sums(&self, dist: &[Vec<u32>], layout: &Layout) -> [i64; 2] {
        let mut sums = [0i64; 2];
        for (g, &(a, b)) in self.gates.iter().enumerate() {
            sums[usize::from(g >= self.front_len)] +=
                hop(dist, layout.physical(a), layout.physical(b));
        }
        sums
    }

    /// The [`Lookahead::distance_sums`] after swapping physical `x` and
    /// `y`, from the sums `base` before it: only the gates on the
    /// logical qubits at `x` and `y` change distance.
    fn swapped_sums(
        &self,
        base: [i64; 2],
        dist: &[Vec<u32>],
        layout: &Layout,
        x: QubitId,
        y: QubitId,
    ) -> [i64; 2] {
        let moved = |p: QubitId| {
            if p == x {
                y
            } else if p == y {
                x
            } else {
                p
            }
        };
        let (lx, ly) = (layout.logical(x), layout.logical(y));
        let mut sums = base;
        // A gate on both qubits is on both lists; count it on `lx`'s.
        for (l, skip) in [(lx, None), (ly, lx)] {
            let Some(l) = l else { continue };
            let mut entry = self.head[l.index()];
            while entry != NONE {
                let g = entry as usize / 2;
                let (a, b) = self.gates[g];
                if skip.is_none_or(|s| a != s && b != s) {
                    let (pa, pb) = (layout.physical(a), layout.physical(b));
                    sums[usize::from(g >= self.front_len)] +=
                        hop(dist, moved(pa), moved(pb)) - hop(dist, pa, pb);
                }
                entry = self.next[entry as usize];
            }
        }
        sums
    }
}

/// The hop distance between physical `p` and `q`, widened so sums and
/// differences of unreachable pairs (`u32::MAX`) stay exact.
fn hop(dist: &[Vec<u32>], p: QubitId, q: QubitId) -> i64 {
    i64::from(dist[p.index()][q.index()])
}

/// Emits a gate with its qubits remapped through the layout.
fn emit(out: &mut Circuit, gate: &Gate, layout: &Layout) {
    let map = |q: Qubit| Qubit(layout.physical(q).0);
    let mapped = match *gate {
        Gate::Rz { q, theta } => Gate::Rz { q: map(q), theta },
        Gate::Sx { q } => Gate::Sx { q: map(q) },
        Gate::X { q } => Gate::X { q: map(q) },
        Gate::H { q } => Gate::H { q: map(q) },
        Gate::Rx { q, theta } => Gate::Rx { q: map(q), theta },
        Gate::Ry { q, theta } => Gate::Ry { q: map(q), theta },
        Gate::Cx { control, target } => Gate::Cx { control: map(control), target: map(target) },
        Gate::Swap { a, b } => Gate::Swap { a: map(a), b: map(b) },
        Gate::Rzz { a, b, theta } => Gate::Rzz { a: map(a), b: map(b), theta },
        Gate::Measure { q } => Gate::Measure { q: map(q) },
    };
    out.push(mapped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutStrategy;
    use crate::pipeline::Transpiler;
    use chipletqc_benchmarks::suite::Benchmark;
    use chipletqc_math::rng::Seed;
    use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
    use chipletqc_topology::mcm::McmSpec;
    use proptest::prelude::*;

    /// The rescan drain [`route`] replaced, kept verbatim as the
    /// property test's reference: every drain pass re-reads every queue
    /// head, `decay` resets after every executed gate, and every call
    /// builds its own distance table.
    fn reference_route(
        circuit: &Circuit,
        device: &Device,
        layout: &Layout,
        params: &RoutingParams,
    ) -> Routed {
        assert!(circuit.num_qubits() <= device.num_qubits(), "circuit wider than device");
        let dist = device.graph().distance_matrix();
        let gates = circuit.gates();
        let mut layout = layout.clone();
        let mut out = Circuit::named(device.num_qubits(), circuit.name().to_string());

        // Per-qubit gate queues: gate g is ready when it heads the queue of
        // every qubit it touches.
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); circuit.num_qubits()];
        for (g, gate) in gates.iter().enumerate() {
            for q in gate.qubits().iter() {
                queues[q.index()].push_back(g);
            }
        }
        let mut executed = vec![false; gates.len()];
        let mut remaining = gates.len();
        let mut swaps = 0usize;
        let mut decay = vec![1.0f64; device.num_qubits()];
        let mut swaps_since_reset = 0usize;
        let mut swaps_since_progress = 0usize;
        let mut scan_start = 0usize;
        let stall_limit = 4 * device.num_qubits() + 64;

        let is_ready = |queues: &[VecDeque<usize>], g: usize, gate: &Gate| {
            gate.qubits().iter().all(|q| queues[q.index()].front() == Some(&g))
        };

        while remaining > 0 {
            // Phase 1: drain everything executable.
            let mut progressed = true;
            while progressed {
                progressed = false;
                // Candidate gates are the heads of all queues.
                let heads: Vec<usize> =
                    queues.iter().filter_map(|q| q.front().copied()).collect();
                for g in heads {
                    if executed[g] || !is_ready(&queues, g, &gates[g]) {
                        continue;
                    }
                    let gate = gates[g];
                    let runnable = match gate.qubits() {
                        GateQubits::One(_) => true,
                        GateQubits::Two(a, b) => {
                            let (pa, pb) = (layout.physical(a), layout.physical(b));
                            device.graph().edge_between(pa, pb).is_some()
                        }
                    };
                    if runnable {
                        emit(&mut out, &gate, &layout);
                        for q in gate.qubits().iter() {
                            queues[q.index()].pop_front();
                        }
                        executed[g] = true;
                        remaining -= 1;
                        progressed = true;
                        swaps_since_progress = 0;
                        decay.iter_mut().for_each(|d| *d = 1.0);
                    }
                }
            }
            if remaining == 0 {
                break;
            }

            // Phase 2: the front layer is blocked; pick a SWAP.
            let front: Vec<(Qubit, Qubit)> = queues
                .iter()
                .filter_map(|q| q.front().copied())
                .filter(|g| is_ready(&queues, *g, &gates[*g]))
                .filter_map(|g| match gates[g].qubits() {
                    GateQubits::Two(a, b) => Some((a, b)),
                    GateQubits::One(_) => None,
                })
                .collect();
            let mut front_dedup = front;
            front_dedup.sort_unstable();
            front_dedup.dedup();
            assert!(
                !front_dedup.is_empty(),
                "router stalled with {remaining} gates and an empty front layer"
            );

            // Advance the dense-executed-prefix pointer so the extended-set
            // scan stays O(window) instead of O(circuit).
            while scan_start < gates.len() && executed[scan_start] {
                scan_start += 1;
            }

            if swaps_since_progress >= stall_limit {
                // Fallback: force the first blocked gate together along a
                // shortest path.
                let (a, b) = front_dedup[0];
                let (pa, pb) = (layout.physical(a), layout.physical(b));
                let path = device.graph().shortest_path(pa, pb).expect("device is connected");
                for w in path.windows(2).take(path.len().saturating_sub(2)) {
                    out.swap(Qubit(w[0].0), Qubit(w[1].0));
                    layout.swap_physical(w[0], w[1]);
                    swaps += 1;
                }
                swaps_since_progress = 0;
                continue;
            }

            let extended = extended_set(
                gates,
                &executed,
                scan_start,
                &front_dedup,
                params.extended_set_size,
            );

            // Candidate SWAPs: every device edge touching a front gate's
            // physical qubits.
            let mut candidates: Vec<(QubitId, QubitId)> = Vec::new();
            for &(a, b) in &front_dedup {
                for p in [layout.physical(a), layout.physical(b)] {
                    for &(n, _) in device.graph().neighbors(p) {
                        let (x, y) = if p < n { (p, n) } else { (n, p) };
                        candidates.push((x, y));
                    }
                }
            }
            candidates.sort_unstable();
            candidates.dedup();

            let mut best: Option<((QubitId, QubitId), f64)> = None;
            for &(x, y) in &candidates {
                layout.swap_physical(x, y);
                let front_cost: f64 = front_dedup
                    .iter()
                    .map(|&(a, b)| {
                        dist[layout.physical(a).index()][layout.physical(b).index()] as f64
                    })
                    .sum::<f64>()
                    / front_dedup.len() as f64;
                let ext_cost: f64 = if extended.is_empty() {
                    0.0
                } else {
                    extended
                        .iter()
                        .map(|&(a, b)| {
                            dist[layout.physical(a).index()][layout.physical(b).index()] as f64
                        })
                        .sum::<f64>()
                        / extended.len() as f64
                };
                layout.swap_physical(x, y); // undo
                let score = decay[x.index()].max(decay[y.index()])
                    * (front_cost + params.extended_set_weight * ext_cost);
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some(((x, y), score));
                }
            }
            let ((x, y), _) = best.expect("blocked front implies candidate swaps");
            out.swap(Qubit(x.0), Qubit(y.0));
            layout.swap_physical(x, y);
            swaps += 1;
            swaps_since_progress += 1;
            decay[x.index()] += params.decay_delta;
            decay[y.index()] += params.decay_delta;
            swaps_since_reset += 1;
            if swaps_since_reset >= params.decay_reset_interval {
                decay.iter_mut().for_each(|d| *d = 1.0);
                swaps_since_reset = 0;
            }
        }

        Routed { circuit: out, swaps, final_layout: layout }
    }

    fn route_sabre(circuit: &Circuit, device: &Device, layout: &Layout) -> Routed {
        let dist = device.graph().distance_matrix();
        route(circuit, device, &dist, layout, &RoutingParams::sabre())
    }

    fn check_connectivity(routed: &Routed, device: &Device) {
        for g in routed.circuit.gates() {
            if let GateQubits::Two(a, b) = g.qubits() {
                assert!(
                    device.graph().edge_between(QubitId(a.0), QubitId(b.0)).is_some(),
                    "{} on non-adjacent {a},{b}",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn already_adjacent_circuit_needs_no_swaps() {
        let device = MonolithicSpec::with_qubits(20).unwrap().build();
        // CX along a device edge, using trivial layout.
        let e = &device.edges()[0];
        let mut c = Circuit::new(device.num_qubits());
        c.cx(Qubit(e.a.0), Qubit(e.b.0));
        let layout = LayoutStrategy::Trivial.place(device.num_qubits(), &device);
        let routed = route_sabre(&c, &device, &layout);
        assert_eq!(routed.swaps, 0);
        assert_eq!(routed.circuit.count_2q(), 1);
    }

    #[test]
    fn distant_cx_gets_routed() {
        let device = MonolithicSpec::with_qubits(40).unwrap().build();
        let far = device.num_qubits() as u32 - 1;
        let mut c = Circuit::new(device.num_qubits());
        c.cx(Qubit(0), Qubit(far));
        let layout = LayoutStrategy::Trivial.place(device.num_qubits(), &device);
        let routed = route_sabre(&c, &device, &layout);
        assert!(routed.swaps > 0);
        check_connectivity(&routed, &device);
        // Original CX still present exactly once.
        let cx = routed.circuit.gates().iter().filter(|g| matches!(g, Gate::Cx { .. })).count();
        assert_eq!(cx, 1);
    }

    #[test]
    fn all_benchmarks_route_on_a_100q_monolithic() {
        let device = MonolithicSpec::with_qubits(100).unwrap().build();
        let layout_full = LayoutStrategy::SnakeOrder.place(device.num_qubits(), &device);
        for b in Benchmark::ALL {
            let circuit = b.for_device_qubits(100, Seed(2));
            let routed = route_sabre(&circuit, &device, &layout_full);
            check_connectivity(&routed, &device);
            assert_eq!(
                routed.circuit.count_2q(),
                circuit.count_2q() + routed.swaps,
                "{b}: gate accounting"
            );
            assert_eq!(routed.circuit.count_measurements(), circuit.count_measurements());
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let device = MonolithicSpec::with_qubits(60).unwrap().build();
        let circuit = Benchmark::Qaoa.for_device_qubits(60, Seed(3));
        let layout = LayoutStrategy::SnakeOrder.place(device.num_qubits(), &device);
        let a = route_sabre(&circuit, &device, &layout);
        let b = route_sabre(&circuit, &device, &layout);
        assert_eq!(a, b);
    }

    #[test]
    fn snake_layout_beats_trivial_on_ghz() {
        let device = MonolithicSpec::with_qubits(80).unwrap().build();
        let circuit = Benchmark::Ghz.for_device_qubits(80, Seed(4));
        let snake = LayoutStrategy::SnakeOrder.place(device.num_qubits(), &device);
        let trivial = LayoutStrategy::Trivial.place(device.num_qubits(), &device);
        let swaps_snake = route_sabre(&circuit, &device, &snake).swaps;
        let swaps_trivial = route_sabre(&circuit, &device, &trivial).swaps;
        assert!(swaps_snake <= swaps_trivial, "snake {swaps_snake} vs trivial {swaps_trivial}");
    }

    #[test]
    fn final_layout_tracks_swaps() {
        let device = MonolithicSpec::with_qubits(40).unwrap().build();
        let mut c = Circuit::new(device.num_qubits());
        c.cx(Qubit(0), Qubit(39));
        let layout = LayoutStrategy::Trivial.place(device.num_qubits(), &device);
        let routed = route_sabre(&c, &device, &layout);
        // Replaying the routed circuit's swaps over the initial layout
        // must yield the final layout.
        let mut replay = layout.clone();
        for g in routed.circuit.gates() {
            if let Gate::Swap { a, b } = g {
                replay.swap_physical(QubitId(a.0), QubitId(b.0));
            }
        }
        assert_eq!(replay, routed.final_layout);
    }

    /// A program over `width` qubits from `(kind, x, y, len)` ops: a
    /// one-qubit gate, a run of `len` one-qubit gates (one full rescan
    /// pass per gate in the reference), a CX or RZZ, or a measurement.
    fn random_circuit(width: usize, ops: &[(u8, usize, usize, usize)]) -> Circuit {
        let mut c = Circuit::new(width);
        for &(kind, x, y, len) in ops {
            let a = Qubit((x % width) as u32);
            let b = Qubit(((x + 1 + y % (width - 1)) % width) as u32);
            match kind {
                0 => c.push(Gate::H { q: a }),
                1 => (0..len).for_each(|i| c.push(Gate::Rz { q: a, theta: 0.1 * i as f64 })),
                2 | 3 => c.push(Gate::Cx { control: a, target: b }),
                4 => c.push(Gate::Rzz { a, b, theta: 0.3 }),
                _ => c.push(Gate::Measure { q: a }),
            }
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The event-driven drain emits the rescan reference's exact
        /// output (gate order, SWAPs, final layout) on monolithic,
        /// chiplet and MCM devices under both layouts and any SABRE
        /// parameters (lookahead weights up to 4 stall the heuristic
        /// often enough to exercise the shortest-path fallback), and
        /// with layouts that place every device qubit, so a candidate
        /// SWAP can move a placed logical qubit no gate uses;
        /// `transpile_many` equals per-circuit `transpile`.
        #[test]
        fn route_matches_the_rescan_reference(
            pick in 0usize..3,
            snake in 0usize..2,
            wide in 0usize..2,
            widths in (0.05f64..1.0, 0.05f64..1.0),
            ops in prop::collection::vec((0u8..6, 0usize..1000, 0usize..1000, 2usize..30), 0..160),
            more in prop::collection::vec((0u8..6, 0usize..1000, 0usize..1000, 2usize..30), 0..60),
            sabre in (0usize..24, 0.0f64..4.0, 0.0f64..0.01, 1usize..8),
        ) {
            let device = match pick {
                0 => MonolithicSpec::with_qubits(20).unwrap().build(),
                1 => ChipletSpec::with_qubits(20).unwrap().build(),
                _ => McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2).build(),
            };
            let width = |f: f64| ((device.num_qubits() as f64 * f) as usize).max(2);
            let circuit = random_circuit(width(widths.0), &ops);
            let other = random_circuit(width(widths.1), &more);
            let layout_strategy =
                if snake == 1 { LayoutStrategy::SnakeOrder } else { LayoutStrategy::Trivial };
            let params = RoutingParams {
                extended_set_size: sabre.0,
                extended_set_weight: sabre.1,
                decay_delta: sabre.2,
                decay_reset_interval: sabre.3,
            };
            let placed = if wide == 1 { device.num_qubits() } else { circuit.num_qubits() };
            let layout = layout_strategy.place(placed, &device);
            let dist = device.graph().distance_matrix();
            prop_assert_eq!(
                route(&circuit, &device, &dist, &layout, &params),
                reference_route(&circuit, &device, &layout, &params)
            );

            let t = Transpiler { layout: layout_strategy, routing: params };
            let circuits = [circuit, other];
            let one_by_one: Vec<_> = circuits.iter().map(|c| t.transpile(c, &device)).collect();
            prop_assert_eq!(t.transpile_many(&circuits, &device), one_by_one);
        }
    }
}
