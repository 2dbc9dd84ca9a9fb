//! The end-to-end transpiler.
//!
//! Layout → SABRE routing → basis decomposition. The output carries
//! everything the
//! evaluation needs: Table II gate tallies and ESP scoring against a
//! device noise assignment.

use chipletqc_circuit::circuit::{Circuit, GateCounts};
use chipletqc_math::logspace::LogProduct;
use chipletqc_noise::assign::EdgeNoise;
use chipletqc_topology::device::Device;
use chipletqc_topology::qubit::QubitId;

use crate::decompose::to_basis;
use crate::esp::esp_log;
use crate::layout::{Layout, LayoutStrategy};
use crate::routing::{route, RoutingParams};

/// Transpiler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transpiler {
    /// Initial placement strategy.
    pub layout: LayoutStrategy,
    /// SABRE parameters.
    pub routing: RoutingParams,
}

impl Transpiler {
    /// The configuration used for the paper reproductions: snake layout
    /// and SABRE routing.
    pub fn paper() -> Transpiler {
        Transpiler { layout: LayoutStrategy::SnakeOrder, routing: RoutingParams::sabre() }
    }

    /// Maps, routes, and lowers `circuit` onto `device`: the
    /// one-circuit case of [`Transpiler::transpile_many`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the device.
    pub fn transpile(&self, circuit: &Circuit, device: &Device) -> TranspiledCircuit {
        self.transpile_many(std::slice::from_ref(circuit), device)
            .pop()
            .expect("one circuit in, one out")
    }

    /// Maps, routes, and lowers every circuit onto `device`, in order.
    ///
    /// The device's all-pairs distance table, which routing reads for
    /// every candidate SWAP, is built once for the whole slice and
    /// dropped on return; each result equals
    /// [`Transpiler::transpile`] of that circuit alone.
    ///
    /// # Panics
    ///
    /// Panics if a circuit is wider than the device.
    pub fn transpile_many(
        &self,
        circuits: &[Circuit],
        device: &Device,
    ) -> Vec<TranspiledCircuit> {
        let dist = device.graph().distance_matrix();
        circuits
            .iter()
            .map(|circuit| {
                let layout = self.layout.place(circuit.num_qubits(), device);
                self.compile(circuit, device, &dist, layout)
            })
            .collect()
    }

    /// Routes from `layout` over the distance table `dist`, then lowers
    /// to the basis.
    fn compile(
        &self,
        circuit: &Circuit,
        device: &Device,
        dist: &[Vec<u32>],
        layout: Layout,
    ) -> TranspiledCircuit {
        assert!(
            layout.num_logical() >= circuit.num_qubits(),
            "layout places {} qubits but the circuit needs {}",
            layout.num_logical(),
            circuit.num_qubits()
        );
        let routed = route(circuit, device, dist, &layout, &self.routing);
        TranspiledCircuit {
            physical: to_basis(&routed.circuit),
            swaps: routed.swaps,
            initial_layout: layout,
            final_layout: routed.final_layout,
            logical_2q: circuit.count_2q(),
        }
    }
}

impl Default for Transpiler {
    fn default() -> Self {
        Transpiler::paper()
    }
}

/// A transpiled circuit with its mapping provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TranspiledCircuit {
    /// The physical-basis circuit over device qubit indices.
    pub physical: Circuit,
    /// SWAPs inserted by routing.
    pub swaps: usize,
    /// Where each logical qubit started.
    pub initial_layout: Layout,
    /// Where each logical qubit ended.
    pub final_layout: Layout,
    /// Two-qubit gate count of the *logical* input (before routing and
    /// expansion) — the routing-overhead baseline.
    pub logical_2q: usize,
}

impl TranspiledCircuit {
    /// Table II tallies of the physical circuit.
    pub fn counts(&self) -> GateCounts {
        self.physical.counts()
    }

    /// Routing overhead: physical 2q gates per logical 2q gate.
    pub fn routing_overhead(&self) -> f64 {
        if self.logical_2q == 0 {
            return 1.0;
        }
        self.physical.count_2q() as f64 / self.logical_2q as f64
    }

    /// Whether every two-qubit gate lies on a device edge.
    pub fn respects_connectivity(&self, device: &Device) -> bool {
        self.physical.gates().iter().all(|g| match g.qubits() {
            chipletqc_circuit::gate::GateQubits::Two(a, b) => {
                device.edge_between(QubitId(a.0), QubitId(b.0)).is_some()
            }
            chipletqc_circuit::gate::GateQubits::One(_) => true,
        })
    }

    /// The ESP (log-domain fidelity product over all two-qubit gates)
    /// against a noise assignment for the same device.
    pub fn esp(&self, device: &Device, noise: &EdgeNoise) -> LogProduct {
        esp_log(&self.physical, device, noise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_benchmarks::suite::Benchmark;
    use chipletqc_math::rng::Seed;
    use chipletqc_noise::assign::EdgeNoise;
    use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
    use chipletqc_topology::mcm::McmSpec;

    #[test]
    fn transpiles_all_benchmarks_onto_mcm_and_mono() {
        let mcm = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2).build();
        let mono = MonolithicSpec::with_qubits(40).unwrap().build();
        let t = Transpiler::paper();
        for b in Benchmark::ALL {
            let circuit = b.for_device_qubits(40, Seed(1));
            for device in [&mcm, &mono] {
                let out = t.transpile(&circuit, device);
                assert!(out.respects_connectivity(device), "{b} on {}", device.name());
                assert!(
                    out.physical.gates().iter().all(|g| g.is_basis()),
                    "{b}: non-basis gate"
                );
                assert!(out.routing_overhead() >= 1.0);
            }
        }
    }

    #[test]
    fn counts_look_like_table2_row_one() {
        // Table II, 10q chiplet 2x2 (40 qubits, n = 32): bv: 192+1q-ish /
        // hundreds of 2q. We check the structural identities rather than
        // the authors' exact compiler output: 1q = 2n*3 + 1, 2q =
        // (n-1) + 3*swaps.
        let device = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2).build();
        let circuit = Benchmark::Bv.for_device_qubits(40, Seed(1));
        let out = Transpiler::paper().transpile(&circuit, &device);
        let counts = out.counts();
        assert_eq!(counts.one_qubit, 2 * 32 * 3 + 1);
        assert_eq!(counts.two_qubit, 31 + 3 * out.swaps);
        assert!(counts.two_qubit_critical <= counts.two_qubit);
        assert!(counts.two_qubit_critical >= 31);
    }

    #[test]
    fn esp_decreases_with_more_gates() {
        let device = MonolithicSpec::with_qubits(40).unwrap().build();
        let noise = EdgeNoise::from_infidelities(vec![0.01; device.edges().len()]);
        let t = Transpiler::paper();
        let small = t.transpile(&Benchmark::Ghz.for_device_qubits(20, Seed(1)), &device);
        let large = t.transpile(&Benchmark::Ghz.for_device_qubits(40, Seed(1)), &device);
        assert!(large.esp(&device, &noise).ln() < small.esp(&device, &noise).ln());
    }

    #[test]
    fn transpile_is_deterministic() {
        let device = MonolithicSpec::with_qubits(60).unwrap().build();
        let circuit = Benchmark::Adder.for_device_qubits(60, Seed(5));
        let a = Transpiler::paper().transpile(&circuit, &device);
        let b = Transpiler::paper().transpile(&circuit, &device);
        assert_eq!(a, b);
    }
}
