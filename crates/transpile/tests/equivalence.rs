//! Unitary-equivalence validation of the transpiler.
//!
//! Routing and decomposition must be *semantics-preserving up to the
//! final qubit permutation*: simulating the transpiled circuit and
//! undoing the routing permutation must reproduce the original state
//! (up to global phase). This is the strongest correctness property a
//! compiler pass can have, checked here on every benchmark at
//! simulable width.

use chipletqc_benchmarks::suite::Benchmark;
use chipletqc_circuit::circuit::Circuit;
use chipletqc_circuit::gate::Gate;
use chipletqc_circuit::qubit::Qubit;
use chipletqc_math::rng::Seed;
use chipletqc_sim::state::State;
use chipletqc_topology::device::Device;
use chipletqc_topology::family::ChipletSpec;
use chipletqc_topology::mcm::McmSpec;
use chipletqc_transpile::decompose::to_basis;
use chipletqc_transpile::pipeline::{TranspiledCircuit, Transpiler};

/// Simulates a transpiled circuit and permutes the result back into
/// logical order, comparing with the logical-circuit simulation.
fn assert_equivalent(circuit: &Circuit, device: &Device, out: &TranspiledCircuit) {
    assert!(device.num_qubits() <= 20, "device too wide to simulate");
    let logical_state = State::run(circuit);

    // Simulate the physical circuit on the full device width.
    let physical_state = State::run(&out.physical);

    // Build the permutation: logical qubit l sits on physical
    // out.final_layout.physical(l).
    let perm: Vec<usize> = (0..circuit.num_qubits())
        .map(|l| out.final_layout.physical(Qubit(l as u32)).index())
        .collect();

    // Compare amplitudes: basis state `b` (logical) corresponds to the
    // physical basis state with bit l at position perm[l] (all ancilla
    // qubits stay |0>).
    let mut diffs: Vec<(usize, usize)> = Vec::new();
    for b in 0..(1usize << circuit.num_qubits()) {
        let mut phys = 0usize;
        for (l, p) in perm.iter().enumerate() {
            if b >> l & 1 == 1 {
                phys |= 1 << p;
            }
        }
        diffs.push((b, phys));
    }
    // Anchor the global phase on the largest logical amplitude.
    let (anchor_logical, anchor_physical) = *diffs
        .iter()
        .max_by(|x, y| {
            logical_state
                .amplitude(x.0)
                .norm_sqr()
                .total_cmp(&logical_state.amplitude(y.0).norm_sqr())
        })
        .unwrap();
    let la = logical_state.amplitude(anchor_logical);
    let pa = physical_state.amplitude(anchor_physical);
    assert!(pa.abs() > 1e-9, "anchor amplitude vanished in physical state");
    let phase = la * pa.conj().scale(1.0 / pa.norm_sqr());
    for (b, phys) in diffs {
        let expect = logical_state.amplitude(b);
        let got = phase * physical_state.amplitude(phys);
        assert!(
            (expect - got).abs() < 1e-7,
            "amplitude mismatch at |{b:b}>: {expect} vs {got}"
        );
    }
}

#[test]
fn all_benchmarks_transpile_equivalently_on_a_10q_chiplet() {
    let device = ChipletSpec::with_qubits(10).unwrap().build();
    let t = Transpiler::paper();
    for b in Benchmark::ALL {
        let circuit = b.generate(8, Seed(3));
        let out = t.transpile(&circuit, &device);
        assert_equivalent(&circuit, &device, &out);
    }
}

#[test]
fn equivalence_holds_on_a_two_chip_mcm() {
    // Routing across an inter-chip link must also preserve semantics.
    let device = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 1, 2).build();
    let t = Transpiler::paper();
    for b in [Benchmark::Ghz, Benchmark::Bv, Benchmark::Qaoa] {
        let circuit = b.generate(16, Seed(4));
        let out = t.transpile(&circuit, &device);
        assert_equivalent(&circuit, &device, &out);
    }
}

#[test]
fn basis_decomposition_preserves_every_gate_type() {
    let mut c = Circuit::new(3);
    c.h(Qubit(0))
        .rx(Qubit(1), 0.7)
        .ry(Qubit(2), -1.2)
        .rz(Qubit(0), 0.4)
        .sx(Qubit(1))
        .x(Qubit(2))
        .cx(Qubit(0), Qubit(1))
        .swap(Qubit(1), Qubit(2))
        .rzz(Qubit(0), Qubit(2), 0.9);
    let basis = to_basis(&c);
    assert!(basis.gates().iter().all(Gate::is_basis));
    assert!(State::run(&c).approx_eq_global_phase(&State::run(&basis), 1e-8));
}

#[test]
fn random_circuits_transpile_equivalently() {
    use chipletqc_benchmarks::primacy::{primacy_circuit, PrimacyParams};
    let device = ChipletSpec::with_qubits(20).unwrap().build();
    let t = Transpiler::paper();
    for seed in 0..5 {
        let circuit = primacy_circuit(10, &PrimacyParams { cycles: 6 }, Seed(seed));
        let out = t.transpile(&circuit, &device);
        assert_equivalent(&circuit, &device, &out);
    }
}
