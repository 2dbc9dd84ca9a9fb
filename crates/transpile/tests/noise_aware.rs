//! The noise-aware layout extension must translate into measurable ESP
//! gains when the device has a bad neighborhood — the "intelligent
//! compilation routines that consider links" the paper's future-work
//! section calls for.

use chipletqc_benchmarks::suite::Benchmark;
use chipletqc_math::rng::Seed;
use chipletqc_noise::assign::EdgeNoise;
use chipletqc_topology::family::ChipletSpec;
use chipletqc_topology::mcm::McmSpec;
use chipletqc_transpile::layout::noise_aware_layout;
use chipletqc_transpile::pipeline::Transpiler;

#[test]
fn noise_aware_layout_beats_default_on_a_blighted_device() {
    let device = ChipletSpec::with_qubits(60).unwrap().build();
    // Poison a third of the chip.
    let infid: Vec<f64> = device
        .edges()
        .iter()
        .map(|e| if e.a.0 < 20 || e.b.0 < 20 { 0.15 } else { 0.008 })
        .collect();
    let noise = EdgeNoise::from_infidelities(infid);
    let circuit = Benchmark::Ghz.generate(24, Seed(1));
    let t = Transpiler::paper();

    let default = t.transpile(&circuit, &device);
    let aware = t.transpile_with_layout(
        &circuit,
        &device,
        noise_aware_layout(&device, &noise, circuit.num_qubits()),
    );
    assert!(aware.respects_connectivity(&device));
    let esp_default = default.esp(&device, &noise).ln();
    let esp_aware = aware.esp(&device, &noise).ln();
    assert!(
        esp_aware > esp_default,
        "noise-aware {esp_aware:.3} should beat default {esp_default:.3}"
    );
}

#[test]
fn noise_aware_layout_avoids_expensive_links_on_mcms() {
    // On an MCM with state-of-the-art (4x worse) links, a circuit that
    // fits on a single chiplet should be placed without crossing dies.
    let spec = McmSpec::new(ChipletSpec::with_qubits(40).unwrap(), 2, 2);
    let device = spec.build();
    let infid: Vec<f64> = device
        .edges()
        .iter()
        .map(|e| if e.kind.is_inter_chip() { 0.075 } else { 0.012 })
        .collect();
    let noise = EdgeNoise::from_infidelities(infid);
    let circuit = Benchmark::Ghz.generate(30, Seed(2));
    let layout = noise_aware_layout(&device, &noise, circuit.num_qubits());
    // All 30 logical qubits on one chip.
    let chips: std::collections::BTreeSet<u16> = (0..30u32)
        .map(|l| device.chip(layout.physical(chipletqc_circuit::qubit::Qubit(l))).0)
        .collect();
    assert_eq!(chips.len(), 1, "placement crossed chips: {chips:?}");
}
