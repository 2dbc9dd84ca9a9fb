//! The fidelity-product figure of merit.
//!
//! Section VII-B: "our fidelity product that estimates benchmark
//! success is calculated by multiplying all two-qubit operator
//! fidelities" — an ESP-style metric restricted to two-qubit gates
//! (single-qubit error is not assigned by the paper's models). The
//! product underflows `f64` at evaluation scale, so it is carried as a
//! [`LogProduct`].
//!
//! A routed circuit's ESP depends on the device only through its
//! per-edge gate counts ([`edge_usage`]), so a circuit is counted once
//! and scored against each fabricated device's noise table.
//! [`esps_from_usages`] scores several circuits' counts against one
//! noise table, taking each used edge's log fidelity once;
//! [`esp_from_usage`] is its one-table case and [`esp_log`] composes
//! the two.

use chipletqc_circuit::circuit::Circuit;
use chipletqc_circuit::gate::GateQubits;
use chipletqc_math::logspace::LogProduct;
use chipletqc_noise::assign::EdgeNoise;
use chipletqc_topology::device::Device;
use chipletqc_topology::graph::EdgeId;
use chipletqc_topology::qubit::QubitId;

/// Computes the log-domain fidelity product of every two-qubit gate in
/// a *routed, physical* circuit.
///
/// # Panics
///
/// Panics if any two-qubit gate does not lie on a device edge (i.e. the
/// circuit was not routed for this device) or the noise table does not
/// cover the device.
pub fn esp_log(circuit: &Circuit, device: &Device, noise: &EdgeNoise) -> LogProduct {
    assert_eq!(
        noise.len(),
        device.edges().len(),
        "noise table does not match device {}",
        device.name()
    );
    esp_from_usage(&edge_usage(circuit, device), noise)
}

/// Per-edge two-qubit-gate usage counts of a routed physical circuit
/// (SWAP counted 3×, RZZ 2×), indexed by edge id.
///
/// Population studies score one compiled circuit against hundreds of
/// fabricated devices; with usage counts the per-device ESP becomes a
/// single pass over edges instead of over gates:
/// `ln ESP = Σ_e usage[e] · ln(fidelity_e)`.
///
/// # Panics
///
/// Panics if a two-qubit gate is not on a device edge.
pub fn edge_usage(circuit: &Circuit, device: &Device) -> Vec<u32> {
    let mut usage = vec![0u32; device.edges().len()];
    for gate in circuit.gates() {
        if let GateQubits::Two(a, b) = gate.qubits() {
            let edge = device
                .edge_between(QubitId(a.0), QubitId(b.0))
                .unwrap_or_else(|| panic!("{} {a},{b} not on a device edge", gate.name()));
            let repetitions = match gate.name() {
                "swap" => 3,
                "rzz" => 2,
                _ => 1,
            };
            usage[edge.id.index()] += repetitions;
        }
    }
    usage
}

/// The log-domain ESP from precomputed [`edge_usage`] counts: the
/// one-table case of [`esps_from_usages`].
///
/// # Panics
///
/// Panics if the usage table and noise table disagree in length.
pub fn esp_from_usage(usage: &[u32], noise: &EdgeNoise) -> LogProduct {
    esps_from_usages(&[usage], noise)[0]
}

/// The log-domain ESPs of several [`edge_usage`] tables against one
/// noise table, in table order.
///
/// Edges go in ascending order; the log fidelity of an edge some table
/// uses is taken once and multiplied into each table that uses it, so
/// every result is bit-identical to scoring its table alone, and an
/// edge no table uses costs no logarithm.
///
/// # Panics
///
/// Panics if a usage table and the noise table disagree in length.
pub fn esps_from_usages<U: AsRef<[u32]>>(usages: &[U], noise: &EdgeNoise) -> Vec<LogProduct> {
    for usage in usages {
        assert_eq!(usage.as_ref().len(), noise.len(), "usage/noise table length mismatch");
    }
    let mut esps = vec![LogProduct::one(); usages.len()];
    for e in 0..noise.len() {
        if usages.iter().all(|usage| usage.as_ref()[e] == 0) {
            continue;
        }
        let ln = noise.fidelity(EdgeId(e as u32)).clamp(0.0, 1.0).ln();
        for (esp, usage) in esps.iter_mut().zip(usages) {
            esp.mul_ln_pow(ln, usage.as_ref()[e] as usize);
        }
    }
    esps
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_circuit::qubit::Qubit;
    use chipletqc_noise::assign::EdgeNoise;
    use chipletqc_topology::family::ChipletSpec;
    use proptest::prelude::*;

    fn uniform_noise(device: &Device, e: f64) -> EdgeNoise {
        EdgeNoise::from_infidelities(vec![e; device.edges().len()])
    }

    #[test]
    fn counts_only_two_qubit_gates() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let edge = &device.edges()[0];
        let mut c = Circuit::new(device.num_qubits());
        c.h(Qubit(edge.a.0));
        c.cx(Qubit(edge.a.0), Qubit(edge.b.0));
        c.measure(Qubit(edge.a.0));
        let esp = esp_log(&c, &device, &uniform_noise(&device, 0.02));
        assert_eq!(esp.factors(), 1);
        assert!((esp.value() - 0.98).abs() < 1e-12);
    }

    #[test]
    fn swap_weighs_three_rzz_two() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let edge = &device.edges()[0];
        let (a, b) = (Qubit(edge.a.0), Qubit(edge.b.0));
        let mut c = Circuit::new(device.num_qubits());
        c.swap(a, b).rzz(a, b, 0.4);
        let esp = esp_log(&c, &device, &uniform_noise(&device, 0.01));
        assert_eq!(esp.factors(), 5);
        assert!((esp.value() - 0.99f64.powi(5)).abs() < 1e-12);
    }

    #[test]
    fn log_domain_survives_large_circuits() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let edge = &device.edges()[0];
        let mut c = Circuit::new(device.num_qubits());
        for _ in 0..100_000 {
            c.cx(Qubit(edge.a.0), Qubit(edge.b.0));
        }
        let esp = esp_log(&c, &device, &uniform_noise(&device, 0.02));
        assert_eq!(esp.value(), 0.0); // underflows as a plain f64 ...
        assert!(esp.log10().is_finite()); // ... but not in log space
    }

    #[test]
    fn usage_based_esp_matches_direct() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let e0 = &device.edges()[0];
        let e1 = &device.edges()[1];
        let mut c = Circuit::new(device.num_qubits());
        c.cx(Qubit(e0.a.0), Qubit(e0.b.0)).swap(Qubit(e1.a.0), Qubit(e1.b.0)).rzz(
            Qubit(e0.a.0),
            Qubit(e0.b.0),
            0.2,
        );
        let mut infid = vec![0.01; device.edges().len()];
        infid[1] = 0.05;
        let noise = EdgeNoise::from_infidelities(infid);
        let usage = edge_usage(&c, &device);
        assert_eq!(usage[0], 3); // cx + rzz x2
        assert_eq!(usage[1], 3); // swap x3
        let direct = esp_log(&c, &device, &noise);
        let fast = esp_from_usage(&usage, &noise);
        assert!((direct.ln() - fast.ln()).abs() < 1e-12);
        assert_eq!(direct.factors(), fast.factors());
    }

    proptest! {
        /// Scoring several usage tables at once equals scoring each
        /// alone and the per-edge `mul_prob_pow` fold, bit for bit:
        /// zero counts, perfect edges (fidelity 1) and the worst edge a
        /// noise table holds (fidelity `f64::EPSILON`; `EdgeNoise`
        /// rejects an infidelity of 1) included.
        #[test]
        fn multi_table_scores_are_bit_identical(
            edges in 1usize..40,
            edge_draws in prop::collection::vec((0u8..4, 0.0f64..1.0), 40),
            table_draws in prop::collection::vec(prop::collection::vec((0u8..3, 0u32..50), 40), 0..8),
        ) {
            let noise = EdgeNoise::from_infidelities(
                edge_draws[..edges]
                    .iter()
                    .map(|&(kind, e)| match kind {
                        0 => 0.0,
                        1 => 1.0 - f64::EPSILON,
                        _ => e,
                    })
                    .collect(),
            );
            let usages: Vec<Vec<u32>> = table_draws
                .iter()
                .map(|t| t[..edges].iter().map(|&(k, n)| if k == 0 { 0 } else { n }).collect())
                .collect();
            let esps = esps_from_usages(&usages, &noise);
            prop_assert_eq!(esps.len(), usages.len());
            for (esp, usage) in esps.iter().zip(&usages) {
                let mut fold = LogProduct::one();
                for (e, &count) in usage.iter().enumerate() {
                    fold.mul_prob_pow(noise.fidelity(EdgeId(e as u32)), count as usize);
                }
                for alone in [esp_from_usage(usage, &noise), fold] {
                    prop_assert_eq!(esp.ln().to_bits(), alone.ln().to_bits());
                    prop_assert_eq!(esp.factors(), alone.factors());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn usage_esp_rejects_mismatch() {
        let noise = EdgeNoise::from_infidelities(vec![0.01]);
        let _ = esp_from_usage(&[1, 2], &noise);
    }

    #[test]
    #[should_panic(expected = "not on a device edge")]
    fn rejects_unrouted_circuits() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let mut c = Circuit::new(device.num_qubits());
        c.cx(Qubit(0), Qubit(9));
        let _ = esp_log(&c, &device, &uniform_noise(&device, 0.01));
    }

    #[test]
    #[should_panic(expected = "does not match device")]
    fn rejects_mismatched_noise() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let c = Circuit::new(device.num_qubits());
        let _ = esp_log(&c, &device, &EdgeNoise::from_infidelities(vec![0.01]));
    }
}
