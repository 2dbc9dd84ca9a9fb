//! Lowering to the IBM-style physical basis {RZ, SX, X, CX}.
//!
//! Identities used (all verified against the statevector simulator in
//! the cross-crate test suite, up to global phase):
//!
//! * `H       = RZ(π/2) · SX · RZ(π/2)`                    (3 gates)
//! * `RX(θ)   = RZ(π/2) · SX · RZ(θ+π) · SX · RZ(π/2)`     (5 gates)
//! * `RY(θ)   = SX · RZ(θ+π) · SX · RZ(π)`                 (4 gates)
//! * `SWAP    = CX·CX·CX` (alternating direction)
//! * `RZZ(θ)  = CX · RZ(θ) · CX`
//!
//! These are the footprints behind the Table II tallies (BV's
//! `1q = 2n·3` from its two Hadamard layers, TFIM's `5n + (n−1)`).
//!
//! The optional *direction enforcement* pass rewrites every CX whose
//! control is not the device edge's CR control (`F2`) qubit using the
//! four-Hadamard identity; the paper treats direction reversal as free
//! at the pulse level, so enforcement defaults **off** and exists for
//! the ablation study.

use std::f64::consts::{FRAC_PI_2, PI};

use chipletqc_circuit::circuit::Circuit;
use chipletqc_circuit::gate::Gate;
use chipletqc_circuit::qubit::Qubit;
use chipletqc_topology::device::Device;
use chipletqc_topology::qubit::QubitId;

/// Lowers every gate to the physical basis. The input may reference
/// either logical or physical qubits; indices pass through unchanged.
pub fn to_basis(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::named(circuit.num_qubits(), circuit.name().to_string());
    for gate in circuit.gates() {
        lower(&mut out, gate);
    }
    out
}

fn lower(out: &mut Circuit, gate: &Gate) {
    match *gate {
        Gate::Rz { .. }
        | Gate::Sx { .. }
        | Gate::X { .. }
        | Gate::Cx { .. }
        | Gate::Measure { .. } => {
            out.push(*gate);
        }
        Gate::H { q } => {
            out.rz(q, FRAC_PI_2).sx(q).rz(q, FRAC_PI_2);
        }
        Gate::Rx { q, theta } => {
            out.rz(q, FRAC_PI_2).sx(q).rz(q, theta + PI).sx(q).rz(q, FRAC_PI_2);
        }
        Gate::Ry { q, theta } => {
            out.sx(q).rz(q, theta + PI).sx(q).rz(q, PI);
        }
        Gate::Swap { a, b } => {
            out.cx(a, b).cx(b, a).cx(a, b);
        }
        Gate::Rzz { a, b, theta } => {
            out.cx(a, b).rz(b, theta).cx(a, b);
        }
    }
}

/// Rewrites CX gates whose control is not the CR control of the
/// underlying device edge: `CX(t, c) = (H⊗H) · CX(c, t) · (H⊗H)`, with
/// the Hadamards pre-lowered to the basis.
///
/// Expects a circuit over *physical* qubit indices whose two-qubit
/// gates already respect connectivity (i.e. routing output after
/// [`to_basis`]).
///
/// # Panics
///
/// Panics if a two-qubit gate does not correspond to a device edge.
pub fn enforce_cr_direction(circuit: &Circuit, device: &Device) -> Circuit {
    let mut out = Circuit::named(circuit.num_qubits(), circuit.name().to_string());
    let h = |out: &mut Circuit, q: Qubit| {
        out.rz(q, FRAC_PI_2).sx(q).rz(q, FRAC_PI_2);
    };
    for gate in circuit.gates() {
        match *gate {
            Gate::Cx { control, target } => {
                let edge = device
                    .edge_between(QubitId(control.0), QubitId(target.0))
                    .unwrap_or_else(|| panic!("cx {control},{target} is not a device edge"));
                if edge.control == QubitId(control.0) {
                    out.push(*gate);
                } else {
                    h(&mut out, control);
                    h(&mut out, target);
                    out.cx(target, control);
                    h(&mut out, control);
                    h(&mut out, target);
                }
            }
            _ => out.push(*gate),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_topology::family::ChipletSpec;

    #[test]
    fn h_costs_three_rx_five_ry_four() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0));
        assert_eq!(to_basis(&c).count_1q(), 3);
        let mut c = Circuit::new(1);
        c.rx(Qubit(0), 0.7);
        assert_eq!(to_basis(&c).count_1q(), 5);
        let mut c = Circuit::new(1);
        c.ry(Qubit(0), 0.7);
        assert_eq!(to_basis(&c).count_1q(), 4);
    }

    #[test]
    fn swap_and_rzz_expand_to_cx() {
        let mut c = Circuit::new(2);
        c.swap(Qubit(0), Qubit(1)).rzz(Qubit(0), Qubit(1), 0.3);
        let basis = to_basis(&c);
        assert_eq!(basis.count_2q(), 5);
        assert!(basis.gates().iter().all(|g| g.is_basis()));
    }

    #[test]
    fn basis_gates_pass_through() {
        let mut c = Circuit::new(2);
        c.rz(Qubit(0), 0.1).sx(Qubit(0)).x(Qubit(1)).cx(Qubit(0), Qubit(1)).measure(Qubit(1));
        let basis = to_basis(&c);
        assert_eq!(basis.gates(), c.gates());
    }

    #[test]
    fn bv_footprint_matches_table2() {
        // Table II BV rows: 1q = 2n * 3 (two Hadamard layers).
        let n = 32;
        let c =
            chipletqc_benchmarks::bv::bv_circuit(n, &chipletqc_benchmarks::bv::all_ones(n - 1));
        let basis = to_basis(&c);
        assert_eq!(basis.count_1q(), 2 * n * 3 + 1); // + the |−⟩ virtual Z
    }

    #[test]
    fn tfim_footprint_matches_table2() {
        // Table II h row (40q system, n = 32): 191 / 62.
        let c = chipletqc_benchmarks::hamiltonian::tfim_circuit(
            32,
            &chipletqc_benchmarks::hamiltonian::TfimParams::paper(),
        );
        let basis = to_basis(&c);
        assert_eq!(basis.count_1q(), 191);
        assert_eq!(basis.count_2q(), 62);
    }

    #[test]
    fn direction_enforcement_fixes_reversed_cx() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let e = &device.edges()[0];
        let (c_phys, t_phys) = (e.control, e.target());
        // A CX driven from the target side: must be rewrapped.
        let mut c = Circuit::new(device.num_qubits());
        c.cx(Qubit(t_phys.0), Qubit(c_phys.0));
        let fixed = enforce_cr_direction(&c, &device);
        assert_eq!(fixed.count_2q(), 1);
        assert_eq!(fixed.count_1q(), 12); // 4 H x 3 basis gates
        match fixed.gates().iter().find(|g| g.is_two_qubit()).unwrap() {
            Gate::Cx { control, target } => {
                assert_eq!(control.0, c_phys.0);
                assert_eq!(target.0, t_phys.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A correctly-directed CX passes through untouched.
        let mut ok = Circuit::new(device.num_qubits());
        ok.cx(Qubit(c_phys.0), Qubit(t_phys.0));
        assert_eq!(enforce_cr_direction(&ok, &device).len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a device edge")]
    fn direction_enforcement_rejects_unrouted() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let mut c = Circuit::new(device.num_qubits());
        // Qubits 0 and 9 are not adjacent on the 10q chiplet.
        c.cx(Qubit(0), Qubit(9));
        let _ = enforce_cr_direction(&c, &device);
    }
}
