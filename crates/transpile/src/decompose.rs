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
//! A CX keeps its direction: the paper treats reversing a CR drive as
//! free at the pulse level.

use std::f64::consts::{FRAC_PI_2, PI};

use chipletqc_circuit::circuit::Circuit;
use chipletqc_circuit::gate::Gate;

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

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_circuit::qubit::Qubit;

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
}
