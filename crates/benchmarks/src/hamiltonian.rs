//! 1-D Transverse-Field Ising Model (TFIM) Trotter simulation.
//!
//! "Constructs circuits that simulate 1D Transverse Field Ising Models
//! used to discover static properties of quantum systems"
//! (Section VII-A). One first-order Trotter step of
//! `H = −J Σ Z_i Z_{i+1} − h Σ X_i` applies `RZZ(2 J dt)` on every
//! chain bond followed by `RX(2 h dt)` on every site.
//!
//! With one step on `n` qubits this expands on hardware to
//! `2(n−1)` CX, `n−1` RZ (inside RZZ) and `5n` basis 1q gates (RX),
//! exactly the `h: 191 / 62` footprint of Table II's 40-qubit row.

use chipletqc_circuit::circuit::Circuit;
use chipletqc_circuit::qubit::Qubit;

/// TFIM simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfimParams {
    /// Coupling strength `J`.
    pub coupling: f64,
    /// Transverse field `h`.
    pub field: f64,
    /// Trotter step `dt`.
    pub dt: f64,
    /// Number of Trotter steps.
    pub steps: usize,
}

impl TfimParams {
    /// The single-step benchmark configuration (critical point
    /// `J = h = 1`).
    pub fn paper() -> TfimParams {
        TfimParams { coupling: 1.0, field: 1.0, dt: 0.1, steps: 1 }
    }
}

impl Default for TfimParams {
    fn default() -> Self {
        TfimParams::paper()
    }
}

/// The `n`-site TFIM Trotter circuit.
///
/// # Panics
///
/// Panics if `n < 2` or `params.steps == 0`.
///
/// # Example
///
/// ```
/// use chipletqc_benchmarks::hamiltonian::{tfim_circuit, TfimParams};
///
/// let c = tfim_circuit(32, &TfimParams::paper());
/// assert_eq!(c.count_2q(), 31); // one RZZ per bond per step
/// ```
pub fn tfim_circuit(n: usize, params: &TfimParams) -> Circuit {
    assert!(n >= 2, "TFIM needs at least 2 sites, got {n}");
    assert!(params.steps > 0, "TFIM needs at least one Trotter step");
    let mut c = Circuit::named(n, format!("tfim-{n}-s{}", params.steps));
    let zz_angle = 2.0 * params.coupling * params.dt;
    let x_angle = 2.0 * params.field * params.dt;
    for _ in 0..params.steps {
        for i in 0..n - 1 {
            c.rzz(Qubit(i as u32), Qubit(i as u32 + 1), zz_angle);
        }
        for q in 0..n as u32 {
            c.rx(Qubit(q), x_angle);
        }
    }
    c.measure_all();
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_step_counts() {
        let c = tfim_circuit(32, &TfimParams::paper());
        assert_eq!(c.count_2q(), 31);
        // 31 RZZ + 32 RX at the IR level.
        assert_eq!(c.count_1q(), 32);
    }

    #[test]
    fn steps_scale_counts() {
        let c1 = tfim_circuit(16, &TfimParams::paper());
        let c4 = tfim_circuit(16, &TfimParams { steps: 4, ..TfimParams::paper() });
        assert_eq!(c4.count_2q(), 4 * c1.count_2q());
    }

    #[test]
    fn angles_depend_on_parameters() {
        let hot = tfim_circuit(4, &TfimParams { coupling: 2.0, ..TfimParams::paper() });
        let cold = tfim_circuit(4, &TfimParams::paper());
        assert_ne!(hot, cold);
    }

    #[test]
    #[should_panic(expected = "at least one Trotter step")]
    fn rejects_zero_steps() {
        tfim_circuit(4, &TfimParams { steps: 0, ..TfimParams::paper() });
    }

    #[test]
    #[should_panic(expected = "at least 2 sites")]
    fn rejects_single_site() {
        tfim_circuit(1, &TfimParams::paper());
    }
}
