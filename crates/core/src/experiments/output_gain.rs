//! Section V-C / Eq. 1: fabrication output of MCMs vs. monolithic
//! devices on equal wafer area.
//!
//! The paper's worked example: with `Y_m(100) ≈ 0.11` and
//! `Y_c(10) ≈ 0.85` at σ_f = 0.014, a 1000-die monolithic batch yields
//! 110 machines while the same wafer area as 2×5 modules yields 850 —
//! a ~7.7× gain. This experiment re-measures both yields by Monte
//! Carlo and evaluates Eq. 1 with the measured values.
//!
//! The engine runs it as one task, and it keeps nothing in the result
//! store: the paper-scale evaluation is only 11,000 small-device
//! trials.

use chipletqc_assembly::output_model::OutputModel;
use chipletqc_collision::criteria::CollisionParams;
use chipletqc_math::rng::Seed;
use chipletqc_topology::device::Device;
use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
use chipletqc_yield::fabrication::FabricationParams;
use chipletqc_yield::monte_carlo::simulate_yield;

use crate::report::TextTable;

/// Output-gain configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputGainConfig {
    /// Monolithic size `q_m` (paper: 100).
    pub monolithic_qubits: usize,
    /// Chiplet size `q_c` (paper: 10).
    pub chiplet_qubits: usize,
    /// Chips per module (paper: 10, a 2×5 module).
    pub chips_per_mcm: usize,
    /// Monolithic batch `B` (paper: 1000).
    pub batch: usize,
    /// Fabrication model.
    pub fabrication: FabricationParams,
    /// Collision thresholds.
    pub collision: CollisionParams,
    /// Root seed.
    pub seed: Seed,
}

impl OutputGainConfig {
    /// The paper's Section V-C example.
    pub fn paper() -> OutputGainConfig {
        OutputGainConfig {
            monolithic_qubits: 100,
            chiplet_qubits: 10,
            chips_per_mcm: 10,
            batch: 1000,
            fabrication: FabricationParams::state_of_the_art(),
            collision: CollisionParams::paper(),
            seed: Seed(57),
        }
    }

    /// Reduced batch.
    pub fn quick() -> OutputGainConfig {
        OutputGainConfig { batch: 300, ..OutputGainConfig::paper() }
    }

    /// The equal-wafer-area chiplet batch: `B · q_m / q_c`.
    pub fn chiplet_batch(&self) -> usize {
        self.batch * self.monolithic_qubits / self.chiplet_qubits
    }
}

/// The measured Eq. 1 evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputGainData {
    /// Eq. 1 inputs with *measured* yields.
    pub model: OutputModel,
}

impl OutputGainData {
    /// The measured output gain, `None` on a zero-yield monolithic.
    pub fn gain(&self) -> Option<f64> {
        self.model.gain()
    }

    /// Renders the Eq. 1 comparison.
    pub fn render(&self) -> String {
        let m = &self.model;
        let mut table = TextTable::new(["quantity", "value", "paper"]);
        table.row([
            "Y_m (monolithic yield)".into(),
            format!("{:.3}", m.monolithic_yield),
            "~0.11".to_string(),
        ]);
        table.row([
            "Y_c (chiplet yield)".into(),
            format!("{:.3}", m.chiplet_yield),
            "~0.85".to_string(),
        ]);
        table.row([
            "monolithic output".into(),
            format!("{:.0}", m.monolithic_output()),
            "110".to_string(),
        ]);
        table.row([
            "MCM output (Eq. 1)".into(),
            format!("{:.0}", m.mcm_output()),
            "850".to_string(),
        ]);
        table.row([
            "gain".into(),
            m.gain().map_or("unbounded".into(), |g| format!("{g:.2}x")),
            "~7.7x".to_string(),
        ]);
        table.to_string()
    }
}

/// Measures yields and evaluates Eq. 1.
pub fn run(config: &OutputGainConfig) -> OutputGainData {
    let measure = |device: Device, batch, seed| {
        simulate_yield(&device, &config.fabrication, &config.collision, batch, seed).fraction()
    };
    let mono =
        MonolithicSpec::with_qubits(config.monolithic_qubits).expect("valid size").build();
    let chiplet = ChipletSpec::with_qubits(config.chiplet_qubits).expect("valid size").build();
    OutputGainData {
        model: OutputModel {
            monolithic_qubits: config.monolithic_qubits,
            monolithic_yield: measure(mono, config.batch, config.seed.split(1)),
            chiplet_qubits: config.chiplet_qubits,
            chiplet_yield: measure(chiplet, config.chiplet_batch(), config.seed.split(2)),
            chips_per_mcm: config.chips_per_mcm,
            batch: config.batch,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_gain_is_in_the_paper_regime() {
        let data = run(&OutputGainConfig::quick());
        let gain = data.gain().expect("100q monolithic yield nonzero at sigma 0.014");
        // Paper: ~7.7x. Monte Carlo slack at reduced batch: accept 4-16x.
        assert!(gain > 4.0 && gain < 16.0, "gain {gain}");
        assert!(data.model.is_capacity_matched());
    }

    #[test]
    fn measured_yields_near_paper_anchors() {
        let data = run(&OutputGainConfig::quick());
        assert!(
            (data.model.monolithic_yield - 0.11).abs() < 0.08,
            "Y_m {}",
            data.model.monolithic_yield
        );
        assert!(
            (data.model.chiplet_yield - 0.85).abs() < 0.07,
            "Y_c {}",
            data.model.chiplet_yield
        );
        let rendered = data.render();
        assert!(rendered.contains("Eq. 1"));
        assert!(rendered.contains("7.7"));
    }
}
