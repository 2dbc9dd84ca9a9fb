//! Fig. 3(b): CX-infidelity box plots for three IBM processor
//! generations over 15 calibration cycles.
//!
//! Built on the synthetic fleet calibration (the paper's IBM calibration
//! data does not ship with this reproduction): the reproduced claim is
//! the *trend* — median CX infidelity and its spread grow with device
//! size.

use chipletqc_math::rng::Seed;
use chipletqc_noise::fleet::{synthesize_fleet, FleetParams, MachineCalibration};

use crate::report::TextTable;

/// Fig. 3(b) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3bConfig {
    /// Fleet generator parameters.
    pub fleet: FleetParams,
    /// Root seed.
    pub seed: Seed,
}

impl Fig3bConfig {
    /// The paper-calibrated generator (15 cycles).
    pub fn paper() -> Fig3bConfig {
        Fig3bConfig { fleet: FleetParams::paper(), seed: Seed(3) }
    }

    /// Same as [`Fig3bConfig::paper`] — the experiment is already
    /// cheap.
    pub fn quick() -> Fig3bConfig {
        Fig3bConfig::paper()
    }
}

/// The Fig. 3(b) dataset: one calibration summary per machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3bData {
    /// Per-machine calibrations, ascending by size.
    pub machines: Vec<MachineCalibration>,
}

impl Fig3bData {
    /// Whether the paper's headline observation holds: median CX
    /// infidelity strictly increases with device size.
    pub fn median_increases_with_size(&self) -> bool {
        self.machines.windows(2).all(|w| w[0].boxplot.median < w[1].boxplot.median)
    }

    /// Renders the box-plot table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "machine", "qubits", "whisker-", "Q1", "median", "Q3", "whisker+", "mean",
        ]);
        for m in &self.machines {
            let b = &m.boxplot;
            table.row([
                m.processor.to_string(),
                m.processor.num_qubits().to_string(),
                format!("{:.4}", b.whisker_lo),
                format!("{:.4}", b.q1),
                format!("{:.4}", b.median),
                format!("{:.4}", b.q3),
                format!("{:.4}", b.whisker_hi),
                format!("{:.4}", b.mean),
            ]);
        }
        table.to_string()
    }
}

/// Runs the Fig. 3(b) synthesis.
pub fn run(config: &Fig3bConfig) -> Fig3bData {
    Fig3bData { machines: synthesize_fleet(&config.fleet, config.seed) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trend_matches_paper() {
        let data = run(&Fig3bConfig::paper());
        assert_eq!(data.machines.len(), 3);
        assert!(data.median_increases_with_size());
        let rendered = data.render();
        assert!(rendered.contains("Auckland"));
        assert!(rendered.contains("Washington"));
        assert!(rendered.contains("127"));
    }

    #[test]
    fn medians_in_one_to_two_percent_regime() {
        let data = run(&Fig3bConfig::paper());
        for m in &data.machines {
            assert!(m.boxplot.median > 0.004 && m.boxplot.median < 0.025);
        }
    }
}
