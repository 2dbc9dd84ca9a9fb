//! Synthetic fleet calibration for the Fig. 3(b) reproduction (a
//! stand-in for the paper's IBM calibration data, which does not ship
//! with this reproduction).
//!
//! The paper gathers 15 days of CX-infidelity calibration from three IBM
//! machines (Auckland-27, Brooklyn-65, Washington-127) and observes that
//! *median CX infidelity correlates with chip size*, with larger devices
//! also showing wider distributions — the motivating evidence for
//! chiplets. This module emulates that dataset with a size-scaling law
//! calibrated to the reported ~1–2 % infidelity regime:
//!
//! ```text
//! median(q) = median_27 · (q / 27)^beta
//! ```
//!
//! with the spread scaling the same way. The law's exponent is an input
//! assumption (the real data is unavailable), but every downstream use
//! in the paper consumes only the qualitative trend.

use chipletqc_math::dist::LogNormal;
use chipletqc_math::rng::Seed;
use chipletqc_math::stats::BoxPlot;
use chipletqc_topology::ibm::IbmProcessor;

/// Parameters of the fleet calibration generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetParams {
    /// Median CX infidelity of the 27-qubit reference machine.
    pub median_27: f64,
    /// Size-scaling exponent for the median.
    pub beta: f64,
    /// LogNormal scale (spread) at 27 qubits.
    pub sigma_27: f64,
    /// Additional spread per size doubling.
    pub sigma_growth: f64,
    /// Calibration cycles (days).
    pub cycles: usize,
}

impl FleetParams {
    /// Calibration matched to Fig. 3(b)'s regime: medians rising from
    /// ~0.7 % (Falcon) through ~1.3 % (Eagle), spread widening with
    /// size.
    pub fn paper() -> FleetParams {
        FleetParams {
            median_27: 0.007,
            beta: 0.40,
            sigma_27: 0.35,
            sigma_growth: 0.09,
            cycles: 15,
        }
    }

    /// The target median for a device of `qubits` qubits.
    pub fn median_for(&self, qubits: usize) -> f64 {
        self.median_27 * (qubits as f64 / 27.0).powf(self.beta)
    }

    /// The LogNormal scale for a device of `qubits` qubits.
    pub fn sigma_for(&self, qubits: usize) -> f64 {
        self.sigma_27 + self.sigma_growth * (qubits as f64 / 27.0).log2()
    }
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams::paper()
    }
}

/// The 15-cycle calibration summary of one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineCalibration {
    /// Which machine.
    pub processor: IbmProcessor,
    /// Every per-edge, per-cycle CX infidelity sample.
    pub samples: Vec<f64>,
    /// The box-plot summary drawn in Fig. 3(b).
    pub boxplot: BoxPlot,
}

/// Generates the three-machine calibration dataset of Fig. 3(b).
///
/// # Example
///
/// ```
/// use chipletqc_math::rng::Seed;
/// use chipletqc_noise::fleet::{synthesize_fleet, FleetParams};
///
/// let fleet = synthesize_fleet(&FleetParams::paper(), Seed(11));
/// assert_eq!(fleet.len(), 3);
/// // Median CX infidelity correlates with device size:
/// assert!(fleet[0].boxplot.median < fleet[2].boxplot.median);
/// ```
pub fn synthesize_fleet(params: &FleetParams, seed: Seed) -> Vec<MachineCalibration> {
    IbmProcessor::ALL
        .iter()
        .enumerate()
        .map(|(i, &processor)| {
            let device = processor.build();
            let q = device.num_qubits();
            let dist = LogNormal::new(params.median_for(q).ln(), params.sigma_for(q))
                .expect("calibration parameters are finite");
            let mut rng = seed.split(i as u64).rng();
            let mut samples = Vec::with_capacity(device.edges().len() * params.cycles);
            for _ in 0..params.cycles {
                for _ in device.edges() {
                    samples.push(dist.sample(&mut rng).min(0.9));
                }
            }
            let boxplot = BoxPlot::from_samples(&samples).expect("non-empty samples");
            MachineCalibration { processor, samples, boxplot }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_law_monotone() {
        let p = FleetParams::paper();
        assert!(p.median_for(27) < p.median_for(65));
        assert!(p.median_for(65) < p.median_for(127));
        assert!(p.sigma_for(27) < p.sigma_for(127));
        assert!((p.median_for(27) - 0.007).abs() < 1e-12);
    }

    #[test]
    fn medians_rise_with_size_like_fig3b() {
        let fleet = synthesize_fleet(&FleetParams::paper(), Seed(1));
        assert_eq!(fleet.len(), 3);
        assert!(fleet[0].boxplot.median < fleet[1].boxplot.median);
        assert!(fleet[1].boxplot.median < fleet[2].boxplot.median);
        // All in the paper's ~1-2% regime (0.5%-2.5% tolerance band).
        for m in &fleet {
            assert!(
                m.boxplot.median > 0.004 && m.boxplot.median < 0.025,
                "{}: median {:.4}",
                m.processor,
                m.boxplot.median
            );
        }
    }

    #[test]
    fn spread_widens_with_size() {
        let fleet = synthesize_fleet(&FleetParams::paper(), Seed(2));
        assert!(fleet[0].boxplot.iqr() < fleet[2].boxplot.iqr());
    }

    #[test]
    fn sample_counts_match_edges_times_cycles() {
        let fleet = synthesize_fleet(&FleetParams::paper(), Seed(3));
        assert_eq!(fleet[0].samples.len(), 28 * 15);
        assert_eq!(fleet[1].samples.len(), 72 * 15);
        assert_eq!(fleet[2].samples.len(), 144 * 15);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = synthesize_fleet(&FleetParams::paper(), Seed(4));
        let b = synthesize_fleet(&FleetParams::paper(), Seed(4));
        assert_eq!(a, b);
    }
}
