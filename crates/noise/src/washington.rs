//! Synthetic IBM-Washington calibration data (a stand-in for the
//! machine's real calibration data, which does not ship with this
//! reproduction).
//!
//! The paper gathers 15 calibration cycles of CX infidelity and qubit
//! frequencies from the real 127-qubit Eagle machine and correlates
//! average CX infidelity with qubit-qubit detuning (Fig. 7: median
//! 0.012, average 0.018, binned at 0.1 GHz). This module generates a
//! statistically equivalent dataset:
//!
//! 1. build the Eagle-127 heavy-hex topology;
//! 2. fabricate it once with the Eagle-era frequency spread
//!    (`σ_f = 0.1 GHz`, the fabrication-induced spread the paper quotes
//!    from Zhang et al.);
//! 3. for each of 15 cycles, draw every edge's CX infidelity as
//!    `base × g(Δ) × drift`, where `base` is LogNormal CX noise,
//!    `g(Δ)` is the collision-physics response of [`crate::response`],
//!    and `drift` is a per-cycle LogNormal wobble (real QC noise
//!    fluctuates day to day — the paper cites Dasgupta & Humble);
//! 4. average each edge over the cycles and emit `(detuning, mean
//!    infidelity)` pairs — exactly the points plotted in Fig. 7.

use chipletqc_math::dist::{LogNormal, Normal};
use chipletqc_math::rng::Seed;
use chipletqc_math::stats::{mean, median};
use chipletqc_topology::ibm::eagle127;
use chipletqc_topology::plan::FrequencyPlan;

use crate::response::{detuning_response, ResponseParams};

/// Parameters of the synthetic calibration generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WashingtonParams {
    /// Fabrication-era frequency spread around the ideal plan (GHz).
    pub sigma_f: f64,
    /// Number of calibration cycles averaged per edge.
    pub cycles: usize,
    /// Median of the LogNormal base CX infidelity.
    pub base_median: f64,
    /// Scale (σ of the underlying normal) of the base infidelity.
    pub base_sigma: f64,
    /// Per-cycle drift scale (σ of the underlying normal).
    pub drift_sigma: f64,
    /// The detuning response shape.
    pub response: ResponseParams,
}

impl WashingtonParams {
    /// The calibration matched to the paper's reported statistics
    /// (pooled median ≈ 0.012, mean ≈ 0.018).
    pub fn paper() -> WashingtonParams {
        WashingtonParams {
            sigma_f: 0.1,
            cycles: 15,
            base_median: 0.0088,
            base_sigma: 0.55,
            drift_sigma: 0.25,
            response: ResponseParams::eagle(),
        }
    }
}

impl Default for WashingtonParams {
    fn default() -> Self {
        WashingtonParams::paper()
    }
}

/// One synthetic calibration dataset: per-edge detuning and
/// cycle-averaged CX infidelity, plus the per-cycle raw values.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationData {
    /// `(|Δ| GHz, mean CX infidelity)` per coupled pair — the Fig. 7
    /// scatter points.
    pub points: Vec<(f64, f64)>,
}

impl CalibrationData {
    /// The median of the averaged infidelities (paper: 0.012).
    pub fn median_infidelity(&self) -> f64 {
        median(&self.infidelities())
    }

    /// The mean of the averaged infidelities (paper: 0.018).
    pub fn mean_infidelity(&self) -> f64 {
        mean(&self.infidelities())
    }

    /// The infidelity column.
    pub fn infidelities(&self) -> Vec<f64> {
        self.points.iter().map(|(_, e)| *e).collect()
    }

    /// The detuning column.
    pub fn detunings(&self) -> Vec<f64> {
        self.points.iter().map(|(d, _)| *d).collect()
    }
}

/// Generates the synthetic Washington calibration dataset.
///
/// Deterministic in `seed`.
///
/// # Example
///
/// ```
/// use chipletqc_math::rng::Seed;
/// use chipletqc_noise::washington::{synthesize_calibration, WashingtonParams};
///
/// let data = synthesize_calibration(&WashingtonParams::paper(), Seed(7));
/// assert_eq!(data.points.len(), 144); // one point per Eagle edge
/// ```
pub fn synthesize_calibration(params: &WashingtonParams, seed: Seed) -> CalibrationData {
    let device = eagle127();
    let plan = FrequencyPlan::state_of_the_art();
    let mut rng = seed.rng();
    // One fabrication outcome for the machine (frequencies are fixed
    // hardware properties; only noise drifts between cycles).
    let spread = Normal::new(0.0, params.sigma_f).expect("finite sigma");
    let freqs: Vec<f64> = device
        .qubits()
        .map(|q| plan.ideal(device.class(q)) + spread.sample(&mut rng))
        .collect();

    let base = LogNormal::new(params.base_median.ln(), params.base_sigma).expect("finite");
    let drift = LogNormal::new(0.0, params.drift_sigma).expect("finite");

    let mut points = Vec::with_capacity(device.edges().len());
    for e in device.edges() {
        let delta = (freqs[e.a.index()] - freqs[e.b.index()]).abs();
        let g = detuning_response(delta, &params.response);
        let mut total = 0.0;
        for _ in 0..params.cycles {
            let raw = base.sample(&mut rng) * g * drift.sample(&mut rng);
            total += raw.min(0.9);
        }
        points.push((delta, total / params.cycles as f64));
    }
    CalibrationData { points }
}

/// Convenience: pooled samples for arbitrary `(detuning, infidelity)`
/// analysis, e.g. feeding [`crate::detuning_model`].
pub fn paper_calibration(seed: Seed) -> CalibrationData {
    synthesize_calibration(&WashingtonParams::paper(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_match_fig7() {
        // Average over several generator seeds: the pooled statistics
        // must land on the paper's reported median 0.012 / mean 0.018.
        let mut medians = Vec::new();
        let mut means = Vec::new();
        for s in 0..10 {
            let data = paper_calibration(Seed(s));
            medians.push(data.median_infidelity());
            means.push(data.mean_infidelity());
        }
        let med = mean(&medians);
        let avg = mean(&means);
        assert!((med - 0.012).abs() < 0.003, "median {med:.4}");
        assert!((avg - 0.018).abs() < 0.005, "mean {avg:.4}");
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(paper_calibration(Seed(3)), paper_calibration(Seed(3)));
        assert_ne!(paper_calibration(Seed(3)), paper_calibration(Seed(4)));
    }

    #[test]
    fn detunings_span_the_fabrication_spread() {
        let data = paper_calibration(Seed(1));
        let detunings = data.detunings();
        let max = detunings.iter().cloned().fold(0.0, f64::max);
        // sigma 0.1 per qubit => neighbor detunings up to ~0.5 GHz.
        assert!(max > 0.25, "max detuning {max}");
        assert!(detunings.iter().all(|d| *d >= 0.0));
    }

    #[test]
    fn infidelities_are_probabilities() {
        let data = paper_calibration(Seed(2));
        assert!(data.infidelities().iter().all(|e| *e > 0.0 && *e < 1.0));
    }

    #[test]
    fn with_noise_off_infidelity_tracks_the_detuning_response() {
        // Shrink the stochastic scales to (near) zero: every point
        // collapses to base_median * g(detuning), so equal detunings
        // produce equal infidelities and the near-null edges are the
        // worst on the chip.
        let quiet = WashingtonParams {
            base_sigma: 1e-9,
            drift_sigma: 1e-9,
            ..WashingtonParams::paper()
        };
        let data = synthesize_calibration(&quiet, Seed(9));
        let base = quiet.base_median;
        for &(delta, infid) in &data.points {
            let expected = base * crate::response::detuning_response(delta, &quiet.response);
            assert!(
                (infid - expected.min(0.9)).abs() < 1e-6,
                "delta {delta}: {infid} vs {expected}"
            );
        }
        // The worst pair sits near a collision condition, not the sweet spot.
        let (worst_delta, _) =
            data.points.iter().cloned().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        let near_condition =
            worst_delta < 0.04 || (worst_delta - 0.165).abs() < 0.04 || worst_delta > 0.30;
        assert!(near_condition, "worst detuning {worst_delta}");
    }
}
