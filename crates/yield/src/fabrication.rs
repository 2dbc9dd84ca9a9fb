//! Fabrication-precision parameters and frequency sampling.
//!
//! Section III-C of the paper: stochastic Josephson-junction variation
//! deviates each transmon's frequency from its design target; the spread
//! is characterized by a normal distribution with standard deviation
//! `σ_f`. The paper anchors three values:
//!
//! * `σ_f = 0.1323 GHz` — spread directly after fabrication
//!   (Hertzberg et al.);
//! * `σ_f = 0.014 GHz` — after post-fabrication laser tuning, the
//!   state of the art the paper adopts for all system modeling;
//! * `σ_f = 0.006 GHz` — the projected precision needed for >10³-qubit
//!   monolithic devices under the Table I criteria.

use rand::Rng;

use chipletqc_collision::frequencies::Frequencies;
use chipletqc_math::dist::Normal;
use chipletqc_topology::device::Device;
use chipletqc_topology::plan::FrequencyPlan;
use chipletqc_topology::qubit::QubitId;

/// Fabrication model: ideal plan + precision. Only frequencies vary;
/// every qubit keeps the plan's anharmonicity, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricationParams {
    plan: FrequencyPlan,
    sigma_f: f64,
}

impl FabricationParams {
    /// The paper's reference spread directly after fabrication:
    /// `σ_f = 0.1323 GHz`.
    pub fn post_fabrication() -> FabricationParams {
        FabricationParams::new(FrequencyPlan::state_of_the_art(), 0.1323)
    }

    /// The laser-tuned state of the art used for all of the paper's
    /// system modeling: `σ_f = 0.014 GHz`.
    pub fn state_of_the_art() -> FabricationParams {
        FabricationParams::new(FrequencyPlan::state_of_the_art(), 0.014)
    }

    /// The projected precision for beyond-10³-qubit monolithic scaling:
    /// `σ_f = 0.006 GHz`.
    pub fn projected() -> FabricationParams {
        FabricationParams::new(FrequencyPlan::state_of_the_art(), 0.006)
    }

    /// A custom plan/precision combination.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma_f` is finite and non-negative.
    pub fn new(plan: FrequencyPlan, sigma_f: f64) -> FabricationParams {
        assert!(
            sigma_f.is_finite() && sigma_f >= 0.0,
            "sigma_f must be finite and >= 0, got {sigma_f}"
        );
        FabricationParams { plan, sigma_f }
    }

    /// Returns a copy with a different precision.
    #[must_use]
    pub fn with_sigma_f(&self, sigma_f: f64) -> FabricationParams {
        FabricationParams::new(self.plan, sigma_f)
    }

    /// Returns a copy with a different ideal plan.
    #[must_use]
    pub fn with_plan(&self, plan: FrequencyPlan) -> FabricationParams {
        FabricationParams { plan, ..*self }
    }

    /// The ideal frequency plan.
    pub fn plan(&self) -> &FrequencyPlan {
        &self.plan
    }

    /// The fabrication precision σ_f in GHz.
    pub fn sigma_f(&self) -> f64 {
        self.sigma_f
    }

    /// Virtually fabricates one device: every qubit's frequency is drawn
    /// from `N(F_class, σ_f)` in qubit order.
    pub fn sample<R: Rng + ?Sized>(&self, device: &Device, rng: &mut R) -> Frequencies {
        let freqs: Vec<f64> = device.qubits().map(|q| self.draw_freq(device, q, rng)).collect();
        Frequencies::with_uniform_alpha(freqs, self.plan.anharmonicity())
            .expect("sampled values are finite")
    }

    /// Qubit `q`'s fabricated frequency, drawn from `N(F_class(q), σ_f)`:
    /// the per-qubit draw behind [`FabricationParams::sample`]. The Monte
    /// Carlo loop draws a trial in blocks instead and computes the same
    /// `ideal + (0.0 + σ_f * z)` from the same normals, so `sample` is the
    /// full-draw reference its tests compare against.
    ///
    /// # Panics
    ///
    /// Panics if the drawn value is not finite.
    pub(crate) fn draw_freq<R: Rng + ?Sized>(
        &self,
        device: &Device,
        q: QubitId,
        rng: &mut R,
    ) -> f64 {
        let noise = Normal::new(0.0, self.sigma_f).expect("validated in constructor");
        let f = self.plan.ideal(device.class(q)) + noise.sample(rng);
        assert!(f.is_finite(), "sampled frequency of {q} is not finite: {f}");
        f
    }
}

impl Default for FabricationParams {
    fn default() -> Self {
        FabricationParams::state_of_the_art()
    }
}

impl std::fmt::Display for FabricationParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} with sigma_f = {:.4} GHz", self.plan, self.sigma_f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_math::rng::Seed;
    use chipletqc_math::stats::{mean, std_dev};
    use chipletqc_topology::family::ChipletSpec;
    use chipletqc_topology::qubit::FrequencyClass;

    #[test]
    fn reference_points_match_paper() {
        assert_eq!(FabricationParams::post_fabrication().sigma_f(), 0.1323);
        assert_eq!(FabricationParams::state_of_the_art().sigma_f(), 0.014);
        assert_eq!(FabricationParams::projected().sigma_f(), 0.006);
        assert_eq!(FabricationParams::default(), FabricationParams::state_of_the_art());
    }

    #[test]
    fn sampling_centers_on_class_ideals() {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let mut rng = Seed(42).rng();
        // Collect many samples of one F0 qubit.
        let f0_qubit =
            device.qubits().find(|q| device.class(*q) == FrequencyClass::F0).unwrap();
        let samples: Vec<f64> =
            (0..4000).map(|_| fab.sample(&device, &mut rng).freq(f0_qubit)).collect();
        assert!((mean(&samples) - 5.0).abs() < 2e-3, "mean {}", mean(&samples));
        assert!((std_dev(&samples) - 0.014).abs() < 1e-3);
    }

    #[test]
    fn zero_sigma_is_exact() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let fab = FabricationParams::state_of_the_art().with_sigma_f(0.0);
        let mut rng = Seed(1).rng();
        let freqs = fab.sample(&device, &mut rng);
        for q in device.qubits() {
            assert_eq!(freqs.freq(q), fab.plan().ideal(device.class(q)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let a = fab.sample(&device, &mut Seed(9).rng());
        let b = fab.sample(&device, &mut Seed(9).rng());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sigma_f must be finite")]
    fn rejects_negative_sigma() {
        let _ = FabricationParams::state_of_the_art().with_sigma_f(-0.1);
    }

    #[test]
    fn display_mentions_sigma() {
        assert!(FabricationParams::state_of_the_art().to_string().contains("0.0140"));
    }
}
