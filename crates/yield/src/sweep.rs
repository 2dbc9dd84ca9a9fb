//! Yield-vs-size curve generation.
//!
//! The reusable sweep machinery behind the Fig. 4 panels (yield vs.
//! qubits for a grid of detuning steps and fabrication precisions) and
//! the monolithic curve of Fig. 8(a).

use chipletqc_collision::criteria::CollisionParams;
use chipletqc_math::rng::Seed;
use chipletqc_topology::family::MonolithicSpec;
use chipletqc_topology::plan::FrequencyPlan;

use crate::fabrication::FabricationParams;
use crate::monte_carlo::{simulate_yield, YieldEstimate};

/// One yield-vs-qubits curve.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldCurve {
    /// A label for plotting (e.g. `"sigma_f = 0.014"`).
    pub label: String,
    /// Device sizes in qubits.
    pub sizes: Vec<usize>,
    /// The yield estimate at each size.
    pub estimates: Vec<YieldEstimate>,
}

impl YieldCurve {
    /// The yield fractions in size order.
    pub fn fractions(&self) -> Vec<f64> {
        self.estimates.iter().map(YieldEstimate::fraction).collect()
    }

    /// The largest size whose yield is at least `threshold`, if any.
    ///
    /// The paper's headline observation — monolithic devices ≳ 400
    /// qubits are unfeasible at σ_f = 0.014 — is
    /// `last_size_with_yield_at_least(~0.001)`.
    pub fn last_size_with_yield_at_least(&self, threshold: f64) -> Option<usize> {
        self.sizes
            .iter()
            .zip(&self.estimates)
            .filter(|(_, e)| e.fraction() >= threshold)
            .map(|(s, _)| *s)
            .max()
    }

    /// The first size whose yield drops below `threshold`, if any.
    pub fn first_size_with_yield_below(&self, threshold: f64) -> Option<usize> {
        self.sizes
            .iter()
            .zip(&self.estimates)
            .find(|(_, e)| e.fraction() < threshold)
            .map(|(s, _)| *s)
    }
}

impl std::fmt::Display for YieldCurve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.label)?;
        for (s, e) in self.sizes.iter().zip(&self.estimates) {
            writeln!(f, "  {s:>5} qubits: {e}")?;
        }
        Ok(())
    }
}

/// Simulates monolithic collision-free yield across `sizes` (each a
/// multiple of 5; see [`MonolithicSpec::with_qubits`]).
///
/// Each size runs an independent `batch`-device Monte Carlo with a seed
/// derived from `seed` and the size, so adding sizes to the ladder never
/// perturbs existing points.
///
/// # Panics
///
/// Panics if a size is not constructible (not a positive multiple of 5).
pub fn monolithic_yield_curve(
    label: impl Into<String>,
    sizes: &[usize],
    fab: &FabricationParams,
    params: &CollisionParams,
    batch: usize,
    seed: Seed,
) -> YieldCurve {
    let estimates = sizes
        .iter()
        .map(|&q| {
            let device = MonolithicSpec::with_qubits(q)
                .unwrap_or_else(|e| panic!("size {q}: {e}"))
                .build();
            simulate_yield(&device, fab, params, batch, seed.split(q as u64))
        })
        .collect();
    YieldCurve { label: label.into(), sizes: sizes.to_vec(), estimates }
}

/// A full detuning-step × precision sweep at fixed sizes: the content of
/// one Fig. 4 reproduction.
///
/// Returns one [`YieldCurve`] per `(step, sigma)` pair, labeled
/// `"step=<s> sigma=<v>"`, in row-major order (steps outer).
pub fn step_sigma_sweep(
    steps: &[f64],
    sigmas: &[f64],
    sizes: &[usize],
    params: &CollisionParams,
    batch: usize,
    seed: Seed,
) -> Vec<YieldCurve> {
    let mut curves = Vec::with_capacity(steps.len() * sigmas.len());
    for (si, &step) in steps.iter().enumerate() {
        for (vi, &sigma) in sigmas.iter().enumerate() {
            let fab = FabricationParams::new(FrequencyPlan::with_step(step), sigma);
            let label = format!("step={step:.2} sigma={sigma:.4}");
            let sub_seed = seed.split((si * 1000 + vi) as u64);
            curves.push(monolithic_yield_curve(label, sizes, &fab, params, batch, sub_seed));
        }
    }
    curves
}

/// The area under a yield curve (trapezoidal, in qubit·yield units) —
/// a scalar summary used to rank detuning steps; the paper's optimum
/// step maximizes it.
pub fn yield_curve_area(curve: &YieldCurve) -> f64 {
    let fractions = curve.fractions();
    let mut area = 0.0;
    for i in 1..curve.sizes.len() {
        let width = (curve.sizes[i] - curve.sizes[i - 1]) as f64;
        area += 0.5 * (fractions[i] + fractions[i - 1]) * width;
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_monotone_decreasing_in_the_large() {
        let curve = monolithic_yield_curve(
            "sota",
            &[10, 50, 150, 300],
            &FabricationParams::state_of_the_art(),
            &CollisionParams::paper(),
            300,
            Seed(1),
        );
        let f = curve.fractions();
        assert!(f[0] > f[2], "{f:?}");
        assert!(f[1] > f[3], "{f:?}");
    }

    #[test]
    fn threshold_queries() {
        let curve = monolithic_yield_curve(
            "sota",
            &[10, 100, 400],
            &FabricationParams::state_of_the_art(),
            &CollisionParams::paper(),
            200,
            Seed(2),
        );
        assert_eq!(curve.last_size_with_yield_at_least(0.0), Some(400));
        let first_low = curve.first_size_with_yield_below(0.5);
        assert!(first_low == Some(100) || first_low == Some(400), "{first_low:?}");
        assert_eq!(curve.first_size_with_yield_below(-1.0), None);
    }

    #[test]
    fn better_precision_gives_better_curves() {
        let sizes = [50, 150];
        let sota = monolithic_yield_curve(
            "sota",
            &sizes,
            &FabricationParams::state_of_the_art(),
            &CollisionParams::paper(),
            300,
            Seed(3),
        );
        let raw = monolithic_yield_curve(
            "raw",
            &sizes,
            &FabricationParams::post_fabrication(),
            &CollisionParams::paper(),
            300,
            Seed(3),
        );
        assert!(yield_curve_area(&sota) > yield_curve_area(&raw));
    }

    #[test]
    fn sweep_produces_row_major_grid() {
        let curves = step_sigma_sweep(
            &[0.05, 0.06],
            &[0.014, 0.006],
            &[20, 60],
            &CollisionParams::paper(),
            100,
            Seed(4),
        );
        assert_eq!(curves.len(), 4);
        assert!(curves[0].label.contains("step=0.05"));
        assert!(curves[0].label.contains("sigma=0.0140"));
        assert!(curves[3].label.contains("step=0.06"));
        assert!(curves[3].label.contains("sigma=0.0060"));
    }

    #[test]
    fn display_contains_points() {
        let curve = monolithic_yield_curve(
            "demo",
            &[10],
            &FabricationParams::state_of_the_art(),
            &CollisionParams::paper(),
            50,
            Seed(5),
        );
        let s = curve.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("10 qubits"));
    }
}
