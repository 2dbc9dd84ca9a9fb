//! Ideal frequency plans.
//!
//! Section IV-B of the paper: transmons target ~5 GHz, three ideal
//! frequencies `F0 < F1 < F2` with a uniform step between them, and a
//! fixed anharmonicity α ≈ −0.330 GHz. The Monte Carlo of Fig. 4 sweeps
//! the step over 0.04–0.07 GHz and finds 0.06 GHz optimal, which the
//! paper then fixes (`F = 5.0, 5.06, 5.12 GHz`) for all later analysis.

use crate::qubit::FrequencyClass;

/// An ideal three-frequency plan plus anharmonicity, in GHz: `F0`, one
/// uniform step between `F0`, `F1` and `F2`, and the shared α.
///
/// # Example
///
/// ```
/// use chipletqc_topology::plan::FrequencyPlan;
/// use chipletqc_topology::qubit::FrequencyClass;
///
/// let plan = FrequencyPlan::state_of_the_art();
/// assert_eq!(plan.ideal(FrequencyClass::F0), 5.0);
/// assert!((plan.ideal(FrequencyClass::F2) - 5.12).abs() < 1e-12);
/// assert_eq!(plan.anharmonicity(), -0.330);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyPlan {
    f0: f64,
    step: f64,
    anharmonicity: f64,
}

impl FrequencyPlan {
    /// The paper's operating point: `F0 = 5.0 GHz`, step `0.06 GHz`
    /// (the Fig. 4 optimum), `α = −0.330 GHz`.
    pub fn state_of_the_art() -> FrequencyPlan {
        FrequencyPlan { f0: 5.0, step: 0.06, anharmonicity: -0.330 }
    }

    /// A plan with a custom uniform step (GHz), keeping the paper's
    /// `F0 = 5.0` and `α = −0.330`. This is the Fig. 4 sweep axis.
    ///
    /// # Panics
    ///
    /// Panics unless `step` is finite and positive.
    pub fn with_step(step: f64) -> FrequencyPlan {
        assert!(step.is_finite() && step > 0.0, "step must be positive, got {step}");
        FrequencyPlan { step, ..FrequencyPlan::state_of_the_art() }
    }

    /// The base frequency `F0` in GHz.
    pub fn f0(&self) -> f64 {
        self.f0
    }

    /// The uniform step between ideal frequencies in GHz.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// The transmon anharmonicity α in GHz (negative).
    pub fn anharmonicity(&self) -> f64 {
        self.anharmonicity
    }

    /// The ideal frequency of a class. `F2` adds the step twice:
    /// `f0 + 2.0 * step` rounds once instead of twice, so it can land
    /// one ulp away and move every pinned digest.
    pub fn ideal(&self, class: FrequencyClass) -> f64 {
        match class.steps() {
            0 => self.f0,
            1 => self.f0 + self.step,
            _ => self.f0 + self.step + self.step,
        }
    }
}

impl Default for FrequencyPlan {
    fn default() -> Self {
        FrequencyPlan::state_of_the_art()
    }
}

impl std::fmt::Display for FrequencyPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "F = {:.3}/{:.3}/{:.3} GHz, alpha = {:.3} GHz",
            self.ideal(FrequencyClass::F0),
            self.ideal(FrequencyClass::F1),
            self.ideal(FrequencyClass::F2),
            self.anharmonicity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_values() {
        let plan = FrequencyPlan::state_of_the_art();
        assert_eq!(plan.ideal(FrequencyClass::F0), 5.0);
        assert!((plan.ideal(FrequencyClass::F1) - 5.06).abs() < 1e-12);
        assert!((plan.ideal(FrequencyClass::F2) - 5.12).abs() < 1e-12);
    }

    #[test]
    fn with_step_changes_only_step() {
        let plan = FrequencyPlan::with_step(0.04);
        assert_eq!(plan.f0(), 5.0);
        assert_eq!(plan.step(), 0.04);
        assert_eq!(plan.anharmonicity(), -0.330);
        assert!((plan.ideal(FrequencyClass::F2) - 5.08).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn rejects_zero_step() {
        FrequencyPlan::with_step(0.0);
    }

    #[test]
    fn default_is_state_of_the_art() {
        assert_eq!(FrequencyPlan::default(), FrequencyPlan::state_of_the_art());
    }

    #[test]
    fn display_lists_all_three() {
        let s = FrequencyPlan::state_of_the_art().to_string();
        assert!(s.contains("5.060"));
        assert!(s.contains("5.120"));
    }
}
