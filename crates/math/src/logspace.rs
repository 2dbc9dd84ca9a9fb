//! Log-domain probability products.
//!
//! The paper's application figure of merit is the *fidelity product of all
//! two-qubit gates* (an ESP-style metric, Section VII-B). A 360-qubit
//! system runs benchmarks with up to ~20k two-qubit gates at ~1–10 %
//! infidelity each, so the product is on the order of `10^-100` and
//! smaller — far below `f64::MIN_POSITIVE`. All ESP math therefore runs in
//! natural-log space and is only exponentiated for display when safe.

/// A product of probabilities accumulated in natural-log space.
///
/// # Example
///
/// ```
/// use chipletqc_math::logspace::LogProduct;
///
/// let mut esp = LogProduct::one();
/// for _ in 0..10_000 {
///     esp.mul_prob(0.99); // 1% infidelity per gate
/// }
/// // 0.99^10000 underflows intuition but not the accumulator:
/// assert!((esp.log10() - 10_000.0 * 0.99f64.log10()).abs() < 1e-6);
/// assert_eq!(esp.factors(), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogProduct {
    ln: f64,
    factors: usize,
}

impl LogProduct {
    /// The empty product (probability 1).
    pub fn one() -> LogProduct {
        LogProduct { ln: 0.0, factors: 0 }
    }

    /// Multiplies by a probability in `[0, 1]`.
    ///
    /// A factor of exactly `0.0` collapses the product to zero
    /// (`ln = -inf`), which is the correct ESP for a circuit crossing a
    /// dead link.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN, negative, or greater than 1.
    pub fn mul_prob(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.ln += p.ln();
        self.factors += 1;
    }

    /// Multiplies by `p` raised to the `n`-th power — `n` repeated
    /// gates over the same coupling in one step.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN, negative, or greater than 1.
    pub fn mul_prob_pow(&mut self, p: f64, n: usize) {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.mul_ln_pow(p.ln(), n);
    }

    /// Multiplies by the probability whose natural log is `ln_p`,
    /// raised to the `n`-th power: [`Self::mul_prob_pow`] with the log
    /// taken by the caller, who can share it among many products.
    pub fn mul_ln_pow(&mut self, ln_p: f64, n: usize) {
        if n == 0 {
            return;
        }
        self.ln += ln_p * n as f64;
        self.factors += n;
    }

    /// Multiplies by another log-product.
    pub fn mul(&mut self, other: LogProduct) {
        self.ln += other.ln;
        self.factors += other.factors;
    }

    /// The natural log of the product.
    pub fn ln(&self) -> f64 {
        self.ln
    }

    /// The base-10 log of the product (what the Fig. 10 reproduction
    /// reports, since ratios span hundreds of orders of magnitude).
    pub fn log10(&self) -> f64 {
        self.ln / std::f64::consts::LN_10
    }

    /// The product as a plain `f64`; underflows to `0.0` for very small
    /// products, which is why callers that compare ESPs use [`Self::ln`].
    pub fn value(&self) -> f64 {
        self.ln.exp()
    }

    /// The number of factors multiplied in so far.
    pub fn factors(&self) -> usize {
        self.factors
    }

    /// The geometric mean of the factors, `exp(ln / n)`.
    ///
    /// For an ESP this is the "average per-gate fidelity" — a
    /// size-independent quality number useful when comparing circuits of
    /// different gate counts.
    pub fn geometric_mean_factor(&self) -> f64 {
        if self.factors == 0 {
            return 1.0;
        }
        (self.ln / self.factors as f64).exp()
    }
}

impl Default for LogProduct {
    fn default() -> Self {
        LogProduct::one()
    }
}

impl std::fmt::Display for LogProduct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "10^{:.3} ({} factors)", self.log10(), self.factors)
    }
}

/// The geometric mean of a set of log-space values (`ln` units).
///
/// Population ESP comparisons average in log space: the arithmetic mean of
/// underflowing ESPs would be dominated by rounding, while the geometric
/// mean is exactly the mean of the logs.
pub fn mean_ln(lns: &[f64]) -> f64 {
    if lns.is_empty() {
        return f64::NAN;
    }
    lns.iter().sum::<f64>() / lns.len() as f64
}

/// Converts a natural-log value to log10.
pub fn ln_to_log10(ln: f64) -> f64 {
    ln / std::f64::consts::LN_10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_is_identity() {
        let p = LogProduct::one();
        assert_eq!(p.value(), 1.0);
        assert_eq!(p.factors(), 0);
        assert_eq!(p.geometric_mean_factor(), 1.0);
    }

    #[test]
    fn small_products_match_direct_multiplication() {
        let mut p = LogProduct::one();
        p.mul_prob(0.9);
        p.mul_prob(0.8);
        p.mul_prob(0.5);
        assert!((p.value() - 0.36).abs() < 1e-12);
        assert_eq!(p.factors(), 3);
    }

    #[test]
    fn zero_factor_collapses() {
        let mut p = LogProduct::one();
        p.mul_prob(0.9);
        p.mul_prob(0.0);
        assert_eq!(p.value(), 0.0);
        assert!(p.ln().is_infinite() && p.ln() < 0.0);
    }

    #[test]
    fn huge_products_do_not_underflow() {
        let mut p = LogProduct::one();
        for _ in 0..100_000 {
            p.mul_prob(0.98);
        }
        // 0.98^100000 ~ 10^-877: the f64 value underflows...
        assert_eq!(p.value(), 0.0);
        // ...but the log survives.
        assert!((p.log10() - 100_000.0 * 0.98f64.log10()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_probability_above_one() {
        LogProduct::one().mul_prob(1.5);
    }

    #[test]
    fn mul_combines_products() {
        let mut a = LogProduct::one();
        a.mul_prob(0.5);
        let mut b = LogProduct::one();
        b.mul_prob(0.25);
        a.mul(b);
        assert!((a.value() - 0.125).abs() < 1e-12);
        assert_eq!(a.factors(), 2);
    }

    #[test]
    fn geometric_mean_factor_recovers_uniform_fidelity() {
        let mut p = LogProduct::one();
        for _ in 0..777 {
            p.mul_prob(0.987);
        }
        assert!((p.geometric_mean_factor() - 0.987).abs() < 1e-9);
    }

    #[test]
    fn mean_ln_and_conversion() {
        assert!((mean_ln(&[0.0, (0.01f64).ln()]) - 0.5 * (0.01f64).ln()).abs() < 1e-12);
        assert!(mean_ln(&[]).is_nan());
        assert!((ln_to_log10(std::f64::consts::LN_10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_factors() {
        let mut p = LogProduct::one();
        p.mul_prob(0.5);
        assert!(p.to_string().contains("1 factors"));
    }
}
