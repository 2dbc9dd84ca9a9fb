//! Normal and LogNormal sampling.
//!
//! The paper's fabrication model draws every qubit frequency from
//! `N(F_target, σ_f)` (Section IV-B), and our flip-chip link noise model
//! uses a LogNormal infidelity distribution matched to the mean/median the
//! paper quotes from Gold et al. Rather than pulling in `rand_distr`
//! (which is not on the approved dependency list), both distributions are
//! implemented here with the polar Box–Muller method.

use rand::Rng;

use crate::rng::open_unit;

/// Error returned when constructing a distribution with invalid
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistError {
    /// The standard deviation was negative or non-finite.
    InvalidStdDev,
    /// A location parameter was non-finite.
    InvalidLocation,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::InvalidStdDev => write!(f, "standard deviation must be finite and >= 0"),
            DistError::InvalidLocation => write!(f, "location parameter must be finite"),
        }
    }
}

impl std::error::Error for DistError {}

/// A normal (Gaussian) distribution `N(mean, std_dev²)`.
///
/// # Example
///
/// ```
/// use chipletqc_math::dist::Normal;
/// use chipletqc_math::rng::Seed;
///
/// // The paper's state-of-the-art fabrication precision.
/// let fab = Normal::new(5.06, 0.014).unwrap();
/// let mut rng = Seed(1).rng();
/// let f = fab.sample(&mut rng);
/// assert!((f - 5.06).abs() < 0.014 * 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidStdDev`] if `std_dev` is negative, NaN,
    /// or infinite, and [`DistError::InvalidLocation`] if `mean` is not
    /// finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Normal, DistError> {
        if !mean.is_finite() {
            return Err(DistError::InvalidLocation);
        }
        if !std_dev.is_finite() || std_dev < 0.0 {
            return Err(DistError::InvalidStdDev);
        }
        Ok(Normal { mean, std_dev })
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }

    /// The cumulative distribution function `P(X <= x)`.
    ///
    /// Used by the analytic yield estimator to cross-check the Monte
    /// Carlo simulation.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x < self.mean { 0.0 } else { 1.0 };
        }
        let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// Probability that a sample falls inside the closed interval
    /// `[lo, hi]`.
    pub fn prob_in(&self, lo: f64, hi: f64) -> f64 {
        if lo > hi {
            return 0.0;
        }
        (self.cdf(hi) - self.cdf(lo)).max(0.0)
    }
}

/// A log-normal distribution: `exp(N(mu, sigma²))`.
///
/// Parameterized by the *location* `mu` and *scale* `sigma` of the
/// underlying normal. Convenience constructors match the way the paper's
/// sources report link statistics (mean + median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution from the underlying normal's
    /// location and scale.
    ///
    /// # Errors
    ///
    /// Returns an error if `mu` is not finite or `sigma` is negative or
    /// non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal, DistError> {
        if !mu.is_finite() {
            return Err(DistError::InvalidLocation);
        }
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(DistError::InvalidStdDev);
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Creates the unique log-normal with the given `mean` and `median`.
    ///
    /// This mirrors how Gold et al. report flip-chip link fidelity
    /// (average 92.5 %, median 94.4 %), i.e. infidelity mean 0.075 and
    /// median 0.056: `median = exp(mu)` and
    /// `mean = exp(mu + sigma²/2)` give
    /// `sigma = sqrt(2 ln(mean/median))`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < median <= mean` and both are finite.
    pub fn from_mean_median(mean: f64, median: f64) -> Result<LogNormal, DistError> {
        if !(mean.is_finite() && median.is_finite()) || median <= 0.0 {
            return Err(DistError::InvalidLocation);
        }
        if mean < median {
            return Err(DistError::InvalidStdDev);
        }
        let mu = median.ln();
        let sigma = (2.0 * (mean / median).ln()).sqrt();
        LogNormal::new(mu, sigma)
    }

    /// Location parameter of the underlying normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The distribution mean, `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    /// The distribution median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Draws one standard-normal variate with the polar Box–Muller method.
///
/// The textbook optimization that caches the second variate is skipped on
/// purpose: it would make sampling stateful, and the workspace's
/// reproducibility tests rely on sampling being a pure function of the
/// RNG stream position.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * open_unit(rng) - 1.0;
        let v = 2.0 * open_unit(rng) - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// The pairs [`fill_standard_normal`] keeps on the stack at once.
const FILL_CHUNK: usize = 64;

/// Fills `out` with the generator's next `out.len()` standard normals:
/// bit for bit the values of as many [`standard_normal`] calls, leaving
/// the generator where they would.
///
/// The polar method rejects about one `(u, v)` pair in five, and a
/// branch on each pair's verdict mispredicts about as often, so each
/// chunk takes two passes: the first writes every pair but advances
/// only past accepted ones, the second transforms the kept pairs.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut squares = [0.0; FILL_CHUNK];
    for out in out.chunks_mut(FILL_CHUNK) {
        let squares = &mut squares[..out.len()];
        let mut kept = 0;
        while kept < out.len() {
            let u = 2.0 * open_unit(rng) - 1.0;
            let v = 2.0 * open_unit(rng) - 1.0;
            let s = u * u + v * v;
            out[kept] = u;
            squares[kept] = s;
            kept += usize::from((s > 0.0) & (s < 1.0));
        }
        for (z, &s) in out.iter_mut().zip(squares.iter()) {
            *z *= (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// The error function, via the Abramowitz–Stegun 7.1.26 rational
/// approximation (absolute error < 1.5e-7, ample for yield estimates).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Seed;
    use crate::stats::{mean, std_dev};
    use rand::RngCore;

    #[test]
    fn normal_rejects_bad_params() {
        assert_eq!(Normal::new(0.0, -1.0).unwrap_err(), DistError::InvalidStdDev);
        assert_eq!(Normal::new(f64::NAN, 1.0).unwrap_err(), DistError::InvalidLocation);
        assert_eq!(Normal::new(0.0, f64::INFINITY).unwrap_err(), DistError::InvalidStdDev);
    }

    #[test]
    fn normal_moments_match() {
        let dist = Normal::new(5.0, 0.1).unwrap();
        let mut rng = Seed(11).rng();
        let samples: Vec<f64> = (0..50_000).map(|_| dist.sample(&mut rng)).collect();
        assert!((mean(&samples) - 5.0).abs() < 2e-3);
        assert!((std_dev(&samples) - 0.1).abs() < 2e-3);
    }

    #[test]
    fn normal_zero_sigma_is_degenerate() {
        let dist = Normal::new(2.0, 0.0).unwrap();
        let mut rng = Seed(1).rng();
        assert_eq!(dist.sample(&mut rng), 2.0);
        assert_eq!(dist.cdf(1.9), 0.0);
        assert_eq!(dist.cdf(2.1), 1.0);
    }

    #[test]
    fn normal_cdf_matches_known_values() {
        let dist = Normal::new(0.0, 1.0).unwrap();
        assert!((dist.cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((dist.cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((dist.cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn prob_in_is_consistent_with_cdf() {
        let dist = Normal::new(0.06, 0.0198).unwrap();
        // Probability of a Type-1 collision for nearest neighbors
        // separated by one ideal 0.06 GHz step at sigma_f = 0.014:
        // detuning ~ N(0.06, (0.014*sqrt2)^2), threshold 0.017.
        let p = dist.prob_in(-0.017, 0.017);
        assert!(p > 0.005 && p < 0.03, "p = {p}");
        assert_eq!(dist.prob_in(1.0, -1.0), 0.0);
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-6);
    }

    #[test]
    fn lognormal_from_mean_median_matches_paper_link_stats() {
        // Gold et al. link infidelity: mean 0.075, median 0.056.
        let dist = LogNormal::from_mean_median(0.075, 0.056).unwrap();
        assert!((dist.mean() - 0.075).abs() < 1e-12);
        assert!((dist.median() - 0.056).abs() < 1e-12);
        let mut rng = Seed(3).rng();
        let samples: Vec<f64> = (0..100_000).map(|_| dist.sample(&mut rng)).collect();
        assert!((mean(&samples) - 0.075).abs() < 3e-3);
        let mut sorted = samples;
        sorted.sort_by(f64::total_cmp);
        let med = sorted[sorted.len() / 2];
        assert!((med - 0.056).abs() < 2e-3);
    }

    #[test]
    fn lognormal_rejects_mean_below_median() {
        assert!(LogNormal::from_mean_median(0.05, 0.056).is_err());
        assert!(LogNormal::from_mean_median(0.05, 0.0).is_err());
    }

    #[test]
    fn standard_normal_is_symmetric() {
        let mut rng = Seed(17).rng();
        let samples: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        let positive = samples.iter().filter(|x| **x > 0.0).count();
        let ratio = positive as f64 / samples.len() as f64;
        assert!((ratio - 0.5).abs() < 0.01, "ratio = {ratio}");
    }

    /// Replays `script`, then continues as `rest`.
    struct Scripted {
        script: std::vec::IntoIter<u64>,
        rest: rand::rngs::StdRng,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.script.next().unwrap_or_else(|| self.rest.next_u64())
        }
    }

    #[test]
    fn fill_standard_normal_rejects_like_standard_normal() {
        // Branches no seeded stream reaches, each about 2^-53 per draw:
        // a raw draw below 2^11 is 0.0 to `open_unit`, which draws
        // again, and 2^63 is exactly 0.5, so two make u = v = 0 and
        // s = 0, which must be rejected. `ACCEPT` is 0.75: its pair has
        // u = v = 0.5 and s = 0.5.
        const BELOW: u64 = (1 << 11) - 1;
        const HALF: u64 = 1 << 63;
        const ACCEPT: u64 = 3 << 62;
        // Each unit draws one normal and rejects one pair; 70 units
        // cross the 64-pair chunk.
        let script: Vec<u64> = [ACCEPT, ACCEPT, BELOW, HALF, HALF].repeat(70);
        let scripted = || Scripted { script: script.clone().into_iter(), rest: Seed(31).rng() };
        let accepted = 0.5 * (-2.0 * 0.5f64.ln() / 0.5).sqrt();
        for len in [1, 63, 64, 65, 70, 150] {
            let (mut block_rng, mut oracle_rng) = (scripted(), scripted());
            let mut block = vec![0.0; len];
            fill_standard_normal(&mut block_rng, &mut block);
            let oracle: Vec<f64> = (0..len).map(|_| standard_normal(&mut oracle_rng)).collect();
            assert!(block[..len.min(70)].iter().all(|&z| z == accepted), "len {len}");
            let bits = |zs: &[f64]| zs.iter().map(|z| z.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&block), bits(&oracle), "len {len}");
            assert_eq!(block_rng.next_u64(), oracle_rng.next_u64(), "len {len}");
        }
    }
}
