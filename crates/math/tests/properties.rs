//! Property tests for the numeric substrate.

use proptest::prelude::*;
use rand::RngCore;

use chipletqc_math::combinatorics::{
    factor_pairs, ln_factorial, log10_binomial, log10_permutations,
};
use chipletqc_math::dist::{fill_standard_normal, standard_normal, LogNormal, Normal};
use chipletqc_math::histogram::{Binning, SampleHistogram};
use chipletqc_math::logspace::LogProduct;
use chipletqc_math::rng::Seed;
use chipletqc_math::stats::{mean, median, quantile, wilson_interval, BoxPlot};

proptest! {
    #[test]
    fn normal_samples_stay_within_eight_sigma(
        mean_v in -10.0f64..10.0,
        sigma in 0.0f64..5.0,
        seed in 0u64..1000,
    ) {
        let dist = Normal::new(mean_v, sigma).unwrap();
        let mut rng = Seed(seed).rng();
        for _ in 0..64 {
            let x = dist.sample(&mut rng);
            prop_assert!(x.is_finite());
            prop_assert!((x - mean_v).abs() <= sigma * 8.0 + 1e-12);
        }
    }

    #[test]
    fn normal_cdf_is_monotone(mu in -5.0f64..5.0, sigma in 0.01f64..3.0, a in -9.0f64..9.0, b in -9.0f64..9.0) {
        let dist = Normal::new(mu, sigma).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(dist.cdf(lo) <= dist.cdf(hi) + 1e-12);
        prop_assert!(dist.prob_in(lo, hi) >= 0.0);
        prop_assert!(dist.prob_in(lo, hi) <= 1.0 + 1e-12);
    }

    #[test]
    fn lognormal_mean_median_roundtrip(median_v in 0.001f64..0.5, stretch in 1.0f64..4.0) {
        let mean_v = median_v * stretch;
        let dist = LogNormal::from_mean_median(mean_v, median_v).unwrap();
        prop_assert!((dist.mean() - mean_v).abs() < 1e-9);
        prop_assert!((dist.median() - median_v).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_monotone_and_bracketed(
        mut xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo);
        let b = quantile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        xs.sort_by(f64::total_cmp);
        prop_assert!(a >= xs[0] - 1e-9);
        prop_assert!(b <= xs[xs.len() - 1] + 1e-9);
        // Median sits between mean-of-extremes bounds.
        prop_assert!(median(&xs) >= xs[0] - 1e-9 && median(&xs) <= xs[xs.len() - 1] + 1e-9);
    }

    #[test]
    fn boxplot_orders_its_five_numbers(xs in prop::collection::vec(-1e3f64..1e3, 2..200)) {
        let bp = BoxPlot::from_samples(&xs).unwrap();
        prop_assert!(bp.whisker_lo <= bp.q1 + 1e-9);
        prop_assert!(bp.q1 <= bp.median + 1e-9);
        prop_assert!(bp.median <= bp.q3 + 1e-9);
        prop_assert!(bp.q3 <= bp.whisker_hi + 1e-9);
        prop_assert!(bp.iqr() >= -1e-9);
    }

    #[test]
    fn wilson_interval_contains_point_estimate(successes in 0usize..500, extra in 0usize..500) {
        let trials = successes + extra;
        prop_assume!(trials > 0);
        let (lo, hi) = wilson_interval(successes, trials);
        let p = successes as f64 / trials as f64;
        prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn log_product_is_order_independent(ps in prop::collection::vec(0.001f64..1.0, 1..50)) {
        let mut fwd = LogProduct::one();
        for &p in &ps {
            fwd.mul_prob(p);
        }
        let mut rev = LogProduct::one();
        for &p in ps.iter().rev() {
            rev.mul_prob(p);
        }
        prop_assert!((fwd.ln() - rev.ln()).abs() < 1e-9);
        prop_assert_eq!(fwd.factors(), ps.len());
        // mul_prob_pow(p, n) == n * mul_prob(p).
        let mut pow = LogProduct::one();
        pow.mul_prob_pow(ps[0], 7);
        prop_assert!((pow.ln() - 7.0 * ps[0].ln()).abs() < 1e-9);
    }

    #[test]
    fn factorial_is_monotone_and_superadditive(n in 1u64..100_000) {
        prop_assert!(ln_factorial(n + 1) > ln_factorial(n));
        // P(n, k) <= n^k in log10.
        let k = (n % 20) + 1;
        prop_assert!(log10_permutations(n + 20, k) <= (k as f64) * ((n + 20) as f64).log10() + 1e-9);
        prop_assert!(log10_binomial(n + 20, k) <= log10_permutations(n + 20, k) + 1e-9);
    }

    #[test]
    fn factor_pairs_multiply_back(n in 1usize..5000) {
        let pairs = factor_pairs(n);
        prop_assert!(!pairs.is_empty());
        for (a, b) in &pairs {
            prop_assert_eq!(a * b, n);
            prop_assert!(a <= b);
        }
        // Most-square pair first.
        let (k, m) = pairs[0];
        for (a, b) in &pairs[1..] {
            prop_assert!(m - k <= b - a);
        }
    }

    #[test]
    fn histogram_preserves_samples(keys in prop::collection::vec(0.0f64..2.0, 1..100)) {
        let mut h = SampleHistogram::new(Binning::new(0.0, 0.1).unwrap());
        for (i, &k) in keys.iter().enumerate() {
            h.insert(k, i as f64);
        }
        prop_assert_eq!(h.len(), keys.len());
        // Every stored sample is findable via its key's bin.
        for (i, &k) in keys.iter().enumerate() {
            prop_assert!(h.samples_for(k).contains(&(i as f64)));
        }
    }

    #[test]
    fn seed_split_tree_has_no_collisions(root in 0u64..1000) {
        let seed = Seed(root);
        let mut children: Vec<u64> = (0..64).map(|i| seed.split(i).0).collect();
        children.push(seed.split_str("a").0);
        children.push(seed.split_str("b").0);
        children.sort_unstable();
        children.dedup();
        prop_assert_eq!(children.len(), 66);
    }

    /// The block sampler draws bit for bit what as many `standard_normal`
    /// calls draw, and leaves the generator where they would.
    #[test]
    fn fill_standard_normal_matches_standard_normal(seed in 0u64..u64::MAX, len in 0usize..=200) {
        let (mut block_rng, mut oracle_rng) = (Seed(seed).rng(), Seed(seed).rng());
        let mut block = vec![0.0; len];
        fill_standard_normal(&mut block_rng, &mut block);
        let oracle: Vec<u64> = (0..len).map(|_| standard_normal(&mut oracle_rng).to_bits()).collect();
        prop_assert_eq!(block.iter().map(|z| z.to_bits()).collect::<Vec<_>>(), oracle);
        prop_assert_eq!(block_rng.next_u64(), oracle_rng.next_u64());
    }
}

#[test]
fn mean_of_constant_is_constant() {
    assert_eq!(mean(&[3.5; 17]), 3.5);
}
