//! Size estimation from sampled counts, and the paper's error metrics.

/// Inverts a sampled packet count to a size estimate: `x / ρ`.
///
/// This is the unbiased Horvitz–Thompson style estimator the paper analyzes
/// (§IV-C): `E[X/ρ | S] = S` when `X ~ Binomial(S, ρ)`.
///
/// # Panics
/// Panics unless `ρ ∈ (0, 1]`.
pub fn invert(sampled: u64, rho: f64) -> f64 {
    assert!(
        rho.is_finite() && rho > 0.0 && rho <= 1.0,
        "effective rate must be in (0,1], got {rho}"
    );
    sampled as f64 / rho
}

/// Squared relative error `((x/ρ − s)/s)²` of one estimate (paper eq. (9)).
///
/// # Panics
/// Panics if `actual == 0` (relative error undefined).
pub fn squared_relative_error(estimate: f64, actual: f64) -> f64 {
    assert!(actual > 0.0, "actual size must be positive");
    let rel = (estimate - actual) / actual;
    rel * rel
}

/// The paper's accuracy metric `1 − |x/ρ − s| / s` (§V-B). Negative values
/// (estimate off by more than 100 %) are possible and *not* clamped — the
/// evaluation wants to see them.
///
/// # Panics
/// Panics if `actual == 0`.
pub fn accuracy(estimate: f64, actual: f64) -> f64 {
    assert!(actual > 0.0, "actual size must be positive");
    1.0 - (estimate - actual).abs() / actual
}

/// Analytic expected squared relative error of the inverted binomial
/// estimator: `E[SRE](ρ) = (1 − ρ)/ρ · E[1/S]` (paper §IV-C).
///
/// `inv_mean_size` is `c = E[1/S]` of the OD-size distribution.
///
/// # Panics
/// Panics unless `ρ ∈ (0, 1]` and `inv_mean_size ≥ 0`.
pub fn expected_sre(rho: f64, inv_mean_size: f64) -> f64 {
    assert!(
        rho.is_finite() && rho > 0.0 && rho <= 1.0,
        "effective rate must be in (0,1], got {rho}"
    );
    assert!(inv_mean_size >= 0.0, "E[1/S] must be ≥ 0");
    (1.0 - rho) / rho * inv_mean_size
}

/// Estimates `c = E[1/S]` from historical per-interval OD sizes — the input
/// the utility function needs (paper §IV-C). For fluctuating sizes,
/// `E[1/S] > 1/E[S]` (Jensen), so using observed intervals rather than the
/// mean size is the honest estimate.
///
/// Non-positive observations are skipped (an empty interval contributes no
/// information about relative error).
///
/// # Panics
/// Panics if no positive observation remains.
pub fn estimate_inv_mean_size(interval_sizes: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &s in interval_sizes {
        if s > 0.0 && s.is_finite() {
            sum += 1.0 / s;
            n += 1;
        }
    }
    assert!(n > 0, "need at least one positive interval size");
    sum / n as f64
}

/// Summary statistics of repeated estimation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Mean of the values.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single value).
    pub std: f64,
}

impl RunStats {
    /// Computes statistics over `values`.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn from(values: &[f64]) -> RunStats {
        assert!(!values.is_empty(), "need at least one value");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let std = if values.len() > 1 {
            (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        RunStats {
            mean,
            min,
            max,
            std,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Binomial;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invert_is_unbiased_empirically() {
        let mut rng = StdRng::seed_from_u64(31);
        let s = 100_000u64;
        let rho = 0.004;
        let b = Binomial::new(s, rho);
        let runs = 2000;
        let mean_est = (0..runs)
            .map(|_| invert(b.sample(&mut rng), rho))
            .sum::<f64>()
            / runs as f64;
        assert!(
            (mean_est / s as f64 - 1.0).abs() < 0.01,
            "mean estimate {mean_est}"
        );
    }

    #[test]
    fn empirical_sre_matches_analytic() {
        // For fixed S, E[SRE] = (1−ρ)/(ρ·S).
        let mut rng = StdRng::seed_from_u64(32);
        let s = 50_000u64;
        let rho = 0.002;
        let b = Binomial::new(s, rho);
        let runs = 5000;
        let mean_sre = (0..runs)
            .map(|_| squared_relative_error(invert(b.sample(&mut rng), rho), s as f64))
            .sum::<f64>()
            / runs as f64;
        let analytic = expected_sre(rho, 1.0 / s as f64);
        assert!(
            (mean_sre / analytic - 1.0).abs() < 0.1,
            "empirical {mean_sre} vs analytic {analytic}"
        );
    }

    #[test]
    fn accuracy_metric() {
        assert_eq!(accuracy(100.0, 100.0), 1.0);
        assert!((accuracy(90.0, 100.0) - 0.9).abs() < 1e-12);
        assert!((accuracy(120.0, 100.0) - 0.8).abs() < 1e-12);
        // Can go negative for terrible estimates; not clamped.
        assert!(accuracy(300.0, 100.0) < 0.0);
    }

    #[test]
    fn expected_sre_monotone_decreasing_in_rho() {
        let c = 1e-4;
        let mut last = f64::INFINITY;
        for rho in [0.0005, 0.001, 0.01, 0.1, 1.0] {
            let e = expected_sre(rho, c);
            assert!(e < last, "SRE should decrease with rho");
            last = e;
        }
        assert_eq!(expected_sre(1.0, c), 0.0);
    }

    #[test]
    #[should_panic(expected = "effective rate must be in (0,1]")]
    fn invert_zero_rho_panics() {
        let _ = invert(5, 0.0);
    }

    #[test]
    #[should_panic(expected = "actual size must be positive")]
    fn accuracy_zero_actual_panics() {
        let _ = accuracy(1.0, 0.0);
    }

    #[test]
    fn inv_mean_size_estimation() {
        // Constant sizes: c = 1/S exactly.
        assert!((estimate_inv_mean_size(&[500.0; 8]) - 1.0 / 500.0).abs() < 1e-15);
        // Fluctuating sizes: strictly above 1/mean (Jensen).
        let sizes = [100.0, 1000.0, 10_000.0];
        let c = estimate_inv_mean_size(&sizes);
        let mean = sizes.iter().sum::<f64>() / 3.0;
        assert!(c > 1.0 / mean, "c {c} should exceed 1/mean {}", 1.0 / mean);
        // Zeros and non-finite entries skipped.
        let with_gaps = [0.0, f64::NAN, 500.0];
        assert!((estimate_inv_mean_size(&with_gaps) - 1.0 / 500.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "at least one positive interval size")]
    fn inv_mean_size_needs_data() {
        let _ = estimate_inv_mean_size(&[0.0, -1.0]);
    }

    #[test]
    fn run_stats() {
        let s = RunStats::from(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let single = RunStats::from(&[7.0]);
        assert_eq!(single.std, 0.0);
        assert_eq!(single.mean, 7.0);
    }

    #[test]
    #[should_panic(expected = "need at least one value")]
    fn empty_stats_panics() {
        let _ = RunStats::from(&[]);
    }
}
