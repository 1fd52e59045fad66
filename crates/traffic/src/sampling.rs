//! Network-wide effective-sampling simulation.
//!
//! When an OD pair's path crosses several active monitors, a packet is
//! "sampled" if at least one monitor catches it. With i.i.d. sampling at
//! rate `p_i` per monitor and independent monitors, the *effective* rate is
//! `ρ = 1 − Π(1 − p_i)` (paper eq. (1)); for the small rates the optimizer
//! produces it is well approximated by `ρ ≈ Σ p_i` (eq. (7)). Both forms are
//! provided, plus exact simulation of the distinct-sampled-packet count.

use crate::dist::Binomial;
use rand::Rng;

/// Exact effective sampling rate `1 − Π(1 − p_i)` over the monitor rates on
/// an OD pair's path (paper eq. (1)).
///
/// # Panics
/// Panics if any rate is outside `[0, 1]`.
pub fn effective_rate_exact(rates: &[f64]) -> f64 {
    let mut miss = 1.0;
    for &p in rates {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "sampling rate must be in [0,1], got {p}"
        );
        miss *= 1.0 - p;
    }
    1.0 - miss
}

/// Linear approximation `ρ ≈ Σ p_i` (paper eq. (7)), valid for small rates
/// and few monitors per path. The result is clamped to 1.
///
/// # Panics
/// Panics if any rate is outside `[0, 1]`.
pub fn effective_rate_approx(rates: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &p in rates {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "sampling rate must be in [0,1], got {p}"
        );
        sum += p;
    }
    sum.min(1.0)
}

/// Simulates the number of *distinct* packets of an `size`-packet OD pair
/// sampled by at least one of the monitors with the given rates.
///
/// Under the independence assumptions each packet is caught with probability
/// `ρ_exact`, independently, so the count is exactly
/// `Binomial(size, ρ_exact)`.
pub fn simulate_distinct_sampled<R: Rng + ?Sized>(rng: &mut R, size: u64, rates: &[f64]) -> u64 {
    let rho = effective_rate_exact(rates);
    Binomial::new(size, rho).sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference packet-level simulation: loops over every packet and every
    /// monitor with individual Bernoulli draws, returning the distinct-sampled
    /// count. `O(size × monitors)` — intended as the ground-truth oracle for
    /// validating [`simulate_distinct_sampled`]'s Binomial shortcut, not for
    /// production workloads (which reach 10⁷ packets per interval).
    ///
    /// # Panics
    /// Panics if any rate is outside `[0, 1]`.
    fn simulate_packet_level<R: Rng + ?Sized>(rng: &mut R, size: u64, rates: &[f64]) -> u64 {
        for &p in rates {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "sampling rate must be in [0,1], got {p}"
            );
        }
        let mut caught = 0u64;
        for _ in 0..size {
            // A packet is counted once if any monitor on the path samples it.
            if rates.iter().any(|&p| rng.random::<f64>() < p) {
                caught += 1;
            }
        }
        caught
    }

    #[test]
    fn exact_rate_basic() {
        assert_eq!(effective_rate_exact(&[]), 0.0);
        assert_eq!(effective_rate_exact(&[0.5]), 0.5);
        assert!((effective_rate_exact(&[0.5, 0.5]) - 0.75).abs() < 1e-15);
        assert_eq!(effective_rate_exact(&[1.0, 0.3]), 1.0);
    }

    #[test]
    fn approx_close_for_small_rates() {
        let rates = [0.001, 0.002];
        let exact = effective_rate_exact(&rates);
        let approx = effective_rate_approx(&rates);
        // Relative error ≈ p1·p2 / (p1+p2) — tiny.
        assert!((approx - exact) / exact < 1e-3);
        assert!(approx >= exact, "union bound: approx ≥ exact");
    }

    #[test]
    fn approx_clamped() {
        assert_eq!(effective_rate_approx(&[0.8, 0.8]), 1.0);
    }

    #[test]
    fn approx_diverges_for_large_rates() {
        // The approximation overestimates badly at high rates — the reason
        // the paper checks its validity (§V-B).
        let rates = [0.5, 0.5];
        assert_eq!(effective_rate_approx(&rates), 1.0);
        assert!((effective_rate_exact(&rates) - 0.75).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "sampling rate must be in [0,1]")]
    fn invalid_rate_panics() {
        let _ = effective_rate_exact(&[0.5, -0.1]);
    }

    #[test]
    fn distinct_sampled_mean() {
        let mut rng = StdRng::seed_from_u64(21);
        let size = 1_000_000u64;
        let rates = [0.002, 0.003];
        let rho = effective_rate_exact(&rates);
        let runs = 200;
        let mean = (0..runs)
            .map(|_| simulate_distinct_sampled(&mut rng, size, &rates))
            .sum::<u64>() as f64
            / runs as f64;
        assert!(
            (mean / (size as f64 * rho) - 1.0).abs() < 0.02,
            "mean {mean} vs expected {}",
            size as f64 * rho
        );
    }

    #[test]
    fn binomial_shortcut_matches_packet_level_oracle() {
        // The production path draws Binomial(size, 1 − Π(1−p)); the oracle
        // loops per packet per monitor. Same distribution: compare the first
        // two moments over many runs.
        let mut rng = StdRng::seed_from_u64(77);
        let size = 20_000u64;
        let rates = [0.01, 0.004, 0.0015];
        let runs = 300;
        let fast: Vec<f64> = (0..runs)
            .map(|_| simulate_distinct_sampled(&mut rng, size, &rates) as f64)
            .collect();
        let oracle: Vec<f64> = (0..runs)
            .map(|_| simulate_packet_level(&mut rng, size, &rates) as f64)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let var = |v: &[f64]| {
            let m = mean(v);
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        let (mf, mo) = (mean(&fast), mean(&oracle));
        assert!((mf / mo - 1.0).abs() < 0.03, "means {mf} vs {mo}");
        let (vf, vo) = (var(&fast), var(&oracle));
        assert!((vf / vo - 1.0).abs() < 0.35, "variances {vf} vs {vo}");
    }

    #[test]
    fn no_monitors_no_samples() {
        let mut rng = StdRng::seed_from_u64(23);
        assert_eq!(simulate_distinct_sampled(&mut rng, 1_000_000, &[]), 0);
    }
}
