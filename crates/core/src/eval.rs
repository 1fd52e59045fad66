//! Monte-Carlo accuracy evaluation of a sampling configuration.
//!
//! Reproduces the paper's evaluation protocol (§V-B): simulate the random
//! sampling process with the configured rates against the ground-truth OD
//! sizes, invert the sampled counts with the *approximate* effective rate
//! (eq. (7)) exactly as the method would in deployment, and score each run
//! with the accuracy metric `1 − |x/ρ − s|/s`. Averaging over repeated runs
//! (the paper uses 20) gives the per-OD accuracy columns of Table I.

use crate::{MeasurementTask, PlacementSolution};
use nws_traffic::estimate::{accuracy, RunStats};
use nws_traffic::sampling::simulate_distinct_sampled;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-OD evaluation outcome.
#[derive(Debug, Clone)]
pub struct OdAccuracy {
    /// OD display name.
    pub name: String,
    /// Ground-truth size (packets/interval).
    pub size: f64,
    /// Effective rate used for inversion (approximate model, as deployed).
    pub rho: f64,
    /// Accuracy statistics over the simulation runs.
    pub stats: RunStats,
}

/// Simulates `runs` independent sampling experiments of `solution` against
/// `task` and returns per-OD accuracy statistics.
///
/// ODs whose effective rate is zero (unobserved by any active monitor) get
/// accuracy statistics of a constant 0 — estimating "no estimate" as size 0
/// has accuracy `1 − |0 − s|/s = 0`.
pub fn evaluate_accuracy(
    task: &MeasurementTask,
    solution: &PlacementSolution,
    runs: usize,
    seed: u64,
) -> Vec<OdAccuracy> {
    assert!(runs > 0, "need at least one run");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(task.ods().len());
    let exact = solution.effective_rates_exact(task);
    for (k, od) in task.ods().iter().enumerate() {
        // Ground-truth sampling follows the exact union process at the
        // solution's exact effective rate (which accounts for fractional
        // ECMP routing); inversion divides by the approximate ρ, exactly as
        // the deployed estimator would.
        let rho_exact = exact[k];
        let rho = solution.effective_rates_approx[k];
        let size_pkts = od.size.round().max(0.0) as u64;
        let mut accs = Vec::with_capacity(runs);
        for _ in 0..runs {
            if rho <= 0.0 || rho_exact <= 0.0 {
                accs.push(0.0);
                continue;
            }
            let x = simulate_distinct_sampled(&mut rng, size_pkts, &[rho_exact]);
            let estimate = x as f64 / rho;
            accs.push(accuracy(estimate, od.size));
        }
        out.push(OdAccuracy {
            name: od.name.clone(),
            size: od.size,
            rho,
            stats: RunStats::from(&accs),
        });
    }
    out
}

/// Aggregate view over the per-OD accuracies: the mean over ODs of the mean
/// accuracy, plus the worst and best OD (the three series of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracySummary {
    /// Mean over ODs of the per-OD mean accuracy.
    pub mean: f64,
    /// Smallest per-OD mean accuracy.
    pub worst: f64,
    /// Largest per-OD mean accuracy.
    pub best: f64,
}

/// Summarizes per-OD accuracies into the Figure 2 series.
///
/// # Panics
/// Panics if `per_od` is empty.
pub fn summarize(per_od: &[OdAccuracy]) -> AccuracySummary {
    assert!(!per_od.is_empty(), "no OD accuracies to summarize");
    let means: Vec<f64> = per_od.iter().map(|o| o.stats.mean).collect();
    AccuracySummary {
        mean: means.iter().sum::<f64>() / means.len() as f64,
        worst: means.iter().copied().fold(f64::INFINITY, f64::min),
        best: means.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_placement, MeasurementTask, PlacementConfig};
    use nws_routing::OdPair;
    use nws_topo::geant;

    fn task() -> MeasurementTask {
        let topo = geant();
        let janet = topo.require_node("JANET").unwrap();
        let nl = topo.require_node("NL").unwrap();
        let lu = topo.require_node("LU").unwrap();
        MeasurementTask::builder(topo)
            .track("JANET-NL", OdPair::new(janet, nl), 9e6)
            .track("JANET-LU", OdPair::new(janet, lu), 6e3)
            .theta(20_000.0)
            .build()
            .unwrap()
    }

    #[test]
    fn accuracy_high_at_optimal_rates() {
        let t = task();
        let sol = solve_placement(&t, &PlacementConfig::default()).unwrap();
        let accs = evaluate_accuracy(&t, &sol, 20, 7);
        assert_eq!(accs.len(), 2);
        for a in &accs {
            assert!(
                a.stats.mean > 0.8,
                "{}: mean accuracy {} too low (rho {})",
                a.name,
                a.stats.mean,
                a.rho
            );
            assert!(a.stats.mean <= 1.0 + 1e-12);
            assert!(a.rho > 0.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = task();
        let sol = solve_placement(&t, &PlacementConfig::default()).unwrap();
        let a = evaluate_accuracy(&t, &sol, 5, 123);
        let b = evaluate_accuracy(&t, &sol, 5, 123);
        let c = evaluate_accuracy(&t, &sol, 5, 124);
        for k in 0..2 {
            assert_eq!(a[k].stats, b[k].stats);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.stats != y.stats));
    }

    #[test]
    fn unobserved_od_scores_zero() {
        let t = task();
        // All-zero rates: nothing sampled anywhere.
        let sol = crate::evaluate_rates(&t, &vec![0.0; t.topology().num_links()]);
        let accs = evaluate_accuracy(&t, &sol, 3, 1);
        for a in &accs {
            assert_eq!(a.stats.mean, 0.0);
            assert_eq!(a.rho, 0.0);
        }
    }

    #[test]
    fn summary_ordering() {
        let t = task();
        let sol = solve_placement(&t, &PlacementConfig::default()).unwrap();
        let accs = evaluate_accuracy(&t, &sol, 20, 99);
        let s = summarize(&accs);
        assert!(s.worst <= s.mean && s.mean <= s.best);
    }

    #[test]
    fn more_runs_tighter_estimate() {
        // Not a strict law per-seed, but std of mean accuracy over ODs
        // should be finite and the evaluation must not panic at high runs.
        let t = task();
        let sol = solve_placement(&t, &PlacementConfig::default()).unwrap();
        let accs = evaluate_accuracy(&t, &sol, 100, 5);
        for a in &accs {
            assert!(a.stats.std.is_finite());
            assert!(a.stats.min <= a.stats.max);
        }
    }
}
