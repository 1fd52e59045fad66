//! §IV-D — convergence statistics of the gradient projection method.
//!
//! The paper runs 200 independent executions with varying inputs (OD sizes,
//! link loads, capacity θ) and reports: 98.6 % of runs find the optimum in
//! under 2000 iterations, and active constraints with negative Lagrange
//! multipliers have to be released 1.64 times per run on average.
//!
//! This binary reproduces the protocol: 200 randomized JANET-task instances
//! (per-instance background gravity matrix, lognormal-perturbed OD sizes,
//! θ drawn log-uniformly), solved in parallel.

use nws_bench::{banner, footer, mean, paper_config, std_dev};
use nws_core::scenarios::JANET_OD_RATES;
use nws_core::{solve_placement, MeasurementTask};
use nws_routing::OdPair;
use nws_topo::geant;
use nws_traffic::demand::DemandMatrix;
use nws_traffic::dist::LogNormal;
use nws_traffic::MEASUREMENT_INTERVAL_SECS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds one randomized instance. Mirrors `janet_task_on` but jitters the
/// OD sizes so that not only loads and θ but the measurement task itself
/// varies across runs (the paper varies "OD pair sizes, link loads,
/// capacity θ").
fn random_instance(seed: u64) -> MeasurementTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = geant();
    let background_total = rng.random_range(300_000.0..2_000_000.0) * MEASUREMENT_INTERVAL_SECS;
    let background =
        DemandMatrix::gravity_capacity_weighted(&topo, background_total, 0.6, seed ^ 0xBEEF);
    let bg_loads = background.link_loads(&topo);

    let janet = topo.require_node("JANET").unwrap();
    let jitter = LogNormal::from_mean_cv(1.0, 0.5);
    let mut builder = MeasurementTask::builder(topo.clone());
    let mut tracked_total = 0.0;
    for &(dst, rate) in &JANET_OD_RATES {
        let node = topo.require_node(dst).unwrap();
        let size = rate * MEASUREMENT_INTERVAL_SECS * jitter.sample(&mut rng);
        tracked_total += size;
        builder = builder.track(format!("JANET-{dst}"), OdPair::new(janet, node), size);
    }
    // θ log-uniform between 1 % and 30 % of the tracked traffic volume.
    let theta = tracked_total * 10f64.powf(rng.random_range(-2.0..-0.52));
    builder
        .background_loads(&bg_loads)
        .theta(theta)
        .build()
        .expect("instance valid")
}

fn main() {
    let t0 = banner(
        "convergence",
        "solver statistics over 200 randomized instances",
    );

    let n = 200usize;
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get());
    let results: Vec<(bool, usize, usize)> = std::thread::scope(|scope| {
        let chunks: Vec<Vec<u64>> = (0..workers)
            .map(|w| ((w as u64)..n as u64).step_by(workers).collect())
            .collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|seed| {
                            let task = random_instance(seed);
                            let sol = solve_placement(&task, &paper_config())
                                .expect("instances are feasible by construction");
                            (
                                sol.kkt_verified,
                                sol.diagnostics.iterations,
                                sol.diagnostics.constraint_releases,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker ok"))
            .collect()
    });

    let converged = results.iter().filter(|r| r.0).count();
    let iters: Vec<f64> = results.iter().map(|r| r.1 as f64).collect();
    let releases: Vec<f64> = results.iter().map(|r| r.2 as f64).collect();
    let max_iters = iters.iter().cloned().fold(0.0, f64::max);

    println!("instances: {n}");
    println!(
        "converged to certified optimum within 2000 iterations: {} ({:.1}%)   \
         [paper: 98.6%]",
        converged,
        100.0 * converged as f64 / n as f64
    );
    println!(
        "iterations: mean {:.1}, std {:.1}, max {:.0}",
        mean(&iters),
        std_dev(&iters),
        max_iters
    );
    println!(
        "constraint releases (negative-multiplier events): mean {:.2}, std {:.2}   \
         [paper: mean 1.64]",
        mean(&releases),
        std_dev(&releases)
    );

    footer(t0);
}
