//! Warm-started re-solves. A property test: after a random ±20% demand
//! perturbation, warm-starting from the unperturbed optimum must reach the
//! cold-solve objective (to 1e-8 relative) in fewer iterations — the whole
//! point of carrying the solution across events. And a seeded backbone on
//! which a uniform demand drop leaves the carried plan under budget: the
//! warm start must keep its off monitors off instead of lifting them all.

mod common;

use common::perturbed_task;
use nws_core::scenarios::{janet_task, ring_task};
use nws_core::{
    solve_placement, solve_placement_warm, MeasurementTask, PlacementConfig, ACTIVATION_THRESHOLD,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn warm_resolve_matches_cold_with_fewer_iterations(
        mults in proptest::collection::vec(0.8..1.2f64, 20)
    ) {
        let config = PlacementConfig::default();
        let base = janet_task();
        let base_sol = solve_placement(&base, &config).expect("base solves");

        let task = perturbed_task(&base, &mults);
        let cold = solve_placement(&task, &config).expect("cold solves");
        let warm =
            solve_placement_warm(&task, &config, &base_sol.rates).expect("warm solves");

        prop_assert!(warm.kkt_verified, "warm solve must certify KKT");
        prop_assert!(cold.kkt_verified, "cold solve must certify KKT");
        let tol = 1e-8 * cold.objective.abs().max(1.0);
        prop_assert!(
            (warm.objective - cold.objective).abs() < tol,
            "objectives disagree: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        prop_assert!(
            warm.diagnostics.iterations < cold.diagnostics.iterations,
            "warm start must save iterations: warm {} vs cold {}",
            warm.diagnostics.iterations,
            cold.diagnostics.iterations
        );
    }
}

/// A seeded 24-PoP backbone with 30 tracked ODs ([`ring_task`]).
fn backbone_task(seed: u64) -> MeasurementTask {
    ring_task(24, 30, seed)
}

#[test]
fn demand_drop_keeps_off_monitors_off_in_the_warm_start() {
    let config = PlacementConfig::default();
    for seed in 1..=8 {
        let base = backbone_task(seed);
        let carried = solve_placement(&base, &config).expect("base solves");
        assert!(carried.kkt_verified);
        let off = base
            .candidate_links()
            .iter()
            .filter(|l| carried.rates[l.index()] <= ACTIVATION_THRESHOLD)
            .count();
        assert!(off >= 5, "seed {seed}: only {off} candidates off");

        // Every OD shrinks by 10%: the carried plan now spends less than θ.
        let task = perturbed_task(&base, &vec![0.9; base.ods().len()]);
        let spent: f64 = carried.capacity_usage(&task).iter().sum();
        assert!(spent < task.theta(), "seed {seed}: spends {spent} ≥ θ");

        let cold = solve_placement(&task, &config).expect("cold solves");
        let warm = solve_placement_warm(&task, &config, &carried.rates).expect("warm solves");
        assert!(warm.kkt_verified && cold.kkt_verified, "seed {seed}");
        let tol = 1e-8 * cold.objective.abs().max(1.0);
        assert!(
            (warm.objective - cold.objective).abs() < tol,
            "seed {seed}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        // Lifting the off monitors would cost about one bound hit each. The
        // face start costs one per carried monitor the optimum turns off,
        // plus at most one per off monitor released up front that it then
        // turns back off.
        assert!(
            warm.diagnostics.bounds_hit <= 2,
            "seed {seed}: warm solve hit {} bounds with {off} monitors off in its start",
            warm.diagnostics.bounds_hit
        );
    }
}
