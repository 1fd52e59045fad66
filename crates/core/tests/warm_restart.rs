//! Warm-started re-solves. A property test: after a random ±20% demand
//! perturbation, warm-starting from the unperturbed optimum must reach the
//! cold-solve objective (to 1e-8 relative) in fewer iterations — the whole
//! point of carrying the solution across events. And a seeded backbone on
//! which a uniform demand drop leaves the carried plan under budget: the
//! warm start must keep its off monitors off instead of lifting them all.

use nws_core::scenarios::janet_task;
use nws_core::{
    solve_placement, solve_placement_warm, MeasurementTask, PlacementConfig, ACTIVATION_THRESHOLD,
};
use nws_routing::OdPair;
use nws_topo::random::ring_with_chords;
use nws_topo::NodeId;
use nws_traffic::demand::DemandMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rebuilds `base` with each OD size scaled by its multiplier,
/// keeping background, θ, and α unchanged.
fn perturbed_task(base: &MeasurementTask, mults: &[f64]) -> MeasurementTask {
    let sizes: Vec<f64> = base.ods().iter().map(|o| o.size).collect();
    let tracked = base.routing().link_loads(&sizes);
    let background: Vec<f64> = base
        .link_loads()
        .iter()
        .zip(&tracked)
        .map(|(total, t)| (total - t).max(0.0))
        .collect();
    let mut builder = MeasurementTask::builder(base.topology().clone());
    for (od, m) in base.ods().iter().zip(mults) {
        builder = builder.track(od.name.clone(), od.od, od.size * m);
    }
    builder
        .background_loads(&background)
        .theta(base.theta())
        .alpha(base.alpha()[0])
        .build()
        .expect("perturbed task stays valid")
}

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

/// A seeded 24-PoP `ring_with_chords` backbone: 30 ODs between random PoP
/// pairs with heavy-tailed sizes, a gravity background, and θ at 0.2% of
/// the tracked volume — few monitors on at the optimum.
fn backbone_task(seed: u64) -> MeasurementTask {
    let topo = ring_with_chords(24, 12, seed);
    let nodes: Vec<NodeId> = topo.node_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    while pairs.len() < 30 {
        let (s, d) = (
            rng.random_range(0..nodes.len()),
            rng.random_range(0..nodes.len()),
        );
        if s != d && !pairs.contains(&(s, d)) {
            pairs.push((s, d));
        }
    }
    let background =
        DemandMatrix::gravity_capacity_weighted(&topo, 5e7, 0.5, seed ^ 0x6267).link_loads(&topo);
    let mut builder = MeasurementTask::builder(topo);
    let mut total = 0.0;
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let u: f64 = rng.random_range(1e-6..1.0);
        let size = (2_000.0 * u.powf(-1.0 / 1.2)).min(2.0e7);
        total += size;
        builder = builder.track(format!("od{i}"), OdPair::new(nodes[s], nodes[d]), size);
    }
    builder
        .background_loads(&background)
        .theta(total * 0.002)
        .build()
        .expect("backbone task is valid")
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
