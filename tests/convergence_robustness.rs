//! Integration: solver robustness across randomized instances and topologies
//! (a fast cousin of the `convergence` experiment binary).

use nws_core::{solve_placement, MeasurementTask, PlacementConfig};
use nws_routing::{OdPair, Spf};
use nws_topo::random::{gabriel_like, ring_with_chords};
use nws_topo::Topology;
use nws_traffic::demand::DemandMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a task on an arbitrary topology: pick the highest-degree node as
/// ingress, track every other reachable node, gravity background.
fn task_on(topo: Topology, seed: u64, theta_fraction: f64) -> Option<MeasurementTask> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ingress = topo
        .node_ids()
        .max_by_key(|&n| topo.out_links(n).count())
        .expect("non-empty topology");
    let spf = Spf::compute(&topo, ingress);
    let mut sizes = Vec::new();
    for dst in topo.node_ids() {
        if dst == ingress {
            continue;
        }
        if spf.distance(dst).is_some() {
            sizes.push((dst, rng.random_range(10.0..30_000.0) * 300.0));
        }
    }
    if sizes.is_empty() {
        return None;
    }
    let background = DemandMatrix::gravity_capacity_weighted(&topo, 2e8, 0.8, seed ^ 77);
    let bg_loads = background.link_loads(&topo);
    let tracked_total: f64 = sizes.iter().map(|&(_, s)| s).sum();
    let names: Vec<(String, OdPair, f64)> = sizes
        .iter()
        .map(|&(dst, s)| (format!("F{}", dst.index()), OdPair::new(ingress, dst), s))
        .collect();
    let mut builder = MeasurementTask::builder(topo);
    for (name, od, size) in names {
        builder = builder.track(name, od, size);
    }
    builder
        .background_loads(&bg_loads)
        .theta(tracked_total * theta_fraction)
        .build()
        .ok()
}

#[test]
fn solver_converges_on_ring_topologies() {
    for seed in 0..8 {
        let topo = ring_with_chords(12, 6, seed);
        let Some(task) = task_on(topo, seed, 0.05) else {
            continue;
        };
        let sol = solve_placement(&task, &PlacementConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(sol.kkt_verified, "seed {seed}: {:?}", sol.diagnostics);
        let used: f64 = sol.capacity_usage(&task).iter().sum();
        assert!((used / task.theta() - 1.0).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn solver_converges_on_geometric_topologies() {
    for seed in 0..8 {
        let topo = gabriel_like(16, 0.3, seed);
        let Some(task) = task_on(topo, seed + 100, 0.1) else {
            continue;
        };
        let sol = solve_placement(&task, &PlacementConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(sol.kkt_verified, "seed {seed}: {:?}", sol.diagnostics);
        assert!(sol.rates.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}

#[test]
fn extreme_theta_fractions_still_solve() {
    // Tiny budget (0.1% of tracked traffic) and huge budget (approaching
    // the feasibility ceiling) are both handled.
    let topo = ring_with_chords(10, 5, 42);
    let tiny = task_on(topo.clone(), 1, 0.001).unwrap();
    let sol = solve_placement(&tiny, &PlacementConfig::default()).unwrap();
    assert!(sol.kkt_verified);

    let big = task_on(topo, 1, 0.001).unwrap();
    // Raise theta to 90% of the candidate ceiling.
    let ceiling: f64 = big
        .candidate_links()
        .iter()
        .map(|l| big.link_loads()[l.index()])
        .sum();
    let big = big.with_theta(ceiling * 0.9).unwrap();
    let sol = solve_placement(&big, &PlacementConfig::default()).unwrap();
    assert!(sol.kkt_verified, "{:?}", sol.diagnostics);
    // Near the ceiling most monitors saturate at alpha.
    let saturated = sol.rates.iter().filter(|&&p| p > 0.89).count();
    assert!(
        saturated > 0,
        "expected saturated monitors near the ceiling"
    );
}

#[test]
fn objective_monotone_in_theta_on_random_instance() {
    let topo = ring_with_chords(14, 7, 7);
    let base = task_on(topo, 3, 0.01).unwrap();
    let mut last = f64::NEG_INFINITY;
    for mult in [1.0, 2.0, 5.0, 10.0] {
        let task = base.with_theta(base.theta() * mult).unwrap();
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        assert!(sol.objective > last, "objective must rise with theta");
        last = sol.objective;
    }
}
