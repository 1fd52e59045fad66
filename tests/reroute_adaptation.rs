//! Integration: link failure → rerouting → placement staleness → recovery.

use nws_core::scenarios::{
    janet_task, janet_task_on, BACKGROUND_SEED, BACKGROUND_TOTAL_PKTS_PER_SEC, PAPER_THETA,
};
use nws_core::{evaluate_rates, solve_placement, PlacementConfig};
use nws_routing::failure::{bidirectional_pair, link_id_map, without_links};
use nws_routing::Spf;
use nws_topo::Topology;
use nws_traffic::demand::DemandMatrix;
use nws_traffic::MEASUREMENT_INTERVAL_SECS;

/// Rebuilds the post-failure JANET task after cutting the fibre between two
/// named PoPs; returns the task plus the stale rate vector carried over.
fn fail_and_carry_over(
    a: &str,
    b: &str,
) -> (
    nws_core::MeasurementTask,
    Vec<f64>,
    nws_core::PlacementSolution,
) {
    let before = janet_task();
    let sol = solve_placement(&before, &PlacementConfig::default()).unwrap();
    let topo: &Topology = before.topology();
    let na = topo.require_node(a).unwrap();
    let nb = topo.require_node(b).unwrap();
    let failed = bidirectional_pair(topo, na, nb);
    assert_eq!(failed.len(), 2, "fibre has both directions");
    let topo2 = without_links(topo, &failed).unwrap();
    let idmap = link_id_map(topo, &failed);

    let bg = DemandMatrix::gravity_capacity_weighted(
        &topo2,
        BACKGROUND_TOTAL_PKTS_PER_SEC * MEASUREMENT_INTERVAL_SECS,
        0.5,
        BACKGROUND_SEED,
    );
    let bg_loads = bg.link_loads(&topo2);
    let after = janet_task_on(topo2, &bg_loads, PAPER_THETA).unwrap();

    let mut stale = vec![0.0; after.topology().num_links()];
    for (old, new) in idmap.iter().enumerate() {
        if let Some(new) = new {
            stale[new.index()] = sol.rates[old];
        }
    }
    (after, stale, sol)
}

#[test]
fn fr_lu_cut_blinds_stale_config_on_lu() {
    let (after, stale_rates, _) = fail_and_carry_over("FR", "LU");
    let stale = evaluate_rates(&after, &stale_rates);
    let lu = after
        .ods()
        .iter()
        .position(|o| o.name == "JANET-LU")
        .unwrap();
    // The stale config sees LU only through the low-rate core monitors.
    assert!(
        stale.effective_rates_approx[lu] < 5e-4,
        "stale LU rate {} should have collapsed",
        stale.effective_rates_approx[lu]
    );
    assert!(
        stale.utilities[lu] < 0.5,
        "stale LU utility {}",
        stale.utilities[lu]
    );
}

#[test]
fn reoptimization_restores_lu() {
    let (after, stale_rates, pre) = fail_and_carry_over("FR", "LU");
    let stale = evaluate_rates(&after, &stale_rates);
    let reopt = solve_placement(&after, &PlacementConfig::default()).unwrap();
    let lu = after
        .ods()
        .iter()
        .position(|o| o.name == "JANET-LU")
        .unwrap();
    assert!(
        reopt.utilities[lu] > 0.95,
        "re-optimized LU utility {}",
        reopt.utilities[lu]
    );
    assert!(reopt.objective > stale.objective);
    // Back to (or above) the pre-failure level: the network still has a
    // quiet link into LU (DE-LU).
    assert!(reopt.objective > pre.objective - 0.05);
}

#[test]
fn rerouting_changes_paths_deterministically() {
    let before = janet_task();
    let topo = before.topology();
    let fr = topo.require_node("FR").unwrap();
    let lu = topo.require_node("LU").unwrap();
    let failed = bidirectional_pair(topo, fr, lu);
    let topo2 = without_links(topo, &failed).unwrap();
    let janet = topo2.require_node("JANET").unwrap();
    let lu2 = topo2.require_node("LU").unwrap();
    let path = Spf::compute(&topo2, janet).path_to(&topo2, lu2).unwrap();
    let labels: Vec<String> = path.iter().map(|&l| topo2.link_label(l)).collect();
    assert!(
        labels.iter().any(|l| l == "DE-LU"),
        "expected detour via DE, got {labels:?}"
    );
}

#[test]
fn cutting_an_unused_link_changes_little() {
    // Failing a fibre that carries no tracked traffic barely moves the
    // objective (background shifts only).
    let (after, stale_rates, pre) = fail_and_carry_over("HU", "SK");
    let stale = evaluate_rates(&after, &stale_rates);
    assert!(
        (stale.objective - pre.objective).abs() < 0.15,
        "objective moved too much: {} vs {}",
        stale.objective,
        pre.objective
    );
}
