//! Integration: topology serialization round-trips preserve routing and
//! optimization results end to end.

use nws_core::scenarios::{janet_task_on, PAPER_THETA};
use nws_core::{solve_placement, PlacementConfig};
use nws_routing::{OdPair, RoutingMatrix, Spf};
use nws_topo::format::{from_text, to_text};
use nws_topo::geant;
use nws_traffic::demand::DemandMatrix;

#[test]
fn routing_identical_after_roundtrip() {
    let original = geant();
    let reparsed = from_text(&to_text(&original)).unwrap();

    let janet_o = original.require_node("JANET").unwrap();
    let janet_r = reparsed.require_node("JANET").unwrap();
    assert_eq!(janet_o, janet_r, "node ids preserved");

    let so = Spf::compute(&original, janet_o);
    let sr = Spf::compute(&reparsed, janet_r);
    for dst in original.node_ids() {
        assert_eq!(so.distance(dst), sr.distance(dst));
        match (so.path_to(&original, dst), sr.path_to(&reparsed, dst)) {
            (Some(a), Some(b)) => assert_eq!(a, b),
            (None, None) => {}
            _ => panic!("reachability differs for {}", original.node(dst).name()),
        }
    }
}

#[test]
fn optimization_identical_after_roundtrip() {
    let original = geant();
    let reparsed = from_text(&to_text(&original)).unwrap();

    let bg_o =
        DemandMatrix::gravity_capacity_weighted(&original, 1e8, 0.5, 9).link_loads(&original);
    let bg_r =
        DemandMatrix::gravity_capacity_weighted(&reparsed, 1e8, 0.5, 9).link_loads(&reparsed);
    assert_eq!(bg_o, bg_r, "deterministic loads preserved");

    let task_o = janet_task_on(original, &bg_o, PAPER_THETA).unwrap();
    let task_r = janet_task_on(reparsed, &bg_r, PAPER_THETA).unwrap();
    let sol_o = solve_placement(&task_o, &PlacementConfig::default()).unwrap();
    let sol_r = solve_placement(&task_r, &PlacementConfig::default()).unwrap();
    assert_eq!(sol_o.rates, sol_r.rates);
    assert_eq!(sol_o.objective, sol_r.objective);
}

#[test]
fn routing_matrix_consistent_with_router_paths() {
    let topo = geant();
    let janet = topo.require_node("JANET").unwrap();
    let ods: Vec<OdPair> = ["NL", "SK", "IL", "PL"]
        .iter()
        .map(|d| OdPair::new(janet, topo.require_node(d).unwrap()))
        .collect();
    let rm = RoutingMatrix::build(&topo, &ods);
    let spf = Spf::compute(&topo, janet);
    for (k, &od) in ods.iter().enumerate() {
        let path = spf.path_to(&topo, od.dst).unwrap();
        for &l in &path {
            assert!(
                rm.traverses(k, l),
                "matrix misses path link {}",
                topo.link_label(l)
            );
        }
        // Unique-path ODs have exactly the path's links in the matrix row.
        if spf.unique_path_to(&topo, od.dst) {
            assert_eq!(rm.links_of_od(k).len(), path.len());
        }
    }
}
