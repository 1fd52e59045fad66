//! Integration: link failure → rerouting → placement staleness → recovery.

use nws_core::scenarios::{
    janet_task, janet_task_on, BACKGROUND_SEED, BACKGROUND_TOTAL_PKTS_PER_SEC, PAPER_THETA,
};
use nws_core::{evaluate_rates, solve_placement, MeasurementTask, PlacementConfig};
use nws_routing::Spf;
use nws_topo::{LinkId, Topology, TopologyBuilder};
use nws_traffic::demand::DemandMatrix;
use nws_traffic::MEASUREMENT_INTERVAL_SECS;

/// The post-cut JANET task on `topo`, with a capacity-weighted gravity
/// background routed on it (as the `reroute` experiment builds it).
fn janet_task_after_cut(topo: Topology) -> Result<MeasurementTask, nws_core::CoreError> {
    let bg = DemandMatrix::gravity_capacity_weighted(
        &topo,
        BACKGROUND_TOTAL_PKTS_PER_SEC * MEASUREMENT_INTERVAL_SECS,
        0.5,
        BACKGROUND_SEED,
    );
    let bg_loads = bg.link_loads(&topo);
    janet_task_on(topo, &bg_loads, PAPER_THETA)
}

/// Rebuilds the post-failure JANET task after cutting the fibre between two
/// named PoPs; returns the task, whose link ids are the uncut topology's,
/// and the pre-failure optimum whose rates a static deployment keeps.
fn fail(a: &str, b: &str) -> (MeasurementTask, nws_core::PlacementSolution) {
    let before = janet_task();
    let sol = solve_placement(&before, &PlacementConfig::default()).unwrap();
    let topo: &Topology = before.topology();
    let na = topo.require_node(a).unwrap();
    let nb = topo.require_node(b).unwrap();
    let cut = topo.bidirectional_pair(na, nb);
    assert_eq!(cut.len(), 2, "fibre has both directions");
    let after = janet_task_after_cut(topo.without_links(&cut)).unwrap();
    (after, sol)
}

#[test]
fn fr_lu_cut_blinds_stale_config_on_lu() {
    let (after, pre) = fail("FR", "LU");
    let stale = evaluate_rates(&after, &pre.rates);
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
    let (after, pre) = fail("FR", "LU");
    let stale = evaluate_rates(&after, &pre.rates);
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
    let topo2 = topo.without_links(&topo.bidirectional_pair(fr, lu));
    let janet = topo2.require_node("JANET").unwrap();
    let path = Spf::compute(&topo2, janet).path_to(&topo2, lu).unwrap();
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
    let (after, pre) = fail("HU", "SK");
    let stale = evaluate_rates(&after, &pre.rates);
    assert!(
        (stale.objective - pre.objective).abs() < 0.15,
        "objective moved too much: {} vs {}",
        stale.objective,
        pre.objective
    );
}

/// The renumbering model of a cut, kept as a reference: the survivors of
/// `cut` in a fresh topology with consecutive link ids.
fn compacted(topo: &Topology, cut: &[LinkId]) -> Topology {
    let mut b = TopologyBuilder::new();
    for n in topo.node_ids() {
        let node = topo.node(n);
        if node.is_external() {
            b.external_node(node.name());
        } else {
            b.node(node.name());
        }
    }
    for l in topo.link_ids().filter(|l| !cut.contains(l)) {
        let k = topo.link(l);
        b.link(
            k.src(),
            k.dst(),
            k.capacity_mbps(),
            k.igp_weight(),
            k.kind(),
        );
    }
    b.build().unwrap()
}

#[test]
fn a_cut_routed_in_base_ids_solves_as_the_renumbered_survivor_graph() {
    let base = janet_task();
    let topo = base.topology();
    let cfg = PlacementConfig::default();
    let mut fibres: Vec<Vec<LinkId>> = Vec::new();
    for l in topo.link_ids() {
        let k = topo.link(l);
        let mut cut = topo.bidirectional_pair(k.src(), k.dst());
        cut.sort();
        if !fibres.contains(&cut) {
            fibres.push(cut);
        }
    }
    assert_eq!(
        fibres.len(),
        37,
        "GEANT's fibres, JANET's access link included"
    );
    let (mut solved, mut stranded) = (0, 0);
    for cut in &fibres {
        let fibre = topo.link_label(cut[0]);
        let kept = janet_task_after_cut(topo.without_links(cut));
        let reference = janet_task_after_cut(compacted(topo, cut));
        let (kept, reference) = match (kept, reference) {
            (Ok(kept), Ok(reference)) => (kept, reference),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "cut {fibre}");
                stranded += 1;
                continue;
            }
            (a, b) => panic!("cut {fibre}: {:?} vs {:?}", a.err(), b.err()),
        };
        let r = reference.topology();
        let label = |t: &Topology, ls: &[LinkId]| -> Vec<String> {
            ls.iter().map(|&l| t.link_label(l)).collect()
        };
        assert_eq!(
            label(topo, kept.candidate_links()),
            label(r, reference.candidate_links()),
            "cut {fibre}"
        );
        let got = solve_placement(&kept, &cfg).unwrap();
        let want = solve_placement(&reference, &cfg).unwrap();
        assert_eq!(
            got.objective.to_bits(),
            want.objective.to_bits(),
            "cut {fibre}"
        );
        assert_eq!(
            got.diagnostics.iterations, want.diagnostics.iterations,
            "cut {fibre}"
        );
        assert_eq!(got.rates.len(), topo.num_links());
        for l in topo.link_ids() {
            // The same link on the reference topology; a cut link has none
            // there, and carries no load and no monitor here.
            let ends = topo.link(l);
            let (load, rate) = match r.link_between(ends.src(), ends.dst()) {
                Some(rl) => (reference.link_loads()[rl.index()], want.rates[rl.index()]),
                None => (0.0, 0.0),
            };
            let link = topo.link_label(l);
            assert_eq!(
                cut.contains(&l),
                r.link_between(ends.src(), ends.dst()).is_none()
            );
            assert_eq!(
                kept.link_loads()[l.index()].to_bits(),
                load.to_bits(),
                "cut {fibre}, {link}"
            );
            assert_eq!(
                got.rates[l.index()].to_bits(),
                rate.to_bits(),
                "cut {fibre}, {link}"
            );
        }
        solved += 1;
    }
    assert_eq!((solved, stranded), (35, 2));
}
