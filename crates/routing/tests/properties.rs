//! Property-based tests: SPF against a Bellman–Ford oracle, ECMP flow
//! conservation, and routing-matrix invariants (exact, over multi-source OD
//! sets) on random topologies.

use nws_routing::{OdPair, Router, RoutingMatrix, Spf};
use nws_topo::random::{gabriel_like, ring_with_chords};
use nws_topo::{LinkId, NodeId, Topology};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Independent oracle: Bellman–Ford distances from `src`.
fn bellman_ford(topo: &Topology, src: NodeId) -> Vec<f64> {
    let n = topo.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    dist[src.index()] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for l in topo.link_ids() {
            let link = topo.link(l);
            let (u, v) = (link.src().index(), link.dst().index());
            let cand = dist[u] + link.igp_weight();
            if cand < dist[v] - 1e-12 {
                dist[v] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Raw `(src, dst)` draws for [`draw_ods`]: up to a dozen pairs, so an OD
/// set spans several sources.
fn od_pairs() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..64, 0usize..64), 1..12)
}

/// The OD pairs of `pairs` on `topo`: indices taken modulo the node count,
/// self-pairs dropped.
fn draw_ods(topo: &Topology, pairs: &[(usize, usize)]) -> Vec<OdPair> {
    let n = topo.num_nodes();
    pairs
        .iter()
        .map(|&(s, d)| (s % n, d % n))
        .filter(|&(s, d)| s != d)
        .map(|(s, d)| OdPair::new(NodeId::from_index(s), NodeId::from_index(d)))
        .collect()
}

fn random_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (4usize..20, 0usize..12, any::<u64>())
            .prop_map(|(n, chords, seed)| ring_with_chords(n, chords, seed)),
        (4usize..16, any::<u64>()).prop_map(|(n, seed)| gabriel_like(n, 0.35, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spf_matches_bellman_ford(topo in random_topology(), src_raw in 0usize..32) {
        let src = NodeId::from_index(src_raw % topo.num_nodes());
        let spf = Spf::compute(&topo, src);
        let oracle = bellman_ford(&topo, src);
        for v in topo.node_ids() {
            match spf.distance(v) {
                Some(d) => prop_assert!(
                    (d - oracle[v.index()]).abs() < 1e-9,
                    "node {}: spf {d} vs bf {}",
                    topo.node(v).name(),
                    oracle[v.index()]
                ),
                None => prop_assert!(oracle[v.index()].is_infinite()),
            }
        }
    }

    #[test]
    fn extracted_paths_have_matching_cost(topo in random_topology(), seed in any::<u64>()) {
        let src = NodeId::from_index((seed as usize) % topo.num_nodes());
        let router = Router::new(&topo);
        let spf = router.spf(src);
        for dst in topo.node_ids() {
            if let Some(path) = router.path(OdPair::new(src, dst)) {
                // Links are contiguous src -> dst and costs telescope.
                let mut cur = src;
                let mut cost = 0.0;
                for &l in path.links() {
                    prop_assert_eq!(topo.link(l).src(), cur);
                    cur = topo.link(l).dst();
                    cost += topo.link(l).igp_weight();
                }
                prop_assert_eq!(cur, dst);
                prop_assert!((cost - path.cost()).abs() < 1e-9);
                prop_assert!((cost - spf.distance(dst).unwrap()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ecmp_fractions_conserve_unit_flow(topo in random_topology(), seed in any::<u64>()) {
        let n = topo.num_nodes();
        let src = NodeId::from_index((seed as usize) % n);
        let dst = NodeId::from_index(((seed / 7) as usize) % n);
        prop_assume!(src != dst);
        let router = Router::new(&topo);
        let fracs = router.ecmp_fractions(OdPair::new(src, dst));
        prop_assume!(!fracs.is_empty());
        // Net flow: +1 out of src, +1 into dst, conservation elsewhere.
        let mut net = vec![0.0; n];
        for (l, f) in &fracs {
            prop_assert!(*f > 0.0 && *f <= 1.0 + 1e-12);
            net[topo.link(*l).src().index()] += f;
            net[topo.link(*l).dst().index()] -= f;
        }
        for (v, &flow) in net.iter().enumerate() {
            let expect = if v == src.index() {
                1.0
            } else if v == dst.index() {
                -1.0
            } else {
                0.0
            };
            prop_assert!(
                (flow - expect).abs() < 1e-9,
                "node {v}: net {flow} expect {expect}"
            );
        }
    }

    #[test]
    fn routing_matrix_rows_match_ecmp(topo in random_topology(), pairs in od_pairs()) {
        let ods = draw_ods(&topo, &pairs);
        prop_assume!(!ods.is_empty());
        let rm = RoutingMatrix::build(&topo, &ods);
        let router = Router::new(&topo);
        for (k, &od) in ods.iter().enumerate() {
            let fracs = router.ecmp_fractions(od);
            let row = rm.row(k);
            prop_assert_eq!(row.len(), fracs.len());
            for w in row.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "row {k} not strictly ascending");
            }
            for &(_, f) in row {
                prop_assert!(f > 0.0 && f <= 1.0, "row {k}: fraction {f}");
            }
            prop_assert_eq!(rm.links_of_od(k), row.iter().map(|&(l, _)| l).collect::<Vec<_>>());
            // Every cell, on the route or off it, is the ECMP split bit for bit.
            for l in topo.link_ids() {
                let expect = fracs
                    .iter()
                    .find(|&&(fl, _)| fl == l)
                    .map_or(0.0, |&(_, f)| f);
                prop_assert_eq!(rm.entry(k, l).to_bits(), expect.to_bits(), "od {} link {:?}", k, l);
            }
        }
    }

    #[test]
    fn routing_matrix_queries_agree_with_rows(topo in random_topology(), pairs in od_pairs()) {
        let ods = draw_ods(&topo, &pairs);
        let rm = RoutingMatrix::build(&topo, &ods);
        let union: BTreeSet<LinkId> =
            (0..ods.len()).flat_map(|k| rm.links_of_od(k)).collect();
        prop_assert_eq!(rm.covered_links(), union.into_iter().collect::<Vec<_>>());
        for l in topo.link_ids() {
            let on_link = rm.ods_on_link(l);
            for k in 0..ods.len() {
                prop_assert_eq!(
                    on_link.contains(&k),
                    rm.links_of_od(k).contains(&l),
                    "od {} link {:?}", k, l
                );
            }
        }
    }

    #[test]
    fn link_loads_match_manual_accumulation(topo in random_topology(), pairs in od_pairs()) {
        let ods = draw_ods(&topo, &pairs);
        let demands: Vec<f64> =
            (0..ods.len()).map(|i| 100.0 + (i as f64) * 13.7).collect();
        let rm = RoutingMatrix::build(&topo, &ods);
        let loads = rm.link_loads(&demands);
        for l in topo.link_ids() {
            // The OD-ascending sum over every row, zero cells included.
            let manual = (0..ods.len()).fold(0.0, |acc, k| acc + rm.entry(k, l) * demands[k]);
            prop_assert_eq!(loads[l.index()].to_bits(), manual.to_bits(), "link {:?}", l);
        }
    }
}
