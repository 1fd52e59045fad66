//! Property-based tests: SPF against a Bellman–Ford oracle, ECMP flow
//! conservation, and routing-matrix invariants (exact, over multi-source OD
//! sets) on random topologies. Routing rows and background link loads are
//! pinned bit for bit to a per-pair reference walk on topologies with
//! small-integer weights, where equal-cost splits are common.

use nws_routing::{OdPair, RoutingMatrix, Spf};
use nws_topo::random::{gabriel_like, ring_with_chords};
use nws_topo::{LinkId, LinkKind, NodeId, Topology, TopologyBuilder};
use nws_traffic::demand::DemandMatrix;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Costs within this of each other tie for ECMP, as in `Spf`.
const ECMP_TOL: f64 = 1e-9;

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

/// Small-integer IGP weights: equal-cost paths, and so ECMP splits, are
/// common.
const INTEGER_WEIGHTS: &[f64] = &[1.0, 2.0, 3.0];

/// Integer weights plus links lighter than the ECMP tolerance.
const LIGHT_WEIGHTS: &[f64] = &[1.0, 2.0, 3.0, 1e-10];

/// Random topologies with weights drawn from `weights`: 3–13 nodes and
/// 2–39 fibres, a quarter of them one-way. Nodes no link enters are
/// unreachable from every other node, and one-way links leave more
/// destinations unreachable from some sources.
fn weighted_topology(weights: &'static [f64]) -> impl Strategy<Value = Topology> {
    let fibre = (0usize..64, 0usize..64, 0usize..weights.len(), 0u8..4);
    (3usize..14, proptest::collection::vec(fibre, 2..40)).prop_map(move |(n, fibres)| {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| b.node(format!("N{i}"))).collect();
        let mut present = HashSet::new();
        for (a, z, w, kind) in fibres {
            let (a, z) = (a % n, z % n);
            if a == z {
                continue;
            }
            let one_way = kind == 0;
            for (s, d) in [(a, z), (z, a)]
                .into_iter()
                .take(if one_way { 1 } else { 2 })
            {
                if present.insert((s, d)) {
                    b.link(nodes[s], nodes[d], 100.0, weights[w], LinkKind::Backbone);
                }
            }
        }
        b.build()
            .expect("distinct named nodes and no duplicate links")
    })
}

/// Shortest-path parents from Bellman–Ford distances: the in-links of `v`
/// whose tail lies strictly closer and whose cost ties within the ECMP
/// tolerance, sorted by link id.
fn reference_parents(topo: &Topology, dist: &[f64], v: NodeId) -> Vec<LinkId> {
    let mut ps: Vec<LinkId> = topo
        .in_links(v)
        .filter(|&l| {
            let link = topo.link(l);
            let du = dist[link.src().index()];
            du < dist[v.index()] && (du + link.igp_weight() - dist[v.index()]).abs() <= ECMP_TOL
        })
        .collect();
    ps.sort();
    ps
}

/// The per-pair ECMP walk the routing matrix was first built on, kept as
/// the reference: sort every reachable node by decreasing distance (ties in
/// ascending id), then pass the destination's unit of traffic back over
/// the shortest-path parents, splitting evenly, through two hash maps.
fn reference_fractions(topo: &Topology, dist: &[f64], od: OdPair) -> Vec<(LinkId, f64)> {
    if od.src == od.dst || dist[od.dst.index()].is_infinite() {
        return Vec::new();
    }
    let mut nodes: Vec<NodeId> = topo
        .node_ids()
        .filter(|v| dist[v.index()].is_finite())
        .collect();
    nodes.sort_by(|&a, &b| {
        dist[b.index()]
            .partial_cmp(&dist[a.index()])
            .expect("finite distances")
    });
    let mut node_share: HashMap<NodeId, f64> = HashMap::new();
    node_share.insert(od.dst, 1.0);
    let mut link_frac: HashMap<LinkId, f64> = HashMap::new();
    for v in nodes {
        let share = match node_share.get(&v) {
            Some(&s) if s > 0.0 => s,
            _ => continue,
        };
        if v == od.src {
            continue;
        }
        let parents = reference_parents(topo, dist, v);
        let per = share / parents.len() as f64;
        for l in parents {
            *link_frac.entry(l).or_insert(0.0) += per;
            *node_share.entry(topo.link(l).src()).or_insert(0.0) += per;
        }
    }
    let mut out: Vec<(LinkId, f64)> = link_frac.into_iter().collect();
    out.sort_by_key(|&(l, _)| l);
    out
}

/// Every ordered pair of distinct nodes.
fn all_pairs(topo: &Topology) -> Vec<OdPair> {
    topo.node_ids()
        .flat_map(|s| topo.node_ids().map(move |d| OdPair::new(s, d)))
        .filter(|od| od.src != od.dst)
        .collect()
}

/// Net flow out of each node under `fracs`: a unit route has +1 at its
/// source, −1 at its destination and 0 elsewhere.
fn net_flow(topo: &Topology, fracs: &[(LinkId, f64)]) -> Vec<f64> {
    let mut net = vec![0.0; topo.num_nodes()];
    for &(l, f) in fracs {
        net[topo.link(l).src().index()] += f;
        net[topo.link(l).dst().index()] -= f;
    }
    net
}

fn conserves_unit_flow(topo: &Topology, od: OdPair, fracs: &[(LinkId, f64)]) -> bool {
    net_flow(topo, fracs).iter().enumerate().all(|(v, &flow)| {
        let expect = if v == od.src.index() {
            1.0
        } else if v == od.dst.index() {
            -1.0
        } else {
            0.0
        };
        (flow - expect).abs() < 1e-9
    })
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
        let spf = Spf::compute(&topo, src);
        for dst in topo.node_ids() {
            prop_assert_eq!(spf.path_to(&topo, dst).is_some(), spf.distance(dst).is_some());
            if let Some(path) = spf.path_to(&topo, dst) {
                // Links are contiguous src -> dst and costs telescope.
                let mut cur = src;
                let mut cost = 0.0;
                for &l in &path {
                    prop_assert_eq!(topo.link(l).src(), cur);
                    cur = topo.link(l).dst();
                    cost += topo.link(l).igp_weight();
                }
                prop_assert_eq!(cur, dst);
                prop_assert!((cost - spf.distance(dst).unwrap()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ecmp_fractions_conserve_unit_flow(
        topo in prop_oneof![random_topology(), weighted_topology(LIGHT_WEIGHTS)],
        seed in any::<u64>(),
    ) {
        // Every destination of one source, with some links lighter than
        // the ECMP tolerance on the weighted topologies.
        let src = NodeId::from_index((seed as usize) % topo.num_nodes());
        let spf = Spf::compute(&topo, src);
        let mut share = Vec::new();
        for dst in topo.node_ids() {
            let mut fracs = Vec::new();
            spf.ecmp_split(dst, &mut share, |l, f| fracs.push((l, f)));
            prop_assert_eq!(fracs.is_empty(), dst == src || spf.distance(dst).is_none());
            if fracs.is_empty() {
                continue;
            }
            for &(_, f) in &fracs {
                prop_assert!(f > 0.0 && f <= 1.0 + 1e-12, "fraction {}", f);
            }
            prop_assert!(
                conserves_unit_flow(&topo, OdPair::new(src, dst), &fracs),
                "{:?} -> {:?}: net flow {:?}", src, dst, net_flow(&topo, &fracs)
            );
        }
        prop_assert!(share.iter().all(|&s| s == 0.0), "the walk leaves its scratch zeroed");
    }

    #[test]
    fn routing_matrix_rows_match_ecmp(topo in random_topology(), pairs in od_pairs()) {
        let ods = draw_ods(&topo, &pairs);
        prop_assume!(!ods.is_empty());
        let rm = RoutingMatrix::build(&topo, &ods);
        for (k, &od) in ods.iter().enumerate() {
            let fracs = reference_fractions(&topo, &bellman_ford(&topo, od.src), od);
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

    #[test]
    fn ecmp_rows_match_the_reference_walk_bit_for_bit(topo in weighted_topology(INTEGER_WEIGHTS)) {
        let ods = all_pairs(&topo);
        let rm = RoutingMatrix::build(&topo, &ods);
        let dists: Vec<Vec<f64>> = topo.node_ids().map(|s| bellman_ford(&topo, s)).collect();
        for (k, &od) in ods.iter().enumerate() {
            let expect = reference_fractions(&topo, &dists[od.src.index()], od);
            let row = rm.row(k);
            prop_assert_eq!(row.len(), expect.len(), "od {:?}", od);
            for (&(l, f), &(el, ef)) in row.iter().zip(&expect) {
                prop_assert_eq!(l, el, "od {:?}", od);
                prop_assert_eq!(f.to_bits(), ef.to_bits(), "od {:?} link {:?}", od, l);
            }
            if !row.is_empty() {
                prop_assert!(conserves_unit_flow(&topo, od, row), "od {:?}", od);
            }
        }
    }

    #[test]
    fn background_loads_match_the_reference_walk_bit_for_bit(
        topo in weighted_topology(INTEGER_WEIGHTS),
        draws in proptest::collection::vec((0usize..64, 0usize..64, 1.0f64..1e6), 1..60),
    ) {
        let n = topo.num_nodes();
        let mut dm = DemandMatrix::zeros(n);
        for (s, d, v) in draws {
            let (s, d) = (s % n, d % n);
            if s != d {
                dm.set_demand(NodeId::from_index(s), NodeId::from_index(d), v);
            }
        }
        // The reference adds each f·d by source, then destination, then link.
        let mut expect = vec![0.0; topo.num_links()];
        for od in all_pairs(&topo) {
            let d = dm.demand(od.src, od.dst);
            if d > 0.0 {
                for (l, f) in reference_fractions(&topo, &bellman_ford(&topo, od.src), od) {
                    expect[l.index()] += f * d;
                }
            }
        }
        let loads = dm.link_loads(&topo);
        for l in topo.link_ids() {
            prop_assert_eq!(loads[l.index()].to_bits(), expect[l.index()].to_bits(), "link {:?}", l);
        }
    }
}
