//! Single-source shortest-path-first computation (Dijkstra) over IGP weights,
//! and the ECMP walk that splits one unit of traffic over the resulting DAG.

use nws_topo::{LinkId, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Absolute tolerance when deciding that two path costs are "equal" for ECMP
/// purposes: costs that differ by at most `ECMP_TOL` tie, whatever their
/// size. IGP metrics are small integers in practice, so exact comparison
/// would usually do; the tolerance guards against accumulated float error on
/// long paths with fractional weights.
const ECMP_TOL: f64 = 1e-9;

/// An unreached node's rank, and the end of a tentative parent list.
const NONE: u32 = u32::MAX;

/// The shortest-path-first tree (more precisely, DAG) from one source node.
///
/// Retains, for every destination, the distance and *all* incoming links
/// that lie on some shortest path — the information an IS-IS router holds
/// after SPF, sufficient for unique-path extraction and ECMP splitting.
///
/// The reached nodes are ranked in *walk order*: decreasing distance, ties
/// in ascending node id. Every parent lies strictly closer to the source
/// than its child, so a walk in rank order finishes a node before any of
/// its parents.
#[derive(Debug, Clone)]
pub struct Spf {
    source: NodeId,
    dist: Vec<f64>,
    /// Each node's position in walk order; [`NONE`] if unreachable.
    rank: Vec<u32>,
    /// The parents of the node ranked `r` are
    /// `parent_links[parent_offsets[r]..parent_offsets[r + 1]]`, sorted by
    /// link id for deterministic tie-breaks.
    parent_offsets: Vec<u32>,
    parent_links: Vec<LinkId>,
    /// The rank of each parent link's tail node, parallel to `parent_links`.
    parent_tails: Vec<u32>,
}

impl Spf {
    /// Runs Dijkstra from `source` over the topology's IGP weights.
    pub fn compute(topo: &Topology, source: NodeId) -> Spf {
        let n = topo.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        // Tentative parent lists, linked through `cells` from `head`: a
        // strictly shorter path restarts a node's list, an equal-cost one
        // extends it. A list is final once its node settles.
        let mut head = vec![NONE; n];
        let mut cells: Vec<(LinkId, u32)> = Vec::with_capacity(n);
        let mut settled = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // A non-negative f64 orders like its bit pattern, so the heap pops
        // (distance, node) in ascending order: equal distances settle in
        // ascending node id.
        let mut heap = BinaryHeap::new();

        dist[source.index()] = 0.0;
        heap.push(Reverse((0f64.to_bits(), source.index() as u32)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let u = u as usize;
            if settled[u] {
                continue;
            }
            settled[u] = true;
            order.push(u);
            let d = f64::from_bits(bits);
            for l in topo.out_links(NodeId::from_index(u)) {
                let link = topo.link(l);
                let v = link.dst().index();
                let nd = d + link.igp_weight();
                if nd < dist[v] - ECMP_TOL {
                    dist[v] = nd;
                    cells.push((l, NONE));
                    head[v] = (cells.len() - 1) as u32;
                    heap.push(Reverse((nd.to_bits(), v as u32)));
                } else if (nd - dist[v]).abs() <= ECMP_TOL && d < dist[v] {
                    // Equal-cost alternative; record it for the ECMP DAG. A
                    // parent must lie strictly closer than its child, or
                    // the walk would pass it a share after finishing it.
                    cells.push((l, head[v]));
                    head[v] = (cells.len() - 1) as u32;
                }
            }
        }

        // Walk order: the settle order reversed, with each run of equal
        // distances flipped back to ascending node id.
        order.reverse();
        for run in order.chunk_by_mut(|&a, &b| dist[a] == dist[b]) {
            run.reverse();
        }
        let mut rank = vec![NONE; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v] = r as u32;
        }
        let mut parent_offsets = Vec::with_capacity(order.len() + 1);
        let mut parent_links = Vec::with_capacity(cells.len());
        parent_offsets.push(0);
        for &v in &order {
            let start = parent_links.len();
            let mut cell = head[v];
            while cell != NONE {
                let (l, next) = cells[cell as usize];
                parent_links.push(l);
                cell = next;
            }
            parent_links[start..].sort_unstable();
            parent_offsets.push(parent_links.len() as u32);
        }
        let parent_tails = parent_links
            .iter()
            .map(|&l| rank[topo.link(l).src().index()])
            .collect();
        Spf {
            source,
            dist,
            rank,
            parent_offsets,
            parent_links,
            parent_tails,
        }
    }

    /// The source node this SPF was computed from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `node`; `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// The positions of the parent links of the node ranked `r`.
    fn parent_range(&self, r: usize) -> std::ops::Range<usize> {
        self.parent_offsets[r] as usize..self.parent_offsets[r + 1] as usize
    }

    /// All incoming links of `node` that lie on a shortest path from the
    /// source (empty for the source itself and for unreachable nodes),
    /// sorted by link id.
    pub fn shortest_path_parents(&self, node: NodeId) -> &[LinkId] {
        match self.rank[node.index()] {
            NONE => &[],
            r => &self.parent_links[self.parent_range(r as usize)],
        }
    }

    /// True if the shortest path from the source to `node` is unique
    /// (no equal-cost alternatives anywhere along the way).
    pub fn unique_path_to(&self, topo: &Topology, node: NodeId) -> bool {
        if self.distance(node).is_none() {
            return false;
        }
        let mut cur = node;
        while cur != self.source {
            let ps = self.shortest_path_parents(cur);
            if ps.len() != 1 {
                return false;
            }
            cur = topo.link(ps[0]).src();
        }
        true
    }

    /// Extracts the lowest-link-id shortest path from the source to `node`.
    /// Returns the link sequence source→node; `None` if unreachable.
    pub fn path_to(&self, topo: &Topology, node: NodeId) -> Option<Vec<LinkId>> {
        self.distance(node)?;
        let mut rev = Vec::new();
        let mut cur = node;
        while cur != self.source {
            // Deterministic tie-break: parents are sorted by link id.
            let l = *self.shortest_path_parents(cur).first()?;
            rev.push(l);
            cur = topo.link(l).src();
        }
        rev.reverse();
        Some(rev)
    }

    /// Splits one unit of traffic from the source to `dst` evenly over the
    /// equal-cost next hops at every node (OSPF/IS-IS ECMP) and calls
    /// `visit(link, fraction)` once for each link that carries part of it,
    /// with the fraction in `(0, 1]`; unique paths yield all-1 fractions.
    /// Visits nothing if `dst` is the source or unreachable.
    ///
    /// The walk starts at `dst` and visits nodes in walk order, so a node's
    /// share is complete before it splits it over its parents; links come
    /// in that order, not sorted. `share` is scratch for the nodes' shares:
    /// pass the same vector to every call, from any source — it may start
    /// empty, and each walk leaves it all zero.
    pub fn ecmp_split(
        &self,
        dst: NodeId,
        share: &mut Vec<f64>,
        mut visit: impl FnMut(LinkId, f64),
    ) {
        let start = self.rank[dst.index()];
        if start == NONE {
            return;
        }
        // The source is the only node at distance 0, so it ranks last.
        let source = self.rank[self.source.index()] as usize;
        if share.len() <= source {
            share.resize(source + 1, 0.0);
        }
        share[start as usize] = 1.0;
        for r in start as usize..source {
            let s = std::mem::take(&mut share[r]);
            if s > 0.0 {
                let parents = self.parent_range(r);
                let per = s / parents.len() as f64;
                for i in parents {
                    visit(self.parent_links[i], per);
                    share[self.parent_tails[i] as usize] += per;
                }
            }
        }
        share[source] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_topo::{geant, LinkKind, TopologyBuilder};

    /// Diamond with unequal arms: A->B->D costs 2, A->C->D costs 3.
    fn diamond_unequal() -> (Topology, [NodeId; 4]) {
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        let d = b.node("D");
        b.link(a, bb, 100.0, 1.0, LinkKind::Backbone);
        b.link(bb, d, 100.0, 1.0, LinkKind::Backbone);
        b.link(a, c, 100.0, 1.0, LinkKind::Backbone);
        b.link(c, d, 100.0, 2.0, LinkKind::Backbone);
        (b.build().unwrap(), [a, bb, c, d])
    }

    /// Diamond with equal arms (ECMP): both A->B->D and A->C->D cost 2.
    fn diamond_equal() -> (Topology, [NodeId; 4]) {
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        let d = b.node("D");
        b.link(a, bb, 100.0, 1.0, LinkKind::Backbone);
        b.link(bb, d, 100.0, 1.0, LinkKind::Backbone);
        b.link(a, c, 100.0, 1.0, LinkKind::Backbone);
        b.link(c, d, 100.0, 1.0, LinkKind::Backbone);
        (b.build().unwrap(), [a, bb, c, d])
    }

    /// The ECMP split from `src` to `dst`, in link order.
    fn fractions(t: &Topology, src: NodeId, dst: NodeId) -> Vec<(LinkId, f64)> {
        let mut out = Vec::new();
        Spf::compute(t, src).ecmp_split(dst, &mut Vec::new(), |l, f| out.push((l, f)));
        out.sort_by_key(|&(l, _)| l);
        out
    }

    /// Net flow out of each node under `fracs`.
    fn net_flow(t: &Topology, fracs: &[(LinkId, f64)]) -> Vec<f64> {
        let mut net = vec![0.0; t.num_nodes()];
        for &(l, f) in fracs {
            net[t.link(l).src().index()] += f;
            net[t.link(l).dst().index()] -= f;
        }
        net
    }

    #[test]
    fn distances_and_unique_path() {
        let (t, [a, bb, c, d]) = diamond_unequal();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.distance(a), Some(0.0));
        assert_eq!(spf.distance(bb), Some(1.0));
        assert_eq!(spf.distance(c), Some(1.0));
        assert_eq!(spf.distance(d), Some(2.0));
        assert!(spf.unique_path_to(&t, d));
        let p = spf.path_to(&t, d).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(t.link(p[0]).dst(), bb);
    }

    #[test]
    fn ecmp_detected() {
        let (t, [a, _, _, d]) = diamond_equal();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.shortest_path_parents(d).len(), 2);
        assert!(!spf.unique_path_to(&t, d));
        // path_to still returns a deterministic representative.
        let p = spf.path_to(&t, d).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn unreachable_nodes() {
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let z = b.node("Z");
        let w = b.node("W");
        b.link(a, z, 100.0, 1.0, LinkKind::Backbone); // w has no incoming links
        b.link(w, a, 100.0, 1.0, LinkKind::Backbone);
        let t = b.build().unwrap();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.distance(w), None);
        assert!(spf.path_to(&t, w).is_none());
        assert!(!spf.unique_path_to(&t, w));
        assert!(spf.shortest_path_parents(w).is_empty());
        assert_eq!(spf.distance(z), Some(1.0));
    }

    #[test]
    fn source_path_is_empty() {
        let (t, [a, ..]) = diamond_unequal();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.path_to(&t, a), Some(vec![]));
        assert!(spf.unique_path_to(&t, a));
    }

    #[test]
    fn respects_weights_not_hop_count() {
        // A->B direct cost 10, A->C->B cost 2+3 = 5: longer hop path wins.
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        b.link(a, bb, 100.0, 10.0, LinkKind::Backbone);
        b.link(a, c, 100.0, 2.0, LinkKind::Backbone);
        b.link(c, bb, 100.0, 3.0, LinkKind::Backbone);
        let t = b.build().unwrap();
        let spf = Spf::compute(&t, a);
        assert_eq!(spf.distance(bb), Some(5.0));
        assert_eq!(spf.path_to(&t, bb).unwrap().len(), 2);
    }

    #[test]
    fn geant_uk_paths_match_design() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let spf = Spf::compute(&t, uk);
        let expect = [
            ("FR", 5.0),
            ("NL", 5.0),
            ("NY", 5.0),
            ("SE", 10.0),
            ("PT", 10.0),
            ("CH", 10.0),
            ("DE", 10.0),
            ("BE", 15.0),
            ("ES", 15.0),
            ("AT", 20.0),
            ("CZ", 20.0),
            ("PL", 20.0),
            ("IT", 20.0),
            ("IE", 20.0),
            ("LU", 25.0),
            ("SK", 35.0),
            ("HU", 35.0),
            ("SI", 35.0),
            ("GR", 40.0),
            ("IL", 45.0),
            ("HR", 45.0),
        ];
        for (name, d) in expect {
            let n = t.require_node(name).unwrap();
            assert_eq!(spf.distance(n), Some(d), "distance UK->{name}");
            assert!(spf.unique_path_to(&t, n), "UK->{name} should be ECMP-free");
        }
    }

    #[test]
    fn uk_to_lu_path_and_cost() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let lu = t.require_node("LU").unwrap();
        let p = Spf::compute(&t, uk).path_to(&t, lu).unwrap();
        // The path's links telescope to its distance: UK -> FR -> LU.
        let labels: Vec<String> = p.iter().map(|&l| t.link_label(l)).collect();
        assert_eq!(labels, ["UK-FR", "FR-LU"]);
        let cost: f64 = p.iter().map(|&l| t.link(l).igp_weight()).sum();
        assert_eq!(cost, 25.0);
        // A second computation yields the identical path.
        assert_eq!(Spf::compute(&t, uk).path_to(&t, lu), Some(p));
    }

    #[test]
    fn unique_path_fractions_are_one() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let il = t.require_node("IL").unwrap();
        let spf = Spf::compute(&t, uk);
        assert!(spf.unique_path_to(&t, il));
        let fr = fractions(&t, uk, il);
        let p = spf.path_to(&t, il).unwrap();
        assert_eq!(fr.len(), p.len());
        for (l, f) in fr {
            assert!(p.contains(&l));
            assert_eq!(f, 1.0);
        }
    }

    #[test]
    fn ecmp_splits_evenly() {
        // Equal-cost diamond: each arm carries 1/2.
        let (t, [a, _, _, d]) = diamond_equal();
        let fr = fractions(&t, a, d);
        assert_eq!(fr.len(), 4);
        for (_, f) in fr {
            assert_eq!(f, 0.5);
        }
    }

    #[test]
    fn ecmp_conserves_flow() {
        // Three-level graph with mixed ECMP: total out of source == 1 and
        // total into destination == 1.
        let mut b = TopologyBuilder::new();
        let s = b.node("S");
        let m1 = b.node("M1");
        let m2 = b.node("M2");
        let m3 = b.node("M3");
        let d = b.node("D");
        b.link(s, m1, 100.0, 1.0, LinkKind::Backbone);
        b.link(s, m2, 100.0, 1.0, LinkKind::Backbone);
        b.link(s, m3, 100.0, 1.0, LinkKind::Backbone);
        b.link(m1, d, 100.0, 2.0, LinkKind::Backbone);
        b.link(m2, d, 100.0, 2.0, LinkKind::Backbone);
        b.link(m3, d, 100.0, 2.0, LinkKind::Backbone);
        let t = b.build().unwrap();
        let fr = fractions(&t, s, d);
        let net = net_flow(&t, &fr);
        assert!((net[s.index()] - 1.0).abs() < 1e-12);
        assert!((net[d.index()] + 1.0).abs() < 1e-12);
        for (_, f) in fr {
            assert!((f - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn self_od_and_unreachable() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        assert!(fractions(&t, uk, uk).is_empty());
        let spf = Spf::compute(&t, uk);
        assert_eq!(spf.path_to(&t, uk), Some(vec![]));
        assert_eq!(spf.distance(uk), Some(0.0));

        let (t, [a, ..]) = diamond_equal();
        // Nothing reaches A in the diamond.
        for v in t.node_ids().filter(|&v| v != a) {
            assert!(fractions(&t, v, a).is_empty());
        }
    }

    #[test]
    fn geant_all_pairs_reachable() {
        let t = geant();
        for s in t.node_ids() {
            let spf = Spf::compute(&t, s);
            for d in t.node_ids() {
                assert!(
                    spf.path_to(&t, d).is_some(),
                    "{} -> {} unreachable",
                    t.node(s).name(),
                    t.node(d).name()
                );
            }
        }
    }

    #[test]
    fn link_lighter_than_tolerance_does_not_leak_flow() {
        // A->C costs 4e-10 more than A->B, and C->B weighs 1e-10: A->C->B
        // lands within ECMP_TOL of A->B, but C settles after B. Taking
        // C-B as a parent of B would send half of B's unit back to C after
        // C was finished, so only half of it would leave A.
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        let ab = b.link(a, bb, 100.0, 1.0, LinkKind::Backbone);
        b.link(a, c, 100.0, 1.0 + 4e-10, LinkKind::Backbone);
        b.link(c, bb, 100.0, 1e-10, LinkKind::Backbone);
        let t = b.build().unwrap();
        assert_eq!(Spf::compute(&t, a).shortest_path_parents(bb), [ab]);
        let fr = fractions(&t, a, bb);
        assert_eq!(fr, [(ab, 1.0)]);
        let net = net_flow(&t, &fr);
        assert_eq!(net[a.index()], 1.0);
        assert_eq!(net[bb.index()], -1.0);
    }

    #[test]
    fn ecmp_tolerance_is_absolute() {
        // Arms of cost 2000: a relative 1e-9 would tie anything within
        // 2e-6, the absolute tolerance only costs within 1e-9.
        let arms = |extra: f64| {
            let mut b = TopologyBuilder::new();
            let a = b.node("A");
            let x = b.node("X");
            let y = b.node("Y");
            let d = b.node("D");
            b.link(a, x, 100.0, 1000.0, LinkKind::Backbone);
            b.link(x, d, 100.0, 1000.0, LinkKind::Backbone);
            b.link(a, y, 100.0, 1000.0, LinkKind::Backbone);
            b.link(y, d, 100.0, 1000.0 + extra, LinkKind::Backbone);
            let t = b.build().unwrap();
            Spf::compute(&t, a).shortest_path_parents(d).len()
        };
        assert_eq!(arms(5e-10), 2, "costs 5e-10 apart split");
        assert_eq!(arms(2e-9), 1, "costs 2e-9 apart do not");
    }

    #[test]
    fn equal_distance_nodes_pass_shares_in_ascending_id_order() {
        // D splits over B5, B6 and B7 (distance 2), which all hand A1 a
        // share. A1 sums them in ascending node id, and that order shows in
        // the last bit: descending id would sum to 0.38888888888888884.
        let mut b = TopologyBuilder::new();
        let s = b.node("S");
        let a: Vec<NodeId> = ["A1", "A2", "A3"].iter().map(|n| b.node(*n)).collect();
        let mid: Vec<NodeId> = ["B5", "B6", "B7"].iter().map(|n| b.node(*n)).collect();
        let d = b.node("D");
        let s_a1 = b.link(s, a[0], 100.0, 1.0, LinkKind::Backbone);
        for &x in &a[1..] {
            b.link(s, x, 100.0, 1.0, LinkKind::Backbone);
        }
        for (i, &m) in mid.iter().enumerate() {
            // B5 hangs off A1 and A2; B6 and B7 off all three.
            for &x in &a[..if i == 0 { 2 } else { 3 }] {
                b.link(x, m, 100.0, 1.0, LinkKind::Backbone);
            }
            b.link(m, d, 100.0, 1.0, LinkKind::Backbone);
        }
        let t = b.build().unwrap();
        let per: f64 = 1.0 / 3.0;
        let ascending = per / 2.0 + per / 3.0 + per / 3.0;
        let descending = per / 3.0 + per / 3.0 + per / 2.0;
        assert_ne!(ascending, descending);
        let fr = fractions(&t, s, d);
        let f = fr.iter().find(|&&(l, _)| l == s_a1).unwrap().1;
        assert_eq!(f.to_bits(), ascending.to_bits());
    }

    /// The lowest-link-id shortest path from `src` to `dst` as link labels,
    /// with its cost; `None` if `dst` is unreachable.
    fn route(t: &Topology, src: NodeId, dst: NodeId) -> Option<(Vec<String>, f64)> {
        let spf = Spf::compute(t, src);
        let links = spf.path_to(t, dst)?;
        let labels = links.iter().map(|&l| t.link_label(l)).collect();
        Some((labels, spf.distance(dst)?))
    }

    #[test]
    fn failing_uk_se_reroutes_pl() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let se = t.require_node("SE").unwrap();
        let pl = t.require_node("PL").unwrap();
        let janet = t.require_node("JANET").unwrap();

        // Before: JANET->PL via UK-SE-PL.
        let (before, before_cost) = route(&t, janet, pl).unwrap();
        assert_eq!(before, ["JANET-UK", "UK-SE", "SE-PL"]);

        // Cut the UK<->SE fibre: PL stays reachable, but not via the cut.
        let cut = t.bidirectional_pair(uk, se);
        assert_eq!(cut.len(), 2);
        let t2 = t.without_links(&cut);
        let (after, after_cost) = route(&t2, janet, pl).unwrap();
        assert!(after_cost > before_cost);
        assert!(
            !after.iter().any(|l| l == "UK-SE"),
            "rerouted path still uses the cut fibre: {after:?}"
        );
    }

    #[test]
    fn disconnected_survivor_graph_degrades_gracefully() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let ie = t.require_node("IE").unwrap();
        let janet = t.require_node("JANET").unwrap();
        // IE is single-homed to UK; cutting the fibre splits the graph into
        // a 22-node component and an isolated {IE}.
        let t2 = t.without_links(&t.bidirectional_pair(uk, ie));
        assert!(t2.validate_connected().is_err());

        // Routing degrades per destination rather than failing wholesale:
        // IE is unreachable from every other node ...
        for src in t2.node_ids().filter(|&n| n != ie) {
            assert!(
                route(&t2, src, ie).is_none(),
                "{} should not reach isolated IE",
                t2.node(src).name()
            );
        }
        // ... the isolated island cannot reach out ...
        assert!(route(&t2, ie, janet).is_none());
        // ... and every destination in the main component stays reachable.
        for dst in t2.node_ids().filter(|&n| n != ie && n != janet) {
            assert!(
                route(&t2, janet, dst).is_some(),
                "JANET lost {} although it is in the surviving component",
                t2.node(dst).name()
            );
        }
    }

    #[test]
    fn isolating_a_node_yields_unreachable_not_error() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let ie = t.require_node("IE").unwrap();
        let janet = t.require_node("JANET").unwrap();
        // IE is single-homed to UK; cutting the fibre isolates it.
        let t2 = t.without_links(&t.bidirectional_pair(uk, ie));
        let spf = Spf::compute(&t2, janet);
        assert_eq!(spf.distance(ie), None);
        assert!(spf.path_to(&t2, ie).is_none());
    }
}
