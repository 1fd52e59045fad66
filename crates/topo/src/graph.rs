//! The immutable topology graph.

use crate::{Link, LinkId, Node, NodeId, Result, TopologyError};
use std::collections::HashMap;

/// An immutable directed multigraph of PoP nodes and unidirectional links.
///
/// Built via [`crate::TopologyBuilder`]; once built, a `Topology` is
/// immutable and cheap to share. Adjacency (outgoing / incoming link lists)
/// is precomputed, and nodes can be looked up by name.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    by_name: HashMap<String, NodeId>,
    out_adj: Vec<Vec<LinkId>>,
    in_adj: Vec<Vec<LinkId>>,
}

impl Topology {
    /// Assembles a topology from parts. Used by the builder; validates name
    /// uniqueness and link endpoints.
    pub(crate) fn assemble(nodes: Vec<Node>, links: Vec<Link>) -> Result<Topology> {
        if nodes.is_empty() {
            return Err(TopologyError::Empty);
        }
        let mut by_name = HashMap::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            if by_name
                .insert(n.name().to_string(), NodeId(i as u32))
                .is_some()
            {
                return Err(TopologyError::DuplicateNodeName(n.name().to_string()));
            }
        }
        let mut out_adj = vec![Vec::new(); nodes.len()];
        let mut in_adj = vec![Vec::new(); nodes.len()];
        let mut seen_pairs = HashMap::new();
        for (i, l) in links.iter().enumerate() {
            let id = LinkId(i as u32);
            if seen_pairs.insert((l.src(), l.dst()), id).is_some() {
                return Err(TopologyError::DuplicateLink {
                    src: nodes[l.src().index()].name().to_string(),
                    dst: nodes[l.dst().index()].name().to_string(),
                });
            }
            out_adj[l.src().index()].push(id);
            in_adj[l.dst().index()].push(id);
        }
        Ok(Topology {
            nodes,
            links,
            by_name,
            out_adj,
            in_adj,
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of unidirectional links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Node metadata by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids from a different topology).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link metadata by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids from a different topology).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Like [`Topology::node_by_name`] but returns a typed error; convenient
    /// in parsing and task-definition code.
    pub fn require_node(&self, name: &str) -> Result<NodeId> {
        self.node_by_name(name)
            .ok_or_else(|| TopologyError::UnknownNode(name.to_string()))
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Iterator over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(|i| LinkId(i as u32))
    }

    /// Outgoing links of `node`.
    pub fn out_links(&self, node: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        self.out_adj[node.index()].iter().copied()
    }

    /// Incoming links of `node`.
    pub fn in_links(&self, node: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        self.in_adj[node.index()].iter().copied()
    }

    /// Finds the link from `src` to `dst` if one exists.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out_adj[src.index()]
            .iter()
            .copied()
            .find(|&l| self.links[l.index()].dst() == dst)
    }

    /// Both directions of the fibre between `a` and `b`, if present: the
    /// links a fibre cut takes down.
    pub fn bidirectional_pair(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        [self.link_between(a, b), self.link_between(b, a)]
            .into_iter()
            .flatten()
            .collect()
    }

    /// A copy of this topology with the `cut` links taken out of service:
    /// they keep their ids and metadata but leave the adjacency lists, so
    /// routing never takes them and [`Topology::link_between`] no longer
    /// finds them. Node and link ids, and so every per-link vector, mean
    /// the same on both topologies. A copy on which some node can no
    /// longer be reached is not an error: routing reports the
    /// unreachable destinations, as a real network would.
    pub fn without_links(&self, cut: &[LinkId]) -> Topology {
        let surviving = |adj: &[Vec<LinkId>]| -> Vec<Vec<LinkId>> {
            adj.iter()
                .map(|links| links.iter().copied().filter(|l| !cut.contains(l)).collect())
                .collect()
        };
        Topology {
            nodes: self.nodes.clone(),
            links: self.links.clone(),
            by_name: self.by_name.clone(),
            out_adj: surviving(&self.out_adj),
            in_adj: surviving(&self.in_adj),
        }
    }

    /// Human-readable `"SRC-DST"` label of a link (e.g. `"UK-FR"`).
    pub fn link_label(&self, id: LinkId) -> String {
        let l = self.link(id);
        format!(
            "{}-{}",
            self.node(l.src()).name(),
            self.node(l.dst()).name()
        )
    }

    /// Ids of all monitorable (backbone) links.
    pub fn monitorable_links(&self) -> Vec<LinkId> {
        self.link_ids()
            .filter(|&l| self.link(l).monitorable())
            .collect()
    }

    /// Checks weak connectivity (every node reachable from node 0 when link
    /// direction is ignored).
    ///
    /// # Errors
    /// [`TopologyError::Disconnected`] naming an unreachable node.
    pub fn validate_connected(&self) -> Result<()> {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            let node = NodeId(u as u32);
            for l in self.out_links(node) {
                let v = self.link(l).dst().index();
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
            for l in self.in_links(node) {
                let v = self.link(l).src().index();
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        match seen.iter().position(|&s| !s) {
            None => Ok(()),
            Some(i) => Err(TopologyError::Disconnected(
                self.nodes[i].name().to_string(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkKind, TopologyBuilder};

    fn line_topology() -> Topology {
        // A -> B -> C with reverse links.
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        b.bidirectional(a, bb, 1000.0, 1.0, LinkKind::Backbone);
        b.bidirectional(bb, c, 1000.0, 1.0, LinkKind::Backbone);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let t = line_topology();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 4);
        let b = t.node_by_name("B").unwrap();
        assert_eq!(t.node(b).name(), "B");
        assert!(t.node_by_name("Z").is_none());
        assert!(matches!(
            t.require_node("Z"),
            Err(TopologyError::UnknownNode(_))
        ));
    }

    #[test]
    fn adjacency() {
        let t = line_topology();
        let a = t.node_by_name("A").unwrap();
        let b = t.node_by_name("B").unwrap();
        let c = t.node_by_name("C").unwrap();
        assert_eq!(t.out_links(a).count(), 1);
        assert_eq!(t.out_links(b).count(), 2);
        assert_eq!(t.in_links(c).count(), 1);
        let ab = t.link_between(a, b).unwrap();
        assert_eq!(t.link(ab).dst(), b);
        assert!(t.link_between(a, c).is_none());
    }

    #[test]
    fn link_labels() {
        let t = line_topology();
        let a = t.node_by_name("A").unwrap();
        let b = t.node_by_name("B").unwrap();
        let ab = t.link_between(a, b).unwrap();
        assert_eq!(t.link_label(ab), "A-B");
    }

    #[test]
    fn connectivity_ok() {
        assert!(line_topology().validate_connected().is_ok());
    }

    #[test]
    fn disconnected_detected() {
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        b.node("LONER");
        b.bidirectional(a, bb, 100.0, 1.0, LinkKind::Backbone);
        let t = b.build().unwrap();
        assert_eq!(
            t.validate_connected(),
            Err(TopologyError::Disconnected("LONER".into()))
        );
    }

    #[test]
    fn monitorable_excludes_access_links() {
        let mut b = TopologyBuilder::new();
        let cust = b.external_node("CUST");
        let pop = b.node("POP1");
        let pop2 = b.node("POP2");
        b.link(cust, pop, 155.0, 1.0, LinkKind::Access);
        b.bidirectional(pop, pop2, 2488.0, 10.0, LinkKind::Backbone);
        let t = b.build().unwrap();
        assert_eq!(t.num_links(), 3);
        let mon = t.monitorable_links();
        assert_eq!(mon.len(), 2);
        assert!(mon.iter().all(|&l| t.link(l).monitorable()));
    }

    #[test]
    fn duplicate_links_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let c = b.node("B");
        b.link(a, c, 100.0, 1.0, LinkKind::Backbone);
        b.link(a, c, 200.0, 2.0, LinkKind::Backbone);
        assert!(matches!(
            b.build(),
            Err(TopologyError::DuplicateLink { .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            TopologyBuilder::new().build(),
            Err(TopologyError::Empty)
        ));
    }

    /// The out- and in-links of every node, in order.
    fn adjacency_lists(t: &Topology) -> Vec<(Vec<LinkId>, Vec<LinkId>)> {
        t.node_ids()
            .map(|n| (t.out_links(n).collect(), t.in_links(n).collect()))
            .collect()
    }

    #[test]
    fn cut_keeps_node_ids() {
        let t = crate::geant();
        let uk = t.require_node("UK").unwrap();
        let fr = t.require_node("FR").unwrap();
        let t2 = t.without_links(&t.bidirectional_pair(uk, fr));
        assert_eq!(t2.num_nodes(), t.num_nodes());
        for n in t.node_ids() {
            assert_eq!(t2.require_node(t.node(n).name()).unwrap(), n);
            assert_eq!(t2.node(n).is_external(), t.node(n).is_external());
        }
        let janet = t2.require_node("JANET").unwrap();
        assert!(t2.node(janet).is_external());
    }

    #[test]
    fn cut_keeps_link_ids() {
        let t = crate::geant();
        let uk = t.require_node("UK").unwrap();
        let nl = t.require_node("NL").unwrap();
        let cut = t.bidirectional_pair(uk, nl);
        assert_eq!(cut.len(), 2);
        let t2 = t.without_links(&cut);
        // Every link, cut or not, keeps its id, label, weight and capacity.
        assert_eq!(t2.num_links(), t.num_links());
        for l in t.link_ids() {
            assert_eq!(t2.link_label(l), t.link_label(l));
            assert_eq!(t2.link(l).igp_weight(), t.link(l).igp_weight());
            assert_eq!(t2.link(l).capacity_mbps(), t.link(l).capacity_mbps());
        }
    }

    #[test]
    fn cut_links_leave_the_adjacency_lists() {
        let t = crate::geant();
        let uk = t.require_node("UK").unwrap();
        let fr = t.require_node("FR").unwrap();
        let cut = t.bidirectional_pair(uk, fr);
        let t2 = t.without_links(&cut);
        assert!(t2.link_between(uk, fr).is_none());
        assert!(t2.link_between(fr, uk).is_none());
        assert!(t2.bidirectional_pair(uk, fr).is_empty());
        // Every other link stays where it was, in the same order.
        for (n, ((out, inn), (out2, in2))) in adjacency_lists(&t)
            .into_iter()
            .zip(adjacency_lists(&t2))
            .enumerate()
        {
            let keep = |ls: Vec<LinkId>| -> Vec<LinkId> {
                ls.into_iter().filter(|l| !cut.contains(l)).collect()
            };
            assert_eq!(out2, keep(out), "out-links of node {n}");
            assert_eq!(in2, keep(inn), "in-links of node {n}");
        }
    }

    #[test]
    fn empty_cut_is_clone() {
        let t = crate::geant();
        let t2 = t.without_links(&[]);
        assert_eq!(t2.num_links(), t.num_links());
        assert_eq!(adjacency_lists(&t2), adjacency_lists(&t));
    }

    #[test]
    fn successive_cuts_compose() {
        // Cutting UK–SE, then FR–LU on the result, detaches the same links
        // as cutting both at once.
        let t = crate::geant();
        let fibre = |t: &Topology, a: &str, b: &str| {
            t.bidirectional_pair(t.require_node(a).unwrap(), t.require_node(b).unwrap())
        };
        let first = fibre(&t, "UK", "SE");
        let t1 = t.without_links(&first);
        let second = fibre(&t1, "FR", "LU");
        assert_eq!(second, fibre(&t, "FR", "LU"), "ids survive the first cut");
        let stepwise = t1.without_links(&second);
        let at_once = t.without_links(&[first, second].concat());
        assert_eq!(adjacency_lists(&stepwise), adjacency_lists(&at_once));
        assert_eq!(
            adjacency_lists(&at_once)
                .iter()
                .map(|(out, _)| out.len())
                .sum::<usize>(),
            t.num_links() - 4
        );
    }
}
