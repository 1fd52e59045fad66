//! Link-failure what-if analysis.
//!
//! Short-term traffic variation due to failures and re-routing is one of the
//! paper's core motivations for *re-optimizable* monitor placement (§I). The
//! helpers here derive a post-failure topology so callers can reconverge
//! routing ([`crate::Spf`], [`crate::RoutingMatrix`]) and re-run the optimizer, then compare against
//! the stale pre-failure monitor configuration.

use nws_topo::{LinkId, NodeId, Result, Topology, TopologyBuilder};

/// Builds a copy of `topo` with the given links removed.
///
/// Node ids are preserved (all nodes are copied in order); link ids are *not*
/// comparable across the two topologies — use
/// [`link_id_map`] to translate surviving links.
///
/// Failing a single fibre direction is unusual in practice; pass both
/// directions (see [`bidirectional_pair`]) to model a fibre cut.
///
/// # Errors
/// Propagates topology-construction errors (e.g. the surviving graph could
/// be empty). A disconnected survivor is *not* an error here — routing will
/// simply report unreachable destinations, as a real network would.
pub fn without_links(topo: &Topology, failed: &[LinkId]) -> Result<Topology> {
    let mut b = TopologyBuilder::new();
    for nid in topo.node_ids() {
        let n = topo.node(nid);
        let new_id = if n.is_external() {
            b.external_node(n.name())
        } else {
            b.node(n.name())
        };
        debug_assert_eq!(new_id, nid, "node ids preserved by copy order");
    }
    for lid in topo.link_ids() {
        if failed.contains(&lid) {
            continue;
        }
        let l = topo.link(lid);
        b.link(
            l.src(),
            l.dst(),
            l.capacity_mbps(),
            l.igp_weight(),
            l.kind(),
        );
    }
    b.build()
}

/// Both directions of the fibre between `a` and `b`, if present.
/// Convenience for modelling a full fibre cut.
pub fn bidirectional_pair(topo: &Topology, a: NodeId, b: NodeId) -> Vec<LinkId> {
    [topo.link_between(a, b), topo.link_between(b, a)]
        .into_iter()
        .flatten()
        .collect()
}

/// Maps each surviving link of `topo` to its id in the post-failure topology
/// produced by [`without_links`] with the same `failed` list.
/// Entry is `None` for failed links.
pub fn link_id_map(topo: &Topology, failed: &[LinkId]) -> Vec<Option<LinkId>> {
    let mut map = Vec::with_capacity(topo.num_links());
    let mut next = 0u32;
    for lid in topo.link_ids() {
        if failed.contains(&lid) {
            map.push(None);
        } else {
            map.push(Some(LinkId::from_index(next as usize)));
            next += 1;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spf;
    use nws_topo::geant;

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

        // Fail the UK<->SE fibre.
        let failed = bidirectional_pair(&t, uk, se);
        assert_eq!(failed.len(), 2);
        let t2 = without_links(&t, &failed).unwrap();
        assert_eq!(t2.num_links(), t.num_links() - 2);

        // After: PL still reachable, but not via the failed fibre.
        let pl2 = t2.require_node("PL").unwrap();
        let janet2 = t2.require_node("JANET").unwrap();
        let (after, after_cost) = route(&t2, janet2, pl2).unwrap();
        assert!(after_cost > before_cost);
        assert!(
            !after.iter().any(|l| l == "UK-SE"),
            "rerouted path still uses failed fibre: {after:?}"
        );
    }

    #[test]
    fn node_ids_preserved() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let fr = t.require_node("FR").unwrap();
        let failed = bidirectional_pair(&t, uk, fr);
        let t2 = without_links(&t, &failed).unwrap();
        assert_eq!(t2.require_node("UK").unwrap(), uk);
        assert_eq!(t2.require_node("FR").unwrap(), fr);
        assert_eq!(t2.num_nodes(), t.num_nodes());
        // External flag preserved.
        let janet2 = t2.require_node("JANET").unwrap();
        assert!(t2.node(janet2).is_external());
    }

    #[test]
    fn link_id_map_consistent() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let nl = t.require_node("NL").unwrap();
        let failed = bidirectional_pair(&t, uk, nl);
        let t2 = without_links(&t, &failed).unwrap();
        let map = link_id_map(&t, &failed);
        assert_eq!(map.len(), t.num_links());
        for lid in t.link_ids() {
            match map[lid.index()] {
                None => assert!(failed.contains(&lid)),
                Some(new_id) => {
                    assert_eq!(t2.link_label(new_id), t.link_label(lid));
                    assert_eq!(t2.link(new_id).igp_weight(), t.link(lid).igp_weight());
                }
            }
        }
    }

    #[test]
    fn empty_failure_list_is_clone() {
        let t = geant();
        let t2 = without_links(&t, &[]).unwrap();
        assert_eq!(t2.num_links(), t.num_links());
        assert_eq!(t2.num_nodes(), t.num_nodes());
    }

    #[test]
    fn disconnected_survivor_graph_degrades_gracefully() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let ie = t.require_node("IE").unwrap();
        // IE is single-homed to UK; cutting the fibre splits the graph into
        // a 22-node component and an isolated {IE}.
        let failed = bidirectional_pair(&t, uk, ie);
        let t2 = without_links(&t, &failed).unwrap();

        // The survivor builds fine but is no longer connected.
        assert!(t2.validate_connected().is_err());

        // Surviving links still translate consistently.
        let map = link_id_map(&t, &failed);
        assert_eq!(map.iter().flatten().count(), t2.num_links());

        // Routing degrades per-destination rather than failing wholesale:
        // IE is unreachable from every other node ...
        let ie2 = t2.require_node("IE").unwrap();
        for src in t2.node_ids().filter(|&n| n != ie2) {
            assert!(
                route(&t2, src, ie2).is_none(),
                "{} should not reach isolated IE",
                t2.node(src).name()
            );
        }
        // ... the isolated island cannot reach out ...
        let janet2 = t2.require_node("JANET").unwrap();
        assert!(route(&t2, ie2, janet2).is_none());
        // ... and every destination in the main component stays reachable.
        for dst in t2.node_ids().filter(|&n| n != ie2 && n != janet2) {
            assert!(
                route(&t2, janet2, dst).is_some(),
                "JANET lost {} although it is in the surviving component",
                t2.node(dst).name()
            );
        }
    }

    #[test]
    fn link_id_map_survives_repeated_fail_restore_cycles() {
        // The serving daemon's fail_link/restore_link loop re-derives the
        // post-failure topology from scratch each time, so the translation
        // map must stay exact across arbitrarily many cycles — including
        // re-failing a fibre that was previously failed and restored.
        let t = geant();
        let fibres = [("UK", "SE"), ("FR", "LU"), ("UK", "NL"), ("FR", "LU")];
        for (cycle, (a, b)) in fibres.iter().enumerate() {
            let a = t.require_node(a).unwrap();
            let b = t.require_node(b).unwrap();
            let failed = bidirectional_pair(&t, a, b);
            assert_eq!(failed.len(), 2, "cycle {cycle}: fibre present");

            // Fail: every surviving link translates label- and
            // weight-exactly; failed links map to None.
            let t_failed = without_links(&t, &failed).unwrap();
            let map = link_id_map(&t, &failed);
            assert_eq!(map.iter().flatten().count(), t_failed.num_links());
            for lid in t.link_ids() {
                match map[lid.index()] {
                    None => assert!(failed.contains(&lid), "cycle {cycle}"),
                    Some(new_id) => {
                        assert_eq!(t_failed.link_label(new_id), t.link_label(lid));
                        assert_eq!(
                            t_failed.link(new_id).capacity_mbps(),
                            t.link(lid).capacity_mbps()
                        );
                    }
                }
            }

            // Restore: the daemon drops back to the pristine topology; the
            // no-failure map must be the identity over the original ids.
            let restored = without_links(&t, &[]).unwrap();
            assert_eq!(restored.num_links(), t.num_links(), "cycle {cycle}");
            let identity = link_id_map(&t, &[]);
            for lid in t.link_ids() {
                assert_eq!(identity[lid.index()], Some(lid), "cycle {cycle}");
                assert_eq!(restored.link_label(lid), t.link_label(lid));
            }
        }
    }

    #[test]
    fn link_id_map_composes_across_overlapping_failures() {
        // Two overlapping failure epochs (fail UK<->SE, then additionally
        // FR<->LU without restoring): composing the per-epoch maps must
        // agree with the map of the combined failure set.
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let se = t.require_node("SE").unwrap();
        let first = bidirectional_pair(&t, uk, se);
        let t1 = without_links(&t, &first).unwrap();
        let map1 = link_id_map(&t, &first);

        let fr1 = t1.require_node("FR").unwrap();
        let lu1 = t1.require_node("LU").unwrap();
        let second = bidirectional_pair(&t1, fr1, lu1);
        let t2 = without_links(&t1, &second).unwrap();
        let map2 = link_id_map(&t1, &second);

        let fr = t.require_node("FR").unwrap();
        let lu = t.require_node("LU").unwrap();
        let mut combined_failed = first.clone();
        combined_failed.extend(bidirectional_pair(&t, fr, lu));
        let combined = link_id_map(&t, &combined_failed);

        for lid in t.link_ids() {
            let composed = map1[lid.index()].and_then(|mid| map2[mid.index()]);
            assert_eq!(
                composed,
                combined[lid.index()],
                "composition mismatch for {}",
                t.link_label(lid)
            );
            if let Some(final_id) = composed {
                assert_eq!(t2.link_label(final_id), t.link_label(lid));
            }
        }
        assert_eq!(
            combined.iter().flatten().count(),
            t.num_links() - combined_failed.len()
        );
    }

    #[test]
    fn isolating_a_node_yields_unreachable_not_error() {
        let t = geant();
        let uk = t.require_node("UK").unwrap();
        let ie = t.require_node("IE").unwrap();
        // IE is single-homed to UK; cutting the fibre isolates it.
        let failed = bidirectional_pair(&t, uk, ie);
        let t2 = without_links(&t, &failed).unwrap();
        let janet2 = t2.require_node("JANET").unwrap();
        let ie2 = t2.require_node("IE").unwrap();
        assert!(route(&t2, janet2, ie2).is_none());
    }
}
