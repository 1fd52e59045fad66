//! The routing matrix `R` and link-load accumulation.

use crate::{OdPair, Spf};
use nws_topo::{LinkId, Topology};

/// The routing matrix of a measurement task: `entry(k, i)` is the fraction of
/// OD pair `k`'s traffic that traverses link `i` (paper §III: `r_{k,i} = 1`
/// if OD pair `i` traverses edge `j`, generalized to fractions under ECMP).
///
/// Stored as compressed sparse rows (CSR): an OD touches only the links of
/// its path, so each row keeps just its `(link, fraction)` pairs with a
/// positive fraction, in ascending link order. Storage, link loads and the
/// covered-link set cost O(nnz) rather than O(`|F| × |E|`), and one cell is
/// a binary search of its row.
#[derive(Debug, Clone)]
pub struct RoutingMatrix {
    ods: Vec<OdPair>,
    num_links: usize,
    /// Row offsets: OD `k`'s entries span
    /// `entries[offsets[k]..offsets[k + 1]]`; length `|F| + 1`.
    offsets: Vec<usize>,
    /// `(link, fraction)` pairs of all ODs, grouped by OD, links strictly
    /// ascending within each row, fractions in `(0, 1]`.
    entries: Vec<(LinkId, f64)>,
}

impl RoutingMatrix {
    /// Builds the routing matrix for `ods` over `topo` using shortest-path
    /// routing with even ECMP splitting.
    ///
    /// Runs one [`Spf`] per distinct OD source; each row is that SPF's ECMP
    /// walk to the OD's destination.
    pub fn build(topo: &Topology, ods: &[OdPair]) -> RoutingMatrix {
        // Route the ODs grouped by source, then lay the rows out in OD order.
        let mut by_source: Vec<usize> = (0..ods.len()).collect();
        by_source.sort_by_key(|&k| ods[k].src);
        let mut routed = Vec::new();
        let mut spans = vec![(0, 0); ods.len()];
        let mut share = Vec::new();
        for group in by_source.chunk_by(|&a, &b| ods[a].src == ods[b].src) {
            let spf = Spf::compute(topo, ods[group[0]].src);
            for &k in group {
                let start = routed.len();
                spf.ecmp_split(ods[k].dst, &mut share, |l, f| routed.push((l, f)));
                routed[start..].sort_unstable_by_key(|&(l, _)| l);
                spans[k] = (start, routed.len());
            }
        }
        let mut offsets = Vec::with_capacity(ods.len() + 1);
        let mut entries = Vec::with_capacity(routed.len());
        offsets.push(0);
        for (start, end) in spans {
            entries.extend_from_slice(&routed[start..end]);
            offsets.push(entries.len());
        }
        RoutingMatrix {
            ods: ods.to_vec(),
            num_links: topo.num_links(),
            offsets,
            entries,
        }
    }

    /// Number of OD pairs (rows).
    pub fn num_ods(&self) -> usize {
        self.ods.len()
    }

    /// Number of links (columns).
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// The OD pairs, in row order.
    pub fn ods(&self) -> &[OdPair] {
        &self.ods
    }

    /// OD `k`'s sparse row: the `(link, fraction)` pairs of the links it
    /// traverses, links strictly ascending, fractions in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn row(&self, k: usize) -> &[(LinkId, f64)] {
        assert!(k < self.ods.len(), "OD index {k} out of range");
        &self.entries[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Fraction of OD `k`'s traffic on `link` (0 off its route), by a binary
    /// search of its row.
    ///
    /// # Panics
    /// Panics if `k` or `link` is out of range.
    pub fn entry(&self, k: usize, link: LinkId) -> f64 {
        assert!(
            link.index() < self.num_links,
            "link index {} out of range",
            link.index()
        );
        let row = self.row(k);
        row.binary_search_by_key(&link, |&(l, _)| l)
            .map_or(0.0, |i| row[i].1)
    }

    /// True if OD `k` sends any traffic over `link`.
    ///
    /// # Panics
    /// Panics if `k` or `link` is out of range.
    pub fn traverses(&self, k: usize, link: LinkId) -> bool {
        self.entry(k, link) > 0.0
    }

    /// Links traversed by OD `k` (positive fraction), in link-id order.
    pub fn links_of_od(&self, k: usize) -> Vec<LinkId> {
        self.row(k).iter().map(|&(l, _)| l).collect()
    }

    /// OD rows that traverse `link`, ascending.
    ///
    /// # Panics
    /// Panics if `link` is out of range.
    pub fn ods_on_link(&self, link: LinkId) -> Vec<usize> {
        assert!(
            link.index() < self.num_links,
            "link index {} out of range",
            link.index()
        );
        (0..self.ods.len())
            .filter(|&k| self.traverses(k, link))
            .collect()
    }

    /// The union of links traversed by any OD pair — the candidate monitor
    /// set `L ⊆ E` of the paper — in link-id order.
    pub fn covered_links(&self) -> Vec<LinkId> {
        let mut covered = vec![false; self.num_links];
        for &(l, _) in &self.entries {
            covered[l.index()] = true;
        }
        (0..self.num_links)
            .filter(|&i| covered[i])
            .map(LinkId::from_index)
            .collect()
    }

    /// Accumulates per-link loads from per-OD demands: `U = Rᵀ·d`.
    ///
    /// `demands[k]` is OD `k`'s traffic volume (any unit); the result is the
    /// volume each link carries from these ODs, in the same unit. Each
    /// link's load is summed over its ODs in ascending row order.
    ///
    /// # Panics
    /// Panics if `demands.len() != self.num_ods()`.
    pub fn link_loads(&self, demands: &[f64]) -> Vec<f64> {
        assert_eq!(
            demands.len(),
            self.ods.len(),
            "demand vector length mismatch"
        );
        let mut loads = vec![0.0; self.num_links];
        for (k, &d) in demands.iter().enumerate() {
            for &(l, f) in self.row(k) {
                loads[l.index()] += f * d;
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_topo::geant;

    fn janet_ods(topo: &Topology) -> Vec<OdPair> {
        let janet = topo.require_node("JANET").unwrap();
        ["NL", "LU", "SK", "PL"]
            .iter()
            .map(|d| OdPair::new(janet, topo.require_node(d).unwrap()))
            .collect()
    }

    #[test]
    fn build_and_entries() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        assert_eq!(r.num_ods(), 4);
        assert_eq!(r.num_links(), t.num_links());

        // JANET->NL traverses access link + UK-NL.
        let uk = t.require_node("UK").unwrap();
        let nl = t.require_node("NL").unwrap();
        let uk_nl = t.link_between(uk, nl).unwrap();
        assert!(r.traverses(0, uk_nl));
        assert_eq!(r.entry(0, uk_nl), 1.0);

        // JANET->LU goes via FR, not NL.
        let fr = t.require_node("FR").unwrap();
        let lu = t.require_node("LU").unwrap();
        let fr_lu = t.link_between(fr, lu).unwrap();
        assert!(r.traverses(1, fr_lu));
        assert!(!r.traverses(1, uk_nl));
    }

    #[test]
    fn links_of_od_ordered_set() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        // JANET->SK: JANET-UK, UK-NL, NL-DE, DE-CZ, CZ-SK = 5 links.
        let links = r.links_of_od(2);
        assert_eq!(links.len(), 5);
        let labels: Vec<String> = links.iter().map(|&l| t.link_label(l)).collect();
        assert!(labels.contains(&"CZ-SK".to_string()));
        assert!(labels.contains(&"JANET-UK".to_string()));
    }

    #[test]
    fn ods_on_link_inverse_of_links_of_od() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        for k in 0..r.num_ods() {
            for l in r.links_of_od(k) {
                assert!(r.ods_on_link(l).contains(&k));
            }
        }
    }

    #[test]
    fn covered_links_union() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        let covered = r.covered_links();
        // JANET-UK + UK-NL (NL) + UK-FR,FR-LU (LU) + NL-DE,DE-CZ,CZ-SK (SK)
        // + UK-SE,SE-PL (PL) = 9 links.
        assert_eq!(covered.len(), 9);
    }

    #[test]
    fn link_loads_accumulate() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        let demands = [30000.0, 20.0, 22.0, 1500.0];
        let loads = r.link_loads(&demands);
        // The access link carries everything.
        let access = nws_topo::janet_access_link(&t);
        assert!((loads[access.index()] - demands.iter().sum::<f64>()).abs() < 1e-9);
        // UK-NL carries NL + SK traffic (SK routed via NL-DE).
        let uk = t.require_node("UK").unwrap();
        let nl = t.require_node("NL").unwrap();
        let uk_nl = t.link_between(uk, nl).unwrap();
        assert!((loads[uk_nl.index()] - (30000.0 + 22.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "demand vector length mismatch")]
    fn wrong_demand_length_panics() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        let _ = r.link_loads(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn entry_rejects_link_past_the_last() {
        let t = geant();
        let ods = janet_ods(&t);
        let r = RoutingMatrix::build(&t, &ods);
        // On OD 0 a row-major index would land on OD 1's first link.
        let _ = r.entry(0, LinkId::from_index(r.num_links()));
    }

    #[test]
    fn empty_od_set() {
        let t = geant();
        let r = RoutingMatrix::build(&t, &[]);
        assert_eq!(r.num_ods(), 0);
        assert!(r.covered_links().is_empty());
        assert_eq!(r.link_loads(&[]).len(), t.num_links());
    }
}
