//! Gravity-model traffic matrices and link-load derivation.

use crate::dist::LogNormal;
use nws_routing::Spf;
use nws_topo::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A node-to-node demand matrix in packets per measurement interval.
///
/// The paper's optimizer needs realistic per-link loads `U_i` — the cross
/// traffic that competes with the tracked OD pairs for sampling capacity.
/// A *gravity model* (demand proportional to the product of endpoint
/// "masses") with lognormal mass jitter is the standard synthetic stand-in
/// for a backbone traffic matrix and reproduces its key property: a few
/// hot-hot pairs dominate while most pairs are small.
#[derive(Debug, Clone)]
pub struct DemandMatrix {
    n: usize,
    /// Row-major `n × n` demands; diagonal is zero.
    demands: Vec<f64>,
}

impl DemandMatrix {
    /// Creates an all-zero demand matrix over `n` nodes.
    pub fn zeros(n: usize) -> Self {
        DemandMatrix {
            n,
            demands: vec![0.0; n * n],
        }
    }

    /// Generates a gravity-model matrix over the *internal* (non-external)
    /// nodes of `topo`, scaled so all demands sum to `total` packets per
    /// interval.
    ///
    /// Node masses are i.i.d. lognormal with coefficient of variation
    /// `mass_cv`; demands are `total · m_s·m_t / Σ_{u≠v} m_u·m_v`. External
    /// nodes (customer attachments like JANET) get zero gravity demand —
    /// their traffic is injected explicitly by the measurement task.
    ///
    /// # Panics
    /// Panics if `total` is not positive/finite, `mass_cv` is negative, or
    /// `topo` has fewer than two internal nodes.
    pub fn gravity(topo: &Topology, total: f64, mass_cv: f64, seed: u64) -> Self {
        assert!(total.is_finite() && total > 0.0, "total must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = LogNormal::from_mean_cv(1.0, mass_cv.max(0.0));
        let masses: Vec<f64> = topo
            .node_ids()
            .map(|id| {
                if topo.node(id).is_external() {
                    0.0
                } else {
                    dist.sample(&mut rng)
                }
            })
            .collect();
        Self::from_masses(total, &masses)
    }

    /// Like [`DemandMatrix::gravity`], but node masses are proportional to
    /// the node's attached capacity (sum of outgoing link line rates) before
    /// the lognormal jitter is applied.
    ///
    /// Capacity-weighted masses reproduce a structural property of real
    /// backbones that plain i.i.d. masses miss: big multi-homed PoPs (UK,
    /// DE, FR) both source and sink most traffic, so core links run far
    /// hotter than stub links — the load asymmetry the paper's optimizer
    /// exploits when it samples small OD pairs on quiet downstream links.
    ///
    /// # Panics
    /// Same contract as [`DemandMatrix::gravity`].
    pub fn gravity_capacity_weighted(topo: &Topology, total: f64, mass_cv: f64, seed: u64) -> Self {
        assert!(total.is_finite() && total > 0.0, "total must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = LogNormal::from_mean_cv(1.0, mass_cv.max(0.0));
        let masses: Vec<f64> = topo
            .node_ids()
            .map(|id| {
                if topo.node(id).is_external() {
                    return 0.0;
                }
                let capacity: f64 = topo
                    .out_links(id)
                    .map(|l| topo.link(l).capacity_mbps())
                    .sum();
                capacity * dist.sample(&mut rng)
            })
            .collect();
        Self::from_masses(total, &masses)
    }

    /// Gravity matrix from caller-supplied base masses (e.g. known PoP
    /// sizes), each jittered by a lognormal factor with coefficient of
    /// variation `mass_cv`. A zero mass excludes the node entirely.
    ///
    /// # Panics
    /// Panics if `total` is not positive/finite, `masses` doesn't match the
    /// topology, a mass is negative, or fewer than two masses are positive.
    pub fn gravity_with_masses(
        topo: &Topology,
        total: f64,
        base_masses: &[f64],
        mass_cv: f64,
        seed: u64,
    ) -> Self {
        assert!(total.is_finite() && total > 0.0, "total must be positive");
        assert_eq!(
            base_masses.len(),
            topo.num_nodes(),
            "mass vector length mismatch"
        );
        assert!(base_masses.iter().all(|&m| m >= 0.0), "masses must be ≥ 0");
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = LogNormal::from_mean_cv(1.0, mass_cv.max(0.0));
        let masses: Vec<f64> = base_masses
            .iter()
            .map(|&m| m * dist.sample(&mut rng))
            .collect();
        Self::from_masses(total, &masses)
    }

    /// Builds the gravity matrix from explicit node masses (zero mass =
    /// no demand to/from that node).
    fn from_masses(total: f64, masses: &[f64]) -> Self {
        let n = masses.len();
        let internal = masses.iter().filter(|&&m| m > 0.0).count();
        assert!(
            internal >= 2,
            "gravity model needs at least two internal nodes"
        );
        let mut dm = DemandMatrix::zeros(n);
        let mut weight_sum = 0.0;
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    weight_sum += masses[s] * masses[t];
                }
            }
        }
        for s in 0..n {
            for t in 0..n {
                if s != t && masses[s] > 0.0 && masses[t] > 0.0 {
                    dm.demands[s * n + t] = total * masses[s] * masses[t] / weight_sum;
                }
            }
        }
        dm
    }

    /// Number of nodes this matrix is defined over.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Demand from `s` to `t` in packets per interval.
    ///
    /// # Panics
    /// Panics if either id is out of range.
    pub fn demand(&self, s: NodeId, t: NodeId) -> f64 {
        assert!(
            s.index() < self.n && t.index() < self.n,
            "node id out of range"
        );
        self.demands[s.index() * self.n + t.index()]
    }

    /// Sets the demand from `s` to `t`.
    ///
    /// # Panics
    /// Panics if ids are out of range, `s == t`, or `value` is negative.
    pub fn set_demand(&mut self, s: NodeId, t: NodeId, value: f64) {
        assert!(
            s.index() < self.n && t.index() < self.n,
            "node id out of range"
        );
        assert!(s != t, "diagonal demands are not allowed");
        assert!(value.is_finite() && value >= 0.0, "demand must be ≥ 0");
        self.demands[s.index() * self.n + t.index()] = value;
    }

    /// Total demand across all OD pairs.
    pub fn total(&self) -> f64 {
        self.demands.iter().sum()
    }

    /// Multiplies every demand by `factor` (diurnal scaling, what-if load).
    ///
    /// # Panics
    /// Panics if `factor` is negative or non-finite.
    pub fn scale(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be ≥ 0");
        for d in &mut self.demands {
            *d *= factor;
        }
    }

    /// Routes every demand over `topo` (shortest path, even ECMP split) and
    /// returns the per-link load vector in packets per interval.
    ///
    /// Runs one [`Spf`] per source with demand and walks it to each of that
    /// source's destinations; each link sums its `fraction · demand` terms
    /// by source, then destination.
    ///
    /// # Panics
    /// Panics if the matrix dimension does not match `topo`.
    pub fn link_loads(&self, topo: &Topology) -> Vec<f64> {
        assert_eq!(self.n, topo.num_nodes(), "matrix does not match topology");
        let mut loads = vec![0.0; topo.num_links()];
        let mut share = Vec::new();
        for s in 0..self.n {
            let row = &self.demands[s * self.n..(s + 1) * self.n];
            if !row.iter().any(|&d| d > 0.0) {
                continue;
            }
            let spf = Spf::compute(topo, NodeId::from_index(s));
            for (t, &d) in row.iter().enumerate() {
                if d > 0.0 {
                    spf.ecmp_split(NodeId::from_index(t), &mut share, |l, f| {
                        loads[l.index()] += f * d;
                    });
                }
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_routing::{OdPair, RoutingMatrix};
    use nws_topo::geant;

    /// The positive demands of `dm`, row by row.
    fn positive(dm: &DemandMatrix, topo: &Topology) -> Vec<(OdPair, f64)> {
        let mut out = Vec::new();
        for s in topo.node_ids() {
            for t in topo.node_ids() {
                let d = dm.demand(s, t);
                if d > 0.0 {
                    out.push((OdPair::new(s, t), d));
                }
            }
        }
        out
    }

    #[test]
    fn gravity_totals_and_structure() {
        let t = geant();
        let dm = DemandMatrix::gravity(&t, 1e6, 1.0, 42);
        assert!((dm.total() - 1e6).abs() < 1e-6 * 1e6);
        // Diagonal zero; JANET (external) row/col zero.
        let janet = t.require_node("JANET").unwrap();
        for id in t.node_ids() {
            assert_eq!(dm.demand(id, id), 0.0);
            assert_eq!(dm.demand(janet, id), 0.0);
            assert_eq!(dm.demand(id, janet), 0.0);
        }
    }

    #[test]
    fn gravity_is_deterministic_per_seed() {
        let t = geant();
        let a = DemandMatrix::gravity(&t, 1e5, 0.8, 7);
        let b = DemandMatrix::gravity(&t, 1e5, 0.8, 7);
        let c = DemandMatrix::gravity(&t, 1e5, 0.8, 8);
        let uk = t.require_node("UK").unwrap();
        let fr = t.require_node("FR").unwrap();
        assert_eq!(a.demand(uk, fr), b.demand(uk, fr));
        assert_ne!(a.demand(uk, fr), c.demand(uk, fr));
    }

    #[test]
    fn gravity_skewed_by_cv() {
        let t = geant();
        let dm = DemandMatrix::gravity(&t, 1e6, 2.0, 3);
        let pairs = positive(&dm, &t);
        let mut vals: Vec<f64> = pairs.iter().map(|&(_, d)| d).collect();
        vals.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Top 10% of pairs carry well over 10% of traffic.
        let top = vals.iter().take(vals.len() / 10).sum::<f64>();
        assert!(
            top / dm.total() > 0.3,
            "top-decile share {}",
            top / dm.total()
        );
    }

    #[test]
    fn set_and_scale() {
        let t = geant();
        let mut dm = DemandMatrix::zeros(t.num_nodes());
        let uk = t.require_node("UK").unwrap();
        let fr = t.require_node("FR").unwrap();
        dm.set_demand(uk, fr, 100.0);
        assert_eq!(dm.total(), 100.0);
        dm.scale(2.5);
        assert_eq!(dm.demand(uk, fr), 250.0);
        assert_eq!(positive(&dm, &t).len(), 1);
    }

    #[test]
    #[should_panic(expected = "diagonal demands")]
    fn diagonal_set_rejected() {
        let t = geant();
        let mut dm = DemandMatrix::zeros(t.num_nodes());
        let uk = t.require_node("UK").unwrap();
        dm.set_demand(uk, uk, 1.0);
    }

    #[test]
    fn link_loads_conserve_volume() {
        // Each demand contributes (path length)·demand to total link volume;
        // verify per-link accumulation equals per-OD path sums.
        let t = geant();
        let dm = DemandMatrix::gravity(&t, 1e5, 1.0, 11);
        let loads = dm.link_loads(&t);
        assert_eq!(loads.len(), t.num_links());
        let total_link_volume: f64 = loads.iter().sum();
        let pairs = positive(&dm, &t);
        let ods: Vec<OdPair> = pairs.iter().map(|&(od, _)| od).collect();
        let routing = RoutingMatrix::build(&t, &ods);
        let expected: f64 = pairs
            .iter()
            .enumerate()
            .map(|(k, &(_, d))| routing.row(k).iter().map(|&(_, f)| f * d).sum::<f64>())
            .sum();
        assert!((total_link_volume - expected).abs() < 1e-6 * expected);
        assert!(loads.iter().all(|&l| l >= 0.0));
        assert!(total_link_volume > 0.0);
    }
}
