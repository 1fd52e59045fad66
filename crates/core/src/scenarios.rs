//! The reconstructed GEANT/JANET evaluation scenario of the paper's §V.
//!
//! The paper tracks the traffic JANET (UK research network, AS 786) sends to
//! each of 20 GEANT PoPs through the UK PoP, on flow data of November 22,
//! 2004, with capacity `θ = 100 000` sampled packets per 5-minute interval
//! and no per-link rate cap (`α_i = 1`).
//!
//! The real NetFlow feed is not public; this module reconstructs the
//! workload with the marginals the paper reports:
//!
//! * 20 OD pairs spanning the full size spectrum — JANET→NL above
//!   30 000 pkt/s down to JANET→LU at a mere 20 pkt/s;
//! * total tracked traffic of 57 933 pkt/s (paper footnote 2);
//! * JANET-SK and JANET-LU as the two smallest pairs;
//! * background cross-traffic from a gravity model, scaled so the UK links
//!   are heavily loaded relative to stub links like FR-LU and CZ-SK —
//!   the property that makes network-wide placement beat edge monitoring.

use crate::{CoreError, MeasurementTask};
use nws_routing::OdPair;
use nws_topo::{geant, LinkId, Topology};
use nws_traffic::demand::DemandMatrix;
use nws_traffic::MEASUREMENT_INTERVAL_SECS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 20 destination PoPs and their JANET-sourced rates in packets/second,
/// in the descending order of the paper's Table I. The values reproduce the
/// reported anchors (NL > 30 000 pkt/s, LU = 20 pkt/s, total = 57 933 pkt/s,
/// SK and LU smallest).
pub const JANET_OD_RATES: [(&str, f64); 20] = [
    ("NL", 30_000.0),
    ("NY", 9_000.0),
    ("DE", 5_500.0),
    ("SE", 3_500.0),
    ("CH", 2_500.0),
    ("FR", 2_000.0),
    ("PL", 1_500.0),
    ("GR", 1_100.0),
    ("ES", 800.0),
    ("SI", 600.0),
    ("IT", 450.0),
    ("AT", 350.0),
    ("CZ", 250.0),
    ("BE", 150.0),
    ("PT", 80.0),
    ("HU", 55.0),
    ("HR", 32.0),
    ("IL", 24.0),
    ("SK", 22.0),
    ("LU", 20.0),
];

/// The paper's capacity: at most 100 000 sampled packets per 5-minute
/// interval network-wide.
pub const PAPER_THETA: f64 = 100_000.0;

/// Total background (non-JANET) traffic injected into GEANT by the gravity
/// model, in packets/second. Chosen so that backbone link loads span the
/// few-thousands (stub links) to many-tens-of-thousands (UK/DE core links)
/// pkt/s range, matching the load spread Table I relies on.
pub const BACKGROUND_TOTAL_PKTS_PER_SEC: f64 = 1_200_000.0;

/// Deterministic seed of the background gravity matrix, fixed so that every
/// experiment in the workspace sees the same "November 22, 2004".
pub const BACKGROUND_SEED: u64 = 20041122;

/// Builds the full JANET measurement task: GEANT topology, the 20 tracked OD
/// pairs of [`JANET_OD_RATES`], gravity background, `θ =` [`PAPER_THETA`],
/// `α = 1`.
pub fn janet_task() -> MeasurementTask {
    janet_task_with(PAPER_THETA, BACKGROUND_SEED).expect("reference scenario is statically valid")
}

/// Builds the JANET task with a custom capacity and background seed — the
/// knobs swept by the Figure 2 and convergence experiments.
///
/// # Errors
/// [`CoreError::InvalidTask`] if `theta` is invalid.
pub fn janet_task_with(theta: f64, background_seed: u64) -> Result<MeasurementTask, CoreError> {
    let topo = geant();
    let background = DemandMatrix::gravity_capacity_weighted(
        &topo,
        BACKGROUND_TOTAL_PKTS_PER_SEC * MEASUREMENT_INTERVAL_SECS,
        0.5,
        background_seed,
    );
    let bg_loads = background.link_loads(&topo);
    janet_task_on(topo, &bg_loads, theta)
}

/// Builds the JANET task over a caller-supplied topology and background
/// load vector (packets per interval per link). Used by the re-routing
/// experiment, which rebuilds the task on a post-failure topology.
///
/// # Errors
/// [`CoreError::InvalidTask`] on invalid `theta` or if some destination PoP
/// is unreachable in `topo`.
pub fn janet_task_on(
    topo: Topology,
    background_loads: &[f64],
    theta: f64,
) -> Result<MeasurementTask, CoreError> {
    let janet = topo
        .node_by_name(nws_topo::JANET_NODE)
        .ok_or_else(|| CoreError::InvalidTask("topology lacks a JANET node".into()))?;
    // Resolve destinations before the builder takes ownership of `topo`
    // (node ids stay valid — the builder does not mutate the topology).
    let mut pairs = Vec::with_capacity(JANET_OD_RATES.len());
    for &(dst, rate) in &JANET_OD_RATES {
        let node = topo
            .node_by_name(dst)
            .ok_or_else(|| CoreError::InvalidTask(format!("missing PoP {dst}")))?;
        pairs.push((
            format!("JANET-{dst}"),
            OdPair::new(janet, node),
            rate * MEASUREMENT_INTERVAL_SECS,
        ));
    }
    let mut builder = MeasurementTask::builder(topo);
    for (name, od, size) in pairs {
        builder = builder.track(name, od, size);
    }
    builder
        .background_loads(background_loads)
        .theta(theta)
        .build()
}

/// The 10 destination PoPs and customer-sourced rates (packets/second) of
/// the Abilene cross-network scenario. Same spectrum shape as the JANET
/// task: one dominant pair, a heavy middle, and mice at the tail.
pub const ABILENE_OD_RATES: [(&str, f64); 10] = [
    ("CHIN", 18_000.0),
    ("WASH", 7_000.0),
    ("IPLS", 2_600.0),
    ("ATLA", 1_200.0),
    ("KSCY", 520.0),
    ("DNVR", 210.0),
    ("HSTN", 90.0),
    ("SNVA", 45.0),
    ("LOSA", 25.0),
    ("STTL", 15.0),
];

/// Builds the Abilene cross-network task: customer at the New York PoP
/// tracking 10 OD pairs, gravity background, capacity `theta`.
///
/// Used to check the paper's §V-C generality claim: the optimizer's
/// advantage is a property of backbone design, not of GEANT specifically.
///
/// # Errors
/// [`CoreError::InvalidTask`] if `theta` is invalid.
pub fn abilene_task(theta: f64, background_seed: u64) -> Result<MeasurementTask, CoreError> {
    let topo = nws_topo::abilene();
    // Abilene trunks are uniformly OC-192, so the load asymmetry the method
    // exploits must come from traffic locality, as it did in reality:
    // Internet2 traffic was strongly east-coast weighted. Base masses model
    // PoP size (order: STTL SNVA LOSA DNVR KSCY HSTN IPLS ATLA CHIN WASH
    // NYCM + external customer with zero gravity mass).
    let base_masses: Vec<f64> = nws_topo::ABILENE_POPS
        .iter()
        .map(|&pop| match pop {
            "NYCM" => 10.0,
            "CHIN" | "WASH" => 8.0,
            "ATLA" => 5.0,
            "IPLS" | "LOSA" => 4.0,
            "SNVA" | "HSTN" => 3.0,
            "KSCY" | "STTL" => 1.5,
            "DNVR" => 1.0,
            _ => 1.0,
        })
        .chain(std::iter::once(0.0)) // the external customer node
        .collect();
    let background = DemandMatrix::gravity_with_masses(
        &topo,
        600_000.0 * MEASUREMENT_INTERVAL_SECS,
        &base_masses,
        0.4,
        background_seed,
    );
    let bg_loads = background.link_loads(&topo);

    let cust = topo
        .node_by_name(nws_topo::ABILENE_CUSTOMER)
        .ok_or_else(|| CoreError::InvalidTask("missing customer node".into()))?;
    let mut pairs = Vec::with_capacity(ABILENE_OD_RATES.len());
    for &(dst, rate) in &ABILENE_OD_RATES {
        let node = topo
            .node_by_name(dst)
            .ok_or_else(|| CoreError::InvalidTask(format!("missing PoP {dst}")))?;
        pairs.push((
            format!("CUST-{dst}"),
            OdPair::new(cust, node),
            rate * MEASUREMENT_INTERVAL_SECS,
        ));
    }
    let mut builder = MeasurementTask::builder(topo);
    for (name, od, size) in pairs {
        builder = builder.track(name, od, size);
    }
    builder.background_loads(&bg_loads).theta(theta).build()
}

/// `ring(pops, ods, seed)`, the seeded synthetic backbone the solver's
/// scaling tests and benchmarks share: a `ring_with_chords(pops, pops / 2,
/// seed)` topology, `ods` tracked ODs between random PoP pairs with
/// heavy-tailed (Pareto, shape 1.2) sizes, a 5e7-packet gravity background
/// and θ at 0.2% of the tracked volume — few monitors on at the optimum.
///
/// # Panics
/// Panics if `pops < 3` or `ods` exceeds the `pops·(pops − 1)` ordered
/// PoP pairs.
pub fn ring_task(pops: usize, ods: usize, seed: u64) -> MeasurementTask {
    assert!(
        pops >= 3 && ods <= pops * (pops - 1),
        "ring({pops}, {ods}) has too few PoP pairs"
    );
    let topo = nws_topo::random::ring_with_chords(pops, pops / 2, seed);
    let nodes: Vec<_> = topo.node_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    while pairs.len() < ods {
        let (s, d) = (
            rng.random_range(0..nodes.len()),
            rng.random_range(0..nodes.len()),
        );
        if s != d && !pairs.contains(&(s, d)) {
            pairs.push((s, d));
        }
    }
    let background =
        DemandMatrix::gravity_capacity_weighted(&topo, 5e7, 0.5, seed ^ 0x6267).link_loads(&topo);
    let mut builder = MeasurementTask::builder(topo);
    let mut total = 0.0;
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let u: f64 = rng.random_range(1e-6..1.0);
        let size = (2_000.0 * u.powf(-1.0 / 1.2)).min(2.0e7);
        total += size;
        builder = builder.track(format!("od{i}"), OdPair::new(nodes[s], nodes[d]), size);
    }
    builder
        .background_loads(&background)
        .theta(total * 0.002)
        .build()
        .expect("ring task is valid by construction")
}

/// The ingress PoP's backbone links in the Abilene scenario (NYCM's trunks,
/// both directions) — the analogue of [`uk_links`] for the §V-C comparison.
pub fn nycm_links(topo: &Topology) -> Vec<LinkId> {
    let nycm = topo.require_node("NYCM").expect("NYCM present");
    topo.out_links(nycm)
        .chain(topo.in_links(nycm))
        .filter(|&l| topo.link(l).monitorable())
        .collect()
}

/// The six UK backbone links (both directions are returned; the outbound
/// direction is what the JANET OD pairs traverse) — the restricted monitor
/// set of the paper's §V-C comparison.
pub fn uk_links(topo: &Topology) -> Vec<LinkId> {
    let uk = topo.require_node("UK").expect("UK PoP present");
    topo.out_links(uk)
        .chain(topo.in_links(uk))
        .filter(|&l| topo.link(l).monitorable())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn od_rates_match_paper_anchors() {
        let total: f64 = JANET_OD_RATES.iter().map(|&(_, r)| r).sum();
        assert_eq!(total, 57_933.0, "paper footnote 2 total");
        assert_eq!(JANET_OD_RATES[0], ("NL", 30_000.0));
        assert_eq!(JANET_OD_RATES[19], ("LU", 20.0));
        assert_eq!(JANET_OD_RATES[18].0, "SK");
        // Strictly descending sizes.
        for w in JANET_OD_RATES.windows(2) {
            assert!(w[0].1 > w[1].1, "{} !> {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn task_builds_with_20_ods() {
        let task = janet_task();
        assert_eq!(task.ods().len(), 20);
        assert_eq!(task.theta(), PAPER_THETA);
        // Sizes are pkt/s × 300.
        assert_eq!(task.ods()[0].size, 30_000.0 * 300.0);
        // Roughly 20 candidate links (the paper reports 22 of 72).
        let n = task.candidate_links().len();
        assert!((15..=25).contains(&n), "candidate links: {n}");
    }

    #[test]
    fn uk_links_are_six_each_direction() {
        let task = janet_task();
        let links = uk_links(task.topology());
        assert_eq!(links.len(), 12); // 6 PoPs × 2 directions
    }

    #[test]
    fn background_loads_heavier_on_core() {
        let task = janet_task();
        let topo = task.topology();
        let load = |a: &str, b: &str| {
            let l = topo
                .link_between(topo.require_node(a).unwrap(), topo.require_node(b).unwrap())
                .unwrap();
            task.link_loads()[l.index()]
        };
        // UK-NL (core, plus 30k pkt/s of JANET traffic) must dwarf FR-LU.
        assert!(load("UK", "NL") > 10.0 * load("FR", "LU"));
        assert!(load("CZ", "SK") < load("UK", "FR"));
        // Every candidate link has positive load.
        for &l in task.candidate_links() {
            assert!(task.link_loads()[l.index()] > 0.0);
        }
    }

    #[test]
    fn deterministic_reconstruction() {
        let a = janet_task();
        let b = janet_task();
        assert_eq!(a.link_loads(), b.link_loads());
    }

    #[test]
    fn abilene_task_builds() {
        let task = abilene_task(40_000.0, 7).unwrap();
        assert_eq!(task.ods().len(), 10);
        assert!(task.candidate_links().len() >= 8);
        let links = nycm_links(task.topology());
        assert_eq!(links.len(), 4); // CHIN + WASH trunks, both directions
    }

    #[test]
    fn custom_theta_applies() {
        let t = janet_task_with(5_000.0, BACKGROUND_SEED).unwrap();
        assert_eq!(t.theta(), 5_000.0);
        assert!(janet_task_with(-1.0, BACKGROUND_SEED).is_err());
    }
}
