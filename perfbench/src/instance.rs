//! The benchmark's problem instances and seeded operation streams.
//!
//! The instances are fixed parts of each workload's definition (built from
//! constant seeds), so runs with different `--seed` values solve the same
//! network; the seed drives only the operation stream: which OD moves and
//! by how much, which fibre flaps, the read mix, and the replay trace.

use nws_core::scenarios::{janet_task, PAPER_THETA};
use nws_core::{MeasurementTask, PlacementConfig};
use nws_routing::OdPair;
use nws_scenario::{generate_trace, GeneratorConfig, Trace, TraceTick};
use nws_service::{Request, ServiceState};
use nws_topo::random::ring_with_chords;
use nws_topo::NodeId;
use nws_traffic::demand::DemandMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// PoPs of the synthetic backbone.
pub const BACKBONE_POPS: usize = 96;
/// Chord fibres added to the backbone's ring (96 ring + 48 chord fibres
/// = 288 directed links).
pub const BACKBONE_CHORDS: usize = 48;
/// Tracked OD pairs on the backbone.
pub const BACKBONE_ODS: usize = 132;
/// Seed of the backbone topology, OD choice and sizes. A constant: the
/// instance is part of the workload, and only the operation stream
/// follows `--seed`.
const BACKBONE_SEED: u64 = 0x6261_636b;
/// Background (untracked) packets per interval on the backbone.
const BACKBONE_BACKGROUND: f64 = 3.0e8;
/// θ as a share of the tracked volume.
const BACKBONE_THETA_SHARE: f64 = 0.002;
/// Diurnal period of the replay trace, in ticks.
pub const TRACE_PERIOD: u64 = 48;

/// The paper's small instance: GEANT with the §V JANET task (74 links,
/// 20 tracked ODs, θ = `PAPER_THETA`).
pub fn geant_task() -> MeasurementTask {
    janet_task()
}

/// The synthetic backbone: a `ring_with_chords` topology of 96 PoPs and
/// 288 links, 132 tracked ODs between random PoP pairs with heavy-tailed
/// (Pareto, shape 1.2) sizes, a gravity background, and θ at 0.2% of
/// the tracked volume.
pub fn backbone_task() -> MeasurementTask {
    let topo = ring_with_chords(BACKBONE_POPS, BACKBONE_CHORDS, BACKBONE_SEED);
    let nodes: Vec<NodeId> = topo.node_ids().collect();
    let mut rng = StdRng::seed_from_u64(BACKBONE_SEED ^ 0x6f64);
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(BACKBONE_ODS);
    while pairs.len() < BACKBONE_ODS {
        let s = rng.random_range(0..nodes.len());
        let d = rng.random_range(0..nodes.len());
        if s != d && !pairs.contains(&(s, d)) {
            pairs.push((s, d));
        }
    }
    let sizes: Vec<f64> = pairs
        .iter()
        .map(|_| {
            let u: f64 = rng.random_range(1e-6..1.0);
            (2_000.0 * u.powf(-1.0 / 1.2)).min(2.0e7)
        })
        .collect();
    let background = DemandMatrix::gravity_capacity_weighted(
        &topo,
        BACKBONE_BACKGROUND,
        0.5,
        BACKBONE_SEED ^ 0x6267,
    )
    .link_loads(&topo);
    let total: f64 = sizes.iter().sum();
    let names: Vec<String> = pairs
        .iter()
        .map(|&(s, d)| {
            format!(
                "{}-{}",
                topo.node(nodes[s]).name(),
                topo.node(nodes[d]).name()
            )
        })
        .collect();
    let mut builder = MeasurementTask::builder(topo);
    for ((name, &(s, d)), size) in names.into_iter().zip(&pairs).zip(sizes) {
        builder = builder.track(name, OdPair::new(nodes[s], nodes[d]), size);
    }
    builder
        .background_loads(&background)
        .theta(total * BACKBONE_THETA_SHARE)
        .build()
        .expect("the backbone instance is statically valid")
}

/// The service state every workload starts from.
pub fn base_state(task: &MeasurementTask) -> ServiceState {
    ServiceState::from_task(task, PlacementConfig::default())
}

/// The geant_write mutation stream: `update_demand` at ×U(0.7, 1.3) of
/// the OD's base size; every 16th request a `fail_link` (on a fibre from
/// `flappable`) or the `restore_link` of the fibre currently down; every
/// 64th request a `set_theta` at ×U(0.7, 1.3) of `PAPER_THETA`.
pub fn geant_write_ops(
    base: &ServiceState,
    flappable: &[(String, String)],
    count: usize,
    seed: u64,
) -> Vec<Request> {
    assert!(!flappable.is_empty(), "GEANT has flappable fibres");
    let mut rng = StdRng::seed_from_u64(seed);
    let ods: Vec<(String, f64)> = base
        .ods()
        .iter()
        .map(|o| (o.name.clone(), o.size))
        .collect();
    let mut down: Option<(String, String)> = None;
    (0..count)
        .map(|i| {
            if i % 64 == 63 {
                Request::SetTheta {
                    theta: PAPER_THETA * rng.random_range(0.7..1.3),
                }
            } else if i % 16 == 15 {
                match down.take() {
                    Some((a, b)) => Request::RestoreLink { a, b },
                    None => {
                        let (a, b) = flappable[rng.random_range(0..flappable.len())].clone();
                        down = Some((a.clone(), b.clone()));
                        Request::FailLink { a, b }
                    }
                }
            } else {
                demand_update(&ods, &mut rng)
            }
        })
        .collect()
}

/// The backbone_mixed writer's stream: `update_demand` only.
pub fn demand_ops(base: &ServiceState, count: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ods: Vec<(String, f64)> = base
        .ods()
        .iter()
        .map(|o| (o.name.clone(), o.size))
        .collect();
    (0..count).map(|_| demand_update(&ods, &mut rng)).collect()
}

fn demand_update(ods: &[(String, f64)], rng: &mut StdRng) -> Request {
    let (od, size) = &ods[rng.random_range(0..ods.len())];
    Request::UpdateDemand {
        od: od.clone(),
        size: size * rng.random_range(0.7..1.3),
    }
}

/// The backbone_mixed reader's command mix: 70% `query_rates`, 20%
/// `health`, 10% `stats`, as an endless seeded stream.
pub struct ReadMix {
    rng: StdRng,
}

impl ReadMix {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        ReadMix {
            rng: StdRng::seed_from_u64(seed ^ 0x7265_6164),
        }
    }

    /// The next read request.
    pub fn next_request(&mut self) -> Request {
        let roll: f64 = self.rng.random_range(0.0..1.0);
        if roll < 0.70 {
            Request::QueryRates
        } else if roll < 0.90 {
            Request::Health
        } else {
            Request::Stats
        }
    }
}

/// The backbone_replay trace: `ticks` ticks with a 48-tick diurnal
/// period, 5% multiplicative noise, a flash crowd per 24 ticks and a
/// (non-overlapping) link flap per 48 ticks.
pub fn replay_trace(base: &ServiceState, ticks: u64, seed: u64) -> Trace {
    generate_trace(
        base,
        &GeneratorConfig {
            ticks,
            period: TRACE_PERIOD,
            noise_cv: 0.05,
            flash_crowds: (ticks / 24).max(1),
            link_flaps: (ticks / TRACE_PERIOD).max(1),
            seed,
            ..GeneratorConfig::default()
        },
    )
}

/// The requests one replay tick applies, in order: its demand batch as
/// one `update_demands`, then its link events.
pub fn tick_requests(tick: &TraceTick) -> Vec<Request> {
    std::iter::once(Request::UpdateDemands {
        updates: tick.demands.clone(),
    })
    .chain(tick.events.iter().map(|ev| ev.to_request()))
    .collect()
}
