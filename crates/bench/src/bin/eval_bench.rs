//! Micro-benchmark of the objective-evaluation engine: `value`, `gradient`
//! and `curvature_along` through the `Objective` trait, the recorder
//! overhead, plus solver end-to-end timings, on GEANT, Abilene, a ~500-node
//! random topology and the 300-PoP `ring_task(300, 4000, 1)`. A solver
//! case's `serial_ms` is the median of five cold solves; it also records
//! whether the solve certified (`kkt`) and its iteration
//! count under the paper's Polak–Ribière directions with the same cap
//! (`pr_iterations`).
//! The warm cases time the fixed cost of a warm re-solve at three sizes:
//! after one cold solve, each seeded draw scales every OD size by a factor
//! in [0.9, 1.1], rebuilds the task over the same routing and re-solves
//! warm from the cold rates; `outside_ms` is the part of that re-solve
//! outside the solver's `solve` span (projection, objective build, report).
//! The routing cases time the routing substrate on `ring_task(P, O, 1)`: one
//! SPF (`spf_us`, the mean over the task's OD sources), the task's routing
//! matrix (`matrix_ms`) and its gravity background's link loads
//! (`link_loads_ms`), each the median of five runs.
//! The parse cases time the decoders at the head of the two end-to-end
//! paths, each the median of five runs: `Trace::parse` of a 1,000-tick
//! trace on `ring_task(96, 132, 1)`, and `parse_incoming` of a 132-entry
//! and of a 100,000-entry `update_demands` batch (the batch cap).
//!
//! Dependency-free (`std::time::Instant` only); emits machine-readable JSON
//! (default `BENCH_eval.json`) that `scripts/check_bench.py` validates and
//! gates in CI; `available_cores` in the JSON records the machine.
//!
//! Flags: `--quick` (smaller instances, fewer reps — the CI smoke mode),
//! `--out PATH`.

use nws_bench::{banner, footer};
use nws_core::scenarios::{abilene_task, janet_task, ring_task};
use nws_core::{
    solve_placement, solve_placement_warm_observed, MeasurementTask, PlacementConfig,
    PlacementObjective, RateModel, ReducedIndex, SreUtility,
};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_routing::{OdPair, RoutingMatrix, Spf};
use nws_scenario::{generate_trace, GeneratorConfig, Trace};
use nws_service::{parse_incoming, Request, ServiceState};
use nws_solver::{Direction, Objective};
use nws_topo::random::ring_with_chords;
use nws_topo::NodeId;
use nws_traffic::demand::DemandMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

struct EvalCase {
    name: String,
    model: RateModel,
    objective: PlacementObjective,
    point: Vector,
}

struct EvalResult {
    name: String,
    model: &'static str,
    num_ods: usize,
    nnz: usize,
    dim: usize,
    value_ms: f64,
    gradient_ms: f64,
    curvature_ms: f64,
}

struct SolverResult {
    name: String,
    num_ods: usize,
    serial_ms: f64,
    iterations: usize,
    kkt: bool,
    /// Iterations of the same task and cap under Polak–Ribière.
    pr_iterations: usize,
}

struct WarmResult {
    name: String,
    dim: usize,
    nnz: usize,
    draws: usize,
    /// Median wall time of one warm re-solve.
    warm_ms: f64,
    /// Median time inside the solver's `solve` span.
    solve_ms: f64,
    /// Median of each re-solve's wall time outside that span.
    outside_ms: f64,
    /// Mean iterations per re-solve.
    iterations: f64,
    /// Whether every re-solve certified.
    kkt: bool,
}

struct RoutingResult {
    name: String,
    nodes: usize,
    links: usize,
    ods: usize,
    /// Distinct OD sources: the SPFs one routing-matrix build runs.
    sources: usize,
    /// Median over the repeats of the mean time of one source's SPF.
    spf_us: f64,
    /// Median `RoutingMatrix::build` time for the task's ODs.
    matrix_ms: f64,
    /// Median `DemandMatrix::link_loads` time for the task's background.
    link_loads_ms: f64,
}

struct ParseResult {
    name: String,
    /// Lines one run parses.
    lines: usize,
    /// `[name, size]` entries in those lines.
    entries: usize,
    /// Bytes one run parses.
    bytes: usize,
    /// Median time of one run.
    parse_ms: f64,
}

struct ObsResult {
    disabled_ms: f64,
    enabled_ms: f64,
    overhead_ratio: f64,
}

/// Median wall time of `reps` calls to `f`, in milliseconds (one warmup).
fn time_median_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// A low-rate evaluation point with some per-coordinate variation.
fn eval_point(dim: usize) -> Vector {
    (0..dim).map(|v| 1e-3 * (1.0 + (v % 7) as f64)).collect()
}

fn task_case(name: &str, task: &MeasurementTask, model: RateModel) -> EvalCase {
    let idx = ReducedIndex::new(task);
    EvalCase {
        name: name.to_string(),
        model,
        objective: PlacementObjective::new(task, &idx, model),
        point: eval_point(idx.dim()),
    }
}

/// Builds the large synthetic eval case directly from shortest-path rows on
/// a ring-with-chords topology: every node is a source tracking `dsts_per_src`
/// destinations, sizes heavy-tailed by OD rank. Bypassing `MeasurementTask`
/// keeps construction linear in nnz (no dense routing matrix), which is what
/// lets the case reach hundreds of thousands of entries.
type ObjectiveParts = (Vec<SreUtility>, Vec<f64>, Vec<Vec<(usize, f64)>>, usize);

/// The raw (utilities, weights, routing rows, dim) of the synthetic case,
/// so several objectives can be built over identical data.
fn random_parts(n: usize, chords: usize, dsts_per_src: usize) -> ObjectiveParts {
    let topo = ring_with_chords(n, chords, 42);
    let dim = topo.num_links();
    let mut ods = Vec::new();
    for src in topo.node_ids() {
        for j in 1..=dsts_per_src {
            // Deterministic destination spread around the ring.
            let dst_index = (src.index() + j * (n / (dsts_per_src + 1)).max(1) + j) % n;
            if dst_index != src.index() {
                ods.push(OdPair::new(src, NodeId::from_index(dst_index)));
            }
        }
    }
    let routing = RoutingMatrix::build(&topo, &ods);
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut utilities = Vec::new();
    for k in 0..ods.len() {
        let row = routing.row(k);
        if row.is_empty() {
            continue;
        }
        rows.push(row.iter().map(|&(l, f)| (l.index(), f)).collect());
        // Heavy-tailed sizes: a few elephants, many mice.
        let rank = rows.len();
        let size = (9_000_000.0 / (rank as f64).powf(1.2)).max(600.0);
        utilities.push(SreUtility::new(1.0 / size));
    }
    let weights = vec![1.0; rows.len()];
    (utilities, weights, rows, dim)
}

fn random_case(n: usize, chords: usize, dsts_per_src: usize, model: RateModel) -> EvalCase {
    let (utilities, weights, rows, dim) = random_parts(n, chords, dsts_per_src);
    EvalCase {
        name: format!("random{n}"),
        model,
        objective: PlacementObjective::from_parts(utilities, weights, rows, model, dim),
        point: eval_point(dim),
    }
}

fn run_eval_case(case: &EvalCase, reps: usize) -> EvalResult {
    let obj = &case.objective;
    let (num_ods, nnz, dim) = (obj.num_ods(), obj.nnz(), obj.dim());
    let p = &case.point;
    let s: Vector = (0..dim)
        .map(|v| if v % 2 == 0 { 1.0 } else { -0.5 })
        .collect();

    let value_ms = time_median_ms(reps, || {
        black_box(obj.value(black_box(p)));
    });
    let mut g = Vector::zeros(dim);
    let gradient_ms = time_median_ms(reps, || {
        obj.gradient_into(black_box(p), &mut g);
        black_box(&g);
    });
    let curvature_ms = time_median_ms(reps, || {
        black_box(obj.curvature_along(black_box(p), black_box(&s)));
    });
    EvalResult {
        name: case.name.clone(),
        model: match case.model {
            RateModel::Approximate => "approximate",
            RateModel::Exact => "exact",
        },
        num_ods,
        nnz,
        dim,
        value_ms,
        gradient_ms,
        curvature_ms,
    }
}

/// Random-topology measurement task for the solver end-to-end case: the
/// max-degree node tracks every reachable destination.
fn random_task(n: usize, chords: usize) -> MeasurementTask {
    let topo = ring_with_chords(n, chords, 42);
    let ingress = topo
        .node_ids()
        .max_by_key(|&v| topo.out_links(v).count())
        .expect("nodes exist");
    let spf = Spf::compute(&topo, ingress);
    let mut tracked = Vec::new();
    for (rank, dst) in topo.node_ids().filter(|&d| d != ingress).enumerate() {
        if spf.distance(dst).is_none() {
            continue;
        }
        let size = (9_000_000.0 / ((rank + 1) as f64).powf(1.2)).max(600.0);
        tracked.push((dst, size));
    }
    let bg = DemandMatrix::gravity_capacity_weighted(&topo, 3e8, 0.5, 7).link_loads(&topo);
    let total: f64 = tracked.iter().map(|&(_, s)| s).sum();
    let mut b = MeasurementTask::builder(topo);
    for (dst, size) in tracked {
        b = b.track(format!("F{}", dst.index()), OdPair::new(ingress, dst), size);
    }
    b.background_loads(&bg)
        .theta(total * 0.002)
        .build()
        .expect("synthetic task is valid")
}

/// Cold solves timed per solver case: one cold solve of identical work
/// reads anywhere in a 2× range, so `serial_ms` is their median.
const SOLVER_REPEATS: usize = 5;

/// Solves `task` [`SOLVER_REPEATS`] times under the default config
/// (iteration cap 2000), then once with Polak–Ribière directions for
/// `pr_iterations`.
fn run_solver_case(name: &str, task: &MeasurementTask) -> SolverResult {
    let mut config = PlacementConfig::default();
    let mut times = Vec::with_capacity(SOLVER_REPEATS);
    let mut sol = None;
    for _ in 0..SOLVER_REPEATS {
        let t0 = Instant::now();
        let solved = solve_placement(task, &config).expect("solve succeeds");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        sol = Some(solved);
    }
    let sol = sol.expect("at least one solve");
    let serial_ms = median(&mut times);
    config.solver.direction = Direction::PolakRibiere;
    let pr = solve_placement(task, &config).expect("solve succeeds");
    SolverResult {
        name: name.to_string(),
        num_ods: task.ods().len(),
        serial_ms,
        iterations: sol.diagnostics.iterations,
        kkt: sol.kkt_verified,
        pr_iterations: pr.diagnostics.iterations,
    }
}

/// The median of `xs` (sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// `task` with OD `k`'s size scaled by `factors[k]`, over the same routing,
/// background, θ and α.
fn rescaled(task: &MeasurementTask, factors: &[f64]) -> MeasurementTask {
    let sizes: Vec<f64> = task.ods().iter().map(|o| o.size).collect();
    let tracked = task.routing().link_loads(&sizes);
    let background: Vec<f64> = task
        .link_loads()
        .iter()
        .zip(&tracked)
        .map(|(total, t)| (total - t).max(0.0))
        .collect();
    let mut b = MeasurementTask::builder(task.topology().clone());
    for (od, f) in task.ods().iter().zip(factors) {
        b = b.track(od.name.clone(), od.od, od.size * f);
    }
    b.background_loads(&background)
        .theta(task.theta())
        .alpha(task.alpha()[0])
        .build_with_routing(task.routing().clone())
        .expect("a rescaled task stays valid")
}

/// Cold-solves `task` once, then re-solves `draws` seeded demand draws
/// warm from the cold rates, each with its own recorder so the `solve`
/// span splits the re-solve's wall time.
fn run_warm_case(name: &str, task: &MeasurementTask, draws: usize) -> WarmResult {
    let config = PlacementConfig::default();
    let cold = solve_placement(task, &config).expect("solve succeeds");
    let index = ReducedIndex::new(task);
    let nnz = PlacementObjective::new(task, &index, config.rate_model).nnz();
    let mut rng = StdRng::seed_from_u64(0x7761_726d);
    let (mut warm, mut solve, mut outside) = (vec![], vec![], vec![]);
    let (mut iterations, mut kkt) = (0usize, true);
    for _ in 0..draws {
        let factors: Vec<f64> = task
            .ods()
            .iter()
            .map(|_| rng.random_range(0.9..1.1))
            .collect();
        let drawn = rescaled(task, &factors);
        let rec = Recorder::enabled();
        let t0 = Instant::now();
        let sol = solve_placement_warm_observed(&drawn, &config, &cold.rates, &rec)
            .expect("warm solve succeeds");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let span_ms = rec
            .snapshot()
            .spans
            .iter()
            .find(|s| s.name == "solve")
            .map_or(0.0, |s| s.total_ms);
        warm.push(wall_ms);
        solve.push(span_ms);
        outside.push(wall_ms - span_ms);
        iterations += sol.diagnostics.iterations;
        kkt &= sol.kkt_verified;
    }
    WarmResult {
        name: name.to_string(),
        dim: index.dim(),
        nnz,
        draws,
        warm_ms: median(&mut warm),
        solve_ms: median(&mut solve),
        outside_ms: median(&mut outside),
        iterations: iterations as f64 / draws as f64,
        kkt,
    }
}

/// Runs timed per routing stage; each stage reports their median.
const ROUTING_REPEATS: usize = 5;

/// Times the routing substrate on `ring_task(pops, ods, 1)`: one SPF per
/// distinct OD source, the task's routing matrix, and the link loads of
/// the gravity background `ring_task` draws.
fn run_routing_case(pops: usize, ods: usize) -> RoutingResult {
    const SEED: u64 = 1;
    let task = ring_task(pops, ods, SEED);
    let topo = task.topology();
    let pairs: Vec<OdPair> = task.ods().iter().map(|o| o.od).collect();
    let mut sources: Vec<NodeId> = pairs.iter().map(|od| od.src).collect();
    sources.sort_unstable();
    sources.dedup();
    // The demand matrix behind `ring_task`'s background loads.
    let background = DemandMatrix::gravity_capacity_weighted(topo, 5e7, 0.5, SEED ^ 0x6267);
    let spf_ms = time_median_ms(ROUTING_REPEATS, || {
        for &s in &sources {
            black_box(Spf::compute(black_box(topo), s));
        }
    });
    let matrix_ms = time_median_ms(ROUTING_REPEATS, || {
        black_box(RoutingMatrix::build(black_box(topo), &pairs));
    });
    let link_loads_ms = time_median_ms(ROUTING_REPEATS, || {
        black_box(background.link_loads(black_box(topo)));
    });
    RoutingResult {
        name: format!("ring{pops}"),
        nodes: topo.num_nodes(),
        links: topo.num_links(),
        ods,
        sources: sources.len(),
        spf_us: spf_ms * 1e3 / sources.len() as f64,
        matrix_ms,
        link_loads_ms,
    }
}

/// Runs timed per parse case; each reports their median.
const PARSE_REPEATS: usize = 5;

/// Times the two decoders that head the end-to-end paths: `Trace::parse`
/// of a 1,000-tick trace on `ring_task(96, 132, 1)` (the replay path), and
/// `parse_incoming` of an `update_demands` batch of one tick's 132 demands
/// and of one at the 100,000-entry cap (the serving path).
fn run_parse_cases() -> Vec<ParseResult> {
    let task = ring_task(96, 132, 1);
    let base = ServiceState::from_task(&task, PlacementConfig::default());
    let trace = generate_trace(
        &base,
        &GeneratorConfig {
            ticks: 1000,
            seed: 1,
            ..GeneratorConfig::default()
        },
    );
    let text = trace.encode();
    let trace_ms = time_median_ms(PARSE_REPEATS, || {
        black_box(Trace::parse(black_box(&text)).expect("an encoded trace parses"));
    });
    let mut cases = vec![ParseResult {
        name: "trace_ring96".into(),
        lines: text.lines().count(),
        entries: trace.header.ods.len()
            + trace.ticks.iter().map(|t| t.demands.len()).sum::<usize>(),
        bytes: text.len(),
        parse_ms: trace_ms,
    }];
    let full_batch: Vec<(String, f64)> = (0..100_000)
        .map(|i| (format!("od{i}"), 2.0 + i as f64 / 8.0))
        .collect();
    for updates in [trace.ticks[0].demands.clone(), full_batch] {
        let entries = updates.len();
        let line = Request::UpdateDemands { updates }.to_json().encode();
        let parse_ms = time_median_ms(PARSE_REPEATS, || {
            black_box(parse_incoming(black_box(&line)).expect("an encoded batch parses"));
        });
        cases.push(ParseResult {
            name: format!("update_demands_{entries}"),
            lines: 1,
            entries,
            bytes: line.len(),
            parse_ms,
        });
    }
    cases
}

/// Measures recorder overhead on the evaluation hot path: the same serial
/// objective (identical data) with the default no-op sink vs an enabled
/// `nws-obs` recorder. Run on the large random case — the scale the engine
/// targets; on toy instances the fixed per-call counter bump dwarfs the
/// sub-microsecond gradient itself. Each sample times a batch of gradient
/// evaluations to stay above timer noise. Each of `pairs` pairs times the
/// two objectives back to back, the one that goes first alternating from
/// pair to pair, so drift and warm-up hit both sides alike.
/// `overhead_ratio` is the median of the per-pair ratios enabled/disabled,
/// which CI gates at 1.05; `disabled_ms` and `enabled_ms` are each side's
/// median sample.
fn run_obs_overhead(
    disabled: &PlacementObjective,
    enabled: &PlacementObjective,
    pairs: usize,
) -> ObsResult {
    const BATCH: usize = 8;
    let dim = disabled.dim();
    let p = eval_point(dim);
    let mut g = Vector::zeros(dim);
    let mut sample = |obj: &PlacementObjective| {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            obj.gradient_into(black_box(&p), &mut g);
            black_box(&g);
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    sample(disabled); // warmup
    sample(enabled);
    let (mut d_samples, mut e_samples, mut ratios) = (vec![], vec![], vec![]);
    for pair in 0..pairs {
        let (d, e) = if pair % 2 == 0 {
            let d = sample(disabled);
            (d, sample(enabled))
        } else {
            let e = sample(enabled);
            (sample(disabled), e)
        };
        d_samples.push(d);
        e_samples.push(e);
        ratios.push(e / d);
    }
    ObsResult {
        disabled_ms: median(&mut d_samples),
        enabled_ms: median(&mut e_samples),
        overhead_ratio: median(&mut ratios),
    }
}

fn render_json(
    quick: bool,
    evals: &[EvalResult],
    solvers: &[SolverResult],
    warms: &[WarmResult],
    routings: &[RoutingResult],
    parses: &[ParseResult],
    obs: &ObsResult,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"eval_bench\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"available_cores\": {cores},\n"));
    out.push_str(&format!(
        "  \"obs\": {{\"disabled_ms\": {:.6}, \"enabled_ms\": {:.6}, \"overhead_ratio\": {:.6}}},\n",
        obs.disabled_ms, obs.enabled_ms, obs.overhead_ratio
    ));
    out.push_str("  \"eval_cases\": [\n");
    for (i, e) in evals.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"model\": \"{}\", \"num_ods\": {}, \"nnz\": {}, \
             \"dim\": {},\n     \"value_ms\": {:.6}, \"gradient_ms\": {:.6}, \"curvature_ms\": {:.6}}}{}\n",
            e.name,
            e.model,
            e.num_ods,
            e.nnz,
            e.dim,
            e.value_ms,
            e.gradient_ms,
            e.curvature_ms,
            if i + 1 < evals.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"solver_cases\": [\n");
    for (i, s) in solvers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"num_ods\": {}, \"serial_ms\": {:.3}, \
             \"iterations\": {}, \"kkt\": {}, \"pr_iterations\": {}}}{}\n",
            s.name,
            s.num_ods,
            s.serial_ms,
            s.iterations,
            s.kkt,
            s.pr_iterations,
            if i + 1 < solvers.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"warm_cases\": [\n");
    for (i, w) in warms.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"dim\": {}, \"nnz\": {}, \"draws\": {}, \
             \"warm_ms\": {:.4}, \"solve_ms\": {:.4}, \"outside_ms\": {:.4}, \
             \"iterations\": {:.2}, \"kkt\": {}}}{}\n",
            w.name,
            w.dim,
            w.nnz,
            w.draws,
            w.warm_ms,
            w.solve_ms,
            w.outside_ms,
            w.iterations,
            w.kkt,
            if i + 1 < warms.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"routing_cases\": [\n");
    for (i, r) in routings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"nodes\": {}, \"links\": {}, \"ods\": {}, \
             \"sources\": {}, \"spf_us\": {:.3}, \"matrix_ms\": {:.4}, \
             \"link_loads_ms\": {:.4}}}{}\n",
            r.name,
            r.nodes,
            r.links,
            r.ods,
            r.sources,
            r.spf_us,
            r.matrix_ms,
            r.link_loads_ms,
            if i + 1 < routings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"parse_cases\": [\n");
    for (i, p) in parses.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"lines\": {}, \"entries\": {}, \"bytes\": {}, \
             \"parse_ms\": {:.5}}}{}\n",
            p.name,
            p.lines,
            p.entries,
            p.bytes,
            p.parse_ms,
            if i + 1 < parses.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_eval.json".to_string());

    let t0 = banner(
        "eval_bench",
        "objective-evaluation engine: trait evaluations, plus solver end-to-end",
    );
    let reps = if quick { 3 } else { 7 };
    let (rand_n, rand_chords, dsts) = if quick {
        (160, 320, 12)
    } else {
        (500, 1000, 40)
    };

    let janet = janet_task();
    let abilene = abilene_task(40_000.0, 7).expect("valid theta");

    let eval_cases = vec![
        task_case("geant_janet", &janet, RateModel::Approximate),
        task_case("abilene", &abilene, RateModel::Approximate),
        random_case(rand_n, rand_chords, dsts, RateModel::Approximate),
        random_case(rand_n, rand_chords, dsts, RateModel::Exact),
    ];

    println!(
        "{:<16} {:<12} {:>8} {:>9} | {:>11}",
        "case", "model", "ods", "nnz", "gradient ms"
    );
    let mut evals = Vec::new();
    for case in &eval_cases {
        let r = run_eval_case(case, reps);
        println!(
            "{:<16} {:<12} {:>8} {:>9} | {:>11.6}",
            r.name, r.model, r.num_ods, r.nnz, r.gradient_ms
        );
        evals.push(r);
    }

    println!();
    println!("solver end-to-end:");
    let rand_task = random_task(rand_n, rand_chords);
    let ring300 = ring_task(300, 4000, 1);
    let solvers = vec![
        run_solver_case("geant_janet", &janet),
        run_solver_case("abilene", &abilene),
        run_solver_case(&format!("random{rand_n}"), &rand_task),
        run_solver_case("ring300", &ring300),
    ];
    for s in &solvers {
        println!(
            "{:<16} {:>9.1} ms   {} iterations (Polak-Ribiere {}), certified {}",
            s.name, s.serial_ms, s.iterations, s.pr_iterations, s.kkt
        );
    }

    println!();
    println!("warm re-solve after a demand draw (medians):");
    let draws = if quick { 10 } else { 30 };
    let warms = vec![
        run_warm_case("geant_janet", &janet, draws),
        run_warm_case("ring96", &ring_task(96, 132, 1), draws),
        run_warm_case("ring300", &ring300, draws),
    ];
    for w in &warms {
        println!(
            "{:<16} dim {:>4}   warm {:>8.3} ms   solve span {:>8.3} ms   outside {:>8.3} ms   \
             {:.1} iterations, certified {}",
            w.name, w.dim, w.warm_ms, w.solve_ms, w.outside_ms, w.iterations, w.kkt
        );
    }

    println!();
    println!("routing on ring_task(P, O, 1) (medians):");
    let mut routing_shapes = vec![(96, 132), (300, 4000)];
    if !quick {
        routing_shapes.push((600, 12_000));
    }
    let routings: Vec<RoutingResult> = routing_shapes
        .into_iter()
        .map(|(pops, ods)| run_routing_case(pops, ods))
        .collect();
    for r in &routings {
        println!(
            "{:<16} {:>4} nodes {:>5} links {:>6} ods {:>4} sources   spf {:>7.2} us   \
             matrix {:>8.3} ms   link loads {:>9.3} ms",
            r.name, r.nodes, r.links, r.ods, r.sources, r.spf_us, r.matrix_ms, r.link_loads_ms
        );
    }

    println!();
    println!("parse (medians):");
    let parses = run_parse_cases();
    for p in &parses {
        println!(
            "{:<22} {:>5} lines {:>7} entries {:>9} bytes   {:>9.4} ms",
            p.name, p.lines, p.entries, p.bytes, p.parse_ms
        );
    }

    println!();
    let (utilities, weights, rows, dim) = random_parts(rand_n, rand_chords, dsts);
    let obs_disabled = PlacementObjective::from_parts(
        utilities.clone(),
        weights.clone(),
        rows.clone(),
        RateModel::Approximate,
        dim,
    );
    let obs_enabled =
        PlacementObjective::from_parts(utilities, weights, rows, RateModel::Approximate, dim)
            .with_recorder(Recorder::enabled());
    let obs = run_obs_overhead(&obs_disabled, &obs_enabled, if quick { 41 } else { 61 });
    println!(
        "obs overhead (serial gradient, batched): disabled {:.3} ms   enabled {:.3} ms   \
         median pair ratio {:.4}",
        obs.disabled_ms, obs.enabled_ms, obs.overhead_ratio
    );

    let json = render_json(quick, &evals, &solvers, &warms, &routings, &parses, &obs);
    std::fs::write(&out_path, &json).expect("write JSON report");
    println!();
    println!("wrote {out_path}");
    footer(t0);
}
